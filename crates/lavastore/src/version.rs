//! LSM version state and the manifest.
//!
//! A [`Version`] is the authoritative list of live SST files per level plus
//! the engine's id/sequence counters. Every mutation (flush, compaction) is
//! persisted by atomically rewriting the manifest file (write-temp + rename),
//! so a crash leaves either the old or the new version, never a torn one.
//!
//! The manifest's magic versions the **directory**, not just this file: WAL
//! frames carry no format marker of their own, so a directory written in
//! format v1, v2 or v3 is turned away here, by name, before any log or SST in
//! it is read under format v4's rules. (v4 changed only the WAL — one frame
//! per drain, stored as an SST block is — so its SSTs keep the v3 magic.)

use crate::encoding::{
    crc32, get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32, put_u64,
    put_varint,
};
use crate::error::{Error, Result};
use bytes::Bytes;
use std::path::Path;

/// Manifest magic of a format-v4 directory (see `record.rs`, `sstable.rs`,
/// `wal.rs`).
const MANIFEST_MAGIC: u32 = 0xAB5E_3574;
/// Manifest magics of formats v3, v2 and v1, kept only to name them when
/// refusing one.
const MANIFEST_MAGIC_V3: u32 = 0xAB5E_3573;
const MANIFEST_MAGIC_V2: u32 = 0xAB5E_3572;
const MANIFEST_MAGIC_V1: u32 = 0xAB5E_3514;

/// Metadata for one live SST file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstMeta {
    /// File id (names the file `<id>.sst`).
    pub id: u64,
    /// LSM level.
    pub level: u32,
    /// Engine stripe that owns this file: flushes and compactions stay
    /// within one stripe, so reopening a striped database can hand every
    /// file straight back to its stripe.
    pub stripe: u32,
    /// Smallest user key.
    pub min_key: Bytes,
    /// Largest user key.
    pub max_key: Bytes,
    /// File size in bytes.
    pub file_size: u64,
    /// Record count.
    pub record_count: u64,
}

impl SstMeta {
    /// True if this file's key range intersects `[min, max]`.
    pub fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        !(self.max_key.as_ref() < min || self.min_key.as_ref() > max)
    }
}

/// Register a file at its level of `levels` — a [`Version`]'s, or one
/// stripe's. L0 is kept newest (largest id) first, the order a read probes
/// it in; L1+ levels are sorted by `min_key`.
pub(crate) fn add_file(levels: &mut [Vec<SstMeta>], meta: SstMeta) {
    let level = meta.level as usize;
    assert!(level < levels.len(), "level out of range");
    let files = &mut levels[level];
    files.push(meta);
    if level == 0 {
        files.sort_by_key(|m| std::cmp::Reverse(m.id));
    } else {
        files.sort_by(|a, b| a.min_key.cmp(&b.min_key));
    }
}

/// Remove a file by id from whichever level holds it; returns true if found.
pub(crate) fn remove_file(levels: &mut [Vec<SstMeta>], id: u64) -> bool {
    for files in levels {
        if let Some(pos) = files.iter().position(|m| m.id == id) {
            files.remove(pos);
            return true;
        }
    }
    false
}

/// Total bytes of one level's files.
pub(crate) fn level_bytes(files: &[SstMeta]) -> u64 {
    files.iter().map(|m| m.file_size).sum()
}

/// The live file set and engine counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// `levels[l]` = files at level `l`. L0 may overlap; L1+ are disjoint and
    /// sorted by `min_key`.
    pub levels: Vec<Vec<SstMeta>>,
    /// Next SST/WAL file id to allocate.
    pub next_file_id: u64,
    /// Next record sequence number.
    pub next_seq: u64,
    /// First WAL segment id whose records are *not* fully persisted in SSTs.
    /// Recovery replays segments from here; older segments still on disk are
    /// a retained backlog for replication tail readers.
    pub wal_floor: u64,
    /// Stripe count the database was created with. Keys hash to stripes, so
    /// the count is fixed at creation and persisted here; reopening always
    /// uses the manifest's value regardless of the caller's config.
    pub n_stripes: u32,
}

impl Version {
    /// An empty version with `n_levels` levels (single-stripe by default;
    /// [`crate::db::Db`] sets `n_stripes` when creating a fresh database).
    pub fn new(n_levels: usize) -> Self {
        Self {
            levels: vec![Vec::new(); n_levels],
            next_file_id: 1,
            next_seq: 1,
            wal_floor: 0,
            n_stripes: 1,
        }
    }

    /// Allocate a fresh file id.
    pub fn allocate_file_id(&mut self) -> u64 {
        let id = self.next_file_id;
        self.next_file_id += 1;
        id
    }

    /// Serialize the version.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.next_file_id);
        put_u64(&mut body, self.next_seq);
        put_u64(&mut body, self.wal_floor);
        put_u32(&mut body, self.n_stripes);
        put_varint(&mut body, self.levels.len() as u64);
        for files in &self.levels {
            put_varint(&mut body, files.len() as u64);
            for m in files {
                put_u64(&mut body, m.id);
                put_u32(&mut body, m.level);
                put_u32(&mut body, m.stripe);
                put_len_prefixed(&mut body, &m.min_key);
                put_len_prefixed(&mut body, &m.max_key);
                put_u64(&mut body, m.file_size);
                put_u64(&mut body, m.record_count);
            }
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        put_u32(&mut out, MANIFEST_MAGIC);
        put_u32(&mut out, crc32(&body));
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Deserialize a version.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        match get_u32(data, &mut pos)? {
            MANIFEST_MAGIC => {}
            old @ (MANIFEST_MAGIC_V3 | MANIFEST_MAGIC_V2 | MANIFEST_MAGIC_V1) => {
                let version = match old {
                    MANIFEST_MAGIC_V3 => 3,
                    MANIFEST_MAGIC_V2 => 2,
                    _ => 1,
                };
                return Err(Error::Corruption(format!(
                    "manifest is format v{version} (magic {old:#010x}); \
                     this build reads only format v4 directories"
                )));
            }
            other => {
                return Err(Error::Corruption(format!(
                    "bad manifest magic {other:#010x} (format v4 is {MANIFEST_MAGIC:#010x})"
                )))
            }
        }
        let crc = get_u32(data, &mut pos)?;
        let len = get_u32(data, &mut pos)? as usize;
        if pos + len > data.len() {
            return Err(Error::Corruption("truncated manifest".into()));
        }
        let body = &data[pos..pos + len];
        if crc32(body) != crc {
            return Err(Error::Corruption("manifest crc mismatch".into()));
        }
        let mut pos = 0usize;
        let next_file_id = get_u64(body, &mut pos)?;
        let next_seq = get_u64(body, &mut pos)?;
        let wal_floor = get_u64(body, &mut pos)?;
        let n_stripes = get_u32(body, &mut pos)?;
        let n_levels = get_varint(body, &mut pos)? as usize;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let n_files = get_varint(body, &mut pos)? as usize;
            let mut files = Vec::with_capacity(n_files);
            for _ in 0..n_files {
                let id = get_u64(body, &mut pos)?;
                let level = get_u32(body, &mut pos)?;
                let stripe = get_u32(body, &mut pos)?;
                let min_key = Bytes::copy_from_slice(get_len_prefixed(body, &mut pos)?);
                let max_key = Bytes::copy_from_slice(get_len_prefixed(body, &mut pos)?);
                let file_size = get_u64(body, &mut pos)?;
                let record_count = get_u64(body, &mut pos)?;
                files.push(SstMeta {
                    id,
                    level,
                    stripe,
                    min_key,
                    max_key,
                    file_size,
                    record_count,
                });
            }
            levels.push(files);
        }
        Ok(Self {
            levels,
            next_file_id,
            next_seq,
            wal_floor,
            n_stripes,
        })
    }

    /// Atomically persist the manifest into `dir`.
    pub fn save(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join("MANIFEST.tmp");
        let final_path = dir.join("MANIFEST");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, &final_path)?;
        Ok(())
    }

    /// Load the manifest from `dir`; `Ok(None)` if none exists yet.
    pub fn load(dir: &Path) -> Result<Option<Self>> {
        let path = dir.join("MANIFEST");
        match std::fs::read(&path) {
            Ok(data) => Ok(Some(Self::decode(&data)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, level: u32, min: &str, max: &str) -> SstMeta {
        SstMeta {
            id,
            level,
            stripe: 0,
            min_key: Bytes::copy_from_slice(min.as_bytes()),
            max_key: Bytes::copy_from_slice(max.as_bytes()),
            file_size: 1000,
            record_count: 10,
        }
    }

    /// A version holding `files`.
    fn version(n_levels: usize, files: Vec<SstMeta>) -> Version {
        let mut v = Version::new(n_levels);
        for m in files {
            add_file(&mut v.levels, m);
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut v = version(
            4,
            vec![
                meta(1, 0, "a", "m"),
                meta(2, 0, "c", "z"),
                meta(3, 1, "a", "f"),
                meta(4, 1, "g", "p"),
            ],
        );
        v.next_seq = 42;
        let decoded = Version::decode(&v.encode()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn l0_sorted_newest_first_l1_by_key() {
        let mut levels = vec![Vec::new(); 2];
        add_file(&mut levels, meta(1, 0, "a", "b"));
        add_file(&mut levels, meta(5, 0, "a", "b"));
        add_file(&mut levels, meta(3, 0, "a", "b"));
        let ids: Vec<_> = levels[0].iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![5, 3, 1]);
        add_file(&mut levels, meta(10, 1, "m", "p"));
        add_file(&mut levels, meta(11, 1, "a", "c"));
        let mins: Vec<_> = levels[1].iter().map(|m| m.min_key.clone()).collect();
        assert_eq!(mins, vec![Bytes::from("a"), Bytes::from("m")]);
    }

    #[test]
    fn remove_file_works() {
        let mut v = version(2, vec![meta(1, 0, "a", "b")]);
        assert!(remove_file(&mut v.levels, 1));
        assert!(!remove_file(&mut v.levels, 1));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "abase-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let v = version(3, vec![meta(7, 1, "k1", "k9")]);
        v.save(&dir).unwrap();
        let loaded = Version::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, v);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_is_none() {
        let dir = std::env::temp_dir().join(format!(
            "abase-manifest-none-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Version::load(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_detected() {
        let v = version(1, vec![meta(1, 0, "a", "b")]);
        let mut data = v.encode();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        assert!(Version::decode(&data).is_err());
    }

    #[test]
    fn byte_accounting() {
        let v = version(2, vec![meta(1, 0, "a", "b"), meta(2, 1, "c", "d")]);
        assert_eq!(level_bytes(&v.levels[0]), 1000);
        assert_eq!(v.levels.iter().map(|l| level_bytes(l)).sum::<u64>(), 2000);
    }
}
