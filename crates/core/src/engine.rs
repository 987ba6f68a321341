//! The real data path: RESP commands against LavaStore.
//!
//! Each DataNode runs a [`TableEngine`] that executes [`Command`]s for many
//! tenants against one [`Db`], namespacing keys as
//! `t<tenant>:<user key>` for strings and `h<tenant>:<key>:<field>` for hash
//! fields. Hash commands map onto prefix scans, which is exactly how the
//! paper's `HGetAll` decomposes into `HLen` + scan (§4.1).

use abase_lavastore::{Db, DbConfig, ReadResult};
use abase_proto::resp::push_decimal;
use abase_proto::{Command, RespValue};
use abase_util::clock::SimTime;
use abase_util::lockrank::{rank, RankedRwLock};
use bytes::Bytes;
use std::cell::Cell;
use std::sync::Arc;

use crate::types::TenantId;

thread_local! {
    /// The buffer storage keys are built in on this thread, kept between
    /// commands so a request's key costs no allocation.
    static KEY_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A scratch key buffer that grew past this (one huge key) is freed, not kept.
const KEPT_KEY_BYTES: usize = 64 << 10;

/// The thread's key buffer, on loan for one command: a storage key does not
/// outlive the store call it is built for.
struct KeyScratch(Vec<u8>);

impl KeyScratch {
    fn take() -> Self {
        KeyScratch(KEY_SCRATCH.take())
    }
}

impl Drop for KeyScratch {
    fn drop(&mut self) {
        if self.0.capacity() <= KEPT_KEY_BYTES {
            KEY_SCRATCH.set(std::mem::take(&mut self.0));
        }
    }
}

/// The absolute expiry `secs` after `now`, or `None` when a client-chosen
/// TTL runs past the end of the clock.
fn expiry(now: SimTime, secs: u64) -> Option<SimTime> {
    secs.checked_mul(1_000_000)?.checked_add(now)
}

/// Redis's refusal of a TTL that overflows; nothing is written.
fn invalid_expire(verb: &str) -> RespValue {
    RespValue::Error(format!("ERR invalid expire time in '{verb}' command"))
}

/// Outcome of executing one command.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The RESP reply to send to the client.
    pub reply: RespValue,
    /// Block I/Os performed by the storage engine.
    pub io_ops: u32,
    /// Bytes returned to the client (the "actual size" RU charging uses).
    pub bytes_returned: usize,
    /// True when no block came from disk: the memtable, a cached row or
    /// cached blocks answered — §4.1's node-cache hit.
    pub from_cache: bool,
}

/// A multi-tenant table engine over one LavaStore instance.
///
/// The store is held behind an [`Arc`] so a replication plane can share it:
/// a replica-group leader executes commands through the engine while the
/// group ships the same store's WAL to followers, and a follower's engine
/// serves reads over the store the group keeps in sync. The handle is
/// swappable ([`TableEngine::swap_db`]) because a socket follower's full
/// resync replaces its store wholesale while the RESP server keeps serving.
pub struct TableEngine {
    db: RankedRwLock<Arc<Db>>,
}

impl std::fmt::Debug for TableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableEngine")
            .field("dir", &self.db().dir())
            .finish()
    }
}

impl TableEngine {
    /// Open an engine rooted at `dir`.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        config: DbConfig,
    ) -> abase_lavastore::Result<Self> {
        Ok(Self {
            db: RankedRwLock::new(rank::ENGINE_DB, Arc::new(Db::open(dir, config)?)),
        })
    }

    /// An engine over an existing (typically replicated) store.
    pub fn from_db(db: Arc<Db>) -> Self {
        Self {
            db: RankedRwLock::new(rank::ENGINE_DB, db),
        }
    }

    /// The current store handle (flush/compaction control, direct reads).
    pub fn db(&self) -> Arc<Db> {
        Arc::clone(&self.db.read())
    }

    /// Replace the underlying store. A connection takes the handle once per
    /// drained batch, so a batch in flight finishes against the store it
    /// started on — the race a single command has always had — and the
    /// connection's *next* batch sees the replacement: exactly the semantics
    /// a follower needs when a full resync swaps its data directory for a
    /// fresh leader checkpoint.
    pub fn swap_db(&self, db: Arc<Db>) {
        *self.db.write() = db;
    }

    /// The storage-level key a tenant's string key namespaces to — exposed so
    /// the server's routed read path can issue the same read against a
    /// follower replica's store.
    pub fn storage_string_key(tenant: TenantId, key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(key.len() + 12);
        Self::string_key(&mut out, tenant, key);
        out
    }

    /// Overwrite `out` with `t{tenant}:{key}`.
    fn string_key(out: &mut Vec<u8>, tenant: TenantId, key: &[u8]) {
        out.clear();
        out.push(b't');
        push_decimal(out, u64::from(tenant));
        out.push(b':');
        out.extend_from_slice(key);
    }

    /// Overwrite `out` with `h{tenant}:{key length}:{key}` — the field
    /// follows directly. The length is what ends the key: joined by a
    /// separator alone, key `a` with field `b:c` and key `a:b` with field `c`
    /// would be one storage key.
    fn hash_prefix(out: &mut Vec<u8>, tenant: TenantId, key: &[u8]) {
        out.clear();
        out.push(b'h');
        push_decimal(out, u64::from(tenant));
        out.push(b':');
        push_decimal(out, key.len() as u64);
        out.push(b':');
        out.extend_from_slice(key);
    }

    fn hash_field_key(out: &mut Vec<u8>, tenant: TenantId, key: &[u8], field: &[u8]) {
        Self::hash_prefix(out, tenant, key);
        out.extend_from_slice(field);
    }

    /// Execute `cmd` on behalf of `tenant` at virtual time `now`, against
    /// the current store. Generic over how the command holds its arguments:
    /// the server passes a `Command<&[u8]>` borrowed from its input buffer,
    /// so a value is copied once, by the store, into the record it keeps.
    pub fn execute<B: AsRef<[u8]>>(
        &self,
        tenant: TenantId,
        cmd: &Command<B>,
        now: SimTime,
    ) -> abase_lavastore::Result<ExecOutcome> {
        Self::execute_on(&self.db(), tenant, cmd, now)
    }

    /// [`TableEngine::execute`] against a store handle the caller holds —
    /// a connection takes [`TableEngine::db`] once per drained batch, not
    /// once per command. The only place a verb meets the store.
    pub fn execute_on<B: AsRef<[u8]>>(
        db: &Db,
        tenant: TenantId,
        cmd: &Command<B>,
        now: SimTime,
    ) -> abase_lavastore::Result<ExecOutcome> {
        let mut scratch = KeyScratch::take();
        let sk = &mut scratch.0;
        // A reply that touched no block and returned `bytes` to the client.
        let free = |reply: RespValue, bytes_returned: usize| ExecOutcome {
            reply,
            io_ops: 0,
            bytes_returned,
            from_cache: true,
        };
        match cmd {
            Command::Ping => Ok(free(RespValue::Simple("PONG".into()), 4)),
            // Replication control commands are answered by the server's
            // replication handle when one is attached; a bare engine has no
            // replicas, so WAIT reports zero acks and REPLCONF is accepted.
            Command::Wait { .. } => Ok(free(RespValue::Integer(0), 8)),
            // Consistency is per-connection state owned by the server's read
            // routing; a bare engine acknowledges and stays leader-local.
            Command::ReplConf { .. } | Command::Consistency { .. } => Ok(free(RespValue::ok(), 2)),
            // PSYNC only makes sense on a connection the server switched
            // into replica-streaming mode; reaching the engine means no
            // replication plane is attached here.
            Command::PSync { .. } => Ok(free(
                RespValue::Error("ERR PSYNC requires a replication-enabled leader".into()),
                0,
            )),
            // Observability commands are answered by the server front end
            // (which owns the registry snapshot and per-server slowlog);
            // a bare engine has nothing to report.
            Command::Info { .. } | Command::Slowlog { .. } | Command::Metrics => Ok(free(
                RespValue::Error(
                    "ERR observability commands are served by the RESP front end".into(),
                ),
                0,
            )),
            Command::Get { key } => {
                Self::string_key(sk, tenant, key.as_ref());
                Ok(Self::bulk_outcome(db.get(sk, now)?))
            }
            Command::Set {
                key,
                value,
                ttl_secs,
            } => {
                let expires = ttl_secs.map(|secs| expiry(now, secs));
                if expires == Some(None) {
                    return Ok(free(invalid_expire("set"), 0));
                }
                let expires = expires.flatten();
                Self::string_key(sk, tenant, key.as_ref());
                db.put(sk, value.as_ref(), expires, now)?;
                Ok(free(RespValue::ok(), 2))
            }
            Command::Del { keys } => {
                let mut removed = 0i64;
                let mut io = 0u32;
                for key in keys {
                    Self::string_key(sk, tenant, key.as_ref());
                    let r = db.get(sk, now)?;
                    io += r.io_ops;
                    if r.value.is_some() {
                        db.delete(sk, now)?;
                        removed += 1;
                    }
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(removed),
                    io_ops: io,
                    bytes_returned: 8,
                    from_cache: false,
                })
            }
            Command::Exists { key } => {
                Self::string_key(sk, tenant, key.as_ref());
                let r = db.get(sk, now)?;
                Ok(ExecOutcome {
                    reply: RespValue::Integer(i64::from(r.value.is_some())),
                    io_ops: r.io_ops,
                    bytes_returned: 8,
                    from_cache: r.is_cache_hit(),
                })
            }
            Command::Expire { key, secs } => {
                let Some(expires) = expiry(now, *secs) else {
                    return Ok(free(invalid_expire("expire"), 0));
                };
                Self::string_key(sk, tenant, key.as_ref());
                let r = db.get(sk, now)?;
                if let Some(value) = &r.value {
                    db.put(sk, value, Some(expires), now)?;
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(i64::from(r.value.is_some())),
                    io_ops: r.io_ops,
                    bytes_returned: 8,
                    from_cache: r.is_cache_hit(),
                })
            }
            Command::HSet { key, pairs } => {
                for (field, value) in pairs {
                    Self::hash_field_key(sk, tenant, key.as_ref(), field.as_ref());
                    db.put(sk, value.as_ref(), None, now)?;
                }
                Ok(free(RespValue::Integer(pairs.len() as i64), 8))
            }
            Command::HGet { key, field } => {
                Self::hash_field_key(sk, tenant, key.as_ref(), field.as_ref());
                Ok(Self::bulk_outcome(db.get(sk, now)?))
            }
            Command::HDel { key, fields } => {
                let mut removed = 0i64;
                let mut io = 0u32;
                for field in fields {
                    Self::hash_field_key(sk, tenant, key.as_ref(), field.as_ref());
                    let r = db.get(sk, now)?;
                    io += r.io_ops;
                    if r.value.is_some() {
                        db.delete(sk, now)?;
                        removed += 1;
                    }
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(removed),
                    io_ops: io,
                    bytes_returned: 8,
                    from_cache: false,
                })
            }
            Command::HLen { key } => {
                Self::hash_prefix(sk, tenant, key.as_ref());
                let (pairs, io) = db.scan_prefix(sk, now)?;
                Ok(ExecOutcome {
                    reply: RespValue::Integer(pairs.len() as i64),
                    io_ops: io.total(),
                    bytes_returned: 8,
                    from_cache: io.disk == 0,
                })
            }
            Command::HGetAll { key } => {
                Self::hash_prefix(sk, tenant, key.as_ref());
                let (pairs, io) = db.scan_prefix(sk, now)?;
                let mut items = Vec::with_capacity(pairs.len() * 2);
                let mut bytes = 0usize;
                for (k, v) in pairs {
                    let field = Bytes::copy_from_slice(&k[sk.len()..]);
                    bytes += field.len() + v.len();
                    items.push(RespValue::Bulk(Some(field)));
                    items.push(RespValue::Bulk(Some(v)));
                }
                Ok(ExecOutcome {
                    reply: RespValue::array(items),
                    io_ops: io.total(),
                    bytes_returned: bytes,
                    from_cache: io.disk == 0,
                })
            }
        }
    }

    fn bulk_outcome(r: ReadResult) -> ExecOutcome {
        let bytes_returned = r.value.as_ref().map(Bytes::len).unwrap_or(0);
        let from_cache = r.is_cache_hit();
        ExecOutcome {
            reply: RespValue::Bulk(r.value),
            io_ops: r.io_ops,
            bytes_returned,
            from_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    /// The owned command: `"k".into()` needs the argument type named.
    type Command = abase_proto::Command<Bytes>;

    fn engine(tag: &str) -> (TestDir, TableEngine) {
        let dir = TestDir::new(tag);
        let e = TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        (dir, e)
    }

    fn set(key: &str, value: &str, ttl: Option<u64>) -> Command {
        Command::Set {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::copy_from_slice(value.as_bytes()),
            ttl_secs: ttl,
        }
    }

    fn get(key: &str) -> Command {
        Command::Get {
            key: Bytes::copy_from_slice(key.as_bytes()),
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let (_d, e) = engine("setget");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        let out = e.execute(1, &get("k"), 0).unwrap();
        assert_eq!(out.reply, RespValue::bulk("v"));
        assert_eq!(out.bytes_returned, 1);
    }

    #[test]
    fn tenants_are_namespaced() {
        let (_d, e) = engine("ns");
        e.execute(1, &set("k", "tenant1", None), 0).unwrap();
        e.execute(2, &set("k", "tenant2", None), 0).unwrap();
        assert_eq!(
            e.execute(1, &get("k"), 0).unwrap().reply,
            RespValue::bulk("tenant1")
        );
        assert_eq!(
            e.execute(2, &get("k"), 0).unwrap().reply,
            RespValue::bulk("tenant2")
        );
    }

    #[test]
    fn ttl_expires_via_virtual_time() {
        let (_d, e) = engine("ttl");
        e.execute(1, &set("k", "v", Some(30)), 0).unwrap();
        assert_eq!(
            e.execute(1, &get("k"), 29_999_999).unwrap().reply,
            RespValue::bulk("v")
        );
        assert_eq!(
            e.execute(1, &get("k"), 30_000_001).unwrap().reply,
            RespValue::Bulk(None)
        );
    }

    #[test]
    fn expire_command_rearms_ttl() {
        let (_d, e) = engine("expire");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        let out = e
            .execute(
                1,
                &Command::Expire {
                    key: "k".into(),
                    secs: 10,
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(1));
        assert_eq!(
            e.execute(1, &get("k"), 11_000_000).unwrap().reply,
            RespValue::Bulk(None)
        );
        // EXPIRE on a missing key returns 0.
        let out = e
            .execute(
                1,
                &Command::Expire {
                    key: "nope".into(),
                    secs: 10,
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(0));
    }

    /// A client-chosen TTL that runs past the end of the clock is refused
    /// with Redis's error and writes nothing — it neither wraps to an expiry
    /// moments away nor (debug builds) panics the thread that serves it.
    #[test]
    fn overflowing_ttls_are_refused_and_write_nothing() {
        let (_d, e) = engine("ttl-overflow");
        let now = 1_700_000_000_000_000;
        e.execute(1, &set("k", "old", None), now).unwrap();
        // `secs * 1_000_000` wraps; `now + micros` wraps.
        for secs in [18_446_744_073_710, u64::MAX, u64::MAX / 1_000_000] {
            let out = e.execute(1, &set("k", "new", Some(secs)), now).unwrap();
            assert_eq!(
                out.reply,
                RespValue::Error("ERR invalid expire time in 'set' command".into())
            );
            let expire = Command::Expire {
                key: "k".into(),
                secs,
            };
            assert_eq!(
                e.execute(1, &expire, now).unwrap().reply,
                RespValue::Error("ERR invalid expire time in 'expire' command".into())
            );
        }
        assert_eq!(
            e.execute(1, &get("k"), now + 1_000_000).unwrap().reply,
            RespValue::bulk("old"),
            "a refused TTL must leave the record as it was"
        );
        // The largest TTL that fits is accepted.
        let fits = (u64::MAX - now) / 1_000_000;
        assert_eq!(
            e.execute(1, &set("k", "new", Some(fits)), now)
                .unwrap()
                .reply,
            RespValue::ok()
        );
    }

    #[test]
    fn del_and_exists() {
        let (_d, e) = engine("del");
        e.execute(1, &set("a", "1", None), 0).unwrap();
        e.execute(1, &set("b", "2", None), 0).unwrap();
        let out = e
            .execute(
                1,
                &Command::Del {
                    keys: vec!["a".into(), "b".into(), "missing".into()],
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(2));
        let out = e
            .execute(1, &Command::Exists { key: "a".into() }, 0)
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(0));
    }

    #[test]
    fn hash_commands_roundtrip() {
        let (_d, e) = engine("hash");
        e.execute(
            1,
            &Command::HSet {
                key: "h".into(),
                pairs: vec![
                    ("f1".into(), "v1".into()),
                    ("f2".into(), "v2".into()),
                    ("f3".into(), "v3".into()),
                ],
            },
            0,
        )
        .unwrap();
        let out = e.execute(1, &Command::HLen { key: "h".into() }, 0).unwrap();
        assert_eq!(out.reply, RespValue::Integer(3));
        let out = e
            .execute(
                1,
                &Command::HGet {
                    key: "h".into(),
                    field: "f2".into(),
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::bulk("v2"));
        let out = e
            .execute(1, &Command::HGetAll { key: "h".into() }, 0)
            .unwrap();
        match out.reply {
            RespValue::Array(Some(items)) => assert_eq!(items.len(), 6),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(out.bytes_returned, 3 * 4); // 3 × (2-byte field + 2-byte value)
        let out = e
            .execute(
                1,
                &Command::HDel {
                    key: "h".into(),
                    fields: vec!["f1".into(), "f3".into()],
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(2));
        let out = e.execute(1, &Command::HLen { key: "h".into() }, 0).unwrap();
        assert_eq!(out.reply, RespValue::Integer(1));
    }

    #[test]
    fn hgetall_isolated_between_hash_keys_and_tenants() {
        let (_d, e) = engine("hiso");
        e.execute(
            1,
            &Command::HSet {
                key: "h1".into(),
                pairs: vec![("f".into(), "t1h1".into())],
            },
            0,
        )
        .unwrap();
        e.execute(
            1,
            &Command::HSet {
                key: "h2".into(),
                pairs: vec![("f".into(), "t1h2".into())],
            },
            0,
        )
        .unwrap();
        e.execute(
            2,
            &Command::HSet {
                key: "h1".into(),
                pairs: vec![("f".into(), "t2h1".into())],
            },
            0,
        )
        .unwrap();
        let out = e
            .execute(1, &Command::HGetAll { key: "h1".into() }, 0)
            .unwrap();
        match out.reply {
            RespValue::Array(Some(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1], RespValue::bulk("t1h1"));
            }
            other => panic!("{other:?}"),
        }
        // A `:` inside a key or a field never moves the boundary between
        // them: `a` + `b:c` and `a:b` + `c` are different entries of
        // different hashes.
        let hset = |key: &str, field: &str, value: &str| Command::HSet {
            key: key.into(),
            pairs: vec![(field.into(), value.into())],
        };
        e.execute(1, &hset("a", "b:c", "x"), 0).unwrap();
        let hget = Command::HGet {
            key: "a:b".into(),
            field: "c".into(),
        };
        assert_eq!(e.execute(1, &hget, 0).unwrap().reply, RespValue::Bulk(None));
        e.execute(1, &hset("a:b", "c", "y"), 0).unwrap();
        let hlen = Command::HLen { key: "a".into() };
        assert_eq!(e.execute(1, &hlen, 0).unwrap().reply, RespValue::Integer(1));
        let hgetall = Command::HGetAll { key: "a".into() };
        assert_eq!(
            e.execute(1, &hgetall, 0).unwrap().reply,
            RespValue::array(vec![RespValue::bulk("b:c"), RespValue::bulk("x")])
        );
    }

    #[test]
    fn io_ops_reported_after_flush() {
        let (_d, e) = engine("io");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        e.db().flush().unwrap();
        let out = e.execute(1, &get("k"), 0).unwrap();
        assert!(out.io_ops >= 1, "SST read must report I/O");
        assert!(!out.from_cache, "the first read of a block is a disk read");
        let again = e.execute(1, &get("k"), 0).unwrap();
        assert!(again.from_cache, "the second is a cached row");
    }

    #[test]
    fn ping_is_free() {
        let (_d, e) = engine("ping");
        let out = e.execute(9, &Command::Ping, 0).unwrap();
        assert_eq!(out.reply, RespValue::Simple("PONG".into()));
        assert_eq!(out.io_ops, 0);
    }
}
