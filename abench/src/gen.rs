//! Deterministic inputs: the workloads, the PRNG, the zipf sampler, the key
//! scramble, the values and the per-connection op stream. Everything here is
//! a pure function of `(workload, seed, connection)`; the server only ever
//! sees the bytes `encode_op` produces.

use crate::resp::{self, Reply};

/// Zipf exponent of the skewed workloads (YCSB's default).
pub const ZIPF_S: f64 = 0.99;
/// Connections (= client threads = tenants) of every run.
pub const CONNS: usize = 2;

/// One traffic mix. Sizes are per tenant; a run has [`CONNS`] tenants.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into BENCHMARK.json and the README).
    pub why: &'static str,
    /// Keys `0..records` are loaded before anything is measured.
    pub records: u32,
    /// Keys the measured op stream draws from; at least `records`.
    pub keyspace: u32,
    pub value_len: usize,
    /// Share of GETs in the op stream, in percent; the rest are SETs.
    pub get_pct: u64,
    /// Zipf over a seeded scramble of the keyspace, or uniform.
    pub zipf: bool,
    /// `ABASE_BLOCK_CACHE_BYTES` for the server; `None` leaves the default.
    pub cache_bytes: Option<usize>,
    /// Ops of the discarded warm pass, per connection.
    pub warm_ops: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "get_hot",
        why: "100% zipf GET over 200k x 100 B (26 MB of SST) inside the default 64 MiB block cache: front end and cache-hit path do the work",
        records: 100_000,
        keyspace: 100_000,
        value_len: 100,
        get_pct: 100,
        zipf: true,
        cache_bytes: None,
        warm_ops: 100_000,
    },
    Workload {
        name: "get_spill",
        why: "get_hot's data and key stream with a 4 MiB block cache (data >= 6x cache): bloom, index, block read and cache insert/evict do the work",
        records: 100_000,
        keyspace: 100_000,
        value_len: 100,
        get_pct: 100,
        zipf: true,
        cache_bytes: Some(4 << 20),
        warm_ops: 100_000,
    },
    Workload {
        name: "set_stream",
        why: "100% uniform SET of 128 B values over 1M keys from an empty store: WAL append, memtable apply and inline flush do the work, reads none",
        records: 0,
        keyspace: 500_000,
        value_len: 128,
        get_pct: 0,
        zipf: false,
        cache_bytes: None,
        warm_ops: 20_000,
    },
    Workload {
        name: "mix_rw",
        why: "50% GET / 50% SET (100 B) zipf over get_hot's data: reads run while flushes keep adding cold L0 files under them",
        records: 100_000,
        keyspace: 100_000,
        value_len: 100,
        get_pct: 50,
        zipf: true,
        cache_bytes: None,
        warm_ops: 50_000,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The shape-only variant `--smoke` runs: same mix, tiny sizes.
    pub fn smoke(mut self) -> Workload {
        self.records = self.records.min(2_000);
        self.keyspace = self.keyspace.min(2_000);
        self.warm_ops = 1_000;
        self.cache_bytes = self.cache_bytes.map(|_| 64 << 10);
        self
    }
}

/// splitmix64: tiny, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian ranks in `0..n` (Gray et al., the generator YCSB uses): O(n) to
/// build, O(1) per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let zetan: f64 = (1..=u64::from(n)).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let n = f64::from(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u32;
        rank.min(self.n as u32 - 1)
    }
}

/// What every connection of one run shares: the rank -> key scramble (so the
/// hot keys are scattered over the keyspace and over SST blocks) and the
/// sampler.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    perm: Vec<u32>,
    zipf: Option<Zipf>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut perm: Vec<u32> = (0..workload.keyspace).collect();
        let mut rng = Rng::new(seed ^ 0x5CA3_B1E5);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let zipf = workload.zipf.then(|| Zipf::new(workload.keyspace, ZIPF_S));
        Inputs {
            workload,
            seed,
            perm,
            zipf,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The reply must be the value of `version` (nil when 0: never written).
    Get { key: u32, version: u32 },
    /// Writes the value of `version`; the reply must be `+OK`.
    Set { key: u32, version: u32 },
}

impl Op {
    pub fn is_get(&self) -> bool {
        matches!(self, Op::Get { .. })
    }
}

/// Tenant id of connection `conn` (tenant 0 is the unauthenticated default,
/// which the control connection uses).
pub fn tenant_of(conn: usize) -> u32 {
    conn as u32 + 1
}

/// One connection's op stream, and the record of what that connection's
/// tenant last wrote to each key: the connection is its tenant's only
/// writer, so every reply is checkable against it.
#[derive(Debug)]
pub struct OpGen<'a> {
    inputs: &'a Inputs,
    pub tenant: u32,
    rng: Rng,
    /// Last version written per key; 0 = never written.
    versions: Vec<u32>,
}

impl<'a> OpGen<'a> {
    pub fn new(inputs: &'a Inputs, conn: usize) -> Self {
        OpGen {
            inputs,
            tenant: tenant_of(conn),
            rng: Rng::new(mix64(inputs.seed ^ ((conn as u64 + 1) << 32))),
            versions: vec![0; inputs.workload.keyspace as usize],
        }
    }

    pub fn workload(&self) -> &Workload {
        &self.inputs.workload
    }

    /// The load phase's i-th op: first write of key `i`.
    pub fn load_op(&mut self, key: u32) -> Op {
        self.set(key)
    }

    fn set(&mut self, key: u32) -> Op {
        let v = &mut self.versions[key as usize];
        *v += 1;
        Op::Set { key, version: *v }
    }

    /// The next op of the measured stream.
    pub fn next_op(&mut self) -> Op {
        let w = &self.inputs.workload;
        let key = match &self.inputs.zipf {
            Some(z) => self.inputs.perm[z.sample(&mut self.rng) as usize],
            None => self.rng.below(u64::from(w.keyspace)) as u32,
        };
        if self.rng.below(100) < w.get_pct {
            Op::Get {
                key,
                version: self.versions[key as usize],
            }
        } else {
            self.set(key)
        }
    }

    /// `n` written keys with their current versions, for the read-back after
    /// the crash: a seeded sample, in key order.
    pub fn sample_written(&self, n: usize) -> Vec<Op> {
        let written: Vec<u32> = (0..self.versions.len() as u32)
            .filter(|&k| self.versions[k as usize] > 0)
            .collect();
        let mut rng = Rng::new(self.inputs.seed ^ 0xC4A5);
        let mut picks: Vec<u32> = (0..n.min(written.len()))
            .map(|_| written[rng.below(written.len() as u64) as usize])
            .collect();
        picks.sort_unstable();
        picks.dedup();
        picks
            .into_iter()
            .map(|key| Op::Get {
                key,
                version: self.versions[key as usize],
            })
            .collect()
    }
}

/// `user%08d`.
pub const KEY_LEN: usize = 12;

fn write_key(out: &mut [u8; KEY_LEN], key: u32) {
    out[..4].copy_from_slice(b"user");
    let mut k = key;
    for slot in out[4..].iter_mut().rev() {
        *slot = b'0' + (k % 10) as u8;
        k /= 10;
    }
}

/// The value `tenant` stores under `key` at `version`: 16 hex digits of a
/// hash of the three, repeated to `len`.
pub fn fill_value(out: &mut Vec<u8>, tenant: u32, key: u32, version: u32, len: usize) {
    let h = mix64((u64::from(tenant) << 56) ^ (u64::from(key) << 24) ^ u64::from(version));
    let mut pattern = [0u8; 16];
    for (i, slot) in pattern.iter_mut().enumerate() {
        *slot = b"0123456789abcdef"[((h >> (i * 4)) & 0xF) as usize];
    }
    out.clear();
    out.extend(pattern.iter().cycle().take(len));
}

/// Append the RESP request for `op` to `out`. `scratch` holds the value.
pub fn encode_op(out: &mut Vec<u8>, scratch: &mut Vec<u8>, op: Op, tenant: u32, value_len: usize) {
    let mut key_buf = [0u8; KEY_LEN];
    match op {
        Op::Get { key, .. } => {
            write_key(&mut key_buf, key);
            resp::encode(out, &[b"GET", &key_buf]);
        }
        Op::Set { key, version } => {
            write_key(&mut key_buf, key);
            fill_value(scratch, tenant, key, version, value_len);
            resp::encode(out, &[b"SET", &key_buf, scratch]);
        }
    }
}

/// Whether `reply` is the one correct answer to `op`.
pub fn reply_ok(
    op: Op,
    reply: Reply<'_>,
    scratch: &mut Vec<u8>,
    tenant: u32,
    value_len: usize,
) -> bool {
    match (op, reply) {
        (Op::Set { .. }, Reply::Simple(s)) => s == b"OK",
        (Op::Get { version: 0, .. }, Reply::Nil) => true,
        (Op::Get { key, version }, Reply::Bulk(got)) if version > 0 => {
            fill_value(scratch, tenant, key, version, value_len);
            got == &scratch[..]
        }
        _ => false,
    }
}

/// FNV-1a over the first `ops` requests of every connection's measured
/// stream: same seed, same hash.
pub fn wire_hash(workload: Workload, seed: u64, ops: usize) -> u64 {
    let inputs = Inputs::new(workload, seed);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let (mut wire, mut scratch) = (Vec::new(), Vec::new());
    for conn in 0..CONNS {
        let mut gen = OpGen::new(&inputs, conn);
        for _ in 0..ops {
            wire.clear();
            let op = gen.next_op();
            encode_op(&mut wire, &mut scratch, op, gen.tenant, workload.value_len);
            for &b in &wire {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_wire_bytes_per_workload() {
        for w in WORKLOADS {
            let w = w.smoke();
            assert_eq!(wire_hash(w, 7, 2_000), wire_hash(w, 7, 2_000), "{}", w.name);
            assert_ne!(wire_hash(w, 7, 2_000), wire_hash(w, 8, 2_000), "{}", w.name);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1_000, ZIPF_S);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 carries ~1/zeta(1000) = 13% of the mass; the tail is thin.
        assert!(counts[0] > 10_000 && counts[0] < 17_000, "{}", counts[0]);
        assert!(counts[0] > 5 * counts[9]);
        assert!(counts[999] < 100);
    }

    #[test]
    fn scramble_is_a_permutation() {
        let inputs = Inputs::new(WORKLOADS[0].smoke(), 3);
        let mut seen = inputs.perm.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..inputs.workload.keyspace));
    }

    #[test]
    fn gets_expect_the_last_written_version() {
        let inputs = Inputs::new(WORKLOADS[3].smoke(), 5);
        let mut gen = OpGen::new(&inputs, 0);
        let mut last = std::collections::HashMap::new();
        for _ in 0..5_000 {
            match gen.next_op() {
                Op::Set { key, version } => {
                    assert_eq!(version, last.get(&key).copied().unwrap_or(0) + 1);
                    last.insert(key, version);
                }
                Op::Get { key, version } => {
                    assert_eq!(version, last.get(&key).copied().unwrap_or(0));
                }
            }
        }
    }

    #[test]
    fn reply_check_accepts_only_the_right_value() {
        let mut scratch = Vec::new();
        let mut value = Vec::new();
        fill_value(&mut value, 1, 42, 3, 100);
        assert_eq!(value.len(), 100);
        let get = Op::Get {
            key: 42,
            version: 3,
        };
        assert!(reply_ok(get, Reply::Bulk(&value), &mut scratch, 1, 100));
        assert!(!reply_ok(get, Reply::Bulk(&value), &mut scratch, 2, 100));
        assert!(!reply_ok(get, Reply::Nil, &mut scratch, 1, 100));
        assert!(!reply_ok(get, Reply::Error(b"ERR"), &mut scratch, 1, 100));
        let unwritten = Op::Get {
            key: 42,
            version: 0,
        };
        assert!(reply_ok(unwritten, Reply::Nil, &mut scratch, 1, 100));
        let set = Op::Set {
            key: 42,
            version: 4,
        };
        assert!(reply_ok(set, Reply::Simple(b"OK"), &mut scratch, 1, 100));
        assert!(!reply_ok(set, Reply::Error(b"ERR x"), &mut scratch, 1, 100));
    }

    #[test]
    fn keys_are_zero_padded() {
        let mut k = [0u8; KEY_LEN];
        write_key(&mut k, 1234);
        assert_eq!(&k, b"user00001234");
    }
}
