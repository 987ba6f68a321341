//! Property-based tests over the core data structures and invariants.
//!
//! Each property runs hundreds of randomized cases via proptest; failures
//! shrink to minimal counterexamples. These cover the invariants the paper's
//! correctness implicitly relies on: cache capacity accounting, WFQ work
//! conservation and fairness, quota-bucket boundedness, storage-engine
//! linearizability against a model, and codec roundtrips.

use proptest::prelude::*;

use abase::cache::salru::{ClassInfo, DEFAULT_CLASS_BOUNDS};
use abase::cache::{CacheStats, SaLruCache};
use abase::lavastore::{Db, DbConfig};
use abase::proto::RespValue;
use abase::quota::TokenBucket;
use abase::util::TimeSeries;
use abase::wfq::{WfqItem, WfqQueue};
use std::collections::{HashMap, VecDeque};

// ---------- SA-LRU ----------

proptest! {
    /// SA-LRU never exceeds its capacity and finds exactly the keys it
    /// holds regardless of size-class churn.
    #[test]
    fn salru_capacity_invariant(ops in prop::collection::vec(
        (0u64..100, 1usize..100_000), 1..300), capacity in 1024usize..262_144)
    {
        let mut cache: SaLruCache<u64, u64> = SaLruCache::new(capacity);
        for (key, size) in ops {
            cache.insert(key, key, size);
            prop_assert!(cache.used_bytes() <= capacity);
            // Anything reported as contained must be retrievable.
            if cache.contains(&key) {
                prop_assert_eq!(cache.peek(&key), Some(&key));
            }
        }
    }
}

/// One class's `(key, value, size)` entries, most recently used first.
type Recency = VecDeque<(u64, u64, usize)>;

/// A reference SA-LRU, written for clarity: one recency deque per size class
/// (front = most recently used), the same victim rule (fewest decayed hits
/// per byte, ties to the larger class) and the same decay (halve every
/// class's hits before the lookup that follows each 4 096). With one size
/// class it is a plain byte-LRU.
struct ModelSaLru {
    capacity: usize,
    bounds: &'static [usize],
    /// Per class: its entries and its decayed hit count.
    classes: Vec<(Recency, f64)>,
    lookups_since_decay: u64,
    stats: CacheStats,
    /// Re-inserts that moved a key to another class, and decays run: the
    /// property checks that both paths were exercised.
    moves: u64,
    decays: u64,
}

impl ModelSaLru {
    fn new(capacity: usize, bounds: &'static [usize]) -> Self {
        Self {
            capacity,
            bounds,
            classes: bounds.iter().map(|_| (VecDeque::new(), 0.0)).collect(),
            lookups_since_decay: 0,
            stats: CacheStats::default(),
            moves: 0,
            decays: 0,
        }
    }

    fn class_of(&self, size: usize) -> usize {
        self.bounds.iter().position(|&b| size <= b).unwrap()
    }

    fn bytes(list: &Recency) -> usize {
        list.iter().map(|e| e.2).sum()
    }

    fn used_bytes(&self) -> usize {
        self.classes.iter().map(|(list, _)| Self::bytes(list)).sum()
    }

    fn len(&self) -> usize {
        self.classes.iter().map(|(list, _)| list.len()).sum()
    }

    /// `(class, position)` of `key`.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        self.classes
            .iter()
            .enumerate()
            .find_map(|(c, (list, _))| list.iter().position(|e| e.0 == key).map(|p| (c, p)))
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        if self.lookups_since_decay >= 4096 {
            for (_, hits) in &mut self.classes {
                *hits *= 0.5;
            }
            self.lookups_since_decay = 0;
            self.decays += 1;
        }
        self.lookups_since_decay += 1;
        let Some((c, p)) = self.find(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let (list, hits) = &mut self.classes[c];
        *hits += 1.0;
        let entry = list.remove(p).unwrap();
        list.push_front(entry);
        Some(entry.1)
    }

    fn remove(&mut self, key: u64) -> Option<(u64, u64, usize)> {
        let (c, p) = self.find(key)?;
        self.classes[c].0.remove(p)
    }

    fn insert(&mut self, key: u64, value: u64, size: usize) -> Vec<(u64, u64)> {
        self.stats.insertions += 1;
        if size > self.capacity {
            // Not admitted; the key's old entry leaves as an eviction.
            let old = self.remove(key).map(|(k, v, _)| (k, v));
            self.stats.evictions += old.iter().count() as u64;
            return old.into_iter().collect();
        }
        let class = self.class_of(size);
        if let Some((c, p)) = self.find(key) {
            self.classes[c].0.remove(p);
            self.moves += u64::from(c != class);
        }
        self.classes[class].0.push_front((key, value, size));
        let mut evicted = Vec::new();
        while self.used_bytes() > self.capacity {
            let mut victim = None;
            let mut best = f64::INFINITY;
            for (c, (list, hits)) in self.classes.iter().enumerate() {
                let density = (hits + 1.0) / (Self::bytes(list) as f64 + 1.0);
                if !list.is_empty() && density <= best {
                    (victim, best) = (Some(c), density);
                }
            }
            let (k, v, _) = self.classes[victim.unwrap()].0.pop_back().unwrap();
            self.stats.evictions += 1;
            evicted.push((k, v));
        }
        evicted
    }

    fn class_infos(&self) -> Vec<ClassInfo> {
        self.bounds
            .iter()
            .zip(&self.classes)
            .map(|(&upper_bound, (list, hits))| ClassInfo {
                upper_bound,
                bytes: Self::bytes(list),
                entries: list.len(),
                decayed_hits: *hits,
            })
            .collect()
    }
}

/// Run `ops` (`(op, key, base size, shift)`) through SA-LRU with `bounds`
/// and through the reference model, asserting they agree at every step.
fn assert_matches_the_model(
    ops: &[(u8, u64, usize, u32)],
    capacity: usize,
    bounds: &'static [usize],
) {
    let mut cache: SaLruCache<u64, u64> = SaLruCache::with_class_bounds(capacity, bounds);
    let mut model = ModelSaLru::new(capacity, bounds);
    for (step, &(op, key, base, shift)) in ops.iter().enumerate() {
        let size = (base >> shift).max(1);
        match op {
            0..=2 => assert_eq!(
                cache.insert(key, step as u64, size),
                model.insert(key, step as u64, size),
                "insert at step {step}"
            ),
            3 => assert_eq!(
                cache.remove(&key),
                model.remove(key).map(|e| e.1),
                "remove at step {step}"
            ),
            _ => assert_eq!(
                cache.get(&key).copied(),
                model.get(key),
                "get at step {step}"
            ),
        }
        assert_eq!(cache.len(), model.len());
        assert!(cache.used_bytes() <= capacity);
        assert_eq!(cache.used_bytes(), model.used_bytes());
        assert_eq!(cache.class_infos(), model.class_infos(), "step {step}");
        assert_eq!(cache.stats(), &model.stats);
    }
    assert!((model.moves > 0 || bounds.len() == 1) && model.decays > 0);
}

proptest! {
    /// SA-LRU is the reference model, operation for operation: the same
    /// reads, the same evictions in the same order, the same accounting
    /// within the capacity, the same per-class state. It runs with the
    /// default classes and with one class, a plain byte-LRU. Sizes span
    /// five default classes (some larger than the cache), re-inserts move
    /// keys between classes, and each case makes more than 4 096 lookups,
    /// so decay runs.
    #[test]
    fn salru_matches_a_reference_model(ops in prop::collection::vec(
        (0u8..10, 0u64..40, 1usize..24_000, 0u32..8), 8_000..8_500),
        capacity in 16_384usize..65_536)
    {
        assert_matches_the_model(&ops, capacity, DEFAULT_CLASS_BOUNDS);
        assert_matches_the_model(&ops, capacity, &[usize::MAX]);
    }
}

// ---------- WFQ ----------

proptest! {
    /// WFQ conservation: everything pushed pops exactly once, in
    /// non-decreasing virtual-time order.
    #[test]
    fn wfq_conserves_items(items in prop::collection::vec(
        (0u32..6, 0.01f64..50.0, 1u8..=10), 1..200))
    {
        let mut q: WfqQueue<usize> = WfqQueue::new();
        for (i, (tenant, cost, weight)) in items.iter().enumerate() {
            q.push(WfqItem {
                tenant: *tenant,
                cost: *cost,
                weight: f64::from(*weight) / 10.0,
                payload: i,
            });
        }
        let mut seen = vec![false; items.len()];
        let mut last_vt = 0.0f64;
        while let Some(item) = q.pop() {
            prop_assert!(!seen[item.payload], "duplicate pop");
            seen[item.payload] = true;
            prop_assert!(q.virtual_time() >= last_vt);
            last_vt = q.virtual_time();
        }
        prop_assert!(seen.iter().all(|&s| s), "lost items");
    }

    /// Weighted fairness: with two continuously backlogged tenants, service
    /// is split within 25 % of the weight ratio.
    #[test]
    fn wfq_weighted_fairness(w1 in 1u8..=9, n in 50usize..200) {
        let weight1 = f64::from(w1) / 10.0;
        let weight2 = 1.0 - weight1;
        let mut q: WfqQueue<u8> = WfqQueue::new();
        for _ in 0..n {
            q.push(WfqItem { tenant: 1, cost: 1.0, weight: weight1, payload: 0 });
            q.push(WfqItem { tenant: 2, cost: 1.0, weight: weight2, payload: 0 });
        }
        // Serve only the first half of total work: both stay backlogged.
        let serve = n; // of 2n items
        let mut t1 = 0usize;
        for _ in 0..serve {
            if q.pop().expect("backlogged").tenant == 1 {
                t1 += 1;
            }
        }
        let expected = weight1 * serve as f64;
        let tolerance = (serve as f64 * 0.25).max(2.0);
        prop_assert!(
            (t1 as f64 - expected).abs() <= tolerance,
            "tenant1 served {} expected {:.1}±{:.1}", t1, expected, tolerance
        );
    }
}

// ---------- Token bucket ----------

proptest! {
    /// A token bucket never admits more than burst + rate·time tokens over
    /// any run of admissions (no token minting).
    #[test]
    fn token_bucket_never_overspends(
        rate in 1.0f64..1000.0,
        burst in 1.0f64..500.0,
        steps in prop::collection::vec((1u64..200_000, 0.1f64..50.0), 1..200))
    {
        let mut bucket = TokenBucket::new(rate, burst, 0);
        let mut now = 0u64;
        let mut admitted = 0.0f64;
        for (dt, amount) in steps {
            now += dt;
            if bucket.try_consume(now, amount) {
                admitted += amount;
            }
            let elapsed_sec = now as f64 / 1_000_000.0;
            prop_assert!(
                admitted <= burst + rate * elapsed_sec + 1e-6,
                "admitted {} > {}", admitted, burst + rate * elapsed_sec
            );
        }
    }
}

// ---------- RESP codec ----------

fn arb_resp(depth: u32) -> impl Strategy<Value = RespValue> {
    let leaf = prop_oneof![
        "[a-zA-Z0-9 ]{0,20}".prop_map(|s| RespValue::Simple(s.into())),
        "[a-zA-Z0-9 ]{0,20}".prop_map(RespValue::Error),
        any::<i64>().prop_map(RespValue::Integer),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|v| RespValue::Bulk(Some(v.into()))),
        Just(RespValue::Bulk(None)),
        Just(RespValue::Array(None)),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop::collection::vec(inner, 0..8).prop_map(RespValue::array)
    })
}

proptest! {
    /// Every RESP value round-trips through encode/parse, consuming exactly
    /// its own bytes.
    #[test]
    fn resp_roundtrip(value in arb_resp(3)) {
        let wire = value.to_bytes();
        let (parsed, consumed) = RespValue::parse(&wire).unwrap().expect("complete frame");
        prop_assert_eq!(parsed, value);
        prop_assert_eq!(consumed, wire.len());
    }

    /// No prefix of a valid frame ever parses as complete or errors.
    #[test]
    fn resp_prefixes_are_incomplete(value in arb_resp(2)) {
        let wire = value.to_bytes();
        for cut in 0..wire.len() {
            match RespValue::parse(&wire[..cut]) {
                Ok(None) => {}
                other => prop_assert!(false, "prefix {} parsed as {:?}", cut, other),
            }
        }
    }
}

// ---------- Storage engine vs model ----------

proptest! {
    /// LavaStore agrees with a HashMap model under random puts, deletes,
    /// flushes, and compactions (sequential consistency of the LSM), key by
    /// key and through one prefix scan.
    #[test]
    fn lavastore_matches_model(ops in prop::collection::vec(
        (0u8..4, 0u16..40, 0usize..3), 1..120))
    {
        let dir = std::env::temp_dir().join(format!(
            "abase-prop-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            ops.len()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let db = Db::open(&dir, DbConfig::small_for_tests()).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let values: [&[u8]; 3] = [b"alpha", b"beta-beta", b"gamma-gamma-gamma"];
        for (op, key_id, value_id) in ops {
            let key = format!("key-{key_id:05}").into_bytes();
            match op {
                0 => {
                    db.put(&key, values[value_id], None, 0).unwrap();
                    model.insert(key, values[value_id].to_vec());
                }
                1 => {
                    db.delete(&key, 0).unwrap();
                    model.remove(&key);
                }
                2 => {
                    db.flush().unwrap();
                }
                _ => {
                    db.compact_once(0).unwrap();
                }
            }
        }
        for (key, expect) in &model {
            let got = db.get(key, 0).unwrap().value;
            prop_assert_eq!(got.as_deref(), Some(expect.as_slice()));
        }
        // Deleted/absent keys read as absent.
        for key_id in 0u16..40 {
            let key = format!("key-{key_id:05}").into_bytes();
            if !model.contains_key(&key) {
                prop_assert!(db.get(&key, 0).unwrap().value.is_none());
            }
        }
        // A prefix scan merges every memtable and SST into the model's pairs.
        let mut expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        expected.sort();
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = db
            .scan_prefix(b"key-", 0)
            .unwrap()
            .0
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        prop_assert_eq!(scanned, expected);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------- Time series ----------

proptest! {
    /// Resampling by max never loses the global maximum, and by mean keeps
    /// the overall mean (up to ragged-tail effects bounded by one group).
    #[test]
    fn series_resample_preserves_extremes(
        values in prop::collection::vec(0.0f64..1e6, 1..200),
        factor in 1usize..10)
    {
        let ts = TimeSeries::new(0, 3_600_000_000, values.clone());
        let maxed = ts.resample(factor, abase::util::Aggregation::Max);
        prop_assert_eq!(maxed.max(), ts.max());
        let hod = ts.resample(1, abase::util::Aggregation::Mean);
        prop_assert_eq!(hod.values().len(), values.len());
    }
}

// ---------- Failover promotion ----------

proptest! {
    /// `plan_node_failure` promotion is a pure function of the follower LSNs:
    /// the most-caught-up *promotable* follower wins, ties break
    /// deterministically toward the lowest node id, and a gapped/divergent
    /// follower (`None` from the LSN oracle) is never promoted — even when
    /// its raw LSN would top the group. Re-planning from identical state
    /// yields the identical plan.
    #[test]
    fn promotion_picks_deterministic_ungapped_maximum(
        followers in prop::collection::vec((1u64..6, any::<bool>()), 2..6),
        spare_count in 0usize..3)
    {
        use abase::sim::meta::{plan_node_failure, ReplicaSet};

        // Followers are nodes 1..=k with (lsn, gapped); duplicated LSNs are
        // the interesting (tie) case and the generator produces them often.
        let ids: Vec<u32> = (1..=followers.len() as u32).collect();
        let lsn_of = |node: u32| -> Option<u64> {
            let (lsn, gapped) = followers[(node - 1) as usize];
            (!gapped).then_some(lsn)
        };
        let spares: Vec<u32> = (0..spare_count as u32).map(|i| 100 + i).collect();
        let available: Vec<u32> = ids.iter().copied().chain(spares).collect();
        let sets = [(77, ReplicaSet { leader: Some(0), followers: ids.clone() })];
        let plan = |_: ()| plan_node_failure(0, &sets, |_, n| lsn_of(n), &available);
        let a = plan(());
        let b = plan(());
        prop_assert_eq!(&a, &b, "identical state must yield identical plans");

        // Expected winner, computed independently: max LSN among ungapped,
        // lowest id on ties.
        let expected = ids
            .iter()
            .filter_map(|&n| lsn_of(n).map(|lsn| (n, lsn)))
            .max_by(|(na, la), (nb, lb)| la.cmp(lb).then(nb.cmp(na)))
            .map(|(n, _)| n);
        match expected {
            None => prop_assert!(
                a.promotions.is_empty(),
                "all followers gapped, yet {:?} was promoted", a.promotions
            ),
            Some(winner) => {
                prop_assert_eq!(a.promotions.len(), 1);
                prop_assert_eq!(a.promotions[0].new_leader, winner);
                let (_, gapped) = followers[(winner - 1) as usize];
                prop_assert!(!gapped, "a gapped replica was promoted");
            }
        }
    }
}
