//! Pinned chaos regression seeds.
//!
//! Every seed in `PINNED_SEEDS` replays one deterministic fault-injection
//! episode (see `abase-chaos`): the full plan — node kills, binlog gaps, torn
//! WAL tails, failed flushes, mid-resync leader deaths — is a pure function
//! of the seed, so a seed that ever caught a bug stays a one-line regression
//! test here. When the chaos CI job reports `CHAOS_SEED=<n>`, reproduce with
//! `cargo run -p abase-chaos -- --episodes 1 --seed <n>` and append `<n>` to
//! the list once fixed.
//!
//! The episodes share the process-global fail-point registry, so they run
//! inside a single test function, strictly sequentially.

use abase_chaos::{ChaosConfig, ChaosRunner, FaultPlan};

/// Seeds with known-interesting fault schedules. The list was drawn from
/// sweeps where each seed caught at least one deliberately injected
/// regression (acking writes without replication → seeds 9, 21, 31; reverting
/// the commit retry/`WAIT`-timeout to a single pump pass → seeds 13, 48, 49)
/// or exercises a distinct fault mix (torn tails + kills: 2; mid-resync
/// leader death: 7). Seed 7020 caught the migration double-serve invariant
/// misfiring on a kill-with-no-spare (dead member awaiting adoption lingers
/// in the group while the meta set drops it); its plan mixes completed live
/// migrations with node kills and stays pinned for that interleaving.
/// Seeds 5529 and 5535 caught the harness blaming itself for its own
/// `FlushFail`: 5529's fired inside the cluster tick, whose error handler
/// only knew checkpoint failures; 5535 armed two on one partition in one
/// tick and remembered one.
const PINNED_SEEDS: &[u64] = &[2, 7, 9, 13, 21, 31, 48, 49, 7020, 5529, 5535];

/// Socket-transport pinned seeds (frame chaos over a real TCP replica
/// pair). Seed 400 caught the reorder-wedge: a reorder-held frame was never
/// flushed once the stream went idle, starving a parked `WAIT` forever.
/// Seeds 404 and 407 caught the drop-wedge: a dropped frame leaves a hole
/// the follower can only notice when more traffic flows, so an idle stream
/// never recovered — fixed by the leader's `PING <lsn>` keepalive, which
/// lets a trailing follower detect the loss and full-resync.
const PINNED_SOCKET_SEEDS: &[u64] = &[400, 404, 407];

#[test]
fn pinned_regression_seeds_stay_green() {
    let runner = ChaosRunner::new(ChaosConfig::default());
    let mut failures = Vec::new();
    let mut acked = 0u64;
    let mut kills = 0u64;
    let mut follower_reads = 0u64;
    let mut stale_reads = 0u64;
    let mut migrations_started = 0u64;
    let mut migrations_completed = 0u64;
    let mut migrations_aborted = 0u64;
    for &seed in PINNED_SEEDS {
        let report = runner.run_episode(seed);
        acked += report.writes_acked;
        kills += report.kills;
        follower_reads += report.follower_reads;
        stale_reads += report.stale_reads;
        migrations_started += report.migrations_started;
        migrations_completed += report.migrations_completed;
        migrations_aborted += report.migrations_aborted;
        for violation in &report.violations {
            eprintln!("CHAOS_SEED={seed}: {violation}");
        }
        if !report.ok() {
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "pinned chaos seeds regressed: {failures:?} (replay with \
         `cargo run -p abase-chaos -- --episodes 1 --seed <n>`)"
    );
    // The pinned list must actually exercise the machinery, not vacuously
    // pass on an idle cluster.
    assert!(
        acked > 1_000,
        "pinned episodes acked too few writes: {acked}"
    );
    assert!(kills >= 8, "pinned episodes killed too few nodes: {kills}");
    // Routed reads must really exercise followers — and under async
    // shipping plus injected stalls, some legal staleness must have been
    // observed (each stale read passed the lag-attribution check).
    assert!(
        follower_reads > 100,
        "routed reads barely reached followers: {follower_reads}"
    );
    assert!(
        stale_reads > 0,
        "no staleness observed across pinned fault episodes — the \
         stale-read attribution check is vacuous"
    );
    // The migration plane must be genuinely exercised: some moves complete
    // their cut-over under fire, and some are aborted by targeted faults
    // (killed endpoints, torn checkpoint copies) — each path covered by the
    // never-loses-acked-writes / never-double-serves invariants above.
    assert!(
        migrations_started >= 5,
        "pinned episodes started too few migrations: {migrations_started}"
    );
    assert!(
        migrations_completed >= 2,
        "no pinned episode completed a live cut-over: {migrations_completed}"
    );
    assert!(
        migrations_aborted >= 2,
        "no pinned episode aborted a faulted migration: {migrations_aborted}"
    );
    // Socket-transport episodes share the same global fail-point registry,
    // so they run here, after the cluster episodes, still sequentially.
    let mut socket_failures = Vec::new();
    let mut socket_faults = 0u64;
    let mut socket_resyncs = 0u64;
    for &seed in PINNED_SOCKET_SEEDS {
        let report = abase_chaos::run_socket_episode(seed);
        socket_faults += report.faults_armed;
        socket_resyncs += report.resyncs;
        for violation in &report.violations {
            eprintln!("CHAOS_SEED={seed} (socket): {violation}");
        }
        if !report.ok() {
            socket_failures.push(seed);
        }
    }
    assert!(
        socket_failures.is_empty(),
        "pinned socket chaos seeds regressed: {socket_failures:?} (replay \
         with `cargo run -p abase-chaos -- --episodes 0 --socket-episodes 1 \
         --seed <n>`)"
    );
    // Non-vacuity: the pinned trio must really bend the frame stream and
    // force checkpoint recoveries.
    assert!(
        socket_faults >= 6,
        "pinned socket episodes armed too few frame faults: {socket_faults}"
    );
    assert!(
        socket_resyncs >= 2,
        "pinned socket episodes never recovered via FULLRESYNC: {socket_resyncs}"
    );
}

#[test]
fn fault_plans_replay_identically() {
    // Seed → plan is the whole replayability story; pin it.
    let config = ChaosConfig::default();
    for &seed in PINNED_SEEDS {
        assert_eq!(
            FaultPlan::generate(seed, &config),
            FaultPlan::generate(seed, &config),
            "plan for seed {seed} is not deterministic"
        );
        assert!(!FaultPlan::generate(seed, &config).events.is_empty());
    }
}
