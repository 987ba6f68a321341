//! The control plane pinned: the §5.2 ensemble forecast, Algorithm 1's
//! scaling decisions along Figure 8a's run, and Algorithm 2's moves on a
//! small Figure 9-shaped pool must produce these exact results.
//!
//! `isolation_pin.rs` pins the data plane (quota, WFQ, cache) through
//! `DataNodeSim`; this file is its §5 counterpart. A change to the forecast
//! pipeline, to Algorithm 1's thresholds or to Algorithm 2's loss and gain
//! shows up here as a different number, not as a different-looking figure.
//!
//! Decisions (model choice, period, denoised points, scale-up days, moves)
//! must match exactly. Floats must match within a relative 1e-12, so a
//! rewrite that reassociates a sum may move the last bit and still pass.

use abase::forecast::ModelChoice;
use abase::scheduler::reschedule::Resource;
use abase::scheduler::{
    AutoscaleConfig, Autoscaler, LoadVector, NodeState, PoolState, ReplicaLoad, Rescheduler,
    ScalingDecision,
};
use abase::util::clock::days;
use abase::util::TimeSeries;
use abase::workload::series::{fig8a_disk_usage, SeriesSpec};
use abase::workload::TenantPopulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_close(what: &str, got: f64, want: f64) {
    let scale = want.abs().max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= 1e-12 * scale,
        "{what}: got {got:?}, pinned {want:?}"
    );
}

// ---- §5.2 ensemble ----

/// `(model, period, peak, denoised_points, sum of the 168 forecast values)`.
type Forecast = (ModelChoice, Option<usize>, f64, usize, f64);

/// The seeded series the ensemble is pinned on: Figure 8a's ground truth at
/// three of the prefixes its run forecasts from, and five 30-day series
/// that drive the other branches: a weekly period, a level shift the
/// change-point step truncates, one-off spikes the sporadic-peak filter
/// removes, a flat series with recurring bursts, and one whose only burst is
/// on its last day, which the Issue-3 guard replays.
fn series() -> Vec<(&'static str, TimeSeries)> {
    let truth = fig8a_disk_usage();
    let prefix = |day: usize| truth.split_at(day * 24).0;
    let mut bursts = vec![100.0; 720];
    for day in 25..30 {
        for h in 0..3 {
            bursts[day * 24 + 8 + h] = 900.0;
        }
    }
    let mut last_day = vec![100.0; 720];
    for v in &mut last_day[29 * 24 + 8..29 * 24 + 16] {
        *v = 900.0;
    }
    vec![
        ("fig08a day 5", prefix(5)),
        ("fig08a day 10", prefix(10)),
        ("fig08a day 21", truth.clone()),
        (
            "weekly",
            SeriesSpec {
                seasonal: vec![(168.0, 40.0), (24.0, 10.0)],
                seed: 11,
                ..Default::default()
            }
            .build(),
        ),
        (
            "level shift",
            SeriesSpec {
                trend_per_hour: 0.05,
                steps: vec![(480, 150.0)],
                seed: 12,
                ..Default::default()
            }
            .build(),
        ),
        (
            "sporadic spikes",
            SeriesSpec {
                spikes: vec![(200, 900.0), (650, 700.0)],
                seed: 13,
                ..Default::default()
            }
            .build(),
        ),
        (
            "recurring bursts",
            TimeSeries::new(0, abase::workload::series::HOUR, bursts),
        ),
        (
            "last-day burst",
            TimeSeries::new(0, abase::workload::series::HOUR, last_day),
        ),
    ]
}

fn forecast(usage: &TimeSeries) -> Forecast {
    // Algorithm 1's forecast, 7 days ahead; its decision is pinned below.
    let (_, out) =
        Autoscaler::new(AutoscaleConfig::default()).forecast_and_decide(1, 0, usage, f64::MAX, 1);
    (
        out.model,
        out.period,
        out.peak,
        out.denoised_points,
        out.values.iter().sum(),
    )
}

#[rustfmt::skip]
const FORECASTS: &[(&str, Forecast)] = &[
    ("fig08a day 5", (ModelChoice::Blend, Some(24), 743.8525520155881, 0, 109546.13753560031)),
    ("fig08a day 10", (ModelChoice::ProphetOnly, Some(24), 814.172932269723, 0, 121094.39827827629)),
    ("fig08a day 21", (ModelChoice::ProphetOnly, Some(24), 945.5045523092751, 0, 143884.48748814777)),
    ("weekly", (ModelChoice::Blend, Some(120), 224.312032207119, 0, 28205.163708570413)),
    ("level shift", (ModelChoice::Blend, Some(24), 307.34964172818974, 0, 48285.330271741695)),
    ("sporadic spikes", (ModelChoice::Blend, Some(24), 120.27724278024473, 2, 16814.58927997379)),
    ("recurring bursts", (ModelChoice::HistoricalOnly, Some(24), 772.6383968108221, 0, 31155.997629268684)),
    ("last-day burst", (ModelChoice::RecentHistoryFallback, Some(120), 900.0, 0, 23200.0)),
];

#[test]
fn ensemble_forecasts_are_unchanged() {
    let series = series();
    assert_eq!(series.len(), FORECASTS.len());
    for ((name, usage), (pinned_name, want)) in series.iter().zip(FORECASTS) {
        assert_eq!(name, pinned_name);
        let got = forecast(usage);
        assert_eq!((got.0, got.1, got.3), (want.0, want.1, want.3), "{name}");
        assert_close(&format!("{name} peak"), got.2, want.2);
        assert_close(&format!("{name} forecast sum"), got.4, want.4);
    }
}

// ---- Algorithm 1 along Figure 8a ----

/// One day of Figure 8a's run: `(day, forecast peak, new quota on a
/// scale-up)`.
type Day = (usize, f64, Option<f64>);

/// Figure 8a's loop (`crates/bench/src/experiments/fig08a_scaling_case.rs`):
/// a 950 quota over 8 partitions, a forecast each day from day 3 to day 20.
/// Returns the days and the throttled-day count. Figure 8a sets no split
/// bound; its partition quotas stay far below the default one, so the
/// default configuration takes the same decisions (no split is asserted).
fn fig08a_run() -> (Vec<Day>, u32) {
    let truth = fig8a_disk_usage();
    let mut autoscaler = Autoscaler::new(AutoscaleConfig::default());
    let mut quota = 950.0;
    let mut throttled_days = 0;
    let mut out = Vec::new();
    for day in 3..21 {
        let (observed, _) = truth.split_at(day * 24);
        let day_max = observed.values()[(day - 1) * 24..]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        if day_max > quota {
            throttled_days += 1;
        }
        let (decision, output) =
            autoscaler.forecast_and_decide(1, days(day as u64), &observed, quota, 8);
        let scaled = match decision {
            ScalingDecision::ScaleUp {
                new_tenant_quota,
                new_partitions,
                split,
                ..
            } => {
                assert_eq!((new_partitions, split), (8, false), "day {day}");
                quota = new_tenant_quota;
                Some(new_tenant_quota)
            }
            ScalingDecision::Hold => None,
            other => panic!("day {day}: unexpected {other:?}"),
        };
        out.push((day, output.peak, scaled));
    }
    (out, throttled_days)
}

#[rustfmt::skip]
const FIG08A: &[Day] = &[
    (3, 721.3353931267224, None),
    (4, 687.2475989029731, None),
    (5, 743.8525520155881, None),
    (6, 762.0275607908245, None),
    (7, 775.3907676364656, None),
    (8, 769.2593703194807, None),
    (9, 796.8895338470383, None),
    (10, 814.172932269723, Some(1252.57374195342)),
    (11, 824.5429846039412, None),
    (12, 841.7316891472146, None),
    (13, 855.9615513869129, None),
    (14, 851.3910594951197, None),
    (15, 875.2731999997236, None),
    (16, 892.3657025469302, None),
    (17, 899.8766906674426, None),
    (18, 918.597738538689, None),
    (19, 937.9625275568256, None),
    (20, 944.7536933133981, None),
];
const FIG08A_THROTTLED_DAYS: u32 = 0;

#[test]
fn figure_8a_decisions_are_unchanged() {
    let (run, throttled) = fig08a_run();
    assert_eq!(throttled, FIG08A_THROTTLED_DAYS);
    assert_eq!(run.len(), FIG08A.len());
    for (got, want) in run.iter().zip(FIG08A) {
        let day = got.0;
        assert_eq!(day, want.0);
        assert_close(&format!("day {day} peak"), got.1, want.1);
        assert_eq!(got.2.is_some(), want.2.is_some(), "day {day} scale-up");
        if let (Some(g), Some(w)) = (got.2, want.2) {
            assert_close(&format!("day {day} quota"), g, w);
        }
    }
}

// ---- Algorithm 2 on a small Figure 9-shaped pool ----

/// Figure 9's pool builder (`fig09_rescheduling_offline.rs`) at a size a
/// test runs in milliseconds: 40 nodes, 40 tenants, each tenant's replicas
/// on the 4 nodes from its home node on.
fn fig09_pool() -> PoolState {
    const N_NODES: u32 = 40;
    let mut rng = StdRng::seed_from_u64(9);
    let population = TenantPopulation::generate(40, 9);
    let mut nodes: Vec<NodeState> = (0..N_NODES)
        .map(|i| NodeState::new(i, 1_000.0, 10_000.0))
        .collect();
    let mut replica_id = 0u64;
    let mut partition_id = 0u64;
    for tenant in &population.tenants {
        let by_ru = (20.0 * tenant.ru / 35.0).ceil() as u32;
        let by_storage = (200.0 * tenant.storage / 350.0).ceil() as u32;
        let replicas = by_ru.max(by_storage).clamp(2, 8);
        let home = (tenant.id * 13) % N_NODES;
        for r in 0..replicas {
            let ru_peak = 20.0 * tenant.ru / replicas as f64;
            let mut ru = [0.0f64; 24];
            for (h, slot) in ru.iter_mut().enumerate() {
                let jitter = (tenant.id % 7) as f64 / 7.0 * 0.15;
                let phase = (h as f64 / 24.0 + jitter) * std::f64::consts::TAU;
                *slot = ru_peak * (1.0 + 0.4 * phase.sin()).max(0.1);
            }
            let node = (home + rng.gen_range(0..4u32)) % N_NODES;
            nodes[node as usize].add_replica(ReplicaLoad::from_total(
                replica_id,
                tenant.id,
                partition_id + u64::from(r / 2),
                LoadVector(ru),
                200.0 * tenant.storage / replicas as f64,
            ));
            replica_id += 1;
        }
        partition_id += u64::from(replicas / 2);
    }
    PoolState::new(nodes)
}

/// `(replica_id, from_node, to_node, resource)`.
type Move = (u64, u32, u32, Resource);

#[rustfmt::skip]
const FIG09_MOVES: &[Move] = &[
    (9, 1, 36, Resource::Ru),
    (8, 2, 15, Resource::Ru),
    (78, 7, 3, Resource::Ru),
    (75, 8, 24, Resource::Ru),
    (65, 9, 0, Resource::Ru),
    (72, 19, 29, Resource::Ru),
    (71, 21, 4, Resource::Ru),
    (58, 22, 5, Resource::Ru),
    (55, 23, 11, Resource::Ru),
    (19, 25, 10, Resource::Ru),
    (18, 26, 12, Resource::Ru),
    (6, 27, 38, Resource::Ru),
];
/// RU-util std and storage-util std, before and after.
const FIG09_STD: [f64; 4] = [
    0.06953041334918343,
    0.05813587948441544,
    0.05349617859443436,
    0.042162689997223814,
];

#[test]
fn algorithm_2_moves_are_unchanged() {
    let mut pool = fig09_pool();
    let before = (pool.ru_util_std(), pool.storage_util_std());
    let moves: Vec<Move> = Rescheduler::default()
        .rebalance_to_convergence(&mut pool)
        .iter()
        .map(|m| (m.replica_id, m.from_node, m.to_node, m.resource))
        .collect();
    assert_eq!(moves, FIG09_MOVES);
    let got = [
        before.0,
        pool.ru_util_std(),
        before.1,
        pool.storage_util_std(),
    ];
    for (i, (g, w)) in got.iter().zip(FIG09_STD).enumerate() {
        assert_close(&format!("std #{i}"), *g, w);
    }
}
