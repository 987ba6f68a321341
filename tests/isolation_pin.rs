//! The simulator pinned: shortened runs of the Figure 6 and Figure 7 phase
//! scripts (`crates/bench/src/bin/fig0{6,7}_*.rs`: nine reported minutes of
//! 2 s, the burst from minute 3, the phase switch at minute 6) must produce
//! these exact per-minute series. They exercise every decision
//! `DataNodeSim` takes from its pipeline — estimates, the partition quota
//! on and off, rejections and their CPU cost, hit and miss charges, the WFQ
//! weights — so a change to how the simulator admits, charges or schedules
//! shows up here as a different number, not as a different-looking figure.
//!
//! The expected values are the series the simulator produced before its
//! admission and charging moved into `abase_core::pipeline`, with one
//! column re-pinned since: `p99_latency_ms` is a bucket midpoint, and the
//! histogram's bucket layout changed (log buckets of 5 % growth became
//! `abase_util::Histogram`'s 1/16-wide integer buckets). Each re-pinned p99
//! is within 6 % of its old value — the two layouts' midpoint errors
//! (2.47 % and 3.03 %) combined — and the other five columns, the mean
//! latency among them (an exact sum over a count in both), did not move.

use abase::sim::isolation::{IsolationExperiment, MinutePoint, TenantSpec};
use abase::sim::node::{DataNodeConfig, DataNodeSim};
use abase::sim::proxy::ProxyPlaneConfig;
use abase::workload::{KeyspaceConfig, LogNormal, TrafficShape};

/// Virtual micros per reported minute.
const MINUTE: u64 = 2_000_000;

/// `(minute, tenant, [success_qps, error_qps, mean_latency_ms,
/// p99_latency_ms, cache_hit_ratio, proxy_hit_ratio])`.
type Point = (u64, u32, [f64; 6]);

#[rustfmt::skip]
const FIG06: &[Point] = &[
    (0, 1, [200.0, 0.0, 2.3, 2.2376994864925206, 0.0, 0.0]),
    (0, 2, [400.0, 0.0, 1.6675, 2.2376994864925206, 0.31625, 0.0]),
    (1, 1, [200.0, 0.0, 2.295, 2.2376994864925206, 0.0025, 0.0]),
    (1, 2, [400.0, 0.0, 1.42, 2.2376994864925206, 0.44, 0.0]),
    (2, 1, [200.0, 0.0, 2.295, 2.2376994864925206, 0.0025, 0.0]),
    (2, 2, [400.0, 0.0, 1.2975, 2.2376994864925206, 0.50125, 0.0]),
    (3, 1, [231.5, 5214.5, 94.66639956803455, 233.39965773980978, 0.00025, 0.0]),
    (3, 2, [60.0, 0.0, 1.2666666666666668, 2.2376994864925206, 0.0775, 0.0]),
    (4, 1, [0.0, 6072.0, 0.0, 0.0, 0.0, 0.0]),
    (4, 2, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (5, 1, [0.0, 6072.0, 0.0, 0.0, 0.0, 0.0]),
    (5, 2, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (6, 1, [783.0, 7422.0, 6744.960002554279, 7731.025957483451, 0.001375, 0.0]),
    (6, 2, [1540.0, 0.0, 2776.239477272727, 5633.047336938843, 2.23, 0.0]),
    (7, 1, [1475.5, 7374.0, 7665.638817011182, 8642.807772268108, 0.005375, 0.0]),
    (7, 2, [400.0, 0.0, 1.105, 2.2376994864925206, 0.5975, 0.0]),
    (8, 1, [1475.5, 7292.0, 7935.995108776686, 9167.549699591811, 0.0064375, 0.0]),
    (8, 2, [400.0, 0.0, 1.04, 2.2376994864925206, 0.63, 0.0]),
];

#[rustfmt::skip]
const FIG07: &[Point] = &[
    (0, 1, [200.0, 0.0, 2.3, 2.2376994864925206, 0.0, 0.0]),
    (0, 2, [300.0, 0.0, 1.1266666666666667, 2.2376994864925206, 0.5866666666666667, 0.0]),
    (1, 1, [200.0, 0.0, 2.3, 2.2376994864925206, 0.0, 0.0]),
    (1, 2, [300.0, 0.0, 0.8966666666666666, 2.2376994864925206, 0.7016666666666667, 0.0]),
    (2, 1, [200.0, 0.0, 2.285, 2.2376994864925206, 0.0075, 0.0]),
    (2, 2, [300.0, 0.0, 0.82, 2.2376994864925206, 0.74, 0.0]),
    (3, 1, [1934.5, 0.0, 206.66078418195917, 384.84922317728655, 0.02125, 0.0]),
    (3, 2, [300.0, 0.0, 0.7833333333333333, 2.2376994864925206, 0.7583333333333333, 0.0]),
    (4, 1, [2007.5, 0.0, 569.3437601494396, 736.9154330860956, 0.04583333333333333, 0.0]),
    (4, 2, [300.0, 0.0, 0.65, 2.2376994864925206, 0.825, 0.0]),
    (5, 1, [1945.0, 404.5, 874.7644539845758, 966.3778218900115, 0.06541666666666666, 0.0]),
    (5, 2, [300.0, 0.0, 0.65, 2.2376994864925206, 0.825, 0.0]),
    (6, 1, [2006.5, 1092.5, 771.2108238225767, 1342.6883045804295, 0.07458333333333333, 0.0]),
    (6, 2, [300.0, 0.0, 0.6066666666666666, 2.2376994864925206, 0.8466666666666667, 0.0]),
    (7, 1, [1563.5, 1046.0, 69.7313415414135, 335.6717192140447, 0.07020833333333333, 0.0]),
    (7, 2, [300.0, 0.0, 0.63, 2.2376994864925206, 0.835, 0.0]),
    (8, 1, [1378.0, 1022.0, 2.0590711175616834, 2.2376994864925206, 0.06916666666666667, 0.0]),
    (8, 2, [300.0, 0.0, 0.66, 2.2376994864925206, 0.82, 0.0]),
];

fn proxy(quota_enabled: bool) -> ProxyPlaneConfig {
    ProxyPlaneConfig {
        n_proxies: 4,
        n_groups: 2,
        quota_enabled,
        cache_enabled: false,
        ..Default::default()
    }
}

fn burst(base: f64, burst: f64) -> TrafficShape {
    TrafficShape::StepBurst {
        base,
        burst,
        start: 3 * MINUTE,
        end: 10 * MINUTE,
    }
}

fn tenant(
    id: u32,
    quotas: (f64, f64),
    shape: TrafficShape,
    keyspace: KeyspaceConfig,
    proxy: ProxyPlaneConfig,
) -> TenantSpec {
    TenantSpec {
        id,
        tenant_quota_ru: quotas.0,
        partition: u64::from(id) * 10,
        partition_quota_ru: quotas.1,
        shape,
        keyspace,
        proxy,
    }
}

/// Figure 6: tenant 1 bursts past its quota with the proxy quota off; at
/// minute 6 it is switched on.
fn fig06() -> Vec<MinutePoint> {
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 2_000.0,
            rejection_cost_ru: 0.5,
            cache_bytes: 16 << 20,
            ..Default::default()
        },
    );
    let keyspace = |prefix: &str, n_keys: usize, zipf_s: f64| KeyspaceConfig {
        n_keys,
        zipf_s,
        read_ratio: 1.0,
        key_prefix: prefix.to_string(),
        ..Default::default()
    };
    let t1 = keyspace("t1", 200_000, 0.3);
    let t2 = keyspace("t2", 20_000, 0.9);
    let specs = vec![
        tenant(1, (800.0, 800.0), burst(200.0, 8_000.0), t1, proxy(false)),
        tenant(
            2,
            (800.0, 800.0),
            TrafficShape::Steady(400.0),
            t2,
            proxy(true),
        ),
    ];
    let mut exp = IsolationExperiment::new(node, specs, 66);
    exp.set_minute_secs(MINUTE / 1_000_000);
    let mut all = exp.run_minutes(6);
    exp.plane_mut(1).set_quota_enabled(true);
    all.extend(exp.run_minutes(3));
    all
}

/// Figure 7: the partition quota is off while tenant 1 bursts at its one
/// partition; at minute 6 it is switched on.
fn fig07() -> Vec<MinutePoint> {
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 1_200.0,
            rejection_cost_ru: 0.02,
            max_queue_per_tenant: 2_000,
            cache_bytes: 16 << 20,
            ..Default::default()
        },
    );
    let keyspace = |prefix: &str, n_keys: usize, zipf_s: f64| KeyspaceConfig {
        n_keys,
        zipf_s,
        read_ratio: 1.0,
        value_size: LogNormal::from_median_p90(1024.0, 2.0),
        key_prefix: prefix.to_string(),
    };
    let t1 = keyspace("t1", 200_000, 0.4);
    let t2 = keyspace("t2", 4_000, 1.1);
    let specs = vec![
        tenant(
            1,
            (100_000.0, 250.0),
            burst(200.0, 2_400.0),
            t1,
            proxy(false),
        ),
        tenant(
            2,
            (100_000.0, 300.0),
            TrafficShape::Steady(300.0),
            t2,
            proxy(false),
        ),
    ];
    let mut exp = IsolationExperiment::new(node, specs, 77);
    exp.set_minute_secs(MINUTE / 1_000_000);
    let quota_enabled = |exp: &mut IsolationExperiment, on: bool| {
        for partition in [10, 20] {
            exp.node_mut()
                .pipeline()
                .set_partition_quota_enabled(partition, on);
        }
    };
    quota_enabled(&mut exp, false);
    let mut all = exp.run_minutes(6);
    quota_enabled(&mut exp, true);
    all.extend(exp.run_minutes(3));
    all
}

fn assert_series(figure: &str, got: &[MinutePoint], want: &[Point]) {
    assert_eq!(got.len(), want.len(), "{figure}: point count");
    for (p, &(minute, tenant, values)) in got.iter().zip(want) {
        let got_values = [
            p.success_qps,
            p.error_qps,
            p.mean_latency_ms,
            p.p99_latency_ms,
            p.cache_hit_ratio,
            p.proxy_hit_ratio,
        ];
        assert_eq!(
            (p.minute, p.tenant, got_values),
            (minute, tenant, values),
            "{figure}: minute {minute}, tenant {tenant}"
        );
    }
}

#[test]
fn figure_6_series_is_unchanged() {
    assert_series("fig06", &fig06(), FIG06);
}

#[test]
fn figure_7_series_is_unchanged() {
    assert_series("fig07", &fig07(), FIG07);
}
