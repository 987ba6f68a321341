//! Ablation — limited fan-out: sweeping the group count `n`.
//!
//! "By carefully adjusting n, tenants can optimize the balance between hit
//! ratio and hot key pressure. Because each proxy receives 1/n of the total
//! requests, a larger n results in a higher cache hit ratio for each proxy.
//! During hot key events, selecting a smaller n value facilitates load
//! distribution across a larger number of proxies (= N/n)." (§4.4)

use crate::{banner, pct, print_table};
use abase_cache::aulru::AuLruConfig;
use abase_sim::proxy::{ProxyDecision, ProxyPlane, ProxyPlaneConfig};
use abase_util::clock::secs;
use abase_workload::{KeyspaceConfig, RequestGen};

const N_PROXIES: u32 = 16;

/// Run a Zipf workload with one scorching hot key; returns
/// (hit ratio, share of requests landing on the single busiest proxy).
fn simulate(n_groups: u32) -> (f64, f64) {
    let mut plane = ProxyPlane::new(
        1,
        ProxyPlaneConfig {
            n_proxies: N_PROXIES,
            n_groups,
            tenant_quota_ru: f64::INFINITY,
            cache: AuLruConfig {
                capacity_bytes: 1 << 20,
                ttl: secs(3600),
                ..Default::default()
            },
            cache_enabled: true,
            quota_enabled: false,
        },
        0,
        7,
    );
    let mut gen = RequestGen::new(
        KeyspaceConfig {
            n_keys: 100_000,
            zipf_s: 1.4, // hot-key event: traffic concentrates hard
            read_ratio: 1.0,
            ..Default::default()
        },
        7,
    );
    let total = 300_000usize;
    let mut hits = 0u64;
    for i in 0..total {
        let spec = gen.next_request();
        let now = i as u64 * 1_000;
        match plane.submit(spec.key_rank as u64, false, now) {
            ProxyDecision::CacheHit { .. } => hits += 1,
            ProxyDecision::Forward { proxy } => {
                plane.on_read_complete(proxy, spec.key_rank as u64, spec.value_bytes, false, now);
            }
            ProxyDecision::Rejected { .. } => unreachable!(),
        }
    }
    let loads = plane.per_proxy_lookups();
    let max_load = *loads.iter().max().unwrap_or(&0) as f64;
    (hits as f64 / total as f64, max_load / total as f64)
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Ablation: limited fan-out",
        "group count n vs per-proxy hit ratio and hot-key pressure (N = 16)",
        "larger n ⇒ higher hit ratio; smaller n ⇒ hot key spread over N/n proxies",
    );
    let mut rows = Vec::new();
    for n_groups in [1u32, 2, 4, 8, 16] {
        let (hit, max_share) = simulate(n_groups);
        rows.push(vec![
            format!("{n_groups}"),
            format!("{}", N_PROXIES / n_groups),
            pct(hit),
            pct(max_share),
        ]);
    }
    print_table(
        &[
            "groups n",
            "proxies per hot key (N/n)",
            "hit ratio",
            "busiest proxy's traffic share",
        ],
        &rows,
    );
    println!("\nThe table is the paper's trade-off: read down for hit ratio, up for");
    println!("hot-key headroom; Table 2 tenants pick n per their bottleneck.");
    Ok(())
}
