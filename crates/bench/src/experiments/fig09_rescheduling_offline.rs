//! Figure 9 — Offline rescheduling on a 1000-DataNode pool.
//!
//! "The original storage and RU utilization of the DataNodes were highly
//! dispersed … Following the application of Algorithm 2, the load
//! distribution across DataNodes was more balanced, with a 74.5 % reduction
//! in the standard deviation of RU usage and an 84.8 % decrease in storage
//! usage variance."

use crate::{banner, fmt, pct, print_table};
use abase_scheduler::{LoadVector, NodeState, PoolState, ReplicaLoad, Rescheduler};
use abase_workload::TenantPopulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_pool(n_nodes: u32, seed: u64) -> PoolState {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = TenantPopulation::generate(400, seed);
    let mut nodes: Vec<NodeState> = (0..n_nodes)
        .map(|i| NodeState::new(i, 1_000.0, 10_000.0))
        .collect();
    // Skewed initial placement: replicas land on a node cluster chosen by
    // tenant id (the organic outcome of tenants being onboarded in waves).
    let mut replica_id = 0u64;
    let mut partition_id = 0u64;
    for tenant in &population.tenants {
        // Partition counts scale with tenant size so no single replica
        // exceeds ~10 % of a node (the autoscaler's split bound UP ensures
        // this in production, §5.1).
        let by_ru = (400.0 * tenant.ru / 35.0).ceil() as u32;
        let by_storage = (4_000.0 * tenant.storage / 350.0).ceil() as u32;
        let replicas = by_ru.max(by_storage).clamp(2, 128);
        let home = (tenant.id * 13) % n_nodes;
        for r in 0..replicas {
            let ru_peak = 400.0 * tenant.ru / replicas as f64;
            let mut ru = [0.0f64; 24];
            for (h, slot) in ru.iter_mut().enumerate() {
                // Diurnal peaks mostly align across tenants (consumer traffic
                // peaks in the same evening hours), with mild per-tenant
                // jitter — the pool-level pattern Figure 10 shows.
                let jitter = (tenant.id % 7) as f64 / 7.0 * 0.15;
                let phase = (h as f64 / 24.0 + jitter) * std::f64::consts::TAU;
                *slot = ru_peak * (1.0 + 0.4 * phase.sin()).max(0.1);
            }
            // Cluster of ~20 nodes around the tenant's home node.
            let node = (home + rng.gen_range(0..20u32)) % n_nodes;
            nodes[node as usize].add_replica(ReplicaLoad::from_total(
                replica_id,
                tenant.id,
                partition_id + u64::from(r / 2),
                LoadVector(ru),
                0.7,
                4_000.0 * tenant.storage / replicas as f64,
            ));
            replica_id += 1;
        }
        partition_id += u64::from(replicas / 2);
    }
    PoolState::new(nodes)
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 9",
        "offline rescheduling of a 1000-node resource pool",
        "RU-util std −74.5%; storage-util variance −84.8%",
    );
    let mut pool = build_pool(1000, 9);
    let replicas = pool.replica_count();
    let ru_std_before = pool.ru_util_std();
    let sto_std_before = pool.storage_util_std();
    let (r, s) = pool.optimal_load();
    println!(
        "pool: 1000 nodes, {replicas} replicas, optimal load R={} S={}\n",
        fmt(r, 3),
        fmt(s, 3)
    );
    let start = std::time::Instant::now();
    let moves = Rescheduler::default().rebalance_to_convergence(&mut pool, 400);
    let elapsed = start.elapsed();
    let ru_std_after = pool.ru_util_std();
    let sto_std_after = pool.storage_util_std();
    let rows = vec![
        vec![
            "RU util std".into(),
            fmt(ru_std_before, 4),
            fmt(ru_std_after, 4),
            pct(1.0 - ru_std_after / ru_std_before),
            "74.5%".into(),
        ],
        vec![
            "storage util std".into(),
            fmt(sto_std_before, 4),
            fmt(sto_std_after, 4),
            pct(1.0 - sto_std_after / sto_std_before),
            "-".into(),
        ],
        vec![
            "storage util variance".into(),
            fmt(sto_std_before * sto_std_before, 6),
            fmt(sto_std_after * sto_std_after, 6),
            pct(1.0 - (sto_std_after * sto_std_after) / (sto_std_before * sto_std_before)),
            "84.8%".into(),
        ],
    ];
    print_table(&["metric", "before", "after", "reduction", "paper"], &rows);
    println!(
        "\n{} migrations in {:.2?} (≤400 rounds of Algorithm 2; each round's \
         moves complete individually before the next round starts)",
        moves.len(),
        elapsed
    );
    // Rescheduling is real data movement, not a routing flip: price the plan
    // under the §3.3 per-disk copy model. Sources spread across the pool, so
    // the wall-clock cost is set by the busiest source disk, not the total.
    let mut moved_storage = 0.0;
    let mut per_source: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for m in &moves {
        let mut replicas = pool.nodes.iter().flat_map(|n| n.replicas.iter());
        if let Some(r) = replicas.find(|r| r.id == m.replica_id) {
            moved_storage += r.storage;
            *per_source.entry(m.from_node).or_default() += r.storage;
        }
    }
    let disk_units_per_hour = 2_000.0;
    let busiest = per_source.values().copied().fold(0.0f64, f64::max);
    println!(
        "data moved: {moved_storage:.0} storage units across {} source disks; at \
         {disk_units_per_hour:.0} units/h per disk the plan drains in ≈{:.1} h \
         (serialized through one disk it would take ≈{:.1} h)",
        per_source.len(),
        busiest / disk_units_per_hour,
        moved_storage / disk_units_per_hour
    );
    // Scatter summary: utilization ranges tighten.
    let ru_utils: Vec<f64> = pool.nodes.iter().map(NodeState::ru_util).collect();
    let max = ru_utils.iter().copied().fold(0.0, f64::max);
    let min = ru_utils.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "post-rescheduling RU utilization range: [{}, {}]",
        pct(min),
        pct(max)
    );
    Ok(())
}
