//! Figure 10 — Online rescheduling every 10 minutes.
//!
//! "Following the rescheduling algorithms, the maximum RU utilization among
//! DataNodes increasingly converged towards the average RU utilization."
//!
//! Migrations are **real data movement**, not routing flips: each move stays
//! in flight for the hours its checkpoint copy takes under the §3.3 per-disk
//! bandwidth model, and its two nodes stay blocked (`is_migrating`) until
//! that individual move completes — the same per-migration completion
//! semantics the live `MigrationEngine` enforces.

use crate::{banner, pct, sparkline};
use abase_scheduler::{LoadVector, Migration, NodeState, PoolState, ReplicaLoad, Rescheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Modeled per-disk copy bandwidth, in storage units per hour: a migrated
/// replica of storage `s` keeps its source and destination blocked for
/// `ceil(s / COPY_UNITS_PER_HOUR)` hourly steps.
const COPY_UNITS_PER_HOUR: f64 = 600.0;

/// A move in flight: completes (unblocking exactly its two nodes) at `done_hour`.
struct InflightMove {
    migration: Migration,
    done_hour: usize,
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 10",
        "online rescheduling (every 10 min) over 100 hours",
        "max node QPS converges toward the pool average after rescheduling starts",
    );
    let n_nodes = 50u32;
    let mut rng = StdRng::seed_from_u64(10);
    let mut pool = PoolState::new(
        (0..n_nodes)
            .map(|i| NodeState::new(i, 1_000.0, 100_000.0))
            .collect(),
    );
    // 600 replicas piled onto one third of the nodes, with diurnal phases.
    for id in 0..600u64 {
        let node = (id % (u64::from(n_nodes) / 3)) as usize;
        let peak = rng.gen_range(10.0..30.0);
        let phase_shift = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut ru = [0.0f64; 24];
        for (h, slot) in ru.iter_mut().enumerate() {
            let phase = h as f64 / 24.0 * std::f64::consts::TAU + phase_shift;
            *slot = peak * (1.0 + 0.3 * phase.sin()).max(0.05);
        }
        pool.nodes[node].add_replica(ReplicaLoad::from_total(
            id,
            (id % 40) as u32,
            id,
            LoadVector(ru),
            0.7,
            rng.gen_range(100.0..900.0),
        ));
    }
    let rescheduler = Rescheduler::default();
    let mut max_series = Vec::new();
    let mut avg_series = Vec::new();
    let mut inflight: Vec<InflightMove> = Vec::new();
    let mut total_moves = 0usize;
    let mut total_units_moved = 0.0f64;
    let mut longest_copy_hours = 0usize;
    let reschedule_start_hour = 24usize;
    println!("(50 nodes, 600 replicas; rescheduling starts at hour {reschedule_start_hour})\n");
    for hour in 0..100usize {
        if hour >= reschedule_start_hour {
            // Complete exactly the moves whose modeled copy has finished;
            // everything else keeps its nodes blocked into this round.
            let (done, still): (Vec<InflightMove>, Vec<InflightMove>) =
                inflight.into_iter().partition(|m| m.done_hour <= hour);
            inflight = still;
            for m in done {
                pool.complete_migration(m.migration.from_node, m.migration.to_node);
            }
            // One displayed step aggregates the six 10-minute production
            // rounds; at most one in-flight migration per node either way.
            for migration in rescheduler.reschedule_round(&mut pool) {
                // The moved replica now sits on the destination: look its
                // storage up there to model the copy the move just started.
                let storage = pool
                    .nodes
                    .iter()
                    .find(|n| n.id == migration.to_node)
                    .and_then(|n| {
                        n.replicas
                            .iter()
                            .find(|r| r.id == migration.replica_id)
                            .map(|r| r.storage)
                    })
                    .unwrap_or(0.0);
                let copy_hours = (storage / COPY_UNITS_PER_HOUR).ceil().max(1.0) as usize;
                longest_copy_hours = longest_copy_hours.max(copy_hours);
                total_units_moved += storage;
                total_moves += 1;
                inflight.push(InflightMove {
                    migration,
                    done_hour: hour + copy_hours,
                });
            }
        }
        max_series.push(pool.max_ru_util());
        avg_series.push(pool.mean_ru_util());
    }
    println!("max  [{}]", sparkline(&max_series));
    println!("avg  [{}]", sparkline(&avg_series));
    let gap_before = max_series[reschedule_start_hour - 1] - avg_series[reschedule_start_hour - 1];
    let gap_after = max_series[99] - avg_series[99];
    println!(
        "\nhour 23: max {} avg {} (gap {})",
        pct(max_series[23]),
        pct(avg_series[23]),
        pct(gap_before)
    );
    println!(
        "hour 99: max {} avg {} (gap {})",
        pct(max_series[99]),
        pct(avg_series[99]),
        pct(gap_after)
    );
    println!(
        "gap shrank by {} (paper: max converges to average)",
        pct(1.0 - gap_after / gap_before.max(1e-12))
    );
    println!(
        "{total_moves} migrations moved {total_units_moved:.0} storage units \
         ({COPY_UNITS_PER_HOUR:.0}/h per disk; longest copy {longest_copy_hours} h; \
         {} still in flight at hour 99)",
        inflight.len()
    );
    println!("\nhour | max util | avg util");
    for hour in (0..100).step_by(10) {
        println!(
            "{hour:>4} | {:>8} | {:>8}",
            pct(max_series[hour]),
            pct(avg_series[hour])
        );
    }
    Ok(())
}
