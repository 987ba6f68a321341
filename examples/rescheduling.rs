//! Rescheduling: watch Algorithm 2 balance a lopsided resource pool.
//!
//! Builds a 20-node pool where two nodes carry almost everything — one
//! CPU-bound, one disk-bound — and runs rescheduling rounds until the pool is
//! balanced, printing a utilization heat-strip each round.
//!
//! Run with: `cargo run --release --example rescheduling`. It exits non-zero
//! if the pool does not converge within 60 rounds or ends no better balanced
//! than it started.

use abase::scheduler::{LoadVector, NodeState, PoolState, ReplicaLoad, Rescheduler};

fn heat(util: f64) -> char {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    LEVELS[((util / 1.2 * 7.0).round() as usize).min(7)]
}

fn strip(pool: &PoolState, which: fn(&NodeState) -> f64) -> String {
    pool.nodes.iter().map(|n| heat(which(n))).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut pool = PoolState::new(
        (0..20)
            .map(|i| NodeState::new(i, 1_000.0, 10_000.0))
            .collect(),
    );
    // Node 0: CPU-hungry tenants (search/e-commerce shapes from Table 1).
    for id in 0..30u64 {
        pool.nodes[0].add_replica(ReplicaLoad::from_total(
            id,
            1,
            id,
            LoadVector::flat(35.0),
            40.0,
        ));
    }
    // Node 1: storage-hungry tenants (direct-message shape).
    for id in 100..130u64 {
        pool.nodes[1].add_replica(ReplicaLoad::from_total(
            id,
            2,
            id,
            LoadVector::flat(2.0),
            320.0,
        ));
    }
    // A sprinkle of medium tenants elsewhere.
    for id in 200..260u64 {
        let node = 2 + (id as usize % 18);
        pool.nodes[node].add_replica(ReplicaLoad::from_total(
            id,
            3 + (id % 5) as u32,
            id,
            LoadVector::flat(6.0),
            60.0,
        ));
    }

    let rescheduler = Rescheduler::default();
    println!("round | RU util per node        | storage util per node   | RU std");
    let mut inflight = Vec::new();
    let initial_std = pool.ru_util_std();
    let mut converged = false;
    for round in 0..60 {
        if round % 5 == 0 {
            println!(
                "{round:>5} | {} | {} | {:.4}",
                strip(&pool, NodeState::ru_util),
                strip(&pool, NodeState::storage_util),
                pool.ru_util_std()
            );
        }
        // Offline regime: every move started last round has completed — each
        // one is finished individually, matching the live engine's
        // per-migration completion callbacks.
        for m in std::mem::take(&mut inflight) {
            let m: abase::scheduler::Migration = m;
            pool.complete_migration(m.from_node, m.to_node);
        }
        let moves = rescheduler.reschedule_round(&mut pool);
        if moves.is_empty() && round > 0 {
            println!("converged after {round} rounds");
            converged = true;
            break;
        }
        inflight = moves;
    }
    let (r, s) = pool.optimal_load();
    println!(
        "\noptimal load point R={r:.3} S={s:.3}; final stds: RU {:.4}, storage {:.4}",
        pool.ru_util_std(),
        pool.storage_util_std()
    );
    println!("Both dimensions balance simultaneously — the multi-resource part of §5.3.");
    if !converged {
        return Err("no convergence within 60 rounds".into());
    }
    if pool.ru_util_std() >= initial_std {
        return Err(format!(
            "RU std {:.4} is not below round 0's {initial_std:.4}",
            pool.ru_util_std()
        )
        .into());
    }
    Ok(())
}
