//! Ablation — four-class WFQ vs a single shared queue.
//!
//! "All requests are categorized into four independent dual-layer WFQs based
//! on their type (read/write) and their size (large/small). This
//! categorization … ensures closely matched request latencies within each
//! queue type" (§4.3, citing 2DFQ's heavyweight/lightweight interference).
//! This study floods a node with large reads and measures how long small
//! reads wait in each design.

use crate::{banner, fmt, print_table};
use abase_wfq::{CpuTickBudget, DualWfq, WfqItem};

/// Schedule `ticks` ticks of a mixed flood and return the mean scheduling
/// delay (in ticks) of small-read completions.
///
/// `segregated == true` gives small reads their own queue + budget share
/// (the 4-class design); `false` mixes everything into one queue with the
/// full budget (the single-queue baseline).
fn simulate(segregated: bool, ticks: usize) -> f64 {
    // Two queues exist in both designs; in the single-queue baseline the
    // small queue is unused and the mixed queue gets the whole budget.
    let mut small_q: DualWfq<usize> = DualWfq::new();
    let mut mixed_q: DualWfq<usize> = DualWfq::new();
    let total_budget = 100.0;
    let small_share = 0.4;
    let mut delays = Vec::new();
    for tick in 0..ticks {
        // Per tick, ONE tenant issues 8 large reads (cost 12) followed by 10
        // small reads (cost 0.5): the heavyweight flood oversubscribes the
        // budget, and within a tenant the WFQ is FIFO — exactly 2DFQ's
        // lightweight-behind-heavyweight interference.
        for _ in 0..8 {
            mixed_q.push_cpu(WfqItem {
                tenant: 1,
                cost: 12.0,
                weight: 0.5,
                payload: usize::MAX, // marks a large read
            });
        }
        for i in 0..10 {
            let item = WfqItem {
                tenant: 1,
                cost: 0.5,
                weight: 0.5,
                payload: tick * 100 + i,
            };
            if segregated {
                small_q.push_cpu(item);
            } else {
                mixed_q.push_cpu(item);
            }
        }
        if segregated {
            let (small_done, used) = small_q.drain_cpu(
                CpuTickBudget {
                    ru: total_budget * small_share,
                },
                false,
            );
            let _ = mixed_q.drain_cpu(
                CpuTickBudget {
                    ru: total_budget - used.min(total_budget * small_share),
                },
                false,
            );
            for item in small_done {
                delays.push((tick - item.payload / 100) as f64);
            }
        } else {
            let (done, _) = mixed_q.drain_cpu(CpuTickBudget { ru: total_budget }, false);
            for item in done {
                if item.payload != usize::MAX {
                    delays.push((tick - item.payload / 100) as f64);
                }
            }
        }
    }
    if delays.is_empty() {
        f64::INFINITY
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    }
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Ablation: WFQ class split",
        "small-read scheduling delay under a large-read flood",
        "independent class queues keep lightweight requests from waiting behind heavyweight ones",
    );
    let ticks = 2_000;
    let single = simulate(false, ticks);
    let four_class = simulate(true, ticks);
    let rows = vec![vec![
        "mean small-read delay (ticks)".into(),
        fmt(single, 2),
        fmt(four_class, 2),
    ]];
    print_table(&["metric", "single queue", "4-class queues"], &rows);
    if four_class < 0.01 {
        println!(
            "\nclass segregation eliminates small-read queueing delay entirely \
             ({} ticks -> ~0) under heavyweight pressure",
            fmt(single, 1)
        );
    } else {
        println!(
            "\nclass segregation cuts small-read queueing delay by {}x under heavyweight pressure",
            fmt(single / four_class, 1)
        );
    }
    Ok(())
}
