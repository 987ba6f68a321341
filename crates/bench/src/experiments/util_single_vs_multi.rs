//! §6.4 — Resource utilization: single-tenant ABase-Pre vs multi-tenant ABase.
//!
//! "The average utilization rates of CPU, Memory, and Disk for each machine in
//! ABase-Pre were only 17 %, 52 %, and 27 %. After upgrading to ABase, these
//! rates increased to 44 %, 63 %, and 46 %."
//!
//! Two effects drive the gap:
//!
//! 1. **Quantization** — a dedicated deployment must round each tenant up to
//!    whole machines *per resource*, sized by the binding constraint, so the
//!    non-binding resources idle.
//! 2. **Failure headroom** — a 3-replica single-tenant system caps utilization
//!    at 2/3 (§3.3), while an N-node shared pool caps at N/(N+1).
//!
//! The multi-tenant packing co-locates complementary tenants (CPU-heavy with
//! disk-heavy) and shares the failure headroom across the pool.

use crate::{banner, pct, print_table};
use abase_sim::meta::RecoveryModel;
use abase_workload::{Tenant, TenantPopulation};

/// A machine's CPU capacity in normalized RU/s, the same in both deployments.
const CPU: f64 = 8.0;
/// A machine's memory capacity in normalized units (cache working set).
const MEMORY: f64 = 6.0;
/// A machine's disk capacity in normalized storage units.
const DISK: f64 = 8.0;
/// Fixed memory every deployed machine consumes regardless of load: engine
/// memtables, block indexes, bloom filters, OS page cache floor. This is why
/// memory utilization is the *highest* resource on dedicated machines
/// (paper: 52 % memory vs 17 % CPU for ABase-Pre).
const MEMORY_OVERHEAD: f64 = 2.6;
/// The memory a machine has left for tenants' working sets.
const WORKLOAD_MEMORY: f64 = MEMORY - MEMORY_OVERHEAD;

/// Mean per-machine utilization of the three resources, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UtilizationReport {
    cpu: f64,
    memory: f64,
    disk: f64,
    machines: usize,
}

impl UtilizationReport {
    /// `machines` carrying the summed demands, plus each one's fixed memory.
    fn new((cpu, memory, disk): (f64, f64, f64), machines: usize) -> Self {
        let n = machines as f64;
        Self {
            cpu: cpu / (n * CPU),
            memory: (memory + n * MEMORY_OVERHEAD) / (n * MEMORY),
            disk: disk / (n * DISK),
            machines,
        }
    }
}

/// Per-tenant derived demand (CPU = RU, memory ∝ working set, disk = storage).
fn demands(tenant: &Tenant) -> (f64, f64, f64) {
    let cpu = tenant.ru;
    // Memory demand follows the cache working set: read-heavy, high-hit
    // tenants keep more resident.
    let memory = 0.25 * tenant.ru * (0.5 + tenant.cache_hit_ratio) + 0.05 * tenant.storage;
    let disk = tenant.storage;
    (cpu, memory, disk)
}

/// Whole machines (at least one) that fit `(cpu, memory, disk)` when each
/// machine may be loaded to `fill` of every resource.
fn machines_for((cpu, memory, disk): (f64, f64, f64), fill: f64) -> f64 {
    [
        cpu / (CPU * fill),
        memory / (WORKLOAD_MEMORY * fill),
        disk / (DISK * fill),
    ]
    .into_iter()
    .fold(0.0_f64, f64::max)
    .ceil()
    .max(1.0)
}

/// Summed demands of the population.
fn total_demand(population: &TenantPopulation) -> (f64, f64, f64) {
    population.tenants.iter().map(demands).fold(
        (0.0, 0.0, 0.0),
        |(cpu, memory, disk), (c, m, d)| (cpu + c, memory + m, disk + d),
    )
}

/// Dedicated single-tenant deployment: each tenant gets
/// `ceil(max resource demand / (machine capacity × 2/3))` machines (the §3.3
/// failure-headroom bound), with a 1-machine minimum.
fn single_tenant_utilization(population: &TenantPopulation) -> UtilizationReport {
    let headroom = RecoveryModel::single_tenant_max_utilization();
    let machines = population
        .tenants
        .iter()
        .map(|t| machines_for(demands(t), headroom) as usize)
        .sum();
    UtilizationReport::new(total_demand(population), machines)
}

/// The 20 % idle reserve every pool keeps (the §7 operating lesson).
const IDLE_RESERVE: f64 = 0.2;
/// Pools are provisioned ahead of demand, so "each tenant can at least double
/// their quota in the short term".
const GROWTH_HEADROOM: f64 = 1.7;

/// Multi-tenant pool: enough machines that the binding aggregate resource fits
/// under `1 − IDLE_RESERVE` of the pool, scaled by `GROWTH_HEADROOM`.
fn multi_tenant_utilization(population: &TenantPopulation) -> UtilizationReport {
    let total = total_demand(population);
    let need = machines_for(total, 1.0 - IDLE_RESERVE);
    let machines = ((need * GROWTH_HEADROOM).ceil() as usize).max(2);
    UtilizationReport::new(total, machines)
}

/// Print the dedicated-vs-pooled utilization table and the §3.3 bounds.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "§6.4",
        "per-machine utilization: dedicated vs pooled deployment",
        "CPU 17%→44%, Memory 52%→63%, Disk 27%→46%",
    );
    let population = TenantPopulation::generate(400, 64);
    let single = single_tenant_utilization(&population);
    let multi = multi_tenant_utilization(&population);
    let row = |resource: &str, single: f64, multi: f64, paper: &str| {
        vec![resource.into(), pct(single), pct(multi), paper.into()]
    };
    let rows = vec![
        row("CPU", single.cpu, multi.cpu, "17% -> 44%"),
        row("Memory", single.memory, multi.memory, "52% -> 63%"),
        row("Disk", single.disk, multi.disk, "27% -> 46%"),
        vec![
            "machines".into(),
            format!("{}", single.machines),
            format!("{}", multi.machines),
            "-".into(),
        ],
    ];
    print_table(
        &[
            "resource",
            "ABase-Pre (dedicated)",
            "ABase (pooled)",
            "paper",
        ],
        &rows,
    );
    println!("\n§3.3 robustness bounds that drive the gap:");
    println!(
        "  single-tenant 3-replica utilization cap: {}",
        pct(RecoveryModel::single_tenant_max_utilization())
    );
    println!(
        "  multi-tenant N-node cap at N=20: {} (load spreads 1/N on failure)",
        pct(RecoveryModel::multi_tenant_max_utilization(20))
    );
    let model = RecoveryModel {
        failed_node_bytes: 2e12,
        per_node_bandwidth: 200e6,
        surviving_nodes: 20,
    };
    println!(
        "  recovery of a 2 TB node: single replacement {}s vs parallel {}s",
        model.single_node_recovery_secs(),
        model.parallel_recovery_secs()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_tenant_beats_single_tenant_on_every_resource() {
        let population = TenantPopulation::generate(300, 5);
        let single = single_tenant_utilization(&population);
        let multi = multi_tenant_utilization(&population);
        assert!(multi.cpu > single.cpu, "{multi:?} vs {single:?}");
        assert!(multi.disk > single.disk, "{multi:?} vs {single:?}");
        assert!(multi.memory > single.memory);
        assert!(multi.machines < single.machines);
    }

    #[test]
    fn single_tenant_cpu_utilization_is_low() {
        // The §6.4 shape: dedicated machines idle most of their CPU.
        let population = TenantPopulation::generate(300, 5);
        let single = single_tenant_utilization(&population);
        assert!(single.cpu < 0.4, "cpu={}", single.cpu);
    }

    #[test]
    fn multi_tenant_respects_idle_reserve() {
        let population = TenantPopulation::generate(300, 5);
        let multi = multi_tenant_utilization(&population);
        // Binding resource utilization stays under the reserve+headroom cap.
        assert!(multi.cpu <= 0.55, "cpu={}", multi.cpu);
        assert!(multi.disk <= 0.55, "disk={}", multi.disk);
    }

    #[test]
    fn reports_are_deterministic() {
        let population = TenantPopulation::generate(100, 9);
        let a = multi_tenant_utilization(&population);
        let b = multi_tenant_utilization(&population);
        assert_eq!(a, b);
    }
}
