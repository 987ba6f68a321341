//! One module per table, figure and ablation of the evaluation, each with
//! `pub fn run(smoke: bool) -> Result<(), String>`: it prints its report and
//! returns `Err` naming the first fact about its results that does not hold.
//! `smoke` shrinks the workload of the five that have a smoke size.

macro_rules! experiments {
    ($($name:ident),+ $(,)?) => {
        $(pub mod $name;)+

        /// Every experiment under its module's name, in the order `repro`
        /// lists them.
        pub const ALL: &[(&str, fn(bool) -> Result<(), String>)] =
            &[$((stringify!($name), $name::run)),+];
    };
}

experiments![
    fig03_tenant_distribution,
    fig04_tenant_percentiles,
    fig05_dynamism,
    fig06_proxy_quota,
    fig07_partition_wfq,
    fig08a_scaling_case,
    fig08b_oncall,
    fig09_rescheduling_offline,
    fig10_rescheduling_online,
    table1_workloads,
    table2_proxy_cache,
    util_single_vs_multi,
    ablation_aulru,
    ablation_fanout,
    ablation_forecast,
    ablation_migration,
    ablation_replication,
    ablation_salru,
    ablation_wfq_classes,
    conn_scaling,
    write_throughput,
    ycsb,
];
