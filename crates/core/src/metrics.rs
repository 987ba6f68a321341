//! Core-layer metric declarations: RESP serving, the event loop, per-tenant
//! RU and rejections, and the serving node's tick. Recording sites live in
//! `server.rs`, `conn.rs`, `event_loop.rs` and `serving.rs`; this module
//! only owns the handles.

use abase_obs::{LazyCounterFamily, LazyGauge, LazyGaugeFamily, LazyHisto, LazyHistoFamily};

// --- RESP serving -----------------------------------------------------------

/// Live client connections on the RESP server.
pub static CONNECTIONS: LazyGauge = LazyGauge::new(
    "abase_server_connections",
    "Live client connections on the RESP server",
);

// --- Event-loop front end ---------------------------------------------------

/// Open connections, by event-loop worker (`accept` while still unassigned).
pub static CONN_OPEN: LazyGaugeFamily = LazyGaugeFamily::new(
    "abase_conn_open",
    "worker",
    "Open connections, by event-loop worker",
);

/// Connections accepted, by the event-loop worker they were sharded to.
pub static CONN_ACCEPTED: LazyCounterFamily = LazyCounterFamily::new(
    "abase_conn_accepted_total",
    "worker",
    "Connections accepted, by event-loop worker",
);

/// Connections evicted (idle reaper per worker; `accept` = refused at the
/// max-clients cap).
pub static CONN_EVICTED: LazyCounterFamily = LazyCounterFamily::new(
    "abase_conn_evicted_total",
    "worker",
    "Connections evicted by the idle reaper (per worker) or refused at the max-clients cap (`accept`)",
);

/// Commands executed per drained pipeline batch (one readable event = one
/// batch = one write).
pub static PIPELINE_BATCH: LazyHisto = LazyHisto::new(
    "abase_pipeline_batch_commands",
    "Commands executed per drained pipeline batch",
);

/// Commands served, by command name.
pub static COMMANDS: LazyCounterFamily = LazyCounterFamily::new(
    "abase_server_commands_total",
    "command",
    "Commands served, by command name",
);

/// Commands answered with an error, by command name.
pub static COMMAND_ERRORS: LazyCounterFamily = LazyCounterFamily::new(
    "abase_server_command_errors_total",
    "command",
    "Commands answered with an error, by command name",
);

/// End-to-end command service latency, by command name.
pub static COMMAND_MICROS: LazyHistoFamily = LazyHistoFamily::new(
    "abase_server_command_micros",
    "command",
    "End-to-end command service latency, by command name",
);

/// Read RUs charged (§4.1: bytes returned, discounted on a cache hit), by
/// tenant, in whole RUs.
pub static TENANT_READ_RU: LazyCounterFamily = LazyCounterFamily::new(
    "abase_tenant_read_ru_total",
    "tenant",
    "Read request units charged (whole RUs), by tenant",
);

/// Write RUs charged (§4.1: payload times copies), by tenant, in whole RUs.
pub static TENANT_WRITE_RU: LazyCounterFamily = LazyCounterFamily::new(
    "abase_tenant_write_ru_total",
    "tenant",
    "Write request units charged (whole RUs), by tenant",
);

/// Commands refused by the tenant's partition quota (§4.2), by tenant.
pub static TENANT_REJECTED: LazyCounterFamily = LazyCounterFamily::new(
    "abase_tenant_rejected_total",
    "tenant",
    "Commands refused by the tenant's partition quota, by tenant",
);

// --- Serving node -----------------------------------------------------------

/// Failed housekeeping-tick steps (`flush_wal`, `group_tick`) and follower
/// pump passes (`follower_pump`).
pub static TICK_ERRORS: LazyCounterFamily = LazyCounterFamily::new(
    "abase_node_tick_errors_total",
    "kind",
    "Failed housekeeping-tick steps, by kind",
);

/// WAIT fence latency on the serving path (replication-wait stage).
pub static WAIT_MICROS: LazyHisto = LazyHisto::new(
    "abase_server_wait_micros",
    "WAIT replication-fence latency on the serving path",
);
