//! One run of one workload against a live `abase-server`: set-up, the sat and
//! depth-1 phases, the crash-and-restart check, and the metrics they yield.

use crate::client::{
    on_schedule, Closed, Conn, Driver, PhaseLog, SAT_WINDOW, SCHEDULE_INTERVAL_NS,
    SCHEDULE_WINDOW_NS,
};
use crate::gen::{self, Inputs, OpGen, Workload, CONNS, KEY_LEN};
use crate::scrape::{self, ClientCounts, Scrape};
use crate::server::{self, ScratchDir, Server};
use crate::stats::{median, percentile_sorted};
use crate::Metric;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The server's flush policy, which no workload overrides; printed with
/// every result because every write-side number depends on it.
pub const FLUSH_POLICY: &str =
    "sync_wal=false, group commit 64 KiB / 5 ms, flush_wal tick 100 ms, flush inline, no compaction";

/// Share of `--seconds` the sat phase takes; the depth-1 phase takes the rest.
const SAT_SHARE: f64 = 0.4;
/// Idle time before the crash: three of the server's 100 ms WAL flush ticks.
const QUIESCE: Duration = Duration::from_millis(300);
/// Requests per connection the run line's `wire_hash` covers.
const WIRE_HASH_OPS: usize = 1_000;
/// Keys per connection read back after the restart.
const READ_BACK_KEYS: usize = 1_000;
/// SETs a second, over both connections, that the sat and the depth-1 phase
/// stay under on the sandbox (measured: about 250 k and 130 k).
const MAX_SAT_SETS_PER_S: f64 = 320_000.0;
const MAX_DEPTH1_SETS_PER_S: f64 = 170_000.0;
/// Data-dir bytes per user byte written, as an upper bound (measured: 1.2,
/// SSTs plus the retained WAL segments; nothing compacts).
const DISK_FACTOR: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    /// How often the set-up is done; `setup_s` is the median, and the last
    /// one is the server the phases run against.
    pub setups: usize,
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    /// Hash of the first requests of the op stream: equal seeds, equal hash.
    pub wire_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Data-dir bytes a run of `w` may reach, from the constants alone.
fn projected_dir_bytes(w: &Workload, seconds: f64) -> f64 {
    let set_share = 1.0 - w.get_pct as f64 / 100.0;
    let per_s = SAT_SHARE * MAX_SAT_SETS_PER_S + (1.0 - SAT_SHARE) * MAX_DEPTH1_SETS_PER_S;
    let sets = CONNS as f64 * f64::from(w.records + w.warm_ops) + set_share * seconds * per_s;
    sets * (KEY_LEN + w.value_len) as f64 * DISK_FACTOR
}

/// A server with its data loaded and one warm pass done.
struct Stage<'a> {
    // Declared before `dir`: the server must be dead before its directory goes.
    server: Server,
    dir: ScratchDir,
    drivers: Vec<Driver<'a>>,
    ctl: Conn,
    /// Everything the drivers did so far, set-up included.
    life: PhaseLog,
}

fn on_all<'a>(
    drivers: &mut [Driver<'a>],
    phase: impl Fn(&mut Driver<'a>) -> Result<PhaseLog, String> + Sync,
) -> Result<Vec<PhaseLog>, String> {
    let barrier = Barrier::new(drivers.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| {
                let (barrier, phase) = (&barrier, &phase);
                s.spawn(move || {
                    barrier.wait();
                    phase(d)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect()
    })
}

impl<'a> Stage<'a> {
    fn set_up(bin: &Path, target: &Path, inputs: &'a Inputs) -> Result<Self, String> {
        let w = inputs.workload;
        let dir = ScratchDir::new(target, w.name)?;
        let server = Server::spawn(bin, dir.path(), w.cache_bytes)?;
        let drivers = (0..CONNS)
            .map(|c| {
                let gen = OpGen::new(inputs, c);
                Ok(Driver::new(Conn::connect(&server.addr, gen.tenant)?, gen))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ctl = Conn::connect(&server.addr, 0)?;
        let mut stage = Stage {
            server,
            dir,
            drivers,
            ctl,
            life: PhaseLog::default(),
        };
        stage.run(|d| d.closed_loop(Closed::Load))?;
        stage.run(|d| d.closed_loop(Closed::Ops(u64::from(w.warm_ops))))?;
        Ok(stage)
    }

    /// Run `phase` on every connection at once and add it to the life totals.
    fn run(
        &mut self,
        phase: impl Fn(&mut Driver<'a>) -> Result<PhaseLog, String> + Sync,
    ) -> Result<Vec<PhaseLog>, String> {
        let logs = on_all(&mut self.drivers, phase)?;
        for log in &logs {
            self.life.attempted += log.attempted;
            self.life.failed += log.failed;
            self.life.gets += log.gets;
            self.life.sets += log.sets;
        }
        Ok(logs)
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        let metrics = self.ctl.call(&[b"METRICS"])?;
        let info = self.ctl.call(&[b"INFO", b"keyspace"])?;
        Ok(Scrape::parse(
            &String::from_utf8_lossy(&metrics),
            &String::from_utf8_lossy(&info),
        ))
    }
}

fn sum(logs: &[PhaseLog], field: impl Fn(&PhaseLog) -> u64) -> u64 {
    logs.iter().map(field).sum()
}

fn sorted(mut samples: Vec<u32>) -> Vec<u32> {
    samples.sort_unstable();
    samples
}

fn ns_to_us(ns: Option<u32>) -> f64 {
    f64::from(ns.unwrap_or(0)) / 1e3
}

/// Median over the phase's whole windows of all connections' ops in the
/// window; the phase's overall rate when it is shorter than one window.
fn sat_ops_per_s(logs: &[PhaseLog], duration: Duration, elapsed: Duration) -> f64 {
    let whole = (duration.as_nanos() / SAT_WINDOW.as_nanos()) as usize;
    let per_window: Vec<f64> = (0..whole)
        .map(|w| {
            let ops: u64 = logs
                .iter()
                .map(|l| l.window_ops.get(w).copied().unwrap_or(0))
                .sum();
            ops as f64 / SAT_WINDOW.as_secs_f64()
        })
        .collect();
    if per_window.is_empty() {
        sum(logs, |l| l.attempted) as f64 / elapsed.as_secs_f64()
    } else {
        median(&per_window)
    }
}

/// The depth-1 phase of every connection, laid on the fixed schedule. All
/// sample lists are ascending, in ns.
struct Scheduled {
    /// Latencies of all connections per window of scheduled time, for the
    /// windows every connection filled completely.
    windows: Vec<Vec<u32>>,
    latencies: Vec<u32>,
    /// How long each request waited past its due time before it was sent.
    waits: Vec<u32>,
}

impl Scheduled {
    fn new(depth1: &[PhaseLog]) -> Self {
        let conns: Vec<Vec<Vec<(u32, u32)>>> =
            depth1.iter().map(|l| on_schedule(&l.service_ns)).collect();
        let per_window = (SCHEDULE_WINDOW_NS / SCHEDULE_INTERVAL_NS) as usize;
        let whole = conns
            .iter()
            .map(|c| c.iter().take_while(|w| w.len() == per_window).count())
            .min()
            .unwrap_or(0);
        let latency = |&(_, latency): &(u32, u32)| latency;
        Scheduled {
            windows: (0..whole)
                .map(|w| sorted(conns.iter().flat_map(|c| &c[w]).map(latency).collect()))
                .collect(),
            latencies: sorted(conns.iter().flatten().flatten().map(latency).collect()),
            waits: sorted(
                conns
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|&(wait, _)| wait)
                    .collect(),
            ),
        }
    }

    /// Median over the whole windows of each window's percentile `p`, us;
    /// the percentile of everything when there is no whole window.
    fn percentile_us(&self, p: f64) -> f64 {
        if self.windows.is_empty() {
            return ns_to_us(percentile_sorted(&self.latencies, p));
        }
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| ns_to_us(percentile_sorted(w, p)))
            .collect();
        median(&per_window)
    }
}

pub fn run_workload(
    bin: &Path,
    target: &Path,
    w: Workload,
    opts: RunOptions,
) -> Result<RunResult, String> {
    let projected = projected_dir_bytes(&w, opts.seconds);
    if projected > server::DATA_DIR_CAP_BYTES as f64 {
        return Err(format!(
            "{}: {} s could grow the data dir to {:.0} MB, over the {} MB cap; use fewer --seconds",
            w.name,
            opts.seconds,
            projected / 1e6,
            server::DATA_DIR_CAP_BYTES >> 20
        ));
    }
    let inputs = Inputs::new(w, opts.seed);
    let sat_for = Duration::from_secs_f64(opts.seconds * SAT_SHARE);
    let depth1_for = Duration::from_secs_f64(opts.seconds * (1.0 - SAT_SHARE));

    // Set-up, several times over: each time a fresh server and directory.
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..opts.setups.max(1) {
        drop(stage.take());
        let began = Instant::now();
        stage = Some(Stage::set_up(bin, target, &inputs)?);
        setup_s.push(began.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up ran");
    let pid = stage.server.pid();

    // Sat phase: closed loop at depth 16, all connections at once.
    let before = stage.scrape()?;
    let cpu_before = (
        server::cpu_seconds(&pid.to_string())?,
        server::cpu_seconds("self")?,
    );
    let sat_began = Instant::now();
    let sat = stage.run(|d| d.closed_loop(Closed::For(sat_for)))?;
    let sat_elapsed = sat_began.elapsed();
    let cpu_after = (
        server::cpu_seconds(&pid.to_string())?,
        server::cpu_seconds("self")?,
    );

    // Depth-1 phase: the service times the schedule is laid over.
    let depth1_began = Instant::now();
    let depth1 = stage.run(|d| d.depth1(depth1_for))?;
    let depth1_elapsed = depth1_began.elapsed();
    let after = stage.scrape()?;

    // Crash and restart: everything acknowledged before the quiesce must be
    // readable from what reached the OS.
    std::thread::sleep(QUIESCE);
    server::check_interrupted()?;
    let life_scrape = stage.scrape()?;
    let rss_bytes = server::peak_rss_bytes(pid)?;
    let Stage {
        server,
        dir,
        mut drivers,
        ctl,
        mut life,
    } = stage;
    drop(ctl);
    server.kill();
    let disk_bytes = server::dir_bytes(dir.path());
    let sst_files = server::sst_files(dir.path());
    if disk_bytes > server::DATA_DIR_CAP_BYTES {
        return Err(format!(
            "{}: data dir grew to {disk_bytes} bytes, over the cap",
            w.name
        ));
    }
    let restart_began = Instant::now();
    let server = Server::spawn(bin, dir.path(), w.cache_bytes)?;
    let mut ctl = Conn::connect(&server.addr, 0)?;
    if ctl.call(&[b"PING"])? != b"PONG" {
        return Err("restarted server did not answer PING with PONG".into());
    }
    let restart_ms = restart_began.elapsed().as_secs_f64() * 1e3;
    for d in &mut drivers {
        d.conn = Conn::connect(&server.addr, d.gen.tenant)?;
    }
    let read_back = on_all(&mut drivers, |d| {
        let sample = d.gen.sample_written(READ_BACK_KEYS);
        d.read_back(&sample)
    })?;
    life.attempted += sum(&read_back, |l| l.attempted);
    life.failed += sum(&read_back, |l| l.failed);
    drop(server);

    // End-to-end metrics.
    let record_bytes = (KEY_LEN + w.value_len) as u64;
    let sat_ops = sum(&sat, |l| l.attempted) as f64;
    let life_user_bytes = (life.sets * record_bytes) as f64;
    let scheduled = Scheduled::new(&depth1);
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "ops_per_s",
            sat_ops_per_s(&sat, sat_for, sat_elapsed),
            "1/s",
        ),
        Metric::new(
            "server_cpu_us_per_op",
            (cpu_after.0 - cpu_before.0) * 1e6 / sat_ops,
            "us",
        ),
        Metric::new("p50_us", scheduled.percentile_us(0.50), "us"),
        Metric::new("server_rss_mb", rss_bytes as f64 / 1e6, "MB"),
        Metric::new(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / life_user_bytes,
            "B/B",
        ),
        Metric::new(
            "written_bytes_per_user_byte",
            scrape::written_bytes(&life_scrape) / life_user_bytes,
            "B/B",
        ),
    ];

    // Per-layer metrics from the server's own counters and the client's logs.
    let sets = sum(&sat, |l| l.sets) + sum(&depth1, |l| l.sets);
    let counts = ClientCounts {
        gets: sum(&sat, |l| l.gets) + sum(&depth1, |l| l.gets),
        sets,
        user_bytes_written: sets * record_bytes,
    };
    let mut layers = scrape::layer_metrics(&before, &after, counts);
    let service = sorted(depth1.iter().flat_map(|l| &l.service_ns).copied().collect());
    layers.extend([
        Metric::new("lavastore.sst_files", sst_files as f64, "count"),
        Metric::new("lavastore.restart_ms", restart_ms, "ms"),
        Metric::new("client.p99_us", scheduled.percentile_us(0.99), "us"),
        Metric::new("client.p999_us", scheduled.percentile_us(0.999), "us"),
        Metric::new(
            "client.max_us",
            ns_to_us(scheduled.latencies.last().copied()),
            "us",
        ),
        Metric::new(
            "client.late_p99_us",
            ns_to_us(percentile_sorted(&scheduled.waits, 0.99)),
            "us",
        ),
        Metric::new(
            "client.rtt_p50_us",
            ns_to_us(percentile_sorted(&service, 0.5)),
            "us",
        ),
        Metric::new(
            "client.depth1_per_s",
            service.len() as f64 / depth1_elapsed.as_secs_f64(),
            "1/s",
        ),
        Metric::new(
            "client.cpu_us_per_op",
            (cpu_after.1 - cpu_before.1) * 1e6 / sat_ops,
            "us",
        ),
        Metric::new(
            "client.sat_flight_p50_us",
            ns_to_us(percentile_sorted(
                &sorted(sat.iter().flat_map(|l| &l.flight_ns).copied().collect()),
                0.5,
            )),
            "us",
        ),
    ]);

    Ok(RunResult {
        workload: w.name,
        seed: opts.seed,
        wire_hash: gen::wire_hash(w, opts.seed, WIRE_HASH_OPS),
        attempted: life.attempted,
        failed: life.failed,
        end_to_end,
        layers,
    })
}
