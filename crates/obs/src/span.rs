//! Per-operation span tracing: one [`Span`] per served command, stamped at
//! each pipeline stage so slow operations can say *where* the time went.
//!
//! The stage model is the request pipeline of the RESP server:
//! parse → admission → engine → replication-wait → respond. A span records
//! the elapsed microseconds of each stage it passes through; when the whole
//! operation exceeds the SLOWLOG threshold the per-stage breakdown is
//! captured alongside the command (see [`crate::slowlog`]).

use crate::metric::Histo;
use crate::registry::LazyHistoFamily;
use std::sync::OnceLock;
use std::time::Instant;

/// The stages of one served operation, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// RESP frame decode + command parse.
    Parse = 0,
    /// Admission control: the request pipeline prices the command (§4.1)
    /// and checks its tenant's partition quota (§4.2), refusing it with
    /// `-THROTTLED` when the quota is spent.
    Admission = 1,
    /// Storage-engine execution (lavastore read/write).
    Engine = 2,
    /// Waiting on replication acknowledgements (WAIT / write concern).
    ReplicationWait = 3,
    /// Serializing and writing the RESP reply.
    Respond = 4,
}

/// Number of stages (length of the per-span timing array).
pub const N_STAGES: usize = 5;

/// All stages in pipeline order.
pub const STAGES: [Stage; N_STAGES] = [
    Stage::Parse,
    Stage::Admission,
    Stage::Engine,
    Stage::ReplicationWait,
    Stage::Respond,
];

impl Stage {
    /// Stable lowercase name (metric label, INFO/SLOWLOG field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::Engine => "engine",
            Stage::ReplicationWait => "replication_wait",
            Stage::Respond => "respond",
        }
    }
}

/// Per-stage service latency across all commands, labelled by stage name.
static STAGE_MICROS: LazyHistoFamily = LazyHistoFamily::new(
    "abase_server_stage_micros",
    "stage",
    "Per-stage service latency of the RESP pipeline",
);

/// The five stage histograms, resolved once: `finish()` runs per served
/// command, so the per-label family probes are hoisted out of the hot path.
fn stage_histos() -> &'static [&'static Histo; N_STAGES] {
    static CELL: OnceLock<[&'static Histo; N_STAGES]> = OnceLock::new();
    CELL.get_or_init(|| STAGES.map(|s| STAGE_MICROS.with(s.name())))
}

/// One operation's trace: the elapsed time of each stage, which together
/// span the operation.
///
/// Usage: [`Span::begin`] when the request arrives, [`Span::enter`] at each
/// stage boundary, [`Span::finish`] when the reply is written. Stages may be
/// skipped (a read never waits on replication); skipped stages report 0.
#[derive(Debug)]
pub struct Span {
    stage_started: Instant,
    current: Stage,
    /// Elapsed nanoseconds per stage: whole micros are taken once, in
    /// [`Span::finish`], so sub-µs stages are not rounded away per entry.
    stage_nanos: [u64; N_STAGES],
}

impl Span {
    /// Start a span with the [`Stage::Parse`] stage open.
    #[inline]
    pub fn begin() -> Self {
        Span::begin_at(Instant::now())
    }

    /// [`Span::begin`] at an instant the caller already read: the next
    /// command of a pipelined batch begins where the previous one finished
    /// ([`SpanReport::finished`]), one clock read fewer per command.
    #[inline]
    pub fn begin_at(now: Instant) -> Self {
        Span {
            stage_started: now,
            current: Stage::Parse,
            stage_nanos: [0; N_STAGES],
        }
    }

    /// Close the current stage and open `next`. Re-entering a stage
    /// accumulates into it.
    #[inline]
    pub fn enter(&mut self, next: Stage) {
        let now = Instant::now();
        self.stage_nanos[self.current as usize] +=
            now.duration_since(self.stage_started).as_nanos() as u64;
        self.stage_started = now;
        self.current = next;
    }

    /// Close the span: final stage is stamped, every traversed stage is
    /// recorded into the stage histograms, and the total duration plus the
    /// per-stage breakdown are returned.
    #[inline]
    pub fn finish(mut self) -> SpanReport {
        // Re-entering the open stage stamps it; `stage_started` is then the
        // span's end.
        self.enter(self.current);
        let histos = stage_histos();
        // Each stage gets the whole micros its running total crosses, so
        // the stages add up to the total exactly.
        let mut stage_micros = [0; N_STAGES];
        let (mut nanos, mut total_micros) = (0, 0);
        for stage in STAGES {
            nanos += self.stage_nanos[stage as usize];
            let micros = nanos / 1_000 - total_micros;
            total_micros += micros;
            stage_micros[stage as usize] = micros;
            if micros > 0 {
                histos[stage as usize].record(micros);
            }
        }
        SpanReport {
            total_micros,
            stage_micros,
            finished: self.stage_started,
        }
    }
}

/// The result of a finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanReport {
    /// End-to-end duration.
    pub total_micros: u64,
    /// Elapsed micros per stage, indexed by `Stage as usize`.
    pub stage_micros: [u64; N_STAGES],
    /// When the span finished.
    pub finished: Instant,
}

impl SpanReport {
    /// `(stage-name, micros)` pairs for stages that saw time.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        STAGES
            .iter()
            .map(|&s| (s.name(), self.stage_micros[s as usize]))
            .filter(|&(_, us)| us > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_stage_times() {
        let mut span = Span::begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.enter(Stage::Engine);
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.enter(Stage::Respond);
        let report = span.finish();
        assert!(report.total_micros >= 4000, "total={}", report.total_micros);
        assert!(report.stage_micros[Stage::Parse as usize] >= 2000);
        assert!(report.stage_micros[Stage::Engine as usize] >= 2000);
        // Admission and replication-wait were skipped entirely.
        assert_eq!(report.stage_micros[Stage::Admission as usize], 0);
        assert_eq!(report.stage_micros[Stage::ReplicationWait as usize], 0);
        let stages: Vec<_> = report.stages().collect();
        assert!(stages.iter().any(|&(name, _)| name == "parse"));
        assert!(!stages.iter().any(|&(name, _)| name == "admission"));
    }

    #[test]
    fn sub_microsecond_stages_add_up_to_the_total() {
        // Each stage lasts a clock read, far below a microsecond.
        let mut span = Span::begin();
        for i in 0..20_000 {
            span.enter([Stage::Engine, Stage::Respond][i % 2]);
        }
        let report = span.finish();
        let sum: u64 = report.stage_micros.iter().sum();
        assert!(report.total_micros > 1, "total={}", report.total_micros);
        assert!(
            sum.abs_diff(report.total_micros) <= 1,
            "stages sum to {sum} us of a {} us total",
            report.total_micros
        );
    }

    #[test]
    fn reentering_a_stage_accumulates() {
        let mut span = Span::begin();
        span.enter(Stage::Engine);
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.enter(Stage::ReplicationWait);
        span.enter(Stage::Engine);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let report = span.finish();
        assert!(report.stage_micros[Stage::Engine as usize] >= 2000);
    }
}
