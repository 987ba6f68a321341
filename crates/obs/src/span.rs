//! Per-operation span tracing: one [`Span`] per served command, stamped at
//! each pipeline stage so slow operations can say *where* the time went.
//!
//! The stage model is the request pipeline of the RESP server:
//! parse → admission → engine → replication-wait → respond. A span records
//! the elapsed time of each stage it passes through, in nanoseconds, into
//! `abase_server_stage_micros`; when the whole operation exceeds the SLOWLOG
//! threshold the per-stage breakdown is captured alongside the command (see
//! [`crate::slowlog`]).

use crate::metric::Histo;
use crate::registry::LazyHistoFamily;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
    /// Elapsed time per stage, indexed by `Stage as usize`.
    stage: [Duration; N_STAGES],
    /// Bit `Stage as usize` is set once the stage has been entered.
    traversed: u8,
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
            stage: [Duration::ZERO; N_STAGES],
            traversed: 1 << Stage::Parse as u8,
        }
    }

    /// Close the current stage and open `next`. Re-entering a stage
    /// accumulates into it.
    #[inline]
    pub fn enter(&mut self, next: Stage) {
        let now = Instant::now();
        self.stage[self.current as usize] += now.duration_since(self.stage_started);
        self.stage_started = now;
        self.current = next;
        self.traversed |= 1 << next as u8;
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
        for stage in STAGES {
            if self.traversed & (1 << stage as u8) != 0 {
                histos[stage as usize].record_duration(self.stage[stage as usize]);
            }
        }
        SpanReport {
            total: self.stage.iter().sum(),
            stage: self.stage,
            finished: self.stage_started,
        }
    }
}

/// The result of a finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanReport {
    /// End-to-end duration: the sum of the stages.
    pub total: Duration,
    /// Elapsed time per stage, indexed by `Stage as usize`.
    pub stage: [Duration; N_STAGES],
    /// When the span finished.
    pub finished: Instant,
}

impl SpanReport {
    /// `(stage-name, micros)` pairs for stages that saw time, in whole
    /// micros. Each stage gets the whole micros its running total crosses,
    /// so the stages add up to `total`'s whole micros exactly, however many
    /// sub-µs stages the operation passed through.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let (mut nanos, mut micros) = (0, 0);
        STAGES
            .iter()
            .map(move |&s| {
                nanos += self.stage[s as usize].as_nanos();
                let crossed = (nanos / 1_000) as u64 - micros;
                micros += crossed;
                (s.name(), crossed)
            })
            .filter(|&(_, us)| us > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micros(report: &SpanReport, stage: Stage) -> u128 {
        report.stage[stage as usize].as_micros()
    }

    #[test]
    fn span_accumulates_stage_times() {
        let mut span = Span::begin();
        std::thread::sleep(Duration::from_millis(2));
        span.enter(Stage::Engine);
        std::thread::sleep(Duration::from_millis(2));
        span.enter(Stage::Respond);
        let report = span.finish();
        assert!(report.total >= Duration::from_millis(4), "{report:?}");
        assert!(micros(&report, Stage::Parse) >= 2000);
        assert!(micros(&report, Stage::Engine) >= 2000);
        // Admission and replication-wait were skipped entirely.
        assert_eq!(report.stage[Stage::Admission as usize], Duration::ZERO);
        assert_eq!(
            report.stage[Stage::ReplicationWait as usize],
            Duration::ZERO
        );
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
        let total = report.total.as_micros() as u64;
        let sum: u64 = report.stages().map(|(_, us)| us).sum();
        assert!(total > 1, "total={total}");
        assert_eq!(sum, total, "stages sum to {sum} us of a {total} us total");
    }

    #[test]
    fn reentering_a_stage_accumulates() {
        let mut span = Span::begin();
        span.enter(Stage::Engine);
        std::thread::sleep(Duration::from_millis(1));
        span.enter(Stage::ReplicationWait);
        span.enter(Stage::Engine);
        std::thread::sleep(Duration::from_millis(1));
        let report = span.finish();
        assert!(micros(&report, Stage::Engine) >= 2000);
    }

    #[test]
    fn every_traversed_stage_of_a_sub_microsecond_span_is_counted() {
        // Other tests in this binary finish spans too, so count deltas; the
        // span below is the only one this thread finishes, and the counts
        // only grow.
        let before = stage_histos().map(|h| h.count());
        let mut span = Span::begin();
        span.enter(Stage::Admission);
        span.enter(Stage::Engine);
        span.enter(Stage::Respond);
        span.finish();
        let after = stage_histos().map(|h| h.count());
        for stage in [
            Stage::Parse,
            Stage::Admission,
            Stage::Engine,
            Stage::Respond,
        ] {
            assert!(
                after[stage as usize] > before[stage as usize],
                "stage {} not counted",
                stage.name()
            );
        }
    }
}
