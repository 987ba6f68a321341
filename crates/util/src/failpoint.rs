//! Deterministic fail points for chaos testing.
//!
//! A fail point is a named site in production code (`wal.append`,
//! `binlog.poll`, …) that consults a process-global [`FaultInjector`] before
//! doing its work. In normal operation the injector is disabled and the check
//! is a single relaxed atomic load — the hot paths pay nothing. A chaos
//! harness (see `abase-chaos`) enables the injector and installs [`FaultRule`]s
//! from a seeded RNG: fail this append, tear that WAL tail at a byte offset,
//! stall a follower's pump, force a binlog gap, delay an fsync. Because every
//! rule is installed by the single-threaded chaos driver and consumed at
//! deterministic points, a failing episode replays exactly from its seed.
//!
//! The design follows the `fail`-crate / FoundationDB style of *explicit*
//! fail points rather than syscall interception: each site names the fault it
//! can suffer, which doubles as documentation of the crash surface.
//!
//! ```
//! use abase_util::failpoint::{self, FaultAction};
//!
//! let _guard = failpoint::ScopedInjector::enable();
//! failpoint::install("doc.example", Some("ctx-a"), FaultAction::Error, 0, 1);
//! assert_eq!(failpoint::check("doc.example", "ctx-b"), None); // matcher miss
//! assert_eq!(
//!     failpoint::check("doc.example", "some ctx-a path"),
//!     Some(FaultAction::Error)
//! );
//! assert_eq!(failpoint::check("doc.example", "some ctx-a path"), None); // spent
//! ```

use crate::lockrank::{rank, RankedMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// What a triggered fail point should do. Interpretation is site-specific;
/// sites ignore actions that make no sense for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected I/O error from the site.
    Error,
    /// Write only `keep_bytes` of the frame being appended, flush what was
    /// written, then fail — a crash mid-append leaving a torn tail at an
    /// arbitrary byte offset. The site stays poisoned afterwards (the
    /// "process" died; only reopening recovers).
    TornWrite {
        /// Bytes of the frame that reach the file before the tear.
        keep_bytes: u64,
    },
    /// Sleep for this many milliseconds before proceeding normally
    /// (delayed fsync / slow disk).
    DelayMs(u64),
    /// Report no progress: a pump/poll site returns empty-handed without
    /// advancing its cursor (a stalled follower).
    Stall,
    /// Force a binlog gap: the tailing cursor pretends its segment was
    /// rotated away, pushing the follower into a full resync.
    Gap,
    /// Discard an outbound replication frame after the sender's cursor
    /// advanced — the receiver sees a hole in the LSN stream and must detect
    /// it (and full-resync) rather than silently diverge.
    Drop,
    /// Send an outbound replication frame twice; at-least-once delivery, so
    /// the receiver's apply path must dedup.
    Duplicate,
    /// Hold an outbound replication frame and send it *after* the next one —
    /// out-of-order delivery the receiver must detect as a gap.
    Reorder,
    /// Sever the connection at this site (network partition): the socket is
    /// shut down and the peer must reconnect and resume via its cursor.
    Disconnect,
}

/// One installed rule: fires `count` times at `point` (after skipping the
/// first `skip` matching hits) whenever `matcher` is a substring of the
/// site's context string.
#[derive(Debug, Clone)]
struct FaultRule {
    matcher: Option<String>,
    action: FaultAction,
    /// Matching hits to let through before firing.
    skip: u32,
    /// Remaining firings; 0 = exhausted.
    remaining: u32,
}

/// The process-global fail-point registry.
///
/// The two lock ranks are the innermost in the workspace: `check` is called
/// while WAL/stripe/group locks are held, so these must outrank all of them.
#[derive(Debug)]
pub struct FaultInjector {
    enabled: AtomicBool,
    rules: RankedMutex<HashMap<&'static str, Vec<FaultRule>>>,
    /// Total fired faults per point, for harness assertions.
    fired: RankedMutex<HashMap<&'static str, u64>>,
}

fn injector() -> &'static FaultInjector {
    static INJECTOR: OnceLock<FaultInjector> = OnceLock::new();
    INJECTOR.get_or_init(|| FaultInjector {
        enabled: AtomicBool::new(false),
        rules: RankedMutex::new(rank::FAILPOINT_RULES, HashMap::new()),
        fired: RankedMutex::new(rank::FAILPOINT_FIRED, HashMap::new()),
    })
}

impl FaultInjector {
    /// Is fault injection active at all?
    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// Is injection currently enabled? Sites whose context string is expensive to
/// build can guard on this before calling [`check`].
pub fn enabled() -> bool {
    injector().is_enabled()
}

/// Turn the injector on (rules start being consulted).
pub fn enable() {
    // Relaxed on purpose (downgraded from SeqCst): rule visibility is
    // carried by the `rules` mutex, not this flag — a site that reads the
    // flag early simply skips one check, which injection never precludes.
    injector().enabled.store(true, Ordering::Relaxed);
}

/// Turn the injector off and drop every rule and counter.
pub fn disable() {
    let inj = injector();
    // Relaxed on purpose: see `enable` — the rules mutex carries the sync.
    inj.enabled.store(false, Ordering::Relaxed);
    inj.rules.lock().clear();
    inj.fired.lock().clear();
}

/// Drop all rules and counters but keep the injector enabled.
pub fn clear() {
    let inj = injector();
    inj.rules.lock().clear();
    inj.fired.lock().clear();
}

/// Install a rule at `point`: fire `action` on up to `count` hits whose
/// context contains `matcher` (any context when `None`), ignoring the first
/// `skip` matching hits.
pub fn install(
    point: &'static str,
    matcher: Option<&str>,
    action: FaultAction,
    skip: u32,
    count: u32,
) {
    injector()
        .rules
        .lock()
        .entry(point)
        .or_default()
        .push(FaultRule {
            matcher: matcher.map(str::to_string),
            action,
            skip,
            remaining: count,
        });
}

/// Consult the injector at a fail-point site. Returns the action to take, or
/// `None` (the overwhelmingly common case) to proceed normally.
pub fn check(point: &'static str, context: &str) -> Option<FaultAction> {
    let inj = injector();
    if !inj.is_enabled() {
        return None;
    }
    let mut rules = inj.rules.lock();
    let list = rules.get_mut(point)?;
    for rule in list.iter_mut() {
        let matches = rule
            .matcher
            .as_deref()
            .is_none_or(|needle| context.contains(needle));
        if !matches || rule.remaining == 0 {
            continue;
        }
        if rule.skip > 0 {
            rule.skip -= 1;
            continue;
        }
        rule.remaining -= 1;
        let action = rule.action;
        drop(rules);
        *inj.fired.lock().entry(point).or_default() += 1;
        if let FaultAction::DelayMs(ms) = action {
            std::thread::sleep(Duration::from_millis(ms));
        }
        return Some(action);
    }
    None
}

/// How many faults have fired at `point` since the last [`clear`]/[`disable`].
pub fn fired(point: &'static str) -> u64 {
    injector().fired.lock().get(point).copied().unwrap_or(0)
}

/// Every point that has fired since the last [`clear`]/[`disable`], with its
/// count, sorted by point name. This is the attribution feed for chaos
/// reports ("which injected faults actually fired this episode") and the
/// metrics registry's `failpoint_fired_total` family.
pub fn fired_counts() -> Vec<(&'static str, u64)> {
    let mut counts: Vec<(&'static str, u64)> = injector()
        .fired
        .lock()
        .iter()
        .map(|(&point, &n)| (point, n))
        .collect();
    counts.sort_unstable_by_key(|&(point, _)| point);
    counts
}

/// RAII enable/disable, for tests that must not leak rules into neighbours.
/// The registry is process-global, so tests using it must serialize (the
/// chaos harness runs episodes sequentially for exactly this reason).
#[derive(Debug)]
pub struct ScopedInjector(());

impl ScopedInjector {
    /// Enable injection until the guard drops.
    pub fn enable() -> Self {
        enable();
        Self(())
    }
}

impl Drop for ScopedInjector {
    fn drop(&mut self) {
        disable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the global injector; one test exercises every behaviour
    // so parallel test threads never race on the registry.
    #[test]
    fn rules_match_count_skip_and_clear() {
        let _guard = ScopedInjector::enable();
        // Count + matcher.
        install("t.point", Some("wal-7"), FaultAction::Error, 0, 2);
        assert_eq!(check("t.point", "/data/wal-9.log"), None);
        assert_eq!(
            check("t.point", "/data/wal-7.log"),
            Some(FaultAction::Error)
        );
        assert_eq!(
            check("t.point", "/data/wal-7.log"),
            Some(FaultAction::Error)
        );
        assert_eq!(check("t.point", "/data/wal-7.log"), None, "count spent");
        assert_eq!(fired("t.point"), 2);
        // Skip lets early hits through.
        install("t.skip", None, FaultAction::Stall, 2, 1);
        assert_eq!(check("t.skip", "x"), None);
        assert_eq!(check("t.skip", "x"), None);
        assert_eq!(check("t.skip", "x"), Some(FaultAction::Stall));
        assert_eq!(check("t.skip", "x"), None);
        // Unknown points are silent.
        assert_eq!(check("t.unknown", "x"), None);
        // Clear keeps the injector armed but forgets rules.
        install("t.cleared", None, FaultAction::Gap, 0, 1);
        clear();
        assert_eq!(check("t.cleared", "x"), None);
        assert_eq!(fired("t.point"), 0);
        // Disabled: rules are never consulted.
        disable();
        install("t.off", None, FaultAction::Error, 0, 1);
        assert_eq!(check("t.off", "x"), None);
    }
}
