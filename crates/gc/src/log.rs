//! The GC event log — the simulated `-verbose:gc`.

use std::fmt;
use std::fmt::Write as _;

use scalesim_metrics::Summary;
use scalesim_simkit::{SimDuration, SimTime};

/// Kind of collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcKind {
    /// Stop-the-world copying collection of one nursery region.
    Minor,
    /// Thread-local copying collection of one heaplet (compartmentalized
    /// heap mode): only the owning thread pauses.
    LocalMinor,
    /// Mark-compact collection of the mature space.
    Full,
    /// A mostly-concurrent old-generation cycle: the recorded pause is
    /// only the stop-the-world part (initial mark + remark); marking and
    /// sweeping ran concurrently on a background thread.
    ConcurrentOld,
}

/// One stop-the-world collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GcEvent {
    /// Minor or full.
    pub kind: GcKind,
    /// When the pause began (pre-shift simulated time).
    pub at: SimTime,
    /// Pause duration.
    pub pause: SimDuration,
    /// Nursery region collected (minor only; 0 for full collections).
    pub region: usize,
    /// Bytes reclaimed.
    pub collected_bytes: u64,
    /// Bytes that survived (copied or kept live).
    pub survived_bytes: u64,
    /// Bytes promoted to the mature space (minor only).
    pub promoted_bytes: u64,
}

/// Append-only log of every collection in a run.
///
/// # Examples
///
/// ```
/// use scalesim_gc::{GcEvent, GcKind, GcLog};
/// use scalesim_simkit::{SimDuration, SimTime};
///
/// let mut log = GcLog::new();
/// log.push(GcEvent {
///     kind: GcKind::Minor, at: SimTime::ZERO, pause: SimDuration::from_millis(3),
///     region: 0, collected_bytes: 900, survived_bytes: 100, promoted_bytes: 0,
/// });
/// assert_eq!(log.collections(), 1);
/// assert_eq!(log.total_pause(), SimDuration::from_millis(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct GcLog {
    events: Vec<GcEvent>,
}

impl GcLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        GcLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: GcEvent) {
        self.events.push(event);
    }

    /// All events, in time order.
    #[must_use]
    pub fn events(&self) -> &[GcEvent] {
        &self.events
    }

    /// Total number of collections.
    #[must_use]
    pub fn collections(&self) -> usize {
        self.events.len()
    }

    /// Number of collections of one kind.
    #[must_use]
    pub fn count(&self, kind: GcKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Sum of all pauses (the run's **GC time** in the paper's
    /// mutator/GC decomposition).
    #[must_use]
    pub fn total_pause(&self) -> SimDuration {
        self.events.iter().map(|e| e.pause).sum()
    }

    /// Sum of pauses of one kind.
    #[must_use]
    pub fn pause_of(&self, kind: GcKind) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.pause)
            .sum()
    }

    /// Summary statistics over pause durations (seconds), or `None` when
    /// no collections ran. Use for pause percentiles in reports.
    #[must_use]
    pub fn pause_summary(&self) -> Option<Summary> {
        if self.events.is_empty() {
            return None;
        }
        let secs: Vec<f64> = self.events.iter().map(|e| e.pause.as_secs_f64()).collect();
        Some(Summary::from_samples(&secs))
    }

    /// Renders the log in a `-verbose:gc`-style text form, one line per
    /// collection:
    ///
    /// ```text
    /// [GC (Allocation Failure) region0 921600B->102400B, 0.003122s]
    /// [Full GC 1048576B->524288B, 0.010000s]
    /// ```
    #[must_use]
    pub fn to_verbose_gc(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let before = e.survived_bytes + e.collected_bytes;
            match e.kind {
                GcKind::Minor => writeln!(
                    out,
                    "[GC (Allocation Failure) region{} {}B->{}B, {:.6}s]",
                    e.region,
                    before,
                    e.survived_bytes,
                    e.pause.as_secs_f64()
                ),
                GcKind::LocalMinor => writeln!(
                    out,
                    "[GC (Local, Allocation Failure) region{} {}B->{}B, {:.6}s]",
                    e.region,
                    before,
                    e.survived_bytes,
                    e.pause.as_secs_f64()
                ),
                GcKind::Full => writeln!(
                    out,
                    "[Full GC {}B->{}B, {:.6}s]",
                    before,
                    e.survived_bytes,
                    e.pause.as_secs_f64()
                ),
                GcKind::ConcurrentOld => writeln!(
                    out,
                    "[Concurrent old gen {}B->{}B, stw {:.6}s]",
                    before,
                    e.survived_bytes,
                    e.pause.as_secs_f64()
                ),
            }
            .expect("string write");
        }
        out
    }

    /// The longest single pause, or zero when no collections ran.
    #[must_use]
    pub fn max_pause(&self) -> SimDuration {
        self.events
            .iter()
            .map(|e| e.pause)
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Total bytes promoted to the mature generation.
    #[must_use]
    pub fn promoted_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.promoted_bytes).sum()
    }

    /// Total bytes that survived collections.
    #[must_use]
    pub fn survived_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.survived_bytes).sum()
    }

    /// Total bytes reclaimed.
    #[must_use]
    pub fn collected_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.collected_bytes).sum()
    }

    /// Mean nursery survival rate across (local or global) minor
    /// collections (`survived / (survived + collected)`), or `None`
    /// without minors.
    #[must_use]
    pub fn minor_survival_rate(&self) -> Option<f64> {
        let (mut survived, mut total) = (0u64, 0u64);
        for e in self
            .events
            .iter()
            .filter(|e| matches!(e.kind, GcKind::Minor | GcKind::LocalMinor))
        {
            survived += e.survived_bytes;
            total += e.survived_bytes + e.collected_bytes;
        }
        (total > 0).then(|| survived as f64 / total as f64)
    }
}

impl fmt::Display for GcLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: {} minor + {} local + {} full, total pause {}",
            self.count(GcKind::Minor),
            self.count(GcKind::LocalMinor),
            self.count(GcKind::Full),
            self.total_pause()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: GcKind, pause_ms: u64, collected: u64, survived: u64, promoted: u64) -> GcEvent {
        GcEvent {
            kind,
            at: SimTime::ZERO,
            pause: SimDuration::from_millis(pause_ms),
            region: 0,
            collected_bytes: collected,
            survived_bytes: survived,
            promoted_bytes: promoted,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut log = GcLog::new();
        log.push(ev(GcKind::Minor, 2, 900, 100, 40));
        log.push(ev(GcKind::Minor, 3, 800, 200, 0));
        log.push(ev(GcKind::Full, 10, 500, 300, 0));
        assert_eq!(log.collections(), 3);
        assert_eq!(log.count(GcKind::Minor), 2);
        assert_eq!(log.count(GcKind::Full), 1);
        assert_eq!(log.total_pause(), SimDuration::from_millis(15));
        assert_eq!(log.pause_of(GcKind::Full), SimDuration::from_millis(10));
        assert_eq!(log.promoted_bytes(), 40);
        assert_eq!(log.max_pause(), SimDuration::from_millis(10));
        assert_eq!(log.collected_bytes(), 2200);
        assert_eq!(log.survived_bytes(), 600);
    }

    #[test]
    fn survival_rate_over_minors_only() {
        let mut log = GcLog::new();
        assert_eq!(log.minor_survival_rate(), None);
        log.push(ev(GcKind::Minor, 1, 900, 100, 0));
        log.push(ev(GcKind::Full, 1, 0, 12345, 0)); // ignored
        assert!((log.minor_survival_rate().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pause_summary_gives_percentiles() {
        let mut log = GcLog::new();
        assert!(log.pause_summary().is_none());
        for ms_n in [1u64, 2, 3, 4] {
            log.push(ev(GcKind::Minor, ms_n, 0, 0, 0));
        }
        let s = log.pause_summary().unwrap();
        assert!((s.mean() - 0.0025).abs() < 1e-9);
        assert!((s.percentile(100.0) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn verbose_gc_lines_match_kinds() {
        let mut log = GcLog::new();
        log.push(ev(GcKind::Minor, 3, 900, 100, 0));
        log.push(ev(GcKind::LocalMinor, 1, 90, 10, 0));
        log.push(ev(GcKind::Full, 10, 500, 300, 0));
        let text = log.to_verbose_gc();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("[GC (Allocation Failure) region0 1000B->100B"));
        assert!(lines[1].contains("(Local"));
        assert!(lines[2].starts_with("[Full GC 800B->300B"));
    }

    #[test]
    fn display_counts_kinds() {
        let mut log = GcLog::new();
        log.push(ev(GcKind::Minor, 1, 1, 0, 0));
        assert!(log.to_string().contains("1 minor + 0 local + 0 full"));
    }
}
