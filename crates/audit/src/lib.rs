//! # scalesim-audit
//!
//! Offline concurrency auditor over the deterministic timelines recorded by
//! [`scalesim-trace`](scalesim_trace). Where the inline invariant monitors
//! (PR 2) catch *local* protocol violations as they happen, this crate is
//! the post-hoc analysis pass: it consumes a finished run's merged
//! [`Timeline`] and [`Counters`] and checks that the recorded schedule is
//! globally consistent with the concurrency semantics the simulator models.
//!
//! Three checks, in the spirit of dynamic lock-order and vector-clock
//! analyses:
//!
//! * [`Check::LockOrder`] — builds a **lock-order graph** from nested
//!   monitor hold spans (an edge `A → B` whenever some thread acquired `B`
//!   while holding `A`) and reports every cycle as a potential deadlock,
//!   with the owning thread and sim-time of the first offending nested
//!   acquisition.
//! * [`Check::WaitPairing`] — audits **wait/notify pairing**: every
//!   [`MonitorEnqueue`](scalesim_trace::EventKind::MonitorEnqueue) instant
//!   must be closed by a matching
//!   [`MonitorWait`](scalesim_trace::EventKind::MonitorWait) span, and
//!   every granted waiter must actually resume. Dangling waits are flagged
//!   as lost wakeups with owner attribution. Findings are cross-validated
//!   against the chaos instants in the same timeline, so an *injected*
//!   dropped wakeup is an **expected** finding, not a false positive.
//! * [`Check::HappensBefore`] — replays the schedule's **happens-before
//!   order** with per-thread logical clocks joined over monitor handoff
//!   edges — the FastTrack-style epoch form of vector-clock replay —
//!   (mutual exclusion per monitor, no grant before the matching release)
//!   and verifies the counters registry,
//!   safepoint spans and heap-epoch samples are consistent with the
//!   recorded ordering (e.g. every stop-the-world pause is explained by a
//!   GC span plus any injected stall, and the
//!   [`LockContentions`](scalesim_trace::CounterId::LockContentions)
//!   counter equals the number of recorded enqueues).
//!
//! On a finding, the **divergence bisector** ([`divergence`]) delta-debugs
//! the event stream: it binary-searches for the shortest timeline prefix
//! that still reproduces the finding, so the *first divergent event* can be
//! named in a repro artifact.
//!
//! The auditor is pure (no I/O, no simulation): `audit(&timeline,
//! &counters, aborted)` is a deterministic function of its inputs, so
//! finding fingerprints are stable across runs and hosts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bisect;
mod consistency;
mod lockgraph;
mod pairing;

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use scalesim_simkit::SimTime;
use scalesim_trace::{Counters, EventKind, Timeline, TimelineEvent};

pub use bisect::divergence;

/// Which offline analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// Lock-order graph cycle detection over nested hold spans.
    LockOrder,
    /// Wait/notify pairing audit over enqueue instants and wait spans.
    WaitPairing,
    /// Happens-before replay: handoff ordering, safepoint reconciliation,
    /// counter and heap-sample consistency.
    HappensBefore,
}

impl Check {
    /// Stable name used in reports, fingerprints and repro artifacts.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Check::LockOrder => "lock-order",
            Check::WaitPairing => "wait-pairing",
            Check::HappensBefore => "happens-before",
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One audit finding: a place where the recorded schedule is inconsistent
/// with (or, for injected faults, deliberately deviates from) the modelled
/// concurrency semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The analysis that produced the finding.
    pub check: Check,
    /// Stable finding class (e.g. `"lost-wakeup"`, `"lock-cycle"`,
    /// `"gc-stall"`); part of the fingerprint.
    pub class: &'static str,
    /// Human-readable explanation with the concrete evidence.
    pub detail: String,
    /// Sim-time the finding anchors to (first evidence event).
    pub at: SimTime,
    /// Track (monitor index, thread index or GC region) of the evidence.
    pub track: u32,
    /// Attributed thread index, when the finding names one.
    pub thread: Option<u64>,
    /// `true` when the finding is explained by an injected chaos fault (or
    /// by the run having aborted): an expected detection, not a bug.
    pub expected: bool,
}

impl Finding {
    /// Deterministic fingerprint over the finding's stable coordinates
    /// (check, class, track, thread, sim-time). Uses `DefaultHasher::new()`
    /// — fixed keys, same convention as the sweep memo keys — so the value
    /// is reproducible across runs and processes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.check.name().hash(&mut h);
        self.class.hash(&mut h);
        self.track.hash(&mut h);
        self.thread.hash(&mut h);
        self.at.as_nanos().hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] at={}ns track={}",
            self.check,
            self.class,
            self.at.as_nanos(),
            self.track
        )?;
        if let Some(t) = self.thread {
            write!(f, " thread={t}")?;
        }
        let tag = if self.expected {
            "expected"
        } else {
            "UNEXPECTED"
        };
        write!(f, " ({tag}): {}", self.detail)
    }
}

/// The result of auditing one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Every finding, sorted by sim-time then coordinates, deduplicated by
    /// fingerprint.
    pub findings: Vec<Finding>,
    /// How many timeline events the pass scanned.
    pub events_scanned: usize,
    /// Whether the timeline was complete (recorder enabled, ring never
    /// dropped). Counter equalities and pairing-completeness checks only
    /// run on complete timelines.
    pub complete: bool,
    /// Index (into the scanned event stream) of the first divergent event
    /// for the first finding, as located by the bisector.
    pub divergence: Option<usize>,
}

impl AuditReport {
    /// `true` when the audit produced no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings *not* explained by an injected fault or an abort — the
    /// ones that indicate a real simulator bug.
    #[must_use]
    pub fn unexpected(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.expected).collect()
    }

    /// Number of findings explained by injected chaos faults.
    #[must_use]
    pub fn expected_count(&self) -> usize {
        self.findings.iter().filter(|f| f.expected).count()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} finding(s) over {} event(s){}",
            self.findings.len(),
            self.events_scanned,
            if self.complete {
                ""
            } else {
                " [incomplete timeline]"
            }
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        if let Some(i) = self.divergence {
            writeln!(f, "  first divergent event: #{i}")?;
        }
        Ok(())
    }
}

/// Minimal Fx-style hasher for the auditor's internal maps and sets.
///
/// The checks build membership sets and per-thread indexes keyed by small
/// integers for thousands of hold spans; SipHash (the std default)
/// dominated the audit's runtime. This is the classic rustc `FxHasher`
/// construction: not DoS-resistant, which is fine for process-internal
/// keys, and deliberately *not* used for finding fingerprints — those keep
/// [`DefaultHasher`] so fingerprints stay stable and documented.
mod fxhash {
    use std::hash::{BuildHasherDefault, Hasher};

    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[derive(Debug, Default)]
    pub struct FxHasher {
        hash: u64,
    }

    impl FxHasher {
        #[inline]
        fn add(&mut self, word: u64) {
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
    }

    impl Hasher for FxHasher {
        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(8) {
                let mut buf = [0_u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                self.add(u64::from_le_bytes(buf));
            }
        }
        #[inline]
        fn write_u32(&mut self, n: u32) {
            self.add(u64::from(n));
        }
        #[inline]
        fn write_u64(&mut self, n: u64) {
            self.add(n);
        }
        #[inline]
        fn write_usize(&mut self, n: usize) {
            self.add(n as u64);
        }
        #[inline]
        fn finish(&self) -> u64 {
            self.hash
        }
    }

    pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
    pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;
}
pub(crate) use fxhash::{FxHashMap, FxHashSet};

/// Interns sparse raw ids (thread ids, monitor tracks) into dense indices
/// so the checks can use flat `Vec` tables instead of hash maps on the
/// multi-thousand-span hot paths. Raw ids are small dense integers in every
/// timeline the simulator records, so the array fast path covers all real
/// runs; the map fallback keeps hand-built or corrupt timelines safe from
/// pathological allocations.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    /// `raw → id + 1` for raw ids below [`DENSE_RAW`]; 0 = unassigned.
    dense: Vec<u32>,
    sparse: FxHashMap<u64, u32>,
    len: u32,
}

const DENSE_RAW: usize = 4096;

impl Interner {
    #[inline]
    fn id(&mut self, raw: u64) -> u32 {
        let i = raw as usize;
        if raw < DENSE_RAW as u64 {
            if self.dense.len() <= i {
                self.dense.resize(i + 1, 0);
            }
            if self.dense[i] == 0 {
                self.len += 1;
                self.dense[i] = self.len;
            }
            self.dense[i] - 1
        } else {
            let len = &mut self.len;
            *self.sparse.entry(raw).or_insert_with(|| {
                *len += 1;
                *len
            }) - 1
        }
    }

    /// Number of distinct ids interned — the size of any dense table
    /// indexed by these ids.
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

/// A closed monitor hold span: `owner` held `track` over `[start, end)`.
/// `m`/`t` are the interned track/owner indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hold {
    pub track: u32,
    pub owner: u64,
    pub m: u32,
    pub t: u32,
    pub start: SimTime,
    pub end: SimTime,
}

/// A granted monitor wait span: `thread` waited on monitor `track` from
/// its enqueue at `start` until the grant at `end`. `m`/`t` are the
/// interned track/thread indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitSpan {
    pub track: u32,
    pub thread: u64,
    pub m: u32,
    pub t: u32,
    pub start: SimTime,
    pub end: SimTime,
}

/// A `MonitorEnqueue` instant with interned track/thread indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Enqueue {
    pub track: u32,
    pub thread: u64,
    pub m: u32,
    pub t: u32,
    pub at: SimTime,
}

/// Shared per-audit context: the event stream bucketed by kind in a single
/// pass, plus the chaos instants and stream-wide facts every check needs.
/// Each bucket preserves stream (= start-time) order, so the checks never
/// rescan the full event stream.
pub(crate) struct AuditCtx {
    /// Interner for thread ids (hold owners, waiters, scheduler tracks).
    pub threads: Interner,
    /// Interner for monitor track indices.
    pub tracks: Interner,
    /// Closed [`MonitorHold`](EventKind::MonitorHold) spans.
    pub holds: Vec<Hold>,
    /// Granted [`MonitorWait`](EventKind::MonitorWait) spans.
    pub waits: Vec<WaitSpan>,
    /// [`MonitorEnqueue`](EventKind::MonitorEnqueue) instants.
    pub enqueues: Vec<Enqueue>,
    /// Per-thread (interned index) starts of `ThreadRunnable`/
    /// `ThreadRunning` spans, each list in time order — the
    /// scheduler-activity evidence the pairing check resolves resumes and
    /// spurious wakeups against.
    pub sched_starts: Vec<Vec<SimTime>>,
    /// `ThreadSafepoint` spans as `(start, duration)` nanosecond pairs.
    pub safepoints: Vec<(u64, u64)>,
    /// Stop-the-world GC work (`GcMinor`/`GcFull`/`GcConcMark`/
    /// `GcConcRemark`) as `(start, duration)` nanosecond pairs.
    pub gc_stw: Vec<(u64, u64)>,
    /// `HeapUsed` samples: `(track, at, bytes)`.
    pub heap_samples: Vec<(u32, SimTime, u64)>,
    /// Span counts per GC kind, for the counter reconciliation.
    pub minor_gcs: u64,
    /// `GcLocalMinor` span count (also the heaplet-mode signal that skips
    /// the heap-sample ordering check).
    pub local_minor_gcs: u64,
    /// `GcFull` span count.
    pub full_gcs: u64,
    /// `GcConcMark` + `GcConcRemark` span count.
    pub conc_phases: u64,
    /// `ChaosDropWakeup` instants: `(at, victim thread)`.
    pub drops: Vec<(SimTime, u64)>,
    /// `ChaosSpuriousWakeup` instants: `(at, woken thread)`.
    pub spurious: Vec<(SimTime, u64)>,
    /// `ChaosGcStall` instants: `(at, extra pause nanoseconds)`.
    pub stalls: Vec<(SimTime, u64)>,
    /// `ChaosRequestDrop` instants: `(at, dropped request id)`.
    pub req_drops: Vec<(SimTime, u64)>,
    /// Whether the run ended abnormally (quarantined or truncated). Waits
    /// legitimately dangle at an abort, so abort runs mark pairing
    /// findings as expected.
    pub aborted: bool,
    /// Recorder enabled and ring never dropped: the stream is the whole
    /// story, so completeness checks (counter equalities, enqueue/wait
    /// matching) are sound.
    pub complete: bool,
    /// Latest end time over all events — "the world continued past `t`"
    /// means `t < last_at`.
    pub last_at: SimTime,
    /// How many timeline events the bucketing pass consumed.
    pub events_scanned: usize,
}

impl AuditCtx {
    pub(crate) fn new(
        events: impl IntoIterator<Item = impl Borrow<TimelineEvent>>,
        aborted: bool,
        complete: bool,
    ) -> Self {
        let mut ctx = AuditCtx {
            threads: Interner::default(),
            tracks: Interner::default(),
            holds: Vec::new(),
            waits: Vec::new(),
            enqueues: Vec::new(),
            sched_starts: Vec::new(),
            safepoints: Vec::new(),
            gc_stw: Vec::new(),
            heap_samples: Vec::new(),
            minor_gcs: 0,
            local_minor_gcs: 0,
            full_gcs: 0,
            conc_phases: 0,
            drops: Vec::new(),
            spurious: Vec::new(),
            stalls: Vec::new(),
            req_drops: Vec::new(),
            aborted,
            complete,
            last_at: SimTime::ZERO,
            events_scanned: 0,
        };
        let events = events.into_iter();
        // Monitor holds dominate real timelines (roughly half the stream);
        // the other monitor buckets are an order of magnitude smaller.
        // Reserving up front keeps the bucketing pass realloc-free.
        let hint = events.size_hint().0;
        ctx.holds.reserve(hint / 2 + 1);
        ctx.waits.reserve(hint / 8 + 1);
        ctx.enqueues.reserve(hint / 8 + 1);
        for e in events {
            let e = e.borrow();
            ctx.events_scanned += 1;
            match e.kind {
                EventKind::MonitorHold => {
                    let (m, t) = (ctx.tracks.id(u64::from(e.track)), ctx.threads.id(e.arg));
                    ctx.holds.push(Hold {
                        track: e.track,
                        owner: e.arg,
                        m,
                        t,
                        start: e.at,
                        end: e.end(),
                    });
                }
                EventKind::MonitorWait => {
                    let (m, t) = (ctx.tracks.id(u64::from(e.track)), ctx.threads.id(e.arg));
                    ctx.waits.push(WaitSpan {
                        track: e.track,
                        thread: e.arg,
                        m,
                        t,
                        start: e.at,
                        end: e.end(),
                    });
                }
                EventKind::MonitorEnqueue => {
                    let (m, t) = (ctx.tracks.id(u64::from(e.track)), ctx.threads.id(e.arg));
                    ctx.enqueues.push(Enqueue {
                        track: e.track,
                        thread: e.arg,
                        m,
                        t,
                        at: e.at,
                    });
                }
                EventKind::ThreadRunnable | EventKind::ThreadRunning => {
                    let t = ctx.threads.id(u64::from(e.track)) as usize;
                    if ctx.sched_starts.len() <= t {
                        ctx.sched_starts.resize_with(t + 1, Vec::new);
                    }
                    ctx.sched_starts[t].push(e.at);
                }
                EventKind::ThreadSafepoint => {
                    ctx.safepoints.push((e.at.as_nanos(), e.dur.as_nanos()));
                }
                EventKind::GcMinor => {
                    ctx.minor_gcs += 1;
                    ctx.gc_stw.push((e.at.as_nanos(), e.dur.as_nanos()));
                }
                EventKind::GcFull => {
                    ctx.full_gcs += 1;
                    ctx.gc_stw.push((e.at.as_nanos(), e.dur.as_nanos()));
                }
                EventKind::GcConcMark | EventKind::GcConcRemark => {
                    ctx.conc_phases += 1;
                    ctx.gc_stw.push((e.at.as_nanos(), e.dur.as_nanos()));
                }
                EventKind::GcLocalMinor => ctx.local_minor_gcs += 1,
                EventKind::HeapUsed => ctx.heap_samples.push((e.track, e.at, e.arg)),
                EventKind::ChaosDropWakeup => ctx.drops.push((e.at, e.arg)),
                EventKind::ChaosSpuriousWakeup => ctx.spurious.push((e.at, e.arg)),
                EventKind::ChaosGcStall => ctx.stalls.push((e.at, e.arg)),
                EventKind::ChaosRequestDrop => ctx.req_drops.push((e.at, e.arg)),
                _ => {}
            }
            if e.end() > ctx.last_at {
                ctx.last_at = e.end();
            }
        }
        // The sched table must cover every interned thread id, including
        // threads that only ever appear as hold owners or waiters.
        ctx.sched_starts.resize_with(ctx.threads.len(), Vec::new);
        ctx
    }
}

/// The structural (counter-free) portion of the audit, shared between the
/// full pass and the bisector's prefix replays.
pub(crate) fn structural_findings(ctx: &AuditCtx) -> Vec<Finding> {
    let mut findings = lockgraph::check(ctx);
    findings.extend(pairing::check(ctx));
    findings.extend(consistency::check(ctx));
    findings
}

/// Audits one run: scans the merged timeline, runs all three checks, and
/// bisects the first finding to its first divergent event.
///
/// `aborted` should be `true` when the run did not complete normally
/// (quarantined or truncated): waits that dangle at an abort are then
/// expected findings rather than lost-wakeup false positives.
#[must_use]
pub fn audit(timeline: &Timeline, counters: &Counters, aborted: bool) -> AuditReport {
    let complete = timeline.is_enabled() && timeline.dropped() == 0;
    let ctx = AuditCtx::new(timeline.events(), aborted, complete);
    let mut findings = structural_findings(&ctx);
    if complete {
        findings.extend(consistency::counter_checks(&ctx, counters));
    }
    findings.sort_by(|a, b| {
        (a.at, a.check, a.class, a.track, a.thread)
            .cmp(&(b.at, b.check, b.class, b.track, b.thread))
    });
    let mut seen = HashSet::new();
    findings.retain(|f| seen.insert(f.fingerprint()));
    // The event stream is only materialized when a finding needs the
    // bisector's prefix replays — the (common) clean path stays a single
    // streaming pass.
    let divergence = findings.first().and_then(|f| {
        let events: Vec<TimelineEvent> = timeline.events().collect();
        bisect::divergence(&events, f, aborted, complete)
    });
    AuditReport {
        findings,
        events_scanned: ctx.events_scanned,
        complete,
        divergence,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use scalesim_simkit::{SimDuration, SimTime};
    use scalesim_trace::{EventKind, TimelineEvent};

    pub fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    pub fn span(kind: EventKind, track: u32, start: u64, end: u64, arg: u64) -> TimelineEvent {
        TimelineEvent {
            kind,
            track,
            at: t(start),
            dur: SimDuration::from_nanos(end - start),
            arg,
        }
    }

    pub fn instant(kind: EventKind, track: u32, at: u64, arg: u64) -> TimelineEvent {
        TimelineEvent {
            kind,
            track,
            at: t(at),
            dur: SimDuration::ZERO,
            arg,
        }
    }

    /// Sorts hand-built events the way `Timeline::merge` would (by start
    /// time; the tests don't rely on rank tie-breaks).
    pub fn sorted(mut events: Vec<TimelineEvent>) -> Vec<TimelineEvent> {
        events.sort_by_key(|e| e.at.as_nanos());
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_trace::CounterId;

    #[test]
    fn fingerprints_are_deterministic_and_distinguish_classes() {
        let f1 = Finding {
            check: Check::WaitPairing,
            class: "lost-wakeup",
            detail: "a".into(),
            at: SimTime::from_nanos(100),
            track: 3,
            thread: Some(7),
            expected: true,
        };
        let f2 = Finding {
            class: "dangling-wait",
            ..f1.clone()
        };
        assert_eq!(f1.fingerprint(), f1.clone().fingerprint());
        assert_ne!(f1.fingerprint(), f2.fingerprint());
        // Detail text does not affect the fingerprint.
        let f3 = Finding {
            detail: "b".into(),
            ..f1.clone()
        };
        assert_eq!(f1.fingerprint(), f3.fingerprint());
    }

    #[test]
    fn empty_timeline_audits_clean() {
        let tl = Timeline::with_capacity(8);
        let report = audit(&tl, &Counters::new(), false);
        assert!(report.is_clean(), "{report}");
        assert!(report.complete);
        assert_eq!(report.events_scanned, 0);
        assert_eq!(report.divergence, None);
    }

    #[test]
    fn disabled_timeline_is_incomplete_and_clean() {
        let tl = Timeline::disabled();
        let mut counters = Counters::new();
        counters.inc(CounterId::LockContentions); // would mismatch if checked
        let report = audit(&tl, &counters, false);
        assert!(report.is_clean(), "{report}");
        assert!(!report.complete);
    }

    #[test]
    fn display_lists_findings() {
        let report = AuditReport {
            findings: vec![Finding {
                check: Check::LockOrder,
                class: "lock-cycle",
                detail: "monitor0 -> monitor1 -> monitor0".into(),
                at: SimTime::from_nanos(5),
                track: 0,
                thread: Some(2),
                expected: false,
            }],
            events_scanned: 10,
            complete: true,
            divergence: Some(4),
        };
        let text = report.to_string();
        assert!(text.contains("lock-order/lock-cycle"), "{text}");
        assert!(text.contains("UNEXPECTED"), "{text}");
        assert!(text.contains("divergent event: #4"), "{text}");
        assert_eq!(report.unexpected().len(), 1);
        assert_eq!(report.expected_count(), 0);
    }
}
