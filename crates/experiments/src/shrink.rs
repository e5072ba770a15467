//! Automatic failure shrinking for quarantined sweep points.
//!
//! When a run fails twice and lands in quarantine, the interesting
//! artifact is rarely the failing spec itself — a 48-thread, full-heap,
//! four-fault chaos plan obscures which ingredient actually matters.
//! [`shrink_failure`] runs a small deterministic delta-debugging loop
//! over the spec, keeping each reduction only while the failure still
//! reproduces:
//!
//! 1. **Threads** are halved greedily (48 → 24 → 12 → … → 1).
//! 2. **Heap sizing** is stepped down to 2× and then 1× the app's
//!    minimum heap.
//! 3. **Chaos classes** (wakeup drops, spurious wakeups, GC stalls,
//!    memo corruption) are zeroed one at a time.
//!
//! The loop is bounded by [`SHRINK_ATTEMPT_BUDGET`] executions and is a
//! pure function of the input spec, so shrinking the same quarantine
//! twice yields the same minimum. The result is written as a
//! self-contained `repro-<key>.json` ([`write_repro`]) that the
//! `scalesim-experiments repro FILE` subcommand re-executes exactly.
//!
//! Candidates run through the sweep's own [`attempt`], so a spec carrying
//! a watchdog deadline meets it here exactly as in the sweep: the engine
//! truncates the hung candidate, and that counts as "still failing" for
//! the predicate.

use std::path::{Path, PathBuf};

use scalesim_core::{ReproSpec, RunReport};

use crate::sweep::{attempt, RunSpec};

/// Hard cap on shrink executions per quarantined spec. Generous enough
/// for the full reduction schedule (≤ 6 halvings + 2 heap steps + 4
/// chaos classes + the confirming run), tight enough that shrinking
/// never dominates the sweep it serves.
pub const SHRINK_ATTEMPT_BUDGET: u32 = 24;

/// The result of shrinking one quarantined spec.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The spec as it failed in the sweep.
    pub original: ReproSpec,
    /// The smallest spec found that still fails.
    pub shrunk: ReproSpec,
    /// Executions spent (including the confirming run).
    pub attempts: u32,
    /// Failure detail of the last failing execution of the shrunk spec.
    pub failure: String,
}

/// Executes one spec with panic isolation, outside the sweep and its
/// cache, as one sweep attempt.
///
/// # Errors
///
/// Returns the panic payload or [`SimError`](scalesim_core::SimError)
/// text when the run fails, or a `watchdog:` message when it overstayed
/// its watchdog deadline.
pub fn run_isolated(spec: &RunSpec) -> Result<RunReport, String> {
    attempt(spec)
}

/// Shrinks a failing spec to a smaller one that still fails.
///
/// Returns `None` when the failure does not reproduce in isolation
/// (flaky under retry, or dependent on sweep-level state) — in that
/// case there is nothing trustworthy to write a repro file for.
#[must_use]
pub fn shrink_failure(spec: &RunSpec) -> Option<ShrinkOutcome> {
    let mut attempts: u32 = 0;
    let mut fails = |candidate: &RunSpec| -> Option<String> {
        if attempts >= SHRINK_ATTEMPT_BUDGET {
            return None; // budget exhausted: treat as "no longer failing"
        }
        attempts += 1;
        run_isolated(candidate).err()
    };

    let mut failure = fails(spec)?;
    let mut current = spec.clone();

    // 1. Threads: greedy halving, keeping each step while it still
    // fails. A GC-worker override is re-capped so the reduced config
    // stays structurally valid.
    while current.config.threads > 1 {
        let mut candidate = current.clone();
        candidate.config.threads = current.config.threads / 2;
        if let Some(w) = candidate.config.gc_workers_override {
            candidate.config.gc_workers_override = Some(w.min(candidate.config.cores()));
        }
        match fails(&candidate) {
            Some(why) => {
                failure = why;
                current = candidate;
            }
            None => break,
        }
    }

    // 2. Heap sizing: step down toward the app's minimum.
    let min_heap = current.app.spec().min_heap_bytes;
    for target in [min_heap.saturating_mul(2), min_heap] {
        if target == 0 || target >= current.config.heap_bytes(min_heap) {
            continue;
        }
        let mut candidate = current.clone();
        candidate.config.heap_bytes_override = Some(target);
        if let Some(why) = fails(&candidate) {
            failure = why;
            current = candidate;
        }
    }

    // 3. Chaos classes: zero one at a time, keeping each removal while
    // the failure survives without it. (`panic_at_event` stays: it is
    // the direct cause whenever it is set.)
    for class in 0..5usize {
        let mut candidate = current.clone();
        let chaos = &mut candidate.config.chaos;
        let field = match class {
            0 => &mut chaos.drop_wakeup_period,
            1 => &mut chaos.spurious_wakeup_period,
            2 => &mut chaos.gc_stall_period,
            3 => &mut chaos.memo_corrupt_period,
            _ => &mut chaos.request_drop_period,
        };
        if *field == 0 {
            continue;
        }
        *field = 0;
        if let Some(why) = fails(&candidate) {
            failure = why;
            current = candidate;
        }
    }

    Some(ShrinkOutcome {
        original: capture_exact(spec),
        shrunk: capture_exact(&current),
        attempts,
        failure,
    })
}

/// Captures a spec as a [`ReproSpec`], verifying that reconstructing it
/// lands on the identical memo key (and recording the verdict in
/// [`ReproSpec::exact`]).
fn capture_exact(spec: &RunSpec) -> ReproSpec {
    let mut repro = ReproSpec::capture(&spec.app, &spec.config, spec.memo_key());
    repro.exact = repro
        .reconstruct()
        .map(|(app, config)| RunSpec { app, config }.memo_key() == repro.spec_key)
        .unwrap_or(false);
    repro
}

/// Writes the shrunk spec as `repro-<original key>.json` in `dir`
/// (atomically), returning the path. The file name is keyed by the
/// *original* spec so repeated sweeps overwrite rather than accumulate.
///
/// # Errors
///
/// Propagates filesystem failures from the atomic write.
pub fn write_repro(outcome: &ShrinkOutcome, dir: &Path) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("repro-{:016x}.json", outcome.original.spec_key));
    let mut body = outcome.shrunk.to_json().to_string();
    body.push('\n');
    scalesim_trace::write_atomic(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_simkit::ChaosConfig;
    use scalesim_workloads::xalan;

    #[test]
    fn healthy_spec_does_not_shrink() {
        let spec = RunSpec::new(xalan().scaled(0.002), 2, 5);
        assert!(shrink_failure(&spec).is_none());
    }

    #[test]
    fn panic_spec_shrinks_threads_and_stays_failing() {
        let mut spec = RunSpec::new(xalan().scaled(0.002), 8, 31);
        spec.config.chaos = ChaosConfig {
            panic_at_event: 500,
            drop_wakeup_period: 1 << 30, // never fires at this scale
            ..ChaosConfig::default()
        };
        let outcome = shrink_failure(&spec).expect("deterministic panic reproduces");
        assert!(outcome.shrunk.threads < 8, "{outcome:?}");
        assert_eq!(outcome.shrunk.chaos.panic_at_event, 500);
        // The inert chaos class was removed from the minimal spec.
        assert_eq!(outcome.shrunk.chaos.drop_wakeup_period, 0);
        assert!(outcome.failure.contains("deliberate panic"), "{outcome:?}");
        assert!(outcome.attempts <= SHRINK_ATTEMPT_BUDGET);
        assert!(outcome.shrunk.exact, "{outcome:?}");
        // The shrunk spec reconstructs and still fails.
        let (app, config) = outcome.shrunk.reconstruct().unwrap();
        assert!(run_isolated(&RunSpec { app, config }).is_err());
    }

    #[test]
    fn repro_file_round_trips() {
        let mut spec = RunSpec::new(xalan().scaled(0.002), 2, 77);
        spec.config.chaos = ChaosConfig {
            panic_at_event: 400,
            ..ChaosConfig::default()
        };
        let outcome = shrink_failure(&spec).expect("reproduces");
        let dir = std::env::temp_dir().join(format!("scalesim-shrink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_repro(&outcome, &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = scalesim_core::JsonValue::parse(text.trim()).unwrap();
        let loaded = ReproSpec::from_json(&parsed).unwrap();
        assert_eq!(loaded, outcome.shrunk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
