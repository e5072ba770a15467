//! The one event loop both engines run. The batch runtime and the server
//! request engine implement [`Engine`] (where events come from, what one
//! does); [`run`] owns the rest: the event budget, the chaos `panic-at`,
//! the violation rule, the timed-budget poll (host deadlines included)
//! and the periodic invariant scan.

use std::time::Instant;

use scalesim_simkit::{AbortReason, ChaosPlan, EventQueue, SimTime};

use crate::config::JvmConfig;
use crate::error::{InvariantViolation, SimError};
use crate::report::RunOutcome;

/// Period, in events, of the invariant scan under `JvmConfig::monitors`.
pub(crate) const MONITOR_SCAN_PERIOD: u64 = 1 << 16;

/// Period, in events, of the timed-budget poll.
pub(crate) const BUDGET_CHECK_PERIOD: u64 = 1 << 10;

/// An event-driven engine the driver can run.
pub(crate) trait Engine {
    type Event;

    /// The engine's event queue (the driver reads `now` and `popped_total`).
    fn queue(&self) -> &EventQueue<Self::Event>;

    /// Pops the next event; `Ok(None)` ends the run cleanly.
    fn next_event(&mut self) -> Result<Option<Self::Event>, InvariantViolation>;

    /// Handles one event and returns the first violation it recorded.
    fn handle(&mut self, event: Self::Event) -> Option<InvariantViolation>;

    /// The periodic full invariant scan.
    fn scan(&mut self) -> Option<InvariantViolation> {
        None
    }
}

/// Drives `engine` to its end; returns the last handled event's time and
/// the outcome. A violation quarantines the run under `config.salvage`.
pub(crate) fn run<E: Engine>(
    engine: &mut E,
    config: &JvmConfig,
) -> Result<(SimTime, RunOutcome), SimError> {
    let host_start = Instant::now();
    let budget = config.budget;
    let timed_budget = budget.max_sim_time.is_some()
        || budget.max_host_ms.is_some()
        || budget.watchdog_ms.is_some();
    let chaos = ChaosPlan::new(config.chaos, config.seed);
    let quarantine = |v: InvariantViolation| {
        if config.salvage {
            Ok(RunOutcome::Quarantined(v.to_string()))
        } else {
            Err(SimError::Invariant(v))
        }
    };
    let mut wall = SimTime::ZERO;
    let outcome = loop {
        let event = match engine.next_event() {
            Ok(Some(event)) => event,
            Ok(None) => break RunOutcome::Ok,
            Err(v) => break quarantine(v)?,
        };
        let processed = engine.queue().popped_total();
        if processed > budget.max_events {
            break RunOutcome::Truncated(AbortReason::MaxEvents(budget.max_events));
        }
        if chaos.panics_at(processed) {
            panic!("chaos: deliberate panic at event {processed}");
        }
        let violation = engine.handle(event);
        wall = engine.queue().now();
        if let Some(v) = violation {
            break quarantine(v)?;
        }
        if timed_budget && processed.is_multiple_of(BUDGET_CHECK_PERIOD) {
            let host_ms = host_start.elapsed().as_millis() as u64;
            if let Some(reason) = budget.check(processed, wall, host_ms) {
                break RunOutcome::Truncated(reason);
            }
        }
        if config.monitors && processed.is_multiple_of(MONITOR_SCAN_PERIOD) {
            if let Some(v) = engine.scan() {
                break quarantine(v)?;
            }
        }
    };
    Ok((wall, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MonitorKind;
    use scalesim_simkit::SimDuration;

    /// Fires one event per nanosecond, forever, and fails on request.
    struct Ticker {
        queue: EventQueue<()>,
        handled: u64,
        scans: u64,
        /// Handling this (1-based) event records a violation.
        violate_at: Option<u64>,
        /// `next_event` fails once this many events were handled.
        deadlock_at: Option<u64>,
    }

    impl Ticker {
        fn new() -> Self {
            let mut queue = EventQueue::new();
            queue.schedule_at(SimTime::from_nanos(1), ());
            Ticker {
                queue,
                handled: 0,
                scans: 0,
                violate_at: None,
                deadlock_at: None,
            }
        }
    }

    fn violation() -> InvariantViolation {
        InvariantViolation {
            kind: MonitorKind::MonitorProtocol,
            detail: "test".to_owned(),
        }
    }

    impl Engine for Ticker {
        type Event = ();

        fn queue(&self) -> &EventQueue<()> {
            &self.queue
        }

        fn next_event(&mut self) -> Result<Option<()>, InvariantViolation> {
            if self.deadlock_at == Some(self.handled) {
                return Err(violation());
            }
            Ok(self.queue.pop().map(|(_, ev)| ev))
        }

        fn handle(&mut self, (): ()) -> Option<InvariantViolation> {
            self.handled += 1;
            self.queue.schedule_after(SimDuration::from_nanos(1), ());
            (self.violate_at == Some(self.handled)).then(violation)
        }

        fn scan(&mut self) -> Option<InvariantViolation> {
            self.scans += 1;
            None
        }
    }

    fn config(edit: impl FnOnce(&mut JvmConfig)) -> JvmConfig {
        let mut config = JvmConfig::builder().build().unwrap();
        edit(&mut config);
        config
    }

    #[test]
    fn max_events_truncates_before_handling_the_next_event() {
        let mut t = Ticker::new();
        let cfg = config(|c| c.budget.max_events = 2);
        let (wall, outcome) = run(&mut t, &cfg).unwrap();
        assert_eq!(outcome, RunOutcome::Truncated(AbortReason::MaxEvents(2)));
        assert_eq!(wall, SimTime::from_nanos(2), "the 2nd event's time");
        assert_eq!(t.handled, 2, "the 3rd event is never handled");
    }

    #[test]
    fn violations_quarantine_under_salvage_and_fail_without_it() {
        for salvage in [true, false] {
            let cfg = config(|c| c.salvage = salvage);
            let mut handler = Ticker::new();
            handler.violate_at = Some(5);
            let mut source = Ticker::new();
            source.deadlock_at = Some(5);
            for t in [&mut handler, &mut source] {
                let result = run(t, &cfg);
                if salvage {
                    let (wall, outcome) = result.unwrap();
                    assert_eq!(outcome, RunOutcome::Quarantined(violation().to_string()));
                    assert_eq!(wall, SimTime::from_nanos(5));
                } else {
                    assert_eq!(result, Err(SimError::Invariant(violation())));
                }
                assert_eq!(t.handled, 5);
            }
        }
    }

    #[test]
    fn an_expired_watchdog_truncates_at_the_first_budget_check() {
        let mut t = Ticker::new();
        let cfg = config(|c| c.budget.watchdog_ms = Some(0));
        let (_, outcome) = run(&mut t, &cfg).unwrap();
        assert_eq!(outcome, RunOutcome::Truncated(AbortReason::Watchdog));
        assert_eq!(t.handled, BUDGET_CHECK_PERIOD);
    }

    #[test]
    fn scans_run_only_with_monitors_on() {
        for monitors in [true, false] {
            let mut t = Ticker::new();
            let cfg = config(|c| {
                c.monitors = monitors;
                c.budget.max_events = 2 * MONITOR_SCAN_PERIOD;
            });
            run(&mut t, &cfg).unwrap();
            assert_eq!(t.scans, if monitors { 2 } else { 0 });
        }
    }
}
