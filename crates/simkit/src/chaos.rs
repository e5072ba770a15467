//! Deterministic fault injection and run budgets.
//!
//! The chaos layer lets the test suite (and a cautious operator) prove that
//! the simulator's invariant monitors are not vacuous: every fault class a
//! [`ChaosPlan`] can inject must be caught by a corresponding monitor or by
//! a [`RunBudget`]. Faults are derived purely from the master seed and a
//! per-class counter, so the same `(config, seed)` always injects the same
//! faults at the same points — chaos runs are as replayable as clean runs.

use crate::rng::splitmix64;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Per-class salt folded into the firing hash so the classes draw
/// independent deterministic streams from one seed.
const SALTS: [u64; 5] = [
    0x7c15_9e37_79b9_7f4a, // drop wakeup
    0xe5b9_bf58_476d_1ce4, // spurious wakeup
    0x11eb_94d0_49bb_1331, // gc stall
    0xd463_2545_f491_4f6c, // memo corrupt
    0x9e6c_63d0_a52f_2f61, // request drop
];

/// The kinds of fault a [`ChaosPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A monitor-release wakeup is dropped: the next waiter is granted the
    /// lock but never made runnable.
    DropWakeup,
    /// A blocked waiter is made runnable without being granted the lock.
    SpuriousWakeup,
    /// A GC pause is inflated as if a collector worker stalled at the
    /// safepoint.
    GcStall,
    /// A memo-cache entry in the sweep harness is corrupted after insert.
    MemoCorrupt,
    /// An admitted server request is silently dropped before service — the
    /// client sees no reply and must rely on its timeout to recover.
    RequestDrop,
}

impl FaultClass {
    fn index(self) -> usize {
        match self {
            FaultClass::DropWakeup => 0,
            FaultClass::SpuriousWakeup => 1,
            FaultClass::GcStall => 2,
            FaultClass::MemoCorrupt => 3,
            FaultClass::RequestDrop => 4,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultClass::DropWakeup => "drop-wakeup",
            FaultClass::SpuriousWakeup => "spurious-wakeup",
            FaultClass::GcStall => "gc-stall",
            FaultClass::MemoCorrupt => "memo-corrupt",
            FaultClass::RequestDrop => "request-drop",
        };
        f.write_str(name)
    }
}

/// Static description of which faults to inject and how often.
///
/// Each `*_period` is an average firing period in opportunities: a period of
/// `p` makes roughly one in `p` opportunities fire (0 disables the class).
/// The exact opportunities that fire are a deterministic function of the
/// run seed — see [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Average period, in release operations, between dropped wakeups.
    pub drop_wakeup_period: u64,
    /// Average period, in block operations, between spurious wakeups.
    pub spurious_wakeup_period: u64,
    /// Average period, in collections, between stalled-GC-worker pauses.
    pub gc_stall_period: u64,
    /// Multiplier applied to a stalled collection's pause (the pause grows
    /// by `pause * factor`).
    pub gc_stall_factor: f64,
    /// Average period, in cache inserts, between corrupted memo entries.
    pub memo_corrupt_period: u64,
    /// Average period, in admitted server requests, between silent drops.
    pub request_drop_period: u64,
    /// If nonzero, the run deliberately panics when the engine has
    /// processed exactly this many events (crash-isolation testing).
    pub panic_at_event: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_wakeup_period: 0,
            spurious_wakeup_period: 0,
            gc_stall_period: 0,
            gc_stall_factor: 4.0,
            memo_corrupt_period: 0,
            request_drop_period: 0,
            panic_at_event: 0,
        }
    }
}

impl ChaosConfig {
    /// True when no fault class is enabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.drop_wakeup_period == 0
            && self.spurious_wakeup_period == 0
            && self.gc_stall_period == 0
            && self.memo_corrupt_period == 0
            && self.request_drop_period == 0
            && self.panic_at_event == 0
    }

    /// Builds a config from the `SCALESIM_CHAOS` environment variable,
    /// or the all-off default when it is unset or empty.
    ///
    /// The format is a comma-separated `key=value` list, e.g.
    /// `drop-wakeup=64,spurious=97,gc-stall=3,gc-stall-factor=2.5,memo=5,request-drop=11`.
    /// A malformed spec falls back to the all-off default (the engine must
    /// not refuse to run because of a typo in a chaos knob).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("SCALESIM_CHAOS") {
            Ok(spec) => Self::parse(&spec).unwrap_or_default(),
            Err(_) => Self::default(),
        }
    }

    /// Parses a `key=value,key=value` chaos spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = ChaosConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() || part == "off" {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos entry `{part}` is not key=value"))?;
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad count in `{part}`"))
            };
            match key.trim() {
                "drop-wakeup" => cfg.drop_wakeup_period = parse_u64(value)?,
                "spurious" => cfg.spurious_wakeup_period = parse_u64(value)?,
                "gc-stall" => cfg.gc_stall_period = parse_u64(value)?,
                "gc-stall-factor" => {
                    cfg.gc_stall_factor = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad factor in `{part}`"))?;
                }
                "memo" => cfg.memo_corrupt_period = parse_u64(value)?,
                "request-drop" => cfg.request_drop_period = parse_u64(value)?,
                "panic-at" => cfg.panic_at_event = parse_u64(value)?,
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// Seed-driven schedule of fault injections for one run.
///
/// Each injection *opportunity* (a monitor release, a block, a collection,
/// a cache insert) advances a per-class counter; whether the opportunity
/// fires is `splitmix64(seed ^ salt ^ counter) % period == 0`. The schedule
/// is therefore a pure function of `(config, seed)` and survives replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    config: ChaosConfig,
    seed: u64,
    counters: [u64; 5],
    injected: [u64; 5],
}

impl ChaosPlan {
    /// Creates the plan for one run from its chaos config and master seed.
    #[must_use]
    pub fn new(config: ChaosConfig, seed: u64) -> Self {
        ChaosPlan {
            config,
            seed,
            counters: [0; 5],
            injected: [0; 5],
        }
    }

    /// The static configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn period(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::DropWakeup => self.config.drop_wakeup_period,
            FaultClass::SpuriousWakeup => self.config.spurious_wakeup_period,
            FaultClass::GcStall => self.config.gc_stall_period,
            FaultClass::MemoCorrupt => self.config.memo_corrupt_period,
            FaultClass::RequestDrop => self.config.request_drop_period,
        }
    }

    /// Registers one injection opportunity for `class` and reports whether
    /// it fires. Always advances the class counter, so enabling one class
    /// never perturbs another's schedule.
    pub fn fires(&mut self, class: FaultClass) -> bool {
        let i = class.index();
        let counter = self.counters[i];
        self.counters[i] += 1;
        let period = self.period(class);
        if period == 0 {
            return false;
        }
        let fired = splitmix64(self.seed ^ SALTS[i] ^ counter).is_multiple_of(period);
        if fired {
            self.injected[i] += 1;
        }
        fired
    }

    /// How many faults of `class` have fired so far.
    #[must_use]
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()]
    }

    /// True when the engine should deliberately panic at `events_processed`
    /// events (crash-isolation testing).
    #[must_use]
    pub fn panics_at(&self, events_processed: u64) -> bool {
        self.config.panic_at_event != 0 && events_processed == self.config.panic_at_event
    }
}

/// Hard limits a single run must stay within.
///
/// Budgets turn runaway runs (livelock after a lost wakeup, a pathological
/// config) into clean truncation: the engine stops, marks the report
/// truncated with an [`AbortReason`], and keeps whatever partial metrics it
/// gathered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum events the engine may process before aborting.
    pub max_events: u64,
    /// Maximum simulated time a run may cover, if any.
    pub max_sim_time: Option<SimDuration>,
    /// Maximum host wall-clock milliseconds a run may take, if any.
    pub max_host_ms: Option<u64>,
    /// Per-run host deadline, if any. [`RunBudget::check`] polls it like
    /// `max_host_ms` but truncates with [`AbortReason::Watchdog`], which
    /// the sweep treats as a hung run (retried once, then quarantined)
    /// rather than as a truncated result.
    pub watchdog_ms: Option<u64>,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_events: 2_000_000_000,
            max_sim_time: None,
            max_host_ms: None,
            watchdog_ms: None,
        }
    }
}

impl RunBudget {
    /// Builds a budget from `SCALESIM_MAX_EVENTS`, `SCALESIM_MAX_SIM_MS`,
    /// `SCALESIM_MAX_HOST_MS` and `SCALESIM_WATCHDOG_MS`, falling back to
    /// the defaults for any variable that is unset or malformed.
    #[must_use]
    pub fn from_env() -> Self {
        let mut budget = RunBudget::default();
        if let Some(v) = env_u64("SCALESIM_MAX_EVENTS") {
            budget.max_events = v;
        }
        if let Some(v) = env_u64("SCALESIM_MAX_SIM_MS") {
            budget.max_sim_time = Some(SimDuration::from_millis(v));
        }
        if let Some(v) = env_u64("SCALESIM_MAX_HOST_MS") {
            budget.max_host_ms = Some(v);
        }
        if let Some(v) = env_u64("SCALESIM_WATCHDOG_MS") {
            budget.watchdog_ms = Some(v);
        }
        budget
    }

    /// Checks the budget against a run's progress; `None` means in budget.
    #[must_use]
    pub fn check(
        &self,
        events_processed: u64,
        now: SimTime,
        host_elapsed_ms: u64,
    ) -> Option<AbortReason> {
        if events_processed >= self.max_events {
            return Some(AbortReason::MaxEvents(self.max_events));
        }
        if let Some(limit) = self.max_sim_time {
            if now.as_nanos() >= limit.as_nanos() {
                return Some(AbortReason::MaxSimTime(limit));
            }
        }
        if let Some(limit) = self.max_host_ms {
            if host_elapsed_ms >= limit {
                return Some(AbortReason::MaxHostMs(limit));
            }
        }
        if let Some(limit) = self.watchdog_ms {
            if host_elapsed_ms >= limit {
                return Some(AbortReason::Watchdog);
            }
        }
        None
    }
}

/// Why a run was truncated by its [`RunBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The event budget was exhausted.
    MaxEvents(u64),
    /// The simulated-time budget was exhausted.
    MaxSimTime(SimDuration),
    /// The host wall-clock budget was exhausted.
    MaxHostMs(u64),
    /// The run overstayed its watchdog host deadline.
    Watchdog,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::MaxEvents(n) => write!(f, "event budget exhausted ({n} events)"),
            AbortReason::MaxSimTime(d) => {
                write!(f, "sim-time budget exhausted ({} ns)", d.as_nanos())
            }
            AbortReason::MaxHostMs(ms) => {
                write!(f, "host-time budget exhausted ({ms} ms)")
            }
            AbortReason::Watchdog => f.write_str("watchdog host deadline exceeded"),
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        assert!(ChaosConfig::default().is_off());
    }

    #[test]
    fn parse_full_spec() {
        let cfg = ChaosConfig::parse(
            "drop-wakeup=64, spurious=97,gc-stall=3,gc-stall-factor=2.5,memo=5,request-drop=11",
        )
        .unwrap();
        assert_eq!(cfg.drop_wakeup_period, 64);
        assert_eq!(cfg.spurious_wakeup_period, 97);
        assert_eq!(cfg.gc_stall_period, 3);
        assert!((cfg.gc_stall_factor - 2.5).abs() < 1e-12);
        assert_eq!(cfg.memo_corrupt_period, 5);
        assert_eq!(cfg.request_drop_period, 11);
        assert!(!cfg.is_off());
    }

    #[test]
    fn request_drop_is_an_independent_deterministic_stream() {
        let only_drop = ChaosConfig {
            request_drop_period: 4,
            ..ChaosConfig::default()
        };
        let both = ChaosConfig {
            request_drop_period: 4,
            gc_stall_period: 2,
            ..ChaosConfig::default()
        };
        let fires = |cfg: ChaosConfig, seed| {
            let mut plan = ChaosPlan::new(cfg, seed);
            (0..256)
                .map(|_| {
                    plan.fires(FaultClass::GcStall);
                    plan.fires(FaultClass::RequestDrop)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(fires(only_drop, 42), fires(both, 42));
        assert_eq!(fires(both, 42), fires(both, 42));
        assert_ne!(fires(both, 42), fires(both, 43));
        assert_eq!(FaultClass::RequestDrop.to_string(), "request-drop");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("drop-wakeup").is_err());
        assert!(ChaosConfig::parse("drop-wakeup=x").is_err());
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("gc-stall-factor=hot").is_err());
    }

    #[test]
    fn parse_empty_and_off_are_default() {
        assert!(ChaosConfig::parse("").unwrap().is_off());
        assert!(ChaosConfig::parse("off").unwrap().is_off());
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let cfg = ChaosConfig {
            drop_wakeup_period: 7,
            spurious_wakeup_period: 5,
            ..ChaosConfig::default()
        };
        let sequence = |seed| {
            let mut plan = ChaosPlan::new(cfg, seed);
            (0..256)
                .map(|i| {
                    if i % 2 == 0 {
                        plan.fires(FaultClass::DropWakeup)
                    } else {
                        plan.fires(FaultClass::SpuriousWakeup)
                    }
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43));
    }

    #[test]
    fn plan_fires_roughly_at_period() {
        let cfg = ChaosConfig {
            gc_stall_period: 4,
            ..ChaosConfig::default()
        };
        let mut plan = ChaosPlan::new(cfg, 42);
        let fired = (0..4000)
            .filter(|_| plan.fires(FaultClass::GcStall))
            .count();
        assert!((500..2000).contains(&fired), "fired {fired} of 4000");
        assert_eq!(plan.injected(FaultClass::GcStall) as usize, fired);
    }

    #[test]
    fn disabled_class_never_fires_but_still_counts() {
        let mut plan = ChaosPlan::new(ChaosConfig::default(), 42);
        for _ in 0..100 {
            assert!(!plan.fires(FaultClass::DropWakeup));
        }
        assert_eq!(plan.injected(FaultClass::DropWakeup), 0);
    }

    #[test]
    fn classes_are_independent_streams() {
        // Enabling one class must not change another class's schedule.
        let only_drop = ChaosConfig {
            drop_wakeup_period: 3,
            ..ChaosConfig::default()
        };
        let both = ChaosConfig {
            drop_wakeup_period: 3,
            gc_stall_period: 2,
            ..ChaosConfig::default()
        };
        let drops = |cfg: ChaosConfig| {
            let mut plan = ChaosPlan::new(cfg, 7);
            (0..128)
                .map(|_| {
                    plan.fires(FaultClass::GcStall);
                    plan.fires(FaultClass::DropWakeup)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(drops(only_drop), drops(both));
    }

    #[test]
    fn panic_at_event_matches_exactly() {
        let cfg = ChaosConfig {
            panic_at_event: 10,
            ..ChaosConfig::default()
        };
        let plan = ChaosPlan::new(cfg, 1);
        assert!(!plan.panics_at(9));
        assert!(plan.panics_at(10));
        assert!(!plan.panics_at(11));
        assert!(!ChaosPlan::new(ChaosConfig::default(), 1).panics_at(0));
    }

    #[test]
    fn budget_default_allows_ordinary_runs() {
        let b = RunBudget::default();
        assert_eq!(
            b.check(1_000_000, SimTime::ZERO + SimDuration::from_millis(50), 10),
            None
        );
    }

    #[test]
    fn budget_trips_on_each_axis() {
        let b = RunBudget {
            max_events: 100,
            max_sim_time: Some(SimDuration::from_millis(5)),
            max_host_ms: Some(1000),
            watchdog_ms: None,
        };
        assert_eq!(
            b.check(100, SimTime::ZERO, 0),
            Some(AbortReason::MaxEvents(100))
        );
        assert_eq!(
            b.check(1, SimTime::ZERO + SimDuration::from_millis(5), 0),
            Some(AbortReason::MaxSimTime(SimDuration::from_millis(5)))
        );
        assert_eq!(
            b.check(1, SimTime::ZERO, 1000),
            Some(AbortReason::MaxHostMs(1000))
        );
        assert_eq!(b.check(99, SimTime::ZERO, 999), None);
        let w = RunBudget {
            watchdog_ms: Some(1000),
            ..RunBudget::default()
        };
        assert_eq!(w.check(1, SimTime::ZERO, 999), None);
        assert_eq!(w.check(1, SimTime::ZERO, 1000), Some(AbortReason::Watchdog));
    }

    #[test]
    fn abort_reason_displays() {
        assert!(AbortReason::MaxEvents(5)
            .to_string()
            .contains("event budget"));
        assert!(AbortReason::MaxSimTime(SimDuration::from_millis(1))
            .to_string()
            .contains("sim-time"));
        assert!(AbortReason::MaxHostMs(9).to_string().contains("host-time"));
    }
}
