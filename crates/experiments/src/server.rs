//! `ext-server`: server-scale request workloads with overload control.
//!
//! The paper's workloads are batch benchmarks; real manycore deployments
//! run request/response services whose scalability failures look
//! different — not a flattening speedup curve but a *metastable* collapse:
//! a transient fault (here a GC stall burst) tips a saturated server into
//! a retry storm that outlives the fault itself (Bronson et al.,
//! HotOS'21). This study sweeps three policies across the thread axis at
//! a per-worker offered load:
//!
//! * **no-fault** — the robust policy with no injected fault: the goodput
//!   baseline the other two scenarios are judged against.
//! * **naive** — immediate retries, unbounded retry budget, no admission
//!   control, plus a transient GC-stall fault window. Arrivals backlog
//!   behind the stall, timeouts fire, every timeout retries immediately,
//!   and the amplified load keeps the queue saturated long after the
//!   stall ends: tail goodput (measured well after the fault window)
//!   stays collapsed.
//! * **robust** — the same fault under capped exponential backoff with
//!   deterministic jitter, a bounded retry count, admission control
//!   (concurrency restriction), and deadline shedding at dequeue. The
//!   backlog drains once the stall ends and tail goodput recovers to
//!   within a few percent of the no-fault baseline.
//!
//! Tail goodput is measured over `[measure_from, horizon)` — a window
//! that starts well after the fault window closes — so the contrast is
//! specifically "did the overload outlive the fault", not "did the fault
//! cost throughput while it was active" (it always does).

use scalesim_core::{JvmConfig, RunOutcome, RunReport, ServerStats, SimError};
use scalesim_metrics::Table;
use scalesim_simkit::ChaosConfig;
use scalesim_workloads::{xalan, ServerSpec};

use crate::params::ExpParams;
use crate::sweep::{outcome_cell, run_all, RunSpec};

/// The scenarios the study sweeps, in table order.
pub const SERVER_SCENARIOS: [&str; 3] = ["no-fault", "naive", "robust"];

/// Offered load per worker thread, requests/second. The mean request
/// costs ~125 µs of service, so one worker serves ~8 k req/s; 6.8 k/s
/// offers ~85% utilization — saturated enough that a stall backlogs, with
/// enough headroom that a drained server keeps up.
pub(crate) const RATE_PER_THREAD: u64 = 6_800;

/// Run length in simulated nanoseconds.
const HORIZON_NS: u64 = 800_000_000;

/// Tail-goodput measurement starts here — 180 ms after the fault window
/// closes, so a backlog that drains promptly is out of the window.
const MEASURE_FROM_NS: u64 = 500_000_000;

/// The transient GC-stall fault window `[start, end)`.
const FAULT_WINDOW_NS: (u64, u64) = (200_000_000, 320_000_000);

/// Small heap, scaled with the worker pool: the per-request allocation
/// bursts drive regular minor collections (so the stall amplifier has
/// pauses to stretch), but the allocation rate grows with the offered
/// load, and the pause *floor* (VM stop + time-to-safepoint) grows with
/// the thread count — a fixed heap would make GC overhead alone eat the
/// top of the sweep's capacity before any fault is injected.
fn server_heap_bytes(threads: usize) -> u64 {
    ((threads as u64) << 20).max(8 << 20)
}

/// GC pauses inside the fault window are stretched by this factor —
/// a ~100 µs minor pause becomes a multi-millisecond stall, longer than
/// the client timeout, which is what turns timeouts into retries.
const GC_STALL_FACTOR: f64 = 24.0;

/// The per-scenario server spec at `threads` workers. The offered rate
/// and the admission cap both scale with the worker count so every sweep
/// point runs at the same utilization.
pub(crate) fn scenario_spec(scenario: &str, threads: usize) -> ServerSpec {
    let rate = RATE_PER_THREAD * threads as u64;
    let cap = threads * 16;
    let mut spec = match scenario {
        "no-fault" => ServerSpec::robust(rate, cap),
        "naive" => ServerSpec::naive(rate).with_fault_window(FAULT_WINDOW_NS.0, FAULT_WINDOW_NS.1),
        "robust" => {
            ServerSpec::robust(rate, cap).with_fault_window(FAULT_WINDOW_NS.0, FAULT_WINDOW_NS.1)
        }
        other => panic!("unknown server scenario {other:?}"),
    };
    spec.name = scenario.to_owned();
    spec.horizon_ns = HORIZON_NS;
    spec.measure_from_ns = MEASURE_FROM_NS;
    spec.with_env_overrides()
}

/// The scenario × thread-count spec list the study executes.
///
/// # Errors
///
/// Propagates configuration errors.
pub(crate) fn server_specs(params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let model = xalan();
    let mut specs = Vec::new();
    for scenario in SERVER_SCENARIOS {
        for &threads in &params.thread_counts {
            // The fault scenarios consult the GC-stall fault stream on
            // every pause inside the window; the baseline runs chaos-free.
            let mut chaos = ChaosConfig::default();
            if scenario != "no-fault" {
                chaos.gc_stall_period = 1;
                chaos.gc_stall_factor = GC_STALL_FACTOR;
            }
            let mut cfg = JvmConfig::builder();
            cfg.threads(threads)
                .seed(params.seed)
                .heap_bytes(server_heap_bytes(threads))
                .chaos(chaos)
                .server(scenario_spec(scenario, threads));
            specs.push(RunSpec {
                app: model.scaled(params.scale),
                config: cfg.build()?,
            });
        }
    }
    Ok(specs)
}

/// One row of the server study.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRow {
    /// Scenario name ("no-fault", "naive", "robust").
    pub policy: String,
    /// Worker-pool size (the run's mutator thread count).
    pub threads: usize,
    /// Whole-run latency percentiles in nanoseconds (`None` when the run
    /// produced no goodput at all).
    pub lat_p50_ns: Option<u64>,
    /// 99th-percentile latency.
    pub lat_p99_ns: Option<u64>,
    /// 99.9th-percentile latency.
    pub lat_p999_ns: Option<u64>,
    /// Requests completed within their timeout over the whole run.
    pub goodput: u64,
    /// Tail goodput over tail arrivals — the metastability metric.
    pub tail_ratio: f64,
    /// Requests shed by queue bound, admission, deadline, or degraded
    /// mode.
    pub sheds: u64,
    /// Client-observed timeouts.
    pub timeouts: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Whether the server entered degraded mode.
    pub degraded: bool,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

/// The overload-control study: scenario × thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStudy {
    /// One row per (scenario, thread count), scenario-major in
    /// [`SERVER_SCENARIOS`] order.
    pub rows: Vec<ServerRow>,
}

impl ServerStudy {
    /// The row for `(policy, threads)`.
    #[must_use]
    pub fn row(&self, policy: &str, threads: usize) -> Option<&ServerRow> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.threads == threads)
    }

    /// Tail goodput ratio for `(policy, threads)`.
    #[must_use]
    pub fn tail_ratio(&self, policy: &str, threads: usize) -> Option<f64> {
        self.row(policy, threads).map(|r| r.tail_ratio)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "policy", "threads", "p50", "p99", "p999", "goodput", "tail%", "sheds", "timeouts",
            "retries", "degraded", "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.policy.clone(),
                r.threads.to_string(),
                lat_cell(r.lat_p50_ns),
                lat_cell(r.lat_p99_ns),
                lat_cell(r.lat_p999_ns),
                r.goodput.to_string(),
                format!("{:.1}%", r.tail_ratio * 100.0),
                r.sheds.to_string(),
                r.timeouts.to_string(),
                r.retries.to_string(),
                if r.degraded { "yes" } else { "no" }.to_owned(),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// Latency cell in microseconds, or `-` when the run had no goodput.
fn lat_cell(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.0}us", ns as f64 / 1e3),
        None => "-".to_owned(),
    }
}

fn row_from(
    scenario: &str,
    threads: usize,
    stats: Option<&ServerStats>,
    outcome: &RunOutcome,
) -> ServerRow {
    ServerRow {
        policy: scenario.to_owned(),
        threads,
        lat_p50_ns: stats.and_then(|s| s.latency_p(0.50)),
        lat_p99_ns: stats.and_then(|s| s.latency_p(0.99)),
        lat_p999_ns: stats.and_then(|s| s.latency_p(0.999)),
        goodput: stats.map_or(0, |s| s.goodput),
        tail_ratio: stats.map_or(0.0, ServerStats::tail_goodput_ratio),
        sheds: stats.map_or(0, |s| s.sheds),
        timeouts: stats.map_or(0, |s| s.timeouts),
        retries: stats.map_or(0, |s| s.retries),
        degraded: stats.is_some_and(|s| s.degraded),
        outcome: outcome.clone(),
    }
}

/// Runs `ext-server`: every scenario at every thread count.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_server_study(params: &ExpParams) -> Result<ServerStudy, SimError> {
    let specs = server_specs(params)?;
    Ok(server_study(&specs, &run_all(&specs)))
}

/// The study drawn from `ext-server`'s specs and their reports.
pub(crate) fn server_study(specs: &[RunSpec], reports: &[RunReport]) -> ServerStudy {
    ServerStudy {
        rows: specs
            .iter()
            .zip(reports)
            .map(|(s, r)| {
                let scenario = s.config.server.as_ref().map_or("", |v| v.name.as_str());
                row_from(scenario, s.config.threads, r.server.as_ref(), &r.outcome)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpParams {
        ExpParams::quick()
            .with_scale(0.01)
            .with_threads(vec![4, 16])
    }

    #[test]
    fn specs_key_on_the_scenario() {
        let params = tiny();
        let specs = server_specs(&params).unwrap();
        assert_eq!(
            specs.len(),
            SERVER_SCENARIOS.len() * params.thread_counts.len()
        );
        // Same threads/seed under two policies must not share a memo key.
        let per = params.thread_counts.len();
        assert_ne!(specs[0].memo_key(), specs[per].memo_key());
        assert_ne!(specs[per].memo_key(), specs[2 * per].memo_key());
    }

    #[test]
    fn rate_and_admission_scale_with_the_worker_pool() {
        let four = scenario_spec("robust", 4);
        let fortyeight = scenario_spec("robust", 48);
        assert_eq!(
            four.arrival,
            scalesim_workloads::ArrivalProcess::OpenPoisson {
                rate_per_sec: 4 * RATE_PER_THREAD
            }
        );
        assert_eq!(fortyeight.policy.admission_cap, Some(48 * 16));
        // Fault scenarios carry the window; the baseline does not.
        assert_eq!(four.fault_window_ns, Some(FAULT_WINDOW_NS));
        assert_eq!(scenario_spec("no-fault", 4).fault_window_ns, None);
    }

    /// The server engine is pinned byte for byte, not only by the ratio
    /// checks below.
    #[test]
    fn study_matches_the_ext_server_golden() {
        let params = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 16]);
        let s = run_server_study(&params).unwrap();
        let golden = include_str!("../goldens/ext_server.csv");
        assert_eq!(
            s.table().to_csv(),
            golden,
            "ext-server output drifted from its golden"
        );
    }

    #[test]
    fn study_covers_every_scenario_and_thread_count() {
        let params = tiny();
        let s = run_server_study(&params).unwrap();
        assert_eq!(
            s.rows.len(),
            SERVER_SCENARIOS.len() * params.thread_counts.len()
        );
        for scenario in SERVER_SCENARIOS {
            for &threads in &params.thread_counts {
                let row = s.row(scenario, threads).expect("row");
                assert_eq!(row.outcome, RunOutcome::Ok, "{scenario}/{threads}");
                assert!(row.goodput > 0, "{scenario}/{threads} served nothing");
            }
        }
        let t = s.table();
        assert_eq!(t.num_rows(), s.rows.len());
    }

    #[test]
    fn fault_scenarios_pay_for_the_stall_while_it_is_active() {
        // Whole-run goodput under the naive policy must be below the
        // no-fault baseline — the stall itself costs throughput even
        // before any metastability sets in. (The metastability golden —
        // tail goodput staying collapsed after the fault — lives in the
        // repo-root integration tests at full scale.)
        // At the largest sweep point the offered load (which scales with
        // the worker count) makes the stretched stall overrun the client
        // timeout; smaller points may ride the fault out, so the check is
        // on the top of the sweep.
        let params = tiny();
        let s = run_server_study(&params).unwrap();
        let threads = *params.thread_counts.iter().max().unwrap();
        let base = s.row("no-fault", threads).unwrap();
        let naive = s.row("naive", threads).unwrap();
        assert!(
            naive.goodput < base.goodput,
            "naive {} vs baseline {} at {threads} threads",
            naive.goodput,
            base.goodput
        );
        assert!(naive.timeouts > 0, "the stall must cause timeouts");
    }
}
