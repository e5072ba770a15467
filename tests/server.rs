//! Server-scale request workloads, end to end: deterministic arrivals
//! and latency percentiles, the retry-storm metastability golden and its
//! elimination by backoff + admission control, attempt-conservation of
//! the overload counters, a snapshot/repro round-trip for a server spec,
//! and byte-identity of the `ext-server` artifact across a single-process
//! sweep, a resumed checkpoint, and a merged multi-process campaign.
//!
//! These tests share the process-wide run cache and checkpoint store, so
//! the ones that touch them serialize on one guard mutex.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use scalesim::experiments::{
    artifact_tables, campaign, checkpoint, clear_run_cache, run_server_study, take_run_manifests,
    take_sweep_failures, ExpParams,
};
use scalesim::runtime::{Jvm, JvmConfig, ReproSpec, RunReport};
use scalesim::workloads::{open_poisson_times, xalan, ServerSpec};

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-server-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A short, cheap spec for the direct-engine tests: the driver's policy
/// shape at a fraction of the driver's horizon.
fn short_spec() -> ServerSpec {
    let mut spec = ServerSpec::naive(60_000);
    spec.horizon_ns = 200_000_000;
    spec.measure_from_ns = 120_000_000;
    spec
}

fn run_spec(spec: ServerSpec, threads: usize, seed: u64) -> RunReport {
    let mut cfg = JvmConfig::builder();
    cfg.threads(threads)
        .seed(seed)
        .heap_bytes(16 << 20)
        .server(spec);
    Jvm::new(cfg.build().unwrap())
        .run(&xalan().scaled(0.01))
        .unwrap()
}

#[test]
fn arrival_schedule_is_a_pure_function_of_seed() {
    assert_eq!(
        open_poisson_times(80_000, 42, 300_000_000),
        open_poisson_times(80_000, 42, 300_000_000)
    );
    assert_ne!(
        open_poisson_times(80_000, 42, 300_000_000),
        open_poisson_times(80_000, 43, 300_000_000)
    );
}

#[test]
fn server_runs_and_percentiles_are_deterministic_at_the_pinned_seed() {
    let a = run_spec(short_spec(), 8, 42);
    let b = run_spec(short_spec(), 8, 42);
    let sa = a.server.as_ref().expect("server stats");
    let sb = b.server.as_ref().expect("server stats");
    assert_eq!(sa, sb, "server stats are bit-identical");
    for q in [0.50, 0.95, 0.99, 0.999] {
        assert_eq!(sa.latency_p(q), sb.latency_p(q), "p{q} differs");
    }
    let mut a2 = a.clone();
    let mut b2 = b.clone();
    a2.host_ns = 0;
    b2.host_ns = 0;
    assert_eq!(format!("{a2:?}"), format!("{b2:?}"), "full reports match");
    // Percentile ladder is monotone and populated.
    let p50 = sa.latency_p(0.50).expect("goodput recorded");
    let p999 = sa.latency_p(0.999).expect("goodput recorded");
    assert!(p50 <= p999, "{p50} > {p999}");
    // A different seed perturbs the workload.
    let c = run_spec(short_spec(), 8, 43);
    assert_ne!(sa, c.server.as_ref().unwrap());
}

#[test]
fn overload_counters_conserve_every_attempt() {
    for (threads, seed) in [(4, 42), (8, 42), (8, 7)] {
        let r = run_spec(short_spec(), threads, seed);
        let s = r.server.as_ref().expect("server stats");
        assert!(s.arrivals > 0);
        assert!(
            s.conserves(),
            "arrivals {} != goodput {} + orphans {} + sheds {} + timeouts {} + in_flight {}",
            s.arrivals,
            s.goodput,
            s.orphan_completions,
            s.sheds,
            s.timeouts,
            s.in_flight
        );
    }
}

#[test]
fn server_spec_survives_a_snapshot_repro_round_trip() {
    let app = xalan().scaled(0.01);
    let mut cfg = JvmConfig::builder();
    cfg.threads(6)
        .seed(42)
        .heap_bytes(16 << 20)
        .server(ServerSpec::robust(40_000, 96).with_fault_window(50_000_000, 80_000_000));
    let config = cfg.build().unwrap();
    let repro = ReproSpec::capture(&app, &config, 0xfeed);
    let json = repro.to_json().to_string();
    let parsed = ReproSpec::from_json(
        &scalesim::runtime::JsonValue::parse(&json).expect("repro json parses"),
    )
    .expect("repro json round-trips");
    let (app2, config2) = parsed.reconstruct().expect("repro reconstructs");
    assert_eq!(config2.server, config.server, "server spec survives");
    let a = Jvm::new(config).run(&app).unwrap();
    let b = Jvm::new(config2).run(&app2).unwrap();
    assert_eq!(a.server, b.server, "reconstructed run matches original");
}

/// The acceptance golden: at the pinned seed the naive policy's tail
/// goodput (measured after the injected GC stall has ended) collapses to
/// at least 40% below the no-fault baseline — the overload outlives the
/// fault — while backoff + admission control recovers to within 5%.
#[test]
fn retry_storm_is_metastable_under_naive_policy_and_eliminated_by_robust() {
    let _guard = guard();
    clear_run_cache();
    let _ = take_run_manifests();
    let params = ExpParams::quick().with_threads(vec![16]);
    let study = run_server_study(&params).unwrap();
    let base = study.tail_ratio("no-fault", 16).unwrap();
    let naive = study.tail_ratio("naive", 16).unwrap();
    let robust = study.tail_ratio("robust", 16).unwrap();
    assert!(base > 0.9, "no-fault baseline must be healthy: {base}");
    assert!(
        naive <= 0.6 * base,
        "naive tail goodput {naive} not >=40% below baseline {base}"
    );
    assert!(
        (robust - base).abs() <= 0.05 * base,
        "robust tail goodput {robust} not within 5% of baseline {base}"
    );
    // The signature observables behind the curves: the naive collapse is
    // a retry storm (timeouts retried immediately), the robust recovery
    // sheds load instead of amplifying it.
    let naive_row = study.row("naive", 16).unwrap();
    let robust_row = study.row("robust", 16).unwrap();
    assert!(naive_row.timeouts > 10 * robust_row.timeouts);
    assert!(naive_row.retries > robust_row.retries);
    let _ = take_run_manifests();
}

/// The `ext-server` artifact renders byte-identically whether the sweep
/// runs in one process, resumes from a half-written checkpoint store, or
/// merges from a multi-worker campaign directory.
#[test]
fn artifact_is_byte_identical_across_sweep_resume_and_campaign() {
    let _guard = guard();
    let params = ExpParams::quick().with_scale(0.01).with_threads(vec![16]);

    // Reference: one uninterrupted in-process sweep.
    checkpoint::disable_store();
    clear_run_cache();
    let _ = take_run_manifests();
    let reference = artifact_tables("ext-server", &params).unwrap().unwrap();
    let ref_csv = reference[0].table.to_csv();
    let ref_manifests: Vec<String> = take_run_manifests()
        .iter()
        .map(|m| {
            let mut m = m.clone();
            m.host_ns = 0;
            m.to_json_line()
        })
        .collect();
    assert_eq!(ref_manifests.len(), 3, "three scenarios at one grid point");

    // Checkpoint half the sweep, drop the in-memory cache, resume, and
    // finish: the rendered table must not change.
    let store = temp_dir("resume");
    clear_run_cache();
    checkpoint::set_store(&store).unwrap();
    let _ = artifact_tables("ext-server", &params).unwrap().unwrap();
    let _ = take_run_manifests();
    checkpoint::disable_store();
    clear_run_cache();
    let stats = checkpoint::resume_from(&store).unwrap();
    assert_eq!(stats.loaded, 3, "{stats:?}");
    let resumed = artifact_tables("ext-server", &params).unwrap().unwrap();
    let resumed_manifests: Vec<String> = take_run_manifests()
        .iter()
        .map(|m| {
            let mut m = m.clone();
            m.host_ns = 0;
            m.to_json_line()
        })
        .collect();
    assert_eq!(
        resumed[0].table.to_csv(),
        ref_csv,
        "resume changed the table"
    );
    assert_eq!(resumed_manifests, ref_manifests, "resume changed manifests");
    checkpoint::disable_store();
    let _ = std::fs::remove_dir_all(&store);

    // Campaign: drain the same artifact over a shared directory and
    // merge; the merged table must be byte-identical too.
    clear_run_cache();
    let dir = temp_dir("campaign");
    let spec = campaign::CampaignSpec {
        artifact: "ext-server".to_owned(),
        params,
    };
    campaign::run_local(&dir, &spec).unwrap();
    let merged = artifact_tables("ext-server", &spec.params)
        .unwrap()
        .unwrap();
    let degraded = !take_sweep_failures().is_empty()
        || take_run_manifests()
            .iter()
            .any(|m| m.outcome != "ok" || m.degraded);
    assert!(!degraded, "campaign finished clean");
    assert_eq!(merged[0].table.to_csv(), ref_csv, "campaign differs");
    let _ = std::fs::remove_dir_all(&dir);
    clear_run_cache();
    let _ = take_run_manifests();
}
