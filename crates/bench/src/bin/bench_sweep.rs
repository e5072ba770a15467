//! The headline benchmark: times the full figure sweep at the pinned
//! paper seed and writes `BENCH_sweep.json`.
//!
//! The measurements, all on one process:
//!
//! 1. **Queue microbench** — the slab [`EventQueue`] on a
//!    schedule/cancel/pop/`shift_all` churn, reported as events per
//!    second.
//! 2. **Memoized sweep** — every paper artifact of the registry
//!    ([`ARTIFACTS`] without the `ext-*` extensions) back to back on a
//!    cold cache, the production configuration. `sweep_wall_ms` and
//!    `events_per_sec` (unique simulated events / wall) come from here.
//! 3. **Unmemoized sweep** — the same drivers with `SCALESIM_NO_MEMO=1`,
//!    i.e. what the harness did before runs were shared across figures.
//! 4. **Checkpointed sweep** — the memoized sweep again with the durable
//!    checkpoint store active, i.e. every unique run appended to a
//!    crc-framed JSONL segment as it completes. The relative slowdown
//!    (`checkpoint_overhead_pct`) is budgeted at <= 3%.
//! 5. **Invariant-monitor overhead** — one xalan run timed with the
//!    always-on monitors enabled and disabled, reported as events per
//!    second each plus the relative slowdown (budgeted at < 10%).
//! 6. **Timeline-trace overhead** — the same xalan run timed with the
//!    timeline recorder off and on. Trace-off is the production default,
//!    so its throughput must stay within ~2% of a baseline timing of the
//!    identical configuration: that delta bounds what the disabled
//!    recorder hooks cost on the hot path (plus host noise).
//! 7. **Audit overhead** — the concurrency auditor over one traced
//!    xalan run's timeline, relative to producing the run itself
//!    (budgeted at <= 3%). The pass is two orders of magnitude cheaper
//!    than the run, so it is timed directly (best audit wall over best
//!    run wall) rather than as an A/B pair difference.
//! 8. **Campaign overhead** — a scalability sweep run as a
//!    single-process campaign (`campaign::run_local`: lease files,
//!    per-worker segment appends, and the deterministic merge, then the
//!    table rendered from the merged memo) vs the
//!    same sweep in-process, budgeted at <= 3%. The sweep uses fewer,
//!    larger units than the broad bench grid so the fixed per-unit
//!    machinery cost is priced against realistically-sized runs. This
//!    prices the fault-tolerance machinery, not multi-process scaling.
//! 9. **Analytics overhead** — the offline scalability-analytics pass
//!    (USL fitting, time attribution, artifact serialization) over a
//!    just-completed scalability sweep, relative to producing the sweep
//!    itself (budgeted at <= 3%). The sweep leaves the memo cache warm,
//!    so the timed pass prices only the analytics, and like the audit it
//!    is timed directly (best pass wall over best sweep wall).
//! 10. **Server overload-control overhead** — one healthy (no-fault,
//!     under-capacity) open-loop server run under the robust policy
//!     (admission counting, deadline bookkeeping, backoff machinery
//!     armed) vs the identical offered load under the naive policy whose
//!     per-request path skips all of it. Budgeted at <= 3%: overload
//!     control must be effectively free while the server is healthy —
//!     its cost may only appear when it is actually saving the server.
//!     The naive side's best events/s is the server engine's throughput
//!     (`server_events_per_sec`).
//!
//! Every A/B overhead above is measured over **N interleaved
//! (base, variant) pairs** after warmup, as the ratio of the two sides'
//! minimum timings (see [`interleaved_overhead`]): timing each side
//! single-shot lets slow host drift land entirely on one side (which is
//! how earlier revisions reported a negative monitor overhead), and
//! both medians and per-pair ratios still wander by several percent
//! when the host's throughput bursts on second timescales. Sub-noise
//! negatives are clamped to zero so the recorded fields are comparable
//! against their budgets. The min-ratio clamp can also hide a real but
//! sub-noise cost as exactly `0.00` (the long-standing
//! `campaign_overhead_pct: 0.00` reading), so the campaign measurement
//! additionally records `campaign_overhead_median_pct` — the *signed*
//! median per-pair delta, never clamped — as the drift-sensitive but
//! bias-free second opinion; the budget is still enforced against the
//! min-ratio bound.
//!
//! Usage: `bench_sweep [OUTPUT.json]` (default `BENCH_sweep.json`).
//! `bench_check` validates a written report against the budgets.

use std::hint::black_box;
use std::time::Instant;

use scalesim_bench::bench_params;
use scalesim_core::{Jvm, JvmConfig, TraceConfig};
use scalesim_experiments::campaign::{self, CampaignSpec};
use scalesim_experiments::{
    artifact_tables, cached_event_total, checkpoint, clear_run_cache, run_analytics,
    run_cache_size, run_scalability, take_run_manifests, take_sweep_failures, ExpParams, ARTIFACTS,
};
use scalesim_simkit::{EventQueue, SimDuration};
use scalesim_workloads::{xalan, ServerSpec};

/// Events delivered by the queue churn below.
const CHURN_EVENTS: u64 = 2_000_000;

/// Events per second of the slab queue on a schedule/cancel/pop/shift
/// churn: ~1k events pending, every 8th step cancels, every 64th pop
/// shifts all pending times (the mix the simulator's GC safepoints
/// produce).
fn queue_events_per_sec_slab() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let start = Instant::now();
    let mut ids = Vec::with_capacity(1024);
    let mut x = 0x9e37_79b9_7f4a_7c15u64; // splitmix-ish op stream
    let mut delivered = 0u64;
    for i in 0..1024u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.push(q.schedule_at(q.now() + SimDuration::from_nanos(x % 10_000), i));
    }
    while delivered < CHURN_EVENTS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x.is_multiple_of(8) && q.len() > 512 {
            if let Some(id) = ids.pop() {
                black_box(q.cancel(id));
            }
        }
        let (_, payload) = q.pop().expect("queue kept topped up");
        delivered += 1;
        if delivered.is_multiple_of(64) {
            q.shift_all(SimDuration::from_nanos(x % 500));
        }
        ids.push(q.schedule_at(q.now() + SimDuration::from_nanos(x % 10_000), payload));
    }
    black_box(q.now());
    CHURN_EVENTS as f64 / start.elapsed().as_secs_f64()
}

/// The paper's artifacts, back to back — "the full figure sweep".
fn figure_sweep(params: &ExpParams) {
    for a in ARTIFACTS.iter().filter(|a| !a.id.starts_with("ext-")) {
        black_box(
            artifact_tables(a.id, params)
                .expect("registry id")
                .expect(a.id),
        );
    }
}

fn sweep_wall_ms(params: &ExpParams) -> f64 {
    clear_run_cache();
    let start = Instant::now();
    figure_sweep(params);
    start.elapsed().as_secs_f64() * 1e3
}

/// Result of one interleaved A/B overhead measurement.
struct Overhead {
    /// Best-sample events/sec of the base side.
    base_eps: f64,
    /// Best-sample events/sec of the variant side.
    variant_eps: f64,
    /// Slowdown of the variant's best sample over the base's, clamped
    /// at zero (a variant cannot be genuinely faster than its base here
    /// — a negative ratio is host noise).
    pct: f64,
    /// Signed median of the per-pair deltas, never clamped: noisier
    /// than `pct` but free of the min-ratio clamp's zero bias, so a
    /// real-but-small cost shows up here even when `pct` reads 0.00.
    median_pct: f64,
}

fn time_one(f: &mut impl FnMut()) -> u128 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos()
}

/// Measures the relative cost of `variant` over `base` as the ratio of
/// the two sides' *minimum* timings across `pairs` interleaved
/// (base, variant) rounds after `warmup` untimed rounds. Pair order
/// alternates so slow host drift cancels instead of landing on
/// whichever side ran last. Host noise is strictly additive — a
/// scheduling or I/O burst only ever inflates a sample — so each
/// side's minimum converges on its clean execution time, where medians
/// (of samples or of per-pair ratios) still wander by several percent
/// on a bursty host. Both sides' intrinsic work is deterministic, so
/// the min-to-min ratio is the intrinsic overhead.
fn interleaved_overhead(
    label: &str,
    events: u64,
    warmup: u32,
    pairs: u32,
    mut base: impl FnMut(),
    mut variant: impl FnMut(),
) -> Overhead {
    assert!(pairs > 0, "need at least one timed pair");
    for _ in 0..warmup {
        base();
        variant();
    }
    let mut base_ns: Vec<u128> = Vec::with_capacity(pairs as usize);
    let mut var_ns: Vec<u128> = Vec::with_capacity(pairs as usize);
    let mut deltas: Vec<f64> = Vec::with_capacity(pairs as usize);
    for i in 0..pairs {
        let (b, v) = if i % 2 == 0 {
            let b = time_one(&mut base);
            let v = time_one(&mut variant);
            (b, v)
        } else {
            let v = time_one(&mut variant);
            let b = time_one(&mut base);
            (b, v)
        };
        base_ns.push(b);
        var_ns.push(v);
        deltas.push(v as f64 / b as f64 - 1.0);
    }
    base_ns.sort_unstable();
    var_ns.sort_unstable();
    deltas.sort_by(f64::total_cmp);
    let base_min = base_ns[0] as f64;
    let var_min = var_ns[0] as f64;
    let raw = (var_min / base_min - 1.0) * 100.0;
    let pair_med = deltas[deltas.len() / 2] * 100.0;
    println!(
        "{label:<28} min-ratio overhead {raw:+.2}% \
         (median pair {pair_med:+.2}%) over {pairs} pairs"
    );
    Overhead {
        base_eps: events as f64 / (base_min / 1e9),
        variant_eps: events as f64 / (var_min / 1e9),
        pct: raw.max(0.0),
        median_pct: pair_med,
    }
}

/// The A/B run both overhead studies time: one xalan run at the pinned
/// seed, with the given monitor/trace toggles.
fn bench_cfg(monitors: bool, trace: TraceConfig) -> JvmConfig {
    JvmConfig::builder()
        .threads(16)
        .seed(42)
        .monitors(monitors)
        .trace(trace)
        .build()
        .expect("bench config")
}

fn run_events(cfg: &JvmConfig) -> u64 {
    Jvm::new(cfg.clone())
        .run(&xalan().scaled(0.05))
        .expect("bench run")
        .events_processed
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let params = bench_params();
    assert_eq!(params.seed, 42, "benchmark seed must stay pinned");

    eprintln!("queue churn: {CHURN_EVENTS} events on the slab queue");
    let slab = queue_events_per_sec_slab();
    eprintln!("  {:.2} M events/s", slab / 1e6);

    eprintln!("figure sweep (memoized, cold cache)...");
    std::env::remove_var("SCALESIM_NO_MEMO");
    let memo_ms = sweep_wall_ms(&params);
    let runs = run_cache_size();
    let events = cached_event_total();
    let events_per_sec = events as f64 / (memo_ms / 1e3);
    eprintln!(
        "  {memo_ms:.0} ms, {runs} unique runs, {events} events, {:.2} M events/s",
        events_per_sec / 1e6
    );

    eprintln!("figure sweep (memoized, cold cache, checkpoint store on, interleaved pairs)...");
    let ckpt_dir = std::env::temp_dir().join(format!("scalesim-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    // The variant owns the store lifecycle (create, append, fsynced
    // rotation) so the timed cost is the whole price of durable
    // checkpointing; each pair starts from an empty numbered
    // subdirectory, and tearing old stores down is bench scaffolding
    // kept outside the timed region.
    // 9 pairs, not 5: the variant does file I/O the base side doesn't,
    // so virtio writeback bursts land asymmetrically and a 5-sample
    // median still wanders on a noisy host.
    let ckpt_round = std::cell::Cell::new(0u32);
    let ckpt = interleaved_overhead(
        "memo -> memo+checkpoint",
        events,
        1,
        9,
        || {
            black_box(sweep_wall_ms(&params));
        },
        || {
            let dir = ckpt_dir.join(ckpt_round.get().to_string());
            ckpt_round.set(ckpt_round.get() + 1);
            checkpoint::set_store(&dir).expect("checkpoint store");
            black_box(sweep_wall_ms(&params));
            checkpoint::disable_store();
        },
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_ms = events as f64 / ckpt.variant_eps * 1e3;
    let ckpt_overhead_pct = ckpt.pct;
    eprintln!("  {ckpt_ms:.0} ms  (checkpoint overhead {ckpt_overhead_pct:.1}%, budget <= 3%)");

    eprintln!("figure sweep (memoization disabled)...");
    std::env::set_var("SCALESIM_NO_MEMO", "1");
    let nomemo_ms = sweep_wall_ms(&params);
    std::env::remove_var("SCALESIM_NO_MEMO");
    eprintln!(
        "  {nomemo_ms:.0} ms  (memo speedup {:.2}x)",
        nomemo_ms / memo_ms
    );

    eprintln!("campaign overhead (scalability sweep via run_local, interleaved pairs)...");
    std::env::remove_var("SCALESIM_NO_MEMO");
    // The campaign machinery costs a fixed handful of file operations
    // per unit, so its relative overhead depends on unit duration.
    // Production units run for seconds; measure against units at least
    // in the tens-of-milliseconds, not the ~7 ms toys the broad-grid
    // bench params produce, or the budget prices syscall latency on the
    // bench host instead of the machinery.
    let camp_params = ExpParams::paper()
        .with_scale(0.2)
        .with_threads(vec![16, 48]);
    clear_run_cache();
    let _ = take_run_manifests();
    let _ = take_sweep_failures();
    black_box(run_scalability(&camp_params).expect("scaletable"));
    let events_campaign = cached_event_total();
    let _ = take_run_manifests();
    let camp_dir =
        std::env::temp_dir().join(format!("scalesim-bench-campaign-{}", std::process::id()));
    let camp_spec = CampaignSpec {
        artifact: "scaletable".to_owned(),
        params: camp_params.clone(),
    };
    // Every pair pays the full fault-tolerance price — a fresh init,
    // one lease + done marker per unit, segment appends, and the merge
    // — by running into a numbered fresh subdirectory. Tearing the old
    // directories down is bench scaffolding, so it stays outside the
    // timed region.
    let camp_round = std::cell::Cell::new(0u32);
    let camp = interleaved_overhead(
        "sweep -> campaign",
        events_campaign,
        1,
        9,
        || {
            clear_run_cache();
            black_box(run_scalability(&camp_params).expect("scaletable"));
            let _ = take_run_manifests();
            let _ = take_sweep_failures();
        },
        || {
            let dir = camp_dir.join(camp_round.get().to_string());
            camp_round.set(camp_round.get() + 1);
            black_box(campaign::run_local(&dir, &camp_spec).expect("campaign"));
            black_box(artifact_tables("scaletable", &camp_params).expect("registry id"))
                .expect("scaletable");
            let _ = take_run_manifests();
            let _ = take_sweep_failures();
        },
    );
    let _ = std::fs::remove_dir_all(&camp_dir);
    let campaign_overhead_pct = camp.pct;
    let campaign_overhead_median_pct = camp.median_pct;
    eprintln!(
        "  campaign overhead {campaign_overhead_pct:.1}% \
         (signed median {campaign_overhead_median_pct:+.1}%, budget <= 3%)"
    );

    eprintln!("server overload-control overhead (healthy load, naive vs robust, interleaved)...");
    // Identical offered load, zero faults, comfortably under capacity:
    // the robust side arms admission counting, deadline bookkeeping, and
    // backoff machinery that never fires, so the pair prices the pure
    // cost of having overload control switched on.
    let mut srv_naive = ServerSpec::naive(100_000);
    srv_naive.horizon_ns = 300_000_000;
    srv_naive.measure_from_ns = 200_000_000;
    let mut srv_robust = ServerSpec::robust(100_000, 256);
    srv_robust.horizon_ns = srv_naive.horizon_ns;
    srv_robust.measure_from_ns = srv_naive.measure_from_ns;
    let server_cfg = |spec: ServerSpec| {
        let mut cfg = JvmConfig::builder();
        cfg.threads(16).seed(42).heap_bytes(16 << 20).server(spec);
        cfg.build().expect("server bench config")
    };
    let cfg_srv_naive = server_cfg(srv_naive);
    let cfg_srv_robust = server_cfg(srv_robust);
    let srv_app = xalan().scaled(0.05);
    let events_srv = Jvm::new(cfg_srv_naive.clone())
        .run(&srv_app)
        .expect("server bench run")
        .events_processed;
    let srv = interleaved_overhead(
        "server naive->robust",
        events_srv,
        2,
        15,
        || {
            black_box(
                Jvm::new(cfg_srv_naive.clone())
                    .run(&srv_app)
                    .expect("server bench run"),
            );
        },
        || {
            black_box(
                Jvm::new(cfg_srv_robust.clone())
                    .run(&srv_app)
                    .expect("server bench run"),
            );
        },
    );
    let server_overhead_pct = srv.pct;
    let server_events_per_sec = srv.base_eps;
    eprintln!(
        "  naive {:.2} M events/s, robust {:.2} M events/s, overhead {:.1}% (budget <= 3%)",
        srv.base_eps / 1e6,
        srv.variant_eps / 1e6,
        server_overhead_pct
    );

    eprintln!("invariant-monitor overhead (xalan, 16 threads, interleaved pairs)...");
    let app = xalan().scaled(0.05);
    let cfg_off = bench_cfg(false, TraceConfig::off());
    let cfg_on = bench_cfg(true, TraceConfig::off());
    let events_ab = run_events(&cfg_off);
    let mon = interleaved_overhead(
        "monitors off->on",
        events_ab,
        2,
        50,
        || {
            black_box(Jvm::new(cfg_off.clone()).run(&app).expect("bench run"));
        },
        || {
            black_box(Jvm::new(cfg_on.clone()).run(&app).expect("bench run"));
        },
    );
    eprintln!(
        "  off {:.2} M events/s, on {:.2} M events/s, overhead {:.1}% (budget < 10%)",
        mon.base_eps / 1e6,
        mon.variant_eps / 1e6,
        mon.pct
    );

    eprintln!("timeline-trace overhead (xalan, 16 threads, interleaved pairs)...");
    let cfg_trace_off = bench_cfg(true, TraceConfig::off());
    let cfg_trace_on = bench_cfg(true, TraceConfig::on());
    let trace = interleaved_overhead(
        "trace off->on",
        events_ab,
        2,
        50,
        || {
            black_box(
                Jvm::new(cfg_trace_off.clone())
                    .run(&app)
                    .expect("bench run"),
            );
        },
        || {
            black_box(Jvm::new(cfg_trace_on.clone()).run(&app).expect("bench run"));
        },
    );
    // Trace-off is the production default: pair it against the identical
    // configuration so the median delta bounds what the disabled recorder
    // hooks cost (anything beyond host noise).
    let trace_off_floor = interleaved_overhead(
        "trace off->off (noise floor)",
        events_ab,
        2,
        50,
        || {
            black_box(
                Jvm::new(cfg_trace_off.clone())
                    .run(&app)
                    .expect("bench run"),
            );
        },
        || {
            black_box(
                Jvm::new(cfg_trace_off.clone())
                    .run(&app)
                    .expect("bench run"),
            );
        },
    );
    let trace_overhead_pct = trace.pct;
    let trace_off_overhead_pct = trace_off_floor.pct;
    eprintln!(
        "  off {:.2} M events/s, on {:.2} M events/s, recording cost {:.1}%, \
         trace-off cost vs identical baseline {:.1}% (budget <= 2%)",
        trace.base_eps / 1e6,
        trace.variant_eps / 1e6,
        trace_overhead_pct,
        trace_off_overhead_pct
    );

    eprintln!("audit overhead (auditing one traced xalan run)...");
    // The audit pass is two orders of magnitude cheaper than the run that
    // produces its timeline, so an A/B difference of two run timings would
    // drown it in host noise. Time the pass directly instead: each round
    // times the run and then the audit of that run's own timeline, and the
    // overhead is the ratio of the best samples (as in
    // `interleaved_overhead`, additive host noise only ever inflates a
    // sample, so each minimum converges on the clean time).
    let audit_rounds = 7usize;
    let mut audit_run_ns: Vec<u128> = Vec::with_capacity(audit_rounds);
    let mut audit_ns: Vec<u128> = Vec::with_capacity(audit_rounds);
    for round in 0..=audit_rounds {
        let start = Instant::now();
        let report = Jvm::new(cfg_trace_on.clone()).run(&app).expect("bench run");
        let run_ns = start.elapsed().as_nanos();
        let start = Instant::now();
        let audit = scalesim_audit::audit(&report.timeline, &report.counters, false);
        let pass_ns = start.elapsed().as_nanos();
        assert!(audit.is_clean(), "bench run must audit clean: {audit}");
        if round > 0 {
            // Round 0 is untimed warmup.
            audit_run_ns.push(run_ns);
            audit_ns.push(pass_ns);
        }
    }
    audit_run_ns.sort_unstable();
    audit_ns.sort_unstable();
    let audit_overhead_pct = audit_ns[0] as f64 * 100.0 / audit_run_ns[0].max(1) as f64;
    eprintln!("  audit overhead {audit_overhead_pct:.1}% (budget <= 3%)");

    eprintln!("analytics overhead (USL fit + attribution over a cached scalability sweep)...");
    // Same shape as the audit measurement: the analytics pass runs over
    // results the sweep already produced, and is far cheaper than the
    // sweep, so an A/B pair difference would drown in host noise. Each
    // round runs the sweep cold (pricing the producer) and then the
    // analytics pass against the now-warm memo cache (pricing only the
    // fitting, attribution, and serialization work); the overhead is the
    // ratio of the two best samples.
    let analytics_rounds = 7usize;
    let mut analytics_sweep_ns: Vec<u128> = Vec::with_capacity(analytics_rounds);
    let mut analytics_ns: Vec<u128> = Vec::with_capacity(analytics_rounds);
    for round in 0..=analytics_rounds {
        clear_run_cache();
        let start = Instant::now();
        black_box(run_scalability(&params).expect("scaletable"));
        let sweep_ns = start.elapsed().as_nanos();
        let start = Instant::now();
        let report = run_analytics(&params).expect("analytics");
        black_box(report.to_json_string());
        let pass_ns = start.elapsed().as_nanos();
        let _ = take_run_manifests();
        let _ = take_sweep_failures();
        if round > 0 {
            // Round 0 is untimed warmup.
            analytics_sweep_ns.push(sweep_ns);
            analytics_ns.push(pass_ns);
        }
    }
    analytics_sweep_ns.sort_unstable();
    analytics_ns.sort_unstable();
    let analytics_overhead_pct =
        analytics_ns[0] as f64 * 100.0 / analytics_sweep_ns[0].max(1) as f64;
    eprintln!("  analytics overhead {analytics_overhead_pct:.1}% (budget <= 3%)");

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"events_per_sec\": {eps:.0},\n  \"sweep_wall_ms\": {memo:.1},\n  \"sweep_wall_ms_nomemo\": {nomemo:.1},\n  \"sweep_wall_ms_checkpoint\": {ckpt:.1},\n  \"checkpoint_overhead_pct\": {ckpt_pct:.2},\n  \"memo_speedup\": {mspeed:.2},\n  \"unique_runs\": {runs},\n  \"events_simulated\": {events},\n  \"queue_events_per_sec_slab\": {qslab:.0},\n  \"server_events_per_sec\": {srv_eps:.0},\n  \"events_per_sec_monitors_on\": {mon_on:.0},\n  \"events_per_sec_monitors_off\": {mon_off:.0},\n  \"monitor_overhead_pct\": {mon_pct:.2},\n  \"events_per_sec_trace_off\": {troff:.0},\n  \"events_per_sec_trace_on\": {tron:.0},\n  \"trace_overhead_pct\": {tr_pct:.2},\n  \"trace_off_overhead_pct\": {troff_pct:.2},\n  \"audit_overhead_pct\": {audit_pct:.2},\n  \"campaign_overhead_pct\": {camp_pct:.2},\n  \"campaign_overhead_median_pct\": {camp_med_pct:.2},\n  \"server_overhead_pct\": {srv_pct:.2},\n  \"analytics_overhead_pct\": {ana_pct:.2}\n}}\n",
        seed = params.seed,
        eps = events_per_sec,
        memo = memo_ms,
        nomemo = nomemo_ms,
        ckpt = ckpt_ms,
        ckpt_pct = ckpt_overhead_pct,
        mspeed = nomemo_ms / memo_ms,
        runs = runs,
        events = events,
        qslab = slab,
        srv_eps = server_events_per_sec,
        mon_on = mon.variant_eps,
        mon_off = mon.base_eps,
        mon_pct = mon.pct,
        troff = trace.base_eps,
        tron = trace.variant_eps,
        tr_pct = trace_overhead_pct,
        troff_pct = trace_off_overhead_pct,
        audit_pct = audit_overhead_pct,
        camp_pct = campaign_overhead_pct,
        camp_med_pct = campaign_overhead_median_pct,
        srv_pct = server_overhead_pct,
        ana_pct = analytics_overhead_pct,
    );
    scalesim_trace::write_atomic(std::path::Path::new(&out), &json)
        .expect("write benchmark report");
    println!("{json}");
    eprintln!("wrote {out}");
}
