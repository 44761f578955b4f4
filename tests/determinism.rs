//! Tier-1 determinism gate: the same experiment run twice in one process
//! must produce byte-identical JSON reports.
//!
//! This is the end-to-end check behind the `no-unseeded-rng` and
//! `no-wall-clock` lint rules: if any entropy or host-timing leaked into
//! the pipeline (model init, placement, cost model, report rendering),
//! the second run would differ somewhere in the rendered bytes.

/// Reduced-scale Fig. 5 sweep (batch x top-k throughput grid), twice.
#[test]
fn fig5_fast_is_byte_identical_across_runs() {
    let render = || {
        let report = moe_bench::run_experiment("fig5", true, &mut moe_trace::Tracer::disabled())
            .expect("fig5 is registered");
        moe_json::to_string_pretty(&report)
    };
    let first = render();
    let second = render();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "fig5 fast sweep is not deterministic: rendered JSON differs between runs"
    );
}

/// The report also survives a parse round-trip unchanged, so the bytes on
/// disk are a faithful, stable encoding of the measured grid.
#[test]
fn fig5_fast_report_roundtrips_exactly() {
    let report = moe_bench::run_experiment("fig5", true, &mut moe_trace::Tracer::disabled())
        .expect("fig5 is registered");
    let json = moe_json::to_string_pretty(&report);
    let back: moe_bench::ExperimentReport = moe_json::from_str(&json).expect("parses back");
    assert_eq!(moe_json::to_string_pretty(&back), json);
}

fn traced_fig5() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report = moe_bench::run_experiment("fig5", true, &mut tracer).expect("fig5 is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// Same-seed traced runs must render byte-identical Chrome-trace JSON —
/// the trace is a pure function of the simulated timeline, with no
/// wall-clock or entropy leaking into timestamps or ordering.
#[test]
fn fig5_fast_trace_is_byte_identical_across_runs() {
    let (report1, trace1) = traced_fig5();
    let (report2, trace2) = traced_fig5();
    assert!(trace1.contains("\"traceEvents\""));
    assert_eq!(report1, report2);
    assert_eq!(
        trace1, trace2,
        "fig5 Chrome-trace JSON differs between same-seed runs"
    );
}

/// Tracing must observe, never perturb: the report rendered from a traced
/// run equals the untraced report byte for byte (a zero-byte diff), and
/// the trace itself parses as well-formed JSON.
#[test]
fn fig5_fast_tracing_does_not_perturb_report() {
    let plain = moe_json::to_string_pretty(
        &moe_bench::run_experiment("fig5", true, &mut moe_trace::Tracer::disabled())
            .expect("fig5 is registered"),
    );
    let (traced, trace) = traced_fig5();
    assert_eq!(plain, traced, "tracing changed the report bytes");
    let parsed = moe_json::parse(&trace).expect("trace is well-formed JSON");
    assert!(parsed.get("traceEvents").is_some());
}

/// The recorded spans must account for (essentially all of, and at least
/// 95% of) the simulated timeline on both the engine and bench tracks.
#[test]
fn fig5_fast_trace_covers_simulated_time() {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    moe_bench::run_experiment("fig5", true, &mut tracer).expect("fig5 is registered");
    let events = tracer.snapshot();
    assert!(!events.is_empty());
    for track in [moe_trace::ENGINE_TRACK, moe_trace::BENCH_TRACK] {
        let coverage = moe_trace::timeline_coverage(&events, track);
        assert!(coverage >= 0.95, "track {track}: coverage {coverage}");
    }
}

fn traced_cluster() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report = moe_bench::run_experiment("ext-cluster", true, &mut tracer)
        .expect("ext-cluster is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The multi-replica cluster simulator sits on top of every source of
/// nondeterminism this gate exists to catch — seeded arrival generation,
/// router tie-breaking, fault schedules, and event-loop ordering across
/// replicas. Same seed, twice, must render byte-identical report JSON
/// *and* byte-identical Chrome-trace JSON.
#[test]
fn ext_cluster_fast_report_and_trace_are_byte_identical_across_runs() {
    let (report1, trace1) = traced_cluster();
    let (report2, trace2) = traced_cluster();
    assert!(trace1.contains("\"traceEvents\""));
    assert_eq!(
        report1, report2,
        "ext-cluster report JSON differs between same-seed runs"
    );
    assert_eq!(
        trace1, trace2,
        "ext-cluster Chrome-trace JSON differs between same-seed runs"
    );
}

fn traced_plan() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report =
        moe_bench::run_experiment("ext-plan", true, &mut tracer).expect("ext-plan is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The planner composes every layer of the stack — workload generation,
/// analytic search, and cluster refinement. Same seed, twice, must render
/// byte-identical report JSON *and* byte-identical Chrome-trace JSON.
#[test]
fn ext_plan_fast_report_and_trace_are_byte_identical_across_runs() {
    let (report1, trace1) = traced_plan();
    let (report2, trace2) = traced_plan();
    assert!(trace1.contains("\"traceEvents\""));
    assert_eq!(
        report1, report2,
        "ext-plan report JSON differs between same-seed runs"
    );
    assert_eq!(
        trace1, trace2,
        "ext-plan Chrome-trace JSON differs between same-seed runs"
    );
}

/// Planner tracing must observe, never perturb: the traced report equals
/// the untraced one byte for byte, and the trace carries the planner
/// track the planner claims to emit.
#[test]
fn ext_plan_fast_tracing_does_not_perturb_report() {
    let plain = moe_json::to_string_pretty(
        &moe_bench::run_experiment("ext-plan", true, &mut moe_trace::Tracer::disabled())
            .expect("ext-plan is registered"),
    );
    let (traced, trace) = traced_plan();
    assert_eq!(plain, traced, "tracing changed the ext-plan report");
    let parsed = moe_json::parse(&trace).expect("trace is well-formed JSON");
    assert!(parsed.get("traceEvents").is_some());
    assert!(
        trace.contains("planner"),
        "planner track missing from trace"
    );
}

/// Cluster tracing must observe, never perturb: the traced report equals
/// the untraced one byte for byte, and the trace carries the router and
/// replica tracks the cluster claims to emit.
#[test]
fn ext_cluster_fast_tracing_does_not_perturb_report() {
    let plain = moe_json::to_string_pretty(
        &moe_bench::run_experiment("ext-cluster", true, &mut moe_trace::Tracer::disabled())
            .expect("ext-cluster is registered"),
    );
    let (traced, trace) = traced_cluster();
    assert_eq!(plain, traced, "tracing changed the ext-cluster report");
    let parsed = moe_json::parse(&trace).expect("trace is well-formed JSON");
    assert!(parsed.get("traceEvents").is_some());
    assert!(trace.contains("router"), "router track missing from trace");
    assert!(trace.contains("replica 0"), "replica tracks missing");
}

fn traced_qps() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report =
        moe_bench::run_experiment("ext-qps", true, &mut tracer).expect("ext-qps is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The single-engine serving path (a one-replica cluster whose replica
/// track carries kernel children and scheduler decisions). Same seed,
/// twice, must render byte-identical report JSON *and* byte-identical
/// Chrome-trace JSON.
#[test]
fn ext_qps_fast_report_and_trace_are_byte_identical_across_runs() {
    let (report1, trace1) = traced_qps();
    let (report2, trace2) = traced_qps();
    assert!(trace1.contains("\"traceEvents\""));
    assert_eq!(
        report1, report2,
        "ext-qps report JSON differs between same-seed runs"
    );
    assert_eq!(
        trace1, trace2,
        "ext-qps Chrome-trace JSON differs between same-seed runs"
    );
}

/// Serving-path tracing must observe, never perturb: the traced ext-qps
/// report equals the untraced one byte for byte, and the replica track
/// carries kernel children and scheduler decisions.
#[test]
fn ext_qps_fast_tracing_does_not_perturb_report() {
    let plain = moe_json::to_string_pretty(
        &moe_bench::run_experiment("ext-qps", true, &mut moe_trace::Tracer::disabled())
            .expect("ext-qps is registered"),
    );
    let (traced, trace) = traced_qps();
    assert_eq!(plain, traced, "tracing changed the ext-qps report");
    let parsed = moe_json::parse(&trace).expect("trace is well-formed JSON");
    assert!(parsed.get("traceEvents").is_some());
    for name in ["replica 0", "moe-ffn", "admit", "finish"] {
        assert!(
            trace.contains(name),
            "{name} missing from the ext-qps trace"
        );
    }
}

/// Full `moe-bench all --fast` pass: every report plus the composed
/// multi-experiment Chrome trace, rendered to bytes.
fn traced_run_all() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let reports = moe_bench::run_all(true, &mut tracer);
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&reports), trace)
}

/// Everything the parallel drivers produce, for one forced thread count.
struct MatrixSample {
    threads: usize,
    all_reports: String,
    all_trace: String,
    plan_report: String,
    plan_trace: String,
    cluster_report: String,
    cluster_trace: String,
}

/// Tests that sweep the worker-count override must not interleave: the
/// override is process-global, so two concurrent sweeps would clobber
/// each other's forced counts mid-run.
fn worker_override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn matrix_sample(threads: usize) -> MatrixSample {
    // The atomic override stands in for `MOE_THREADS`: mutating the
    // environment from a threaded test harness is racy, the override is
    // not, and `workers()` resolves it ahead of the env variable.
    moe_par::set_workers_for_test(threads);
    let (all_reports, all_trace) = traced_run_all();
    let (plan_report, plan_trace) = traced_plan();
    let (cluster_report, cluster_trace) = traced_cluster();
    moe_par::set_workers_for_test(0);
    MatrixSample {
        threads,
        all_reports,
        all_trace,
        plan_report,
        plan_trace,
        cluster_report,
        cluster_trace,
    }
}

/// The headline invariant of the `moe-par` rollout: the number of worker
/// threads is invisible in every produced byte. `moe-bench all --fast`
/// (all 25 reports *and* the composed multi-experiment trace), `ext-plan`
/// and `ext-cluster` must render identically for `MOE_THREADS` = 1, 2
/// and 8 — the work-stealing schedule may vary, the ordered reduction
/// and base-offset trace composition must hide it completely.
#[test]
fn thread_count_matrix_is_byte_identical() {
    let _guard = worker_override_lock();
    let baseline = matrix_sample(1);
    assert!(!baseline.all_reports.is_empty());
    assert!(baseline.all_trace.contains("\"traceEvents\""));
    for threads in [2usize, 8] {
        let sample = matrix_sample(threads);
        let pairs = [
            ("all reports", &baseline.all_reports, &sample.all_reports),
            ("all trace", &baseline.all_trace, &sample.all_trace),
            (
                "ext-plan report",
                &baseline.plan_report,
                &sample.plan_report,
            ),
            ("ext-plan trace", &baseline.plan_trace, &sample.plan_trace),
            (
                "ext-cluster report",
                &baseline.cluster_report,
                &sample.cluster_report,
            ),
            (
                "ext-cluster trace",
                &baseline.cluster_trace,
                &sample.cluster_trace,
            ),
        ];
        for (what, base, got) in pairs {
            assert_eq!(
                base, got,
                "{what} differs between {} and {} worker thread(s)",
                baseline.threads, sample.threads
            );
        }
    }
}

fn traced_ctrl() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report =
        moe_bench::run_experiment("ext-ctrl", true, &mut tracer).expect("ext-ctrl is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The control plane adds the last sources of nondeterminism this gate
/// guards against: monitor windows fed from streaming histograms, a
/// warm-started re-planner invoked mid-run, canary routing between plan
/// generations, live replica add/drain, and seeded spot preemptions —
/// all inside the event heap, with the static ladder fanned out on the
/// work-stealing pool. Same seed must render byte-identical report JSON
/// *and* byte-identical Chrome-trace JSON for `MOE_THREADS` = 1, 2 and
/// 8, and across repeated runs at the same count.
#[test]
fn ext_ctrl_fast_report_and_trace_are_byte_identical_across_thread_counts() {
    let _guard = worker_override_lock();
    let mut renders = Vec::new();
    for threads in [1usize, 1, 2, 8] {
        moe_par::set_workers_for_test(threads);
        renders.push((threads, traced_ctrl()));
    }
    moe_par::set_workers_for_test(0);
    let (_, (base_report, base_trace)) = &renders[0];
    assert!(base_trace.contains("\"traceEvents\""));
    assert!(base_report.contains("Headline"));
    for (threads, (report, trace)) in &renders[1..] {
        assert_eq!(
            base_report, report,
            "ext-ctrl report differs between 1 and {threads} worker thread(s)"
        );
        assert_eq!(
            base_trace, trace,
            "ext-ctrl trace differs between 1 and {threads} worker thread(s)"
        );
    }
}

fn traced_mem() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report =
        moe_bench::run_experiment("ext-mem", true, &mut tracer).expect("ext-mem is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The residency/offload family spans the whole derivation chain this
/// gate protects: a seeded engine generation run (trace capture), the
/// transition-table replay, hot-set selection, analytic offload pricing,
/// and two full planner searches. Same seed must render byte-identical
/// report JSON *and* byte-identical Chrome-trace JSON for `MOE_THREADS`
/// = 1, 2 and 8, and across repeated runs at the same count.
#[test]
fn ext_mem_fast_report_and_trace_are_byte_identical_across_thread_counts() {
    let _guard = worker_override_lock();
    let mut renders = Vec::new();
    for threads in [1usize, 1, 2, 8] {
        moe_par::set_workers_for_test(threads);
        renders.push((threads, traced_mem()));
    }
    moe_par::set_workers_for_test(0);
    let (_, (base_report, base_trace)) = &renders[0];
    assert!(base_report.contains("cost cliff"));
    for (threads, (report, trace)) in &renders[1..] {
        assert_eq!(
            base_report, report,
            "ext-mem report differs between 1 and {threads} worker thread(s)"
        );
        assert_eq!(
            base_trace, trace,
            "ext-mem trace differs between 1 and {threads} worker thread(s)"
        );
    }
}

fn traced_cap() -> (String, String) {
    let mut tracer = moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new()));
    let report =
        moe_bench::run_experiment("ext-cap", true, &mut tracer).expect("ext-cap is registered");
    let trace = moe_trace::chrome_trace_json(&tracer.snapshot(), tracer.tracks());
    (moe_json::to_string_pretty(&report), trace)
}

/// The device-zoo/CAP family covers the redesigned `DeviceProfile` API
/// end to end: registry lookups, per-class feasibility, a mixed-fleet
/// `plan_fleet` blend (whose composition enumeration and Pareto filter
/// must not depend on worker count), and bandwidth-scaled profile
/// variants. Same seed must render byte-identical report JSON *and*
/// byte-identical Chrome-trace JSON for `MOE_THREADS` = 1, 2 and 8, and
/// across repeated runs at the same count.
#[test]
fn ext_cap_fast_report_and_trace_are_byte_identical_across_thread_counts() {
    let _guard = worker_override_lock();
    let mut renders = Vec::new();
    for threads in [1usize, 1, 2, 8] {
        moe_par::set_workers_for_test(threads);
        renders.push((threads, traced_cap()));
    }
    moe_par::set_workers_for_test(0);
    let (_, (base_report, base_trace)) = &renders[0];
    assert!(base_report.contains("bandwidth knee"));
    for (threads, (report, trace)) in &renders[1..] {
        assert_eq!(
            base_report, report,
            "ext-cap report differs between 1 and {threads} worker thread(s)"
        );
        assert_eq!(
            base_trace, trace,
            "ext-cap trace differs between 1 and {threads} worker thread(s)"
        );
    }
}

/// One 1000-replica sharded run at planet scale, rendered to bytes:
/// 50 shards x 20 replicas, lazily streamed diurnal think-time traffic,
/// crash faults remapped per shard.
fn ext_scale_sharded_json() -> String {
    use moe_cluster::{
        run_sharded_stream, ClusterConfig, FaultPlan, RoutePolicy, ShardPlan, WorkloadSpec,
    };
    use moe_gpusim::perfmodel::PerfModel;
    use moe_model::registry::olmoe_1b_7b;

    let model = PerfModel::h100(olmoe_1b_7b());
    let plan = ShardPlan::single_region(50, 20);
    let mut cfg = ClusterConfig {
        policy: RoutePolicy::LeastOutstanding,
        seed: 42,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.0;
    let spec = WorkloadSpec::diurnal_users(100_000, 300.0, 2_500);
    let faults = FaultPlan::random_crashes(42, plan.replicas(), 15.0, 10, 5.0);
    let report = run_sharded_stream(&model, 2048, &cfg, &plan, &faults, &spec, 42);
    moe_json::to_string(&report)
}

/// The ext-scale determinism gate: the merged report of a 1000-replica
/// sharded diurnal run must render byte-identically for `MOE_THREADS` =
/// 1, 2 and 8 *and* across repeated runs at the same count. This is the
/// contract that makes `moe-par` sharding invisible: per-shard seeds
/// derive from the shard index (not the executor schedule) and the
/// merge folds shard reports in shard order.
#[test]
fn ext_scale_sharded_run_is_byte_identical_across_thread_counts() {
    let _guard = worker_override_lock();
    let mut renders = Vec::new();
    for threads in [1usize, 1, 2, 8] {
        moe_par::set_workers_for_test(threads);
        renders.push((threads, ext_scale_sharded_json()));
    }
    moe_par::set_workers_for_test(0);
    assert!(renders[0].1.contains("\"events\""));
    for (threads, render) in &renders[1..] {
        assert_eq!(
            &renders[0].1, render,
            "ext-scale sharded report differs between 1 and {threads} worker thread(s)"
        );
    }
}

/// Statistical sanity of streaming aggregation: percentiles read from
/// the cluster's log-bucketed histograms must agree with exact
/// percentiles computed from the retained per-request rows, within the
/// histogram's resolution (buckets grow ~2.2% per step; 5% leaves slack
/// for rank rounding).
#[test]
fn streaming_percentiles_match_exact_within_histogram_error() {
    use moe_cluster::{
        generate, ClusterConfig, ClusterSim, FaultPlan, RoutePolicy, TenantSpec, WorkloadSpec,
    };
    use moe_gpusim::perfmodel::PerfModel;
    use moe_model::registry::olmoe_1b_7b;

    let model = PerfModel::h100(olmoe_1b_7b());
    let spec = WorkloadSpec::poisson(
        60.0,
        600,
        TenantSpec::uniform("t", 1.0, (128, 512), (16, 64)),
    );
    let trace = generate(&spec, 7);
    let cfg = ClusterConfig {
        replicas: 4,
        policy: RoutePolicy::LeastOutstanding,
        seed: 7,
        retain_outputs: true,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::sized_for(&model, 2048, cfg, FaultPlan::none(), trace)
        .run(&mut moe_trace::Tracer::disabled());
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.outputs.len(), report.completed);

    let ttft: Vec<f64> = report.outputs.iter().map(|o| o.ttft_s()).collect();
    let e2e: Vec<f64> = report.outputs.iter().map(|o| o.e2e_s()).collect();
    let close = |streamed: f64, exact: f64, what: &str| {
        assert!(
            (streamed - exact).abs() <= 0.05 * exact.abs() + 1e-9,
            "{what}: streamed {streamed} vs exact {exact}"
        );
    };
    for (p, streamed, what) in [
        (50.0, report.ttft.p50_s, "ttft p50"),
        (95.0, report.ttft.p95_s, "ttft p95"),
        (99.0, report.ttft.p99_s, "ttft p99"),
    ] {
        close(streamed, moe_runtime::metrics::percentile(&ttft, p), what);
    }
    for (p, streamed, what) in [
        (50.0, report.e2e.p50_s, "e2e p50"),
        (95.0, report.e2e.p95_s, "e2e p95"),
        (99.0, report.e2e.p99_s, "e2e p99"),
    ] {
        close(streamed, moe_runtime::metrics::percentile(&e2e, p), what);
    }
}
