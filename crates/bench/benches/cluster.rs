//! Cluster-core speed trajectory: times the 1000-replica diurnal
//! scenario on the current event core, probes the streaming-aggregation
//! memory bound, checks sharded determinism across worker counts, and
//! writes `BENCH_cluster.json` at the repo root. CI runs this as the
//! cluster-core timing smoke; `docs/SCALE.md` explains each field.
//!
//! The `trajectory` array is an append-only history, like
//! `BENCH_par.json`'s: entries marked `"committed": true` are carried
//! forward verbatim, each run appends its own fresh entry, and a file
//! with no history is seeded with the committed pre-heap baseline.
//! `tests/bench_history.rs` pins the ordering and the baseline.
//!
//! Wall-clock is read here and in the other `benches/` targets only —
//! these numbers describe the simulator's own speed and never feed
//! simulated time.

use std::hint::black_box;
use std::time::Instant;

use moe_bench::timing::committed_history;
use moe_cluster::{
    generate, run_sharded, ArrivalProcess, ClusterConfig, ClusterReport, ClusterSim, FaultPlan,
    RoutePolicy, ShardPlan, TenantSpec, WorkloadSpec, WorkloadStream,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_json::Json;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::Tracer;

/// Replicas in the benchmark cell.
const REPLICAS: usize = 1000;
/// Requests in the standard scenario.
const REQUESTS: usize = 20_000;

/// Committed pre-change baseline for the events/sec trajectory, measured
/// on this scenario with the linear five-source scan + `Vec` front-pop
/// core (commit 1a3a2ba, release build): 820_234 events in 6.884 s.
/// The current core must process the *same* event definition — faults
/// applied + step completions + retry releases + arrivals + timeout
/// firings — so the ratio is apples to apples.
const BASELINE_LABEL: &str = "linear-scan core (pre event-heap)";
const BASELINE_EVENTS_PER_S: f64 = 119_150.0;

/// The benchmark scenario: ~0.6M simulated users (peak 2000 QPS at a
/// 300 s think time) on a diurnal cycle, against 1000 single-H100
/// OLMoE replicas with TTFT timeouts, retries and a seeded crash plan.
fn spec(requests: usize) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Diurnal {
            base_qps: 400.0,
            peak_qps: 2000.0,
            period_s: 300.0,
        },
        num_requests: requests,
        tenants: vec![TenantSpec::uniform("u", 1.0, (128, 512), (16, 64))],
    }
}

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        replicas: REPLICAS,
        policy: RoutePolicy::LeastOutstanding,
        prefix_capacity: 0,
        seed: 42,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.0;
    cfg
}

fn faults() -> FaultPlan {
    FaultPlan::random_crashes(42, REPLICAS, 15.0, 10, 5.0)
}

/// Run the standard scenario once; wall-clock covers only the event
/// loop, not trace generation.
fn run_once(requests: usize) -> (ClusterReport, f64) {
    let model = PerfModel::h100(olmoe_1b_7b());
    let trace = generate(&spec(requests), 42);
    let sim = ClusterSim::sized_for(&model, 2048, config(), faults(), trace);
    let t0 = Instant::now();
    let report = sim.run(&mut Tracer::disabled());
    let wall = t0.elapsed().as_secs_f64();
    (report, wall)
}

/// Constant-rate variant of the scenario for the memory probe. The
/// diurnal cycle would confound an N-vs-4N comparison (a longer trace
/// reaches deeper into the traffic peak, so concurrency legitimately
/// grows); stationary Poisson arrivals hold offered concurrency fixed
/// while only the trace length changes.
fn poisson_spec(requests: usize) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_qps: 1000.0 },
        num_requests: requests,
        tenants: vec![TenantSpec::uniform("u", 1.0, (128, 512), (16, 64))],
    }
}

/// Peak live requests under a lazily generated arrival stream — the
/// simulator's memory high-water mark in requests.
fn peak_live_streaming(requests: usize) -> usize {
    let model = PerfModel::h100(olmoe_1b_7b());
    let sched = scheduler_config_for(&model, 2048);
    let source = Box::new(WorkloadStream::new(poisson_spec(requests), 42));
    ClusterSim::with_source(&model, sched, config(), faults(), source)
        .run(&mut Tracer::disabled())
        .peak_live
}

/// The standard scenario sharded 50x20, serialized — the byte-identity
/// probe across forced worker counts.
fn sharded_json() -> String {
    let model = PerfModel::h100(olmoe_1b_7b());
    let sched = scheduler_config_for(&model, 2048);
    let trace = generate(&spec(REQUESTS), 42);
    let plan = ShardPlan::single_region(50, REPLICAS / 50);
    let report = run_sharded(&model, sched, &config(), &plan, &faults(), &trace);
    moe_json::to_string(&report)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };

    // Warm up allocator and model tables once, untimed.
    eprintln!("warming up (one untimed pass) ...");
    black_box(run_once(REQUESTS / 4));

    eprintln!("timing the 1000-replica diurnal scenario ({reps} reps, best-of) ...");
    let mut best_wall = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let (r, wall) = run_once(REQUESTS);
        best_wall = best_wall.min(wall);
        report = Some(r);
    }
    let report = report.expect("at least one rep ran");
    let events_per_s = report.events as f64 / best_wall;
    let speedup = events_per_s / BASELINE_EVENTS_PER_S;
    println!(
        "heap core: {} events in {:.3} s = {:.0} events/s ({speedup:.1}x over {BASELINE_LABEL}), \
         completed {}/{}, timed_out {}, dropped {}, makespan {:.2} s, peak_live {}",
        report.events,
        best_wall,
        events_per_s,
        report.completed,
        report.submitted,
        report.timed_out,
        report.dropped,
        report.makespan_s,
        report.peak_live,
    );

    // Memory bound: streaming aggregation keeps the high-water mark a
    // function of concurrency, so 4x the trace must not move it 4x.
    // Measured on the constant-rate Poisson variant so concurrency is
    // stationary across trace lengths.
    eprintln!("probing streaming memory bound (N vs 4N requests) ...");
    let (n_small, n_large) = if quick {
        (REQUESTS / 4, REQUESTS)
    } else {
        (REQUESTS, REQUESTS * 4)
    };
    let peak_small = peak_live_streaming(n_small);
    let peak_large = peak_live_streaming(n_large);
    let peak_ratio = peak_large as f64 / (peak_small as f64).max(1.0);
    println!(
        "peak_live: {peak_small} @ {n_small} requests vs {peak_large} @ {n_large} requests \
         (ratio {peak_ratio:.2}; trace grew {:.0}x)",
        n_large as f64 / n_small as f64,
    );
    assert!(
        peak_ratio < 2.0,
        "peak_live must track concurrency, not trace length"
    );

    // Sharded determinism: the merged report must be byte-identical for
    // any forced worker count (the tests/determinism.rs gate, re-run
    // here on the full benchmark scenario).
    eprintln!("checking sharded byte-identity across 1/2/8 workers ...");
    let mut shard_jsons = Vec::new();
    for workers in [1usize, 2, 8] {
        moe_par::set_workers_for_test(workers);
        shard_jsons.push(sharded_json());
    }
    moe_par::set_workers_for_test(0);
    assert!(
        shard_jsons.windows(2).all(|w| w[0] == w[1]),
        "sharded merge diverged across worker counts"
    );
    println!("sharded 50x20 merge byte-identical across MOE_THREADS=1/2/8");

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    let mut trajectory = committed_history(path, "trajectory");
    if trajectory.is_empty() {
        trajectory.push(Json::Obj(vec![
            ("core".into(), Json::Str(BASELINE_LABEL.into())),
            ("events_per_s".into(), Json::Float(BASELINE_EVENTS_PER_S)),
            ("committed".into(), Json::Bool(true)),
        ]));
    }
    trajectory.push(Json::Obj(vec![
        (
            "core".into(),
            Json::Str("indexed event heap + streaming aggregation".into()),
        ),
        ("events_per_s".into(), Json::Float(events_per_s)),
        ("events".into(), Json::Int(report.events as i128)),
        ("wall_s".into(), Json::Float(best_wall)),
        ("speedup_vs_baseline".into(), Json::Float(speedup)),
        ("committed".into(), Json::Bool(false)),
    ]));
    let json = Json::Obj(vec![
        (
            "bench".into(),
            Json::Str("1000-replica diurnal cluster scenario".into()),
        ),
        ("replicas".into(), Json::Int(REPLICAS as i128)),
        ("requests".into(), Json::Int(REQUESTS as i128)),
        ("host_cores".into(), Json::Int(host_cores as i128)),
        ("reps".into(), Json::Int(reps as i128)),
        ("trajectory".into(), Json::Arr(trajectory)),
        (
            "memory".into(),
            Json::Obj(vec![
                ("peak_live_small".into(), Json::Int(peak_small as i128)),
                ("requests_small".into(), Json::Int(n_small as i128)),
                ("peak_live_large".into(), Json::Int(peak_large as i128)),
                ("requests_large".into(), Json::Int(n_large as i128)),
                ("peak_ratio".into(), Json::Float(peak_ratio)),
            ]),
        ),
        ("sharded_identical_across_workers".into(), Json::Bool(true)),
    ]);
    std::fs::write(path, json.render_pretty() + "\n").expect("write BENCH_cluster.json");
    println!("-> BENCH_cluster.json");
}
