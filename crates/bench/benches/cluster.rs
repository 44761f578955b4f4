//! Cluster-core speed trajectory: times the 1000-replica diurnal
//! scenario on the current event core, times a KV-pressure cell whose
//! TTFT deadlines fire, probes the streaming-aggregation memory bound,
//! checks sharded determinism across worker counts, and writes
//! `BENCH_cluster.json` at the repo root. CI runs this as the
//! cluster-core timing smoke; `docs/SCALE.md` explains each field.
//!
//! Both timed cells run 5 repetitions (1 with `--quick`) and record
//! every repetition's events/s, the median and the best: one run of
//! 0.1 s is too noisy to resolve a change of a few tens of percent.
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
    generate, run_sharded, ArrivalProcess, ClusterConfig, ClusterReport, ClusterRequest,
    ClusterSim, FaultPlan, RoutePolicy, ShardPlan, TenantSpec, WorkloadSpec, WorkloadStream,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_json::Json;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::metrics::percentile;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::SchedulerConfig;
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

/// Events the scenario processes under that definition, on every core.
const EVENTS: u64 = 820_234;

/// The core this build measures, named in its trajectory entry.
const CORE_LABEL: &str = "event heap + TTFT deadline cursor + hashed decode prices + \
                          one-pass least-outstanding scan + recycled step-plan buffers";

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

/// The KV-pressure cell of `tests/cluster_bits.rs` scaled tenfold: 30
/// replicas whose 128-block KV pools make decode plans preempt, Poisson
/// arrivals at 140 QPS (12,000 requests), a 2.5 s TTFT timeout with
/// retries and one crash window. The diurnal scenario's deadlines never
/// fire; these do, so this cell times the cancel path (`fire_timeout`,
/// `Scheduler::cancel` and the record window's trim) the other one
/// skips.
fn timeout_cell() -> ClusterSim {
    let model = PerfModel::h100(olmoe_1b_7b());
    let sched = SchedulerConfig {
        total_blocks: 128,
        ..scheduler_config_for(&model, 2048)
    };
    let trace = generate(
        &WorkloadSpec::poisson(
            140.0,
            12_000,
            TenantSpec::uniform("t", 1.0, (64, 384), (64, 320)),
        ),
        17,
    );
    let mut cfg = ClusterConfig {
        replicas: 30,
        policy: RoutePolicy::LeastOutstanding,
        seed: 21,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.5;
    cfg.router.backoff_s = 0.1;
    ClusterSim::new(
        &model,
        sched,
        cfg,
        FaultPlan::crash_window(1, 6.0, 0.5),
        trace,
    )
}

/// Events/s of every timed repetition, plus the best (from the fastest
/// wall time) and the median.
struct Rates {
    best_wall_s: f64,
    best: f64,
    median: f64,
    reps: Vec<f64>,
}

impl Rates {
    /// Run `run` `reps` times; returns the last report with the rates.
    /// Every repetition processes the same events.
    fn time(reps: usize, mut run: impl FnMut() -> (ClusterReport, f64)) -> (ClusterReport, Self) {
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (report, wall) = run();
            walls.push(wall);
            last = Some(report);
        }
        let report = last.expect("at least one rep ran");
        let events = report.events as f64;
        let rates: Vec<f64> = walls.iter().map(|w| events / w).collect();
        let best_wall_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let rates = Self {
            best_wall_s,
            best: events / best_wall_s,
            median: percentile(&rates, 50.0),
            reps: rates,
        };
        (report, rates)
    }

    /// The per-repetition and median fields of a JSON record.
    fn spread_fields(&self) -> [(String, Json); 2] {
        [
            (
                "rep_events_per_s".into(),
                Json::Arr(self.reps.iter().map(|&r| Json::Float(r)).collect()),
            ),
            ("median_events_per_s".into(), Json::Float(self.median)),
        ]
    }
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
    let (report, _) = run_sharded(&model, sched, &config(), &plan, &faults(), &trace);
    moe_json::to_string(&report)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 5 };

    // Warm up allocator and model tables once, untimed.
    eprintln!("warming up (one untimed pass) ...");
    black_box(run_once(REQUESTS / 4));

    eprintln!("timing the 1000-replica diurnal scenario ({reps} reps) ...");
    let (report, rates) = Rates::time(reps, || run_once(REQUESTS));
    assert_eq!(
        report.events, EVENTS,
        "the scenario's event count moved, so events/s is no longer comparable"
    );
    let speedup = rates.best / BASELINE_EVENTS_PER_S;
    println!(
        "{CORE_LABEL}: {} events in {:.3} s = {:.0} events/s best, {:.0} median of {reps} \
         ({speedup:.1}x over {BASELINE_LABEL}), completed {}/{}, timed_out {}, dropped {}, \
         makespan {:.2} s, peak_live {}",
        report.events,
        rates.best_wall_s,
        rates.best,
        rates.median,
        report.completed,
        report.submitted,
        report.timed_out,
        report.dropped,
        report.makespan_s,
        report.peak_live,
    );

    eprintln!("timing the KV-pressure timeout cell ({reps} reps) ...");
    let (timeout_report, timeout_rates) = Rates::time(reps, || {
        let sim = timeout_cell();
        let t0 = Instant::now();
        let r = sim.run(&mut Tracer::disabled());
        (r, t0.elapsed().as_secs_f64())
    });
    assert!(
        timeout_report.timed_out > 0,
        "the timeout cell must fire TTFT deadlines"
    );
    println!(
        "KV-pressure timeout cell: {} events in {:.3} s = {:.0} events/s best, {:.0} median \
         of {reps}, completed {}/{}, timed_out {}, retries {}, dropped {}",
        timeout_report.events,
        timeout_rates.best_wall_s,
        timeout_rates.best,
        timeout_rates.median,
        timeout_report.completed,
        timeout_report.submitted,
        timeout_report.timed_out,
        timeout_report.retries,
        timeout_report.dropped,
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
    let cores = if host_cores > 1 {
        "multi-core"
    } else {
        "single-core"
    };
    let mut entry = vec![
        ("core".into(), Json::Str(CORE_LABEL.into())),
        (
            "note".into(),
            Json::Str(format!(
                "measured on a {host_cores}-core ({cores}) host; the timed event loop is \
                 single-threaded, only the sharded byte-identity check uses more cores"
            )),
        ),
        ("host_cores".into(), Json::Int(host_cores as i128)),
        ("events_per_s".into(), Json::Float(rates.best)),
        ("events".into(), Json::Int(report.events as i128)),
        ("wall_s".into(), Json::Float(rates.best_wall_s)),
        ("speedup_vs_baseline".into(), Json::Float(speedup)),
    ];
    entry.extend(rates.spread_fields());
    entry.push(("committed".into(), Json::Bool(false)));
    trajectory.push(Json::Obj(entry));
    let mut timeout_fields = vec![
        ("events".into(), Json::Int(timeout_report.events as i128)),
        ("wall_s".into(), Json::Float(timeout_rates.best_wall_s)),
        ("events_per_s".into(), Json::Float(timeout_rates.best)),
    ];
    timeout_fields.extend(timeout_rates.spread_fields());
    timeout_fields.push((
        "timed_out".into(),
        Json::Int(timeout_report.timed_out as i128),
    ));
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
        ("timeout_cell".into(), Json::Obj(timeout_fields)),
        (
            "memory".into(),
            Json::Obj(vec![
                ("peak_live_small".into(), Json::Int(peak_small as i128)),
                ("requests_small".into(), Json::Int(n_small as i128)),
                ("peak_live_large".into(), Json::Int(peak_large as i128)),
                ("requests_large".into(), Json::Int(n_large as i128)),
                ("peak_ratio".into(), Json::Float(peak_ratio)),
                (
                    "request_bytes".into(),
                    Json::Int(std::mem::size_of::<ClusterRequest>() as i128),
                ),
            ]),
        ),
        ("sharded_identical_across_workers".into(), Json::Bool(true)),
    ]);
    std::fs::write(path, json.render_pretty() + "\n").expect("write BENCH_cluster.json");
    println!("-> BENCH_cluster.json");
}
