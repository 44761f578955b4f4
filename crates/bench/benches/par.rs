//! Self-benchmark for the `moe-par` rollout: times a full
//! `moe-bench all --fast` pass serially (one worker) and on the default
//! pool, then writes the comparison to `BENCH_par.json` at the repo
//! root. CI runs this as the parallel-driver timing smoke.
//!
//! The file is a measurement *history*, mirroring `BENCH_cluster.json`:
//! entries marked `"committed": true` are frozen origins carried forward
//! verbatim (the first is the original single-core measurement of the
//! 26-experiment registry), and each run appends — never overwrites —
//! its own fresh entry at the end. `tests/bench_history.rs` pins the
//! ordering and the origin's numbers.
//!
//! Wall-clock is read here and in `timing.rs` only — these numbers
//! describe the harness's own speed and never feed simulated time. The
//! speedup column is honest about the host: on a single-core runner the
//! pool has one worker and the ratio is ~1.0 by construction, so each
//! entry records `host_cores` and states it in its `note`.

use moe_bench::timing::committed_history;
use moe_json::Json;
use std::hint::black_box;
use std::time::Instant;

/// One full fast-grid regeneration of every registered experiment.
fn run_all_fast() -> usize {
    black_box(moe_bench::run_all(true, &mut moe_trace::Tracer::disabled()).len())
}

/// Best-of-`reps` wall-clock for one `run_all` pass under `workers`
/// forced worker threads (0 = default resolution).
fn time_run_all(workers: usize, reps: usize) -> f64 {
    moe_par::set_workers_for_test(workers);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let n = run_all_fast();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(n, moe_bench::REGISTRY.len());
        best = best.min(dt);
    }
    moe_par::set_workers_for_test(0);
    best
}

fn main() {
    let reps = if std::env::args().any(|a| a == "--quick") {
        1
    } else {
        2
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool_workers = moe_par::workers();

    // One warmup pass: fig15's activation study is memoized per process
    // (~10 s once), which would otherwise charge the first timed
    // configuration for a cost the second never sees.
    eprintln!("warming up (one untimed pass) ...");
    run_all_fast();

    eprintln!("timing `moe-bench all --fast` serially (1 worker) ...");
    let serial_s = time_run_all(1, reps);
    eprintln!("serial: {serial_s:.3} s");
    eprintln!("timing `moe-bench all --fast` on {pool_workers} worker(s) ...");
    let parallel_s = time_run_all(0, reps);
    eprintln!("parallel: {parallel_s:.3} s");
    let speedup = serial_s / parallel_s;

    let note = if host_cores == 1 {
        "measured on a 1-core host: pool resolves to 1 worker, so serial vs parallel \
         differ only by scheduling noise and the ratio is ~1.0 by construction"
            .to_string()
    } else {
        format!("measured on a {host_cores}-core host: ratio reflects real work-stealing overlap")
    };
    let entry = Json::Obj(vec![
        ("note".into(), Json::Str(note)),
        (
            "experiments".into(),
            Json::Int(moe_bench::REGISTRY.len() as i128),
        ),
        ("host_cores".into(), Json::Int(host_cores as i128)),
        ("pool_workers".into(), Json::Int(pool_workers as i128)),
        ("reps".into(), Json::Int(reps as i128)),
        ("serial_s".into(), Json::Float(serial_s)),
        ("parallel_s".into(), Json::Float(parallel_s)),
        ("speedup".into(), Json::Float(speedup)),
        ("committed".into(), Json::Bool(false)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json");
    let mut history = committed_history(path, "history");
    history.push(entry);
    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("moe-bench all --fast".into())),
        ("history".into(), Json::Arr(history)),
    ]);
    std::fs::write(path, json.render_pretty() + "\n").expect("write BENCH_par.json");
    println!(
        "run_all fast: serial {serial_s:.3} s, {pool_workers}-worker {parallel_s:.3} s \
         ({speedup:.2}x on a {host_cores}-core host) -> BENCH_par.json"
    );
}
