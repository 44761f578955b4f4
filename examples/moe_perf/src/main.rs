//! `moe_perf`: the repository's host-time benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/moe_perf/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation measures one workload (see `README.md` beside this
//! crate). It runs repetitions of the workload's body, each in a fresh
//! child process of this binary, one after another until `--seconds` have
//! passed, then runs the workload's correctness oracles. With `--trace 1`
//! it adds one traced child after the timed repetitions and reports the
//! per-layer metrics instead of the end-to-end ones. It prints a table of
//! every metric (reported value, median, p25, p75, n) and, as its last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

mod clock;
mod layers;
mod oracles;
mod probes;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use moe_json::{FromJson, Json, ToJson};
use moe_runtime::metrics::percentile;

use crate::clock::cpu_now;
use crate::spans::{span, Recorder, BENCH};
use crate::workloads::Workload;

/// Repetitions always run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Repetitions never exceeded.
const MAX_REPS: usize = 50;
/// `moe-par` workers every child runs with (`MOE_THREADS`). A parallel
/// pool's timing depends on what else holds the host's other cores: on
/// a 2-core host the planner sweep spread 17% run to run with 2 workers
/// and 7% with 1.
const POOL_WORKERS: usize = 1;

/// Which repetition's value a run reports for a metric.
#[derive(Clone, Copy)]
enum Pick {
    /// The median repetition.
    Median,
    /// The best repetition: on a shared machine a core's speed drifts in
    /// bursts lasting several repetitions, which move a run's median
    /// repetition by tens of percent but rarely its best one (see
    /// `README.md`, "Noise").
    Min,
    /// The best repetition of a higher-is-better metric.
    Max,
}

impl Pick {
    fn of(self, xs: &[f64]) -> f64 {
        match self {
            Pick::Median => percentile(xs, 50.0),
            Pick::Min => percentile(xs, 0.0),
            Pick::Max => percentile(xs, 100.0),
        }
    }
}

/// Every end-to-end metric with its unit and reported repetition, in
/// report order. The 90th-percentile operation time varied 14% between
/// runs of one workload, so it is reported with the per-layer metrics.
const END_TO_END: [(&str, &str, Pick); 5] = [
    ("setup_s", "s", Pick::Median),
    ("body_cpu_s", "s", Pick::Min),
    ("work_per_cpu_s", "1/s", Pick::Max),
    ("op_cpu_p50_ms", "ms", Pick::Min),
    ("peak_rss_mb", "MiB", Pick::Median),
];

const USAGE: &str =
    "usage: moe_perf --workload <engine-prefill|engine-serve|cluster-diurnal|cluster-day|plan-sweep> \
     [--seed N] [--seconds S] [--trace 0|1]";

/// What one child process reports about its repetition.
#[derive(Debug, Clone, ToJson, FromJson)]
struct RepResult {
    /// On-CPU seconds of the process up to the end of set-up.
    setup_s: f64,
    /// On-CPU seconds of the body.
    body_cpu_s: f64,
    /// Median and p90 on-CPU seconds of one operation.
    op_p50_s: f64,
    op_p90_s: f64,
    /// Units of work done.
    work: u64,
    /// Digest of every output; equal across repetitions of one seed.
    digest: u64,
    /// Digest of the outputs the oracles recompute.
    check: u64,
    attempted: u64,
    failed: u64,
    /// `VmHWM` of the child after the body (MiB).
    peak_rss_mb: f64,
    /// Per-layer metrics (traced child only).
    layers: BTreeMap<String, f64>,
}

enum Mode {
    Measure {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Child {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut child = false;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--child" => {
                child = flag == "--child";
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(if child {
        Mode::Child {
            workload,
            seed,
            traced,
        }
    } else {
        Mode::Measure {
            workload,
            seed,
            seconds,
            trace,
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Child {
            workload,
            seed,
            traced,
        }) => child(workload, seed, traced),
        Ok(Mode::Measure {
            workload,
            seed,
            seconds,
            trace,
        }) => measure(workload, seed, seconds, trace),
        Err(e) => {
            eprintln!("moe_perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One repetition: set up, run the body, report on stdout.
fn child(workload: Workload, seed: u64, traced: bool) -> ExitCode {
    let rec = Recorder::shared(traced);
    let job = workload.setup(seed, &rec);
    let setup_s = cpu_now();
    let t = cpu_now();
    let outcome = span(&rec, BENCH, "body", 0, || job.run(&rec));
    let body_cpu_s = cpu_now() - t;
    let peak_rss_mb = peak_rss_mb();
    let layers = if traced {
        layers::collect(workload, seed, &rec, &outcome, body_cpu_s)
    } else {
        BTreeMap::new()
    };
    let result = RepResult {
        setup_s,
        body_cpu_s,
        op_p50_s: percentile(&outcome.op_s, 50.0),
        op_p90_s: percentile(&outcome.op_s, 90.0),
        work: outcome.work,
        digest: outcome.digest,
        check: outcome.check,
        attempted: outcome.attempted,
        failed: outcome.failed,
        peak_rss_mb,
        layers,
    };
    println!("{}", moe_json::to_string(&result));
    ExitCode::SUCCESS
}

/// Run one child repetition to its end.
fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload.name(), "--seed", &seed.to_string()])
        .env("MOE_THREADS", POOL_WORKERS.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child reported no result")?;
    moe_json::from_str(line).map_err(|e| format!("bad child result: {e}"))
}

fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reps: Vec<RepResult> = Vec::new();
    let mut crashed = 0u64;
    let start = Instant::now();
    loop {
        let done = reps.len() + crashed as usize;
        let elapsed = start.elapsed().as_secs_f64();
        // Start another repetition only if it should end within budget.
        if done >= MAX_REPS
            || (done >= MIN_REPS && elapsed * (done + 1) as f64 / done as f64 > seconds)
        {
            break;
        }
        match spawn_rep(workload, seed, false) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                eprintln!("moe_perf: {} repetition failed: {e}", workload.name());
                crashed += 1;
            }
        }
    }
    let traced = if trace {
        match spawn_rep(workload, seed, true) {
            Ok(rep) => Some(rep),
            Err(e) => {
                eprintln!("moe_perf: traced {} run failed: {e}", workload.name());
                crashed += 1;
                None
            }
        }
    } else {
        None
    };

    let served_check = reps.first().map(|r| r.check);
    let checks = oracles::run(workload, seed, served_check);

    let mut attempted = crashed + checks.len() as u64;
    let mut failed = crashed + checks.iter().filter(|c| !c.ok).count() as u64;
    let first_digest = reps.first().map(|r| r.digest);
    for rep in reps.iter().chain(&traced) {
        attempted += rep.attempted;
        failed += rep.failed;
        if Some(rep.digest) != first_digest {
            eprintln!("moe_perf: output digest differs between repetitions");
            failed += rep.attempted;
        }
    }

    let samples: Vec<(&str, &str, Pick, Vec<f64>)> = if let Some(t) = &traced {
        let bodies: Vec<f64> = reps.iter().map(|r| r.body_cpu_s).collect();
        let p90s: Vec<f64> = reps.iter().map(|r| r.op_p90_s * 1e3).collect();
        let mut layer = t.layers.clone();
        layer.insert(
            "bench.trace_overhead_frac".into(),
            t.body_cpu_s / percentile(&bodies, 50.0) - 1.0,
        );
        layer.insert("op_cpu_p90_ms".into(), Pick::Min.of(&p90s));
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layer.get(name).copied().unwrap_or(0.0);
                (name, unit, Pick::Median, vec![value])
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, pick)| {
                let per_rep = reps.iter().map(|r| match name {
                    "setup_s" => r.setup_s,
                    "body_cpu_s" => r.body_cpu_s,
                    "work_per_cpu_s" => r.work as f64 / r.body_cpu_s,
                    "op_cpu_p50_ms" => r.op_p50_s * 1e3,
                    _ => r.peak_rss_mb,
                });
                (name, unit, pick, per_rep.collect())
            })
            .collect()
    };
    println!(
        "moe_perf {} seed={seed} reps={} host_cores={host_cores} pool_workers={POOL_WORKERS}",
        workload.name(),
        reps.len()
    );
    println!(
        "  op = {}; work = {}",
        workload.op_label(),
        workload.work_label()
    );
    println!(
        "  {:<36} {:>9} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "reported", "median", "p25", "p75", "n"
    );
    let mut metrics = Vec::new();
    for (name, unit, pick, xs) in &samples {
        if xs.is_empty() {
            continue;
        }
        let value = pick.of(xs);
        let [median, p25, p75] = [50.0, 25.0, 75.0].map(|p| percentile(xs, p));
        println!(
            "  {name:<36} {unit:>9} {value:>14.6} {median:>14.6} {p25:>14.6} {p75:>14.6} {:>4}",
            xs.len()
        );
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    for c in &checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("  oracle {verdict} {}: {}", c.name, c.detail);
    }
    let correct = failed == 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(i128::from(attempted.max(1)))),
        ("failed".into(), Json::Int(i128::from(failed))),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
