//! The `moe-bench` CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! moe-bench list                 # roster of experiments
//! moe-bench fig5                 # one experiment, text tables
//! moe-bench fig5 --json          # machine-readable output
//! moe-bench fig5 --csv           # comma-separated tables
//! moe-bench fig5 --trace t.json  # also write a Chrome-trace of the run
//! moe-bench all [--fast]         # everything (--fast shrinks grids)
//! ```
//!
//! `--trace <path>` records the simulated timeline (engine steps with
//! kernel breakdowns, scheduler decisions, per-request lifecycles) into a
//! Chrome-trace JSON file loadable in <https://ui.perfetto.dev> or
//! `chrome://tracing`, and prints a text flame summary to stderr. Report
//! output on stdout is byte-identical with and without the flag; see
//! `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn print_report(report: &moe_bench::ExperimentReport, csv: bool) {
    if csv {
        for t in &report.tables {
            println!("# {} / {}", report.id, t.name);
            print!("{}", t.to_csv());
        }
    } else {
        println!("{}", report.render());
    }
}

/// Write the collected trace as Chrome-trace JSON and print the flame
/// summary; returns false when the file cannot be written.
fn write_trace(tracer: &moe_trace::Tracer, path: &str) -> bool {
    let events = tracer.snapshot();
    let json = moe_trace::chrome_trace_json(&events, tracer.tracks());
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write trace to {path}: {e}");
        return false;
    }
    eprintln!("{}", moe_trace::flame_summary(&events, tracer.tracks()));
    eprintln!(
        "trace: {} event(s) -> {path} (load in https://ui.perfetto.dev)",
        events.len()
    );
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let csv = args.iter().any(|a| a == "--csv");
    let fast = args.iter().any(|a| a == "--fast");

    // `--trace` consumes the following argument as the output path, so it
    // must be peeled off before collecting positional targets.
    let mut trace_path: Option<String> = None;
    let mut targets: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for (i, arg) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if arg == "--trace" {
            match args.get(i + 1) {
                Some(path) => {
                    trace_path = Some(path.clone());
                    skip_next = true;
                }
                None => {
                    eprintln!("--trace requires an output file path");
                    return ExitCode::FAILURE;
                }
            }
        } else if !arg.starts_with("--") {
            targets.push(arg);
        }
    }

    let Some(&target) = targets.first() else {
        eprintln!("usage: moe-bench <experiment-id|all|list> [--json] [--csv] [--fast]");
        eprintln!("                 [--trace <chrome-trace.json>]");
        eprintln!("       moe-bench list");
        return ExitCode::FAILURE;
    };

    let mut tracer = match &trace_path {
        Some(_) => moe_trace::Tracer::new(Box::new(moe_trace::MemorySink::new())),
        None => moe_trace::Tracer::disabled(),
    };

    let ok = match target.as_str() {
        "list" => {
            println!("available experiments:");
            for e in moe_bench::REGISTRY {
                println!("  {}", e.id);
            }
            true
        }
        "all" => {
            eprintln!(
                "running {} experiments on {} worker(s) ...",
                moe_bench::REGISTRY.len(),
                moe_par::workers()
            );
            let reports = moe_bench::run_all(fast, &mut tracer);
            if json {
                println!("{}", moe_json::to_string_pretty(&reports));
            } else {
                for report in &reports {
                    print_report(report, csv);
                }
            }
            true
        }
        id => match moe_bench::run_experiment(id, fast, &mut tracer) {
            Some(report) => {
                if json {
                    println!("{}", moe_json::to_string_pretty(&report));
                } else {
                    print_report(&report, csv);
                }
                true
            }
            None => {
                eprintln!("unknown experiment '{id}'; try `moe-bench list`");
                false
            }
        },
    };

    let ok = ok
        && match &trace_path {
            Some(path) => write_trace(&tracer, path),
            None => true,
        };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
