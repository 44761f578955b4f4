//! A tour of `moe-trace`: trace a cost-model run and a serving run onto
//! one simulated timeline, then render every view the crate offers.
//!
//! ```bash
//! cargo run --release --example trace_tour
//! ```
//!
//! Writes `trace_tour.json` (load it at <https://ui.perfetto.dev>) and
//! prints the flame summary plus a latency histogram. See
//! `docs/OBSERVABILITY.md` for how to read the output.

use moe_cluster::serve_one_replica;
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::{
    chrome_trace_json, flame_summary, Category, MemorySink, Tracer, BENCH_TRACK, ENGINE_TRACK,
};

fn main() -> std::io::Result<()> {
    let mut tracer = Tracer::new(Box::new(MemorySink::new()));
    tracer.name_track(ENGINE_TRACK, "engine");
    tracer.name_track(BENCH_TRACK, "tour");

    // 1. Trace a pure cost-model run: one prefill + 127 decode steps,
    //    each decomposed into kernel/communication spans.
    let model = PerfModel::h100(olmoe_1b_7b());
    let run = model
        .run(8, 512, 128, &mut tracer, ENGINE_TRACK)
        .expect("OLMoE fits on one H100");
    tracer.span_with(
        BENCH_TRACK,
        Category::Bench,
        "static batch (cost model)",
        0.0,
        run.e2e_s,
        vec![("batch", 8usize.into())],
    );
    println!(
        "cost model: ttft {:.1} ms, e2e {:.3} s, {:.0} tok/s",
        run.ttft_s * 1e3,
        run.e2e_s,
        run.throughput_tok_s
    );

    // 2. Advance the base so the next simulation tiles after the first
    //    instead of overlapping it at t = 0.
    tracer.advance(run.e2e_s);

    // 3. Trace a serving run on a one-replica cluster: router decisions,
    //    replica steps with their kernel children, scheduler decisions and
    //    queue counters join the timeline.
    let model = PerfModel::h100(olmoe_1b_7b());
    let rows: Vec<(f64, usize, usize)> = (0..12).map(|i| (0.05 * f64::from(i), 256, 64)).collect();
    let report = serve_one_replica(
        &model,
        scheduler_config_for(&model, 1024),
        &rows,
        &mut tracer,
    );
    tracer.span_with(
        BENCH_TRACK,
        Category::Bench,
        "poisson-ish serving",
        0.0,
        report.makespan_s,
        vec![("requests", 12usize.into())],
    );
    tracer.advance(report.makespan_s);
    println!(
        "serving: {} requests in {:.3} s, ttft p50 {:.1} ms / p99 {:.1} ms",
        report.completed,
        report.makespan_s,
        report.ttft.p50_s * 1e3,
        report.ttft.p99_s * 1e3
    );

    // 4. The histogram behind the report's TTFT percentiles.
    println!("{}", report.ttft_hist.render_ms("ttft"));

    // 5. Render: Chrome-trace JSON for Perfetto + text flame summary.
    let events = tracer.snapshot();
    std::fs::write(
        "trace_tour.json",
        chrome_trace_json(&events, tracer.tracks()),
    )?;
    println!("\n{}", flame_summary(&events, tracer.tracks()));
    println!("wrote trace_tour.json — open it at https://ui.perfetto.dev");
    Ok(())
}
