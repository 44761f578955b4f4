//! Serving simulation: a bursty request stream served by the
//! continuous-batching scheduler over the H100 performance model, plus a
//! live (real-execution) serving demo proving the scheduler preserves
//! outputs under memory pressure.
//!
//! ```text
//! cargo run --release --example serving_simulation
//! ```

use moe_inference_bench::cluster::serve_one_replica;
use moe_inference_bench::engine::model::MoeTransformer;
use moe_inference_bench::gpusim::perfmodel::PerfModel;
use moe_inference_bench::model::registry;
use moe_inference_bench::runtime::liveserver::LiveServer;
use moe_inference_bench::runtime::scheduler::SchedulerConfig;
use moe_inference_bench::runtime::simserver::scheduler_config_for;

fn main() {
    // --- 1. Simulated serving: 48 requests in three bursts on one H100
    //        running OLMoE-1B-7B. ---
    let model = PerfModel::h100(registry::olmoe_1b_7b());
    let rows: Vec<(f64, usize, usize)> = (0..48)
        .map(|i| (f64::from(i / 16) * 5.0, 256 + (i as usize % 4) * 256, 256))
        .collect();
    let sched = scheduler_config_for(&model, 4096);
    let report = serve_one_replica(&model, sched, &rows, &mut moe_trace::Tracer::disabled());
    println!("simulated serving of 48 bursty requests (OLMoE-1B-7B, 1xH100):");
    println!(
        "  makespan        {:>8.2} s for {} completed requests",
        report.makespan_s, report.completed
    );
    println!("  throughput      {:>8.0} tok/s", report.throughput_tok_s);
    println!(
        "  requests/s      {:>8.2}",
        report.completed as f64 / report.makespan_s
    );
    println!(
        "  TTFT   mean {:>7.0} ms   p95 {:>7.0} ms",
        report.ttft.mean_s * 1e3,
        report.ttft.p95_s * 1e3
    );
    println!(
        "  ITL    mean {:>7.1} ms   p95 {:>7.1} ms",
        report.itl.mean_s * 1e3,
        report.itl.p95_s * 1e3
    );

    // --- 2. Live serving on the real executor with a deliberately tiny
    //        KV pool: preemption and recompute must not change outputs. ---
    let tiny = registry::tiny_test_model(8, 2);
    let cfg = SchedulerConfig {
        max_running: 4,
        max_batched_tokens: 256,
        block_tokens: 4,
        total_blocks: 12, // tight: forces preemption
    };
    let mut live = LiveServer::new(MoeTransformer::new(tiny.clone(), 42), cfg);
    let prompts: Vec<Vec<usize>> = vec![vec![5, 6, 7, 8], vec![9, 10, 11, 12], vec![1, 2, 3]];
    let ids: Vec<_> = prompts.iter().map(|p| live.submit(p.clone(), 12)).collect();
    let outputs = live.run();

    println!("\nlive serving under memory pressure (real forward passes):");
    for (prompt, id) in prompts.iter().zip(&ids) {
        let served = &outputs[id];
        let reference =
            LiveServer::reference(&mut MoeTransformer::new(tiny.clone(), 42), prompt, 12);
        let matches = *served == reference;
        println!(
            "  prompt {:?} -> {} tokens, matches standalone generation: {}",
            prompt,
            served.len(),
            matches
        );
        assert!(matches, "scheduling must never change outputs");
    }
}
