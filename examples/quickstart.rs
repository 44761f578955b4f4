//! Quickstart: run a real MoE forward pass on a down-scaled model, inspect
//! routing, then ask the performance model a deployment question about the
//! full-size Mixtral-8x7B.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moe_inference_bench::engine::generate::generate;
use moe_inference_bench::engine::model::MoeTransformer;
use moe_inference_bench::gpusim::device::Cluster;
use moe_inference_bench::gpusim::parallel::ParallelPlan;
use moe_inference_bench::gpusim::perfmodel::{EngineOptions, PerfModel};
use moe_inference_bench::model::registry;
use moe_inference_bench::tensor::Precision;

fn main() {
    // --- 1. A real (tiny) MoE transformer: 8 experts, top-2 routing. ---
    let config = registry::tiny_test_model(8, 2);
    let mut model = MoeTransformer::new(config, 42);
    model.enable_stats();

    let prompt = [3usize, 14, 15, 92, 65];
    let generated = generate(&mut model, &prompt, 16);
    println!("prompt tokens:    {prompt:?}");
    println!("generated tokens: {:?}", generated.tokens);

    let stats = model.take_stats().expect("stats enabled");
    println!(
        "expert routing: {} assignments, layer-0 imbalance {:.2}, entropy {:.2}",
        stats.total_assignments(),
        stats.imbalance(0),
        stats.normalized_entropy(0),
    );

    // --- 2. The performance model: how would Mixtral-8x7B serve on a
    //        4xH100 node? ---
    let mixtral = registry::mixtral_8x7b();
    let perf = PerfModel::new(
        mixtral,
        Cluster::h100_node(4),
        EngineOptions::default().with_plan(ParallelPlan::tensor(4)),
    )
    .expect("valid placement");

    println!("\nMixtral-8x7B on 4xH100 (TP4, fp16):");
    for batch in [1usize, 16, 64] {
        let run = perf
            .run(batch, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
            .expect("fits");
        println!(
            "  batch {batch:>3}: TTFT {:>7.1} ms | ITL {:>6.2} ms | {:>8.0} tok/s",
            run.ttft_s * 1e3,
            run.itl_s * 1e3,
            run.throughput_tok_s
        );
    }

    // --- 3. And at FP8? ---
    let perf8 = PerfModel::new(
        registry::mixtral_8x7b(),
        Cluster::h100_node(4),
        EngineOptions::default()
            .with_plan(ParallelPlan::tensor(4))
            .with_precision(Precision::Fp8E4M3),
    )
    .expect("valid placement");
    let f16 = perf
        .run(64, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
        .expect("fits")
        .throughput_tok_s;
    let f8 = perf8
        .run(64, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
        .expect("fits")
        .throughput_tok_s;
    println!(
        "\nFP8 vs FP16 at batch 64: {:.0} vs {:.0} tok/s ({:+.1}%)",
        f8,
        f16,
        100.0 * (f8 / f16 - 1.0)
    );
}
