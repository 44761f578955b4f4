//! Speculative decoding, both for real and analytically:
//!
//! 1. run *functional* speculative decoding on down-scaled models and
//!    verify the lossless-greedy guarantee plus acceptance accounting;
//! 2. reproduce the Figure-12 draft-model comparison with the performance
//!    model (Qwen3-30B-A3B target, four Qwen3 drafts).
//!
//! ```text
//! cargo run --release --example speculative_decoding
//! ```

use moe_inference_bench::engine::generate::generate;
use moe_inference_bench::engine::model::MoeTransformer;
use moe_inference_bench::engine::spec::speculative_generate;
use moe_inference_bench::gpusim::device::Cluster;
use moe_inference_bench::gpusim::parallel::ParallelPlan;
use moe_inference_bench::gpusim::perfmodel::{EngineOptions, PerfModel};
use moe_inference_bench::gpusim::spec::{acceptance_rate, spec_run, SpecParams};
use moe_inference_bench::model::registry;

fn main() {
    // --- 1. Functional speculative decoding on the real executor. ---
    let prompt = vec![3usize, 14, 15];
    let mut target = MoeTransformer::new(registry::tiny_test_model(8, 2), 7);
    let vanilla = generate(&mut target, &prompt, 24);

    println!("functional speculative decoding (tiny models, greedy):");
    for gamma in [1usize, 2, 4] {
        let mut tgt = MoeTransformer::new(registry::tiny_test_model(8, 2), 7);
        let mut draft = MoeTransformer::new(registry::tiny_test_model(4, 1), 123);
        let spec = speculative_generate(&mut tgt, &mut draft, &prompt, 24, gamma);
        assert_eq!(spec.tokens, vanilla.tokens, "losslessness violated");
        println!(
            "  gamma={gamma}: {} cycles, acceptance {:>5.1}%, {:.2} tokens/cycle — output \
             identical to vanilla greedy",
            spec.cycles,
            spec.acceptance_rate() * 100.0,
            spec.tokens_per_cycle()
        );
    }

    // --- 2. The Figure-12 study through the performance model. ---
    let placed = |cfg: moe_inference_bench::model::ModelConfig| {
        PerfModel::new(
            cfg,
            Cluster::h100_node(2),
            EngineOptions::default().with_plan(ParallelPlan::tensor(2)),
        )
        .expect("TP2 valid")
    };
    let target = placed(registry::qwen3_30b_a3b());
    let vanilla_tput = target
        .run(16, 1024, 256, &mut moe_trace::Tracer::disabled(), 0)
        .expect("fits")
        .throughput_tok_s;
    println!(
        "\nQwen3-30B-A3B on 2xH100 — vanilla: {vanilla_tput:.0} tok/s; with drafts (gamma=3):"
    );

    for draft_cfg in registry::draft_models() {
        let alpha = acceptance_rate(&draft_cfg, target.config());
        let draft = placed(draft_cfg.clone());
        let r = spec_run(
            &target,
            &draft,
            SpecParams { gamma: 3, alpha },
            16,
            1024,
            256,
        )
        .expect("fits");
        println!(
            "  {:<11} alpha={alpha:.2}: {:>6.0} tok/s ({:+.1}% vs vanilla)",
            draft_cfg.name,
            r.throughput_tok_s,
            100.0 * (r.throughput_tok_s / vanilla_tput - 1.0)
        );
    }
}
