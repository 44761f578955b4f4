//! Cross-crate integration tests: the whole stack exercised through the
//! umbrella crate — real execution, serving, speculative decoding,
//! quantization and the performance model working together.

use moe_inference_bench::engine::generate::generate;
use moe_inference_bench::engine::model::MoeTransformer;
use moe_inference_bench::engine::prune::prune_transformer;
use moe_inference_bench::engine::spec::speculative_generate;
use moe_inference_bench::engine::weights::ModelWeights;
use moe_inference_bench::gpusim::device::Cluster;
use moe_inference_bench::gpusim::parallel::ParallelPlan;
use moe_inference_bench::gpusim::perfmodel::{EngineOptions, PerfModel};
use moe_inference_bench::model::registry;
use moe_inference_bench::model::{PruneKind, PruneSpec};
use moe_inference_bench::runtime::liveserver::LiveServer;
use moe_inference_bench::runtime::scheduler::SchedulerConfig;
use moe_inference_bench::tensor::Precision;

#[test]
fn generation_is_end_to_end_deterministic() {
    let run = || {
        let mut m = MoeTransformer::new(registry::tiny_test_model(8, 2), 7);
        generate(&mut m, &[1, 2, 3, 4], 20).tokens
    };
    assert_eq!(run(), run());
}

#[test]
fn serving_speculation_and_batching_agree_on_outputs() {
    // Three independent paths to the same greedy tokens: plain generation,
    // speculative decoding, and the continuous-batching live server.
    let prompt = vec![10usize, 20, 30, 40];
    let max_new = 15;

    let vanilla = generate(
        &mut MoeTransformer::new(registry::tiny_test_model(8, 2), 7),
        &prompt,
        max_new,
    )
    .tokens;

    let spec = speculative_generate(
        &mut MoeTransformer::new(registry::tiny_test_model(8, 2), 7),
        &mut MoeTransformer::new(registry::tiny_test_model(4, 1), 99),
        &prompt,
        max_new,
        3,
    )
    .tokens;

    let mut server = LiveServer::new(
        MoeTransformer::new(registry::tiny_test_model(8, 2), 7),
        SchedulerConfig::default(),
    );
    let id = server.submit(prompt.clone(), max_new);
    let served = server.run().remove(&id).expect("request completed");

    assert_eq!(vanilla, spec);
    assert_eq!(vanilla, served);
}

#[test]
fn pruned_and_quantized_models_run_through_the_server() {
    let cfg = registry::tiny_test_model(8, 2);
    let mut weights = ModelWeights::init(&cfg, 5);
    weights.quantize(Precision::Int8);
    let mut model = MoeTransformer::with_weights(cfg, weights);
    prune_transformer(&mut model, PruneSpec::new(PruneKind::InterExpert, 0.25));

    let mut server = LiveServer::new(model, SchedulerConfig::default());
    let id = server.submit(vec![1, 2, 3], 8);
    let out = server.run().remove(&id).expect("request completed");
    assert_eq!(out.len(), 8);
    assert!(out.iter().all(|&t| t < 256));
}

#[test]
fn perf_model_consistent_with_memory_model() {
    // Any run() that succeeds must have a fitting memory footprint, and
    // OOM-failing runs must report a deficit.
    for model in registry::llms() {
        for gpus in [1usize, 2, 4] {
            let perf = PerfModel::new(
                model.clone(),
                Cluster::h100_node(gpus),
                EngineOptions::default().with_plan(ParallelPlan::tensor(gpus)),
            )
            .expect("valid plan");
            match perf.run(16, 512, 512, &mut moe_trace::Tracer::disabled(), 0) {
                Ok(r) => {
                    assert!(r.throughput_tok_s > 0.0);
                    assert!(perf.check_memory(16, 1024).is_ok());
                }
                Err(oom) => {
                    assert!(oom.required_bytes > oom.capacity_bytes, "{oom}");
                }
            }
        }
    }
}

#[test]
fn more_gpus_never_slower_under_tp() {
    for model in [registry::olmoe_1b_7b(), registry::qwen15_moe_a27b()] {
        let mut last = 0.0;
        for gpus in [1usize, 2, 4] {
            let perf = PerfModel::new(
                model.clone(),
                Cluster::h100_node(gpus),
                EngineOptions::default().with_plan(ParallelPlan::tensor(gpus)),
            )
            .expect("valid plan");
            let t = perf
                .run(16, 512, 512, &mut moe_trace::Tracer::disabled(), 0)
                .expect("fits")
                .throughput_tok_s;
            assert!(
                t >= last * 0.98,
                "{} at {gpus} GPUs: {t} < {last}",
                model.name
            );
            last = t;
        }
    }
}

#[test]
fn paper_formulas_hold_across_the_roster() {
    for model in registry::llms() {
        let Ok(perf) = PerfModel::new(
            model.clone(),
            Cluster::h100_node(4),
            EngineOptions::default().with_plan(ParallelPlan::tensor(4)),
        ) else {
            continue;
        };
        let r = perf
            .run(8, 256, 128, &mut moe_trace::Tracer::disabled(), 0)
            .expect("fits on 4 GPUs");
        // Eq. 2.
        let expect = 8.0 * (256.0 + 128.0) / r.e2e_s;
        assert!(
            (r.throughput_tok_s - expect).abs() / expect < 1e-9,
            "{}",
            model.name
        );
        // Eq. 1 (per-sequence ITL definition).
        let expect_itl = (r.e2e_s - r.ttft_s) / 127.0;
        assert!((r.itl_s - expect_itl).abs() < 1e-12, "{}", model.name);
    }
}
