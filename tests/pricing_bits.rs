//! Golden pricing bits: `PerfModel`'s outputs hash to a fixed FNV-1a
//! digest over their `f64::to_bits`.
//!
//! Every report of the paper's sweeps (batch, TopK, precision, pruning,
//! TP/PP/EP) is priced by `PerfModel`, so its walk over the layer stack
//! may be restructured for speed only if every priced number keeps its
//! exact bits. This gate hashes `forward_time`, every `forward_parts`
//! field, `run` metrics and `vision_encode_time` over a seeded grid of
//! `(tokens, batch, ctx, phase)` points, for models with one and with two
//! layer kinds (DeepSeek-V2-Lite's first layer is dense), a dense model,
//! a VLM and a pruned planner candidate, under single-device, tensor,
//! tensor+expert, and pipeline plans whose stages split the layers
//! unevenly, each with all-resident and offloaded experts. The digest was
//! recorded before each layer kind was priced once per walk.

mod common;

use common::{fnv1a, FNV_OFFSET};
use moe_gpusim::device::Cluster;
use moe_gpusim::perfmodel::{EngineOptions, PerfModel, Phase, RunMetrics};
use moe_gpusim::{ExpertResidency, OomError, ParallelPlan};
use moe_model::registry::{
    deepseek_v2_lite, deepseek_vl2_tiny, mixtral_8x7b, olmoe_1b_7b, qwen3_1_7b,
};
use moe_model::ModelConfig;
use moe_plan::score::candidate_model;
use moe_tensor::rng::{rng_from_seed, DetRng};

/// Digest of [`pricing_digest`].
const GOLDEN_DIGEST: u64 = 0x6102_afa8_2729_060c;

/// Model × plan × residency combinations [`PerfModel::new`] accepts;
/// pins the grid so a skipped combination cannot go unnoticed.
const VALID_COMBOS: usize = 82;

/// Seeded `(tokens, batch, ctx, phase)` points priced per combination.
const POINTS: usize = 24;

fn hash_u64(hash: &mut u64, word: u64) {
    fnv1a(hash, &word.to_le_bytes());
}

fn hash_f64(hash: &mut u64, x: f64) {
    hash_u64(hash, x.to_bits());
}

fn models() -> Vec<ModelConfig> {
    vec![
        olmoe_1b_7b(),
        deepseek_v2_lite(),
        qwen3_1_7b(),
        deepseek_vl2_tiny(),
        candidate_model(&mixtral_8x7b(), 0.25),
    ]
}

/// Pipeline degrees 2 and 4 split OLMoE's 16 layers evenly but
/// DeepSeek-V2-Lite's 27 as 14+13 and 7+7+7+6.
fn plans() -> Vec<ParallelPlan> {
    vec![
        ParallelPlan::single(),
        ParallelPlan::tensor(2),
        ParallelPlan::tensor(4),
        ParallelPlan::tensor(8),
        ParallelPlan::tensor(4).with_expert_parallel(),
        ParallelPlan::tensor(8).with_expert_parallel(),
        ParallelPlan::pipeline(2),
        ParallelPlan::pipeline(4),
        ParallelPlan::pipeline(4).with_expert_parallel(),
    ]
}

/// Offloaded experts stall every MoE layer by a prefetch window of the
/// layer's own `attn + ffn` time.
fn residencies() -> [Option<ExpertResidency>; 2] {
    [None, Some(ExpertResidency::offloaded(0.5, 0.6, 0.7))]
}

fn point(rng: &mut DetRng) -> (usize, usize, usize, Phase) {
    let batch = 1 + rng.next_below(64);
    if rng.next_below(2) == 0 {
        let prompt = 1 + rng.next_below(2048);
        // Chunked prefill may hand the walk a token count that is not a
        // multiple of the batch.
        let tokens = batch * prompt + rng.next_below(batch);
        (tokens, batch, prompt, Phase::Prefill)
    } else {
        (batch, batch, 1 + rng.next_below(8192), Phase::Decode)
    }
}

fn hash_run(hash: &mut u64, run: Result<RunMetrics, OomError>) {
    match run {
        Ok(m) => {
            for x in [
                m.ttft_s,
                m.itl_s,
                m.e2e_s,
                m.throughput_tok_s,
                m.decode_tok_s,
                m.samples_per_s,
            ] {
                hash_f64(hash, x);
            }
        }
        Err(_) => hash_u64(hash, u64::MAX),
    }
}

fn hash_model(hash: &mut u64, m: &PerfModel, rng: &mut DetRng) {
    for _ in 0..POINTS {
        let (tokens, batch, ctx, phase) = point(rng);
        hash_f64(hash, m.forward_time(tokens, batch, ctx, phase));
        let p = m.forward_parts(tokens, batch, ctx, phase);
        for x in [
            p.overhead_s,
            p.attn_s,
            p.ffn_s,
            p.moe_comm_s,
            p.tp_comm_s,
            p.head_s,
            p.bubble_s,
            p.total_s,
        ] {
            hash_f64(hash, x);
        }
    }
    for (batch, input, output) in [(1, 128, 128), (16, 512, 256), (64, 2048, 64)] {
        hash_run(
            hash,
            m.run(batch, input, output, &mut moe_trace::Tracer::disabled(), 0),
        );
        hash_run(hash, m.run_vlm(batch, 1, input, output));
    }
    for (batch, images) in [(1, 1), (8, 2), (32, 1)] {
        hash_f64(hash, m.vision_encode_time(batch, images));
    }
}

/// Hash every valid combination of [`models`], [`plans`] and
/// [`residencies`], each over its own seeded point grid; returns the
/// digest and the number of valid combinations.
fn pricing_digest() -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut valid = 0;
    let mut seed = 0;
    for config in models() {
        for plan in plans() {
            for residency in residencies() {
                seed += 1;
                let mut opts = EngineOptions::default().with_plan(plan);
                if let Some(r) = residency {
                    opts = opts.with_residency(r);
                }
                let Ok(m) = PerfModel::new(config.clone(), Cluster::h100_node(plan.degree), opts)
                else {
                    continue;
                };
                valid += 1;
                hash_u64(&mut hash, seed);
                hash_model(&mut hash, &m, &mut rng_from_seed(seed));
            }
        }
    }
    (hash, valid)
}

#[test]
fn perf_model_pricing_bits_match_the_golden_digest() {
    let (digest, valid) = pricing_digest();
    assert_eq!(valid, VALID_COMBOS, "grid changed");
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "pricing bits moved: digest {digest:#018x}"
    );
}
