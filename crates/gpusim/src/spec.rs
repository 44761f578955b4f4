//! Speculative-decoding performance model (Section 6.3, Fig. 12).
//!
//! One speculation cycle: the draft model runs `gamma` sequential decode
//! steps, then the target verifies the `gamma` proposals (plus samples one
//! bonus token) in a single forward over `gamma + 1` positions per
//! sequence. With per-position acceptance probability `alpha`, the expected
//! number of tokens emitted per cycle is the standard
//! `(1 - alpha^(gamma+1)) / (1 - alpha)`.
//!
//! Acceptance rates for the paper's Qwen3 draft/target pairs are calibrated
//! constants (they are properties of the *models*, not of the serving
//! system); any other pair falls back to a monotone size-ratio heuristic.

use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;

use crate::memory::OomError;
use crate::perfmodel::{PerfModel, RunMetrics};

/// Per-cycle CPU-side orchestration overhead (proposal bookkeeping,
/// rejection sampling, KV rollback) — vLLM measures this in the hundreds of
/// microseconds.
pub const CYCLE_OVERHEAD_S: f64 = 4e-4;

/// Calibrated acceptance rates for the paper's draft models against
/// Qwen3-30B-A3B.
const CALIBRATED_ALPHA: [(&str, f64); 4] = [
    ("Qwen3-0.6B", 0.45),
    ("Qwen3-1.7B", 0.75),
    ("Qwen3-4B", 0.78),
    ("Qwen3-8B", 0.80),
];

/// Acceptance probability of one drafted token.
pub fn acceptance_rate(draft: &ModelConfig, target: &ModelConfig) -> f64 {
    for (name, alpha) in CALIBRATED_ALPHA {
        if draft.name == name {
            return alpha;
        }
    }
    // Fallback: larger drafts approximate the target distribution better;
    // a gentle power law in the parameter ratio, saturating below 0.9.
    let d = draft.reported_total_params.unwrap_or(1_000_000_000) as f64;
    let t = target.reported_total_params.unwrap_or(10_000_000_000) as f64;
    (0.88 * (d / t).min(1.0).powf(0.06)).clamp(0.05, 0.9)
}

/// Expected tokens emitted per speculation cycle (accepted prefix plus the
/// bonus token on full acceptance / the corrected token on rejection).
pub fn expected_tokens_per_cycle(alpha: f64, gamma: usize) -> f64 {
    assert!((0.0..1.0).contains(&alpha), "alpha out of range: {alpha}");
    if gamma == 0 {
        return 1.0;
    }
    (1.0 - alpha.powi(gamma as i32 + 1)) / (1.0 - alpha)
}

/// Configuration of one speculative run.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct SpecParams {
    /// Draft tokens proposed per cycle.
    pub gamma: usize,
    /// Per-token acceptance probability.
    pub alpha: f64,
}

/// Model a speculative-decoding generation run: `target` verifies, `draft`
/// proposes. Both models must already be placed (the draft typically
/// replicates on one device; vLLM colocates it with the target).
pub fn spec_run(
    target: &PerfModel,
    draft: &PerfModel,
    params: SpecParams,
    batch: usize,
    input: usize,
    output: usize,
) -> Result<RunMetrics, OomError> {
    target.check_memory(batch, input + output)?;
    let ttft = target.prefill_time(batch, input) + draft.prefill_time(batch, input);

    let steps = output.saturating_sub(1) as f64;
    let mid_ctx = input + output / 2;

    let tokens_per_cycle = expected_tokens_per_cycle(params.alpha, params.gamma);
    let draft_time = params.gamma as f64 * draft.decode_step_time(batch, mid_ctx);
    // Verification is a chunked forward over gamma+1 positions per sequence.
    let verify_tokens = batch * (params.gamma + 1);
    let verify_time = target.forward_time(
        verify_tokens,
        batch,
        mid_ctx,
        crate::perfmodel::Phase::Prefill,
    );
    let cycle = draft_time + verify_time + CYCLE_OVERHEAD_S;
    let cycles = steps / tokens_per_cycle;
    let e2e = ttft + cycles * cycle;
    Ok(RunMetrics::from_times(batch, input, output, ttft, e2e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Cluster;
    use crate::parallel::ParallelPlan;
    use crate::perfmodel::EngineOptions;
    use moe_model::registry::{qwen3_0_6b, qwen3_1_7b, qwen3_30b_a3b, qwen3_4b, qwen3_8b};

    fn placed(cfg: moe_model::ModelConfig) -> PerfModel {
        PerfModel::new(
            cfg,
            Cluster::h100_node(2),
            EngineOptions::default().with_plan(ParallelPlan::tensor(2)),
        )
        .unwrap()
    }

    #[test]
    fn expected_tokens_formula() {
        assert_eq!(expected_tokens_per_cycle(0.5, 0), 1.0);
        // alpha=0.5, gamma=1: (1 - 0.25) / 0.5 = 1.5
        assert!((expected_tokens_per_cycle(0.5, 1) - 1.5).abs() < 1e-12);
        // gamma -> inf bounded by 1/(1-alpha)
        assert!(expected_tokens_per_cycle(0.5, 100) < 2.0 + 1e-9);
    }

    #[test]
    fn tokens_per_cycle_monotone_in_alpha_and_gamma() {
        assert!(expected_tokens_per_cycle(0.8, 3) > expected_tokens_per_cycle(0.5, 3));
        assert!(expected_tokens_per_cycle(0.8, 4) > expected_tokens_per_cycle(0.8, 3));
    }

    #[test]
    fn acceptance_ordering_by_draft_size() {
        let t = qwen3_30b_a3b();
        let a06 = acceptance_rate(&qwen3_0_6b(), &t);
        let a17 = acceptance_rate(&qwen3_1_7b(), &t);
        let a8 = acceptance_rate(&qwen3_8b(), &t);
        assert!(a06 < a17 && a17 < a8);
    }

    #[test]
    fn fallback_acceptance_is_monotone_and_bounded() {
        let t = qwen3_30b_a3b();
        let mut small = qwen3_0_6b();
        small.name = "custom-draft-small".into();
        let mut big = qwen3_8b();
        big.name = "custom-draft-big".into();
        let a_small = acceptance_rate(&small, &t);
        let a_big = acceptance_rate(&big, &t);
        assert!(a_small < a_big);
        assert!((0.05..=0.9).contains(&a_small));
        assert!((0.05..=0.9).contains(&a_big));
    }

    #[test]
    fn medium_draft_wins_fig12() {
        // The paper's headline: Qwen3-1.7B delivers the best throughput;
        // Qwen3-0.6B lags the leader by a wide margin.
        let target = placed(qwen3_30b_a3b());
        let mut results = Vec::new();
        for d in [qwen3_0_6b(), qwen3_1_7b(), qwen3_4b(), qwen3_8b()] {
            let alpha = acceptance_rate(&d, target.config());
            let draft = placed(d.clone());
            let r = spec_run(
                &target,
                &draft,
                SpecParams { gamma: 3, alpha },
                16,
                1024,
                1024,
            )
            .unwrap();
            results.push((d.name.clone(), r.throughput_tok_s));
        }
        let best = results
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .clone();
        assert_eq!(best.0, "Qwen3-1.7B", "{results:?}");
        let t06 = results.iter().find(|r| r.0 == "Qwen3-0.6B").unwrap().1;
        assert!(
            t06 < best.1 * 0.85,
            "0.6B should lag the leader: {results:?}"
        );
    }

    #[test]
    fn throughput_decreases_with_more_draft_tokens() {
        // Fig. 12 right panel: throughput declines monotonically as the
        // number of speculative tokens grows past the sweet spot.
        let target = placed(qwen3_30b_a3b());
        let draft = placed(qwen3_1_7b());
        let alpha = acceptance_rate(&qwen3_1_7b(), target.config());
        let mut last = f64::INFINITY;
        for gamma in [3usize, 5, 7, 9] {
            let r = spec_run(&target, &draft, SpecParams { gamma, alpha }, 16, 1024, 1024).unwrap();
            assert!(r.throughput_tok_s < last, "gamma={gamma}");
            last = r.throughput_tok_s;
        }
    }

    #[test]
    fn throughput_decreases_with_input_length() {
        let target = placed(qwen3_30b_a3b());
        let draft = placed(qwen3_1_7b());
        let alpha = acceptance_rate(&qwen3_1_7b(), target.config());
        let short = spec_run(
            &target,
            &draft,
            SpecParams { gamma: 3, alpha },
            16,
            128,
            512,
        )
        .unwrap()
        .decode_tok_s;
        let long = spec_run(
            &target,
            &draft,
            SpecParams { gamma: 3, alpha },
            16,
            4096,
            512,
        )
        .unwrap()
        .decode_tok_s;
        assert!(long < short);
    }

    #[test]
    fn spec_beats_vanilla_with_good_draft() {
        let target = placed(qwen3_30b_a3b());
        let draft = placed(qwen3_1_7b());
        let alpha = acceptance_rate(&qwen3_1_7b(), target.config());
        let spec = spec_run(
            &target,
            &draft,
            SpecParams { gamma: 3, alpha },
            16,
            512,
            1024,
        )
        .unwrap();
        let vanilla = target
            .run(16, 512, 1024, &mut moe_trace::Tracer::disabled(), 0)
            .unwrap();
        assert!(
            spec.itl_s < vanilla.itl_s,
            "spec itl {} vs vanilla {}",
            spec.itl_s,
            vanilla.itl_s
        );
    }
}
