//! Routing traces: the per-token, per-layer expert selections of a real
//! generation run, exported as a seeded, replayable artifact.
//!
//! [`ActivationStats`] aggregates *how often* each expert fires; a
//! [`RoutingTrace`] keeps the *sequence* — for every MoE layer, the top-k
//! expert ids of every routed token in token order. That ordering is what
//! `moe-mem` trains its lookahead predictors on: the layer-to-layer expert
//! transitions of one token are invisible in aggregate counts but decide
//! whether a prefetch issued at layer `l` has the right experts warm at
//! layer `l + 1`.
//!
//! A [`TraceArtifact`] bundles the trace with the aggregate stats and the
//! provenance (model name, weight seed) needed to regenerate it
//! bit-for-bit, and round-trips through `moe-json`.

use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;

use crate::generate::generate;
use crate::model::MoeTransformer;
use crate::stats::ActivationStats;

/// Expert selections of every routed token, per layer, in token order.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct RoutingTrace {
    /// Total transformer layers (dense layers stay empty).
    pub num_layers: usize,
    /// Router fan-out: expert ids are `< num_experts`.
    pub num_experts: usize,
    /// Experts recorded per token per layer.
    pub top_k: usize,
    /// `events[layer]` holds `top_k` expert ids per routed token, flattened
    /// in token order. Token `t` of a layer owns the slice
    /// `[t * top_k, (t + 1) * top_k)`.
    pub events: Vec<Vec<u32>>,
}

impl RoutingTrace {
    pub fn new(num_layers: usize, num_experts: usize, top_k: usize) -> Self {
        Self {
            num_layers,
            num_experts,
            top_k,
            events: vec![Vec::new(); num_layers],
        }
    }

    /// Append one token's expert selection at `layer`.
    pub fn record(&mut self, layer: usize, experts: &[usize]) {
        assert!(layer < self.num_layers, "layer {layer} out of range");
        assert_eq!(experts.len(), self.top_k, "one record per routed token");
        for &e in experts {
            assert!(e < self.num_experts, "expert {e} out of range");
            self.events[layer].push(e as u32);
        }
    }

    /// Routed tokens recorded at `layer`.
    pub fn tokens(&self, layer: usize) -> usize {
        self.events[layer].len() / self.top_k.max(1)
    }

    /// Expert ids of token `t` at `layer`.
    pub fn token_experts(&self, layer: usize, t: usize) -> &[u32] {
        &self.events[layer][t * self.top_k..(t + 1) * self.top_k]
    }

    /// Total recorded (token, expert) assignments across all layers.
    pub fn total_assignments(&self) -> u64 {
        self.events.iter().map(|l| l.len() as u64).sum()
    }
}

/// A replayable trace with its provenance: which model, which weight seed,
/// and the aggregate stats of the same run.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct TraceArtifact {
    /// Model registry name (down-scaled shape).
    pub model: String,
    /// Weight seed the run used; replaying `(model, seed, prompt)`
    /// regenerates the identical trace.
    pub seed: u64,
    /// Aggregate expert-activation counts of the traced run.
    pub stats: ActivationStats,
    /// The full per-token routing sequence.
    pub trace: RoutingTrace,
}

/// Run a seeded generation and capture both the routing trace and the
/// aggregate stats — the predictor-training export `moe-mem` consumes.
pub fn capture_trace(
    model_name: &str,
    config: ModelConfig,
    seed: u64,
    prompt: &[usize],
    max_new_tokens: usize,
) -> TraceArtifact {
    let mut model = MoeTransformer::new(config, seed);
    model.enable_stats();
    model.enable_trace();
    let _ = generate(&mut model, prompt, max_new_tokens);
    let stats = model
        .take_stats()
        .unwrap_or_else(|| ActivationStats::new(0, 0));
    let trace = model
        .take_trace()
        .unwrap_or_else(|| RoutingTrace::new(0, 0, 0));
    TraceArtifact {
        model: model_name.to_string(),
        seed,
        stats,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::tiny_test_model;

    fn capture(seed: u64) -> TraceArtifact {
        capture_trace("tiny-8x2", tiny_test_model(8, 2), seed, &[1, 2, 3, 4, 5], 6)
    }

    /// Aggregate a trace back into per-layer activation counts: the
    /// reference the stats collected alongside a trace must equal.
    fn to_stats(trace: &RoutingTrace) -> ActivationStats {
        let mut stats = ActivationStats::new(trace.num_layers, trace.num_experts);
        for (layer, events) in trace.events.iter().enumerate() {
            for &e in events {
                stats.record(layer, &[e as usize]);
            }
        }
        stats
    }

    #[test]
    fn trace_json_round_trips() {
        let artifact = capture(42);
        let json = moe_json::to_string(&artifact);
        let back = moe_json::from_str::<TraceArtifact>(&json).unwrap();
        assert_eq!(artifact, back);
        assert!(artifact.trace.total_assignments() > 0);
    }

    #[test]
    fn trace_aggregates_to_the_collected_stats() {
        let artifact = capture(7);
        assert_eq!(to_stats(&artifact.trace), artifact.stats);
    }

    #[test]
    fn trace_capture_is_deterministic() {
        assert_eq!(capture(11), capture(11));
        assert_ne!(capture(11).trace, capture(12).trace);
    }

    #[test]
    fn trace_counts_tokens_per_layer() {
        // 5 prompt tokens prefill + 5 decode steps (the 6th token needs no
        // forward) = 10 routed tokens per MoE layer, top-2 each.
        let artifact = capture(3);
        let trace = &artifact.trace;
        assert_eq!(trace.num_layers, 2);
        assert_eq!(trace.top_k, 2);
        for layer in 0..trace.num_layers {
            assert_eq!(trace.tokens(layer), 10);
            for t in 0..trace.tokens(layer) {
                let experts = trace.token_experts(layer, t);
                assert_eq!(experts.len(), 2);
                assert!(experts.iter().all(|&e| (e as usize) < trace.num_experts));
            }
        }
    }

    #[test]
    fn dense_layers_stay_empty() {
        let mut cfg = tiny_test_model(4, 2);
        cfg.first_k_dense_layers = 1;
        cfg.dense_ffn_dim = 128;
        let mut m = MoeTransformer::new(cfg, 9);
        m.enable_trace();
        let mut kv = m.new_kv();
        let _ = m.forward(&[1, 2, 3], &[0, 1, 2], &mut kv);
        let trace = m.take_trace().unwrap();
        assert_eq!(trace.tokens(0), 0, "dense layer must not route");
        assert_eq!(trace.tokens(1), 3);
        assert!(m.take_trace().is_none());
    }
}
