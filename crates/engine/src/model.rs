//! The full decoder-only MoE transformer: embeddings, stacked layers
//! (attention + MoE/dense FFN with pre-RMSNorm and residuals), final norm
//! and LM head.

use moe_model::ModelConfig;
use moe_tensor::ops::rmsnorm_rows;
use moe_tensor::Matrix;

use crate::attention::{attention_forward, attention_forward_multi, AttentionParams};
use crate::kvcache::{KvStore, PagedKv};
use crate::moe::{ffn_rows, moe_forward_fused, moe_forward_unfused};
use crate::stats::ActivationStats;
use crate::trace::RoutingTrace;
use crate::weights::ModelWeights;

/// How a forward pass maps rows to KV caches.
enum KvMode<'a, 'b> {
    /// All rows belong to one sequence.
    Single(&'a mut dyn KvStore),
    /// Row `r` is one token of independent sequence `r`.
    Multi(&'a mut [&'b mut dyn KvStore]),
}

/// A runnable model: config + weights + execution knobs.
#[derive(Debug, Clone)]
pub struct MoeTransformer {
    config: ModelConfig,
    weights: ModelWeights,
    fused_moe: bool,
    stats: Option<ActivationStats>,
    trace: Option<RoutingTrace>,
    tokens_processed: u64,
}

impl MoeTransformer {
    /// Build a model with deterministic seeded weights.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid config: {problems:?}");
        let weights = ModelWeights::init(&config, seed);
        Self {
            config,
            weights,
            fused_moe: true,
            stats: None,
            trace: None,
            tokens_processed: 0,
        }
    }

    /// Build from pre-made weights (pruned / quantized variants).
    pub fn with_weights(config: ModelConfig, weights: ModelWeights) -> Self {
        Self {
            config,
            weights,
            fused_moe: true,
            stats: None,
            trace: None,
            tokens_processed: 0,
        }
    }

    /// Total tokens this model has run forward passes over — the compute
    /// that optimizations like prefix caching save.
    pub fn tokens_processed(&self) -> u64 {
        self.tokens_processed
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Mutable access for in-place transforms (pruning, quantization).
    pub fn parts_mut(&mut self) -> (&mut ModelConfig, &mut ModelWeights) {
        (&mut self.config, &mut self.weights)
    }

    /// Select fused or unfused MoE dispatch.
    pub fn set_fused_moe(&mut self, fused: bool) {
        self.fused_moe = fused;
    }

    pub fn fused_moe(&self) -> bool {
        self.fused_moe
    }

    /// Start collecting expert-activation statistics.
    pub fn enable_stats(&mut self) {
        let experts = self.config.moe.as_ref().map(|m| m.num_experts).unwrap_or(0);
        self.stats = Some(ActivationStats::new(self.config.num_layers, experts));
    }

    /// Stop collecting and return the statistics.
    pub fn take_stats(&mut self) -> Option<ActivationStats> {
        self.stats.take()
    }

    /// Start recording the per-token routing trace (see
    /// [`crate::trace::RoutingTrace`]).
    pub fn enable_trace(&mut self) {
        let (experts, top_k) = self
            .config
            .moe
            .as_ref()
            .map(|m| (m.num_experts, m.top_k))
            .unwrap_or((0, 0));
        self.trace = Some(RoutingTrace::new(self.config.num_layers, experts, top_k));
    }

    /// Stop recording and return the routing trace.
    pub fn take_trace(&mut self) -> Option<RoutingTrace> {
        self.trace.take()
    }

    fn attention_params(&self) -> AttentionParams {
        AttentionParams {
            num_heads: self.config.num_heads,
            num_kv_heads: self.config.num_kv_heads,
            head_dim: self.config.head_dim,
            rope_theta: self.config.rope_theta,
        }
    }

    /// Allocate a fresh paged KV cache sized for this model.
    pub fn new_kv(&self) -> PagedKv {
        PagedKv::new(self.config.num_layers, self.attention_params().kv_dim())
    }

    /// Forward `tokens` at absolute `positions` through the model,
    /// returning `[T x vocab]` logits. The KV cache must contain exactly
    /// the tokens at positions `0..positions[0]`.
    pub fn forward(
        &mut self,
        tokens: &[usize],
        positions: &[usize],
        kv: &mut dyn KvStore,
    ) -> Matrix {
        self.forward_impl(tokens, positions, KvMode::Single(kv))
    }

    /// Batched forward across *independent sequences*: row `r` is one
    /// token of sequence `r` with its own KV cache — a continuous-batching
    /// decode step. The MoE/FFN half runs over the whole batch at once
    /// (where the batching win lives); attention is per sequence.
    pub fn forward_multi(
        &mut self,
        tokens: &[usize],
        positions: &[usize],
        kvs: &mut [&mut dyn KvStore],
    ) -> Matrix {
        assert_eq!(tokens.len(), kvs.len(), "one KV cache per token row");
        self.forward_impl(tokens, positions, KvMode::Multi(kvs))
    }

    fn forward_impl(
        &mut self,
        tokens: &[usize],
        positions: &[usize],
        mut kv: KvMode<'_, '_>,
    ) -> Matrix {
        assert_eq!(tokens.len(), positions.len());
        assert!(!tokens.is_empty(), "empty forward");
        for &t in tokens {
            assert!(t < self.config.vocab_size, "token {t} out of vocab");
        }
        self.tokens_processed += tokens.len() as u64;

        let params = self.attention_params();
        let h = self.config.hidden_size;
        let mut x = self.weights.embedding.gather_rows(tokens);
        let mut normed = Matrix::zeros(x.rows(), h);

        for layer_idx in 0..self.config.num_layers {
            let is_moe = self.config.moe.is_some() && layer_idx >= self.config.first_k_dense_layers;

            // Attention block.
            rmsnorm_rows(
                &x,
                &self.weights.layers[layer_idx].attn_norm,
                self.config.norm_eps,
                &mut normed,
            );
            let attn = match &mut kv {
                KvMode::Single(store) => attention_forward(
                    &params,
                    &self.weights.layers[layer_idx],
                    &normed,
                    positions,
                    *store,
                    layer_idx,
                ),
                KvMode::Multi(stores) => attention_forward_multi(
                    &params,
                    &self.weights.layers[layer_idx],
                    &normed,
                    positions,
                    stores,
                    layer_idx,
                ),
            };
            for r in 0..x.rows() {
                x.scatter_add_row(r, attn.row(r), 1.0);
            }

            // FFN block.
            rmsnorm_rows(
                &x,
                &self.weights.layers[layer_idx].ffn_norm,
                self.config.norm_eps,
                &mut normed,
            );
            let ffn = if is_moe {
                let moe = self.config.moe.as_ref().expect("is_moe checked").clone(); // lint:allow(no-panic-in-lib) -- guarded by the is_moe branch above
                let w = &self.weights.layers[layer_idx];
                if self.fused_moe {
                    moe_forward_fused(
                        w,
                        &moe,
                        &normed,
                        self.stats.as_mut(),
                        self.trace.as_mut(),
                        layer_idx,
                    )
                } else {
                    moe_forward_unfused(
                        w,
                        &moe,
                        &normed,
                        self.stats.as_mut(),
                        self.trace.as_mut(),
                        layer_idx,
                    )
                }
            } else {
                let w = self.weights.layers[layer_idx]
                    .dense_ffn
                    .as_ref()
                    .expect("dense layer has a dense FFN"); // lint:allow(no-panic-in-lib) -- layer kind checked by the surrounding match
                ffn_rows(w, &normed)
            };
            for r in 0..x.rows() {
                x.scatter_add_row(r, ffn.row(r), 1.0);
            }
        }

        rmsnorm_rows(
            &x,
            &self.weights.final_norm,
            self.config.norm_eps,
            &mut normed,
        );
        normed.matmul(&self.weights.lm_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::tiny_test_model;

    fn tiny() -> MoeTransformer {
        MoeTransformer::new(tiny_test_model(8, 2), 7)
    }

    #[test]
    fn forward_shapes() {
        let mut m = tiny();
        let mut kv = m.new_kv();
        let logits = m.forward(&[1, 2, 3], &[0, 1, 2], &mut kv);
        assert_eq!((logits.rows(), logits.cols()), (3, 256));
        assert_eq!(kv.len(), 3);
    }

    #[test]
    fn forward_is_deterministic() {
        let mut a = tiny();
        let mut b = tiny();
        let mut kva = a.new_kv();
        let mut kvb = b.new_kv();
        let la = a.forward(&[5, 6], &[0, 1], &mut kva);
        let lb = b.forward(&[5, 6], &[0, 1], &mut kvb);
        assert_eq!(la, lb);
    }

    #[test]
    fn incremental_equals_batch_forward() {
        // Prefill all at once vs token-by-token must give the same final
        // logits (the KV-cache correctness property).
        let prompt = [3usize, 14, 15, 92, 65];
        let mut a = tiny();
        let mut kva = a.new_kv();
        let batch = a.forward(&prompt, &[0, 1, 2, 3, 4], &mut kva);

        let mut b = tiny();
        let mut kvb = b.new_kv();
        let mut last = Matrix::zeros(1, 1);
        for (i, &t) in prompt.iter().enumerate() {
            last = b.forward(&[t], &[i], &mut kvb);
        }
        for (x, y) in batch.row(4).iter().zip(last.row(0)) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_and_unfused_models_agree() {
        let prompt = [1usize, 2, 3, 4];
        let mut a = tiny();
        a.set_fused_moe(true);
        let mut b = tiny();
        b.set_fused_moe(false);
        let mut kva = a.new_kv();
        let mut kvb = b.new_kv();
        let la = a.forward(&prompt, &[0, 1, 2, 3], &mut kva);
        let lb = b.forward(&prompt, &[0, 1, 2, 3], &mut kvb);
        assert!(la.max_abs_diff(&lb) < 1e-3, "{}", la.max_abs_diff(&lb));
    }

    #[test]
    fn stats_collected_per_layer() {
        let mut m = tiny();
        m.enable_stats();
        let mut kv = m.new_kv();
        let _ = m.forward(&[1, 2, 3, 4, 5], &[0, 1, 2, 3, 4], &mut kv);
        let stats = m.take_stats().unwrap();
        // 2 layers x 5 tokens x top-2.
        assert_eq!(stats.total_assignments(), 2 * 5 * 2);
        assert!(m.take_stats().is_none());
    }

    #[test]
    fn dense_first_layers_respected() {
        let mut cfg = tiny_test_model(4, 2);
        cfg.first_k_dense_layers = 1;
        cfg.dense_ffn_dim = 128;
        let mut m = MoeTransformer::new(cfg, 3);
        m.enable_stats();
        let mut kv = m.new_kv();
        let _ = m.forward(&[1, 2], &[0, 1], &mut kv);
        let stats = m.take_stats().unwrap();
        assert_eq!(
            stats.layer(0).iter().sum::<u64>(),
            0,
            "dense layer must not route"
        );
        assert!(stats.layer(1).iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn oov_token_rejected() {
        let mut m = tiny();
        let mut kv = m.new_kv();
        let _ = m.forward(&[9999], &[0], &mut kv);
    }

    #[test]
    fn forward_multi_equals_independent_forwards() {
        // Three sequences with different histories decode one token each
        // in a single batched step; results must match per-sequence calls.
        use crate::kvcache::{KvStore, PagedKv};
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[50, 60], &[7, 8, 9, 10]];
        let next: [usize; 3] = [11, 12, 13];

        // Reference: independent sequences.
        let mut expect_rows = Vec::new();
        for (p, n) in prompts.iter().zip(next) {
            let mut m = tiny();
            let mut kv = m.new_kv();
            let positions: Vec<usize> = (0..p.len()).collect();
            let _ = m.forward(p, &positions, &mut kv);
            let logits = m.forward(&[n], &[p.len()], &mut kv);
            expect_rows.push(logits.row(0).to_vec());
        }

        // Batched: one shared model, per-sequence caches.
        let mut m = tiny();
        let mut kvs: Vec<PagedKv> = Vec::new();
        for p in prompts {
            let mut kv = m.new_kv();
            let positions: Vec<usize> = (0..p.len()).collect();
            let _ = m.forward(p, &positions, &mut kv);
            kvs.push(kv);
        }
        let positions: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
        let mut refs: Vec<&mut dyn KvStore> =
            kvs.iter_mut().map(|kv| kv as &mut dyn KvStore).collect();
        let logits = m.forward_multi(&next, &positions, &mut refs);

        for (r, expect) in expect_rows.iter().enumerate() {
            for (a, b) in logits.row(r).iter().zip(expect) {
                assert!((a - b).abs() < 1e-4, "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one KV cache per token row")]
    fn forward_multi_kv_count_mismatch_panics() {
        use crate::kvcache::KvStore;
        let mut m = tiny();
        let mut kv = m.new_kv();
        let mut refs: Vec<&mut dyn KvStore> = vec![&mut kv];
        let _ = m.forward_multi(&[1, 2], &[0, 0], &mut refs);
    }

    #[test]
    fn quantized_model_close_to_f32() {
        let prompt = [7usize, 8, 9];
        let mut full = tiny();
        let mut kva = full.new_kv();
        let exact = full.forward(&prompt, &[0, 1, 2], &mut kva);

        let cfg = tiny_test_model(8, 2);
        let mut w = ModelWeights::init(&cfg, 7);
        w.quantize(moe_tensor::Precision::F16);
        let mut q = MoeTransformer::with_weights(cfg, w);
        let mut kvb = q.new_kv();
        let approx = q.forward(&prompt, &[0, 1, 2], &mut kvb);

        let diff = exact.max_abs_diff(&approx);
        assert!(diff > 0.0, "fp16 must perturb");
        assert!(diff < 0.1, "fp16 perturbation too large: {diff}");
        // Greedy choice preserved at fp16 for a well-separated argmax.
        let a = moe_tensor::ops::argmax(exact.row(2));
        let b = moe_tensor::ops::argmax(approx.row(2));
        assert_eq!(a, b);
    }
}
