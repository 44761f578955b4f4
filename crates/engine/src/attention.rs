//! Grouped-query attention with rotary position embeddings over a KV
//! cache.
//!
//! The kernel processes a batch of rows belonging to *one* sequence at
//! given absolute positions — a prefill passes all prompt positions, a
//! decode step passes one. Causality is enforced by only attending to
//! cached tokens at positions `<=` the query's position (the cache is
//! append-only, so position equals cache index).

use moe_tensor::matrix::{dot_rows, gemv_rows};
use moe_tensor::ops::{rope_heads_inplace, softmax_inplace};
use moe_tensor::Matrix;

use crate::kvcache::KvStore;
use crate::weights::LayerWeights;

/// Static attention geometry, derived from the model config.
#[derive(Debug, Clone, Copy)]
pub struct AttentionParams {
    pub num_heads: usize,
    pub num_kv_heads: usize,
    pub head_dim: usize,
    pub rope_theta: f32,
}

impl AttentionParams {
    pub fn q_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    pub fn kv_dim(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// Queries per KV head (GQA group size).
    pub fn group_size(&self) -> usize {
        self.num_heads / self.num_kv_heads
    }
}

/// One batch of rows on their way through attention: the Q/K/V
/// projections of every row, computed up front as batched GEMVs (a row's
/// projection does not depend on the cache), and the attention context
/// each row accumulates.
struct Rows {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    ctx: Matrix,
}

impl Rows {
    fn project(params: &AttentionParams, w: &LayerWeights, x: &Matrix) -> Self {
        Self {
            q: gemv_rows(&w.wq, x),
            k: gemv_rows(&w.wk, x),
            v: gemv_rows(&w.wv, x),
            ctx: Matrix::zeros(x.rows(), params.q_dim()),
        }
    }

    /// Row `r` at absolute position `pos`: apply RoPE, append its K/V to
    /// the cache, and attend causally (each query head against its
    /// KV-head group, over all cached positions `<= pos`).
    fn attend(
        &mut self,
        params: &AttentionParams,
        r: usize,
        pos: usize,
        kv: &mut dyn KvStore,
        layer: usize,
    ) {
        debug_assert_eq!(kv.kv_dim(), params.kv_dim(), "cache width mismatch");
        let hd = params.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        rope_heads_inplace(
            self.q.row_mut(r),
            self.k.row_mut(r),
            hd,
            pos,
            params.rope_theta,
        );
        kv.write(layer, pos, self.k.row(r), self.v.row(r));
        let kv: &dyn KvStore = kv;

        let group = params.group_size();
        let mut scores = vec![0.0f32; pos + 1];
        let ctx = self.ctx.row_mut(r);
        for head in 0..params.num_heads {
            let kv_head = head / group;
            let q_h = &self.q.row(r)[head * hd..(head + 1) * hd];
            dot_rows(&mut scores, q_h, -0.0, |t| {
                &kv.key(layer, t)[kv_head * hd..(kv_head + 1) * hd]
            });
            for s in scores.iter_mut() {
                *s *= scale;
            }
            softmax_inplace(&mut scores);
            let acc = &mut ctx[head * hd..(head + 1) * hd];
            for (t, &s) in scores.iter().enumerate() {
                let v_t = &kv.value(layer, t)[kv_head * hd..(kv_head + 1) * hd];
                for (a, vv) in acc.iter_mut().zip(v_t) {
                    *a += s * vv;
                }
            }
        }
    }

    /// The output projection of every row's context.
    fn output(self, w: &LayerWeights) -> Matrix {
        gemv_rows(&w.wo, &self.ctx)
    }
}

/// Run attention for `x` (`[T x hidden]`, already normed) at absolute
/// `positions`, reading/appending the sequence's KV cache for `layer`.
/// Returns the `[T x hidden]` attention output (before the output
/// projection's residual add).
pub fn attention_forward(
    params: &AttentionParams,
    w: &LayerWeights,
    x: &Matrix,
    positions: &[usize],
    kv: &mut dyn KvStore,
    layer: usize,
) -> Matrix {
    assert_eq!(x.rows(), positions.len(), "one position per row");
    let mut rows = Rows::project(params, w, x);
    for (r, &pos) in positions.iter().enumerate() {
        rows.attend(params, r, pos, kv, layer);
    }
    rows.output(w)
}

/// Batched attention across *independent sequences*: row `r` of `x` is one
/// token of sequence `r`, with its own KV cache and absolute position —
/// the attention half of a continuous-batching decode step.
pub fn attention_forward_multi(
    params: &AttentionParams,
    w: &LayerWeights,
    x: &Matrix,
    positions: &[usize],
    kvs: &mut [&mut dyn KvStore],
    layer: usize,
) -> Matrix {
    assert_eq!(x.rows(), positions.len(), "one position per row");
    assert_eq!(x.rows(), kvs.len(), "one KV cache per row");
    let mut rows = Rows::project(params, w, x);
    for (r, (&pos, kv)) in positions.iter().zip(kvs.iter_mut()).enumerate() {
        rows.attend(params, r, pos, *kv, layer);
    }
    rows.output(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvcache::{ContiguousKv, PagedKv};
    use crate::weights::ModelWeights;
    use moe_model::registry::tiny_test_model;

    fn setup() -> (AttentionParams, ModelWeights) {
        let cfg = tiny_test_model(4, 2);
        let params = AttentionParams {
            num_heads: cfg.num_heads,
            num_kv_heads: cfg.num_kv_heads,
            head_dim: cfg.head_dim,
            rope_theta: cfg.rope_theta,
        };
        let w = ModelWeights::init(&cfg, 42);
        (params, w)
    }

    #[test]
    fn output_shape_matches_input() {
        let (p, w) = setup();
        let x = Matrix::random(3, 64, 1, 0.5);
        let mut kv = ContiguousKv::new(2, p.kv_dim());
        let out = attention_forward(&p, &w.layers[0], &x, &[0, 1, 2], &mut kv, 0);
        assert_eq!((out.rows(), out.cols()), (3, 64));
        assert_eq!(kv.layer_len(0), 3);
    }

    #[test]
    fn prefill_then_decode_equals_full_prefill() {
        // Processing tokens [0..4] at once must equal [0..3] then [3].
        let (p, w) = setup();
        let x = Matrix::random(4, 64, 2, 0.5);

        let mut kv_a = ContiguousKv::new(2, p.kv_dim());
        let full = attention_forward(&p, &w.layers[0], &x, &[0, 1, 2, 3], &mut kv_a, 0);

        let mut kv_b = ContiguousKv::new(2, p.kv_dim());
        let prefix = x.gather_rows(&[0, 1, 2]);
        let _ = attention_forward(&p, &w.layers[0], &prefix, &[0, 1, 2], &mut kv_b, 0);
        let last = x.gather_rows(&[3]);
        let step = attention_forward(&p, &w.layers[0], &last, &[3], &mut kv_b, 0);

        for (a, b) in full.row(3).iter().zip(step.row(0)) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn paged_and_contiguous_caches_agree() {
        let (p, w) = setup();
        let x = Matrix::random(20, 64, 3, 0.5);
        let positions: Vec<usize> = (0..20).collect();

        let mut kv_c = ContiguousKv::new(2, p.kv_dim());
        let mut kv_p = PagedKv::with_block_size(2, p.kv_dim(), 7);
        let out_c = attention_forward(&p, &w.layers[0], &x, &positions, &mut kv_c, 0);
        let out_p = attention_forward(&p, &w.layers[0], &x, &positions, &mut kv_p, 0);
        assert!(out_c.max_abs_diff(&out_p) < 1e-6);
    }

    #[test]
    fn first_token_ignores_nothing_later() {
        // Token 0's output must not depend on later tokens (causality).
        let (p, w) = setup();
        let x1 = Matrix::random(1, 64, 4, 0.5);
        let mut x3 = Matrix::zeros(3, 64);
        x3.row_mut(0).copy_from_slice(x1.row(0));
        x3.row_mut(1)
            .copy_from_slice(Matrix::random(1, 64, 5, 0.5).row(0));
        x3.row_mut(2)
            .copy_from_slice(Matrix::random(1, 64, 6, 0.5).row(0));

        let mut kv_a = ContiguousKv::new(2, p.kv_dim());
        let solo = attention_forward(&p, &w.layers[0], &x1, &[0], &mut kv_a, 0);
        let mut kv_b = ContiguousKv::new(2, p.kv_dim());
        let multi = attention_forward(&p, &w.layers[0], &x3, &[0, 1, 2], &mut kv_b, 0);

        for (a, b) in solo.row(0).iter().zip(multi.row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn position_changes_output_via_rope() {
        let (p, w) = setup();
        let x = Matrix::random(1, 64, 7, 0.5);
        let mut kv_a = ContiguousKv::new(2, p.kv_dim());
        let at0 = attention_forward(&p, &w.layers[0], &x, &[0], &mut kv_a, 0);
        // Same content at position 5 (after 5 dummy tokens).
        let mut kv_b = ContiguousKv::new(2, p.kv_dim());
        let dummies = Matrix::random(5, 64, 8, 0.5);
        let _ = attention_forward(&p, &w.layers[0], &dummies, &[0, 1, 2, 3, 4], &mut kv_b, 0);
        let at5 = attention_forward(&p, &w.layers[0], &x, &[5], &mut kv_b, 0);
        assert!(at0.max_abs_diff(&at5) > 1e-4);
    }

    #[test]
    fn fp8_kv_cache_output_close_to_exact() {
        use crate::kvcache::QuantizedKv;
        let (p, w) = setup();
        let x = Matrix::random(8, 64, 11, 0.5);
        let positions: Vec<usize> = (0..8).collect();

        let mut exact_kv = ContiguousKv::new(2, p.kv_dim());
        let exact = attention_forward(&p, &w.layers[0], &x, &positions, &mut exact_kv, 0);

        let mut q_kv = QuantizedKv::new(
            ContiguousKv::new(2, p.kv_dim()),
            moe_tensor::Precision::Fp8E4M3,
        );
        let approx = attention_forward(&p, &w.layers[0], &x, &positions, &mut q_kv, 0);

        let diff = exact.max_abs_diff(&approx);
        assert!(diff > 0.0, "fp8 KV must perturb");
        assert!(diff < 0.2, "fp8 KV error too large: {diff}");
    }

    #[test]
    fn gqa_group_size() {
        let p = AttentionParams {
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 16,
            rope_theta: 1e4,
        };
        assert_eq!(p.group_size(), 4);
        assert_eq!(p.q_dim(), 128);
        assert_eq!(p.kv_dim(), 32);
    }
}
