//! Grouped-query attention with rotary position embeddings over a KV
//! cache.
//!
//! The kernel processes a batch of rows belonging to *one* sequence at
//! given absolute positions — a prefill passes all prompt positions, a
//! decode step passes one. Causality is enforced by only attending to
//! cached tokens at positions `<=` the query's position (the cache is
//! append-only, so position equals cache index).
//!
//! A chunk is attended as a batch. Every row is rotated and its K/V
//! written first; then the keys `0..=last` are gathered once into a
//! k-major `[head_dim x T]` scratch per KV head and the values into a
//! `[T x head_dim]` scratch per KV head, and every query head of a group
//! scores all rows of the chunk in one product. Each row then softmaxes
//! and sums only its own causal prefix `0..=pos`, in position order from
//! `+0.0`, so its output has the bits of attending the rows one at a time.

use std::ops::Range;

use moe_tensor::matrix::{gemv_rows, matmul_into};
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
/// projections of every row, computed up front as batched products (a
/// row's projection does not depend on the cache), the attention context
/// each row accumulates, and the gather buffers reused across calls.
struct Rows {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    ctx: Matrix,
    /// The keys `0..T` of every KV head, each k-major: `[head_dim x T]`.
    keys: Vec<f32>,
    /// The values `0..T` of every KV head, each `[T x head_dim]`.
    values: Vec<f32>,
    /// The query heads of one group for every row: `[group * rows x head_dim]`.
    queries: Vec<f32>,
    /// Their scores against every gathered key: `[group * rows x T]`.
    scores: Vec<f32>,
}

impl Rows {
    fn project(params: &AttentionParams, w: &LayerWeights, x: &Matrix) -> Self {
        Self {
            q: gemv_rows(&w.wq, x),
            k: gemv_rows(&w.wk, x),
            v: gemv_rows(&w.wv, x),
            ctx: Matrix::zeros(x.rows(), params.q_dim()),
            keys: Vec::new(),
            values: Vec::new(),
            queries: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// `rows` of one sequence at absolute `positions` (one per row, in
    /// append order): apply RoPE to and cache every row's K/V, then attend
    /// causally (each query head against its KV-head group, over all
    /// cached positions `<= pos`).
    fn attend(
        &mut self,
        params: &AttentionParams,
        rows: Range<usize>,
        positions: &[usize],
        kv: &mut dyn KvStore,
        layer: usize,
    ) {
        debug_assert_eq!(kv.kv_dim(), params.kv_dim(), "cache width mismatch");
        if rows.is_empty() {
            return;
        }
        let hd = params.head_dim;
        for (r, &pos) in rows.clone().zip(positions) {
            rope_heads_inplace(
                self.q.row_mut(r),
                self.k.row_mut(r),
                hd,
                pos,
                params.rope_theta,
            );
            kv.write(layer, pos, self.k.row(r), self.v.row(r));
        }
        let kv: &dyn KvStore = kv;

        let scale = 1.0 / (hd as f32).sqrt();
        let group = params.group_size();
        let t_len = positions.iter().max().map_or(0, |&last| last + 1);
        let queries = group * rows.len();
        let head_len = hd * t_len;
        self.keys.resize(params.num_kv_heads * head_len, 0.0);
        self.values.resize(params.num_kv_heads * head_len, 0.0);
        self.queries.resize(queries * hd, 0.0);
        self.scores.resize(queries * t_len, 0.0);
        for t in 0..t_len {
            // Key element `c = kv_head * hd + d` lands at row `d` of its
            // head's `[hd x T]` block.
            for (c, &k) in kv.key(layer, t).iter().enumerate() {
                self.keys[c * t_len + t] = k;
            }
            for (kv_head, v) in kv.value(layer, t).chunks_exact(hd).enumerate() {
                self.values[kv_head * head_len + t * hd..][..hd].copy_from_slice(v);
            }
        }
        for kv_head in 0..params.num_kv_heads {
            let keys = &self.keys[kv_head * head_len..][..head_len];
            let values = &self.values[kv_head * head_len..][..head_len];
            // Query `i` is head `kv_head * group + i / rows.len()` of row
            // `rows.start + i % rows.len()`.
            let heads = kv_head * group..(kv_head + 1) * group;
            let pairs = || {
                heads
                    .clone()
                    .flat_map(|head| rows.clone().map(move |r| (head, r)))
            };
            for ((head, r), q) in pairs().zip(self.queries.chunks_exact_mut(hd)) {
                q.copy_from_slice(&self.q.row(r)[head * hd..(head + 1) * hd]);
            }
            matmul_into(&self.queries, keys, t_len, -0.0, &mut self.scores);
            for ((head, r), scores) in pairs().zip(self.scores.chunks_exact_mut(t_len)) {
                let seen = positions[r - rows.start] + 1;
                let scores = &mut scores[..seen];
                for s in scores.iter_mut() {
                    *s *= scale;
                }
                softmax_inplace(scores);
                let ctx = &mut self.ctx.row_mut(r)[head * hd..(head + 1) * hd];
                matmul_into(scores, &values[..seen * hd], hd, 0.0, ctx);
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
    rows.attend(params, 0..x.rows(), positions, kv, layer);
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
    for (r, kv) in kvs.iter_mut().enumerate() {
        rows.attend(params, r..r + 1, &positions[r..r + 1], *kv, layer);
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

    /// Attention one row at a time with single-chain loops, the way the
    /// chunk-batched kernel must reproduce bit for bit: rotate and cache
    /// row `r`, score it against every cached key from `-0.0`, softmax,
    /// and sum the values in position order from `+0.0`.
    fn row_at_a_time(
        p: &AttentionParams,
        w: &LayerWeights,
        x: &Matrix,
        positions: &[usize],
        kv: &mut dyn KvStore,
    ) -> Matrix {
        let hd = p.head_dim;
        let mut q = gemv_rows(&w.wq, x);
        let mut k = gemv_rows(&w.wk, x);
        let v = gemv_rows(&w.wv, x);
        let mut ctx = Matrix::zeros(x.rows(), p.q_dim());
        for (r, &pos) in positions.iter().enumerate() {
            rope_heads_inplace(q.row_mut(r), k.row_mut(r), hd, pos, p.rope_theta);
            kv.write(0, pos, k.row(r), v.row(r));
            for head in 0..p.num_heads {
                let cols = (head / p.group_size()) * hd..(head / p.group_size() + 1) * hd;
                let q_h = &q.row(r)[head * hd..(head + 1) * hd];
                let mut scores: Vec<f32> = (0..=pos)
                    .map(|t| {
                        let mut acc = -0.0f32;
                        for (a, b) in q_h.iter().zip(&kv.key(0, t)[cols.clone()]) {
                            acc += a * b;
                        }
                        acc * (1.0 / (hd as f32).sqrt())
                    })
                    .collect();
                softmax_inplace(&mut scores);
                let out = &mut ctx.row_mut(r)[head * hd..(head + 1) * hd];
                for (t, &s) in scores.iter().enumerate() {
                    for (o, vv) in out.iter_mut().zip(&kv.value(0, t)[cols.clone()]) {
                        *o += s * vv;
                    }
                }
            }
        }
        gemv_rows(&w.wo, &ctx)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn chunk_batched_attention_matches_row_at_a_time_bit_for_bit() {
        let (p, w) = setup();
        let w = &w.layers[0];
        let history = Matrix::random(5, 64, 12, 0.5);
        let chunk = Matrix::random(20, 64, 13, 0.5);
        let positions: Vec<usize> = (5..25).collect();
        let stores: [fn(usize) -> Box<dyn KvStore>; 2] = [
            |kv_dim| Box::new(ContiguousKv::new(1, kv_dim)),
            |kv_dim| Box::new(PagedKv::with_block_size(1, kv_dim, 7)),
        ];
        for (i, store) in stores.iter().enumerate() {
            let mut kv = store(p.kv_dim());
            let _ = attention_forward(&p, w, &history, &[0, 1, 2, 3, 4], kv.as_mut(), 0);
            let got = attention_forward(&p, w, &chunk, &positions, kv.as_mut(), 0);
            let mut reference = store(p.kv_dim());
            let _ = row_at_a_time(&p, w, &history, &[0, 1, 2, 3, 4], reference.as_mut());
            let want = row_at_a_time(&p, w, &chunk, &positions, reference.as_mut());
            assert_eq!(bits(&got), bits(&want), "store {i}");

            // A decode step across sequences of different depths.
            let mut caches: Vec<Box<dyn KvStore>> = Vec::new();
            let mut want = Vec::new();
            let step = Matrix::random(3, 64, 14, 0.5);
            for depth in [1usize, 9, 17] {
                let mut kv = store(p.kv_dim());
                let prefix: Vec<usize> = (0..depth).collect();
                let _ =
                    attention_forward(&p, w, &chunk.gather_rows(&prefix), &prefix, kv.as_mut(), 0);
                let mut reference = store(p.kv_dim());
                let _ = row_at_a_time(
                    &p,
                    w,
                    &chunk.gather_rows(&prefix),
                    &prefix,
                    reference.as_mut(),
                );
                let row = step.gather_rows(&[want.len()]);
                want.push(row_at_a_time(&p, w, &row, &[depth], reference.as_mut()));
                caches.push(kv);
            }
            let mut refs: Vec<&mut dyn KvStore> = caches
                .iter_mut()
                .map(|kv| &mut **kv as &mut dyn KvStore)
                .collect();
            let got = attention_forward_multi(&p, w, &step, &[1, 9, 17], &mut refs, 0);
            for (r, want) in want.iter().enumerate() {
                assert_eq!(
                    bits(&got.gather_rows(&[r])),
                    bits(want),
                    "store {i} multi row {r}"
                );
            }
        }
    }

    #[test]
    fn output_shape_matches_input() {
        let (p, w) = setup();
        let x = Matrix::random(3, 64, 1, 0.5);
        let mut kv = ContiguousKv::new(2, p.kv_dim());
        let out = attention_forward(&p, &w.layers[0], &x, &[0, 1, 2], &mut kv, 0);
        assert_eq!((out.rows(), out.cols()), (3, 64));
        assert_eq!(kv.layer_len(0), 3);
        let none = attention_forward(&p, &w.layers[0], &Matrix::zeros(0, 64), &[], &mut kv, 0);
        assert_eq!((none.rows(), none.cols(), kv.layer_len(0)), (0, 64, 3));
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
