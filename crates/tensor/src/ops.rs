//! Element-wise and normalization kernels used by the transformer executor:
//! softmax, RMSNorm, LayerNorm, SiLU/GeLU, SwiGLU combination and rotary
//! position embeddings (RoPE).

use crate::matrix::Matrix;

/// Numerically-stable in-place softmax over a single row.
pub fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    } else {
        // All -inf inputs: fall back to uniform.
        let u = 1.0 / row.len() as f32;
        row.fill(u);
    }
}

/// Scaled masked softmax for causal attention scores: positions `> allowed`
/// in each row are masked to -inf before the softmax. `allowed[r]` is the
/// last key index row `r` may attend to (inclusive).
pub fn causal_softmax_rows(scores: &mut Matrix, allowed: &[usize], scale: f32) {
    assert_eq!(scores.rows(), allowed.len());
    for (r, &limit) in allowed.iter().enumerate() {
        let row = scores.row_mut(r);
        for (c, v) in row.iter_mut().enumerate() {
            if c > limit {
                *v = f32::NEG_INFINITY;
            } else {
                *v *= scale;
            }
        }
        softmax_inplace(row);
    }
}

/// SiLU (a.k.a. swish): `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// tanh-approximated GeLU, as used by several of the evaluated models.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// In-place SwiGLU combine: `gate[i] = silu(gate[i]) * up[i]`.
///
/// This is the element-wise half of the SwiGLU expert FFN
/// (`down( silu(gate(x)) * up(x) )`) used by Mixtral/Qwen/DeepSeek experts.
pub fn swiglu_inplace(gate: &mut [f32], up: &[f32]) {
    debug_assert_eq!(gate.len(), up.len());
    for (g, u) in gate.iter_mut().zip(up) {
        *g = silu(*g) * u;
    }
}

/// RMSNorm over a single vector: `x / rms(x) * weight`.
pub fn rmsnorm(x: &[f32], weight: &[f32], eps: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), weight.len());
    debug_assert_eq!(x.len(), out.len());
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for ((o, xi), wi) in out.iter_mut().zip(x).zip(weight) {
        *o = xi * inv * wi;
    }
}

/// RMSNorm applied to each row of a matrix, writing into `out`.
pub fn rmsnorm_rows(m: &Matrix, weight: &[f32], eps: f32, out: &mut Matrix) {
    assert_eq!(m.cols(), weight.len());
    assert_eq!((m.rows(), m.cols()), (out.rows(), out.cols()));
    for r in 0..m.rows() {
        // Split borrow: copy the source row is avoided by indexing math.
        let ms = m.row(r).iter().map(|v| v * v).sum::<f32>() / m.cols() as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        let src = m.row(r);
        let dst = out.row_mut(r);
        for ((o, xi), wi) in dst.iter_mut().zip(src).zip(weight) {
            *o = xi * inv * wi;
        }
    }
}

/// Classic LayerNorm over a single vector.
pub fn layernorm(x: &[f32], weight: &[f32], bias: &[f32], eps: f32, out: &mut [f32]) {
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for i in 0..x.len() {
        out[i] = (x[i] - mean) * inv * weight[i] + bias[i];
    }
}

/// Apply rotary position embeddings in-place to a head vector laid out as
/// interleaved pairs `(x0, x1), (x2, x3), ...`, at position `pos`.
pub fn rope_inplace(head: &mut [f32], pos: usize, theta_base: f32) {
    let half = head.len() / 2;
    for i in 0..half {
        let freq = 1.0 / theta_base.powf(2.0 * i as f32 / head.len() as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = head[2 * i];
        let b = head[2 * i + 1];
        head[2 * i] = a * cos - b * sin;
        head[2 * i + 1] = a * sin + b * cos;
    }
}

/// [`rope_inplace`] at position `pos` on every `head_dim`-wide head of
/// both `q` and `k` — one attention row's query and key heads. Each
/// frequency's `powf` and `sin_cos` run once for all heads instead of once
/// per head; the rotation arithmetic is the same, so the bits are too.
pub fn rope_heads_inplace(
    q: &mut [f32],
    k: &mut [f32],
    head_dim: usize,
    pos: usize,
    theta_base: f32,
) {
    for i in 0..head_dim / 2 {
        let freq = 1.0 / theta_base.powf(2.0 * i as f32 / head_dim as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        for head in q
            .chunks_exact_mut(head_dim)
            .chain(k.chunks_exact_mut(head_dim))
        {
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Index of the maximum element (first occurrence on ties).
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in x.iter().enumerate() {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

/// Mean of a slice; 0 for empty input.
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut row);
        assert_close(row.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-5);
        }
    }

    #[test]
    fn softmax_all_neg_inf_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_inplace(&mut row);
        for v in row {
            assert_close(v, 0.25, 1e-6);
        }
    }

    #[test]
    fn causal_mask_zeroes_future() {
        let mut scores = Matrix::from_vec(2, 3, vec![1.0; 6]);
        causal_softmax_rows(&mut scores, &[0, 2], 1.0);
        assert_close(scores.get(0, 0), 1.0, 1e-6);
        assert_close(scores.get(0, 1), 0.0, 1e-6);
        assert_close(scores.get(0, 2), 0.0, 1e-6);
        for c in 0..3 {
            assert_close(scores.get(1, c), 1.0 / 3.0, 1e-6);
        }
    }

    #[test]
    fn silu_known_values() {
        assert_close(silu(0.0), 0.0, 1e-7);
        assert_close(silu(1.0), 1.0 / (1.0 + (-1.0f32).exp()), 1e-6);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_known_values() {
        assert_close(gelu(0.0), 0.0, 1e-7);
        // GeLU(x) ~ x for large positive x.
        assert_close(gelu(10.0), 10.0, 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn swiglu_combines() {
        let mut gate = vec![0.0, 1.0];
        let up = vec![5.0, 2.0];
        swiglu_inplace(&mut gate, &up);
        assert_close(gate[0], 0.0, 1e-7);
        assert_close(gate[1], silu(1.0) * 2.0, 1e-6);
    }

    #[test]
    fn rmsnorm_unit_output_norm() {
        let x = vec![3.0, 4.0];
        let w = vec![1.0, 1.0];
        let mut out = vec![0.0; 2];
        rmsnorm(&x, &w, 1e-6, &mut out);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert_close(out[0], 3.0 / rms, 1e-5);
        assert_close(out[1], 4.0 / rms, 1e-5);
    }

    #[test]
    fn rmsnorm_rows_matches_vector_version() {
        let m = Matrix::random(4, 8, 1, 1.0);
        let w: Vec<f32> = (0..8).map(|i| 1.0 + i as f32 * 0.1).collect();
        let mut out = Matrix::zeros(4, 8);
        rmsnorm_rows(&m, &w, 1e-6, &mut out);
        for r in 0..4 {
            let mut expect = vec![0.0; 8];
            rmsnorm(m.row(r), &w, 1e-6, &mut expect);
            for (a, b) in out.row(r).iter().zip(&expect) {
                assert_close(*a, *b, 1e-6);
            }
        }
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let w = vec![1.0; 4];
        let b = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        layernorm(&x, &w, &b, 1e-6, &mut out);
        assert_close(mean(&out), 0.0, 1e-6);
        let var = out.iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert_close(var, 1.0, 1e-3);
    }

    #[test]
    fn rope_heads_matches_per_head_rope_bit_for_bit() {
        for head_dim in [16usize, 64, 128] {
            let q0: Vec<f32> = (0..4 * head_dim).map(|i| (i as f32 * 0.37).sin()).collect();
            let k0: Vec<f32> = (0..2 * head_dim).map(|i| (i as f32 * 0.53).cos()).collect();
            for pos in 0..=200 {
                let (mut q, mut k) = (q0.clone(), k0.clone());
                rope_heads_inplace(&mut q, &mut k, head_dim, pos, 10_000.0);
                let (mut q_ref, mut k_ref) = (q0.clone(), k0.clone());
                for head in q_ref
                    .chunks_exact_mut(head_dim)
                    .chain(k_ref.chunks_exact_mut(head_dim))
                {
                    rope_inplace(head, pos, 10_000.0);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&q), bits(&q_ref), "q, head_dim {head_dim}, pos {pos}");
                assert_eq!(bits(&k), bits(&k_ref), "k, head_dim {head_dim}, pos {pos}");
            }
        }
    }

    #[test]
    fn rope_preserves_norm_and_pos_zero_identity() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let orig = h.clone();
        rope_inplace(&mut h, 0, 10_000.0);
        assert_eq!(h, orig);
        rope_inplace(&mut h, 17, 10_000.0);
        let n0: f32 = orig.iter().map(|v| v * v).sum();
        let n1: f32 = h.iter().map(|v| v * v).sum();
        assert_close(n0, n1, 1e-4);
        assert_ne!(h, orig);
    }

    #[test]
    fn rope_is_position_additive() {
        // Rotating by pos a then b equals rotating by a+b.
        let mut h1 = vec![0.5, -1.5, 2.0, 0.25];
        let mut h2 = h1.clone();
        rope_inplace(&mut h1, 3, 10_000.0);
        rope_inplace(&mut h1, 4, 10_000.0);
        rope_inplace(&mut h2, 7, 10_000.0);
        for (a, b) in h1.iter().zip(&h2) {
            assert_close(*a, *b, 1e-5);
        }
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
