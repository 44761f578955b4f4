//! Row-major 2-D matrix over `f32` and the GEMM/GEMV kernels.
//!
//! # The dot-product micro-kernel
//!
//! [`gemv`], [`gemv_rows`], [`Matrix::matmul_transposed`] and the engine's
//! attention scores are all dot products of input rows against weight
//! rows. A single `acc += a * b` loop is one dependent chain: every add
//! waits for the previous one, so it runs at the latency of a float add
//! rather than at its throughput. The compiler cannot split the chain
//! itself, because reassociating the sum would change its bits.
//!
//! The micro-kernel, `dot_block`, instead computes an `M x N` block of dot
//! products in one pass over `k`: `N` weight rows against `M` input rows,
//! one accumulation chain per output, so the adds of different outputs
//! overlap.
//!
//! * With one input row (`M = 1`, [`gemv`], attention scores),
//!   [`dot_rows`] runs 8 weight rows per pass and finishes the
//!   `n % 8` remainder one by one.
//! * With several input rows ([`gemv_rows`], `matmul_transposed`), the
//!   input rows are first copied into a transposed, padded scratch
//!   buffer so that input column `kk` is `M` adjacent floats. The `M`
//!   chains of one weight row are then adjacent lanes that the compiler
//!   vectorizes: blocks of 16 input rows against 4 weight rows while 16
//!   remain, then blocks of 4 against 8. Only the activations are
//!   transposed; the weights keep their layout.
//!
//! **Bit-exactness contract.** Each output is still its own sequential sum
//! in `k` order, starting from the caller's `init`, with no fused
//! multiply-add and no reassociation. It is therefore bit-identical to the
//! single-chain loop, whatever the blocking or the thread that computes
//! it: `init = -0.0` for [`gemv`] and [`gemv_rows`] (the starting value
//! of `f32: Sum`, so a sum of `-0.0` products stays `-0.0`) and `+0.0`
//! for `matmul_transposed` (its historical `0.0` accumulator).
//!
//! [`Matrix::matmul`] (`C[i,:] += A[i,k] * B[k,:]`) keeps its row-update
//! loop: its chains are the independent output columns, which the
//! compiler vectorizes.
//!
//! # When a kernel forks
//!
//! A kernel goes parallel on the [`moe_par`] pool only when it performs at
//! least [`PAR_THRESHOLD`] multiply-adds. Spawning scoped threads costs
//! tens of microseconds, far more than the down-scaled engine's shapes
//! (a 64x64 GEMV is 4k multiply-adds, the 32x64x256 LM head 0.5M), so
//! those run on the calling thread; the parallelism lives one level up,
//! across experiments. Forking never changes an output: every output
//! element is computed by the same code on whichever thread owns it.

use moe_json::{FromJson, ToJson};

use crate::rng;
use moe_par as par;

/// Minimum multiply-adds (`rows x cols x k`) before a kernel goes
/// parallel.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Rows of the weight operand per [`dot_block`] pass for a single input
/// row, and for a block of [`SMALL_BLOCK`] input rows.
const LANES: usize = 8;

/// Input rows per [`dot_block`] pass when at least this many remain.
const BIG_BLOCK: usize = 16;

/// Input rows per [`dot_block`] pass otherwise (the last block is padded).
const SMALL_BLOCK: usize = 4;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from an existing buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer does not match {rows}x{cols}"
        );
        Self { rows, cols, data }
    }

    /// Deterministically random matrix with entries uniform in
    /// `[-scale, scale)`.
    pub fn random(rows: usize, cols: usize, seed: u64, scale: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        rng::fill_uniform(&mut m.data, seed, scale);
        m
    }

    /// Deterministically random matrix with ~N(0, std^2) entries, the usual
    /// transformer weight initialization.
    pub fn random_normal(rows: usize, cols: usize, seed: u64, std: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        rng::fill_normal(&mut m.data, seed, std);
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy the rows selected by `indices` into a new matrix (a gather, as
    /// used by MoE token dispatch).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Accumulate `alpha * src_row` into row `r` (a scatter-add, as used by
    /// MoE expert-output combination).
    pub fn scatter_add_row(&mut self, r: usize, src_row: &[f32], alpha: f32) {
        let dst = self.row_mut(r);
        debug_assert_eq!(dst.len(), src_row.len());
        for (d, s) in dst.iter_mut().zip(src_row) {
            *d += alpha * s;
        }
    }

    /// `self @ other` — GEMM. Panics on a shape mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out);
        out
    }

    /// `self @ other.T` — GEMM against a transposed right operand. This is
    /// the natural layout for attention scores (`Q @ K^T`) and for weight
    /// matrices stored output-major.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        dot_products(self, other, 0.0)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference against another matrix of the same shape.
    // lint:allow(dead-pub) -- the tolerance check moe-engine's unit tests share
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// GEMM into a pre-allocated output (`out = a @ b`), reusing the output
/// buffer to avoid allocation in the decode loop.
fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "output shape mismatch"
    );
    let n = b.cols;
    let k = a.cols;
    let body = |i: usize, out_row: &mut [f32]| {
        out_row.fill(0.0);
        let a_row = a.row(i);
        for (kk, &aik) in a_row.iter().enumerate().take(k) {
            // Bit-pattern test for ±0.0: skipping a zero row of A is an
            // exact sparsity shortcut, not a tolerance decision, so it must
            // not be widened to an epsilon (and `== 0.0` trips the
            // no-float-eq lint).
            if aik.to_bits() & 0x7FFF_FFFF == 0 {
                continue;
            }
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    };
    if a.rows * n * k >= PAR_THRESHOLD {
        par::for_each_chunk_mut(&mut out.data, n, body);
    } else {
        out.data
            .chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(i, c)| body(i, c));
    }
}

/// GEMV: `y = W @ x` where `W` is `m x k` and `x` has length `k`.
pub fn gemv(w: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(w.cols, x.len(), "gemv shape mismatch");
    let mut y = vec![0.0f32; w.rows];
    gemv_into(w, x, -0.0, &mut y);
    y
}

/// [`gemv`] of every row of `xs` as one batched kernel: row `r` of the
/// result is bit-identical to `gemv(w, xs.row(r))`.
pub fn gemv_rows(w: &Matrix, xs: &Matrix) -> Matrix {
    assert_eq!(w.cols, xs.cols, "gemv shape mismatch");
    dot_products(xs, w, -0.0)
}

/// `out[i][j] = init + a[i][0] * b[j][0] + a[i][1] * b[j][1] + ...`, each
/// a sequential sum in `k` order: `a @ b^T` from `init`.
fn dot_products(a: &Matrix, b: &Matrix, init: f32) -> Matrix {
    let (m, n, k) = (a.rows, b.rows, a.cols);
    let mut out = Matrix::zeros(m, n);
    if m == 1 {
        gemv_into(b, a.row(0), init, &mut out.data);
        return out;
    }
    if n == 0 {
        return out;
    }
    // The input rows transposed and padded to whole blocks: column `kk`
    // of `a` starts at `at[kk * mp]`.
    let mp = m.next_multiple_of(SMALL_BLOCK);
    let mut at = vec![0.0f32; k * mp];
    for i in 0..m {
        for (kk, &v) in a.row(i).iter().enumerate() {
            at[kk * mp + i] = v;
        }
    }
    let body = |first: usize, out: &mut [f32]| block_rows(&at, mp, first, b, init, out);
    if m * n * k >= PAR_THRESHOLD {
        par::for_each_chunk_mut(&mut out.data, BIG_BLOCK * n, |c, o| body(c * BIG_BLOCK, o));
    } else {
        body(0, &mut out.data);
    }
    out
}

/// `y[j] = init + w[j] . x` for every row `j` of `w`, [`LANES`] rows per
/// [`dot_block`] pass.
fn gemv_into(w: &Matrix, x: &[f32], init: f32, y: &mut [f32]) {
    let body = |first: usize, y: &mut [f32]| dot_rows(y, x, init, |j| w.row(first + j));
    if w.len() >= PAR_THRESHOLD {
        par::for_each_chunk_mut(y, LANES, |c, y| body(c * LANES, y));
    } else {
        body(0, y);
    }
}

/// Rows `first..` of [`dot_products`]' output, as many as `out` holds
/// (`b` has at least one row):
/// [`BIG_BLOCK`] input rows per pass while that many remain, then
/// [`SMALL_BLOCK`].
fn block_rows(at: &[f32], mp: usize, first: usize, b: &Matrix, init: f32, out: &mut [f32]) {
    let n = b.rows;
    let mut i0 = first;
    for block in out.chunks_mut(n * BIG_BLOCK) {
        if block.len() < n * BIG_BLOCK {
            for small in block.chunks_mut(n * SMALL_BLOCK) {
                row_block::<SMALL_BLOCK, LANES>(at, mp, i0, b, init, small);
                i0 += SMALL_BLOCK;
            }
        } else {
            row_block::<BIG_BLOCK, { LANES / 2 }>(at, mp, i0, b, init, block);
            i0 += BIG_BLOCK;
        }
    }
}

/// Input rows `i0..i0 + M` against every row of `b`, `N` rows of `b` per
/// [`dot_block`] pass, writing the first `out.len() / b.rows` of those
/// input rows' outputs.
fn row_block<const M: usize, const N: usize>(
    at: &[f32],
    mp: usize,
    i0: usize,
    b: &Matrix,
    init: f32,
    out: &mut [f32],
) {
    let n = b.rows;
    let cols = &at[i0..];
    let store = |out: &mut [f32], j0: usize, acc: &[[f32; M]]| {
        for (ii, out_row) in out.chunks_mut(n).enumerate() {
            for (jj, a) in acc.iter().enumerate() {
                out_row[j0 + jj] = a[ii];
            }
        }
    };
    let full = n - n % N;
    for j0 in (0..full).step_by(N) {
        let acc = dot_block::<M, N>(std::array::from_fn(|jj| b.row(j0 + jj)), cols, mp, init);
        store(out, j0, &acc);
    }
    for j in full..n {
        store(out, j, &dot_block::<M, 1>([b.row(j)], cols, mp, init));
    }
}

/// `M x N` dot products in one pass over `k`: the dot-product
/// micro-kernel. `rows` are `N` rows of length `k`; input column `kk` is
/// `cols[kk * stride..][..M]`, one value per input row. Output `[j][i]`
/// is `init` plus `rows[j][kk] * column_kk[i]` for `kk = 0, 1, ...`,
/// summed sequentially in `kk` order on its own accumulation chain, so it
/// has the bits of the single-chain loop (see the module docs). The `M`
/// chains of one row of `rows` are adjacent lanes, which the compiler
/// vectorizes.
#[inline]
fn dot_block<const M: usize, const N: usize>(
    rows: [&[f32]; N],
    cols: &[f32],
    stride: usize,
    init: f32,
) -> [[f32; M]; N] {
    let k = rows.first().map_or(0, |r| r.len());
    let rows = rows.map(|r| &r[..k]);
    let mut acc = [[init; M]; N];
    for kk in 0..k {
        let col = &cols[kk * stride..][..M];
        for (a, r) in acc.iter_mut().zip(&rows) {
            let b = r[kk];
            for (lane, &c) in a.iter_mut().zip(col) {
                *lane += c * b;
            }
        }
    }
    acc
}

/// `out[j] = init + row(j) . x` for every `j`, 8 rows per pass of the
/// micro-kernel and the `out.len() % 8` remainder one by one.
/// `row(j)` must have the length of `x`.
#[inline]
pub fn dot_rows<'a>(out: &mut [f32], x: &[f32], init: f32, row: impl Fn(usize) -> &'a [f32]) {
    let full = out.len() - out.len() % LANES;
    let (blocks, tail) = out.split_at_mut(full);
    for (b, block) in blocks.chunks_exact_mut(LANES).enumerate() {
        let acc = dot_block::<1, LANES>(std::array::from_fn(|j| row(b * LANES + j)), x, 1, init);
        for (o, [v]) in block.iter_mut().zip(acc) {
            *o = v;
        }
    }
    for (j, o) in tail.iter_mut().enumerate() {
        let [[v]] = dot_block::<1, 1>([row(full + j)], x, 1, init);
        *o = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Explicit transpose: the reference `matmul_transposed` is checked
    /// against.
    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols, m.rows);
        for r in 0..m.rows {
            for c in 0..m.cols {
                out.data[c * m.rows + r] = m.data[r * m.cols + c];
            }
        }
        out
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_large_parallel() {
        let a = Matrix::random(97, 83, 1, 1.0);
        let b = Matrix::random(83, 71, 2, 1.0);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random(16, 16, 3, 1.0);
        let i = identity(16);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::random(33, 17, 4, 1.0);
        let b = Matrix::random(29, 17, 5, 1.0);
        let direct = a.matmul_transposed(&b);
        let via_t = a.matmul(&transpose(&b));
        assert!(direct.max_abs_diff(&via_t) < 1e-4);
    }

    #[test]
    fn gemv_matches_matmul() {
        let w = Matrix::random(40, 30, 6, 1.0);
        let x = Matrix::random(30, 1, 7, 1.0);
        let y = gemv(&w, x.as_slice());
        let y2 = w.matmul(&x);
        for (a, b) in y.iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// The single-chain loop the multi-chain kernel must reproduce.
    fn scalar_dot(row: &[f32], x: &[f32], init: f32) -> f32 {
        let mut acc = init;
        for (r, v) in row.iter().zip(x) {
            acc += r * v;
        }
        acc
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{what}");
    }

    /// `a @ b^T` by the single-chain loop, from `init`.
    fn scalar_products(a: &Matrix, b: &Matrix, init: f32) -> Vec<f32> {
        (0..a.rows())
            .flat_map(|i| (0..b.rows()).map(move |j| scalar_dot(a.row(i), b.row(j), init)))
            .collect()
    }

    #[test]
    fn blocked_kernels_match_scalar_loops_bit_for_bit() {
        // n = 0..=17 covers zero rows and every n % LANES remainder; m
        // covers one row, padded small blocks, and big blocks with and
        // without a small-block tail.
        for k in [1usize, 16, 64, 97] {
            for m in [1usize, 2, 3, 4, 5, 15, 16, 17, 33] {
                let a = Matrix::random(m, k, (1000 * k + m) as u64, 1.0);
                for n in 0..=17usize {
                    let w = Matrix::random(n, k, (100 * k + n) as u64, 1.0);
                    let shape = format!("{m}x{k} @ ({n}x{k})^T");
                    let got = a.matmul_transposed(&w);
                    let want = scalar_products(&a, &w, 0.0);
                    assert_same_bits(got.as_slice(), &want, &format!("matmul_transposed {shape}"));
                    let got = gemv_rows(&w, &a);
                    let want = scalar_products(&a, &w, -0.0);
                    assert_same_bits(got.as_slice(), &want, &format!("gemv_rows {shape}"));
                    let got = gemv(&w, a.row(0));
                    assert_same_bits(&got, &want[..n], &format!("gemv {shape}"));
                }
            }
        }
    }

    #[test]
    fn forked_kernels_keep_the_bits() {
        // Both shapes reach PAR_THRESHOLD, so they run the pool path.
        let w = Matrix::random(1024, 1024, 30, 1.0);
        let x = Matrix::random(1, 1024, 31, 1.0);
        assert!(w.len() >= PAR_THRESHOLD);
        let want = scalar_products(&x, &w, -0.0);
        assert_same_bits(&gemv(&w, x.as_slice()), &want, "gemv 1024x1024");

        let a = Matrix::random(37, 128, 32, 1.0);
        let b = Matrix::random(250, 128, 33, 1.0);
        assert!(a.rows() * b.rows() * a.cols() >= PAR_THRESHOLD);
        let want = scalar_products(&a, &b, 0.0);
        assert_same_bits(
            a.matmul_transposed(&b).as_slice(),
            &want,
            "matmul_transposed 37x128x250",
        );
    }

    #[test]
    fn accumulators_start_at_negative_zero_for_gemv_and_positive_zero_for_matmul_transposed() {
        // A zero row against a negative vector sums only -0.0 products, so
        // the result is the accumulator's starting value.
        let zero = Matrix::zeros(9, 4);
        let neg = [-1.0f32; 4];
        assert_same_bits(&gemv(&zero, &neg), &[-0.0; 9], "gemv init");
        let a = Matrix::from_vec(1, 4, neg.to_vec());
        assert_same_bits(
            a.matmul_transposed(&zero).as_slice(),
            &[0.0; 9],
            "matmul_transposed init",
        );
        // With no terms at all the start value is the whole answer.
        assert_same_bits(&gemv(&Matrix::zeros(3, 0), &[]), &[-0.0; 3], "empty gemv");
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let m = Matrix::random(8, 4, 8, 1.0);
        let g = m.gather_rows(&[3, 1, 7]);
        assert_eq!(g.row(0), m.row(3));
        assert_eq!(g.row(1), m.row(1));
        assert_eq!(g.row(2), m.row(7));

        let mut acc = Matrix::zeros(8, 4);
        acc.scatter_add_row(3, g.row(0), 2.0);
        for (a, b) in acc.row(3).iter().zip(m.row(3)) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 9, 9, 1.0);
        assert_eq!(transpose(&transpose(&m)), m);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::random(12, 8, 10, 1.0);
        let b = Matrix::random(8, 6, 11, 1.0);
        let mut out = Matrix::zeros(12, 6);
        matmul_into(&a, &b, &mut out);
        assert!(out.max_abs_diff(&a.matmul(&b)) < 1e-5);
        // Second call overwrites rather than accumulates.
        matmul_into(&a, &b, &mut out);
        assert!(out.max_abs_diff(&a.matmul(&b)) < 1e-5);
    }
}
