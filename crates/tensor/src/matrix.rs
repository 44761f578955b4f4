//! Row-major 2-D matrix over `f32` and the one dense-product kernel.
//!
//! # The `x @ W` kernel
//!
//! Every dense product in the engine is `y = x @ W` with the right
//! operand stored **k-major**: `W` is `[k x n]` (`in x out` for a weight),
//! so row `kk` of `W` holds the `kk`-th term of all `n` outputs side by
//! side. [`matmul_into`] is the only kernel; [`Matrix::matmul`],
//! [`gemv_rows`] and [`gemv`] wrap it.
//!
//! A single `acc += a * b` loop is one dependent chain: every add waits for
//! the previous one, so it runs at the latency of a float add rather than
//! at its throughput. The compiler cannot split the chain itself, because
//! reassociating the sum would change its bits. The kernel instead keeps a
//! register block of `BLOCK_ROWS` = 2 input rows x `BLOCK_COLS` = 16
//! output columns, one accumulation chain per output. Each step over `k`
//! loads 16 adjacent weights once and broadcasts one activation per row
//! against them, so the chains of one row are adjacent lanes that the
//! compiler vectorizes across output columns; the 32 accumulators fill
//! half of the baseline x86-64 target's sixteen 4-lane registers, leaving
//! room for the weights without spilling. Rows left over after the last
//! whole block run one at a time; columns left over run in blocks of 4 and
//! then 1. Neither operand is copied or transposed.
//!
//! **Bit-exactness contract.** Each output is its own sequential sum in `k`
//! order, starting from the caller's `init`, with a separate multiply and
//! add (no fused multiply-add) and no reassociation. It is therefore
//! bit-identical to the single-chain loop
//! `acc = init; for kk in 0..k { acc += x[kk] * w[kk][j] }`, whatever the
//! blocking or the thread that computes it. The engine uses
//! `init = -0.0` for [`gemv`] and [`gemv_rows`] (the starting value of
//! `f32: Sum`, so a sum of `-0.0` products stays `-0.0`) and `+0.0` for
//! [`Matrix::matmul`] (its historical `0.0` accumulator).
//!
//! # When the kernel forks
//!
//! The kernel goes parallel on the [`moe_par`] pool only when it performs
//! at least [`PAR_THRESHOLD`] multiply-adds. Spawning scoped threads costs
//! tens of microseconds, far more than the down-scaled engine's shapes (a
//! 64x64 GEMV is 4k multiply-adds, the 32x64x256 LM head 0.5M), so those
//! run on the calling thread; the parallelism lives one level up, across
//! experiments. Several rows split across workers by row blocks, a single
//! row by column blocks. Forking never changes an output: every output
//! element is computed by the same code on whichever thread owns it.

use std::ops::Range;

use moe_json::{FromJson, ToJson};

use crate::rng;
use moe_par as par;

/// Minimum multiply-adds (`rows x cols x k`) before the kernel goes
/// parallel.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Input rows per register block.
const BLOCK_ROWS: usize = 2;

/// Output columns per register block.
const BLOCK_COLS: usize = 16;

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

    /// Mutably borrow the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
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

    /// `self @ w`, each output summed from `+0.0`: `w` is the k-major
    /// `[self.cols x n]` operand. Panics on a shape mismatch.
    pub fn matmul(&self, w: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, w.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, w.rows, w.cols
        );
        let mut out = Matrix::zeros(self.rows, w.cols);
        matmul_into(&self.data, &w.data, w.cols, 0.0, &mut out.data);
        out
    }

    /// The transpose: how a `[out x in]` weight becomes the k-major
    /// `[in x out]` operand of [`Matrix::matmul`].
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
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

/// GEMV: `y = x @ w`, where `w` is the k-major `[x.len() x n]` operand,
/// each output summed from `-0.0`.
pub fn gemv(w: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(w.rows, x.len(), "gemv shape mismatch");
    let mut y = vec![0.0f32; w.cols];
    matmul_into(x, &w.data, w.cols, -0.0, &mut y);
    y
}

/// [`gemv`] of every row of `xs` as one batched product (`xs @ w` from
/// `-0.0`): row `r` of the result is bit-identical to `gemv(w, xs.row(r))`.
pub fn gemv_rows(w: &Matrix, xs: &Matrix) -> Matrix {
    assert_eq!(w.rows, xs.cols, "gemv shape mismatch");
    let mut out = Matrix::zeros(xs.rows, w.cols);
    matmul_into(&xs.data, &w.data, w.cols, -0.0, &mut out.data);
    out
}

/// The dense-product kernel: `out = x @ w` from `init`. `w` is the
/// row-major k-major operand, `k` rows of `n` columns; `x` holds `m` rows
/// of `k` and `out` `m` rows of `n`, both row-major, with
/// `m = out.len() / n`. Output `[i][j]` is
/// `init + x[i][0] * w[0][j] + x[i][1] * w[1][j] + ...`, summed in `k`
/// order on its own chain (see the module docs).
pub fn matmul_into(x: &[f32], w: &[f32], n: usize, init: f32, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let k = w.len() / n;
    let m = out.len() / n;
    assert_eq!(w.len(), k * n, "weight is not a whole number of rows");
    assert_eq!(
        (x.len(), out.len()),
        (m * k, m * n),
        "matmul_into shape mismatch"
    );
    if m * n * k < PAR_THRESHOLD {
        panel(x, k, w, n, 0..n, init, out);
    } else if m == 1 {
        let cols = BLOCK_COLS * 4;
        par::for_each_chunk_mut(out, cols, |c, o| {
            panel(x, k, w, n, c * cols..c * cols + o.len(), init, o)
        });
    } else {
        par::for_each_chunk_mut(out, BLOCK_ROWS * n, |c, o| {
            panel(&x[c * BLOCK_ROWS * k..], k, w, n, 0..n, init, o)
        });
    }
}

/// Columns `cols` of `x @ w` for the first `out.len() / cols.len()` rows
/// of `x`, into `out` (`cols.len()` per row): `BLOCK_ROWS` rows per block,
/// then the leftover rows one at a time.
fn panel(x: &[f32], k: usize, w: &[f32], n: usize, cols: Range<usize>, init: f32, out: &mut [f32]) {
    let rows = out.len() / cols.len();
    let whole = rows - rows % BLOCK_ROWS;
    let (blocks, tail) = out.split_at_mut(whole * cols.len());
    for (b, o) in blocks.chunks_exact_mut(BLOCK_ROWS * cols.len()).enumerate() {
        row_block::<BLOCK_ROWS>(&x[b * BLOCK_ROWS * k..], k, w, n, cols.clone(), init, o);
    }
    for (r, o) in tail.chunks_exact_mut(cols.len()).enumerate() {
        row_block::<1>(&x[(whole + r) * k..], k, w, n, cols.clone(), init, o);
    }
}

/// `R` rows of `x` against columns `cols` of `w`: `BLOCK_COLS` columns
/// per block, then blocks of 4 and of 1.
#[inline(always)]
fn row_block<const R: usize>(
    x: &[f32],
    k: usize,
    w: &[f32],
    n: usize,
    cols: Range<usize>,
    init: f32,
    out: &mut [f32],
) {
    let xs: [&[f32]; R] = std::array::from_fn(|r| &x[r * k..][..k]);
    let width = cols.len();
    let mut j = 0;
    while j + BLOCK_COLS <= width {
        let acc = block::<R, BLOCK_COLS>(xs, w, n, cols.start + j, init);
        store(out, width, j, acc);
        j += BLOCK_COLS;
    }
    while j + 4 <= width {
        store(out, width, j, block::<R, 4>(xs, w, n, cols.start + j, init));
        j += 4;
    }
    while j < width {
        store(out, width, j, block::<R, 1>(xs, w, n, cols.start + j, init));
        j += 1;
    }
}

/// Write an `R x C` block at column `j` of `R` rows of `width`.
#[inline(always)]
fn store<const R: usize, const C: usize>(
    out: &mut [f32],
    width: usize,
    j: usize,
    acc: [[f32; C]; R],
) {
    for (r, a) in acc.iter().enumerate() {
        out[r * width + j..][..C].copy_from_slice(a);
    }
}

/// The register block: `R` rows `xs` (each `k` long) against columns
/// `j..j + C` of `w`, in one pass over `k`. Output `[r][c]` is `init` plus
/// `xs[r][kk] * w[kk][j + c]` for `kk = 0, 1, ...`, summed sequentially on
/// its own chain, so it has the bits of the single-chain loop. The `C`
/// chains of one row are adjacent lanes, which the compiler vectorizes.
#[inline(always)]
fn block<const R: usize, const C: usize>(
    xs: [&[f32]; R],
    w: &[f32],
    n: usize,
    j: usize,
    init: f32,
) -> [[f32; C]; R] {
    let k = xs.first().map_or(0, |x| x.len());
    let mut acc = [[init; C]; R];
    for kk in 0..k {
        let wk = &w[kk * n + j..][..C];
        for (a, x) in acc.iter_mut().zip(&xs) {
            let v = x[kk];
            for (lane, &wv) in a.iter_mut().zip(wk) {
                *lane += v * wv;
            }
        }
    }
    acc
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

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random(16, 16, 3, 1.0);
        let i = identity(16);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    /// The single-chain loop the blocked kernel must reproduce: output
    /// `[i][j]` of `a @ w` from `init`.
    fn scalar_products(a: &Matrix, w: &Matrix, init: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(a.rows() * w.cols());
        for i in 0..a.rows() {
            for j in 0..w.cols() {
                let mut acc = init;
                for kk in 0..a.cols() {
                    acc += a.get(i, kk) * w.get(kk, j);
                }
                out.push(acc);
            }
        }
        out
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn blocked_kernels_match_scalar_loops_bit_for_bit() {
        // m covers one row, whole row blocks with and without a one-row
        // tail, and several blocks; n = 0..=2 * BLOCK_COLS + 1 covers no
        // columns and every remainder of the column block, with and
        // without whole blocks before it.
        let ms = (1usize..=17).chain([33]);
        for k in [1usize, 16, 64, 97] {
            for m in ms.clone() {
                let a = Matrix::random(m, k, (1000 * k + m) as u64, 1.0);
                for n in 0..=2 * BLOCK_COLS + 1 {
                    let w = Matrix::random(k, n, (100 * k + n) as u64, 1.0);
                    let shape = format!("{m}x{k} @ {k}x{n}");
                    let want = scalar_products(&a, &w, 0.0);
                    assert_same_bits(a.matmul(&w).as_slice(), &want, &format!("matmul {shape}"));
                    let want = scalar_products(&a, &w, -0.0);
                    let got = gemv_rows(&w, &a);
                    assert_same_bits(got.as_slice(), &want, &format!("gemv_rows {shape}"));
                    let got = gemv(&w, a.row(0));
                    assert_same_bits(&got, &want[..n], &format!("gemv {shape}"));
                }
            }
        }
    }

    #[test]
    fn forked_kernels_keep_the_bits() {
        // Both shapes reach PAR_THRESHOLD, so they run the pool path: the
        // single row splits by columns, the 37 rows by row blocks.
        let w = Matrix::random(1024, 1024, 30, 1.0);
        let x = Matrix::random(1, 1024, 31, 1.0);
        assert!(w.len() >= PAR_THRESHOLD);
        let want = scalar_products(&x, &w, -0.0);
        assert_same_bits(&gemv(&w, x.as_slice()), &want, "gemv 1024x1024");

        let a = Matrix::random(37, 128, 32, 1.0);
        let b = Matrix::random(128, 250, 33, 1.0);
        assert!(a.rows() * b.cols() * a.cols() >= PAR_THRESHOLD);
        let want = scalar_products(&a, &b, 0.0);
        assert_same_bits(a.matmul(&b).as_slice(), &want, "matmul 37x128x250");
    }

    #[test]
    fn accumulators_start_at_negative_zero_for_gemv_and_positive_zero_for_matmul() {
        // A negative vector against zero weights sums only -0.0 products,
        // so the result is the accumulator's starting value.
        let zero = Matrix::zeros(4, 9);
        let neg = [-1.0f32; 4];
        assert_same_bits(&gemv(&zero, &neg), &[-0.0; 9], "gemv init");
        let a = Matrix::from_vec(1, 4, neg.to_vec());
        assert_same_bits(a.matmul(&zero).as_slice(), &[0.0; 9], "matmul init");
        assert_same_bits(
            gemv_rows(&zero, &a).as_slice(),
            &[-0.0; 9],
            "gemv_rows init",
        );
        // With no terms at all the start value is the whole answer.
        assert_same_bits(&gemv(&Matrix::zeros(0, 3), &[]), &[-0.0; 3], "empty gemv");
        let mut out = [1.0f32; 3];
        matmul_into(&[], &[], 3, 0.0, &mut []);
        matmul_into(&[], &[], 1, 0.0, &mut out);
        assert_same_bits(&out, &[0.0; 3], "empty matmul_into");
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
    fn transpose_moves_every_element() {
        let m = Matrix::random(5, 9, 9, 1.0);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (9, 5));
        for r in 0..5 {
            for c in 0..9 {
                assert_eq!(t.get(c, r).to_bits(), m.get(r, c).to_bits());
            }
        }
        assert_eq!(t.transpose(), m);
        assert_eq!(Matrix::zeros(3, 0).transpose(), Matrix::zeros(0, 3));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_overwrites_its_output() {
        let a = Matrix::random(12, 8, 10, 1.0);
        let b = Matrix::random(8, 6, 11, 1.0);
        let mut out = vec![f32::NAN; 12 * 6];
        matmul_into(a.as_slice(), b.as_slice(), 6, 0.0, &mut out);
        assert_eq!(out, a.matmul(&b).as_slice());
    }
}
