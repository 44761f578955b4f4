//! Reduced-precision weight formats and their (de)quantization kernels.
//!
//! The paper's quantization study (Fig. 10) compares FP16 against FP8 on
//! H100; GPTQ/AWQ-style block-wise integer formats are the other common
//! deployment path. We implement faithful software encodings:
//!
//! * [`Precision::F16`] / [`Precision::Bf16`] — IEEE binary16 / bfloat16
//!   round-trip through bit manipulation (round-to-nearest-even).
//! * [`Precision::Fp8E4M3`] — the OCP FP8 E4M3 format used by H100 tensor
//!   cores (4 exponent bits, 3 mantissa bits, no infinity, max 448).
//! * [`Precision::Int8`] / [`Precision::Int4`] — symmetric block-wise
//!   integer quantization with one f32 scale per [`BLOCK`] weights.
//!
//! [`QuantizedMatrix`] stores a whole weight matrix in one of these formats
//! and exposes `dequantize` plus a fused `gemv` so the executor can run
//! genuinely quantized forward passes.

use moe_json::{FromJson, ToJson};

use crate::matrix::Matrix;

/// Block size for block-wise integer quantization (one scale per block).
pub const BLOCK: usize = 32;

/// Numeric formats supported by the executor and the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum Precision {
    F32,
    #[default]
    F16,
    Bf16,
    Fp8E4M3,
    Int8,
    Int4,
}

impl Precision {
    /// Storage bytes per parameter (including amortized block scales for the
    /// integer formats).
    pub fn bytes_per_param(self) -> f64 {
        match self {
            Precision::F32 => 4.0,
            Precision::F16 | Precision::Bf16 => 2.0,
            Precision::Fp8E4M3 => 1.0,
            Precision::Int8 => 1.0 + 4.0 / BLOCK as f64,
            Precision::Int4 => 0.5 + 4.0 / BLOCK as f64,
        }
    }

    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "fp32",
            Precision::F16 => "fp16",
            Precision::Bf16 => "bf16",
            Precision::Fp8E4M3 => "fp8",
            Precision::Int8 => "int8",
            Precision::Int4 => "int4",
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar format conversions
// ---------------------------------------------------------------------------

/// Encode an `f32` as IEEE binary16 with round-to-nearest-even.
fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased < -24 {
        return sign; // underflow -> zero
    }
    if unbiased < -14 {
        // Subnormal half.
        let shift = (-14 - unbiased) as u32;
        let mant = (mant | 0x0080_0000) >> (13 + shift);
        let rem = (bits & ((1 << (13 + shift)) - 1)) << (19 - shift);
        let round = if rem > 0x8000_0000u32 || (rem == 0x8000_0000u32 && mant & 1 == 1) {
            1
        } else {
            0
        };
        return sign | (mant as u16 + round);
    }
    let half_exp = ((unbiased + 15) as u16) << 10;
    let half_mant = (mant >> 13) as u16;
    let rem = mant & 0x1fff;
    let round = if rem > 0x1000 || (rem == 0x1000 && half_mant & 1 == 1) {
        1
    } else {
        0
    };
    sign | (half_exp + (half_mant + round))
}

/// Decode IEEE binary16 bits to `f32`.
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (((127 - 14 + e + 1) as u32) << 23) | ((m & 0x3ff) << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Round an `f32` through bfloat16 (truncate mantissa to 7 bits with
/// round-to-nearest-even).
fn f32_round_bf16(x: f32) -> f32 {
    let bits = x.to_bits();
    let rounding = 0x7fff + ((bits >> 16) & 1);
    f32::from_bits(((bits.wrapping_add(rounding)) >> 16) << 16)
}

/// Largest finite FP8 E4M3 value (OCP spec: S.1111.110 = 448).
pub const FP8_E4M3_MAX: f32 = 448.0;

/// Encode an `f32` into FP8 E4M3 bits (round-to-nearest-even, saturating).
fn f32_to_fp8_e4m3(x: f32) -> u8 {
    if x.is_nan() {
        return 0x7f;
    }
    let sign = if x.is_sign_negative() { 0x80u8 } else { 0 };
    let ax = x.abs();
    if ax >= FP8_E4M3_MAX {
        return sign | 0x7e; // saturate to max finite
    }
    if ax < 2f32.powi(-9) {
        return sign; // below half of min subnormal -> zero
    }
    // Min normal is 2^-6; subnormals cover 2^-9..2^-6 with mantissa steps.
    let e = ax.log2().floor() as i32;
    let e = e.clamp(-6, 8);
    let scale = 2f32.powi(e);
    let frac = ax / scale; // in [1, 2) for normals
    if e == -6 && frac < 1.0 {
        // Subnormal: value = m/8 * 2^-6.
        let m = (ax / 2f32.powi(-9)).round() as u8; // steps of 2^-9
        return sign | m.min(7);
    }
    let m = ((frac - 1.0) * 8.0).round() as i32; // 3 mantissa bits
    let (e, m) = if m == 8 { (e + 1, 0) } else { (e, m) };
    if e > 8 {
        return sign | 0x7e;
    }
    sign | (((e + 7) as u8) << 3) | m as u8
}

/// Decode FP8 E4M3 bits into `f32`.
fn fp8_e4m3_to_f32(b: u8) -> f32 {
    let sign = if b & 0x80 != 0 { -1.0f32 } else { 1.0 };
    let e = ((b >> 3) & 0x0f) as i32;
    let m_bits = b & 0x07;
    let m = m_bits as f32;
    if e == 0x0f && m_bits == 7 {
        return f32::NAN;
    }
    if e == 0 {
        sign * m / 8.0 * 2f32.powi(-6)
    } else {
        sign * (1.0 + m / 8.0) * 2f32.powi(e - 7)
    }
}

// ---------------------------------------------------------------------------
// Quantized matrices
// ---------------------------------------------------------------------------

/// Backing storage of a quantized matrix.
#[derive(Debug, Clone, ToJson, FromJson)]
enum Store {
    F32(Vec<f32>),
    F16(Vec<u16>),
    Bf16(Vec<f32>),
    Fp8(Vec<u8>),
    /// Symmetric block-wise int8: values plus one scale per BLOCK entries.
    Int8 {
        q: Vec<i8>,
        scales: Vec<f32>,
    },
    /// Symmetric block-wise int4 packed two per byte (low nibble first).
    Int4 {
        q: Vec<u8>,
        scales: Vec<f32>,
        len: usize,
    },
}

/// A weight matrix stored in a reduced-precision format.
///
/// Rows/cols follow the source [`Matrix`]; the data is quantized row-major
/// with integer blocks never crossing row boundaries is *not* guaranteed —
/// blocks run over the flattened buffer, matching common GPTQ layouts.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    precision: Precision,
    store: Store,
}

impl QuantizedMatrix {
    /// Quantize an f32 matrix into the given precision.
    pub fn quantize(m: &Matrix, precision: Precision) -> Self {
        let data = m.as_slice();
        let store = match precision {
            Precision::F32 => Store::F32(data.to_vec()),
            Precision::F16 => Store::F16(data.iter().map(|&v| f32_to_f16_bits(v)).collect()),
            Precision::Bf16 => Store::Bf16(data.iter().map(|&v| f32_round_bf16(v)).collect()),
            Precision::Fp8E4M3 => Store::Fp8(data.iter().map(|&v| f32_to_fp8_e4m3(v)).collect()),
            Precision::Int8 => {
                let (q, scales) = quantize_int8(data);
                Store::Int8 { q, scales }
            }
            Precision::Int4 => {
                let (q, scales) = quantize_int4(data);
                Store::Int4 {
                    q,
                    scales,
                    len: data.len(),
                }
            }
        };
        Self {
            rows: m.rows(),
            cols: m.cols(),
            precision,
            store,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Reconstruct the f32 matrix.
    pub fn dequantize(&self) -> Matrix {
        let data: Vec<f32> = match &self.store {
            Store::F32(v) => v.clone(),
            Store::F16(v) => v.iter().map(|&h| f16_bits_to_f32(h)).collect(),
            Store::Bf16(v) => v.clone(),
            Store::Fp8(v) => v.iter().map(|&b| fp8_e4m3_to_f32(b)).collect(),
            Store::Int8 { q, scales } => q
                .iter()
                .enumerate()
                .map(|(i, &v)| v as f32 * scales[i / BLOCK])
                .collect(),
            Store::Int4 { q, scales, len } => {
                let mut out = Vec::with_capacity(*len);
                for i in 0..*len {
                    let byte = q[i / 2];
                    let nib = if i % 2 == 0 { byte & 0x0f } else { byte >> 4 };
                    let v = nib as i32 - 8;
                    out.push(v as f32 * scales[i / BLOCK]);
                }
                out
            }
        };
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `y = W @ x` computed against the quantized weights, dequantizing on
    /// the fly row by row (this is how weight-only-quantized GEMV kernels
    /// behave: weights in low precision, accumulation in f32).
    pub fn gemv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, x.len(), "quantized gemv shape mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let base = r * self.cols;
            let mut acc = 0.0f32;
            for (c, &xc) in x.iter().enumerate() {
                acc += self.element(base + c) * xc;
            }
            *yr = acc;
        }
        y
    }

    #[inline]
    fn element(&self, i: usize) -> f32 {
        match &self.store {
            Store::F32(v) => v[i],
            Store::F16(v) => f16_bits_to_f32(v[i]),
            Store::Bf16(v) => v[i],
            Store::Fp8(v) => fp8_e4m3_to_f32(v[i]),
            Store::Int8 { q, scales } => q[i] as f32 * scales[i / BLOCK],
            Store::Int4 { q, scales, .. } => {
                let byte = q[i / 2];
                let nib = if i.is_multiple_of(2) {
                    byte & 0x0f
                } else {
                    byte >> 4
                };
                (nib as i32 - 8) as f32 * scales[i / BLOCK]
            }
        }
    }
}

fn quantize_int8(data: &[f32]) -> (Vec<i8>, Vec<f32>) {
    let nblocks = data.len().div_ceil(BLOCK);
    let mut q = Vec::with_capacity(data.len());
    let mut scales = Vec::with_capacity(nblocks);
    for block in data.chunks(BLOCK) {
        let amax = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        scales.push(scale);
        for &v in block {
            q.push((v / scale).round().clamp(-127.0, 127.0) as i8);
        }
    }
    (q, scales)
}

fn quantize_int4(data: &[f32]) -> (Vec<u8>, Vec<f32>) {
    let nblocks = data.len().div_ceil(BLOCK);
    let mut scales = Vec::with_capacity(nblocks);
    let mut nibbles: Vec<u8> = Vec::with_capacity(data.len());
    for block in data.chunks(BLOCK) {
        let amax = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if amax > 0.0 { amax / 7.0 } else { 1.0 };
        scales.push(scale);
        for &v in block {
            let q = (v / scale).round().clamp(-7.0, 7.0) as i32 + 8;
            nibbles.push(q as u8);
        }
    }
    let mut q = vec![0u8; nibbles.len().div_ceil(2)];
    for (i, nib) in nibbles.iter().enumerate() {
        if i % 2 == 0 {
            q[i / 2] |= nib & 0x0f;
        } else {
            q[i / 2] |= nib << 4;
        }
    }
    (q, scales)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v);
        }
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(1e6)).is_infinite());
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        let v = 2f32.powi(-20);
        let rt = f16_bits_to_f32(f32_to_f16_bits(v));
        assert!((rt - v).abs() / v < 0.01);
    }

    #[test]
    fn bf16_truncation_error_bounded() {
        let v = std::f32::consts::PI;
        let rt = f32_round_bf16(v);
        assert!((rt - v).abs() / v < 1.0 / 256.0);
    }

    #[test]
    fn fp8_exact_small_integers() {
        for v in [0.0f32, 1.0, 2.0, -2.0, 0.5, 448.0, -448.0, 0.25] {
            assert_eq!(fp8_e4m3_to_f32(f32_to_fp8_e4m3(v)), v, "value {v}");
        }
    }

    #[test]
    fn fp8_saturates_not_inf() {
        let enc = f32_to_fp8_e4m3(1e5);
        assert_eq!(fp8_e4m3_to_f32(enc), FP8_E4M3_MAX);
    }

    #[test]
    fn fp8_nan_propagates() {
        assert!(fp8_e4m3_to_f32(f32_to_fp8_e4m3(f32::NAN)).is_nan());
    }

    #[test]
    fn bytes_per_param_ordering() {
        use Precision::*;
        let order = [F32, F16, Int8, Int4];
        for w in order.windows(2) {
            assert!(w[0].bytes_per_param() > w[1].bytes_per_param());
        }
        assert_eq!(F16.bytes_per_param(), Bf16.bytes_per_param());
    }

    #[test]
    fn int8_roundtrip_error_within_bound() {
        let m = Matrix::random(16, 32, 42, 1.0);
        let q = QuantizedMatrix::quantize(&m, Precision::Int8);
        let d = q.dequantize();
        assert!(d.max_abs_diff(&m) <= 1.0 / 127.0 + 1e-6);
    }

    #[test]
    fn int4_roundtrip_error_within_bound() {
        let m = Matrix::random(8, 64, 43, 1.0);
        let q = QuantizedMatrix::quantize(&m, Precision::Int4);
        let d = q.dequantize();
        assert!(d.max_abs_diff(&m) <= 1.0 / 7.0 + 1e-6);
    }

    #[test]
    fn f32_roundtrip_lossless() {
        let m = Matrix::random(7, 9, 44, 2.0);
        let q = QuantizedMatrix::quantize(&m, Precision::F32);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn quantized_gemv_close_to_f32() {
        let m = Matrix::random(24, 48, 46, 0.5);
        let x: Vec<f32> = (0..48).map(|i| (i as f32 * 0.1).sin()).collect();
        let exact = crate::matrix::gemv(&m.transpose(), &x);
        for p in [
            Precision::F16,
            Precision::Fp8E4M3,
            Precision::Int8,
            Precision::Int4,
        ] {
            let q = QuantizedMatrix::quantize(&m, p);
            let approx = q.gemv(&x);
            // Worst-case relative error of the format for unit-range values.
            let nominal = match p {
                Precision::F16 => 1.0 / 2048.0,
                Precision::Fp8E4M3 => 1.0 / 16.0,
                Precision::Int8 => 1.0 / 127.0,
                _ => 1.0 / 7.0,
            };
            let tol = nominal * 48.0 * 0.5 + 1e-4;
            for (a, b) in exact.iter().zip(&approx) {
                assert!((a - b).abs() < tol, "{p:?}: {a} vs {b} (tol {tol})");
            }
        }
    }

    // Deterministic randomized sweeps (replacing the former proptest versions).

    #[test]
    fn randomized_f16_roundtrip_error() {
        let mut rng = crate::rng::rng_from_seed(0x9a_71);
        for _ in 0..256 {
            let v = -60000.0 + rng.next_f32() * 120000.0;
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            let tol = v.abs().max(6.1e-5) / 1024.0;
            assert!((rt - v).abs() <= tol, "{} -> {}", v, rt);
        }
    }

    #[test]
    fn randomized_fp8_roundtrip_error() {
        let mut rng = crate::rng::rng_from_seed(0x9a_72);
        for _ in 0..256 {
            let v = -440.0 + rng.next_f32() * 880.0;
            let rt = fp8_e4m3_to_f32(f32_to_fp8_e4m3(v));
            let tol = v.abs().max(0.002) / 8.0;
            assert!((rt - v).abs() <= tol, "{} -> {}", v, rt);
        }
    }

    #[test]
    fn randomized_int8_block_quant_bound() {
        let mut rng = crate::rng::rng_from_seed(0x9a_73);
        for _ in 0..32 {
            let len = 1 + rng.next_below(199);
            let data: Vec<f32> = (0..len).map(|_| -10.0 + rng.next_f32() * 20.0).collect();
            let m = Matrix::from_vec(1, data.len(), data.clone());
            let q = QuantizedMatrix::quantize(&m, Precision::Int8);
            let d = q.dequantize();
            for (block_idx, block) in data.chunks(BLOCK).enumerate() {
                let amax = block.iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
                let tol = amax / 127.0 + 1e-6;
                for (i, v) in block.iter().enumerate() {
                    let got = d.as_slice()[block_idx * BLOCK + i];
                    assert!((got - v).abs() <= tol);
                }
            }
        }
    }
}
