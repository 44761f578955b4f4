//! The roofline op-cost model.
//!
//! Every kernel is summarized as an [`OpCost`] — floating-point work, weight
//! bytes streamed from main memory, activation bytes moved, and kernel
//! launches — and timed as
//!
//! ```text
//! t = max(flops / (sustained_flops * eff), bytes / sustained_bw) + launches * t_launch
//! ```
//!
//! Three GEMM efficiency effects matter for the paper's results and are
//! modeled explicitly:
//!
//! * **Pipeline fill** — GEMMs with few rows (decode; per-expert GEMMs at
//!   small batch) cannot fill the tensor-core pipelines: `eff_fill =
//!   m / (m + 16)`.
//! * **Wave quantization** — thread blocks execute in waves of `num_sms`;
//!   a partial last wave wastes SMs.
//! * **Tile tuning** — kernels are tuned for dimensions that are multiples
//!   of the tile quantum (256); off-size dimensions (as produced by
//!   fractional intra-expert pruning) pay [`UNTUNED_PENALTY`]. This is the
//!   mechanism behind the paper's observation that 12.5 %/25 % pruning can
//!   *reduce* throughput while 50 % improves it.

use moe_json::{FromJson, ToJson};
use moe_tensor::Precision;

use crate::device::DeviceProfile;

/// GEMM tile edge used for wave quantization (128x128 CTAs).
pub const TILE: usize = 128;

/// Dimension quantum for which vendor kernels are tuned.
pub const TUNE_QUANTUM: usize = 256;

/// Efficiency multiplier applied when a GEMM dimension is not a multiple of
/// [`TUNE_QUANTUM`].
pub const UNTUNED_PENALTY: f64 = 0.82;

/// Abstract cost of one kernel (or a fused group of kernels).
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson, FromJson)]
pub struct OpCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Compute efficiency in (0, 1]: fraction of sustained peak reached.
    pub compute_eff: f64,
    /// Memory-path efficiency in (0, 1]: off-quantum tensor dimensions
    /// waste bandwidth on partial tiles/segments.
    pub mem_eff: f64,
    /// Weight bytes streamed from main memory (skipped on
    /// weight-stationary devices).
    pub weight_bytes: f64,
    /// Activation / KV bytes moved through main memory.
    pub act_bytes: f64,
    /// Kernel launches.
    pub launches: f64,
    /// Precision whose tensor-core peak applies to `flops`.
    pub precision: Precision,
}

impl OpCost {
    /// An empty cost.
    pub fn zero() -> Self {
        Self {
            compute_eff: 1.0,
            mem_eff: 1.0,
            precision: Precision::F16,
            ..Default::default()
        }
    }

    /// Accumulate another op (sequential composition). Efficiency is
    /// combined as a flop-weighted harmonic mean so that summed costs time
    /// identically to timing each op separately (up to roofline max()).
    pub fn add(&mut self, other: &OpCost) {
        // Keep a flop-weighted average efficiency; precise enough because
        // we only ever combine ops of the same phase.
        let total_flops = self.flops + other.flops;
        if total_flops > 0.0 {
            let t_self = self.flops / self.compute_eff.max(1e-9);
            let t_other = other.flops / other.compute_eff.max(1e-9);
            self.compute_eff = total_flops / (t_self + t_other);
        }
        self.flops = total_flops;
        // Bytes-weighted harmonic mean keeps summed memory time additive.
        let my_bytes = self.weight_bytes + self.act_bytes;
        let other_bytes = other.weight_bytes + other.act_bytes;
        let total_bytes = my_bytes + other_bytes;
        if total_bytes > 0.0 {
            let t = my_bytes / self.mem_eff.max(1e-9) + other_bytes / other.mem_eff.max(1e-9);
            self.mem_eff = total_bytes / t;
        }
        self.weight_bytes += other.weight_bytes;
        self.act_bytes += other.act_bytes;
        self.launches += other.launches;
        self.precision = other.precision;
    }

    /// Scale the whole op by a constant (e.g. layer count).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.flops *= factor;
        self.weight_bytes *= factor;
        self.act_bytes *= factor;
        self.launches *= factor;
        self
    }

    /// Roofline execution time on a device (seconds).
    pub fn time_on(&self, device: &DeviceProfile) -> f64 {
        let compute = if self.flops > 0.0 {
            self.flops / (device.sustained_flops(self.precision) * self.compute_eff.max(1e-9))
        } else {
            0.0
        };
        let weight_traffic = if device.weights_stationary() {
            0.0
        } else {
            self.weight_bytes
        };
        let mem = (weight_traffic + self.act_bytes)
            / (device.sustained_bandwidth() * self.mem_eff.max(1e-9));
        compute.max(mem) + self.launches * device.kernel_launch_s
    }
}

/// Pipeline-fill efficiency for a GEMM with `m` rows.
pub fn fill_efficiency(m: usize) -> f64 {
    m as f64 / (m as f64 + 16.0)
}

/// Wave-quantization efficiency for an `m x n` output tiled at
/// [`TILE`]x[`TILE`] on `num_sms` SMs.
fn wave_efficiency(m: usize, n: usize, num_sms: usize) -> f64 {
    let blocks = m.div_ceil(TILE) * n.div_ceil(TILE);
    let waves = blocks.div_ceil(num_sms);
    blocks as f64 / (waves * num_sms) as f64
}

/// Tile-tuning efficiency for the inner dimensions of a GEMM.
pub fn tuning_efficiency(n: usize, k: usize) -> f64 {
    if n.is_multiple_of(TUNE_QUANTUM) && k.is_multiple_of(TUNE_QUANTUM) {
        1.0
    } else {
        UNTUNED_PENALTY
    }
}

/// Cost of one dense GEMM `[m x k] @ [k x n]` with weights stored at
/// `precision` and activations at 16-bit.
pub fn gemm_cost(
    device: &DeviceProfile,
    precision: Precision,
    m: usize,
    n: usize,
    k: usize,
) -> OpCost {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let tuned = tuning_efficiency(n, k);
    let eff = fill_efficiency(m) * wave_efficiency(m, n, device.num_sms) * tuned;
    let weight_bytes = n as f64 * k as f64 * precision.bytes_per_param();
    let act_bytes = (m * k + m * n) as f64 * 2.0;
    OpCost {
        flops,
        compute_eff: eff.clamp(1e-6, 1.0),
        mem_eff: tuned,
        weight_bytes,
        act_bytes,
        launches: 1.0,
        precision,
    }
}

/// Cost of a pure streaming kernel over `bytes` of activations (norms,
/// residual adds, rotary embedding, sampling).
pub fn stream_cost(bytes: f64) -> OpCost {
    OpCost {
        flops: 0.0,
        compute_eff: 1.0,
        mem_eff: 1.0,
        weight_bytes: 0.0,
        act_bytes: bytes,
        launches: 1.0,
        precision: Precision::F16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h100() -> DeviceProfile {
        crate::device::profile("h100").expect("h100 is in the zoo")
    }

    #[test]
    fn large_gemm_is_compute_bound_near_peak() {
        let d = h100();
        let c = gemm_cost(&d, Precision::F16, 8192, 8192, 8192);
        let t = c.time_on(&d);
        let ideal = c.flops / d.sustained_flops(Precision::F16);
        assert!(t < ideal * 1.3, "t={t} ideal={ideal}");
        assert!(c.flops / (c.weight_bytes + c.act_bytes) > 1000.0);
    }

    #[test]
    fn single_row_gemm_is_memory_bound() {
        let d = h100();
        let c = gemm_cost(&d, Precision::F16, 1, 14_336, 4096);
        let weight_time = c.weight_bytes / d.sustained_bandwidth();
        let t = c.time_on(&d);
        // Time should be within launch overhead of pure weight streaming.
        assert!((t - weight_time - d.kernel_launch_s).abs() / t < 0.05);
    }

    #[test]
    fn fp8_gemm_faster_than_fp16_when_memory_bound() {
        let d = h100();
        let t16 = gemm_cost(&d, Precision::F16, 4, 14_336, 4096).time_on(&d);
        let t8 = gemm_cost(&d, Precision::Fp8E4M3, 4, 14_336, 4096).time_on(&d);
        assert!(t8 < t16 * 0.65, "fp8 {t8} vs fp16 {t16}");
    }

    #[test]
    fn fp8_gemm_faster_than_fp16_when_compute_bound() {
        let d = h100();
        let t16 = gemm_cost(&d, Precision::F16, 8192, 8192, 8192).time_on(&d);
        let t8 = gemm_cost(&d, Precision::Fp8E4M3, 8192, 8192, 8192).time_on(&d);
        assert!(t8 < t16 * 0.6);
    }

    #[test]
    fn weight_stationary_device_skips_weight_traffic() {
        let cs3 = crate::device::profile("cs3").expect("cs3 is in the zoo");
        let c = gemm_cost(&cs3, Precision::F16, 1, 14_336, 4096);
        let t = c.time_on(&cs3);
        // Without weight streaming the op is dominated by launch overhead.
        assert!(t < 3.0 * cs3.kernel_launch_s, "{t}");
    }

    #[test]
    fn fill_efficiency_monotone() {
        assert!(fill_efficiency(1) < fill_efficiency(16));
        assert!(fill_efficiency(16) < fill_efficiency(1024));
        assert!(fill_efficiency(100_000) > 0.99);
    }

    #[test]
    fn wave_efficiency_partial_wave_penalized() {
        // 133 blocks on 132 SMs -> 2 waves, ~50% efficiency.
        let eff = wave_efficiency(TILE, 133 * TILE, 132);
        assert!((eff - 133.0 / 264.0).abs() < 1e-9);
        // Exactly one wave -> 100%.
        assert_eq!(wave_efficiency(TILE, 132 * TILE, 132), 1.0);
    }

    #[test]
    fn tuning_penalty_applies_to_offsize_dims() {
        assert_eq!(tuning_efficiency(14_336, 4096), 1.0);
        assert_eq!(tuning_efficiency(896, 2048), UNTUNED_PENALTY);
        assert_eq!(tuning_efficiency(768, 2048), 1.0);
    }

    #[test]
    fn cost_add_preserves_totals_and_time() {
        let d = h100();
        let a = gemm_cost(&d, Precision::F16, 256, 4096, 4096);
        let b = gemm_cost(&d, Precision::F16, 256, 14_336, 4096);
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.flops, a.flops + b.flops);
        assert_eq!(sum.launches, 2.0);
        // Summed compute time ~ sum of individual compute times.
        let t_sum = sum.flops / (d.sustained_flops(Precision::F16) * sum.compute_eff);
        let t_ab = a.flops / (d.sustained_flops(Precision::F16) * a.compute_eff)
            + b.flops / (d.sustained_flops(Precision::F16) * b.compute_eff);
        assert!((t_sum - t_ab).abs() / t_ab < 1e-6);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let d = h100();
        let c = gemm_cost(&d, Precision::F16, 64, 64, 64).scaled(32.0);
        assert_eq!(c.launches, 32.0);
        let base = gemm_cost(&d, Precision::F16, 64, 64, 64);
        assert_eq!(c.flops, base.flops * 32.0);
    }

    #[test]
    fn more_flops_never_faster() {
        // Monotonicity: growing any dimension cannot reduce time.
        let d = h100();
        let mut last = 0.0;
        for m in [1usize, 4, 16, 64, 256, 1024] {
            let t = gemm_cost(&d, Precision::F16, m, 4096, 4096).time_on(&d);
            assert!(t >= last * 0.999, "m={m}: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn stream_cost_is_bandwidth_bound() {
        let d = h100();
        let c = stream_cost(1e9);
        let t = c.time_on(&d);
        assert!((t - (1e9 / d.sustained_bandwidth() + d.kernel_launch_s)).abs() < 1e-9);
    }
}
