//! Sparsity-aware CAP (Cost / Accuracy / Performance) cost metrics.
//!
//! Naive `$ / peak FLOP` misleads for sparse models: an MoE computes with
//! its *active* parameters but — on any device whose weights are not
//! resident next to compute — must stream its *total* parameter bytes
//! every decode step once the batch saturates the expert table. A cheap
//! card with high peak FLOPs and thin bandwidth therefore never delivers
//! its paper FLOPs to an MoE. The metrics here price what a device can
//! actually sustain:
//!
//! * [`usd_per_peak_pflop_s`] — the naive datasheet metric, kept for
//!   contrast;
//! * `achievable_active_flops` — roofline-limited active FLOP/s in
//!   saturated decode, where compute scales with active params but
//!   weight traffic scales with total params;
//! * [`effective_usd_per_active_pflop_s`] — price over *achievable*
//!   active FLOP/s at the reference decode batch;
//! * [`usd_per_mtok`] — cost per million generated tokens at a measured
//!   throughput, the end-to-end CAP cost axis.

use crate::device::DeviceProfile;
use moe_model::{ModelConfig, ParamBreakdown};
use moe_tensor::Precision;

/// Decode batch at which the effective metric is quoted. Large enough
/// that an 8-expert MoE's expert table is essentially saturated (every
/// expert streamed every step), small enough to be a realistic serving
/// point for a single device.
pub const REFERENCE_DECODE_BATCH: usize = 32;

/// Naive datasheet cost: USD per sustained second of one peak PFLOP/s at
/// precision `p`. Ignores sparsity and bandwidth entirely.
pub fn usd_per_peak_pflop_s(device: &DeviceProfile, p: Precision) -> f64 {
    let usd_per_s = device.power.price_per_hour_usd / 3600.0;
    usd_per_s / (device.peak_flops(p) / 1e15)
}

/// Active FLOP/s the device can actually sustain serving `config` in
/// saturated decode at `batch`: per step the model computes
/// `2 * active_params * batch` FLOPs but streams `total_params` weight
/// bytes (free on weight-stationary devices). The result is capped by the
/// sustained GEMM roofline and approaches it as batch grows.
fn achievable_active_flops(
    device: &DeviceProfile,
    config: &ModelConfig,
    p: Precision,
    batch: usize,
) -> f64 {
    let params = ParamBreakdown::of(config);
    let flops = 2.0 * params.active() as f64 * batch.max(1) as f64;
    let compute_s = flops / device.sustained_flops(p);
    let stream_s = if device.weights_stationary() {
        0.0
    } else {
        params.total() as f64 * p.bytes_per_param() / device.sustained_bandwidth()
    };
    flops / compute_s.max(stream_s)
}

/// Sparsity-aware cost: USD per sustained second of one PFLOP/s of
/// *active* compute, at the achievable rate for `config` (quoted at
/// [`REFERENCE_DECODE_BATCH`]). This is the MoE-CAP correction to
/// [`usd_per_peak_pflop_s`].
pub fn effective_usd_per_active_pflop_s(
    device: &DeviceProfile,
    config: &ModelConfig,
    p: Precision,
) -> f64 {
    let usd_per_s = device.power.price_per_hour_usd / 3600.0;
    usd_per_s / (achievable_active_flops(device, config, p, REFERENCE_DECODE_BATCH) / 1e15)
}

/// Cost per million generated tokens: a deployment billing `usd_per_hour`
/// in total (all devices) sustaining `tok_s` tokens/s.
pub fn usd_per_mtok(usd_per_hour: f64, tok_s: f64) -> f64 {
    usd_per_hour / 3600.0 / tok_s * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::profile;
    use moe_model::registry;

    #[test]
    fn achievable_never_exceeds_sustained_roofline() {
        let mixtral = registry::mixtral_8x7b();
        for d in crate::device::zoo() {
            for batch in [1, 8, 32, 256] {
                let a = achievable_active_flops(&d, &mixtral, Precision::Fp8E4M3, batch);
                assert!(
                    a <= d.sustained_flops(Precision::Fp8E4M3) * (1.0 + 1e-12),
                    "{}: achievable {a} above roofline",
                    d.name
                );
                assert!(a > 0.0);
            }
        }
    }

    #[test]
    fn weight_stationary_device_achieves_its_roofline() {
        let cs3 = profile("cs3").unwrap();
        let mixtral = registry::mixtral_8x7b();
        let a = achievable_active_flops(&cs3, &mixtral, Precision::F16, 1);
        assert_eq!(a, cs3.sustained_flops(Precision::F16));
    }

    #[test]
    fn sparsity_aware_metric_inverts_the_naive_ranking() {
        // Naively (datasheet $/peak-FLOP) the consumer 4090 looks cheaper
        // than the CS-3; at Mixtral's measured sparsity the CS-3's
        // resident weights make it cheaper per *delivered* active FLOP.
        let mixtral = registry::mixtral_8x7b();
        let cs3 = profile("cs3").unwrap();
        let rtx = profile("4090").unwrap();
        let p = Precision::Fp8E4M3;
        assert!(usd_per_peak_pflop_s(&rtx, p) < usd_per_peak_pflop_s(&cs3, p));
        assert!(
            effective_usd_per_active_pflop_s(&cs3, &mixtral, p)
                < effective_usd_per_active_pflop_s(&rtx, &mixtral, p)
        );
    }

    #[test]
    fn effective_cost_is_at_least_the_naive_floor() {
        // The achievable rate can never beat peak, so the corrected
        // per-active-FLOP price can never drop below naive $/peak-FLOP.
        let mixtral = registry::mixtral_8x7b();
        for d in crate::device::zoo() {
            let p = Precision::Fp8E4M3;
            assert!(
                effective_usd_per_active_pflop_s(&d, &mixtral, p)
                    >= usd_per_peak_pflop_s(&d, p) * 0.999,
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn usd_per_mtok_scales_with_price_and_throughput() {
        let base = usd_per_mtok(3.50, 1000.0);
        assert!((base - 3.50 / 3600.0 / 1000.0 * 1e6).abs() < 1e-12);
        assert_eq!(usd_per_mtok(7.0, 1000.0), base * 2.0);
        assert_eq!(usd_per_mtok(3.50, 2000.0), base / 2.0);
    }
}
