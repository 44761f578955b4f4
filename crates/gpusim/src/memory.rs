//! Memory-footprint model and OOM boundaries.
//!
//! Per-device memory is modeled as
//!
//! ```text
//! weights(precision) / shard + KV(batch, max_seq) / shard
//!   + activation workspace + runtime reserve
//! ```
//!
//! and compared against the device capacity. The systematic OOM gaps in
//! Figures 7–9 (missing points at extreme FFN-dimension / expert-count
//! configurations on 4 H100s) fall out of this model.

use std::fmt;

use moe_json::{FromJson, ToJson};
use moe_model::{ModelConfig, ParamBreakdown};
use moe_tensor::Precision;

use crate::device::Cluster;
use crate::parallel::ParallelPlan;

/// Fixed per-device reserve for the CUDA context, framework, and
/// fragmentation headroom (vLLM defaults leave several GB).
pub const RUNTIME_RESERVE_BYTES: f64 = 6e9;

/// Maximum tokens materialized per prefill chunk (vLLM-style chunked
/// prefill bounds the activation working set).
pub const MAX_BATCHED_TOKENS: usize = 32_768;

/// Live activation tensors per token, in units of `hidden` 16-bit values
/// (residual stream, attention workspace, FFN intermediate staging).
const ACT_HIDDEN_MULTIPLIER: f64 = 10.0;

/// Per-device memory breakdown (bytes).
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct MemoryFootprint {
    pub weight_bytes: f64,
    pub kv_bytes: f64,
    pub activation_bytes: f64,
    pub reserve_bytes: f64,
    pub capacity_bytes: f64,
}

impl MemoryFootprint {
    /// Total per-device requirement.
    pub fn total(&self) -> f64 {
        self.weight_bytes + self.kv_bytes + self.activation_bytes + self.reserve_bytes
    }

    /// Remaining headroom (negative when over capacity).
    pub fn headroom(&self) -> f64 {
        self.capacity_bytes - self.total()
    }

    fn fits(&self) -> bool {
        self.headroom() >= 0.0
    }
}

/// Out-of-memory failure: the configuration cannot be placed.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct OomError {
    pub required_bytes: f64,
    pub capacity_bytes: f64,
    pub detail: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OOM: requires {:.1} GB/device but only {:.1} GB available ({})",
            self.required_bytes / 1e9,
            self.capacity_bytes / 1e9,
            self.detail
        )
    }
}

impl std::error::Error for OomError {}

/// KV-cache bytes for the whole batch at full context length.
fn kv_cache_bytes(
    config: &ModelConfig,
    kv_precision: Precision,
    batch: usize,
    max_seq: usize,
) -> f64 {
    config.kv_bytes_per_token(kv_precision.bytes_per_param()) * (batch * max_seq) as f64
}

/// Compute the per-device footprint of serving `config` under `plan` on
/// `cluster`, with `batch` sequences of up to `max_seq` total tokens and
/// only `expert_resident_frac` of the routed-expert weights charged to
/// HBM — the remainder lives on an offload tier (host DRAM / NVMe) and is
/// streamed in on demand, which the perf model prices separately as
/// prefetch/miss stalls. A fraction of `1.0` charges every parameter.
#[allow(clippy::too_many_arguments)]
pub fn footprint(
    config: &ModelConfig,
    precision: Precision,
    kv_precision: Precision,
    plan: &ParallelPlan,
    cluster: &Cluster,
    batch: usize,
    max_seq: usize,
    expert_resident_frac: f64,
) -> MemoryFootprint {
    let shard = plan.degree as f64;
    let params = ParamBreakdown::of(config);
    let offloaded_params =
        params.components.experts_total as f64 * (1.0 - expert_resident_frac.clamp(0.0, 1.0));
    let weight_bytes =
        (params.total() as f64 - offloaded_params) * precision.bytes_per_param() / shard;
    let kv_bytes = kv_cache_bytes(config, kv_precision, batch, max_seq) / shard;

    let live_tokens = (batch * max_seq).min(MAX_BATCHED_TOKENS).max(batch) as f64;
    let activation_bytes = live_tokens
        * (config.hidden_size as f64 * ACT_HIDDEN_MULTIPLIER + config.vocab_size as f64 / 8.0)
        * 2.0
        / shard.max(1.0);

    MemoryFootprint {
        weight_bytes,
        kv_bytes,
        activation_bytes,
        reserve_bytes: RUNTIME_RESERVE_BYTES,
        capacity_bytes: cluster.device.mem_capacity(),
    }
}

/// Like [`footprint`] but returns an [`OomError`] when the placement does
/// not fit, even with the offloaded experts out of HBM.
#[allow(clippy::too_many_arguments)]
pub fn check_fits(
    config: &ModelConfig,
    precision: Precision,
    kv_precision: Precision,
    plan: &ParallelPlan,
    cluster: &Cluster,
    batch: usize,
    max_seq: usize,
    expert_resident_frac: f64,
) -> Result<MemoryFootprint, OomError> {
    let fp = footprint(
        config,
        precision,
        kv_precision,
        plan,
        cluster,
        batch,
        max_seq,
        expert_resident_frac,
    );
    if fp.fits() {
        Ok(fp)
    } else {
        let offload = if expert_resident_frac < 1.0 {
            format!(" ({:.0}% experts resident)", expert_resident_frac * 100.0)
        } else {
            String::new()
        };
        Err(OomError {
            required_bytes: fp.total(),
            capacity_bytes: fp.capacity_bytes,
            detail: format!(
                "{}: weights {:.1} GB{offload}, kv {:.1} GB, act {:.1} GB on {} x {}",
                config.name,
                fp.weight_bytes / 1e9,
                fp.kv_bytes / 1e9,
                fp.activation_bytes / 1e9,
                plan.degree,
                cluster.device.name
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b};
    use moe_model::variants::mixtral_variant;

    fn tp(n: usize) -> ParallelPlan {
        ParallelPlan::tensor(n)
    }

    #[test]
    fn mixtral_fp16_fits_on_two_not_one() {
        // 94 GB of fp16 weights cannot fit a single 80 GB H100.
        let m = mixtral_8x7b();
        let one = check_fits(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(1),
            &Cluster::h100_node(1),
            1,
            4096,
            1.0,
        );
        assert!(one.is_err());
        let two = check_fits(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(2),
            &Cluster::h100_node(2),
            1,
            4096,
            1.0,
        );
        assert!(two.is_ok(), "{two:?}");
    }

    #[test]
    fn fp8_halves_weight_footprint() {
        let m = mixtral_8x7b();
        let c = Cluster::h100_node(1);
        let f16 = footprint(&m, Precision::F16, Precision::F16, &tp(1), &c, 1, 2048, 1.0);
        let f8 = footprint(
            &m,
            Precision::Fp8E4M3,
            Precision::F16,
            &tp(1),
            &c,
            1,
            2048,
            1.0,
        );
        assert!((f8.weight_bytes - f16.weight_bytes / 2.0).abs() / f16.weight_bytes < 0.01);
        // And Mixtral at fp8 *does* fit one H100 (as vLLM users observe).
        assert!(f8.fits());
    }

    #[test]
    fn kv_cache_grows_with_batch_and_seq() {
        let m = olmoe_1b_7b();
        let a = kv_cache_bytes(&m, Precision::F16, 1, 128);
        let b = kv_cache_bytes(&m, Precision::F16, 64, 128);
        let c = kv_cache_bytes(&m, Precision::F16, 64, 4096);
        assert!((b / a - 64.0).abs() < 1e-9);
        assert!((c / b - 32.0).abs() < 1e-9);
    }

    #[test]
    fn fig7_oom_boundaries_at_extreme_configs() {
        // Section 5 sweeps on 4 H100s, batch 16, in/out 2048 (4096 ctx).
        let cluster = Cluster::h100_node(4);
        let plan = tp(4);
        let oom = |ffn: usize, e: usize, k: usize| {
            check_fits(
                &mixtral_variant(ffn, e, k),
                Precision::F16,
                Precision::F16,
                &plan,
                &cluster,
                16,
                4096,
                1.0,
            )
            .is_err()
        };
        // Extremes blow past 4 x 80 GB.
        assert!(oom(14_336, 64, 8), "ffn 14336 x 64 experts must OOM");
        assert!(oom(14_336, 32, 1), "ffn 14336 x 32 experts must OOM");
        assert!(oom(7168, 64, 1), "ffn 7168 x 64 experts must OOM");
        // The baseline and small points fit.
        assert!(!oom(14_336, 8, 2), "Mixtral baseline must fit");
        assert!(!oom(1792, 64, 8));
        assert!(!oom(3584, 32, 4));
    }

    #[test]
    fn sharding_divides_weights_and_kv() {
        let m = mixtral_8x7b();
        let f1 = footprint(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(1),
            &Cluster::h100_node(1),
            8,
            2048,
            1.0,
        );
        let f4 = footprint(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(4),
            &Cluster::h100_node(4),
            8,
            2048,
            1.0,
        );
        assert!((f1.weight_bytes / f4.weight_bytes - 4.0).abs() < 1e-9);
        assert!((f1.kv_bytes / f4.kv_bytes - 4.0).abs() < 1e-9);
    }

    #[test]
    fn oom_error_is_descriptive() {
        let m = mixtral_8x7b();
        let err = check_fits(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(1),
            &Cluster::h100_node(1),
            1,
            2048,
            1.0,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("OOM"));
        assert!(msg.contains("Mixtral-8x7B"));
    }

    #[test]
    fn full_residency_charges_every_parameter() {
        let m = mixtral_8x7b();
        let c = Cluster::h100_node(2);
        let fp = footprint(&m, Precision::F16, Precision::F16, &tp(2), &c, 8, 2048, 1.0);
        let all_params = ParamBreakdown::of(&m).total() as f64;
        assert_eq!(
            fp.weight_bytes,
            all_params * Precision::F16.bytes_per_param() / 2.0
        );
    }

    #[test]
    fn offload_turns_the_mixtral_oom_wall_into_a_fit() {
        let m = mixtral_8x7b();
        let c = Cluster::h100_node(1);
        let fits = |frac: f64| {
            check_fits(
                &m,
                Precision::F16,
                Precision::F16,
                &tp(1),
                &c,
                1,
                4096,
                frac,
            )
        };
        assert!(fits(1.0).is_err(), "all-resident fp16 Mixtral OOMs");
        let half = fits(0.5);
        assert!(half.is_ok(), "{half:?}");
        // Footprint shrinks monotonically with the resident fraction.
        let fp = |frac: f64| {
            footprint(
                &m,
                Precision::F16,
                Precision::F16,
                &tp(1),
                &c,
                1,
                4096,
                frac,
            )
        };
        assert!(fp(0.75).weight_bytes > fp(0.5).weight_bytes);
        assert!(fp(0.5).weight_bytes > fp(0.25).weight_bytes);
    }

    #[test]
    fn offloaded_oom_error_names_the_residency() {
        // Half-resident Mixtral fits the weights, but a monster KV cache
        // still OOMs — the error must say which regime it priced.
        let m = mixtral_8x7b();
        let err = check_fits(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(1),
            &Cluster::h100_node(1),
            64,
            65_536,
            0.5,
        )
        .unwrap_err();
        assert!(err.detail.contains("experts resident"), "{}", err.detail);
    }

    #[test]
    fn activation_workspace_bounded_by_chunking() {
        let m = mixtral_8x7b();
        let c = Cluster::h100_node(4);
        let small = footprint(&m, Precision::F16, Precision::F16, &tp(4), &c, 1, 128, 1.0);
        let huge = footprint(
            &m,
            Precision::F16,
            Precision::F16,
            &tp(4),
            &c,
            128,
            65_536,
            1.0,
        );
        // Chunked prefill caps the activation working set.
        assert!(
            huge.activation_bytes
                <= small.activation_bytes * (MAX_BATCHED_TOKENS as f64 / 128.0) + 1.0
        );
    }
}
