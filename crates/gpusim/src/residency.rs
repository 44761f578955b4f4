//! Expert residency across memory tiers.
//!
//! The baseline perf model prices every expert as permanently
//! HBM-resident — the one regime where activation skew does not matter.
//! [`ExpertResidency`] describes the constrained-HBM regime instead: only
//! a fraction of each layer's routed-expert weights live in HBM, the rest
//! sit behind an offload link (host DRAM over PCIe, or NVMe), and a
//! lookahead predictor prefetches the next layer's likely experts so the
//! transfer overlaps compute. The perf model prices a *stall* only when a
//! needed expert is neither resident nor prefetched in time (see
//! `docs/MEMORY.md` for the overlap math).
//!
//! The three probabilities compose multiplicatively per distinct activated
//! expert: `residency_hit` is the chance the expert is already in HBM
//! (hot-first residency makes this exceed `resident_frac` under skewed
//! routing), and `predictor_hit` is the chance a *non-resident* expert was
//! predicted one layer ahead, turning its load into an overlapped prefetch
//! instead of a synchronous miss.
//!
//! `moe-mem` trains predictors on real router traces and derives these
//! numbers; this type is the narrow interface the cost model consumes.

use moe_json::{FromJson, ToJson};

use crate::device::Interconnect;

/// Expert placement across an HBM budget plus one offload tier.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct ExpertResidency {
    /// Fraction of routed-expert weight bytes resident in HBM, in
    /// `(0, 1]`. The remainder is charged to the offload tier and leaves
    /// the per-device footprint.
    pub resident_frac: f64,
    /// Probability a needed expert is already resident, in `[0, 1]`.
    /// Hot-first residency under skewed routing makes this exceed
    /// `resident_frac`; uniform routing makes them equal.
    pub residency_hit: f64,
    /// Probability a *non-resident* needed expert was predicted one layer
    /// ahead, in `[0, 1]`: its load overlaps the previous layer's compute
    /// and stalls only by the amount the transfer outruns that window.
    pub predictor_hit: f64,
    /// The offload-tier link weights stream over (host PCIe, NVMe).
    pub link: Interconnect,
}

impl ExpertResidency {
    /// Everything resident: the pre-`moe-mem` regime. Prices exactly like
    /// having no residency model at all (no stall term, full footprint).
    pub fn all_resident() -> Self {
        Self {
            resident_frac: 1.0,
            residency_hit: 1.0,
            predictor_hit: 1.0,
            link: Interconnect::pcie_gen5(),
        }
    }

    /// Offloaded residency over the host PCIe Gen5 link. Inputs are
    /// clamped into their documented ranges so the type never represents
    /// an impossible configuration.
    pub fn offloaded(resident_frac: f64, residency_hit: f64, predictor_hit: f64) -> Self {
        Self {
            resident_frac: resident_frac.clamp(f64::MIN_POSITIVE, 1.0),
            residency_hit: residency_hit.clamp(0.0, 1.0),
            predictor_hit: predictor_hit.clamp(0.0, 1.0),
            link: Interconnect::pcie_gen5(),
        }
    }

    /// Same placement, streaming over a different offload link.
    pub fn with_link(mut self, link: Interconnect) -> Self {
        self.link = link;
        self
    }

    /// Whether this residency keeps every expert in HBM (no offload tier
    /// in play; the cost and memory models take their legacy paths).
    pub fn is_all_resident(&self) -> bool {
        self.resident_frac >= 1.0 && self.residency_hit >= 1.0
    }
}

impl Default for ExpertResidency {
    fn default() -> Self {
        Self::all_resident()
    }
}

/// Closed-form stall of one MoE layer's offload traffic (the overlap
/// model in `docs/MEMORY.md`): `predicted` experts were prefetched a
/// layer ahead, so their load overlaps `window_s` seconds of compute and
/// stalls only by the overshoot `max(0, load - window_s)`; `missed`
/// experts load synchronously and their whole load is exposed. A load of
/// `n` experts costs `latency + n * bytes_per_expert / bandwidth` on
/// `link`; a zero count costs nothing.
pub fn offload_stall(
    link: &Interconnect,
    window_s: f64,
    predicted: f64,
    missed: f64,
    bytes_per_expert: f64,
) -> f64 {
    let load = |experts: f64| link.latency + experts * bytes_per_expert / link.bandwidth;
    let prefetch_stall = if predicted > 0.0 {
        (load(predicted) - window_s).max(0.0)
    } else {
        0.0
    };
    let miss_stall = if missed > 0.0 { load(missed) } else { 0.0 };
    prefetch_stall + miss_stall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_resident_is_the_identity_regime() {
        let r = ExpertResidency::all_resident();
        assert!(r.is_all_resident());
        assert!(r.resident_frac >= 1.0);
        assert!(r.residency_hit >= 1.0);
    }

    #[test]
    fn offloaded_clamps_into_range() {
        let r = ExpertResidency::offloaded(-0.5, 1.5, 0.7);
        assert!(r.resident_frac > 0.0 && r.resident_frac <= 1.0);
        assert!(r.residency_hit <= 1.0);
        assert!((r.predictor_hit - 0.7).abs() < 1e-12);
        assert!(!r.is_all_resident() || r.residency_hit < 1.0);
    }

    #[test]
    fn json_round_trips() {
        let r = ExpertResidency::offloaded(0.5, 0.8, 0.6).with_link(Interconnect::pcie_gen5());
        let json = moe_json::to_string(&r);
        let back = moe_json::from_str::<ExpertResidency>(&json).unwrap();
        assert_eq!(r, back);
    }
}
