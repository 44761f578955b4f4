//! Deriving an [`ExpertResidency`] from a real routing trace.
//!
//! Given an HBM budget (a fraction of routed-expert weight bytes) this
//! module decides *which* experts stay resident — hottest first, per
//! layer, by measured activation counts — and then quantifies the two
//! probabilities the cost model needs:
//!
//! * `residency_hit`: the load-weighted chance a needed expert is already
//!   in HBM. Hot-first placement under skewed routing makes this exceed
//!   the byte fraction (the whole point of residency management).
//! * `predictor_hit`: the chance a *non-resident* needed expert was
//!   prefetched one layer ahead, measured by replaying the trace through
//!   the trained [`TransitionTable`] (or fixed analytically for the
//!   oracle / uniform brackets).
//!
//! At `hbm_frac >= 1.0` the derivation returns
//! [`ExpertResidency::all_resident`] exactly, so an unconstrained budget
//! reproduces the pre-`moe-mem` prices bit for bit.

use moe_engine::stats::ActivationStats;
use moe_engine::trace::TraceArtifact;
use moe_gpusim::convert::f64_to_count;
use moe_gpusim::device::Interconnect;
use moe_gpusim::residency::ExpertResidency;

use crate::predictor::{replay_hit_rate, PredictorQuality, TransitionTable};

/// Per-layer hot-first resident masks: keep the `floor(frac * E)` most
/// activated experts of each layer (ties toward the lower index). A
/// fraction under one expert's worth keeps nothing; `frac >= 1.0` keeps
/// everything.
fn hot_expert_masks(stats: &ActivationStats, frac: f64) -> Vec<Vec<bool>> {
    let e = stats.num_experts();
    let keep = f64_to_count(frac.clamp(0.0, 1.0) * e as f64).min(e);
    (0..stats.num_layers())
        .map(|l| {
            let counts = stats.layer(l);
            let mut order: Vec<usize> = (0..e).collect();
            order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
            let mut mask = vec![false; e];
            for &hot in &order[..keep] {
                mask[hot] = true;
            }
            mask
        })
        .collect()
}

/// Load-weighted probability that a needed expert is resident: the share
/// of all recorded activations landing on resident experts. Layers with
/// no routed tokens contribute nothing; a traceless model falls back to
/// the byte fraction itself (uniform routing assumption).
fn residency_hit_rate(stats: &ActivationStats, masks: &[Vec<bool>], frac: f64) -> f64 {
    let mut resident = 0u64;
    let mut total = 0u64;
    for (l, mask) in masks.iter().enumerate() {
        for (e, &m) in mask.iter().enumerate() {
            let c = stats.count(l, e);
            total += c;
            if m {
                resident += c;
            }
        }
    }
    if total == 0 {
        frac.clamp(0.0, 1.0)
    } else {
        resident as f64 / total as f64
    }
}

/// A derived residency with its intermediate measurements, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedResidency {
    /// The narrow interface the cost model consumes.
    pub residency: ExpertResidency,
    /// Which experts stay in HBM, per layer.
    pub resident: Vec<Vec<bool>>,
    /// Predictor tier the hit rate was derived under.
    pub quality: PredictorQuality,
    /// Experts prefetched per token per layer (the prediction width).
    pub prefetch_width: usize,
}

/// Derive the residency for a trace at an HBM budget and predictor tier.
///
/// `hbm_frac >= 1.0` short-circuits to [`ExpertResidency::all_resident`]
/// (with `link` applied): the unconstrained budget is the identity regime
/// and must price exactly like having no residency model at all.
pub fn derive_residency(
    artifact: &TraceArtifact,
    hbm_frac: f64,
    quality: PredictorQuality,
    link: Interconnect,
) -> DerivedResidency {
    let e = artifact.trace.num_experts;
    let width = artifact.trace.top_k.max(1);
    if hbm_frac >= 1.0 {
        return DerivedResidency {
            residency: ExpertResidency::all_resident().with_link(link),
            resident: vec![vec![true; e]; artifact.trace.num_layers],
            quality,
            prefetch_width: width,
        };
    }

    let masks = hot_expert_masks(&artifact.stats, hbm_frac);
    let resident_count = masks.first().map(|m| m.iter().filter(|&&x| x).count());
    let resident_frac = match resident_count {
        Some(n) if e > 0 => n as f64 / e as f64,
        _ => hbm_frac,
    };
    let residency_hit = residency_hit_rate(&artifact.stats, &masks, hbm_frac);

    let predictor_hit = match quality {
        PredictorQuality::Oracle => 1.0,
        PredictorQuality::Uniform => {
            if e == 0 {
                0.0
            } else {
                (width as f64 / e as f64).min(1.0)
            }
        }
        PredictorQuality::Frequency => {
            let table = TransitionTable::from_trace(&artifact.trace);
            replay_hit_rate(&artifact.trace, &table, width, |layer, expert| {
                !masks
                    .get(layer)
                    .and_then(|m| m.get(expert as usize))
                    .copied()
                    .unwrap_or(false)
            })
        }
    };

    DerivedResidency {
        residency: ExpertResidency::offloaded(resident_frac, residency_hit, predictor_hit)
            .with_link(link),
        resident: masks,
        quality,
        prefetch_width: width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_engine::trace::capture_trace;
    use moe_model::registry::tiny_test_model;

    fn artifact() -> TraceArtifact {
        capture_trace(
            "tiny-8x2",
            tiny_test_model(8, 2),
            21,
            &[1, 2, 3, 4, 5, 6],
            10,
        )
    }

    #[test]
    fn unconstrained_budget_is_exactly_all_resident() {
        let a = artifact();
        for quality in [
            PredictorQuality::Oracle,
            PredictorQuality::Frequency,
            PredictorQuality::Uniform,
        ] {
            let d = derive_residency(&a, 1.0, quality, Interconnect::pcie_gen5());
            assert_eq!(d.residency, ExpertResidency::all_resident());
            assert!(d.resident.iter().all(|m| m.iter().all(|&x| x)));
        }
    }

    #[test]
    fn hot_first_residency_beats_the_byte_fraction() {
        // Real routing is skewed: keeping the hottest half of the experts
        // covers more than half of the activations.
        let a = artifact();
        let d = derive_residency(
            &a,
            0.5,
            PredictorQuality::Frequency,
            Interconnect::pcie_gen5(),
        );
        assert!((d.residency.resident_frac - 0.5).abs() < 1e-12);
        assert!(
            d.residency.residency_hit >= d.residency.resident_frac,
            "hot-first hit {} under byte fraction {}",
            d.residency.residency_hit,
            d.residency.resident_frac
        );
    }

    #[test]
    fn quality_tiers_order_the_predictor_hit() {
        let a = artifact();
        let at = |q| {
            derive_residency(&a, 0.25, q, Interconnect::pcie_gen5())
                .residency
                .predictor_hit
        };
        let oracle = at(PredictorQuality::Oracle);
        let freq = at(PredictorQuality::Frequency);
        let uniform = at(PredictorQuality::Uniform);
        assert!((oracle - 1.0).abs() < 1e-12);
        assert!(freq <= oracle + 1e-12);
        assert!(
            freq >= uniform - 1e-12,
            "trained predictor {freq} under uniform floor {uniform}"
        );
    }

    #[test]
    fn masks_keep_the_hottest_experts() {
        let mut stats = ActivationStats::new(1, 4);
        // Expert 2 hottest, then 0, then 3, then 1.
        for _ in 0..5 {
            stats.record(0, &[2]);
        }
        for _ in 0..3 {
            stats.record(0, &[0]);
        }
        stats.record(0, &[3]);
        let masks = hot_expert_masks(&stats, 0.5);
        assert_eq!(masks[0], vec![true, false, true, false]);
        let hit = residency_hit_rate(&stats, &masks, 0.5);
        assert!((hit - 8.0 / 9.0).abs() < 1e-12, "{hit}");
    }

    #[test]
    fn tiny_budget_keeps_nothing_and_traceless_falls_back() {
        let stats = ActivationStats::new(2, 8);
        let masks = hot_expert_masks(&stats, 0.05);
        assert!(masks.iter().all(|m| m.iter().all(|&x| !x)));
        let hit = residency_hit_rate(&stats, &masks, 0.4);
        assert!((hit - 0.4).abs() < 1e-12, "traceless fallback: {hit}");
    }
}
