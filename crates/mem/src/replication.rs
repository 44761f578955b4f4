//! Hot-expert replication studies over real activation statistics.
//!
//! `moe_gpusim::placement` provides the mechanisms (LPT packing,
//! load-aware replication); this module closes the loop with *measured*
//! loads: it feeds each layer's expert-activation counts from a real
//! `moe-engine` run into the placement algorithms and reports how much of
//! the router-skew imbalance replication recovers over the best
//! single-copy packing.

use moe_engine::stats::ActivationStats;
use moe_gpusim::placement::{
    contiguous_placement, lpt_placement, placement_imbalance, replicated_imbalance,
    replicated_placement,
};

/// Per-layer imbalance under three placement policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationStudy {
    /// Layer index in the source stats.
    pub layer: usize,
    /// Static contiguous sharding (ignores load).
    pub contiguous: f64,
    /// Longest-processing-time packing, one copy per expert.
    pub lpt: f64,
    /// Load-aware replication up to the given factor.
    pub replicated: f64,
}

/// Run the placement policies over every routed layer of `stats`. Layers
/// with no recorded activations (dense layers) are skipped.
pub fn replication_study(
    stats: &ActivationStats,
    devices: usize,
    factor: usize,
) -> Vec<ReplicationStudy> {
    (0..stats.num_layers())
        .filter(|&l| stats.layer(l).iter().any(|&c| c > 0))
        .map(|layer| {
            let loads = stats.layer(layer);
            let contiguous =
                placement_imbalance(&contiguous_placement(loads.len(), devices), loads);
            let lpt = placement_imbalance(&lpt_placement(loads, devices), loads);
            let replicated =
                replicated_imbalance(&replicated_placement(loads, devices, factor), loads);
            ReplicationStudy {
                layer,
                contiguous,
                lpt,
                replicated,
            }
        })
        .collect()
}

/// Mean imbalance across layers for one policy column of a study.
pub fn mean_imbalance(study: &[ReplicationStudy], pick: impl Fn(&ReplicationStudy) -> f64) -> f64 {
    if study.is_empty() {
        return 1.0;
    }
    study.iter().map(pick).sum::<f64>() / study.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_engine::trace::capture_trace;
    use moe_model::registry::tiny_test_model;

    /// Real stats from a down-scaled engine run — the cross-check the
    /// replication policy is specified against.
    fn engine_stats() -> ActivationStats {
        capture_trace(
            "tiny-16x4",
            tiny_test_model(16, 4),
            13,
            &[1, 2, 3, 4, 5, 6, 7],
            12,
        )
        .stats
    }

    #[test]
    fn replication_never_loses_to_lpt_on_real_loads() {
        let stats = engine_stats();
        for factor in [1usize, 2, 4] {
            for devices in [2usize, 4] {
                for row in replication_study(&stats, devices, factor) {
                    assert!(
                        row.replicated <= row.lpt + 1e-9,
                        "layer {} devices {devices} factor {factor}: {} > {}",
                        row.layer,
                        row.replicated,
                        row.lpt
                    );
                }
            }
        }
    }

    #[test]
    fn factor_one_study_equals_lpt_exactly() {
        let stats = engine_stats();
        for row in replication_study(&stats, 4, 1) {
            assert!(
                (row.replicated - row.lpt).abs() < 1e-12,
                "layer {}: {} vs {}",
                row.layer,
                row.replicated,
                row.lpt
            );
        }
    }

    #[test]
    fn replication_recovers_a_synthetic_hot_expert() {
        // One expert takes half the traffic: LPT cannot balance it, a
        // 4-way replica can.
        let mut stats = ActivationStats::new(1, 8);
        for _ in 0..280 {
            stats.record(0, &[0]);
        }
        for e in 1..8 {
            for _ in 0..40 {
                stats.record(0, &[e]);
            }
        }
        let study = replication_study(&stats, 4, 4);
        assert_eq!(study.len(), 1);
        let row = &study[0];
        assert!(row.lpt > 1.5, "hot expert must swamp LPT: {}", row.lpt);
        assert!(
            row.replicated < 1.2,
            "replication must split the hot expert: {}",
            row.replicated
        );
        assert!(row.contiguous >= row.lpt - 1e-12);
    }

    #[test]
    fn dense_layers_are_skipped() {
        let stats = ActivationStats::new(3, 4);
        assert!(replication_study(&stats, 2, 2).is_empty());
        assert!((mean_imbalance(&[], |r| r.lpt) - 1.0).abs() < 1e-12);
    }
}
