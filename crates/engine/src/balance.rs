//! Router load-balancing calibration — the inference-time analogue of the
//! auxiliary load-balancing loss the balanced models were trained with
//! (and literally the mechanism of DeepSeek-V3's bias-based balancing):
//! iteratively adjust each expert's routing bias so observed selection
//! frequencies approach uniform.
//!
//! Untrained random routers are *not* balanced — hidden states are
//! anisotropic, so a few router rows dominate top-k selection. Calibrating
//! the bias reproduces the property aux-loss training gives real models,
//! which the Fig. 15 activation study depends on.

use crate::model::MoeTransformer;

/// One bias-balancing update from observed activation statistics: push
/// under-used experts up and over-used experts down by the (capped)
/// log-frequency ratio. Callers run it once per calibration round on
/// their own token stream.
pub fn apply_bias_update(
    model: &mut MoeTransformer,
    stats: &crate::stats::ActivationStats,
    lr: f32,
) {
    let num_experts = stats.num_experts().max(1);
    for (layer_idx, layer) in model.parts_mut().1.layers.iter_mut().enumerate() {
        if layer.router_bias.is_empty() {
            continue;
        }
        let counts = stats.layer(layer_idx);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        let uniform = total as f32 / num_experts as f32;
        for (e, bias) in layer.router_bias.iter_mut().enumerate() {
            let freq = counts[e] as f32;
            let step = ((freq + 1.0) / (uniform + 1.0)).ln().clamp(-1.5, 1.5);
            *bias -= lr * step;
        }
        // Selection is invariant to a common bias shift; keep the vector
        // centred for interpretability.
        let mean = layer.router_bias.iter().sum::<f32>() / num_experts as f32;
        for b in layer.router_bias.iter_mut() {
            *b -= mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ActivationStats;
    use moe_model::registry::tiny_test_model;
    use moe_tensor::rng::{derive_seed, rng_from_seed};

    fn measure_imbalance(model: &mut MoeTransformer, seed: u64) -> f64 {
        model.enable_stats();
        let mut rng = rng_from_seed(seed);
        for _ in 0..8 {
            let tokens: Vec<usize> = (0..64).map(|_| rng.next_below(256)).collect();
            let positions: Vec<usize> = (0..64).collect();
            let mut kv = model.new_kv();
            let _ = model.forward(&tokens, &positions, &mut kv);
        }
        let stats: ActivationStats = model.take_stats().unwrap();
        stats.mean_imbalance()
    }

    /// Six calibration rounds of four 64-token uniform random documents,
    /// each round followed by one update with a decaying step.
    fn calibrate(model: &mut MoeTransformer, seed: u64) {
        for round in 0..6u64 {
            let mut rng = rng_from_seed(derive_seed(seed, 0xBA1 + round));
            model.enable_stats();
            for _ in 0..4 {
                let tokens: Vec<usize> = (0..64).map(|_| rng.next_below(256)).collect();
                let positions: Vec<usize> = (0..64).collect();
                let mut kv = model.new_kv();
                let _ = model.forward(&tokens, &positions, &mut kv);
            }
            let stats = model.take_stats().unwrap();
            apply_bias_update(model, &stats, 1.0 / (1.0 + round as f32));
        }
    }

    #[test]
    fn calibration_reduces_imbalance_substantially() {
        let mut model = MoeTransformer::new(tiny_test_model(32, 2), 5);
        let before = measure_imbalance(&mut model, 99);
        calibrate(&mut model, 13);
        let after = measure_imbalance(&mut model, 99);
        assert!(
            after < before * 0.75,
            "calibration did not balance: before {before}, after {after}"
        );
        // The plateau sits above the balls-in-bins floor (~1.5 at this
        // sample size) but well below the uncalibrated level.
        assert!(after < 2.9, "after {after}");
    }

    #[test]
    fn calibration_is_deterministic() {
        let run = || {
            let mut m = MoeTransformer::new(tiny_test_model(16, 2), 3);
            calibrate(&mut m, 11);
            m.weights().layers[0].router_bias.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn biases_sum_to_roughly_zero() {
        // The update is log-ratio against uniform, so biases stay centred.
        let mut m = MoeTransformer::new(tiny_test_model(16, 2), 3);
        calibrate(&mut m, 11);
        let sum: f32 = m.weights().layers[0].router_bias.iter().sum();
        let scale: f32 = m.weights().layers[0]
            .router_bias
            .iter()
            .map(|b| b.abs())
            .sum::<f32>()
            .max(1e-6);
        assert!(sum.abs() / scale < 0.5, "sum {sum}, scale {scale}");
    }
}
