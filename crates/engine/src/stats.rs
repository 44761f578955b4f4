//! Expert-activation statistics (the Fig. 15 study): per-(layer, expert)
//! selection counts, plus the imbalance metrics the analysis uses.

use moe_json::{FromJson, ToJson};

/// Counts of how often each expert was selected, per layer.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ActivationStats {
    num_layers: usize,
    num_experts: usize,
    /// `counts[layer][expert]`.
    counts: Vec<Vec<u64>>,
}

impl ActivationStats {
    pub fn new(num_layers: usize, num_experts: usize) -> Self {
        Self {
            num_layers,
            num_experts,
            counts: vec![vec![0; num_experts]; num_layers],
        }
    }

    /// Record one token's selected experts at `layer`.
    pub fn record(&mut self, layer: usize, experts: &[usize]) {
        for &e in experts {
            self.counts[layer][e] += 1;
        }
    }

    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Raw count for (layer, expert).
    pub fn count(&self, layer: usize, expert: usize) -> u64 {
        self.counts[layer][expert]
    }

    /// All counts of one layer.
    pub fn layer(&self, layer: usize) -> &[u64] {
        &self.counts[layer]
    }

    /// Total expert assignments recorded across all layers.
    pub fn total_assignments(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Maximum single-expert count anywhere (the paper quotes MolmoE
    /// peaking near 1M vs DeepSeek-VL2 near 290K).
    pub fn peak_count(&self) -> u64 {
        self.counts.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Max/mean activation ratio for one layer (1.0 = perfectly uniform).
    pub fn imbalance(&self, layer: usize) -> f64 {
        let row = &self.counts[layer];
        let total: u64 = row.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / row.len() as f64;
        let max = row.iter().max().copied().unwrap_or(0) as f64;
        max / mean
    }

    /// Mean max/mean imbalance across layers.
    pub fn mean_imbalance(&self) -> f64 {
        if self.num_layers == 0 {
            return 1.0;
        }
        (0..self.num_layers).map(|l| self.imbalance(l)).sum::<f64>() / self.num_layers as f64
    }

    /// Normalized entropy of one layer's activation distribution
    /// (1.0 = uniform, 0.0 = single expert).
    pub fn normalized_entropy(&self, layer: usize) -> f64 {
        let row = &self.counts[layer];
        let total: u64 = row.iter().sum();
        if total == 0 || row.len() <= 1 {
            return 1.0;
        }
        let mut h = 0.0;
        for &c in row {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.ln();
            }
        }
        h / (row.len() as f64).ln()
    }

    /// Row-normalized activation frequencies (each layer sums to 1), the
    /// heatmap the figure plots.
    pub fn heatmap(&self) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .map(|row| {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    vec![0.0; row.len()]
                } else {
                    row.iter().map(|&c| c as f64 / total as f64).collect()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut s = ActivationStats::new(2, 4);
        s.record(0, &[1, 3]);
        s.record(0, &[1]);
        s.record(1, &[0]);
        assert_eq!(s.count(0, 1), 2);
        assert_eq!(s.count(0, 3), 1);
        assert_eq!(s.count(1, 0), 1);
        assert_eq!(s.total_assignments(), 4);
        assert_eq!(s.peak_count(), 2);
    }

    #[test]
    fn uniform_imbalance_is_one() {
        let mut s = ActivationStats::new(1, 4);
        for e in 0..4 {
            s.record(0, &[e]);
        }
        assert_eq!(s.imbalance(0), 1.0);
        assert!((s.normalized_entropy(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_expert_maximal_imbalance() {
        let mut s = ActivationStats::new(1, 4);
        for _ in 0..8 {
            s.record(0, &[2]);
        }
        assert_eq!(s.imbalance(0), 4.0); // max/mean = 8 / 2
        assert_eq!(s.normalized_entropy(0), 0.0);
    }

    #[test]
    fn empty_layer_is_neutral() {
        let s = ActivationStats::new(2, 4);
        assert_eq!(s.imbalance(0), 1.0);
        assert_eq!(s.normalized_entropy(1), 1.0);
        assert_eq!(s.heatmap()[0], vec![0.0; 4]);
    }

    #[test]
    fn heatmap_rows_sum_to_one() {
        let mut s = ActivationStats::new(2, 3);
        s.record(0, &[0, 1]);
        s.record(0, &[2]);
        s.record(1, &[1]);
        let h = s.heatmap();
        for (l, row) in h.iter().enumerate() {
            if s.layer(l).iter().sum::<u64>() > 0 {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12);
            }
        }
    }
}
