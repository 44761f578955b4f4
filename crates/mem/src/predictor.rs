//! Lookahead expert predictors trained on real routing traces.
//!
//! A prefetcher is only as good as its guess about which experts the
//! *next* layer will route to. The trainable signal is the layer-to-layer
//! transition structure of real runs: conditioned on a token activating
//! expert `a` at layer `l`, some experts at layer `l + 1` are far more
//! likely than chance. [`TransitionTable`] accumulates those transition
//! counts from a [`RoutingTrace`]; [`PredictorQuality`] is the knob the
//! `ext-mem` experiment sweeps, bracketing the trained predictor between
//! a perfect oracle and a blind uniform guess.

use moe_engine::trace::RoutingTrace;
use moe_json::{FromJson, ToJson};

/// Prefetch-predictor quality tiers, best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum PredictorQuality {
    /// Knows the future: every non-resident expert is prefetched in time.
    /// The upper bound a learned predictor converges to.
    Oracle,
    /// Predicts the top transitions of a [`TransitionTable`] trained on a
    /// real trace; hit rate is *measured* by replaying that trace.
    Frequency,
    /// Guesses experts uniformly at random — the analytic floor: picking
    /// `n` of `E` experts hits with probability `n / E`.
    Uniform,
}

impl PredictorQuality {
    /// Stable identifier used in report tables and config labels.
    pub fn name(self) -> &'static str {
        match self {
            PredictorQuality::Oracle => "oracle",
            PredictorQuality::Frequency => "frequency",
            PredictorQuality::Uniform => "uniform",
        }
    }
}

/// Per-layer expert transition counts: how often a token routed to expert
/// `from` at layer `l` routes to expert `to` at layer `l + 1`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct TransitionTable {
    /// Layers in the source trace; transitions exist for `l -> l + 1`.
    pub num_layers: usize,
    /// Router fan-out of the source trace.
    pub num_experts: usize,
    /// `counts[l][from * num_experts + to]` — transition counts from layer
    /// `l` to layer `l + 1`. Empty when either layer routed no tokens.
    pub counts: Vec<Vec<u64>>,
}

impl TransitionTable {
    /// Accumulate transition counts from a recorded trace. Layer pairs
    /// where either side routed no tokens (dense layers) contribute
    /// nothing.
    pub fn from_trace(trace: &RoutingTrace) -> Self {
        let e = trace.num_experts;
        let pairs = trace.num_layers.saturating_sub(1);
        let mut counts = vec![Vec::new(); pairs];
        for (l, slot) in counts.iter_mut().enumerate() {
            let tokens = trace.tokens(l);
            if tokens == 0 || trace.tokens(l + 1) != tokens {
                continue;
            }
            slot.resize(e * e, 0u64);
            for t in 0..tokens {
                for &from in trace.token_experts(l, t) {
                    for &to in trace.token_experts(l + 1, t) {
                        slot[from as usize * e + to as usize] += 1;
                    }
                }
            }
        }
        Self {
            num_layers: trace.num_layers,
            num_experts: e,
            counts,
        }
    }

    /// Transition count `layer -> layer + 1` from expert `from` to `to`.
    pub fn count(&self, layer: usize, from: usize, to: usize) -> u64 {
        self.counts
            .get(layer)
            .and_then(|c| c.get(from * self.num_experts + to))
            .copied()
            .unwrap_or(0)
    }

    /// Total transitions recorded out of `layer`.
    pub fn total(&self, layer: usize) -> u64 {
        self.counts.get(layer).map(|c| c.iter().sum()).unwrap_or(0)
    }

    /// Predict the `n` most likely experts at `layer + 1` for a token that
    /// routed to `from` at `layer`. Scores are summed transition counts;
    /// ties break toward the lower expert index, so the prediction is a
    /// pure function of the table.
    fn predict(&self, layer: usize, from: &[u32], n: usize) -> Vec<u32> {
        let e = self.num_experts;
        let mut scores = vec![0u64; e];
        if let Some(c) = self.counts.get(layer) {
            if !c.is_empty() {
                for &f in from {
                    let row = &c[f as usize * e..(f as usize + 1) * e];
                    for (to, &cnt) in row.iter().enumerate() {
                        scores[to] += cnt;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..e).collect();
        order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
        order.truncate(n.min(e));
        order.into_iter().map(|x| x as u32).collect()
    }
}

/// Replay a trace against a trained table and measure the prefetch hit
/// rate: the fraction of *needed* expert activations (per `non_resident`)
/// at layer `l + 1` that appear in the `n`-wide prediction issued from the
/// token's layer-`l` experts. The prefetcher manages the resident set, so
/// it never spends prediction width on experts already in HBM: the
/// `n`-wide prediction is the top `n` *non-resident* candidates of the
/// full transition ranking. Returns `1.0` when nothing was needed — no
/// demand means no misses.
pub fn replay_hit_rate(
    trace: &RoutingTrace,
    table: &TransitionTable,
    n: usize,
    non_resident: impl Fn(usize, u32) -> bool,
) -> f64 {
    let mut needed = 0u64;
    let mut hits = 0u64;
    for l in 0..trace.num_layers.saturating_sub(1) {
        let tokens = trace.tokens(l);
        if tokens == 0 || trace.tokens(l + 1) != tokens {
            continue;
        }
        for t in 0..tokens {
            let ranked = table.predict(l, trace.token_experts(l, t), table.num_experts);
            let predicted: Vec<u32> = ranked
                .into_iter()
                .filter(|&x| non_resident(l + 1, x))
                .take(n)
                .collect();
            for &want in trace.token_experts(l + 1, t) {
                if !non_resident(l + 1, want) {
                    continue;
                }
                needed += 1;
                if predicted.contains(&want) {
                    hits += 1;
                }
            }
        }
    }
    if needed == 0 {
        1.0
    } else {
        hits as f64 / needed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built trace: 2 layers, 4 experts, top-1, where layer-0
    /// expert `e` always transitions to layer-1 expert `(e + 1) % 4`.
    fn shifted_trace(tokens: usize) -> RoutingTrace {
        let mut trace = RoutingTrace::new(2, 4, 1);
        for t in 0..tokens {
            let e = t % 4;
            trace.record(0, &[e]);
            trace.record(1, &[(e + 1) % 4]);
        }
        trace
    }

    #[test]
    fn table_counts_transitions() {
        let table = TransitionTable::from_trace(&shifted_trace(8));
        for e in 0..4usize {
            assert_eq!(table.count(0, e, (e + 1) % 4), 2);
            assert_eq!(table.count(0, e, e), 0);
        }
        assert_eq!(table.total(0), 8);
    }

    #[test]
    fn predict_follows_the_learned_transition() {
        let table = TransitionTable::from_trace(&shifted_trace(8));
        for e in 0..4u32 {
            let p = table.predict(0, &[e], 1);
            assert_eq!(p, vec![(e + 1) % 4]);
        }
    }

    #[test]
    fn predict_ties_break_toward_lower_index() {
        // An empty table scores everything 0: prediction is 0..n.
        let table = TransitionTable::from_trace(&RoutingTrace::new(2, 6, 1));
        assert_eq!(table.predict(0, &[3], 3), vec![0, 1, 2]);
    }

    #[test]
    fn perfectly_learnable_trace_replays_at_full_hit_rate() {
        let trace = shifted_trace(12);
        let table = TransitionTable::from_trace(&trace);
        let rate = replay_hit_rate(&trace, &table, 1, |_, _| true);
        assert!((rate - 1.0).abs() < 1e-12, "{rate}");
    }

    #[test]
    fn narrow_prediction_misses_unlearnable_demand() {
        // Layer-0 expert 0 goes to 1 and 2 alternately; a width-1
        // predictor can catch only the more frequent successor.
        let mut trace = RoutingTrace::new(2, 4, 1);
        for t in 0..9 {
            trace.record(0, &[0]);
            trace.record(1, &[if t % 3 == 0 { 2 } else { 1 }]);
        }
        let table = TransitionTable::from_trace(&trace);
        let rate = replay_hit_rate(&trace, &table, 1, |_, _| true);
        assert!(rate < 1.0 && rate > 0.5, "{rate}");
        // Widening the prediction to 2 recovers everything.
        let wide = replay_hit_rate(&trace, &table, 2, |_, _| true);
        assert!((wide - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_demand_means_no_misses() {
        let trace = shifted_trace(4);
        let table = TransitionTable::from_trace(&trace);
        let rate = replay_hit_rate(&trace, &table, 1, |_, _| false);
        assert!((rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_json_round_trips() {
        let table = TransitionTable::from_trace(&shifted_trace(8));
        let json = moe_json::to_string(&table);
        let back = moe_json::from_str::<TransitionTable>(&json).unwrap();
        assert_eq!(table, back);
    }

    #[test]
    fn quality_names_are_stable() {
        assert_eq!(PredictorQuality::Oracle.name(), "oracle");
        assert_eq!(PredictorQuality::Frequency.name(), "frequency");
        assert_eq!(PredictorQuality::Uniform.name(), "uniform");
    }
}
