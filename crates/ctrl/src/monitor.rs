//! SLO-burn monitors over streaming latency histograms.
//!
//! The cluster simulator hands the controller *cumulative* TTFT/ITL
//! histograms at every control tick. A [`BurnMonitor`] differences
//! successive snapshots into per-tick `(total, bad)` deltas, keeps a
//! sliding window of the last `window` ticks, and reports the windowed
//! **burn rate**: the fraction of requests violating the SLO divided by
//! the error budget `1 − target_attainment`. A burn of 1 means the
//! window is consuming exactly its budget; 2 means twice as fast; 0
//! means a clean window. This is the standard SRE burn-rate alert,
//! computed on the simulated clock from exact bucket counts — no
//! sampling, no wall time.

use moe_json::{FromJson, ToJson};
use moe_trace::Histogram;

/// One windowed burn reading.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct BurnSample {
    /// Simulated time of the tick (s).
    pub t_s: f64,
    /// Completions recorded inside the window.
    pub window_total: u64,
    /// Window completions violating the SLO bound.
    pub window_bad: u64,
    /// `window_bad / window_total` (0 for an empty window).
    pub err_rate: f64,
    /// `err_rate / (1 − target_attainment)`.
    pub burn: f64,
}

/// Windowed burn-rate monitor for one latency SLO.
#[derive(Debug, Clone)]
pub struct BurnMonitor {
    slo_s: f64,
    budget: f64,
    window: usize,
    /// Ring of per-tick `(total, bad)` deltas, oldest first.
    deltas: Vec<(u64, u64)>,
    last_total: u64,
    last_good: u64,
}

impl BurnMonitor {
    /// Monitor `slo_s` at `target_attainment` (e.g. 0.99 ⇒ a 1% error
    /// budget) over a sliding window of `window` control ticks.
    pub fn new(slo_s: f64, target_attainment: f64, window: usize) -> Self {
        assert!(slo_s > 0.0, "SLO bound must be positive");
        assert!(
            (0.0..1.0).contains(&target_attainment),
            "attainment target must be in [0, 1)"
        );
        Self {
            slo_s,
            budget: 1.0 - target_attainment,
            window: window.max(1),
            deltas: Vec::new(),
            last_total: 0,
            last_good: 0,
        }
    }

    /// The SLO bound being monitored (s).
    pub fn slo_s(&self) -> f64 {
        self.slo_s
    }

    /// Fold in the cumulative histogram at tick time `t_s` and return
    /// the windowed reading.
    pub fn observe(&mut self, t_s: f64, cumulative: &Histogram) -> BurnSample {
        let total = cumulative.count();
        let good = cumulative.count_le(self.slo_s);
        let d_total = total.saturating_sub(self.last_total);
        let d_good = good.saturating_sub(self.last_good);
        self.last_total = total;
        self.last_good = good;
        self.deltas.push((d_total, d_total.saturating_sub(d_good)));
        if self.deltas.len() > self.window {
            self.deltas.remove(0);
        }
        let (window_total, window_bad) = self
            .deltas
            .iter()
            .fold((0u64, 0u64), |(t, b), &(dt, db)| (t + dt, b + db));
        let err_rate = if window_total == 0 {
            0.0
        } else {
            window_bad as f64 / window_total as f64
        };
        BurnSample {
            t_s,
            window_total,
            window_bad,
            err_rate,
            burn: err_rate / self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn clean_window_burns_nothing() {
        let mut m = BurnMonitor::new(1.0, 0.99, 4);
        let s = m.observe(10.0, &hist(&[0.2, 0.5, 0.9]));
        assert_eq!(s.window_total, 3);
        assert_eq!(s.window_bad, 0);
        assert_eq!(s.burn, 0.0);
    }

    #[test]
    fn burn_is_err_rate_over_budget() {
        let mut m = BurnMonitor::new(1.0, 0.99, 4);
        // 1 of 10 completions over the bound: 10% errors on a 1% budget.
        let mut h = hist(&[2.0]);
        for _ in 0..9 {
            h.record(0.1);
        }
        let s = m.observe(10.0, &h);
        assert_eq!(s.window_total, 10);
        assert_eq!(s.window_bad, 1);
        assert!((s.err_rate - 0.1).abs() < 1e-12);
        assert!((s.burn - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_slides_over_cumulative_deltas() {
        let mut m = BurnMonitor::new(1.0, 0.9, 2);
        let mut h = hist(&[5.0, 5.0]); // tick 1: 2 bad
        m.observe(1.0, &h);
        h.record(0.1); // tick 2: 1 good
        m.observe(2.0, &h);
        h.record(0.1); // tick 3: 1 good — tick 1's bad pair ages out
        let s = m.observe(3.0, &h);
        assert_eq!(s.window_total, 2);
        assert_eq!(s.window_bad, 0);
        assert_eq!(s.burn, 0.0);
    }

    #[test]
    fn empty_window_reads_zero_not_nan() {
        let mut m = BurnMonitor::new(0.5, 0.99, 3);
        let s = m.observe(1.0, &Histogram::new());
        assert_eq!(s.window_total, 0);
        assert_eq!(s.err_rate, 0.0);
        assert_eq!(s.burn, 0.0);
    }
}
