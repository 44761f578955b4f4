//! Aggregation helpers for the paper's performance metrics (Section 3.4);
//! the per-run Eq. 1/2 definitions live on `moe_gpusim`'s `RunMetrics`.
//!
//! ## The clock behind these numbers
//!
//! Every latency flowing into this module is **simulated seconds**: the
//! serving loop advances its clock by `moe-gpusim` step costs, so TTFT,
//! ITL and E2E are differences of deterministic simulated timestamps,
//! never host wall-clock readings (the `no-wall-clock` lint rule enforces
//! this crate-wide). Identical inputs therefore reproduce identical
//! metrics bit-for-bit, which the byte-level determinism tests rely on.
//!
//! ## Distribution, not just the mean
//!
//! [`LatencySummary`] aggregates through the deterministic log-linear
//! [`Histogram`] from `moe-trace`: `mean_s` and `max_s` are exact, the
//! p50/p95/p99 quantiles are bucket-resolved (~2% relative error) and
//! clamped to the observed range. Tail percentiles matter in the serving
//! experiments — continuous batching keeps means flat while preemptions
//! stretch p99 — so reports quote p50/p95/p99 alongside the mean.

use moe_json::{FromJson, ToJson};
use moe_trace::Histogram;

/// Percentile via nearest-rank on a sorted copy (`p` in [0, 100]).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank]
}

/// Aggregate latency statistics over a set of requests.
///
/// Built from a [`Histogram`]: mean and max are exact, the percentiles
/// are bucket-resolved and clamped into the observed `[min, max]`, so
/// `p50_s <= p95_s <= p99_s <= max_s` always holds.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct LatencySummary {
    /// Exact sample mean (s).
    pub mean_s: f64,
    /// Median (s).
    pub p50_s: f64,
    /// 95th percentile (s).
    pub p95_s: f64,
    /// 99th percentile (s) — the tail the serving experiments watch.
    pub p99_s: f64,
    /// Exact worst case (s).
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarize an already-accumulated histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            mean_s: h.mean(),
            p50_s: h.percentile(50.0),
            p95_s: h.percentile(95.0),
            p99_s: h.percentile(99.0),
            max_s: h.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(xs: &[f64]) -> LatencySummary {
        let mut h = Histogram::new();
        for &x in xs {
            h.record(x);
        }
        LatencySummary::from_histogram(&h)
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = summary(&xs);
        assert_eq!(s.mean_s, 2.5);
        assert_eq!(s.max_s, 4.0);
        assert!(s.p50_s <= s.p95_s);
        assert!(s.p95_s <= s.p99_s);
        assert!(s.p99_s <= s.max_s);
    }

    #[test]
    fn summary_p99_separates_tail() {
        // 49 fast requests and one 100x straggler: the mean barely moves,
        // p99 lands on the straggler.
        let mut xs = vec![0.01; 49];
        xs.push(1.0);
        let s = summary(&xs);
        assert!(s.p50_s < 0.02);
        assert!(s.p99_s > 0.9, "p99 {}", s.p99_s);
        assert_eq!(s.max_s, 1.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
