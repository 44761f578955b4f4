//! A deterministic log-linear histogram for latency distributions.

use moe_json::{FromJson, Json, ToJson};

/// Linear sub-buckets per power-of-two octave (≤ ~2.2% relative error).
const SUBS: usize = 32;
/// Smallest representable octave: 2^-40 ≈ 9e-13 (sub-picosecond).
const E_MIN: i32 = -40;
/// Largest representable octave: 2^23 ≈ 8.4e6 (~97 simulated days).
const E_MAX: i32 = 23;
/// Bucket count: one underflow/zero bucket plus the log-linear grid.
const NBUCKETS: usize = ((E_MAX - E_MIN + 1) as usize) * SUBS + 1;

/// A fixed-footprint histogram over positive values (typically seconds).
///
/// Buckets are log-linear — 32 linear sub-buckets per power-of-two
/// octave — so quantile queries are deterministic and accurate to ~2%
/// across twelve decades, with exact `count`, `sum`, `min` and `max`.
/// Values ≤ 0 (or below the smallest octave) land in the underflow
/// bucket; values above the largest octave clamp into the top bucket.
///
/// Everything is integer/bucket arithmetic over explicitly recorded
/// samples: no interpolation on host state, so two identical simulations
/// produce identical histograms and identical rendered percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NBUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let e = v.log2().floor();
        let e_i = e as i32;
        if e_i < E_MIN {
            return 0;
        }
        let e_i = e_i.min(E_MAX);
        let frac = v / (e_i as f64).exp2();
        let sub = (((frac - 1.0) * SUBS as f64) as usize).min(SUBS - 1);
        ((e_i - E_MIN) as usize) * SUBS + sub + 1
    }

    /// Midpoint value represented by a bucket.
    fn bucket_value(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        let e = E_MIN + ((idx - 1) / SUBS) as i32;
        let sub = (idx - 1) % SUBS;
        let scale = (e as f64).exp2();
        scale * (1.0 + (sub as f64 + 0.5) / SUBS as f64)
    }

    /// Record one sample. A NaN sample is recorded as `0.0`: it counts,
    /// lands in the underflow bucket and bounds `min`/`max` like a zero,
    /// so `min <= max` holds and percentiles stay ordered.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v };
        let idx = Self::bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += if v.is_finite() { v } else { 0.0 };
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile (`p` in [0, 100]), answered from the
    /// bucket midpoint and clamped to the exact observed [min, max].
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Samples ≤ `v`, answered at bucket resolution: every bucket whose
    /// index is at or below `v`'s bucket counts in full, so the result
    /// can overcount by at most one bucket's width (~3% of `v`). Exact
    /// when `v` sits on a bucket boundary or beyond the observed max.
    pub fn count_le(&self, v: f64) -> u64 {
        let idx = Self::bucket_index(v);
        self.counts[..=idx].iter().sum()
    }

    /// One-line render: `count mean p50 p95 p99 max` (times in ms).
    pub fn render_ms(&self, label: &str) -> String {
        format!(
            "{label:<24} n={:<6} mean {:>9.3} ms  p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms  max {:>9.3} ms",
            self.count,
            self.mean() * 1e3,
            self.percentile(50.0) * 1e3,
            self.percentile(95.0) * 1e3,
            self.percentile(99.0) * 1e3,
            self.max() * 1e3,
        )
    }
}

impl ToJson for Histogram {
    /// Sparse image: exact `count`/`sum`/`min`/`max` plus the non-empty
    /// buckets as `[index, count]` pairs in index order, so the size is
    /// proportional to the number of *occupied* buckets, not the grid.
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![(i as u64).to_json(), c.to_json()]))
            .collect();
        Json::Obj(vec![
            ("count".to_string(), self.count.to_json()),
            ("sum".to_string(), self.sum.to_json()),
            ("min".to_string(), self.min().to_json()),
            ("max".to_string(), self.max().to_json()),
            ("buckets".to_string(), Json::Arr(buckets)),
        ])
    }
}

impl FromJson for Histogram {
    fn from_json(v: &Json) -> Result<Self, moe_json::Error> {
        let mut h = Histogram::new();
        h.count = moe_json::field(v, "count")?;
        h.sum = moe_json::field(v, "sum")?;
        if h.count > 0 {
            h.min = moe_json::field(v, "min")?;
            h.max = moe_json::field(v, "max")?;
            if h.min > h.max {
                return Err(moe_json::Error::new("histogram min exceeds max"));
            }
        }
        let buckets: Vec<(u64, u64)> = moe_json::field(v, "buckets")?;
        for (idx, c) in buckets {
            let slot = h
                .counts
                .get_mut(idx as usize)
                .ok_or_else(|| moe_json::Error::new(format!("bucket index {idx} out of range")))?;
            *slot = c;
        }
        Ok(h)
    }
}

#[cfg(test)]
impl Histogram {
    /// Build from a sample slice.
    fn from_samples(samples: &[f64]) -> Self {
        let mut h = Self::new();
        for &s in samples {
            h.record(s);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn percentiles_are_close_and_ordered() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        let h = Histogram::from_samples(&samples);
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!((p50 - 0.5).abs() / 0.5 < 0.03, "p50 {p50}");
        assert!((p95 - 0.95).abs() / 0.95 < 0.03, "p95 {p95}");
        assert!((p99 - 0.99).abs() / 0.99 < 0.03, "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn percentile_clamps_to_observed_range() {
        let h = Histogram::from_samples(&[0.1]);
        assert_eq!(h.percentile(0.0), 0.1);
        assert_eq!(h.percentile(100.0), 0.1);
    }

    #[test]
    fn tail_heavy_distribution_separates_p50_from_p99() {
        let mut samples = vec![0.01; 98];
        samples.push(1.0);
        samples.push(2.0);
        let h = Histogram::from_samples(&samples);
        assert!(h.percentile(50.0) < 0.02);
        assert!(h.percentile(99.0) > 0.9);
    }

    #[test]
    fn nonpositive_and_nonfinite_samples_hit_underflow() {
        let h = Histogram::from_samples(&[0.0, -1.0, f64::NAN, 0.5]);
        assert_eq!(h.count(), 4);
        // Underflow bucket reports 0 (clamped to observed min of -1,
        // which is below bucket 0's midpoint 0).
        assert!(h.percentile(25.0) <= 0.0);
    }

    #[test]
    fn nan_samples_keep_percentiles_ordered() {
        for samples in [
            vec![f64::NAN],
            vec![f64::NAN, f64::NAN, 0.25],
            vec![0.5, f64::NAN, 1e-3, f64::NAN, 2.0],
        ] {
            let h = Histogram::from_samples(&samples);
            assert_eq!(h.count(), samples.len() as u64);
            assert!(h.min() <= h.max(), "{samples:?}");
            let (p50, p95, p99) = (h.percentile(50.0), h.percentile(95.0), h.percentile(99.0));
            assert!(h.min() <= p50, "{samples:?}");
            assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max(), "{samples:?}");
        }
        let only_nan = Histogram::from_samples(&[f64::NAN]);
        assert_eq!((only_nan.min(), only_nan.max()), (0.0, 0.0));
        assert_eq!(only_nan.percentile(50.0), 0.0);
    }

    #[test]
    fn merge_matches_union() {
        let a = Histogram::from_samples(&[0.1, 0.2, 0.3]);
        let b = Histogram::from_samples(&[0.4, 0.5]);
        let mut m = a.clone();
        m.merge(&b);
        let u = Histogram::from_samples(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(m, u);
    }

    #[test]
    fn extreme_magnitudes_clamp_into_grid() {
        let h = Histogram::from_samples(&[1e-20, 1e9]);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) <= 1e9);
        assert!(h.percentile(100.0) > 1e6);
    }

    #[test]
    fn count_le_brackets_the_exact_count() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        let h = Histogram::from_samples(&samples);
        for v in [0.1, 0.25, 0.5, 0.9] {
            let exact = samples.iter().filter(|&&s| s <= v).count() as u64;
            let got = h.count_le(v);
            // Never undercounts; overcounts by at most one bucket (~3%).
            assert!(got >= exact, "count_le({v}) = {got} < exact {exact}");
            assert!(
                got as f64 <= exact as f64 * 1.05 + 1.0,
                "count_le({v}) = {got} vs exact {exact}"
            );
        }
        assert_eq!(h.count_le(2.0), 1000, "beyond max counts everything");
        assert_eq!(h.count_le(0.0), 0, "underflow bucket only");
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let h = Histogram::from_samples(&[1e-6, 0.003, 0.01, 0.01, 7.5]);
        let json = moe_json::to_string(&h);
        let back: Histogram = moe_json::from_str(&json).expect("histogram json parses");
        assert_eq!(h, back);
        assert_eq!(json, moe_json::to_string(&back));

        let empty = Histogram::new();
        let back: Histogram = moe_json::from_str(&moe_json::to_string(&empty)).unwrap();
        assert_eq!(empty, back);
        assert_eq!(back.percentile(50.0), 0.0);

        let inverted = r#"{"count":1,"sum":0,"min":1,"max":0,"buckets":[]}"#;
        assert!(moe_json::from_str::<Histogram>(inverted).is_err());
    }

    #[test]
    fn render_contains_percentiles() {
        let h = Histogram::from_samples(&[0.001, 0.002]);
        let line = h.render_ms("ttft");
        assert!(line.contains("ttft"));
        assert!(line.contains("p99"));
    }
}
