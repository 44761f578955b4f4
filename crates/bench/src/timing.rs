//! A minimal micro-benchmark runner used by the `benches/` targets,
//! replacing the external criterion dependency, and the reader that lets
//! those targets append to the `BENCH_*.json` ledgers.
//!
//! Wall-clock time is read here and only here: the benches directory is
//! the one place the `no-wall-clock` lint rule allows it, because these
//! numbers describe the harness's own speed — they never feed simulated
//! time or a report.

use moe_json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Target measurement window per benchmark.
const TARGET: f64 = 0.2;
/// Warmup window.
const WARMUP: f64 = 0.05;
/// Hard cap on measured iterations (keeps slow functional benches bounded).
const MAX_ITERS: u64 = 10_000;

/// Runs named closures and prints one timing line per benchmark.
pub struct Runner {
    filter: Option<String>,
}

impl Runner {
    /// Build from CLI args: `cargo bench` invokes the target with
    /// `--bench`; an additional free argument is a substring filter.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self { filter }
    }

    /// Time `f`, printing mean and minimum per-iteration latency.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(fil) = &self.filter {
            if !name.contains(fil.as_str()) {
                return;
            }
        }
        // Warmup.
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < WARMUP {
            black_box(f());
        }
        // Measure individual iterations.
        let mut times = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < TARGET && (times.len() as u64) < MAX_ITERS {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64());
        }
        let n = times.len().max(1) as f64;
        let mean = times.iter().sum::<f64>() / n;
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{name:<44} mean {:>10}  min {:>10}  ({} iters)",
            fmt_secs(mean),
            fmt_secs(min),
            times.len()
        );
    }
}

/// Committed entries of the append-only ledger array `key` in the
/// `BENCH_*.json` file at `path`, oldest first. Entries marked
/// `"committed": true` are carried forward verbatim; a previous run's own
/// uncommitted tail entry is dropped (re-measuring replaces it). A
/// missing or unparsable file has no history.
pub fn committed_history(path: &str, key: &str) -> Vec<Json> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = moe_json::parse(&text) else {
        return Vec::new();
    };
    match doc.get(key) {
        Some(Json::Arr(entries)) => entries
            .iter()
            .filter(|e| matches!(e.get("committed"), Some(Json::Bool(true))))
            .cloned()
            .collect(),
        _ => Vec::new(),
    }
}

fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        "n/a".to_string()
    } else if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales() {
        assert!(fmt_secs(2e-9).ends_with("ns"));
        assert!(fmt_secs(2e-6).ends_with("µs"));
        assert!(fmt_secs(2e-3).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    fn runner_filter_skips() {
        let r = Runner {
            filter: Some("zzz".into()),
        };
        // Would loop for 250ms if not filtered; the closure must not run.
        r.bench("abc", || panic!("filtered bench must not execute"));
    }
}
