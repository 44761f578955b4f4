//! Figure 10: Mixtral-8x7B throughput at FP16 vs FP8 — batch sweep and
//! input/output-length sweep on H100.

use moe_gpusim::parallel::ParallelPlan;
use moe_model::registry::mixtral_8x7b;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::common::{ab_series, gain_table, place_with_plan, PAPER_BATCHES, PAPER_LENGTHS};
use crate::report::{ExperimentReport, Table};

/// Fixed placement: both precisions on TP2 so the comparison is apples to
/// apples (fp16 Mixtral cannot fit one 80 GB H100).
const TP: usize = 2;

/// `(x, fp16 tok/s, fp8 tok/s)` series.
pub fn batch_series(fast: bool) -> Vec<(usize, f64, f64)> {
    let batches: &[usize] = if fast { &[1, 64] } else { &PAPER_BATCHES };
    let (input, output) = (1024, 1024);
    series(batches.iter().map(|&b| (b, b, input, output)).collect())
}

/// Length sweep at batch 16 (input = output = len).
pub fn length_series(fast: bool) -> Vec<(usize, f64, f64)> {
    let lengths: &[usize] = if fast { &[128, 2048] } else { &PAPER_LENGTHS };
    series(lengths.iter().map(|&l| (l, 16, l, l)).collect())
}

fn series(points: Vec<(usize, usize, usize, usize)>) -> Vec<(usize, f64, f64)> {
    let place = |precision| {
        place_with_plan(&mixtral_8x7b(), precision, ParallelPlan::tensor(TP), true)
            .expect("valid plan")
    };
    ab_series(&place(Precision::F16), &place(Precision::Fp8E4M3), points)
}

fn table(name: &str, x_label: &str, s: &[(usize, f64, f64)]) -> Table {
    let columns = [x_label, "FP16 tok/s", "FP8 tok/s", "FP8 gain"];
    gain_table(name, columns, s, |fp16, fp8| fp8 / fp16 - 1.0)
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    report.table(table(
        "batch sweep (in/out 1024)",
        "Batch",
        &batch_series(fast),
    ));
    report.table(table(
        "length sweep (batch 16)",
        "In/out length",
        &length_series(fast),
    ));
    report.note(
        "FP8 outperforms FP16 across the board, with the gap widening at larger batch \
         sizes and staying stable across sequence lengths (paper: up to 25-30% at the \
         largest batch; 20-25% across lengths).",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp8_wins_everywhere() {
        for (x, a, b) in batch_series(true).into_iter().chain(length_series(true)) {
            assert!(b > a, "x={x}: fp16 {a} vs fp8 {b}");
        }
    }

    #[test]
    fn fp8_gain_in_paper_band_at_large_batch() {
        let s = batch_series(true);
        let (_, a, b) = s.last().copied().expect("non-empty");
        let gain = b / a - 1.0;
        assert!((0.10..0.60).contains(&gain), "gain {gain}");
    }

    #[test]
    fn gain_widens_with_batch() {
        let s = batch_series(true);
        let g1 = s[0].2 / s[0].1;
        let g64 = s.last().expect("non-empty").2 / s.last().expect("non-empty").1;
        assert!(g64 > g1 * 0.95, "g1 {g1} g64 {g64}");
    }

    #[test]
    fn gain_stable_across_lengths() {
        let s = length_series(true);
        let gains: Vec<f64> = s.iter().map(|&(_, a, b)| b / a - 1.0).collect();
        let min = gains.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = gains.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 0.25, "gains {gains:?}");
    }
}
