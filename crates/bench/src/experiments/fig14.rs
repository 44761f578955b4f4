//! Figure 14: Mixtral-8x7B with and without the fused-MoE kernel on
//! 4 H100s — batch sweep and input/output-length sweep.

use moe_gpusim::parallel::ParallelPlan;
use moe_model::registry::mixtral_8x7b;
use moe_tensor::Precision;

use crate::common::{ab_series, gain_table, place_with_plan, PAPER_BATCHES, PAPER_LENGTHS};
use crate::experiment::{ExpCtx, Experiment};
use crate::report::{ExperimentReport, Table};

/// `(x, fused tok/s, unfused tok/s)` series.
pub fn batch_series(fast: bool) -> Vec<(usize, f64, f64)> {
    let batches: &[usize] = if fast { &[1, 64] } else { &PAPER_BATCHES };
    series(batches.iter().map(|&b| (b, b, 1024, 1024)).collect())
}

/// Length sweep at batch 16.
pub fn length_series(fast: bool) -> Vec<(usize, f64, f64)> {
    let lengths: &[usize] = if fast { &[128, 2048] } else { &PAPER_LENGTHS };
    series(lengths.iter().map(|&l| (l, 16, l, l)).collect())
}

fn series(points: Vec<(usize, usize, usize, usize)>) -> Vec<(usize, f64, f64)> {
    let place = |fused| {
        place_with_plan(
            &mixtral_8x7b(),
            Precision::F16,
            ParallelPlan::tensor(4),
            fused,
        )
        .expect("valid plan")
    };
    ab_series(&place(true), &place(false), points)
}

fn table(name: &str, x_label: &str, s: &[(usize, f64, f64)]) -> Table {
    let columns = [x_label, "Fused tok/s", "Unfused tok/s", "Fused gain"];
    gain_table(name, columns, s, |fused, unfused| fused / unfused - 1.0)
}

/// Build the report.
/// Registry handle.
pub struct Fig14;

impl Experiment for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }
    fn title(&self) -> &'static str {
        "Figure 14: Fused vs Non-Fused MoE, Mixtral-8x7B on 4 H100s"
    }
    fn run(&self, ctx: &mut ExpCtx<'_>) -> ExperimentReport {
        build(ctx.fast)
    }
}

fn build(fast: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(Fig14.id(), Fig14.title());
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
        "Fused MoE wins everywhere (paper: ~15-20% over batch, ~12-18% over lengths): the \
         unfused path pays per-expert kernel launches plus gather/scatter round trips of \
         activations through HBM.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_always_wins() {
        for (x, fused, unfused) in batch_series(true).into_iter().chain(length_series(true)) {
            assert!(fused > unfused, "x={x}: {fused} vs {unfused}");
        }
    }

    #[test]
    fn gain_in_paper_band() {
        for (x, fused, unfused) in batch_series(true) {
            let gain = fused / unfused - 1.0;
            assert!((0.03..0.6).contains(&gain), "batch {x}: gain {gain}");
        }
    }

    #[test]
    fn unfused_declines_faster_at_long_sequences() {
        // Paper: the non-fused baseline exhibits a sharper decline at
        // longer sequences.
        let s = length_series(true);
        let (first, last) = (s.first().expect("points"), s.last().expect("points"));
        let fused_decline = first.1 / last.1;
        let unfused_decline = first.2 / last.2;
        assert!(
            unfused_decline >= fused_decline * 0.98,
            "fused {fused_decline} unfused {unfused_decline}"
        );
    }
}
