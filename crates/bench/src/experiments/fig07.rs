//! Figure 7: throughput vs FFN dimension (one panel per expert count),
//! Mixtral-8x7B skeleton, batch 16, in/out 2048, 4 H100s.

use super::sweep59::{pivot_panels, run_grid, Axis};
use crate::experiment::{ExpCtx, Experiment};
use crate::report::ExperimentReport;

/// Build the report (panels: expert count; rows: FFN dim; columns: TopK).
/// Registry handle.
pub struct Fig07;

impl Experiment for Fig07 {
    fn id(&self) -> &'static str {
        "fig7"
    }
    fn title(&self) -> &'static str {
        "Figure 7: Throughput vs FFN Dimension (batch 16, in/out 2048, 4xH100)"
    }
    fn run(&self, ctx: &mut ExpCtx<'_>) -> ExperimentReport {
        build(ctx.fast)
    }
}

fn build(fast: bool) -> ExperimentReport {
    let grid = run_grid(fast);
    let mut report = ExperimentReport::new(Fig07.id(), Fig07.title());
    for t in pivot_panels(&grid, Axis::Experts, Axis::FfnDim, Axis::TopK) {
        report.table(t);
    }
    report.note(
        "Throughput declines steeply as the FFN dimension grows (paper: ~50% average from \
         1792 to 14336), with the largest drops at high active-expert counts; blank (OOM) \
         cells reproduce the figure's missing points.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_expert_panels() {
        let r = build(true);
        assert_eq!(r.tables.len(), 2); // fast grid: 8 and 64 experts
        assert!(r.tables[0].name.contains("8 experts"));
    }

    #[test]
    fn oom_cells_rendered() {
        let r = build(true);
        let all: String = r.tables.iter().map(|t| t.render()).collect();
        assert!(all.contains("OOM"), "expected OOM gaps:\n{all}");
    }
}
