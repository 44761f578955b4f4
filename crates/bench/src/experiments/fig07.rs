//! Figure 7: throughput vs FFN dimension (one panel per expert count),
//! Mixtral-8x7B skeleton, batch 16, in/out 2048, 4 H100s.

use moe_trace::Tracer;

use super::sweep59::{pivot_panels, run_grid, Axis};
use crate::report::ExperimentReport;

/// Build the report (panels: expert count; rows: FFN dim; columns: TopK).
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let grid = run_grid(fast);
    for t in pivot_panels(&grid, Axis::Experts, Axis::FfnDim, Axis::TopK) {
        report.table(t);
    }
    report.note(
        "Throughput declines steeply as the FFN dimension grows (paper: ~50% average from \
         1792 to 14336), with the largest drops at high active-expert counts; blank (OOM) \
         cells reproduce the figure's missing points.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_expert_panels() {
        let r = crate::run_experiment("fig7", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(r.tables.len(), 2); // fast grid: 8 and 64 experts
        assert!(r.tables[0].name.contains("8 experts"));
    }

    #[test]
    fn oom_cells_rendered() {
        let r = crate::run_experiment("fig7", true, &mut Tracer::disabled()).expect("registered");
        let all: String = r.tables.iter().map(|t| t.render()).collect();
        assert!(all.contains("OOM"), "expected OOM gaps:\n{all}");
    }
}
