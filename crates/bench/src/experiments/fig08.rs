//! Figure 8: throughput vs number of experts (one panel per FFN
//! dimension), Mixtral-8x7B skeleton, batch 16, in/out 2048, 4 H100s.

use moe_trace::Tracer;

use super::sweep59::{pivot_panels, run_grid, Axis};
use crate::report::ExperimentReport;

/// Build the report (panels: FFN dim; rows: expert count; columns: TopK).
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let grid = run_grid(fast);
    for t in pivot_panels(&grid, Axis::FfnDim, Axis::Experts, Axis::TopK) {
        report.table(t);
    }
    report.note(
        "At small FFN dimensions, growing the expert pool 8 -> 64 maintains throughput \
         (the extra experts mostly add capacity, not per-token work); at large FFN \
         dimensions the additional weight traffic and memory pressure dominate, ending in \
         OOM.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep59::at;

    #[test]
    fn panels_by_ffn_dim() {
        let r = crate::run_experiment("fig8", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(r.tables.len(), 2);
        assert!(r.tables[0].name.contains("FFN 1792"));
    }

    #[test]
    fn more_experts_hurt_less_at_small_ffn() {
        let grid = run_grid(true);
        let small_ratio = at(&grid, 1792, 64, 1).unwrap() / at(&grid, 1792, 8, 1).unwrap();
        // At 14336 the 64-expert point OOMs entirely.
        assert!(at(&grid, 14_336, 64, 1).is_none());
        assert!(small_ratio > 0.5, "{small_ratio}");
    }
}
