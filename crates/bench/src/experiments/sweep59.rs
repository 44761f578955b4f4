//! Shared machinery for the Section-5 hyperparameter study (Figures 7-9):
//! the Mixtral-skeleton grid over FFN dimension x expert count x active
//! experts on 4 H100s (TP4), batch 16, input/output 2048, with OOM points
//! reported as missing — exactly the paper's protocol.

use moe_gpusim::parallel::ParallelPlan;
use moe_model::variants::{mixtral_variant, ACTIVE_COUNTS, EXPERT_COUNTS, FFN_DIMS};
use moe_tensor::Precision;

use crate::common::place_with_plan;
use crate::report::{tput_cell, Table};

/// Batch/lengths from the figure captions.
pub const BATCH: usize = 16;
pub const IN_LEN: usize = 1024;
pub const OUT_LEN: usize = 1024;

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridResult {
    pub ffn_dim: usize,
    pub num_experts: usize,
    pub top_k: usize,
    /// `None` = out of memory on 4 H100s (a gap in the figure).
    pub throughput: Option<f64>,
}

/// Run the full (or reduced) grid.
pub fn run_grid(fast: bool) -> Vec<GridResult> {
    let ffns: &[usize] = if fast { &[1792, 14_336] } else { &FFN_DIMS };
    let experts: &[usize] = if fast { &[8, 64] } else { &EXPERT_COUNTS };
    let actives: &[usize] = if fast { &[1, 8] } else { &ACTIVE_COUNTS };
    // The performance model is pure arithmetic, so `fast` only shrinks the
    // grid — lengths stay at the paper's values (the TopK gap is largely a
    // prefill-compute effect and vanishes at short lengths).
    let (input, output) = (IN_LEN, OUT_LEN);

    let mut out = Vec::new();
    for &ffn in ffns {
        for &e in experts {
            for &k in actives {
                let cfg = mixtral_variant(ffn, e, k);
                let model = place_with_plan(&cfg, Precision::F16, ParallelPlan::tensor(4), true)
                    .expect("plan is structurally valid");
                let throughput = model
                    .run(BATCH, input, output, &mut moe_trace::Tracer::disabled(), 0)
                    .ok()
                    .map(|r| r.throughput_tok_s);
                out.push(GridResult {
                    ffn_dim: ffn,
                    num_experts: e,
                    top_k: k,
                    throughput,
                });
            }
        }
    }
    out
}

/// Lookup helper.
pub fn at(grid: &[GridResult], ffn: usize, e: usize, k: usize) -> Option<f64> {
    grid.iter()
        .find(|g| g.ffn_dim == ffn && g.num_experts == e && g.top_k == k)
        .and_then(|g| g.throughput)
}

/// One axis of the grid, for pivoting it into figure panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    FfnDim,
    Experts,
    TopK,
}

impl Axis {
    /// Every value the full grid sweeps on this axis, ascending.
    fn values(self) -> &'static [usize] {
        match self {
            Axis::FfnDim => &FFN_DIMS,
            Axis::Experts => &EXPERT_COUNTS,
            Axis::TopK => &ACTIVE_COUNTS,
        }
    }

    fn of(self, g: &GridResult) -> usize {
        match self {
            Axis::FfnDim => g.ffn_dim,
            Axis::Experts => g.num_experts,
            Axis::TopK => g.top_k,
        }
    }

    /// Header of the row-label column when rows run along this axis.
    fn header(self) -> &'static str {
        match self {
            Axis::FfnDim => "FFN dim",
            Axis::Experts => "#Experts",
            Axis::TopK => "TopK",
        }
    }

    /// One value's label, as a panel title or a column heading.
    fn label(self, v: usize) -> String {
        match self {
            Axis::FfnDim => format!("FFN {v}"),
            Axis::Experts => format!("{v} experts"),
            Axis::TopK => format!("TopK={v}"),
        }
    }
}

/// Pivot the grid into one throughput table per `panel` value it covers.
/// Rows run along `rows` (values with no point in the panel are skipped),
/// columns along `cols` (a value the grid never sweeps renders as `-`),
/// and missing points render as OOM.
pub fn pivot_panels(grid: &[GridResult], panel: Axis, rows: Axis, cols: Axis) -> Vec<Table> {
    let mut head = vec![rows.header().to_string()];
    head.extend(cols.values().iter().map(|&c| cols.label(c)));
    let head: Vec<&str> = head.iter().map(String::as_str).collect();
    let mut tables = Vec::new();
    for &p in panel.values() {
        if !grid.iter().any(|g| panel.of(g) == p) {
            continue;
        }
        let mut t = Table::new(format!("{} — throughput (tok/s)", panel.label(p)), &head);
        for &r in rows.values() {
            let in_panel: Vec<&GridResult> = grid
                .iter()
                .filter(|g| panel.of(g) == p && rows.of(g) == r)
                .collect();
            if in_panel.is_empty() {
                continue;
            }
            let mut row = vec![r.to_string()];
            for &c in cols.values() {
                row.push(if grid.iter().any(|g| cols.of(g) == c) {
                    tput_cell(
                        in_panel
                            .iter()
                            .find(|g| cols.of(g) == c)
                            .and_then(|g| g.throughput),
                    )
                } else {
                    "-".into()
                });
            }
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<GridResult> {
        run_grid(true)
    }

    #[test]
    fn oom_gaps_at_extremes_only() {
        let g = grid();
        // The largest configuration must OOM on 4 H100s...
        assert!(at(&g, 14_336, 64, 1).is_none());
        // ...while the Mixtral-like and small corners fit.
        assert!(at(&g, 14_336, 8, 1).is_some());
        assert!(at(&g, 1792, 8, 1).is_some());
        assert!(at(&g, 1792, 64, 8).is_some());
    }

    #[test]
    fn throughput_falls_with_ffn_dim() {
        // Fig. 7: steep decline from 1792 to 14336 at fixed experts.
        let g = grid();
        for (e, k) in [(8usize, 1usize), (8, 8)] {
            let small = at(&g, 1792, e, k).unwrap();
            let large = at(&g, 14_336, e, k).unwrap();
            assert!(large < small * 0.7, "e={e} k={k}: {small} -> {large}");
        }
    }

    #[test]
    fn throughput_falls_with_active_experts() {
        // Fig. 9: TopK 1 -> 8 costs heavily, more so at large FFN.
        let g = grid();
        let drop_small_ffn = 1.0 - at(&g, 1792, 8, 8).unwrap() / at(&g, 1792, 8, 1).unwrap();
        let drop_large_ffn = 1.0 - at(&g, 14_336, 8, 8).unwrap() / at(&g, 14_336, 8, 1).unwrap();
        assert!(drop_small_ffn > 0.0);
        assert!(
            drop_large_ffn > drop_small_ffn,
            "small {drop_small_ffn:.3} large {drop_large_ffn:.3}"
        );
    }

    #[test]
    fn expert_count_mild_effect_at_small_ffn() {
        // Fig. 8: at small FFN dims, more experts maintains (or mildly
        // changes) throughput rather than collapsing it.
        let g = grid();
        let base = at(&g, 1792, 8, 1).unwrap();
        let wide = at(&g, 1792, 64, 1).unwrap();
        assert!(wide > base * 0.5, "base {base} wide {wide}");
    }
}
