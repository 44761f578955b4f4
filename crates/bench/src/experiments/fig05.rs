//! Figure 5: impact of batch size at varying active-expert counts (TopK)
//! for DeepSeek-V2-Lite and Qwen1.5-MoE-A2.7B, context length 2048.

use moe_model::registry::{deepseek_v2_lite, qwen15_moe_a27b};
use moe_model::ModelConfig;
use moe_tensor::Precision;
use moe_trace::{Category, Tracer, BENCH_TRACK, ENGINE_TRACK};

use crate::common::{auto_place, SWEEP_BATCHES};
use crate::report::{batch_grid_table, ExperimentReport};

/// TopK values swept (the paper scales active experts from 1 to 32).
pub const TOPKS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Context 2048 = 1024 in + 1024 out.
pub const IN_LEN: usize = 1024;
pub const OUT_LEN: usize = 1024;

/// Throughput grid: `(batch, topk) -> Option<tok/s>` for one model. The
/// placement is fixed per model at the largest batch so the whole grid is
/// comparable.
///
/// With an enabled tracer every point runs through `PerfModel::run`,
/// gets a grouping span on [`BENCH_TRACK`] labelled with the grid
/// coordinates, and advances the tracer base by the point's end-to-end
/// latency so consecutive points tile one monotone simulated timeline.
/// With a disabled tracer the grid is scored concurrently on the
/// work-stealing pool (the cost model is pure arithmetic, so points are
/// independent); `map_collect` returns points in grid order, making both
/// paths produce identical vectors.
pub fn sweep(
    base: &ModelConfig,
    fast: bool,
    tracer: &mut Tracer,
) -> Vec<(usize, usize, Option<f64>)> {
    let (input, output) = (IN_LEN, OUT_LEN);
    let batches: &[usize] = if fast { &[1, 64] } else { &SWEEP_BATCHES };
    let topks: &[usize] = if fast { &[1, 8, 32] } else { &TOPKS };
    let points: Vec<(usize, usize)> = batches
        .iter()
        .flat_map(|&b| topks.iter().map(move |&k| (b, k)))
        .collect();
    let score_point = |batch: usize, k: usize, tracer: &mut Tracer| {
        let cfg = base.with_top_k(k);
        let placed = auto_place(
            base,
            Precision::F16,
            *SWEEP_BATCHES.last().expect("non-empty"),
            input + output,
        )
        .expect("sweep models fit");
        let model = moe_gpusim::perfmodel::PerfModel::new(
            cfg,
            placed.cluster().clone(),
            placed.options().clone(),
        )
        .expect("same placement");
        model.run(batch, input, output, tracer, ENGINE_TRACK).ok()
    };
    if !tracer.is_enabled() {
        return moe_par::map_collect(points.len(), |i| {
            let (batch, k) = points[i];
            let run = score_point(batch, k, &mut Tracer::disabled());
            (batch, k, run.map(|r| r.throughput_tok_s))
        });
    }
    let mut out = Vec::new();
    for &(batch, k) in &points {
        let run = score_point(batch, k, tracer);
        match &run {
            Some(r) => {
                tracer.span_with(
                    BENCH_TRACK,
                    Category::Bench,
                    &format!("{} b={batch} k={k}", base.name),
                    0.0,
                    r.e2e_s,
                    vec![("batch", batch.into()), ("top_k", k.into())],
                );
                tracer.advance(r.e2e_s);
            }
            None => tracer.instant(
                BENCH_TRACK,
                Category::Bench,
                &format!("{} b={batch} k={k} OOM", base.name),
                0.0,
                vec![("batch", batch.into()), ("top_k", k.into())],
            ),
        }
        out.push((batch, k, run.map(|r| r.throughput_tok_s)));
    }
    out
}

/// Build the report while recording the full sweep into `tracer` (engine
/// step spans on track 0, per-point grouping spans on the bench track).
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, tracer: &mut Tracer) {
    tracer.name_track(ENGINE_TRACK, "engine");
    tracer.name_track(BENCH_TRACK, "bench");
    for base in [deepseek_v2_lite(), qwen15_moe_a27b()] {
        let grid = sweep(&base, fast, tracer);
        report.table(batch_grid_table(
            format!("{} — throughput (tok/s) vs batch x TopK", base.name),
            &grid,
            |k| format!("TopK={k}"),
        ));
    }
    report.note(
        "Throughput decreases as TopK grows at every batch size; the relative drop is \
         larger at large batches (paper: 15-20% at batch 64/128 vs 5-8% at batch 1/16 for \
         DeepSeek-V2-Lite when scaling TopK 1 -> 32).",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_trace::{timeline_coverage, MemorySink};

    #[test]
    fn traced_sweep_matches_plain_and_tiles_timeline() {
        let base = deepseek_v2_lite();
        let plain = sweep(&base, true, &mut Tracer::disabled());
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let traced = sweep(&base, true, &mut tracer);
        assert_eq!(plain, traced, "tracing must not perturb results");
        let events = tracer.snapshot();
        assert!(!events.is_empty());
        assert!(timeline_coverage(&events, ENGINE_TRACK) > 0.999);
        assert!(timeline_coverage(&events, BENCH_TRACK) > 0.999);
    }

    #[test]
    fn throughput_decreases_with_topk() {
        for base in [deepseek_v2_lite(), qwen15_moe_a27b()] {
            let grid = sweep(&base, true, &mut Tracer::disabled());
            for &batch in &[1usize, 64] {
                let series: Vec<f64> = grid
                    .iter()
                    .filter(|g| g.0 == batch)
                    .filter_map(|g| g.2)
                    .collect();
                assert!(series.len() >= 3, "{}", base.name);
                for w in series.windows(2) {
                    assert!(w[1] < w[0], "{} batch {batch}: {series:?}", base.name);
                }
            }
        }
    }

    #[test]
    fn throughput_increases_with_batch() {
        let grid = sweep(&deepseek_v2_lite(), true, &mut Tracer::disabled());
        let at = |b: usize, k: usize| {
            grid.iter()
                .find(|g| g.0 == b && g.1 == k)
                .unwrap()
                .2
                .unwrap()
        };
        assert!(at(64, 1) > at(1, 1));
        assert!(at(64, 32) > at(1, 32));
    }

    #[test]
    fn large_batches_lose_more_absolute_throughput_to_topk() {
        // The paper's insight is that large batches are more sensitive to
        // active-expert scaling. In absolute tokens/s our model agrees
        // strongly; the *relative* drop ordering deviates (see
        // EXPERIMENTS.md: vLLM's batch-1 decode is host-overhead-bound,
        // ours is weight-traffic-bound).
        for base in [deepseek_v2_lite(), qwen15_moe_a27b()] {
            let grid = sweep(&base, true, &mut Tracer::disabled());
            let at = |b: usize, k: usize| {
                grid.iter()
                    .find(|g| g.0 == b && g.1 == k)
                    .unwrap()
                    .2
                    .unwrap()
            };
            let loss_small = at(1, 1) - at(1, 32);
            let loss_large = at(64, 1) - at(64, 32);
            assert!(
                loss_large > 5.0 * loss_small,
                "{}: small {loss_small:.1} large {loss_large:.1}",
                base.name
            );
            // And the relative drop at large batch is in the paper's
            // double-digit ballpark.
            let drop_large = 1.0 - at(64, 32) / at(64, 1);
            assert!(
                (0.10..0.60).contains(&drop_large),
                "{}: {drop_large}",
                base.name
            );
        }
    }
}
