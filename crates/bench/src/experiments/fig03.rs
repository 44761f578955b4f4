//! Figure 3: TTFT, ITL and end-to-end latency of the six LLMs at batch 64
//! and input/output length 2048.

use moe_cluster::serve_one_replica;
use moe_gpusim::perfmodel::RunMetrics;
use moe_model::registry;
use moe_runtime::metrics::LatencySummary;
use moe_runtime::simserver::scheduler_config_for;
use moe_tensor::Precision;

use crate::common::auto_place;
use crate::experiment::{ExpCtx, Experiment};
use crate::report::{secs, ExperimentReport, Table};

/// Registry handle.
pub struct Fig03;

impl Experiment for Fig03 {
    fn id(&self) -> &'static str {
        "fig3"
    }
    fn title(&self) -> &'static str {
        "Figure 3: TTFT, ITL and E2E Latency of LLMs (batch 64, in/out 2048)"
    }
    fn run(&self, ctx: &mut ExpCtx<'_>) -> ExperimentReport {
        build(ctx.fast)
    }
}

/// Workload from the figure caption.
pub const BATCH: usize = 64;
pub const IN_LEN: usize = 2048;
pub const OUT_LEN: usize = 2048;

/// Per-model latency results.
pub fn measure(fast: bool) -> Vec<(String, usize, RunMetrics)> {
    let _ = fast; // analytic model: full lengths are free
    let (input, output) = (IN_LEN, OUT_LEN);
    registry::llms()
        .into_iter()
        .map(|m| {
            let placed = auto_place(&m, Precision::F16, BATCH, input + output)
                .expect("all Fig.3 LLMs fit on <=8 H100s");
            let gpus = placed.cluster().num_devices;
            let run = placed
                .run(BATCH, input, output, &mut moe_trace::Tracer::disabled(), 0)
                .expect("placement fits");
            (m.name, gpus, run)
        })
        .collect()
}

/// The same workload through the continuous-batching serving path,
/// summarized as per-request latency distributions. The static-batch
/// [`measure`] quotes one number per model; here chunked prefill admits
/// the 64 sequences in waves, so TTFT spreads across the batch and the
/// tail (p99) separates from the median. Returns
/// `(model, ttft summary, e2e summary)` rows.
pub fn served_tails(fast: bool) -> Vec<(String, LatencySummary, LatencySummary)> {
    let _ = fast; // analytic model: full lengths are free
    registry::llms()
        .into_iter()
        .map(|m| {
            let placed = auto_place(&m, Precision::F16, BATCH, IN_LEN + OUT_LEN)
                .expect("all Fig.3 LLMs fit on <=8 H100s");
            let sched = scheduler_config_for(&placed, IN_LEN + OUT_LEN);
            let rows = vec![(0.0, IN_LEN, OUT_LEN); BATCH];
            let report =
                serve_one_replica(&placed, sched, &rows, &mut moe_trace::Tracer::disabled());
            (m.name, report.ttft, report.e2e)
        })
        .collect()
}

/// Build the report.
fn build(fast: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(Fig03.id(), Fig03.title());
    let mut t = Table::new(
        "latency",
        &["Model", "GPUs", "TTFT", "ITL", "E2E", "Throughput tok/s"],
    );
    let results = measure(fast);
    for (name, gpus, r) in &results {
        t.row(vec![
            name.clone(),
            gpus.to_string(),
            secs(r.ttft_s),
            secs(r.itl_s),
            secs(r.e2e_s),
            crate::report::num(r.throughput_tok_s),
        ]);
    }
    report.table(t);
    let mut tails = Table::new(
        "served tail latency (continuous batching, same workload)",
        &["Model", "TTFT p50", "TTFT p99", "E2E p50", "E2E p99"],
    );
    for (name, ttft, e2e) in served_tails(fast) {
        tails.row(vec![
            name,
            secs(ttft.p50_s),
            secs(ttft.p99_s),
            secs(e2e.p50_s),
            secs(e2e.p99_s),
        ]);
    }
    report.table(tails);
    report.note(
        "The tail table replays the workload through the continuous-batching scheduler: \
         chunked prefill admits the batch in waves, so p99 TTFT (last wave) runs well \
         ahead of p50 even though all 64 requests arrive together — a spread the \
         static-batch mean cannot show.",
    );
    let best_ttft = results
        .iter()
        .min_by(|a, b| a.2.ttft_s.partial_cmp(&b.2.ttft_s).expect("finite"))
        .expect("non-empty");
    report.note(format!(
        "Fastest TTFT: {} — the paper reports OLMoE-1B-7B fastest, ~70% ahead of \
         DeepSeek-V2-Lite.",
        best_ttft.0
    ));
    report.note(
        "Each model is auto-placed on the smallest H100 TP group that fits (the paper \
         deploys through vLLM on an H100 node).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> Vec<(String, usize, RunMetrics)> {
        measure(true)
    }

    #[test]
    fn covers_all_six_llms() {
        assert_eq!(results().len(), 6);
    }

    #[test]
    fn olmoe_has_fastest_ttft() {
        let rs = results();
        let best = rs
            .iter()
            .min_by(|a, b| a.2.ttft_s.partial_cmp(&b.2.ttft_s).unwrap())
            .unwrap();
        assert_eq!(best.0, "OLMoE-1B-7B");
    }

    #[test]
    fn olmoe_beats_dsv2lite_ttft_by_wide_margin() {
        // Paper: ~70% faster. Accept a broad band around that.
        let rs = results();
        let get = |n: &str| rs.iter().find(|r| r.0 == n).unwrap().2.ttft_s;
        let ratio = get("DeepSeek-V2-Lite") / get("OLMoE-1B-7B");
        assert!(ratio > 1.3, "ratio {ratio}");
    }

    #[test]
    fn large_models_have_larger_e2e() {
        let rs = results();
        let get = |n: &str| rs.iter().find(|r| r.0 == n).unwrap().2.e2e_s;
        assert!(get("Mixtral-8x7B") > get("OLMoE-1B-7B"));
        assert!(get("Phi-3.5-MoE") > get("Qwen1.5-MoE-A2.7B"));
    }

    #[test]
    fn served_ttft_tail_separates_from_median() {
        // All 64 requests arrive at t = 0, but chunked prefill admits them
        // in waves: the p99 TTFT must sit visibly above the median.
        let tails = served_tails(true);
        assert_eq!(tails.len(), 6);
        for (name, ttft, e2e) in &tails {
            assert!(ttft.p50_s <= ttft.p99_s, "{name}");
            assert!(e2e.p50_s <= e2e.p99_s, "{name}");
            assert!(
                ttft.p99_s > 1.2 * ttft.p50_s,
                "{name}: p99 {} p50 {}",
                ttft.p99_s,
                ttft.p50_s
            );
        }
    }

    #[test]
    fn itl_spread_is_substantial() {
        // Paper: ITL varies by nearly 100% between best and worst. Our
        // spread is somewhat compressed (the shared per-step host overhead
        // narrows relative gaps) but remains large; see EXPERIMENTS.md.
        let rs = results();
        let itls: Vec<f64> = rs.iter().map(|r| r.2.itl_s).collect();
        let min = itls.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = itls.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.35, "spread {}", max / min);
    }
}
