//! Figure 4: TTFT, ITL and end-to-end latency of the DeepSeek-VL2 family.

use moe_cluster::serve_one_replica;
use moe_gpusim::perfmodel::RunMetrics;
use moe_model::registry;
use moe_runtime::metrics::LatencySummary;
use moe_runtime::simserver::scheduler_config_for;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::common::auto_place;
use crate::report::{num, secs, ExperimentReport, Table};

/// Workload: one image per sample plus a text prompt (the caption does not
/// pin lengths; we use batch 16, 1024/1024, one image — recorded in
/// EXPERIMENTS.md).
pub const BATCH: usize = 16;
pub const IMAGES: usize = 1;
pub const IN_LEN: usize = 1024;
pub const OUT_LEN: usize = 1024;

/// Per-model VLM latency results.
pub fn measure(fast: bool) -> Vec<(String, RunMetrics)> {
    let _ = fast; // analytic model: full lengths are free
    let (input, output) = (IN_LEN, OUT_LEN);
    registry::vlms()
        .into_iter()
        .map(|m| {
            let image_tokens = m.vision.as_ref().expect("VLM has tower").tokens_per_image;
            let placed = auto_place(&m, Precision::F16, BATCH, input + output + image_tokens)
                .expect("VL2 family fits");
            let run = placed.run_vlm(BATCH, IMAGES, input, output).expect("fits");
            (m.name, run)
        })
        .collect()
}

/// The language-model side of the workload through the serving path,
/// with the image folded in as `tokens_per_image` extra prompt tokens
/// (the vision tower runs outside the serving loop). Returns
/// `(model, ttft summary, e2e summary)` per-request distributions.
pub fn served_tails(fast: bool) -> Vec<(String, LatencySummary, LatencySummary)> {
    let _ = fast; // analytic model: full lengths are free
    registry::vlms()
        .into_iter()
        .map(|m| {
            let image_tokens = m.vision.as_ref().expect("VLM has tower").tokens_per_image;
            let prompt = IN_LEN + IMAGES * image_tokens;
            let placed =
                auto_place(&m, Precision::F16, BATCH, prompt + OUT_LEN).expect("VL2 family fits");
            let sched = scheduler_config_for(&placed, prompt + OUT_LEN);
            let rows = vec![(0.0, prompt, OUT_LEN); BATCH];
            let report =
                serve_one_replica(&placed, sched, &rows, &mut moe_trace::Tracer::disabled());
            (m.name, report.ttft, report.e2e)
        })
        .collect()
}

/// Build the report.
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new("latency", &["Model", "TTFT", "ITL", "E2E", "Samples/s"]);
    let results = measure(fast);
    for (name, r) in &results {
        t.row(vec![
            name.clone(),
            secs(r.ttft_s),
            secs(r.itl_s),
            secs(r.e2e_s),
            num(r.samples_per_s),
        ]);
    }
    report.table(t);
    let mut tails = Table::new(
        "served tail latency (continuous batching, image folded into prompt)",
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
        "Tail rows serve the LM side with the image's visual tokens as extra prompt \
         (the vision tower runs outside the serving loop). At batch 16 the whole batch \
         fits in one chunked-prefill admission wave, so p50 = p99 — a flat tail, unlike \
         the wave-spread p99 of Figure 3's batch-64 workload.",
    );
    let tiny = &results[0].1;
    let base = &results[2].1;
    report.note(format!(
        "Tiny-vs-Base gaps — TTFT {:.0}%, ITL {:.0}%, E2E {:.0}% (paper: ~30% TTFT, ~240% \
         ITL, >260% E2E).",
        100.0 * (base.ttft_s / tiny.ttft_s - 1.0),
        100.0 * (base.itl_s / tiny.itl_s - 1.0),
        100.0 * (base.e2e_s / tiny.e2e_s - 1.0),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_vl2_family_in_size_order() {
        let rs = measure(true);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].0, "DeepSeek-VL2-Tiny");
        assert_eq!(rs[2].0, "DeepSeek-VL2");
    }

    #[test]
    fn latency_grows_with_model_size() {
        let rs = measure(true);
        assert!(rs[0].1.e2e_s < rs[1].1.e2e_s);
        assert!(rs[1].1.e2e_s < rs[2].1.e2e_s);
        assert!(rs[0].1.ttft_s < rs[2].1.ttft_s);
    }

    #[test]
    fn vlm_gaps_exceed_llm_gaps() {
        // The paper's point: VLM latency gaps are more pronounced. Compare
        // Tiny-vs-Base E2E ratio against the LLM best/worst E2E ratio of
        // two mid-size LLMs.
        let rs = measure(true);
        let vlm_ratio = rs[2].1.e2e_s / rs[0].1.e2e_s;
        assert!(vlm_ratio > 1.5, "vlm ratio {vlm_ratio}");
    }

    #[test]
    fn served_tails_cover_family_and_order() {
        let tails = served_tails(true);
        assert_eq!(tails.len(), 3);
        for (name, ttft, e2e) in &tails {
            assert!(ttft.p50_s <= ttft.p99_s, "{name}");
            assert!(e2e.p50_s <= e2e.p99_s, "{name}");
        }
        // Larger models keep the latency ordering in the tail too.
        assert!(tails[0].2.p99_s < tails[2].2.p99_s);
    }

    #[test]
    fn samples_per_s_orders_inverse_to_latency() {
        let rs = measure(true);
        assert!(rs[0].1.samples_per_s > rs[2].1.samples_per_s);
    }
}
