//! Figure 6: batch size vs input/output length for DeepSeek-V2-Lite and
//! Qwen1.5-MoE-A2.7B.

use moe_model::registry::{deepseek_v2_lite, qwen15_moe_a27b};
use moe_model::ModelConfig;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::common::{auto_place, PAPER_LENGTHS, SWEEP_BATCHES};
use crate::report::{batch_grid_table, ExperimentReport};

/// Throughput grid `(batch, len) -> Option<tok/s>`; input = output = len.
pub fn sweep(base: &ModelConfig, fast: bool) -> Vec<(usize, usize, Option<f64>)> {
    let batches: &[usize] = if fast { &[1, 64] } else { &SWEEP_BATCHES };
    let lengths: &[usize] = if fast { &[128, 2048] } else { &PAPER_LENGTHS };
    // Fixed placement at the heaviest point for comparability.
    let max_len = *lengths.last().expect("non-empty");
    let placed = auto_place(
        base,
        Precision::F16,
        *batches.last().expect("non-empty"),
        2 * max_len,
    )
    .expect("sweep models fit");
    let mut out = Vec::new();
    for &batch in batches {
        for &len in lengths {
            out.push((
                batch,
                len,
                placed
                    .run(batch, len, len, &mut moe_trace::Tracer::disabled(), 0)
                    .ok()
                    .map(|r| r.throughput_tok_s),
            ));
        }
    }
    out
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    for base in [deepseek_v2_lite(), qwen15_moe_a27b()] {
        report.table(batch_grid_table(
            format!("{} — throughput (tok/s)", base.name),
            &sweep(&base, fast),
            |l| format!("in/out {l}"),
        ));
    }
    report.note(
        "Shorter sequences deliver higher throughput at every batch size, and the \
         short-vs-long gap widens with batch size (paper: up to ~30% at large batch).",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorter_sequences_win() {
        for base in [deepseek_v2_lite(), qwen15_moe_a27b()] {
            let grid = sweep(&base, true);
            let at = |b: usize, l: usize| {
                grid.iter()
                    .find(|g| g.0 == b && g.1 == l)
                    .unwrap()
                    .2
                    .unwrap()
            };
            for &b in &[1usize, 64] {
                assert!(at(b, 128) > at(b, 2048), "{} batch {b}", base.name);
            }
        }
    }

    #[test]
    fn throughput_scales_strongly_with_batch() {
        // Paper: increases exceeding 8x from batch 1 to 128.
        let grid = sweep(&deepseek_v2_lite(), true);
        let at = |b: usize, l: usize| {
            grid.iter()
                .find(|g| g.0 == b && g.1 == l)
                .unwrap()
                .2
                .unwrap()
        };
        assert!(at(64, 128) / at(1, 128) > 8.0);
    }

    #[test]
    fn qwen_outperforms_dsv2lite() {
        // Paper: Qwen1.5-MoE surpasses DeepSeek-V2-Lite by 20-30%.
        let a = sweep(&deepseek_v2_lite(), true);
        let b = sweep(&qwen15_moe_a27b(), true);
        let at = |g: &[(usize, usize, Option<f64>)], bt: usize, l: usize| {
            g.iter().find(|x| x.0 == bt && x.1 == l).unwrap().2.unwrap()
        };
        // Compare at the large-batch point.
        assert!(at(&b, 64, 2048) > at(&a, 64, 2048) * 0.95);
    }
}
