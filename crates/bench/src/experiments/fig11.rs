//! Figure 11: impact of intra- and inter-expert pruning on OLMoE-1B-7B and
//! Qwen1.5-MoE-A2.7B — throughput vs TopK per pruning configuration,
//! batch 16, in/out 2048, 4 H100s.

use moe_gpusim::parallel::ParallelPlan;
use moe_model::prune::{PruneKind, PruneSpec, PAPER_PRUNE_RATIOS};
use moe_model::registry::{olmoe_1b_7b, qwen15_moe_a27b};
use moe_model::ModelConfig;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::common::place_with_plan;
use crate::report::{tput_cell, ExperimentReport, Table};

pub const BATCH: usize = 16;
pub const IN_LEN: usize = 1024;
pub const OUT_LEN: usize = 1024;

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneResult {
    pub model: String,
    /// `None` = unpruned baseline.
    pub spec: Option<PruneSpec>,
    pub top_k: usize,
    pub throughput: Option<f64>,
}

fn label(spec: &Option<PruneSpec>) -> String {
    match spec {
        None => "baseline".to_string(),
        Some(s) => format!("{} {}%", s.kind.label(), (s.ratio * 100.0).round() as usize),
    }
}

/// All pruning configurations of the figure: baseline plus
/// {inter, intra} x {12.5, 25, 50}%.
fn prune_specs(fast: bool) -> Vec<Option<PruneSpec>> {
    let ratios: &[f64] = if fast {
        &[0.125, 0.50]
    } else {
        &PAPER_PRUNE_RATIOS
    };
    let mut v = vec![None];
    for &kind in &[PruneKind::InterExpert, PruneKind::IntraExpert] {
        for &r in ratios {
            v.push(Some(PruneSpec::new(kind, r)));
        }
    }
    v
}

/// Sweep one base model.
pub fn sweep(base: &ModelConfig, fast: bool) -> Vec<PruneResult> {
    let baseline_k = base.moe.as_ref().expect("MoE model").top_k;
    let topks: Vec<usize> = if fast {
        vec![1, baseline_k]
    } else {
        // The paper evaluates TopK from 1 up to the pretrained value.
        let mut v: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&k| k <= baseline_k)
            .collect();
        if !v.contains(&baseline_k) {
            v.push(baseline_k);
        }
        v
    };
    let mut out = Vec::new();
    for spec in prune_specs(fast) {
        let cfg = match &spec {
            None => base.clone(),
            Some(s) => s.apply(base),
        };
        for &k in &topks {
            let cfg_k = cfg.with_top_k(k);
            let model = place_with_plan(&cfg_k, Precision::F16, ParallelPlan::tensor(4), true)
                .expect("valid plan");
            out.push(PruneResult {
                model: base.name.clone(),
                spec,
                top_k: k.min(cfg.moe.as_ref().expect("MoE").num_experts),
                throughput: model
                    .run(
                        BATCH,
                        IN_LEN,
                        OUT_LEN,
                        &mut moe_trace::Tracer::disabled(),
                        0,
                    )
                    .ok()
                    .map(|r| r.throughput_tok_s),
            });
        }
    }
    out
}

/// Lookup helper.
pub fn at(results: &[PruneResult], spec: &Option<PruneSpec>, k: usize) -> Option<f64> {
    results
        .iter()
        .find(|r| r.spec == *spec && r.top_k == k)
        .and_then(|r| r.throughput)
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    for base in [olmoe_1b_7b(), qwen15_moe_a27b()] {
        let results = sweep(&base, fast);
        let mut topks: Vec<usize> = results.iter().map(|r| r.top_k).collect();
        topks.sort_unstable();
        topks.dedup();
        let mut cols = vec!["Pruning".to_string()];
        cols.extend(topks.iter().map(|k| format!("TopK={k}")));
        let mut t = Table::new(
            format!("{} — throughput (tok/s)", base.name),
            &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for spec in prune_specs(fast) {
            let mut row = vec![label(&spec)];
            for &k in &topks {
                row.push(tput_cell(at(&results, &spec, k)));
            }
            t.row(row);
        }
        report.table(t);
    }
    report.note(
        "Throughput falls as TopK grows in every configuration; 50% pruning gives clear \
         speedups, while 12.5%/25% intra-expert pruning can *reduce* throughput when the \
         pruned FFN dimension falls off the kernel tile quantum — the paper's inverse \
         effect.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_percent_pruning_speeds_up() {
        for base in [olmoe_1b_7b(), qwen15_moe_a27b()] {
            let rs = sweep(&base, true);
            let k = base.moe.as_ref().unwrap().top_k;
            let baseline = at(&rs, &None, k).unwrap();
            for kind in [PruneKind::InterExpert, PruneKind::IntraExpert] {
                let pruned = at(&rs, &Some(PruneSpec::new(kind, 0.50)), k).unwrap();
                assert!(
                    pruned > baseline,
                    "{} {kind:?}: {baseline} vs {pruned}",
                    base.name
                );
            }
        }
    }

    #[test]
    fn mild_intra_pruning_can_hurt_olmoe() {
        // The paper's inverse effect: 12.5% intra-expert pruning on OLMoE
        // (1024 -> 896, off the 256 tile quantum) reduces throughput.
        let rs = sweep(&olmoe_1b_7b(), true);
        let k = 8;
        let baseline = at(&rs, &None, k).unwrap();
        let mild = at(&rs, &Some(PruneSpec::new(PruneKind::IntraExpert, 0.125)), k).unwrap();
        assert!(mild < baseline, "baseline {baseline} vs mild-pruned {mild}");
    }

    #[test]
    fn throughput_decreases_with_topk_in_all_configs() {
        let rs = sweep(&olmoe_1b_7b(), true);
        for spec in prune_specs(true) {
            let k1 = at(&rs, &spec, 1);
            let k8 = at(&rs, &spec, 8);
            if let (Some(a), Some(b)) = (k1, k8) {
                assert!(a > b, "{spec:?}");
            }
        }
    }

    #[test]
    fn inter_prune_reduces_expert_count_in_results() {
        let rs = sweep(&olmoe_1b_7b(), true);
        // All rows exist (7 specs x 2 topks in fast mode... baseline + 4).
        assert_eq!(rs.len(), prune_specs(true).len() * 2);
        assert!(rs.iter().all(|r| r.throughput.is_some()));
    }
}
