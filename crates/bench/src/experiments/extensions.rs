//! Extension experiments beyond the paper's figures, following its stated
//! future directions:
//!
//! * `ext-placement` — load-aware expert placement for EP (the paper's
//!   Fig. 11/13 insight that EP suffers from load imbalance): contiguous
//!   vs LPT placement under the *measured* activation loads of Fig. 15.
//! * `ext-multinode` — the Section-5 conclusion that extreme MoE
//!   configurations "require distributed placement across multi-node
//!   architectures": the (FFN 14336, 64-expert) variant that OOMs on
//!   4 H100s, placed on 16 GPUs across 2-4 nodes.
//! * `ext-qps` — a serving-capacity curve: latency vs offered load under
//!   Poisson arrivals through the continuous-batching scheduler.

use moe_cluster::serve_one_replica;
use moe_gpusim::device::Cluster;
use moe_gpusim::parallel::ParallelPlan;
use moe_gpusim::perfmodel::{EngineOptions, PerfModel};
use moe_gpusim::placement::{compare_placements, PlacementComparison};
use moe_model::registry::olmoe_1b_7b;
use moe_model::variants::mixtral_variant;
use moe_runtime::simserver::scheduler_config_for;
use moe_tensor::rng::rng_from_seed;
use moe_trace::{Category, Tracer, BENCH_TRACK};

use crate::report::{num, secs, tput_cell, ExperimentReport, Table};

/// Placement study: per-layer contiguous-vs-LPT comparison using the real
/// routed loads from the Fig. 15 activation study. Returns
/// `(model, layer, comparison)` rows.
fn placement_rows(fast: bool) -> Vec<(String, usize, PlacementComparison)> {
    let reports = super::fig15::measure(fast);
    let mut rows = Vec::new();
    for rep in &reports {
        // MolmoE (skewed) and one balanced model for contrast.
        if rep.model != "MolmoE-1B" && rep.model != "DeepSeek-VL2-Tiny" {
            continue;
        }
        for layer in 0..rep.num_layers {
            // Reconstruct integer loads from the normalized heat map.
            let loads: Vec<u64> = rep.heatmap[layer]
                .iter()
                .map(|f| (f * 1e6) as u64)
                .collect();
            rows.push((rep.model.clone(), layer, compare_placements(&loads, 4)));
        }
    }
    rows
}

/// Build the placement report.
pub(crate) fn build_placement(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let rows = placement_rows(fast);
    let mut t = Table::new(
        "contiguous vs LPT placement (per-model means over layers)",
        &[
            "Model",
            "Contiguous max/mean",
            "LPT max/mean",
            "EP-layer speedup",
        ],
    );
    for model in ["DeepSeek-VL2-Tiny", "MolmoE-1B"] {
        let per_model: Vec<&PlacementComparison> =
            rows.iter().filter(|r| r.0 == model).map(|r| &r.2).collect();
        let n = per_model.len().max(1) as f64;
        let mean =
            |f: fn(&PlacementComparison) -> f64| per_model.iter().map(|c| f(c)).sum::<f64>() / n;
        t.row(vec![
            model.to_string(),
            num(mean(|c| c.contiguous_imbalance)),
            num(mean(|c| c.lpt_imbalance)),
            num(mean(|c| c.speedup)),
        ]);
    }
    report.table(t);
    report.note(
        "Skewed routers (MolmoE) leave naive contiguous EP placement gated by a hot \
         device; LPT re-placement recovers most of the imbalance. Balanced models gain \
         little — placement optimization matters exactly when Fig. 15 shows skew.",
    );
}

/// Multi-node study rows: `(placement label, devices, Option<tok/s>)` for
/// the extreme Section-5 variant.
fn multinode_rows() -> Vec<(String, usize, Option<f64>)> {
    let cfg = mixtral_variant(14_336, 64, 2);
    let mut rows = Vec::new();
    let mut add = |label: String, cluster: Cluster, plan: ParallelPlan| {
        let devices = cluster.num_devices;
        let result = PerfModel::new(
            cfg.clone(),
            cluster,
            EngineOptions::default().with_plan(plan),
        )
        .ok()
        .and_then(|m| {
            m.run(16, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
                .ok()
        })
        .map(|r| r.throughput_tok_s);
        rows.push((label, devices, result));
    };

    add(
        "TP4, 1 node (paper's setup)".into(),
        Cluster::h100_node(4),
        ParallelPlan::tensor(4),
    );
    add(
        "TP8, 1 node".into(),
        Cluster::h100_node(8),
        ParallelPlan::tensor(8),
    );
    add(
        "TP16, 2 nodes (NVLink+IB)".into(),
        Cluster::h100_multinode(2, 8),
        ParallelPlan::tensor(16),
    );
    add(
        "TP16, hypothetical single fabric".into(),
        Cluster::h100_node(16),
        ParallelPlan::tensor(16),
    );
    rows
}

/// Build the multi-node report.
pub(crate) fn build_multinode(report: &mut ExperimentReport, _fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "throughput of Mixtral-skel-ffn14336-e64-k2 (batch 16, in/out 2048)",
        &["Placement", "GPUs", "tok/s"],
    );
    for (label, devices, tput) in multinode_rows() {
        t.row(vec![label, devices.to_string(), tput_cell(tput)]);
    }
    report.table(t);
    report.note(
        "The variant that OOMs on the paper's 4 (and even 8) H100s serves once placed \
         across two nodes, but the InfiniBand hop taxes every all-reduce — quantifying \
         the paper's closing remark that extreme configurations need distributed \
         placement, and what fabric quality is worth there.",
    );
}

/// QPS study: Poisson arrivals at several offered loads; returns
/// `(qps, mean_ttft_s, p95_ttft_s, mean_itl_s, makespan_s)`. Each
/// offered-load point is served by a one-replica cluster (replica step
/// spans with their kernel children, scheduler decisions, router
/// instants) and, when `tracer` is enabled, gets a grouping span on
/// [`BENCH_TRACK`] and advances the tracer base by the point's makespan
/// so points tile one monotone timeline.
fn qps_rows(fast: bool, tracer: &mut Tracer) -> Vec<(f64, f64, f64, f64, f64)> {
    let rates: &[f64] = if fast {
        &[1.0, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    let requests: usize = if fast { 40 } else { 120 };
    let mut rows = Vec::new();
    for &qps in rates {
        let model = PerfModel::h100(olmoe_1b_7b());
        let mut rng = rng_from_seed(4242);
        let mut t = 0.0f64;
        let arrivals: Vec<(f64, usize, usize)> = (0..requests)
            .map(|_| {
                // Exponential inter-arrivals at rate `qps`.
                let u: f64 = rng.next_f64().max(1e-12);
                t += -u.ln() / qps;
                (t, 512, 128)
            })
            .collect();
        let report = serve_one_replica(
            &model,
            scheduler_config_for(&model, 2048),
            &arrivals,
            tracer,
        );
        if tracer.is_enabled() {
            tracer.span_with(
                BENCH_TRACK,
                Category::Bench,
                &format!("qps {qps}"),
                0.0,
                report.makespan_s,
                vec![("qps", qps.into()), ("requests", requests.into())],
            );
            tracer.advance(report.makespan_s);
        }
        rows.push((
            qps,
            report.ttft.mean_s,
            report.ttft.p95_s,
            report.itl.mean_s,
            report.makespan_s,
        ));
    }
    rows
}

/// Build the QPS report while recording every offered-load point into
/// `tracer` (see [`qps_rows`]).
pub(crate) fn build_qps(report: &mut ExperimentReport, fast: bool, tracer: &mut Tracer) {
    let mut t = Table::new(
        "latency vs offered load (512 in / 128 out per request)",
        &[
            "Offered QPS",
            "Mean TTFT",
            "p95 TTFT",
            "Mean ITL",
            "Makespan",
        ],
    );
    for (qps, ttft, p95, itl, makespan) in qps_rows(fast, tracer) {
        t.row(vec![
            num(qps),
            secs(ttft),
            secs(p95),
            secs(itl),
            secs(makespan),
        ]);
    }
    report.table(t);
    report.note(
        "Prefill-priority admission keeps TTFT nearly flat across offered loads; \
         saturation shows up as inter-token latency growth (deeper decode batches) and \
         as the makespan exceeding the arrival span once offered load passes capacity.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_gain_tracks_router_skew() {
        let rows = placement_rows(true);
        let mean_speedup = |model: &str| {
            let per: Vec<f64> = rows
                .iter()
                .filter(|r| r.0 == model)
                .map(|r| r.2.speedup)
                .collect();
            per.iter().sum::<f64>() / per.len() as f64
        };
        let molmoe = mean_speedup("MolmoE-1B");
        let balanced = mean_speedup("DeepSeek-VL2-Tiny");
        assert!(molmoe > balanced, "molmoe {molmoe} vs balanced {balanced}");
        assert!(
            molmoe > 1.2,
            "skewed loads should reward re-placement: {molmoe}"
        );
    }

    #[test]
    fn extreme_variant_needs_multi_node() {
        let rows = multinode_rows();
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.0.starts_with(label))
                .expect("row present")
                .2
        };
        assert!(get("TP4").is_none(), "must OOM on 4 GPUs (the Fig.7 gap)");
        assert!(get("TP8").is_none(), "90 GB/device still exceeds 80 GB");
        assert!(get("TP16, 2 nodes").is_some(), "fits across two nodes");
        // The IB hop costs real throughput vs a hypothetical flat fabric.
        let ib = get("TP16, 2 nodes").expect("fits");
        let flat = get("TP16, hypothetical").expect("fits");
        assert!(flat > ib * 1.05, "flat {flat} vs IB {ib}");
    }

    #[test]
    fn qps_latency_grows_with_load() {
        let rows = qps_rows(true, &mut Tracer::disabled());
        let low = rows.first().expect("rows");
        let high = rows.last().expect("rows");
        assert!(high.1 > low.1, "mean TTFT must grow with load");
        assert!(high.2 >= high.1, "p95 >= mean");
    }
}
