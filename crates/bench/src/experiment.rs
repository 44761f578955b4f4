//! The experiment registry driving the CLI.
//!
//! [`REGISTRY`] is a table of [`Experiment`] rows, one per paper
//! table/figure or extension study, in paper order. It is the only place
//! ids, titles and order are written: each experiment module exposes a
//! `build` function that fills a report [`run_one`] created from its row.
//! [`run_one`] also wraps the run in a root span on
//! [`moe_trace::BENCH_TRACK`]; [`run_all`] executes the whole registry
//! concurrently on the `moe-par` work-stealing pool while keeping
//! reports *and* the composed trace byte-identical for any worker count
//! (each experiment records into a private child tracer, absorbed into
//! the caller's tracer in registry order).

use moe_trace::{Category, MemorySink, Tracer, BENCH_TRACK};

use crate::experiments::{
    ablations, cap, cluster, ctrl, extensions, fig01, fig03, fig04, fig05, fig06, fig07, fig08,
    fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, mem, plan, scale, table1,
};
use crate::report::ExperimentReport;

/// One registered experiment (a paper table/figure or extension study).
pub struct Experiment {
    /// Stable CLI id (`fig5`, `ext-plan`, ...).
    pub id: &'static str,
    /// Human-readable report title.
    pub title: &'static str,
    /// Fill the report with tables and notes. `fast` shrinks grids for
    /// tests and smoke runs without changing the mechanisms exercised;
    /// simulated work is recorded into the tracer (often disabled).
    pub build: fn(&mut ExperimentReport, bool, &mut Tracer),
}

/// Every experiment, in paper order (the `moe-bench list`/`all` order).
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: Comparison of MoE Model Architectures",
        build: table1::build,
    },
    Experiment {
        id: "fig1",
        title: "Figure 1: Layer-wise Total and Active Parameter Breakdown",
        build: fig01::build,
    },
    Experiment {
        id: "fig3",
        title: "Figure 3: TTFT, ITL and E2E Latency of LLMs (batch 64, in/out 2048)",
        build: fig03::build,
    },
    Experiment {
        id: "fig4",
        title: "Figure 4: TTFT, ITL and E2E Latency of VLMs",
        build: fig04::build,
    },
    Experiment {
        id: "fig5",
        title: "Figure 5: Batch Size vs Active Experts (TopK), context 2048",
        build: fig05::build,
    },
    Experiment {
        id: "fig6",
        title: "Figure 6: Batch Size vs Input & Output Length",
        build: fig06::build,
    },
    Experiment {
        id: "fig7",
        title: "Figure 7: Throughput vs FFN Dimension (batch 16, in/out 2048, 4xH100)",
        build: fig07::build,
    },
    Experiment {
        id: "fig8",
        title: "Figure 8: Throughput vs #Experts (batch 16, in/out 2048, 4xH100)",
        build: fig08::build,
    },
    Experiment {
        id: "fig9",
        title: "Figure 9: Throughput vs #Active Experts (batch 16, in/out 2048, 4xH100)",
        build: fig09::build,
    },
    Experiment {
        id: "fig10",
        title: "Figure 10: Mixtral-8x7B FP16 vs FP8 on H100 (TP2)",
        build: fig10::build,
    },
    Experiment {
        id: "fig11",
        title: "Figure 11: Intra vs Inter Expert Pruning (batch 16, in/out 2048, 4xH100)",
        build: fig11::build,
    },
    Experiment {
        id: "fig12",
        title: "Figure 12: Speculative Decoding on Qwen3-30B-A3B with Qwen3 Drafts",
        build: fig12::build,
    },
    Experiment {
        id: "fig13",
        title: "Figure 13: TP / PP / EP Scaling on 1-4 H100s (batch 16, in/out 2048)",
        build: fig13::build,
    },
    Experiment {
        id: "fig14",
        title: "Figure 14: Fused vs Non-Fused MoE, Mixtral-8x7B on 4 H100s",
        build: fig14::build,
    },
    Experiment {
        id: "fig15",
        title: "Figure 15: Expert Activation Frequency on MME (DeepSeek-VL2 family vs MolmoE-1B)",
        build: fig15::build,
    },
    Experiment {
        id: "fig16",
        title: "Figure 16: H100 vs CS-3 — Llama-4-Scout-17B-16E Latency and Throughput",
        build: fig16::build,
    },
    Experiment {
        id: "fig17",
        title: "Figure 17: Throughput / Latency vs Accuracy for LLMs",
        build: fig17::build,
    },
    Experiment {
        id: "fig18",
        title: "Figure 18: Throughput / Latency vs Accuracy for VLMs",
        build: fig18::build,
    },
    Experiment {
        id: "ablations",
        title:
            "Ablations: host overhead, MLA KV, KV precision, speculation surface, prefix caching",
        build: ablations::build,
    },
    Experiment {
        id: "ext-placement",
        title: "Extension: Load-Aware Expert Placement for EP (4 devices, Fig.15 loads)",
        build: extensions::build_placement,
    },
    Experiment {
        id: "ext-multinode",
        title: "Extension: the OOM-Wall Variant (FFN 14336, 64 experts) on Multi-Node H100s",
        build: extensions::build_multinode,
    },
    Experiment {
        id: "ext-qps",
        title: "Extension: Serving Capacity under Poisson Load (OLMoE-1B-7B, 1xH100)",
        build: extensions::build_qps,
    },
    Experiment {
        id: "ext-cluster",
        title: "Extension: Multi-Replica Serving (4x OLMoE-1B-7B/H100, prefix-heavy mix)",
        build: cluster::build,
    },
    Experiment {
        id: "ext-plan",
        title:
            "Extension: Deployment Planning (Mixtral-8x7B / OLMoE-1B-7B on simulated H100 fleets)",
        build: plan::build,
    },
    Experiment {
        id: "ext-scale",
        title: "Extension: Planet-Scale Sharded Serving (diurnal users, OLMoE-1B-7B/H100)",
        build: scale::build,
    },
    Experiment {
        id: "ext-ctrl",
        title: "Extension: Online Control Plane (diurnal + flash-crowd day, OLMoE-1B-7B/H100)",
        build: ctrl::build,
    },
    Experiment {
        id: "ext-mem",
        title:
            "Extension: Expert Residency & Offload (HBM budget x predictor quality x replication)",
        build: mem::build,
    },
    Experiment {
        id: "ext-cap",
        title:
            "Extension: Device Zoo & CAP (sparsity-aware cost, mixed fleets, the bandwidth knee)",
        build: cap::build,
    },
];

/// Look up a registered experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Run one experiment, wrapping everything it recorded in a root span on
/// [`BENCH_TRACK`] so a multi-experiment trace reads as a tiled timeline
/// of experiment blocks. Experiments that record nothing (untraced
/// tables) add no span. With a disabled tracer this is a plain
/// [`Experiment::build`] call.
pub fn run_one(exp: &Experiment, fast: bool, tracer: &mut Tracer) -> ExperimentReport {
    let start_global_s = tracer.base_s();
    let mut report = ExperimentReport::new(exp.id, exp.title);
    (exp.build)(&mut report, fast, tracer);
    if tracer.is_enabled() {
        let dur_s = tracer.base_s() - start_global_s;
        if dur_s > 0.0 {
            tracer.name_track(BENCH_TRACK, "bench");
            // Emit in local time relative to the *current* base: the root
            // span reaches back over everything the experiment recorded.
            tracer.span_with(
                BENCH_TRACK,
                Category::Bench,
                exp.id,
                start_global_s - tracer.base_s(),
                dur_s,
                vec![("fast", i64::from(fast).into())],
            );
        }
    }
    report
}

/// Run every registered experiment concurrently on the work-stealing
/// pool. Each experiment records into its own child tracer; children are
/// absorbed into `tracer` in registry order, so reports, stdout and the
/// composed trace are byte-identical for any `MOE_THREADS` value.
pub fn run_all(fast: bool, tracer: &mut Tracer) -> Vec<ExperimentReport> {
    let enabled = tracer.is_enabled();
    let results = moe_par::map_collect(REGISTRY.len(), |i| {
        let mut child = if enabled {
            Tracer::new(Box::new(MemorySink::new()))
        } else {
            Tracer::disabled()
        };
        let report = run_one(&REGISTRY[i], fast, &mut child);
        (report, child)
    });
    let mut reports = Vec::with_capacity(results.len());
    for (report, child) in results {
        tracer.absorb(child);
        reports.push(report);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_match_titles() {
        let mut seen = std::collections::BTreeSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
            assert!(!e.title.is_empty(), "{} lacks a title", e.id);
        }
        assert_eq!(REGISTRY.len(), 28);
    }

    #[test]
    fn find_resolves_every_registered_id() {
        for e in REGISTRY {
            let found = find(e.id).expect("registered");
            assert_eq!(found.id, e.id);
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn report_id_matches_registry_id() {
        // The first two rows (Table 1, Fig. 1) are cheap structural
        // experiments: they prove the wiring without the heavy sweeps.
        for exp in &REGISTRY[..2] {
            let report = run_one(exp, true, &mut Tracer::disabled());
            assert_eq!(report.id, exp.id);
            assert_eq!(report.title, exp.title);
        }
    }
}
