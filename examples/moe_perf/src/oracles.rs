//! Correctness oracles, run once per invocation in an untimed phase. Each
//! recomputes a result the repository's committed reports (or benches)
//! pin at the paper's seeds, or cross-checks the body's outputs against
//! an independent path.

use moe_eval::activation::activation_study;
use moe_model::registry::molmoe_1b;
use moe_plan::{plan, SearchMode};
use moe_runtime::liveserver::LiveServer;

use crate::spans::Recorder;
use crate::workloads::{
    digest_of, plan_specs, unsettled, vlm_analogue, Cluster, Serve, Workload, GEN_TOKENS,
    PROBE_SPEC, TTFT_SLO_S,
};

/// One oracle's verdict.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The measured values, for the log.
    pub detail: String,
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// Events the `BENCH_cluster` scenario processes at 20,000 requests and
/// seed 42 (`crates/bench/benches/cluster.rs`).
const BENCH_CLUSTER_EVENTS: u64 = 820_234;
/// Seed of the committed `ext-ctrl` day.
const CTRL_SEED: u64 = 0xC791;

/// `|a - b| <= tol`.
fn near(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// The oracles of `workload`. `served_check` is the digest the body
/// reported for the outputs an oracle recomputes (engine-serve only).
pub fn run(workload: Workload, seed: u64, served_check: Option<u64>) -> Vec<Check> {
    let rec = Recorder::shared(false);
    match workload {
        Workload::EnginePrefill => {
            let molmoe = activation_study(&molmoe_1b(), 1024, 7);
            vec![check(
                "fig15 MolmoE-1B peak activation count is 1,044,560",
                molmoe.peak_count == 1_044_560,
                format!("peak_count {}", molmoe.peak_count),
            )]
        }
        Workload::EngineServe => {
            let prompts = Serve::prompts(seed);
            let mut model = vlm_analogue(seed);
            let reference: Vec<Vec<usize>> = prompts[Serve::last_turns()]
                .iter()
                .map(|p| LiveServer::reference(&mut model, p, GEN_TOKENS))
                .collect();
            let refs: Vec<&[usize]> = reference.iter().map(Vec::as_slice).collect();
            vec![check(
                "last-turn outputs equal LiveServer::reference",
                served_check == Some(digest_of(&refs[..])),
                format!("{} conversations, {GEN_TOKENS} tokens each", refs.len()),
            )]
        }
        Workload::ClusterDiurnal => {
            let run = Cluster::diurnal(20_000, 42, rec.clone()).simulate(&rec);
            vec![
                check(
                    "BENCH_cluster scenario processes 820,234 events",
                    run.report.events == BENCH_CLUSTER_EVENTS,
                    format!("events {}", run.report.events),
                ),
                check(
                    "BENCH_cluster scenario conserves requests",
                    unsettled(&run.report) == 0,
                    format!("submitted {}", run.report.submitted),
                ),
            ]
        }
        Workload::ClusterDay => {
            let run = Cluster::day(CTRL_SEED, rec.clone()).simulate(&rec);
            let r = &run.report;
            let attainment = r.slo_attainment(TTFT_SLO_S);
            let dev_s_per_mtok = r.cost_per_token_device_s * 1e6;
            vec![
                check(
                    "ext-ctrl controlled row reproduces",
                    r.submitted == 147_500
                        && r.completed == 147_500
                        && near(r.ttft.p99_s, 1.17, 0.005)
                        && near(attainment, 0.9821, 0.00005)
                        && r.reconfigs == 32
                        && r.preemptions == 7
                        && r.devices == 15
                        && near(dev_s_per_mtok, 20.87, 0.005),
                    format!(
                        "{}/{} completed, p99 TTFT {:.4} s, SLO@100ms {attainment:.5}, \
                         {} reconfigs, {} preemptions, {} peak devices, {dev_s_per_mtok:.4} dev-s/Mtok",
                        r.completed, r.submitted, r.ttft.p99_s, r.reconfigs, r.preemptions, r.devices
                    ),
                ),
                check(
                    "ext-ctrl day conserves requests",
                    unsettled(&run.report) == 0,
                    format!("submitted {}", r.submitted),
                ),
            ]
        }
        Workload::PlanSweep => {
            let exhaustive = plan_specs(seed).swap_remove(PROBE_SPEC);
            let (same, shapes) = match plan(&exhaustive) {
                Ok(a) => {
                    let mut beam = exhaustive.clone();
                    beam.mode = SearchMode::Beam {
                        width: a.counts.shapes.max(1),
                    };
                    let same = plan(&beam).is_ok_and(|b| {
                        b.counts.pruned_by_width == 0
                            && moe_json::to_string(&a.frontier) == moe_json::to_string(&b.frontier)
                    });
                    (same, a.counts.shapes)
                }
                Err(_) => (false, 0),
            };
            vec![check(
                "beam search (width = shapes) matches exhaustive frontier",
                same,
                format!(
                    "{} on {} H100, {shapes} shapes",
                    exhaustive.model.name,
                    exhaustive.fleet.count()
                ),
            )]
        }
    }
}
