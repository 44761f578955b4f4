//! Single-engine serving: the one-replica, round-robin cluster behind
//! every simulated single-engine run (the paper's Figs. 3–4 served tails,
//! the offered-load study, the serving examples).
//!
//! One replica with round-robin routing is exactly one engine serving its
//! arrivals in order: nothing is routed, retried or timed out, and the
//! replica's [`moe_runtime::step::StepCore`] plans and commits each step
//! at the cluster's event boundaries. `tests/step_core.rs` pins that
//! against a bare step-core clock loop bit for bit.

use moe_gpusim::perfmodel::PerfModel;
use moe_runtime::scheduler::SchedulerConfig;
use moe_trace::Tracer;

use crate::fault::FaultPlan;
use crate::router::RoutePolicy;
use crate::sim::{ClusterConfig, ClusterReport, ClusterSim};
use crate::workload::{ClusterRequest, RequestTrace};

/// Serve `(arrival_s, prompt_len, max_new_tokens)` rows on one replica
/// of `model` under `sched` (size it from device memory with
/// `moe_runtime::simserver::scheduler_config_for`), recording into
/// `tracer` (pass [`Tracer::disabled`] for none; the report is identical
/// either way).
///
/// Rows are stable-sorted by arrival and given dense ids in that order,
/// so simultaneous arrivals are admitted in row order. The report keeps
/// one [`crate::ClusterOutput`] row per completion.
pub fn serve_one_replica(
    model: &PerfModel,
    sched: SchedulerConfig,
    rows: &[(f64, usize, usize)],
    tracer: &mut Tracer,
) -> ClusterReport {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let requests = rows
        .into_iter()
        .zip(0u64..)
        .map(
            |((arrival_s, prompt_len, max_new_tokens), id)| ClusterRequest {
                id,
                arrival_s,
                prompt_len,
                max_new_tokens,
                tenant: 0,
                prefix_group: 0,
                prefix_len: 0,
            },
        )
        .collect();
    let cfg = ClusterConfig {
        replicas: 1,
        policy: RoutePolicy::RoundRobin,
        retain_outputs: true,
        ..ClusterConfig::default()
    };
    ClusterSim::new(
        model,
        sched,
        cfg,
        FaultPlan::none(),
        RequestTrace { requests },
    )
    .run(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::assert_accounted;
    use crate::REPLICA_TRACK_BASE;
    use moe_gpusim::device::Cluster;
    use moe_gpusim::parallel::ParallelPlan;
    use moe_gpusim::perfmodel::EngineOptions;
    use moe_model::registry::olmoe_1b_7b;
    use moe_runtime::simserver::scheduler_config_for;
    use moe_trace::{timeline_coverage, MemorySink, TraceEvent};

    fn olmoe() -> PerfModel {
        PerfModel::h100(olmoe_1b_7b())
    }

    /// `batch` identical requests arriving together on a memory-sized pool.
    fn static_batch(
        model: &PerfModel,
        batch: usize,
        input: usize,
        output: usize,
        tracer: &mut Tracer,
    ) -> ClusterReport {
        let sched = scheduler_config_for(model, input + output);
        let report = serve_one_replica(model, sched, &vec![(0.0, input, output); batch], tracer);
        assert_accounted(&report);
        report
    }

    #[test]
    fn static_batch_completes_everything() {
        let report = static_batch(&olmoe(), 8, 128, 64, &mut Tracer::disabled());
        assert_eq!(report.completed, 8);
        assert_eq!(report.outputs.len(), 8);
        for o in &report.outputs {
            assert_eq!(o.generated, 64);
            assert!(o.ttft_s() > 0.0);
            assert!(o.e2e_s() >= o.ttft_s());
        }
        let worst = report.outputs.iter().map(|o| o.e2e_s()).fold(0.0, f64::max);
        assert!((report.e2e.max_s - worst).abs() < 1e-12);
        assert!(report.ttft.mean_s <= report.e2e.mean_s);
        assert!(report.throughput_tok_s > 0.0);
    }

    #[test]
    fn rows_are_served_in_arrival_order_with_dense_ids() {
        let sched = scheduler_config_for(&olmoe(), 512);
        let rows = [(2.0, 64, 4), (0.0, 128, 4), (2.0, 32, 4)];
        let report = serve_one_replica(&olmoe(), sched, &rows, &mut Tracer::disabled());
        assert_accounted(&report);
        let got: Vec<(u64, f64, usize)> = report
            .outputs
            .iter()
            .map(|o| (o.id, o.arrival_s, o.prompt_len))
            .collect();
        // Stable on ties: the two t = 2 rows keep their row order.
        assert_eq!(got, vec![(0, 0.0, 128), (1, 2.0, 64), (2, 2.0, 32)]);
    }

    #[test]
    fn larger_batch_raises_throughput() {
        let small = static_batch(&olmoe(), 1, 256, 128, &mut Tracer::disabled());
        let large = static_batch(&olmoe(), 32, 256, 128, &mut Tracer::disabled());
        assert!(large.throughput_tok_s > 2.0 * small.throughput_tok_s);
    }

    #[test]
    fn staggered_arrivals_respected() {
        let sched = scheduler_config_for(&olmoe(), 512);
        // The second request arrives long after the first finishes.
        let rows = [(0.0, 128, 32), (100.0, 128, 32)];
        let report = serve_one_replica(&olmoe(), sched, &rows, &mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.outputs.len(), 2);
        let late = &report.outputs[1];
        assert!(late.first_token_s >= 100.0, "must not start before arrival");
        // TTFT measured from arrival stays small.
        assert!(late.ttft_s() < 10.0);
        assert!(report.makespan_s >= 100.0);
    }

    #[test]
    fn continuous_batching_beats_sequential() {
        // 16 requests served together finish far sooner than the sum of
        // 16 solo runs.
        let batch = static_batch(&olmoe(), 16, 256, 128, &mut Tracer::disabled());
        let solo = static_batch(&olmoe(), 1, 256, 128, &mut Tracer::disabled());
        assert!(batch.makespan_s < 16.0 * solo.makespan_s * 0.5);
    }

    #[test]
    fn sharded_model_serves() {
        let model = PerfModel::new(
            moe_model::registry::mixtral_8x7b(),
            Cluster::h100_node(4),
            EngineOptions::default().with_plan(ParallelPlan::tensor(4)),
        )
        .unwrap();
        let report = static_batch(&model, 4, 128, 32, &mut Tracer::disabled());
        assert_eq!(report.completed, 4);
        assert_eq!(report.devices, 4);
    }

    #[test]
    fn a_request_that_never_fits_the_pool_is_dropped() {
        // 4 blocks of 16 tokens: the 200-token prompt can never be
        // admitted, and must still reach a terminal state.
        let sched = SchedulerConfig {
            total_blocks: 4,
            block_tokens: 16,
            ..SchedulerConfig::default()
        };
        let rows = [(0.0, 16, 4), (0.0, 200, 4)];
        let report = serve_one_replica(&olmoe(), sched, &rows, &mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!((report.completed, report.dropped), (1, 1));
    }

    #[test]
    fn tracing_does_not_perturb_the_report_and_records_every_step() {
        let plain = static_batch(&olmoe(), 4, 128, 32, &mut Tracer::disabled());
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let traced = static_batch(&olmoe(), 4, 128, 32, &mut tracer);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let evs = tracer.snapshot();
        // Back-to-back steps cover the whole makespan on the replica.
        let cov = timeline_coverage(&evs, REPLICA_TRACK_BASE);
        assert!(cov > 0.999, "replica coverage {cov}");
        // Each step carries its cost-model children.
        let span_names: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for name in ["prefill", "decode", "attn", "moe-ffn"] {
            assert!(span_names.contains(&name), "no {name} span");
        }
        // Scheduler decisions landed on the replica track.
        let decisions: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Instant { name, track, .. } if *track == REPLICA_TRACK_BASE => {
                    Some(name.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(decisions.iter().filter(|n| **n == "admit").count(), 4);
        assert_eq!(decisions.iter().filter(|n| **n == "finish").count(), 4);
        assert!(tracer.tracks().iter().any(|(_, n)| n == "replica 0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut off = Tracer::disabled();
        static_batch(&olmoe(), 2, 64, 16, &mut off);
        assert!(off.snapshot().is_empty());
        assert!(off.tracks().is_empty());
    }
}
