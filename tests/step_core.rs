//! Differential test of the single serving driver: the one-replica
//! cluster (`moe_cluster::serve_one_replica`) against a minimal
//! `StepCore` clock loop written here as the reference — deliver the
//! arrivals that are due, then plan and commit one step. Over the same
//! Poisson trace every request must see bit-identical first-token and
//! finish times and the same generated count, and the runs the same
//! makespan — with a roomy KV pool and with a tight pool that forces
//! preemption.

use moe_cluster::{generate, serve_one_replica, TenantSpec, WorkloadSpec};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::step::{Finished, PriceCache, StepCore};
use moe_runtime::{Request, SchedulerConfig};
use moe_trace::Tracer;

const REQUESTS: usize = 300;

/// Arrivals closer than this to the clock are due (the cluster's round
/// coalescing window).
const EPS: f64 = 1e-9;

/// The reference driver: one clock, arrivals delivered before each plan,
/// an idle core jumping to the next arrival. Returns the finished
/// requests in id order and the makespan.
fn reference(
    model: &PerfModel,
    sched: SchedulerConfig,
    rows: &[(f64, usize, usize)],
) -> (Vec<Finished>, f64) {
    let mut core = StepCore::new(model.clone(), sched);
    let mut prices = PriceCache::new();
    let (mut now, mut next, mut done) = (0.0f64, 0, Vec::new());
    loop {
        while let Some(&(arrival_s, prompt, new)) = rows.get(next) {
            if arrival_s > now + EPS {
                break;
            }
            core.submit(Request::new(prompt, new));
            next += 1;
        }
        match core.plan(&mut prices) {
            Some(step) => {
                now += step.dt_s;
                core.commit(step, now, &mut done);
            }
            None => match rows.get(next) {
                Some(&(arrival_s, ..)) => now = now.max(arrival_s),
                None => break,
            },
        }
    }
    done.sort_by_key(|f| f.id);
    (done, now)
}

/// Check one seed and pool; returns the reference's total preemptions.
fn check(seed: u64, total_blocks: usize, qps: f64) -> usize {
    let model = PerfModel::h100(olmoe_1b_7b());
    let sched = SchedulerConfig {
        total_blocks,
        ..scheduler_config_for(&model, 4096)
    };
    let spec = WorkloadSpec::poisson(
        qps,
        REQUESTS,
        TenantSpec::uniform("t", 1.0, (32, 2048), (1, 256)),
    );
    let rows: Vec<(f64, usize, usize)> = generate(&spec, seed)
        .requests
        .iter()
        .map(|r| (r.arrival_s, r.prompt_len, r.max_new_tokens))
        .collect();

    let (want, makespan_s) = reference(&model, sched, &rows);
    let got = serve_one_replica(&model, sched, &rows, &mut Tracer::disabled());

    let what = format!("seed {seed}, {total_blocks} blocks");
    assert_eq!(want.len(), REQUESTS, "{what}");
    assert_eq!(got.completed, REQUESTS, "{what}");
    assert_eq!(got.outputs.len(), REQUESTS, "{what}");
    assert_eq!(
        got.makespan_s.to_bits(),
        makespan_s.to_bits(),
        "{what}: makespan"
    );
    for (w, g) in want.iter().zip(&got.outputs) {
        assert_eq!(w.id, g.id, "{what}: request order");
        assert_eq!(
            w.generated, g.generated,
            "{what}: request {} generated",
            w.id
        );
        assert_eq!(
            w.first_token_s.to_bits(),
            g.first_token_s.to_bits(),
            "{what}: request {} first token",
            w.id
        );
        assert_eq!(
            w.finish_s.to_bits(),
            g.finish_s.to_bits(),
            "{what}: request {} finish",
            w.id
        );
    }
    want.iter().map(|f| f.preemptions).sum()
}

#[test]
fn one_replica_cluster_matches_a_step_core_loop_with_a_roomy_pool() {
    for seed in 0..4 {
        check(seed, 100_000, 20.0);
    }
}

#[test]
fn one_replica_cluster_matches_a_step_core_loop_under_preemption() {
    for seed in 0..4 {
        let preemptions = check(seed, 400, 200.0);
        assert!(preemptions > 0, "seed {seed}: the tight pool must preempt");
    }
}
