//! Differential test of the serving step core: `SimServer` and a
//! one-replica round-robin `ClusterSim` drive the same core over the same
//! Poisson trace, so every request must see bit-identical first-token
//! and finish times, the same generated count, and the same makespan —
//! with a roomy KV pool and with a tight pool that forces preemption.

use moe_cluster::{
    generate, ClusterConfig, ClusterSim, FaultPlan, RoutePolicy, TenantSpec, WorkloadSpec,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::{Request, SchedulerConfig, SimServer};
use moe_trace::Tracer;

const REQUESTS: usize = 300;

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
    let trace = generate(&spec, seed);

    let mut server = SimServer::new(model.clone(), sched);
    for r in &trace.requests {
        server.submit(Request::new(r.prompt_len, r.max_new_tokens).at(r.arrival_s));
    }
    let sim = server.run(&mut Tracer::disabled());

    let cfg = ClusterConfig {
        replicas: 1,
        policy: RoutePolicy::RoundRobin,
        retain_outputs: true,
        ..ClusterConfig::default()
    };
    let cluster = ClusterSim::new(&model, sched, cfg, FaultPlan::default(), trace.clone())
        .run(&mut Tracer::disabled());

    let what = format!("seed {seed}, {total_blocks} blocks");
    assert_eq!(sim.outputs.len(), REQUESTS, "{what}");
    assert_eq!(cluster.outputs.len(), REQUESTS, "{what}");
    assert_eq!(
        sim.makespan_s.to_bits(),
        cluster.makespan_s.to_bits(),
        "{what}: makespan"
    );
    for (s, r) in sim.outputs.iter().zip(&trace.requests) {
        let matches: Vec<_> = cluster.outputs.iter().filter(|c| c.id == r.id).collect();
        assert_eq!(
            matches.len(),
            1,
            "{what}: request {} not reported once",
            r.id
        );
        let c = matches[0];
        assert_eq!(
            s.generated, c.generated,
            "{what}: request {} generated",
            r.id
        );
        assert_eq!(
            s.first_token_s.to_bits(),
            c.first_token_s.to_bits(),
            "{what}: request {} first token",
            r.id
        );
        assert_eq!(
            s.finish_s.to_bits(),
            c.finish_s.to_bits(),
            "{what}: request {} finish",
            r.id
        );
    }
    sim.preemptions
}

#[test]
fn sim_server_matches_one_replica_cluster_with_a_roomy_pool() {
    for seed in 0..4 {
        check(seed, 100_000, 20.0);
    }
}

#[test]
fn sim_server_matches_one_replica_cluster_under_preemption() {
    for seed in 0..4 {
        let preemptions = check(seed, 400, 200.0);
        assert!(preemptions > 0, "seed {seed}: the tight pool must preempt");
    }
}
