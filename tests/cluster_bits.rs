//! Golden cluster bits: `ClusterSim` reports hash to fixed FNV-1a
//! digests of their `moe_json` serialization.
//!
//! The event loop may be restructured for speed only if every report
//! keeps its exact bytes. Each scenario here drives one of the loop's
//! bookkeeping paths hard: TTFT deadlines firing while a request waits
//! at the router, in a retry backoff and on a replica (with equal
//! arrival times from merged identical segments); least-outstanding
//! routing over 1000 replicas with crashed slots; power-of-two and
//! prefix-affinity routing whose candidates are down; a controlled
//! canary rollout; and small KV pools whose decode plans preempt and
//! recompute while deadlines cancel admitted requests and a crash fails
//! the resident ones. Each test also asserts that its path really ran, so
//! a digest cannot pass by exercising nothing. The first five digests
//! were recorded before the TTFT deadlines left the event heap, the
//! decode prices moved to a hashed map and the least-outstanding scan
//! became one pass; the KV-pressure digest before the decode commit
//! became one pass per step and the request tables moved to hashed maps.

mod common;

use common::{fnv1a, FNV_OFFSET};
use moe_cluster::{
    generate, ClusterConfig, ClusterReport, ClusterSim, ControlAction, ControlHook, ControlObs,
    FaultEvent, FaultPlan, ReplicaSpec, RequestTrace, RoutePolicy, TenantSpec, WorkloadSpec,
    ROUTER_TRACK,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::{ArgValue, MemorySink, TraceEvent, Tracer};

const TIMEOUT_DIGEST: u64 = 0x1dca_02c0_13a1_5080;
const THOUSAND_REPLICAS_DIGEST: u64 = 0x0749_e3db_fed3_5312;
const POWER_OF_TWO_DIGEST: u64 = 0xdb7c_f1a7_b8a0_ab07;
const PREFIX_AFFINITY_DIGEST: u64 = 0x551c_998e_b253_ec81;
const CANARY_DIGEST: u64 = 0x3a23_de74_ea0a_33b2;
const KV_PRESSURE_DIGEST: u64 = 0xdccc_b409_5f4d_08cc;

fn digest(report: &ClusterReport) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, moe_json::to_string(report).as_bytes());
    hash
}

fn assert_digest(report: &ClusterReport, golden: u64, name: &str) {
    let got = digest(report);
    assert_eq!(
        got, golden,
        "{name}: report digest {got:#018x} moved from {golden:#018x}"
    );
}

fn olmoe() -> PerfModel {
    PerfModel::h100(olmoe_1b_7b())
}

fn crash(t_s: f64, replica: usize) -> FaultEvent {
    FaultEvent::Crash { t_s, replica }
}

fn recover(t_s: f64, replica: usize) -> FaultEvent {
    FaultEvent::Recover { t_s, replica }
}

/// The integer argument `key` of a trace instant.
fn int_arg(args: &[(&'static str, ArgValue)], key: &str) -> Option<i64> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::Int(i) if *k == key => Some(*i),
        _ => None,
    })
}

/// Timed-out requests by where they sat when the deadline fired:
/// `[at router, in backoff, on a replica]`, read back from the router
/// track's dispatch / retry / timeout instants in record order.
fn timeout_states(events: &[TraceEvent]) -> [usize; 3] {
    #[derive(Clone, Copy)]
    enum Last {
        Router,
        Backoff(f64),
        Replica,
    }
    let mut last = std::collections::BTreeMap::new();
    let mut states = [0; 3];
    for ev in events {
        let TraceEvent::Instant {
            name,
            track,
            t_s,
            args,
            ..
        } = ev
        else {
            continue;
        };
        if *track != ROUTER_TRACK {
            continue;
        }
        let Some(req) = int_arg(args, "req") else {
            continue;
        };
        match name.as_str() {
            "dispatch" => {
                last.insert(req, Last::Replica);
            }
            "retry" => {
                let ready = args.iter().find_map(|(k, v)| match v {
                    ArgValue::Float(f) if *k == "ready" => Some(*f),
                    _ => None,
                });
                last.insert(req, Last::Backoff(ready.expect("retry carries ready")));
            }
            "timeout" => match last.get(&req).copied().unwrap_or(Last::Router) {
                Last::Backoff(ready) if ready > *t_s => states[1] += 1,
                Last::Backoff(_) | Last::Router => states[0] += 1,
                Last::Replica => states[2] += 1,
            },
            _ => {}
        }
    }
    states
}

/// Two replicas under more load than they can clear, both down over
/// `[0.6, 1.6)` s. Arrivals in the outage time out at the router, crash
/// losses time out in their backoff, and the overload times requests
/// out on the replicas. The trace merges two identical segments, so
/// arrivals come in pairs at equal times and their deadlines coincide.
fn timeout_heavy() -> ClusterSim {
    let segment = generate(
        &WorkloadSpec::poisson(
            60.0,
            150,
            TenantSpec::uniform("t", 1.0, (256, 1024), (16, 64)),
        ),
        5,
    );
    let trace = RequestTrace::merge(vec![segment.clone(), segment]);
    let mut cfg = ClusterConfig {
        replicas: 2,
        policy: RoutePolicy::LeastOutstanding,
        seed: 3,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 0.4;
    cfg.router.max_retries = 2;
    cfg.router.backoff_s = 0.5;
    let faults = FaultPlan {
        events: vec![
            crash(0.6, 0),
            crash(0.6, 1),
            recover(1.6, 0),
            recover(1.6, 1),
        ],
    };
    ClusterSim::sized_for(&olmoe(), 2048, cfg, faults, trace)
}

#[test]
fn timeout_heavy_cell_keeps_its_bits() {
    let report = timeout_heavy().run(&mut Tracer::disabled());
    assert!(report.timed_out > 0 && report.retries > 0 && report.crashes > 0);
    assert_digest(&report, TIMEOUT_DIGEST, "timeout-heavy");

    let mut tracer = Tracer::new(Box::new(MemorySink::new()));
    let traced = timeout_heavy().run(&mut tracer);
    assert_eq!(moe_json::to_string(&traced), moe_json::to_string(&report));
    let [at_router, backoff, on_replica] = timeout_states(&tracer.snapshot());
    assert_eq!(at_router + backoff + on_replica, report.timed_out);
    assert!(
        at_router > 0 && backoff > 0 && on_replica > 0,
        "timeouts must fire in every state: router {at_router}, backoff {backoff}, \
         replica {on_replica}"
    );
}

#[test]
fn thousand_least_outstanding_replicas_with_crashed_slots_keep_their_bits() {
    let trace = generate(&WorkloadSpec::diurnal_users(300_000, 300.0, 3000), 11);
    let mut cfg = ClusterConfig {
        replicas: 1000,
        policy: RoutePolicy::LeastOutstanding,
        seed: 42,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.0;
    let faults = FaultPlan::random_crashes(42, 1000, 3.0, 400, 1.0);
    let report =
        ClusterSim::sized_for(&olmoe(), 2048, cfg, faults, trace).run(&mut Tracer::disabled());
    assert!(report.crashes > 0 && report.retries > 0);
    assert_eq!(report.submitted, 3000);
    assert_digest(&report, THOUSAND_REPLICAS_DIGEST, "1000 replicas");
}

/// A prefix-heavy mix on eight replicas with staggered outages: replicas
/// go down one by one from 0.3 s, all are down over `[0.65, 1.0)` s, and
/// they come back one by one until 1.7 s, and replicas 2 and 5 go down
/// again over `[1.8, 3.0)` s. Affinity homes and both candidates of a
/// power-of-two pick are therefore often dead while others serve.
fn dead_candidates(policy: RoutePolicy) -> ClusterReport {
    let trace = generate(&WorkloadSpec::prefix_heavy(20.0, 120), 7);
    let mut cfg = ClusterConfig {
        replicas: 8,
        policy,
        prefix_capacity: 8,
        seed: 9,
        ..ClusterConfig::default()
    };
    cfg.router.backoff_s = 0.2;
    let mut events = Vec::new();
    for r in 0..8 {
        events.push(crash(0.3 + 0.05 * r as f64, r));
    }
    for r in 0..8 {
        events.push(recover(1.0 + 0.1 * r as f64, r));
    }
    events.extend([
        crash(1.0 + 0.1 * 8.0, 2),
        crash(1.0 + 0.1 * 8.0, 5),
        recover(3.0, 2),
        recover(3.0, 5),
    ]);
    events.sort_by(|a, b| a.t_s().total_cmp(&b.t_s()));
    let faults = FaultPlan { events };
    ClusterSim::sized_for(&olmoe(), 8192, cfg, faults, trace).run(&mut Tracer::disabled())
}

#[test]
fn power_of_two_with_dead_candidates_keeps_its_bits() {
    let report = dead_candidates(RoutePolicy::PowerOfTwo);
    assert!(report.crashes > 0 && report.retries > 0);
    assert!(report.prefix_hits > 0);
    assert_digest(&report, POWER_OF_TWO_DIGEST, "power-of-two");
}

#[test]
fn prefix_affinity_with_dead_homes_keeps_its_bits() {
    let report = dead_candidates(RoutePolicy::PrefixAffinity);
    assert!(report.crashes > 0 && report.retries > 0);
    assert!(report.prefix_hits > 0);
    assert_digest(&report, PREFIX_AFFINITY_DIGEST, "prefix-affinity");
}

/// Provisions two generation-1 replicas and canaries a quarter of the
/// traffic onto them, drains replica 0, then clears the canary.
#[derive(Debug)]
struct CanaryRollout {
    spec: ReplicaSpec,
    ticks: u32,
}

impl ControlHook for CanaryRollout {
    fn tick(&mut self, _: &ControlObs) -> Vec<ControlAction> {
        self.ticks += 1;
        match self.ticks {
            1 => vec![
                ControlAction::AddReplica(Box::new(self.spec.clone())),
                ControlAction::AddReplica(Box::new(self.spec.clone())),
                ControlAction::SetCanary {
                    generation: 1,
                    fraction: 0.25,
                },
            ],
            4 => vec![ControlAction::DrainReplica {
                replica: 0,
                migration_s: 0.2,
            }],
            8 => vec![ControlAction::ClearCanary],
            _ => Vec::new(),
        }
    }
}

#[test]
fn controlled_canary_run_keeps_its_bits() {
    let model = olmoe();
    let sched = scheduler_config_for(&model, 2048);
    let trace = generate(
        &WorkloadSpec::poisson(
            40.0,
            300,
            TenantSpec::uniform("t", 1.0, (128, 512), (16, 64)),
        ),
        13,
    );
    let mut cfg = ClusterConfig {
        replicas: 3,
        policy: RoutePolicy::LeastOutstanding,
        seed: 5,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 1.0;
    let hook = CanaryRollout {
        spec: ReplicaSpec {
            model: model.clone(),
            sched,
            generation: 1,
            spot: false,
            price_factor: 1.0,
            ready_delay_s: 0.5,
        },
        ticks: 0,
    };
    let report = ClusterSim::new(
        &model,
        sched,
        cfg,
        FaultPlan::crash_window(1, 2.0, 1.0),
        trace,
    )
    .with_controller(Box::new(hook), 0.5)
    .run(&mut Tracer::disabled());
    assert_eq!(report.reconfigs, 3, "two adds and a drain");
    assert!(report.crashes > 0);
    assert!(
        report.per_replica_completed[3..].iter().sum::<usize>() > 0,
        "the canary replicas serve"
    );
    assert_digest(&report, CANARY_DIGEST, "canary");
}

/// Three replicas with a 128-block KV pool each (2,048 tokens) under more
/// long-output traffic than they can hold, a 2.5 s TTFT timeout and one
/// crash of replica 1 over `[6.0, 6.5)` s. Decode plans preempt and
/// recompute on every replica, deadlines cancel requests that replicas
/// already admitted, and the crash fails resident requests back to the
/// router.
fn kv_pressure() -> ClusterSim {
    let model = olmoe();
    let sched = moe_runtime::SchedulerConfig {
        total_blocks: 128,
        ..scheduler_config_for(&model, 2048)
    };
    let trace = generate(
        &WorkloadSpec::poisson(
            14.0,
            240,
            TenantSpec::uniform("t", 1.0, (64, 384), (64, 320)),
        ),
        17,
    );
    let mut cfg = ClusterConfig {
        replicas: 3,
        policy: RoutePolicy::LeastOutstanding,
        seed: 21,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.5;
    cfg.router.backoff_s = 0.1;
    ClusterSim::new(
        &model,
        sched,
        cfg,
        FaultPlan::crash_window(1, 6.0, 0.5),
        trace,
    )
}

/// Scheduler preemptions per replica, read from the replica tracks'
/// `preempt` instants, and the timeouts that hit a request a replica had
/// admitted since its last dispatch (running or preempted, not waiting
/// for its first prefill).
fn kv_decisions(events: &[TraceEvent], replicas: usize) -> (Vec<usize>, usize) {
    let mut preempts = vec![0; replicas];
    let mut admitted = std::collections::BTreeSet::new();
    let mut admitted_timeouts = 0;
    for ev in events {
        let TraceEvent::Instant {
            name, track, args, ..
        } = ev
        else {
            continue;
        };
        let replica = track.wrapping_sub(moe_cluster::REPLICA_TRACK_BASE) as usize;
        match (name.as_str(), int_arg(args, "req")) {
            ("preempt", _) if replica < replicas => preempts[replica] += 1,
            ("admit", Some(req)) => {
                admitted.insert(req);
            }
            ("dispatch", Some(req)) => {
                admitted.remove(&req);
            }
            ("timeout", Some(req)) if admitted.contains(&req) => admitted_timeouts += 1,
            _ => {}
        }
    }
    (preempts, admitted_timeouts)
}

#[test]
fn kv_pressure_cell_keeps_its_bits() {
    let report = kv_pressure().run(&mut Tracer::disabled());
    assert_eq!(report.crashes, 1);
    assert!(report.completed > 0 && report.retries > 0 && report.timed_out > 0);
    assert_digest(&report, KV_PRESSURE_DIGEST, "kv-pressure");

    let mut tracer = Tracer::new(Box::new(MemorySink::new()));
    let traced = kv_pressure().run(&mut tracer);
    assert_eq!(moe_json::to_string(&traced), moe_json::to_string(&report));
    let (preempts, admitted_timeouts) = kv_decisions(&tracer.snapshot(), 3);
    assert!(
        preempts.iter().filter(|&&n| n > 0).count() >= 2,
        "decode plans must preempt on several replicas: {preempts:?}"
    );
    assert!(
        admitted_timeouts > 0,
        "deadlines must cancel requests a replica admitted"
    );
}
