//! Per-layer metrics of a traced run and the files it writes.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use moe_json::Json;
use moe_trace::{chrome_trace_json, flame_summary};

use crate::probes;
use crate::spans::{span_stats, Shared, PLAN, TRACKS};
use crate::workloads::{plan_specs, Outcome, Workload};

/// Directory, relative to the working directory, that traced runs write
/// `<workload>.trace.json` and `<workload>.layers.json` into.
const TRACE_DIR: &str = ".moe_perf";

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them on every workload; a layer the workload never
/// calls reads 0 in its span shares, calls and counts.
pub const PER_LAYER: [(&str, &str); 61] = [
    // The untraced repetitions' 90th-percentile operation time (the best
    // repetition's), too variable run to run for an end-to-end bound.
    ("op_cpu_p90_ms", "ms"),
    // From the spans of the traced body.
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.self_share", "fraction"),
    ("engine.self_share", "fraction"),
    ("runtime.self_share", "fraction"),
    ("cluster.self_share", "fraction"),
    ("arrivals.self_share", "fraction"),
    ("ctrl.self_share", "fraction"),
    ("plan.self_share", "fraction"),
    ("engine.calls", "count"),
    ("runtime.calls", "count"),
    ("cluster.calls", "count"),
    ("arrivals.calls", "count"),
    ("ctrl.calls", "count"),
    ("plan.calls", "count"),
    // Probes, run after the body.
    ("engine.forward.us_per_token", "us"),
    ("engine.forward_multi.us_per_token", "us"),
    ("engine.attention.us", "us"),
    ("engine.attention_multi.us", "us"),
    ("engine.route.us", "us"),
    ("engine.moe_ffn.us", "us"),
    ("engine.moe_ffn_decode.us", "us"),
    ("tensor.lm_head.us", "us"),
    ("engine.probe_coverage", "fraction"),
    ("runtime.scheduler.plan_step_big.us", "us"),
    ("runtime.scheduler.plan_step_small.us", "us"),
    ("runtime.scheduler.commit_decode.ns", "ns"),
    ("gpusim.decode_step_time.ns", "ns"),
    ("gpusim.forward_time_prefill.ns", "ns"),
    ("cluster.router.choose.ns", "ns"),
    ("trace.histogram.record.ns", "ns"),
    ("plan.search.ms", "ms"),
    // Exact counts the body's layers report.
    ("engine.routing.assignments", "count"),
    ("engine.routing.max_over_mean", "ratio"),
    ("runtime.live_step.calls", "count"),
    ("runtime.prefix.hit_ratio", "fraction"),
    ("runtime.prefix.tokens_saved", "count"),
    ("runtime.tokens_forwarded", "count"),
    ("runtime.tokens_requested", "count"),
    ("runtime.forwarded_per_requested", "ratio"),
    ("runtime.kv.peak_used_blocks", "count"),
    ("cluster.events", "count"),
    ("cluster.events_per_request", "ratio"),
    ("cluster.completed", "count"),
    ("cluster.timed_out", "count"),
    ("cluster.dropped", "count"),
    ("cluster.retries", "count"),
    ("cluster.crashes", "count"),
    ("cluster.preemptions", "count"),
    ("cluster.peak_live", "count"),
    ("cluster.sim.ttft_p99_s", "sim_s"),
    ("cluster.sim.slo_attainment", "fraction"),
    ("ctrl.decisions", "count"),
    ("ctrl.reconfigs", "count"),
    ("plan.enumerated", "count"),
    ("plan.scored", "count"),
    ("plan.infeasible_oom", "count"),
    ("plan.frontier", "count"),
    ("plan.refined", "count"),
    ("plan.feasible_calls", "count"),
    ("plan.refine_share", "fraction"),
];

/// Collect the per-layer metrics of a traced body that took `body_s`,
/// run the probes, write the trace and layer files, and print the flame
/// summary to stderr. `op_cpu_p90_ms` and `bench.trace_overhead_frac`
/// are left to the parent, which holds the untraced times.
pub fn collect(
    workload: Workload,
    seed: u64,
    rec: &Shared,
    outcome: &Outcome,
    body_s: f64,
) -> BTreeMap<String, f64> {
    let (events, tracks) = {
        let r = rec.borrow();
        (r.events(), r.tracks())
    };
    let stats = span_stats(&events);
    let mut m = outcome.counts.clone();
    for (track, name) in TRACKS {
        let on_track = || stats.iter().filter(move |((t, _), _)| *t == track);
        let self_s = on_track().fold(0.0, |acc, (_, s)| acc + s.self_s);
        let calls: u64 = on_track().map(|(_, s)| s.calls).sum();
        m.insert(format!("{name}.self_share"), self_s / body_s);
        if name != "bench" {
            m.insert(format!("{name}.calls"), calls as f64);
        }
    }
    m.extend(probes::run_all(seed));
    if workload == Workload::PlanSweep {
        let plan_s = stats
            .iter()
            .filter(|((t, _), _)| *t == PLAN)
            .fold(0.0, |acc, (_, s)| acc + s.total_s);
        let search_s = probes::search_seconds(&plan_specs(seed), 1);
        m.insert("plan.refine_share".into(), 1.0 - search_s / plan_s);
    }

    let span_rows: Vec<Json> = stats
        .iter()
        .map(|((track, name), s)| {
            let track_name = TRACKS
                .iter()
                .find(|(id, _)| id == track)
                .map_or("?", |(_, n)| n);
            Json::Obj(vec![
                ("track".into(), Json::Str(track_name.into())),
                ("name".into(), Json::Str(name.clone())),
                ("calls".into(), Json::Int(i128::from(s.calls))),
                ("total_s".into(), Json::Float(s.total_s)),
                ("self_s".into(), Json::Float(s.self_s)),
                ("p50_s".into(), Json::Float(s.durations.percentile(50.0))),
                ("p90_s".into(), Json::Float(s.durations.percentile(90.0))),
                ("max_s".into(), Json::Float(s.durations.max())),
            ])
        })
        .collect();
    let layers = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Int(i128::from(seed))),
        ("body_s".into(), Json::Float(body_s)),
        ("spans".into(), Json::Arr(span_rows)),
        (
            "metrics".into(),
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ),
    ]);
    let dir = Path::new(TRACE_DIR);
    let written = fs::create_dir_all(dir)
        .and_then(|()| {
            fs::write(
                dir.join(format!("{}.trace.json", workload.name())),
                chrome_trace_json(&events, &tracks),
            )
        })
        .and_then(|()| {
            fs::write(
                dir.join(format!("{}.layers.json", workload.name())),
                layers.render_pretty() + "\n",
            )
        });
    if let Err(e) = written {
        eprintln!("moe_perf: could not write {TRACE_DIR}/: {e}");
    }
    eprintln!("{}", flame_summary(&events, &tracks));
    m
}
