//! Tier-1 contract over the committed benchmark history files.
//!
//! `BENCH_cluster.json` records the cluster core's speed *trajectory*:
//! the committed pre-event-heap baseline first, then one entry per
//! rebuilt core. The file is append-only — later sessions re-measure
//! and append, but the baseline entry is the fixed origin every
//! `speedup_vs_baseline` is computed against. If it moved or mutated,
//! every historical ratio in docs/SCALE.md and ROADMAP.md would silently
//! change meaning.

use moe_json::Json;

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn number(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Int(i)) => Some(*i as f64),
        Some(Json::Float(f)) => Some(*f),
        _ => None,
    }
}

fn string(v: Option<&Json>) -> Option<&str> {
    match v {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// Committed pre-heap baseline (commit 1a3a2ba): the linear five-source
/// scan core at 119,150 events/s. Mirrors `BASELINE_EVENTS_PER_S` in
/// `crates/bench/benches/cluster.rs` — the bench harness seeds a file
/// with no history with the same constant, and otherwise carries the
/// committed entries forward verbatim.
const PRE_HEAP_BASELINE_EVENTS_PER_S: f64 = 119_150.0;

#[test]
fn bench_cluster_history_keeps_the_pre_heap_baseline_first() {
    let doc = moe_json::parse(&repo_file("BENCH_cluster.json")).expect("well-formed JSON");
    let trajectory = match doc.get("trajectory") {
        Some(Json::Arr(items)) => items,
        other => panic!("trajectory must be an array, got {other:?}"),
    };
    assert!(
        trajectory.len() >= 2,
        "trajectory must keep the baseline plus at least one measured core"
    );

    let baseline = &trajectory[0];
    let label = string(baseline.get("core")).expect("baseline core label");
    assert!(
        label.contains("pre event-heap"),
        "first trajectory record must stay the pre-heap baseline, got {label:?}"
    );
    let events_per_s = number(baseline.get("events_per_s")).expect("baseline events_per_s");
    assert_eq!(
        events_per_s, PRE_HEAP_BASELINE_EVENTS_PER_S,
        "the committed baseline rate is immutable"
    );
    assert_eq!(
        baseline.get("committed"),
        Some(&Json::Bool(true)),
        "the baseline entry is a committed measurement"
    );

    // Every later entry measures a rebuilt core against that origin.
    for (i, entry) in trajectory.iter().enumerate().skip(1) {
        let rate = number(entry.get("events_per_s"))
            .unwrap_or_else(|| panic!("trajectory[{i}] lacks events_per_s"));
        assert!(rate > 0.0, "trajectory[{i}] rate must be positive");
        if let Some(speedup) = number(entry.get("speedup_vs_baseline")) {
            let expected = rate / PRE_HEAP_BASELINE_EVENTS_PER_S;
            assert!(
                (speedup - expected).abs() <= 1e-6 * expected,
                "trajectory[{i}] speedup {speedup} disagrees with rate/baseline {expected}"
            );
        }
    }
}

/// Original single-core measurement of the 26-experiment registry: the
/// frozen origin of the `BENCH_par.json` history. If it moved, the
/// harness-speed narrative in EXPERIMENTS.md would silently change
/// meaning — the bench carries `committed: true` entries forward
/// verbatim and only appends.
const PAR_ORIGIN_SERIAL_S: f64 = 2.760874293;
const PAR_ORIGIN_EXPERIMENTS: f64 = 26.0;

#[test]
fn bench_par_history_keeps_the_origin_first_and_appends() {
    let doc = moe_json::parse(&repo_file("BENCH_par.json")).expect("well-formed JSON");
    let history = match doc.get("history") {
        Some(Json::Arr(items)) => items,
        other => panic!("history must be an array, got {other:?}"),
    };
    assert!(
        history.len() >= 2,
        "history must keep the origin plus at least one re-measurement"
    );

    let origin = &history[0];
    assert_eq!(
        origin.get("committed"),
        Some(&Json::Bool(true)),
        "first history entry must stay the committed origin"
    );
    assert_eq!(
        number(origin.get("serial_s")),
        Some(PAR_ORIGIN_SERIAL_S),
        "the committed origin measurement is immutable"
    );
    assert_eq!(
        number(origin.get("experiments")),
        Some(PAR_ORIGIN_EXPERIMENTS)
    );

    // Later entries append in registry-growth order: the experiment
    // count never shrinks along the history.
    let mut last_experiments = PAR_ORIGIN_EXPERIMENTS;
    for (i, entry) in history.iter().enumerate() {
        let experiments = number(entry.get("experiments"))
            .unwrap_or_else(|| panic!("history[{i}] lacks experiments"));
        assert!(
            experiments >= last_experiments,
            "history[{i}] experiment count went backwards: {experiments} < {last_experiments}"
        );
        last_experiments = experiments;
        assert!(number(entry.get("serial_s")).unwrap_or(0.0) > 0.0);
        assert!(number(entry.get("parallel_s")).unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn bench_par_history_records_host_core_count() {
    let doc = moe_json::parse(&repo_file("BENCH_par.json")).expect("well-formed JSON");
    let history = match doc.get("history") {
        Some(Json::Arr(items)) => items,
        other => panic!("history must be an array, got {other:?}"),
    };
    for (i, entry) in history.iter().enumerate() {
        let cores = number(entry.get("host_cores"))
            .unwrap_or_else(|| panic!("history[{i}] lacks host_cores"));
        assert!(cores >= 1.0);
        // The note must state the core count the entry was measured on,
        // so a future multi-core re-measurement can't reuse a stale
        // narrative.
        let note = string(entry.get("note")).unwrap_or_else(|| panic!("history[{i}] lacks note"));
        assert!(
            note.contains(&format!("{}-core", cores as u64)),
            "history[{i}] note must state its measured core count, got {note:?}"
        );
    }
}
