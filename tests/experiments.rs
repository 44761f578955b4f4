//! Integration tests over the experiment harness: every registered
//! table/figure regenerates, produces well-formed reports, and serializes.

use moe_bench::{ExperimentReport, REGISTRY};
use moe_trace::Tracer;

fn fast_report(id: &str) -> Option<ExperimentReport> {
    moe_bench::run_experiment(id, true, &mut Tracer::disabled())
}

#[test]
fn every_paper_artifact_is_registered() {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
    // Table 1 plus figures 1 and 3-18 (fig 2 is a schematic).
    let expected = [
        "table1",
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "ablations",
        "ext-placement",
        "ext-multinode",
        "ext-qps",
        "ext-cluster",
        "ext-plan",
        "ext-scale",
        "ext-ctrl",
        "ext-mem",
        "ext-cap",
    ];
    assert_eq!(ids, expected);
}

#[test]
fn unknown_experiment_is_none() {
    assert!(fast_report("fig99").is_none());
}

#[test]
fn all_experiments_produce_wellformed_reports() {
    for id in REGISTRY.iter().map(|e| e.id()) {
        let report = fast_report(id).expect("registered id runs");
        assert_eq!(report.id, id);
        assert!(!report.title.is_empty());
        assert!(!report.tables.is_empty(), "{id}: no tables");
        for table in &report.tables {
            assert!(!table.columns.is_empty(), "{id}/{}", table.name);
            assert!(!table.rows.is_empty(), "{id}/{}: empty table", table.name);
            for row in &table.rows {
                assert_eq!(
                    row.len(),
                    table.columns.len(),
                    "{id}/{}: ragged row",
                    table.name
                );
            }
        }
        // Text rendering and JSON serialization never fail.
        let text = report.render();
        assert!(text.contains(&report.id));
        let json = moe_json::to_string(&report);
        assert!(json.len() > 2);
    }
}

#[test]
fn reports_are_deterministic() {
    for id in ["table1", "fig1", "fig5", "fig13", "fig17"] {
        let a = fast_report(id).expect("registered");
        let b = fast_report(id).expect("registered");
        assert_eq!(a, b, "{id} not reproducible");
    }
}

#[test]
fn csv_export_roundtrips_columns() {
    let report = fast_report("table1").expect("registered");
    let csv = report.tables[0].to_csv();
    let header = csv.lines().next().expect("non-empty CSV");
    assert_eq!(header.split(',').count(), report.tables[0].columns.len());
    assert_eq!(csv.lines().count(), 1 + report.tables[0].rows.len());
}
