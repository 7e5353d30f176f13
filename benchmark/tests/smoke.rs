//! Bit-rot guard: every workload, untraced and traced, at smoke size,
//! through the real binary; every name in `BENCHMARK.json` is printed
//! and well-formed, and the exact counts repeat across two runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use pcs_benchmark::compare::Definition;
use pcs_benchmark::json::Json;

fn definition() -> Definition {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Definition::read(&path).expect("BENCHMARK.json reads")
}

/// Runs one smoke workload; returns its metrics by name.
fn smoke(workload: &str, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(out.status.success(), "{workload} trace={trace} exited {}: {last}", out.status);
    let json = Json::parse(last).expect("result line is JSON");
    let keys: Vec<&str> = json.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    assert!(json.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
    json.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name} has no unit");
            (name.clone(), m.get("value").and_then(Json::as_f64).expect("numeric value"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn every_workload_prints_every_metric_of_the_definition() {
    let def = definition();
    assert_eq!(def.workloads, pcs_benchmark::workloads::WORKLOADS);
    let end_to_end: Vec<&str> = def.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert!(end_to_end.contains(&"setup_s"));
    for name in end_to_end.iter().copied().chain(def.per_layer.iter().map(String::as_str)) {
        assert!(well_formed(name), "malformed metric name {name:?}");
    }
    let mut sorted_e2e = end_to_end.clone();
    sorted_e2e.sort_unstable();
    let mut sorted_layers: Vec<&str> = def.per_layer.iter().map(String::as_str).collect();
    sorted_layers.sort_unstable();
    for workload in &def.workloads {
        let untraced = smoke(workload, false);
        assert_eq!(
            untraced.keys().map(String::as_str).collect::<Vec<_>>(),
            sorted_e2e,
            "{workload}"
        );
        for (name, value) in &untraced {
            assert!(*value > 0.0, "{workload}: end-to-end metric {name} is {value}");
        }
        let traced = smoke(workload, true);
        assert_eq!(
            traced.keys().map(String::as_str).collect::<Vec<_>>(),
            sorted_layers,
            "{workload}"
        );
    }
}

#[test]
fn exact_counts_repeat_across_two_runs_of_one_seed() {
    const EXACT: [&str; 17] = [
        "graph.gk_vertices",
        "ptree.tq_nodes",
        "ptree.lattice_log2",
        "index.shards_resident",
        "core.subtrees_generated",
        "core.verifications",
        "core.memo_hit_ratio",
        "core.seed_scanned",
        "core.peel_candidates",
        "core.peel_candidates_per_member",
        "engine.apply_cores_changed",
        "engine.apply_labels_rebuilt",
        "store.snapshot_mb",
        "store.first_query_read_fraction",
        "store.steady_read_fraction",
        "store.wal_bytes_per_write",
        "serve.response_bytes",
    ];
    let (a, b) = (smoke("cold-scale", true), smoke("cold-scale", true));
    for name in EXACT {
        assert_eq!(a[name], b[name], "{name} differs between two runs of one seed");
    }
}
