//! End-to-end tests of the benchmark binary: short runs of every workload,
//! checked against the metric names `BENCHMARK.json` declares.

use calibre_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn spec() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    JsonValue::parse(&text).unwrap()
}

fn names(spec: &JsonValue, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn units(spec: &JsonValue, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary from the repository root and returns its exit code and
/// standard output.
fn run(workload: &str, trace: u8) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string()])
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).unwrap(),
    )
}

fn result_line(stdout: &str) -> JsonValue {
    JsonValue::parse(stdout.lines().last().expect("output is not empty")).unwrap()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let spec = spec();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&spec, key));
    }
    for name in &all {
        assert!(valid_name(name), "bad metric or workload name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names must be unique");
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 3);
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let mut declared = names(&spec, key);
        declared.sort();
        for w in &workloads {
            let (code, stdout) = run(w, trace);
            assert_eq!(code, 0, "{w} trace {trace} failed:\n{stdout}");
            let result = result_line(&stdout);
            let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert!(result.get("attempted").and_then(JsonValue::as_i64).unwrap() >= 1);
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap();
            let emitted: Vec<String> = metrics.keys().cloned().collect();
            assert_eq!(emitted, declared, "{w} trace {trace}");
            for (name, m) in metrics {
                assert!(valid_name(name), "{name}");
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    units(&spec, key).get(name).map(String::as_str),
                    "{w}: unit of {name}"
                );
                let value = m.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w}: {name} = {m:?}");
                assert!(m.get("unit").and_then(JsonValue::as_str).is_some());
            }
            if trace == 0 {
                for name in &declared {
                    let v = metrics[name].get("value").and_then(JsonValue::as_f64);
                    assert!(v.unwrap() > 0.0, "{w}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}

#[test]
fn unknown_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// Size and modification time of every file under `dir`, skipping build
/// output and version-control metadata.
fn snapshot(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, SystemTime)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        let name = entry.file_name();
        if matches!(name.to_str(), Some("target" | ".git" | ".bench_build")) {
            continue;
        }
        let meta = entry.metadata().unwrap();
        if meta.is_dir() {
            snapshot(&path, out);
        } else {
            out.insert(path, (meta.len(), meta.modified().unwrap()));
        }
    }
}

#[test]
fn a_run_leaves_results_and_the_tree_unchanged() {
    let root = repo_root();
    let mut before = BTreeMap::new();
    snapshot(&root, &mut before);
    assert!(
        before.keys().any(|p| p.starts_with(root.join("results"))),
        "results/ is part of the snapshot"
    );
    // serve-wire writes checkpoints and the traced run writes spans: both
    // must land in the build directory.
    let (code, stdout) = run("serve-wire", 1);
    assert_eq!(code, 0, "{stdout}");
    let mut after = BTreeMap::new();
    snapshot(&root, &mut after);
    assert_eq!(before, after);
}
