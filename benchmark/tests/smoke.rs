//! Smoke run of each workload, timed and traced, through the binary as
//! the driver runs it; and the names the binary prints against
//! `BENCHMARK.json`.

use e2e_budget::names::{END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use hetgrid_obs::json::{parse, Value};
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the binary on `workload`; returns the parsed last line.
fn smoke(workload: &str, trace: u8) -> Value {
    let out_dir = format!("{}/smoke-{workload}", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_budget"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string(), "--out", &out_dir])
        .output()
        .expect("running e2e_budget");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .members()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    // The record file is one line and names its provenance.
    let suffix = if trace == 1 { ".traced" } else { "" };
    let record = std::fs::read_to_string(format!("{out_dir}/{workload}.3{suffix}.json"))
        .expect("the run wrote its record");
    assert_eq!(record.lines().count(), 1);
    let record = parse(&record).expect("record parses");
    for key in ["commit", "rustc", "host.threads", "workload", "seed"] {
        assert!(record.get(key).is_some(), "record lacks {key}");
    }
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn check_workload(workload: &str) {
    let manifest = manifest();
    let timed = smoke(workload, 0);
    let members = timed
        .get("metrics")
        .and_then(Value::members)
        .expect("metrics");
    let printed: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        printed,
        names_of(manifest.get("end_to_end").expect("end_to_end"))
    );
    for (name, ..) in END_TO_END.map(|(d, _)| d) {
        assert!(metric(&timed, name) > 0.0, "{name} must never read 0");
    }

    let traced = smoke(workload, 1);
    let members = traced
        .get("metrics")
        .and_then(Value::members)
        .expect("metrics");
    let printed: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let listed = names_of(manifest.get("per_layer").expect("per_layer"));
    assert_eq!(printed, listed);
    for (name, m) in members {
        let unit = m.get("unit").and_then(Value::as_str).expect("unit");
        let def = PER_LAYER
            .iter()
            .find(|d| d.0 == name)
            .expect("in the table");
        assert_eq!(unit, def.1, "{name}");
    }
    let coverage = metric(&traced, "budget.coverage");
    assert!(
        (coverage - 1.0).abs() <= 0.05,
        "budget.coverage = {coverage}"
    );
    assert_eq!(metric(&traced, "sim.counts_match"), 1.0);
    assert!(std::path::Path::new(&format!(
        "{}/smoke-{workload}/{workload}.trace.json",
        env!("CARGO_TARGET_TMPDIR")
    ))
    .exists());
    let kernels = metric(&traced, "budget.exec_s") + metric(&traced, "budget.linalg_s");
    if workload == "plan_serve" {
        assert_eq!(kernels, 0.0, "plan_serve must bypass exec and linalg");
        assert_eq!(metric(&traced, "serve.cache_evictions"), 4.0);
        assert_eq!(metric(&traced, "serve.solver_invocations"), 4.0);
    } else {
        assert!(kernels > 0.0);
        assert_eq!(metric(&traced, "serve.solver_invocations"), 0.0);
        assert_eq!(metric(&traced, "serve.cache_hit_ratio"), 1.0);
    }
}

#[test]
fn mm_grid() {
    check_workload("mm_grid");
}

#[test]
fn lu_grid() {
    check_workload("lu_grid");
}

#[test]
fn chol_qr_star() {
    check_workload("chol_qr_star");
}

#[test]
fn plan_serve() {
    check_workload("plan_serve");
}

/// `BENCHMARK.json` and the tables in `names.rs` say the same thing,
/// within the contract's limits.
#[test]
fn manifest_matches_the_tables() {
    let m = manifest();
    assert_eq!(names_of(m.get("workloads").expect("workloads")), WORKLOADS);
    let e2e = m
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end");
    let per = m
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer");
    assert!(e2e.len() <= 16 && per.len() <= 128);
    assert_eq!(e2e.len(), END_TO_END.len());
    assert_eq!(per.len(), PER_LAYER.len());
    let field = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .expect("field")
            .to_string()
    };
    for (entry, ((name, unit, better), bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better")
            ),
            (name.to_string(), unit.to_string(), better.to_string())
        );
        let listed = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(listed, bound, "{name}");
        assert!(listed <= 0.25);
    }
    for (entry, (name, unit, better)) in per.iter().zip(PER_LAYER) {
        assert_eq!(
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better")
            ),
            (name.to_string(), unit.to_string(), better.to_string())
        );
    }
    let mut all: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
    all.extend(END_TO_END.iter().map(|(d, _)| d.0));
    all.extend(WORKLOADS);
    for name in &all {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .next()
                    .expect("non-empty")
                    .is_ascii_alphanumeric()
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for name in EXACT {
        assert!(
            PER_LAYER.iter().any(|d| d.0 == name),
            "{name} is not a metric"
        );
    }
}
