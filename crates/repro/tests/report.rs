//! The `report` binary end to end: the paper anchors are asserted, not
//! eyeballed; `report all` is deterministic; every sweep row has the
//! shape EXPERIMENTS.md reads off it. No byte-for-byte golden of the
//! whole file: the heuristic's SVD goes through the runtime-dispatched
//! AVX2/FMA GEMM, so last-digit differences across hosts are legitimate.

use hetgrid_repro::experiments::EXPERIMENTS;
use std::process::{Command, Stdio};

fn report(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report");
    assert!(out.status.success(), "report {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8")
}

/// The body of one `## name` section of `report all`.
fn section<'a>(md: &'a str, name: &str) -> &'a str {
    let start = md
        .find(&format!("\n## {name}\n"))
        .unwrap_or_else(|| panic!("no section {name}"));
    let body = &md[start + 1..];
    body.find("\n## ").map_or(body, |end| &body[..end])
}

/// The rows under each table's `----` rule, as whitespace-separated
/// cells.
fn table_rows(text: &str) -> Vec<Vec<&str>> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in text.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.is_empty() || line.starts_with("```") {
            in_table = false;
        } else if cells.iter().all(|c| c.bytes().all(|b| b == b'-')) {
            in_table = true;
        } else if in_table {
            rows.push(cells);
        }
    }
    rows
}

#[test]
fn all_is_deterministic_and_holds_the_paper_anchors() {
    let dir = std::env::temp_dir().join(format!("hetgrid-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let render = |file: &str| {
        let path = dir.join(file);
        report(&["all", path.to_str().unwrap(), "2"]);
        std::fs::read_to_string(path).unwrap()
    };
    let (md, again) = (render("a.md"), render("b.md"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(md, again, "two runs of `report all` differ");

    let anchors = section(&md, "anchors");
    assert!(anchors.contains("Worked examples"));
    for want in [
        "`[[1,2],[3,6]]`: exact obj2 = 2.0000, perfect balance = true",
        "`t22 = 5`: exact obj2 = 2.0000, P22 busy 0.833",
        "step 1 obj 2.4322",
        "workload 0.8302",
        "converged obj 2.5889 (paper 2.5889) in 4 steps",
    ] {
        assert!(anchors.contains(want), "anchors lack {want:?}:\n{anchors}");
    }

    // Each experiment exactly once, and as the text the sub-command prints.
    for (name, ..) in EXPERIMENTS {
        assert_eq!(md.matches(&format!("\n## {name}\n")).count(), 1, "{name}");
    }
    assert_eq!(md.matches("\n## ").count(), EXPERIMENTS.len());
    assert!(section(&md, "fig4").contains(&report(&["fig4"])));
    assert!(section(&md, "fig7").contains(&report(&["fig7", "15", "2"])));

    // Simulation tables: four grids x two networks per kernel, every row
    // three positive ratios beside heur-panel = 1.00. Cyclic >= 1 is not
    // asserted on random pools; the fixed skewed pool is pinned by
    // `sim_row_cyclic_is_worst_on_skewed_grid`.
    for name in ["sim_mm", "sim_lu"] {
        let rows: Vec<_> = table_rows(section(&md, name))
            .into_iter()
            .filter(|r| r.len() == 5 && r[1].starts_with("cyclic="))
            .collect();
        assert_eq!(rows.len(), 8, "{name}");
        for row in rows {
            assert_eq!(row[2], "heur-panel=1.00", "{name}: {row:?}");
            for (cell, label) in [
                (row[1], "cyclic"),
                (row[3], "exact-panel"),
                (row[4], "kalinov-l"),
            ] {
                let (got, ratio) = cell.split_once('=').expect("label=ratio");
                assert_eq!(got, label);
                assert!(ratio.parse::<f64>().unwrap() > 0.0, "{name}: {row:?}");
            }
        }
    }

    let column = |name: &str, k: usize| -> Vec<f64> {
        let rows = table_rows(section(&md, name));
        assert_eq!(rows.len(), 14, "{name}: n = 2..=15");
        rows.iter().map(|r| r[k].parse().unwrap()).collect()
    };
    assert!(column("fig7", 1).iter().all(|&tau| tau >= 0.0));
    assert!(column("fig8", 1).iter().all(|&iters| iters >= 1.0));
}

#[test]
fn closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["fig6", "4", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn report");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("fig9")
        .output()
        .expect("spawn report");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `fig9`") && stderr.contains("report fig6 [max_n]"));
}
