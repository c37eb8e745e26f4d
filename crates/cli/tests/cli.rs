//! End-to-end tests of the `hetgrid` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
        .args(args)
        .output()
        .expect("failed to launch hetgrid binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scratch file path in the target tmpdir, removed on drop.
struct TmpFile(std::path::PathBuf);

impl TmpFile {
    fn new(name: &str) -> TmpFile {
        let mut p = std::env::temp_dir();
        p.push(format!("hetgrid-cli-test-{}-{}", std::process::id(), name));
        TmpFile(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 tmp path")
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.0)
            .unwrap_or_else(|e| panic!("reading {}: {}", self.path(), e))
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Track names (thread_name metadata) of a chrome trace document.
fn track_names(doc: &hetgrid_obs::json::Value) -> Vec<String> {
    doc.get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
        .filter_map(|e| Some(e.get("args")?.get("name")?.as_str()?.to_string()))
        .collect()
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    for cmd in ["solve", "distribute", "run", "simulate", "sweep", "adapt"] {
        assert!(stdout.contains(cmd), "missing {} in help", cmd);
    }
    assert!(stdout.contains("--trace-out"));
    assert!(stdout.contains("--metrics-out"));
}

#[test]
fn solve_exact_paper_example() {
    let (ok, stdout, _) = run(&[
        "solve", "--times", "1,2,3,5", "--grid", "2x2", "--method", "exact",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("objective (sum r)(sum c) = 2.0000"),
        "{}",
        stdout
    );
    assert!(stdout.contains("r = [1.0000, 0.3333]"), "{}", stdout);
}

/// `solve` and `run` read `--method` through one table: the same four
/// names, and one error that lists them.
#[test]
fn solve_all_methods_run() {
    let pool = ["--times", "1,2,3,5", "--grid", "2x2", "--method"];
    for method in ["heuristic", "exact", "local-search", "anneal"] {
        let (ok, stdout, stderr) = run(&[&["solve"], &pool[..], &[method]].concat());
        assert!(ok, "solve --method {} failed: {}", method, stderr);
        assert!(stdout.contains("objective"), "{}", stdout);
        let (ok, stdout, stderr) =
            run(&[&["run"], &pool[..], &[method, "--nb", "4", "--block", "4"]].concat());
        assert!(ok, "run --method {} failed: {}", method, stderr);
        assert!(stdout.contains("max |C - A*B|"), "{}", stdout);
    }
    for cmd in ["solve", "run"] {
        let (ok, _, stderr) = run(&[&[cmd], &pool[..], &["greedy"]].concat());
        assert!(!ok);
        assert_eq!(
            stderr,
            "error: unknown method: greedy (want one of heuristic, exact, local-search, anneal)\n"
        );
    }
}

#[test]
fn distribute_prints_owner_map() {
    let (ok, stdout, _) = run(&[
        "distribute",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--panel",
        "4x4",
    ]);
    assert!(ok);
    assert!(stdout.contains("owner map"));
    assert!(stdout.contains("average utilization"));
}

#[test]
fn simulate_kernels_run() {
    for kernel in ["mm", "lu", "qr", "cholesky"] {
        let (ok, stdout, stderr) = run(&[
            "simulate", "--times", "1,2,3,5", "--grid", "2x2", "--nb", "8", "--kernel", kernel,
        ]);
        assert!(ok, "kernel {} failed: {}", kernel, stderr);
        assert!(stdout.contains("makespan"), "{}", stdout);
    }
}

#[test]
fn simulate_broadcast_topologies_run_or_are_rejected() {
    let simulate = |kernel: &str, scheme: &str, broadcast: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args([
                "simulate", "--times", "1,2,3,5", "--grid", "2x2", "--nb", "8",
            ])
            .args([
                "--kernel",
                kernel,
                "--scheme",
                scheme,
                "--broadcast",
                broadcast,
            ])
            .output()
            .expect("failed to launch hetgrid binary");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for broadcast in ["ring", "tree"] {
        // Defined: mm, lu and qr on the Cartesian schemes.
        for kernel in ["mm", "lu", "qr"] {
            for scheme in ["panel", "cyclic"] {
                let (code, stdout, stderr) = simulate(kernel, scheme, broadcast);
                assert_eq!(code, Some(0), "{kernel} {scheme} {broadcast}: {stderr}");
                assert!(stdout.contains("makespan"), "{stdout}");
            }
        }
        // Undefined: Cholesky under any scheme, anything on KL. Exit 2
        // with a message, never a simulation of something else or a panic.
        for (kernel, scheme, why) in [
            ("cholesky", "panel", "Cholesky"),
            ("cholesky", "cyclic", "Cholesky"),
            ("mm", "kl", "Cartesian"),
            ("lu", "kl", "Cartesian"),
            ("qr", "kl", "Cartesian"),
        ] {
            let (code, stdout, stderr) = simulate(kernel, scheme, broadcast);
            assert_eq!(code, Some(2), "{kernel} {scheme} {broadcast}: {stdout}");
            assert!(stdout.is_empty(), "{stdout}");
            assert!(
                stderr.contains("error:") && stderr.contains(why),
                "{stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

#[test]
fn simulate_gantt_renders() {
    let (ok, stdout, _) = run(&[
        "simulate", "--times", "1,2,3,5", "--grid", "2x2", "--nb", "4", "--kernel", "mm", "--gantt",
    ]);
    assert!(ok);
    assert!(stdout.contains("P(1,1)"));
    assert!(stdout.contains('#'));
}

#[test]
fn sweep_csv_output() {
    let (ok, stdout, _) = run(&["sweep", "--max-n", "3", "--trials", "3", "--csv"]);
    assert!(ok);
    assert!(stdout.starts_with("n,avg_workload,tau,iterations"));
    assert!(stdout.lines().count() >= 3);
}

/// README's `hetgrid run` transcript is what the binary prints. Only the
/// values that follow the host are masked: wall time and busy imbalance
/// (thread timing) and the residual (its last digits follow the SIMD
/// GEMM kernel the host picks).
#[test]
fn readme_run_transcript_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("reading README.md");
    let block = readme
        .split("```text\n")
        .filter_map(|b| b.split_once("```").map(|(body, _)| body))
        .find(|b| b.starts_with("$ hetgrid run "))
        .expect("README has a `$ hetgrid run` transcript");
    let (cmd, want) = block.split_once('\n').expect("command line");
    let argv: Vec<&str> = cmd["$ hetgrid ".len()..].split(' ').collect();
    let (ok, got, stderr) = run(&argv);
    assert!(ok, "{cmd}: {stderr}");
    let mask = |text: &str| -> Vec<String> {
        let timed = ["wall time", "busy imbalance", "max |"];
        text.lines()
            .map(|l| match timed.iter().any(|t| l.starts_with(t)) {
                true => l.split([':', '=']).next().unwrap_or(l).to_string(),
                false => l.to_string(),
            })
            .collect()
    };
    assert_eq!(mask(&got), mask(want), "README.md transcript of `{cmd}`");
}

/// `sweep` and `report fig6` are one sweep at one seed: the CSV's
/// `avg_workload` is Figure 6's column, row for row.
#[test]
fn sweep_avg_workload_is_report_fig6_column() {
    let (ok, stdout, _) = run(&["sweep", "--max-n", "5", "--trials", "4", "--csv"]);
    assert!(ok);
    let swept: Vec<String> = stdout
        .lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .nth(1)
                .expect("avg_workload column")
                .to_string()
        })
        .collect();
    let (_, _, fig6) = hetgrid_repro::experiments::EXPERIMENTS
        .iter()
        .find(|(name, _, _)| *name == "fig6")
        .expect("fig6 section");
    let args = hetgrid_repro::experiments::Args {
        values: &[5, 4],
        trial_cap: usize::MAX,
    };
    // The table's rows start with the grid side `n`; column 2 is the workload.
    let report: Vec<String> = hetgrid_repro::experiments::render(*fig6, &args)
        .lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|c| c.parse::<usize>().is_ok())
        })
        .map(|l| {
            l.split_whitespace()
                .nth(1)
                .expect("avg workload")
                .to_string()
        })
        .collect();
    assert_eq!(swept.len(), 4);
    assert_eq!(swept, report);
}

#[test]
fn bad_input_fails_cleanly() {
    // Wrong number of cycle-times.
    let (ok, _, stderr) = run(&["solve", "--times", "1,2,3", "--grid", "2x2"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    // Unknown command.
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    // Unknown kernel.
    let (ok, _, stderr) = run(&[
        "simulate", "--times", "1,2,3,5", "--grid", "2x2", "--kernel", "fft",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown kernel"));
}

#[test]
fn exact_beyond_its_grid_limit_is_refused() {
    // 11x11 is past the exact solver's 10x10 limit: exit 2 before any
    // solving, never a panic.
    let times: Vec<String> = (1..=121).map(|t| t.to_string()).collect();
    let times = times.join(",");
    for cmd in ["solve", "run"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args([
                cmd, "--times", &times, "--grid", "11x11", "--method", "exact",
            ])
            .output()
            .expect("failed to launch hetgrid binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(
            stderr.contains("error: --method exact is limited to grids up to 10x10, got 11x11"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn kl_scheme_simulates() {
    let (ok, stdout, stderr) = run(&[
        "simulate", "--times", "1,2,3,5", "--grid", "2x2", "--nb", "8", "--kernel", "mm",
        "--scheme", "kl",
    ]);
    assert!(ok, "{}", stderr);
    assert!(stdout.contains("scheme kl"));
}

#[test]
fn bounds_brackets_achieved() {
    let (ok, stdout, _) = run(&["bounds", "--times", "1,2,3,5", "--grid", "2x2"]);
    assert!(ok);
    assert!(stdout.contains("upper bound"));
    assert!(stdout.contains("grid price"));
}

#[test]
fn rank1_detects_both_cases() {
    let (ok, stdout, _) = run(&["rank1", "--times", "1,2,3,6", "--grid", "2x2"]);
    assert!(ok);
    assert!(stdout.contains("perfect balance is achievable"));
    let (ok, stdout, _) = run(&["rank1", "--times", "1,2,3,5", "--grid", "2x2"]);
    assert!(ok);
    assert!(stdout.contains("impossible"));
}

#[test]
fn run_executes_all_kernels() {
    for kernel in ["mm", "lu", "cholesky", "qr"] {
        let (ok, stdout, stderr) = run(&[
            "run", "--times", "1,2,3,5", "--grid", "2x2", "--kernel", kernel, "--nb", "4",
            "--block", "4",
        ]);
        assert!(ok, "kernel {} failed: {}", kernel, stderr);
        assert!(stdout.contains("wall time"), "{}", stdout);
        assert!(stdout.contains("messages sent"), "{}", stdout);
        // The numerical check against the sequential reference ran.
        assert!(stdout.contains("e-"), "no small residual in: {}", stdout);
    }
    let (ok, _, stderr) = run(&[
        "run", "--times", "1,2,3,5", "--grid", "2x2", "--kernel", "svd",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown kernel"));
}

/// The executor runs at the depth it is asked for, LU on the skewed
/// {1,2,3,5} grid included, and the report says so.
#[test]
fn run_reports_effective_lookahead() {
    for (kernel, depth) in [("lu", "0"), ("lu", "2"), ("lu", "3"), ("mm", "2")] {
        let (ok, stdout, stderr) = run(&[
            "run",
            "--times",
            "1,2,3,5",
            "--grid",
            "2x2",
            "--kernel",
            kernel,
            "--nb",
            "4",
            "--block",
            "4",
            "--lookahead",
            depth,
        ]);
        assert!(ok, "{kernel} at depth {depth} failed: {stderr}");
        let line = stdout.lines().find(|l| l.starts_with("lookahead depth"));
        assert_eq!(
            line,
            Some(format!("lookahead depth  : {depth}").as_str()),
            "{kernel}: {stdout}"
        );
    }
}

/// The star platform has no grid, solver or distribution: a flag that
/// configures one must fail loudly, naming itself and the reason — not
/// be dropped, and for `--crash` not print a clean residual as if a
/// crash had been injected and recovered. The flight recorder works on
/// both topologies.
#[test]
fn star_rejects_crash_and_arms_the_flight_recorder() {
    let star = [
        "run",
        "--topology",
        "star",
        "--workers",
        "2",
        "--worker-mem",
        "4",
        "--nb",
        "4",
        "--block",
        "4",
    ];
    for (flag, value, why) in [
        ("--crash", "1@2", "crash recovery is grid-only"),
        ("--times", "1,2,3,5", "homogeneous"),
        ("--grid", "2x2", "not a 2D grid"),
        ("--method", "exact", "no arrangement to solve"),
        ("--scheme", "kl", "no block distribution"),
        ("--ordering", "columns", "no panel distribution"),
        ("--panel", "4x4", "no panel distribution"),
    ] {
        let (ok, stdout, stderr) = run(&[&star[..], &[flag, value]].concat());
        assert!(!ok && stdout.is_empty(), "{flag}: {stdout}");
        let head = format!("error: {flag} is not supported on the star topology: ");
        assert!(stderr.starts_with(&head), "{flag}: {stderr}");
        assert!(stderr.contains(why), "{flag}: {stderr}");
    }

    let flight = TmpFile::new("star-flight.json");
    let (ok, stdout, stderr) = run(&[&star[..], &["--flight-recorder", flight.path()]].concat());
    assert!(ok, "{stderr}");
    assert!(stdout.contains("max |C - A*B|"), "{stdout}");
    hetgrid_obs::json::parse(&flight.read()).expect("flight dump must be valid JSON");
}

#[test]
fn run_writes_trace_and_metrics() {
    let trace = TmpFile::new("run-trace.json");
    let metrics = TmpFile::new("run-metrics.json");
    let (ok, _, stderr) = run(&[
        "run",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--kernel",
        "mm",
        "--nb",
        "4",
        "--block",
        "4",
        "--trace-out",
        trace.path(),
        "--metrics-out",
        metrics.path(),
    ]);
    assert!(ok, "{}", stderr);

    let doc = hetgrid_obs::json::parse(&trace.read()).expect("trace must be valid JSON");
    let tracks = track_names(&doc);
    // One executor track per grid processor.
    for name in ["P(1,1)", "P(1,2)", "P(2,1)", "P(2,2)"] {
        assert!(
            tracks.iter().any(|t| t == name),
            "missing track {name} in {tracks:?}"
        );
    }

    let m = hetgrid_obs::json::parse(&metrics.read()).expect("metrics must be valid JSON");
    let counters = m.get("counters").expect("counters object");
    // Per-processor and per-edge executor series.
    assert!(
        counters
            .get("exec.p0_0.msgs")
            .and_then(|v| v.as_f64())
            .is_some(),
        "missing exec.p0_0.msgs"
    );
    assert!(
        counters
            .get("exec.p0_0.work")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0,
        "exec.p0_0.work should be positive"
    );
    let edges: Vec<&str> = counters
        .members()
        .expect("counters is an object")
        .iter()
        .filter(|(k, _)| k.starts_with("exec.edge.") && k.ends_with(".msgs"))
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(!edges.is_empty(), "no per-edge message counters");
}

#[test]
fn solve_exact_label_reads_obs_deltas() {
    let metrics = TmpFile::new("solve-metrics.json");
    let (ok, stdout, stderr) = run(&[
        "solve",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--method",
        "exact",
        "--metrics-out",
        metrics.path(),
    ]);
    assert!(ok, "{}", stderr);
    let m = hetgrid_obs::json::parse(&metrics.read()).expect("metrics must be valid JSON");
    let trees = m
        .get("counters")
        .and_then(|c| c.get("solver.trees.examined"))
        .and_then(|v| v.as_f64())
        .expect("solver.trees.examined counter");
    assert!(trees > 0.0);
    // The label and the metrics file come from the same registry delta.
    assert!(
        stdout.contains(&format!("{} trees examined", trees as u64)),
        "label does not match the metrics delta: {}",
        stdout
    );
}

#[test]
fn adapt_writes_trace_and_metrics() {
    let trace = TmpFile::new("adapt-trace.json");
    let metrics = TmpFile::new("adapt-metrics.json");
    let (ok, stdout, stderr) = run(&[
        "adapt",
        "--times",
        "1,1,1,1",
        "--new-times",
        "6,1,1,1",
        "--grid",
        "2x2",
        "--iters",
        "40",
        "--nb",
        "16",
        "--trace-out",
        trace.path(),
        "--metrics-out",
        metrics.path(),
    ]);
    assert!(ok, "{}", stderr);
    assert!(stdout.contains("rebalances"));

    let doc = hetgrid_obs::json::parse(&trace.read()).expect("trace must be valid JSON");
    let tracks = track_names(&doc);
    assert!(tracks.iter().any(|t| t == "static"), "{tracks:?}");
    assert!(tracks.iter().any(|t| t == "adaptive"), "{tracks:?}");

    let m = hetgrid_obs::json::parse(&metrics.read()).expect("metrics must be valid JSON");
    let drift = m
        .get("counters")
        .and_then(|c| c.get("adapt.drift.detections"))
        .and_then(|v| v.as_f64())
        .expect("adapt.drift.detections counter");
    assert!(drift > 0.0, "sustained step drift must be detected");
}

#[test]
fn adapt_rejects_out_of_range_tuning() {
    // Every knob `ControllerConfig::validate` checks is refused up front
    // with a typed error, never a panic inside the controller.
    for (flag, value) in [
        ("--half-life", "0"),
        ("--half-life", "nan"),
        ("--threshold", "0"),
        ("--patience", "0"),
        ("--safety", "0.5"),
        ("--move-cost", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args([
                "adapt",
                "--times",
                "1,1,1,1",
                "--new-times",
                "6,1,1,1",
                "--grid",
                "2x2",
                "--iters",
                "20",
                flag,
                value,
            ])
            .output()
            .expect("failed to launch hetgrid binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.starts_with("error:"), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn simulate_writes_schedule_trace() {
    let trace = TmpFile::new("sim-trace.json");
    let (ok, _, stderr) = run(&[
        "simulate",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--nb",
        "4",
        "--kernel",
        "mm",
        "--trace-out",
        trace.path(),
    ]);
    assert!(ok, "{}", stderr);
    let doc = hetgrid_obs::json::parse(&trace.read()).expect("trace must be valid JSON");
    let tracks = track_names(&doc);
    assert!(tracks.iter().any(|t| t == "P(1,1)"), "{tracks:?}");
    let has_compute = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("compute"));
    assert!(has_compute, "no compute interval in simulated trace");
}

#[test]
fn quiet_suppresses_diagnostics() {
    let trace = TmpFile::new("quiet-trace.json");
    let (ok, _, stderr) = run(&[
        "run",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--kernel",
        "mm",
        "--nb",
        "4",
        "--block",
        "4",
        "--trace-out",
        trace.path(),
    ]);
    assert!(ok);
    assert!(
        stderr.contains("wrote chrome trace"),
        "default verbosity should report the written file: {}",
        stderr
    );
    let (ok, _, stderr) = run(&[
        "run",
        "--times",
        "1,2,3,5",
        "--grid",
        "2x2",
        "--kernel",
        "mm",
        "--nb",
        "4",
        "--block",
        "4",
        "--trace-out",
        trace.path(),
        "--quiet",
    ]);
    assert!(ok);
    assert!(stderr.is_empty(), "--quiet must silence stderr: {}", stderr);
}

#[test]
fn rebalance_quantifies_the_move() {
    let (ok, stdout, stderr) = run(&[
        "rebalance",
        "--times",
        "1,1,1,1",
        "--new-times",
        "1,1,1,4",
        "--grid",
        "2x2",
        "--nb",
        "16",
    ]);
    assert!(ok, "{}", stderr);
    assert!(stdout.contains("blocks moved"));
    assert!(stdout.contains("gain per run"));
}

#[test]
fn rebalance_counts_moves_by_processor() {
    // Reversed speeds: the re-solve seats every processor where another
    // sat, under the same shares. No block changes grid position, every
    // block changes processor, and the stale plan is priced on the
    // processors that run it.
    let (ok, stdout, stderr) = run(&[
        "rebalance",
        "--times",
        "1,2,3,5",
        "--new-times",
        "5,3,2,1",
        "--grid",
        "2x2",
        "--nb",
        "32",
        "--panel",
        "8x8",
    ]);
    assert!(ok, "{}", stderr);
    assert!(
        stdout.contains("blocks moved by rebalancing : 100.0% of the matrix"),
        "{stdout}"
    );
    assert!(
        stdout.contains("gain per run                : 4.17x"),
        "{stdout}"
    );
}

#[test]
fn argv_edge_values_exit_2() {
    // Values that once panicked or printed NaN: each is refused where it
    // is parsed, with exit 2 and an `error:` line.
    let pool = ["--times", "1,2,3,5", "--grid", "2x2"];
    for (cmd, extra, want) in [
        ("simulate", &["--latency", "-1"][..], "latency must be"),
        (
            "simulate",
            &["--transfer", "nan"][..],
            "block transfer must be",
        ),
        (
            "simulate",
            &["--transfer", "1e308"][..],
            "block transfer must be",
        ),
        ("simulate", &["--nb", "0"][..], "--nb must be >= 1"),
        ("run", &["--nb", "0"][..], "--nb must be >= 1"),
        ("run", &["--block", "0"][..], "--block must be >= 1"),
        (
            "run",
            &["--topology", "star", "--block", "0"][..],
            "--block must be >= 1",
        ),
        (
            "rebalance",
            &["--new-times", "5,3,2,1", "--nb", "0"][..],
            "--nb must be >= 1",
        ),
        (
            "sweep",
            &["--trials", "0", "--max-n", "3"][..],
            "--trials must be >= 1",
        ),
    ] {
        let mut argv = vec![cmd];
        // The sweep draws its own pools and the star takes none.
        if cmd != "sweep" && !extra.contains(&"star") {
            argv.extend(pool);
        }
        argv.extend(extra);
        let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args(&argv)
            .output()
            .expect("failed to launch hetgrid binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{argv:?}: {stderr}");
        assert!(stderr.contains(want), "{argv:?}: {stderr}");
    }
}

/// Every `--flag` the usage text lists for a command that runs and
/// exits, given each edge value on a small valid base command: the run
/// either succeeds without printing `NaN` or is refused with exit 2 —
/// never a panic. The flags come from `hetgrid help`, so a flag is
/// covered the day it is documented. `serve`, `submit` and `top` talk
/// to a server and are left out; no value here parses to a large count.
#[test]
fn every_documented_flag_survives_edge_values() {
    let bases: [(&str, &[&str]); 9] = [
        ("solve", &["--times", "1,2,3,5", "--grid", "2x2"]),
        (
            "distribute",
            &["--times", "1,2,3,5", "--grid", "2x2", "--panel", "4x4"],
        ),
        (
            "run",
            &[
                "--times", "1,2,3,5", "--grid", "2x2", "--kernel", "mm", "--nb", "2", "--block",
                "2",
            ],
        ),
        (
            "simulate",
            &[
                "--times", "1,2,3,5", "--grid", "2x2", "--nb", "4", "--kernel", "mm",
            ],
        ),
        ("sweep", &["--max-n", "2", "--trials", "2"]),
        ("bounds", &["--times", "1,2,3,5", "--grid", "2x2"]),
        ("rank1", &["--times", "1,2,3,5", "--grid", "2x2"]),
        (
            "rebalance",
            &[
                "--times",
                "1,2,3,5",
                "--new-times",
                "5,3,2,1",
                "--grid",
                "2x2",
                "--nb",
                "8",
            ],
        ),
        (
            "adapt",
            &[
                "--times",
                "1,2,3,5",
                "--new-times",
                "5,3,2,1",
                "--grid",
                "2x2",
                "--nb",
                "8",
                "--iters",
                "6",
            ],
        ),
    ];
    let (ok, usage, _) = run(&["help"]);
    assert!(ok);
    // A command's section runs from its line to the next command's or
    // the blank line before the global options.
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in usage.lines() {
        match line.strip_prefix("  ") {
            Some(rest) if !rest.starts_with(' ') => {
                let name = rest.split_whitespace().next().unwrap_or("");
                sections.push((name.to_string(), rest.to_string()));
            }
            Some(rest) if !sections.is_empty() => sections.last_mut().unwrap().1 += rest,
            _ => {}
        }
    }
    let dir = std::env::temp_dir().join(format!("hetgrid-cli-argv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut runs, mut failed) = (0, Vec::new());
    for (cmd, base) in bases {
        let text = &sections
            .iter()
            .find(|(name, _)| name == cmd)
            .unwrap_or_else(|| panic!("{cmd} missing from the usage text"))
            .1;
        let mut flags: Vec<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--") && t.len() > 2)
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert!(!flags.is_empty(), "{cmd}: no flags in {text:?}");
        for flag in flags {
            for value in ["0", "-1", "nan", "inf", "1e308", ""] {
                let mut argv: Vec<&str> = vec![cmd];
                argv.extend_from_slice(base);
                match argv.iter().position(|a| *a == flag) {
                    Some(at) => argv[at + 1] = value,
                    None => argv.extend([flag, value]),
                }
                let (code, stdout, stderr) = run_in(&dir, &argv);
                let nan = code == Some(0) && stdout.contains("NaN");
                if !matches!(code, Some(0 | 2)) || stderr.contains("panicked") || nan {
                    failed.push(format!("{argv:?} exited {code:?}: {stderr}{stdout}"));
                }
                runs += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    assert!(runs > 300, "only {runs} runs");
}

/// Runs the binary in `dir` (so a value taken as a file name lands
/// there), killed after a minute: its exit code, stdout and stderr.
fn run_in(dir: &std::path::Path, argv: &[&str]) -> (Option<i32>, String, String) {
    let (out, err) = (dir.join("stdout"), dir.join("stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
        .args(argv)
        .current_dir(dir)
        .stdout(std::fs::File::create(&out).unwrap())
        .stderr(std::fs::File::create(&err).unwrap())
        .spawn()
        .expect("failed to launch hetgrid binary");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > std::time::Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{argv:?} still running after 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let read =
        |p: &std::path::Path| String::from_utf8_lossy(&std::fs::read(p).unwrap()).into_owned();
    (status.code(), read(&out), read(&err))
}

/// `parity.golden` pins the front half the `cmd/` modules share: every
/// deterministic command on the paper's pool {1,2,3,5} and the rank-1
/// pool {1,2,3,6}, and the error text of every bad `--panel`, `--grid`,
/// `--times`, `--scheme`, `--ordering`, `--kernel` and `--method`. Only
/// the stdout of the passing commands is the parent binary's capture;
/// the file's header says which error texts are the parent's and which
/// are the shared parsers' new wording.
#[test]
fn cli_parity_table() {
    // The exact solver's effort counters depend on which worker finds
    // the incumbent first; everything else it prints does not.
    fn mask(text: &str) -> String {
        let digits = |c: char| if c.is_ascii_digit() { '#' } else { c };
        text.lines()
            .map(|l| match l.starts_with("method: exact (") {
                true => l.chars().map(digits).collect::<String>() + "\n",
                false => l.to_string() + "\n",
            })
            .collect()
    }

    let mut cases: Vec<(&str, String)> = Vec::new();
    for line in include_str!("parity.golden").lines() {
        if let Some(argv) = line.strip_prefix("$ ") {
            cases.push((argv, String::new()));
        } else if let Some((_, want)) = cases.last_mut() {
            want.push_str(line);
            want.push('\n');
        }
    }
    assert!(cases.len() > 100, "golden table truncated");
    let mut diffs = Vec::new();
    for (argv, want) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args(argv.split(' '))
            .output()
            .expect("failed to launch hetgrid binary");
        let mut got = String::from_utf8_lossy(&out.stdout).into_owned();
        if !out.status.success() {
            got.push_str(&format!("! exit {}\n", out.status.code().unwrap_or(-1)));
            got.push_str(&String::from_utf8_lossy(&out.stderr));
        }
        if mask(&got) != mask(want) {
            diffs.push(format!("$ {argv}\n--- want\n{want}--- got\n{got}"));
        }
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

/// The metrics clients render the snapshot the server sends: `submit
/// --op metrics` prints the `serve.*` JSON document, `--format expo`
/// the whole registry as exposition text, `--format series` is refused,
/// and `top --once` draws a dashboard frame.
#[test]
fn metrics_clients_render_the_servers_snapshot() {
    use std::io::BufRead;
    /// Kills the server if an assertion fails before it shuts down.
    struct Serve(std::process::Child);
    impl Drop for Serve {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut server = Serve(
        Command::new(env!("CARGO_BIN_EXE_hetgrid"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("failed to launch hetgrid serve"),
    );
    let mut lines = std::io::BufReader::new(server.0.stdout.take().unwrap()).lines();
    let first = lines.next().expect("a first line").unwrap();
    let addr = first.strip_prefix("listening ").expect(&first).to_string();
    let submit = |extra: &[&str]| run(&[&["submit", "--addr", &addr][..], extra].concat());

    let plan = ["--op", "plan", "--times", "1,2,3,5", "--grid", "2x2"];
    assert!(submit(&plan).0);
    let (ok, json, _) = submit(&["--op", "metrics"]);
    assert!(ok);
    let doc = hetgrid_obs::json::parse(&json).expect("the JSON document parses");
    let misses = doc
        .get("counters")
        .and_then(|c| c.get("serve.cache.misses"));
    assert_eq!(misses.and_then(|v| v.as_f64()), Some(1.0), "{json}");
    assert!(!json.contains("exec."), "{json}");

    let (ok, expo, _) = submit(&["--op", "metrics", "--format", "expo"]);
    assert!(ok);
    let line = "serve_cache_misses{name=\"serve.cache.misses\"} 1";
    assert!(expo.contains("# TYPE serve_cache_misses counter"), "{expo}");
    assert!(expo.lines().any(|l| l == line), "{expo}");

    let (ok, _, err) = submit(&["--op", "metrics", "--format", "series"]);
    assert!(
        !ok && err.starts_with("error: unknown format: series"),
        "{err}"
    );

    let (ok, frame, _) = run(&["top", "--addr", &addr, "--once"]);
    assert!(ok && frame.contains("cache      hit ratio"), "{frame}");

    assert!(submit(&["--op", "shutdown"]).0);
    assert!(server.0.wait().expect("serve exits").success());
    // At exit the server prints its `serve.*` metrics as exposition text.
    let dump: Vec<String> = lines.map(Result::unwrap).collect();
    assert!(dump.iter().any(|l| l == line), "{dump:?}");
    assert!(
        dump.iter().all(|l| l.contains("serve") || l.is_empty()),
        "{dump:?}"
    );
}
