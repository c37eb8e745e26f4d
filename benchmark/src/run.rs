//! One run of one workload: set-up, the closed loop, the result line.
//!
//! One driver thread, one TCP connection, closed loop: the next op is
//! submitted when the previous one is verified. The executor's one
//! thread per virtual processor is the program's own design; the load
//! generator adds no threads of its own.

use crate::exec_wl::{ExecWorkload, Kind};
use crate::floor::{kernel_times, timed_median, KernelTimes};
use crate::host;
use crate::names::{end_to_end_defs, Metrics, PER_LAYER, WORKLOADS};
use crate::plan_serve::{self, PlanServe};
use crate::probes::{self, ProbeCfg};
use crate::span::{chrome_json, layer_seconds, Layer, Span, Tracer};
use crate::stats::{median, percentile, sort};
use hetgrid_exec::DistributedMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Full set-up passes in a timed run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One set-up pass, small blocks, few traced ops: every code path
    /// in seconds, for `cargo test`.
    pub smoke: bool,
    /// Where the result record and the trace go.
    pub out_dir: String,
}

pub enum Workload {
    Exec(Box<ExecWorkload>),
    Serve(Box<PlanServe>),
}

impl Workload {
    pub fn setup(a: &Args) -> Result<Self, String> {
        Ok(match a.workload.as_str() {
            "plan_serve" => Workload::Serve(Box::new(PlanServe::setup(a.seed, a.smoke)?)),
            name => Workload::Exec(Box::new(ExecWorkload::setup(name, a.seed, a.smoke)?)),
        })
    }

    /// One op. Returns the seconds from submit to the result in the
    /// driver's hands; verification follows and is not in that time. A
    /// traced op sits in a root span that also covers verification.
    pub fn op(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let traced = tr.is_on();
        let root = tr.open(Layer::Bench, "op");
        let t0 = Instant::now();
        let mut to_replay = None;
        let result = match self {
            Workload::Exec(w) => w.submit(tr).and_then(|out| {
                let dt = t0.elapsed().as_secs_f64();
                tr.call(Layer::Bench, "verify", || w.verify(out, traced))
                    .map(|()| dt)
            }),
            Workload::Serve(w) => w.submit(tr).and_then(|out| {
                let dt = t0.elapsed().as_secs_f64();
                let ok = tr.call(Layer::Bench, "verify", || w.verify(&out, traced));
                to_replay = traced.then_some(out);
                ok.map(|()| dt)
            }),
        };
        tr.close(root);
        if let Some(out) = to_replay {
            plan_serve::replay(&out, tr);
        }
        result
    }

    fn seq_baseline_s(&self) -> f64 {
        match self {
            Workload::Exec(w) => w.seq_baseline_s,
            Workload::Serve(w) => w.seq_baseline_s,
        }
    }
}

/// What a stretch of ops showed.
#[derive(Default)]
struct OpsLog {
    /// Submit-to-result seconds of each op that verified, ascending.
    sorted: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl OpsLog {
    fn absorb(&mut self, other: OpsLog) {
        self.sorted.extend(other.sorted);
        sort(&mut self.sorted);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

/// Runs ops until `stop(ops so far, seconds so far)`. An op that fails
/// (error or mismatch) counts in `failed` and the loop goes on.
fn run_ops(w: &mut Workload, tr: &mut Tracer, mut stop: impl FnMut(u64, f64) -> bool) -> OpsLog {
    let mut log = OpsLog::default();
    let t0 = Instant::now();
    while !stop(log.attempted, t0.elapsed().as_secs_f64()) {
        tr.set_op(log.attempted as u32);
        log.attempted += 1;
        match w.op(tr) {
            Ok(dt) => log.sorted.push(dt),
            Err(e) => {
                log.failed += 1;
                if log.failed <= 3 {
                    eprintln!("op {} failed: {e}", log.attempted);
                }
            }
        }
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    sort(&mut log.sorted);
    log
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The timed run: end-to-end metrics, tracing off.
///
/// The window is split over the set-up passes: set up, measure a third
/// of the window, drop everything, set up again. What one instance
/// happens to get (where its matrices land in memory, which cache
/// entries sit where) then averages out inside a run instead of
/// showing as a difference between runs.
fn timed(a: &Args) -> Result<Outcome, String> {
    let passes = if a.smoke { 1 } else { SETUP_PASSES };
    let segment = a.seconds as f64 / passes as f64;
    let mut pass_s = Vec::with_capacity(passes);
    let mut log = OpsLog::default();
    let mut first_pass_hwm = None;
    for _ in 0..passes {
        let t0 = Instant::now();
        let mut w = Workload::setup(a)?;
        pass_s.push(t0.elapsed().as_secs_f64());
        let part = run_ops(&mut w, &mut Tracer::new(false), |_, t| t >= segment);
        // The high-water mark of the first pass: later passes add what
        // the allocator kept of the earlier ones, which differs from
        // run to run by more than any change to the program would.
        let hwm = host::peak_rss_mib()?;
        first_pass_hwm.get_or_insert(hwm);
        eprintln!(
            "  pass: set-up {:.3} s, {} ops, p50 {:.6} s, high-water mark {hwm:.1} MiB",
            pass_s.last().expect("just pushed"),
            part.sorted.len(),
            percentile(&part.sorted, 0.5),
        );
        log.absorb(part);
    }
    if log.sorted.is_empty() {
        return Err("no op completed and verified in the window".into());
    }
    let mut m = Metrics::new(&end_to_end_defs());
    m.set("op_p50_s", percentile(&log.sorted, 0.5));
    m.set("ops_per_s", log.sorted.len() as f64 / log.wall_s);
    m.set("setup_s", median(&pass_s));
    m.set("peak_rss_mb", first_pass_hwm.expect("at least one pass"));
    eprintln!(
        "{}: {} ops in {:.2} s, p50 {:.6} s, p90 {:.6} s, max {:.6} s",
        a.workload,
        log.sorted.len(),
        log.wall_s,
        percentile(&log.sorted, 0.5),
        percentile(&log.sorted, 0.9),
        log.sorted.last().copied().unwrap_or(0.0),
    );
    Ok(Outcome {
        attempted: log.attempted,
        failed: log.failed,
        metrics: m,
    })
}

fn trace_ops(a: &Args) -> u64 {
    match (a.smoke, a.workload.as_str()) {
        (true, _) => 3,
        (false, "plan_serve") => 150,
        (false, _) => 40,
    }
}

fn mean_span_s(spans: &[Span], name: &str, ops: f64) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum::<f64>()
        / ops
}

/// The traced run: a fixed number of ops untraced, the same number
/// traced, then the layer probes. Counts are per op.
fn traced(a: &Args) -> Result<Outcome, String> {
    let mut w = Workload::setup(a)?;
    let n = trace_ops(a);
    let mut m = Metrics::new(&PER_LAYER);
    let cores = host::threads();
    m.set("host.threads", cores as f64);

    let calib_before = host::calibrate();
    let plain = run_ops(&mut w, &mut Tracer::new(false), |ops, _| ops >= n);
    let serve_before = hetgrid_obs::metrics().snapshot();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let with_spans = run_ops(&mut w, &mut tr, |ops, _| ops >= n);
    let serve_delta = hetgrid_obs::metrics().snapshot().delta(&serve_before);
    let calib_after = host::calibrate();
    eprintln!("traced ops took {:.2} s", t0.elapsed().as_secs_f64());
    if plain.sorted.is_empty() || with_spans.sorted.is_empty() {
        return Err("no traced op completed and verified".into());
    }
    let ops = n as f64;
    let spans = tr.spans();
    let p50 = percentile(&plain.sorted, 0.5);
    m.set("host.calib_s", calib_before);
    m.set("host.calib_drift", (calib_after / calib_before - 1.0).abs());
    m.set("tail.op_p90_s", percentile(&plain.sorted, 0.9));
    m.set("tail.op_max_s", *plain.sorted.last().expect("non-empty"));
    m.set("tail.op_count", plain.sorted.len() as f64);
    m.set(
        "obs.trace_overhead",
        percentile(&with_spans.sorted, 0.5) / p50,
    );
    m.set("obs.spans_per_op", spans.len() as f64 / ops);
    m.set("obs.traced_ops", ops);
    m.set("linalg.seq_baseline_s", w.seq_baseline_s());

    // The server's own counters over the traced ops, per op.
    let hits = serve_delta.counter("serve.cache.hits") as f64;
    let misses = serve_delta.counter("serve.cache.misses") as f64;
    m.set("serve.cache_hit_ratio", hits / (hits + misses));
    m.set(
        "serve.cache_evictions",
        serve_delta.counter("serve.cache.evictions") as f64 / ops,
    );
    m.set(
        "serve.solver_invocations",
        serve_delta.counter("serve.solver.invocations") as f64 / ops,
    );

    // The budget: self time of the op's spans by layer. Work the
    // server did inside a request is re-run in replay spans and moved
    // from serve to the layer that did it; block-kernel time inside
    // `exec::run_*` is the kernel floor and moved from exec to linalg.
    let in_op = layer_seconds(spans, |s| !s.replay);
    let replayed = layer_seconds(spans, |s| s.replay);
    let op_wall: f64 = mean_span_s(spans, "op", ops);
    let mut budget = [0.0; 7];
    for (i, slot) in budget.iter_mut().enumerate() {
        *slot = (in_op[i] + replayed[i]) / ops;
    }
    let moved: f64 = replayed.iter().sum::<f64>() / ops;
    budget[0] = (budget[0] - moved).max(0.0);
    m.set(
        "serve.hot_share",
        mean_span_s(spans, "request_hot", ops) / op_wall,
    );

    let (cfg, times) = match &mut w {
        Workload::Exec(w) => {
            let times = kernel_times(w.shape.r, 30);
            exec_metrics(w, spans, ops, cores, &times, p50, &mut m)?;
            let floor = m.get("exec.kernel_floor_s");
            budget[4] = (budget[4] - floor).max(0.0);
            budget[5] += floor;
            m.set("sim.counts_match", f64::from(u8::from(w.counts_matched)));
            let cfg = ProbeCfg {
                times: w.shape.times.to_vec(),
                p: 2,
                q: 2,
                nb: w.stages[0].nb,
                r: w.shape.r,
                kind: w.stages[0].kind,
            };
            (cfg, times)
        }
        Workload::Serve(w) => {
            m.set("serve.response_bytes", w.response_bytes as f64 / ops);
            m.set("sim.counts_match", f64::from(u8::from(w.counts_matched)));
            let r = if a.smoke { 32 } else { 64 };
            let cfg = ProbeCfg {
                times: (0..16).map(|i| 1.0 + ((i * 7) % 16) as f64 * 0.5).collect(),
                p: plan_serve::P,
                q: plan_serve::Q,
                nb: plan_serve::NB,
                r,
                kind: Kind::Lu,
            };
            (cfg, kernel_times(r, 30))
        }
    };
    for (layer, seconds) in Layer::ALL.iter().zip(budget) {
        m.set(&format!("budget.{}_s", layer.name()), seconds);
    }
    m.set("budget.coverage", budget.iter().sum::<f64>() / op_wall);

    probes::linalg(cfg.r, &times, &mut m);
    probes::serve(&cfg, &mut m)?;
    probes::core(&cfg, &mut m);
    probes::dist_plan_sim(&cfg, &mut m);

    let path = format!("{}/{}.trace.json", a.out_dir, a.workload);
    write_out(&path, &chrome_json(spans))?;
    Ok(Outcome {
        attempted: plain.attempted + with_spans.attempted,
        failed: plain.failed + with_spans.failed,
        metrics: m,
    })
}

/// `exec.*` of the traced ops and the probes that replay what a
/// `run_*` call does inside.
fn exec_metrics(
    w: &mut ExecWorkload,
    spans: &[Span],
    ops: f64,
    cores: usize,
    times: &KernelTimes,
    op_p50: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let r = w.shape.r;
    let mut floor = 0.0;
    let (mut messages, mut work) = (0u64, 0u64);
    for stage in &w.stages {
        floor += stage.block_ops.cpu_seconds(times) / stage.workers.min(cores) as f64;
        messages += stage.messages;
        work += stage.work_units;
    }
    let run_s = w.reports.iter().map(|r| r.wall_seconds).sum::<f64>() / ops;
    let busiest = |rep: &hetgrid_exec::ExecReport| {
        rep.busy_seconds
            .iter()
            .flatten()
            .fold(0.0f64, |a, b| a.max(*b))
    };
    m.set("exec.run_s", run_s);
    m.set("exec.kernel_floor_s", floor);
    m.set("exec.efficiency", floor / run_s);
    m.set(
        "exec.busy_max_s",
        w.reports.iter().map(busiest).sum::<f64>() / ops,
    );
    m.set(
        "exec.imbalance",
        w.reports.iter().map(|r| r.imbalance()).sum::<f64>() / w.reports.len() as f64,
    );
    m.set("exec.messages", messages as f64);
    m.set("exec.work_units", work as f64);
    // Computed, not measured: every message carries one r x r block.
    m.set(
        "exec.bytes_computed",
        (messages * 8 * (r * r) as u64) as f64,
    );
    m.set(
        "exec.workers",
        w.stages.iter().map(|s| s.workers).max().unwrap_or(0) as f64,
    );
    m.set("exec.speedup_vs_seq", w.seq_baseline_s / op_p50);
    for (name, kind) in [
        ("exec.cholesky_s", Kind::Cholesky),
        ("exec.qr_s", Kind::Qr),
        ("exec.star_mm_s", Kind::StarMm),
    ] {
        m.set(name, mean_span_s(spans, kind.span_name(), ops));
    }

    let reps = 3;
    let in_order = w.stage_at_depth(0, 0, reps)?;
    let lookahead = w.stage_at_depth(0, 2, reps)?;
    m.set("exec.lookahead_gain", in_order / lookahead);

    // Stalls and pool hits are counters the executor publishes only
    // while its own tracing is on: one op with it on, events discarded.
    hetgrid_obs::trace::set_enabled(true);
    let before = hetgrid_obs::metrics().snapshot();
    let probe_op = w
        .submit(&mut Tracer::new(false))
        .and_then(|out| w.verify(out, false));
    hetgrid_obs::trace::set_enabled(false);
    hetgrid_obs::trace::clear();
    probe_op?;
    let d = hetgrid_obs::metrics().snapshot().delta(&before);
    let stalls: u64 = d
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.p") && k.ends_with(".stalls"))
        .map(|(_, v)| *v)
        .sum();
    let (hits, misses) = (
        d.counter("exec.pool.hits") as f64,
        d.counter("exec.pool.misses") as f64,
    );
    m.set("exec.stalls", stalls as f64);
    m.set("exec.pool_hit_ratio", hits / (hits + misses).max(1.0));

    let n_inputs = if w.stages[0].kind == Kind::Mm {
        2.0
    } else {
        1.0
    };
    let (f, a, nb) = w.first_stage()?;
    m.set(
        "exec.scatter_s",
        n_inputs
            * timed_median(5, || {
                black_box(DistributedMatrix::scatter(black_box(a), &f.dist, nb, r));
            }),
    );
    let scattered = DistributedMatrix::scatter(a, &f.dist, nb, r);
    m.set(
        "exec.gather_s",
        timed_median(5, || {
            black_box(black_box(&scattered).gather());
        }),
    );
    Ok(())
}

fn write_out(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs the workload, writes `benchmark/out/<workload>.<seed>.json`
/// (one line, so result files concatenate into a set for `compare`),
/// and prints the result line last. Returns whether every op verified.
pub fn run(a: &Args) -> Result<bool, String> {
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {})",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    let outcome = if a.trace { traced(a)? } else { timed(a)? };
    let correct = outcome.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()?
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"host.threads\": {}, \"result\": {result}}}\n",
        a.workload,
        a.seed,
        u8::from(a.trace),
        a.seconds,
        a.smoke,
        host::commit(),
        host::rustc(),
        host::threads(),
    );
    let suffix = if a.trace { ".traced" } else { "" };
    write_out(
        &format!("{}/{}.{}{suffix}.json", a.out_dir, a.workload, a.seed),
        &record,
    )?;
    println!("{result}");
    Ok(correct)
}
