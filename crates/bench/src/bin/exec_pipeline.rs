//! Lookahead executor benchmark: dependency-aware out-of-order step
//! execution vs strict in-order, on the threaded executor with real
//! data, emulated heterogeneity, and an emulated interconnect latency.
//!
//! The paper's target environment (and the TSQR-on-grids work the issue
//! cites) is latency-bound: a panel broadcast costs real time during
//! which an in-order processor simply waits, while the lookahead driver
//! pulls ready work from the next step instead. To make that waiting
//! *observable as wall-clock* regardless of how many host cores the
//! bench machine has, messages travel through [`LatencyTransport`] — a
//! channel transport whose receivers sleep until a message's delivery
//! deadline. In-order execution serializes those sleeps into the
//! makespan; the out-of-order driver overlaps them with trailing
//! updates. Compute itself is the real block kernels under the usual
//! slowdown-weight heterogeneity emulation.
//!
//! For each (kernel, grid) configuration the factorization runs at
//! lookahead depths 0/1/2/4 and the minimum wall time over a few
//! repetitions is recorded, plus the speedup of the best out-of-order
//! depth over in-order. Results land in `BENCH_exec.json` at the repo
//! root. Usage: `exec_pipeline [--smoke]` — `--smoke` shrinks problem
//! sizes so CI exercises the full path in seconds (timings on shared
//! runners are reported, not asserted).

use hetgrid_bench::report::{write_bench, JsonWriter};
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{PanelDist, PanelOrdering};
use hetgrid_exec::channel::{unbounded, Receiver, Sender};
use hetgrid_exec::{run, slowdown_weights, Closed, Endpoint, ExecConfig, Transport};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DEPTHS: [usize; 4] = [0, 1, 2, 4];

/// A channel transport with a fixed per-message delivery latency:
/// `recv` sleeps until the earliest pending message is due, `try_recv`
/// only surfaces messages whose deadline has passed. This turns
/// communication waits into real wall time, so the benchmark measures
/// how much of that time each scheduling mode hides behind compute.
struct LatencyTransport {
    latency: Duration,
}

struct LatencyEndpoint<T> {
    txs: Vec<Sender<(Instant, T)>>,
    rx: Receiver<(Instant, T)>,
    /// Messages pulled off the channel but not yet due.
    held: Mutex<VecDeque<(Instant, T)>>,
    latency: Duration,
}

impl<T> LatencyEndpoint<T> {
    /// Moves everything currently queued on the channel into `held`.
    fn drain_channel(&self, held: &mut VecDeque<(Instant, T)>) {
        while let Ok(Some(pair)) = self.rx.try_recv() {
            held.push_back(pair);
        }
    }
}

impl<T: Send> Endpoint<T> for LatencyEndpoint<T> {
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed> {
        let due = Instant::now() + self.latency;
        self.txs[dest].send((due, msg)).map_err(|_| Closed)
    }

    fn recv(&self) -> Result<T, Closed> {
        let mut held = self.held.lock().unwrap();
        self.drain_channel(&mut held);
        if held.is_empty() {
            let pair = self.rx.recv().map_err(|_| Closed)?;
            held.push_back(pair);
        }
        let idx = held
            .iter()
            .enumerate()
            .min_by_key(|(_, (due, _))| *due)
            .map(|(i, _)| i)
            .expect("held is non-empty");
        let (due, msg) = held.remove(idx).expect("index in bounds");
        drop(held);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Ok(msg)
    }

    fn try_recv(&self) -> Result<Option<T>, Closed> {
        let mut held = self.held.lock().unwrap();
        self.drain_channel(&mut held);
        let now = Instant::now();
        if let Some(idx) = held.iter().position(|(due, _)| *due <= now) {
            return Ok(Some(held.remove(idx).expect("index in bounds").1));
        }
        Ok(None)
    }

    fn abort(&self) {
        for tx in &self.txs {
            tx.poison();
        }
    }
}

impl Transport for LatencyTransport {
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .map(|rx| {
                Box::new(LatencyEndpoint {
                    txs: txs.clone(),
                    rx,
                    held: Mutex::new(VecDeque::new()),
                    latency: self.latency,
                }) as Box<dyn Endpoint<T>>
            })
            .collect()
    }
}

struct GridCase {
    name: &'static str,
    rows: Vec<Vec<f64>>,
}

fn grid_cases() -> Vec<GridCase> {
    vec![
        GridCase {
            name: "uniform-2x2",
            rows: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        },
        GridCase {
            name: "mild-2x2",
            rows: vec![vec![1.0, 1.5], vec![1.5, 2.0]],
        },
        GridCase {
            name: "skewed-2x2",
            rows: vec![vec![1.0, 2.0], vec![3.0, 5.0]],
        },
        GridCase {
            name: "skewed-3x3",
            rows: vec![
                vec![1.0, 1.0, 2.0],
                vec![1.0, 3.0, 4.0],
                vec![2.0, 4.0, 6.0],
            ],
        },
    ]
}

fn dominant(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64;
    }
    m
}

fn spd(n: usize, seed: u64) -> Matrix {
    let b = dominant(n, seed);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Minimum wall time of `reps` runs of `f` (min, not mean: scheduling
/// noise on shared machines only ever adds time).
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nb, r, reps, latency_us) = if smoke {
        (8, 8, 2, 300u64)
    } else {
        (12, 16, 3, 500u64)
    };
    let n = nb * r;
    let transport = LatencyTransport {
        latency: Duration::from_micros(latency_us),
    };

    let mut json = JsonWriter::new();
    json.bool_field("smoke", smoke)
        .int("nb", nb as u64)
        .int("r", r as u64)
        .int("latency_us", latency_us)
        .int_array("depths", &[0, 1, 2, 4])
        .open_array("configs");

    let cases = grid_cases();
    let mut best_overall: (f64, String) = (0.0, String::new());
    for case in &cases {
        let arr = Arrangement::from_rows(&case.rows);
        let flat: Vec<f64> = case.rows.iter().flatten().copied().collect();
        let ratio = flat.iter().fold(f64::MIN, |a, &b| a.max(b))
            / flat.iter().fold(f64::MAX, |a, &b| a.min(b));
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(
            &arr,
            &sol.alloc,
            2 * arr.p(),
            2 * arr.q(),
            PanelOrdering::Interleaved,
        );
        let weights = slowdown_weights(&arr);
        // MM's panel broadcasts depend on nothing but the read-only
        // inputs, so a deeper window sends them several steps ahead and
        // hides the interconnect latency entirely — the cleanest
        // pipelining case.
        let cases = [
            (Kernel::Mm, vec![dominant(n, 0xE0), dominant(n, 0xE3)]),
            (Kernel::Lu, vec![dominant(n, 0xE1)]),
            (Kernel::Cholesky, vec![spd(n, 0xE2)]),
        ];
        for (kernel, inputs) in &cases {
            let inputs: Vec<&Matrix> = inputs.iter().collect();
            let mut times_ms = Vec::new();
            for &depth in &DEPTHS {
                let cfg = ExecConfig { lookahead: depth };
                let secs = time_min(reps, || {
                    run(&transport, *kernel, &inputs, &dist, nb, r, &weights, cfg)
                        .expect("bench run failed");
                });
                times_ms.push(secs * 1e3);
            }
            let in_order = times_ms[0];
            let best_ooo = times_ms[1..].iter().copied().fold(f64::INFINITY, f64::min);
            let speedup = in_order / best_ooo;
            println!(
                "{:>8} {:<11} ratio {:>4.1}: in-order {:>8.2} ms, depths 1/2/4 \
                 {:>8.2} / {:>8.2} / {:>8.2} ms -> best speedup {:.2}x",
                kernel.name(),
                case.name,
                ratio,
                times_ms[0],
                times_ms[1],
                times_ms[2],
                times_ms[3],
                speedup
            );
            if speedup > best_overall.0 {
                best_overall = (speedup, format!("{} on {}", kernel.name(), case.name));
            }
            json.open_element()
                .str_field("kernel", kernel.name())
                .str_field("grid", case.name)
                .num("hetero_ratio", ratio, 2)
                .num_array("ms_by_depth", &times_ms, 3)
                .num("speedup_best", speedup, 3)
                .close();
        }
    }
    json.close();
    json.num("best_speedup", best_overall.0, 3)
        .str_field("best_config", &best_overall.1);
    println!(
        "best lookahead speedup: {:.2}x ({})",
        best_overall.0, best_overall.1
    );

    write_bench("BENCH_exec.json", &json.finish());
}
