//! The three executor workloads: `mm_grid`, `lu_grid`, `chol_qr_star`.
//!
//! One op runs each of the workload's stages. A grid stage is what a
//! client of `hetgrid serve` does with a plan: a hot `Plan` request over
//! loopback TCP, decode, rebuild the arrangement and the panel
//! distribution from the solved shares, take the slowdown weights, and
//! hand the matrices to `exec::run_*_on_cfg` with the default config
//! (scatter, plan, hazard graph, one thread per virtual processor over
//! `ChannelTransport`, gather). The star stage has no serve endpoint and
//! calls `exec::run_star_mm_on_cfg`.

use crate::floor::{block_ops, BlockOps};
use crate::rng::Rng;
use crate::span::{Layer, Tracer};
use hetgrid_core::{Allocation, Arrangement, Topology};
use hetgrid_dist::{BlockDist, PanelDist, PanelOrdering};
use hetgrid_exec::{
    qr_unpack, run_cholesky_on_cfg, run_lu_on_cfg, run_mm_on_cfg, run_qr_on_cfg,
    run_star_mm_on_cfg, slowdown_weights, ChannelTransport, ExecConfig, ExecReport,
};
use hetgrid_linalg::cholesky::cholesky_blocked;
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::lu::lu_factor_blocked;
use hetgrid_linalg::qr::qr_blocked;
use hetgrid_linalg::Matrix;
use hetgrid_plan::Plan;
use hetgrid_serve::{
    Client, Kernel, PlanSpec, Request, RequestBody, Response, ServerHandle, ServiceConfig,
    SolveSpec,
};
use hetgrid_sim::counts::{self, KernelCounts};
use std::time::Instant;

/// Which executor a stage drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Mm,
    Lu,
    Cholesky,
    Qr,
    StarMm,
}

impl Kind {
    /// Name of the span around the stage's `exec::run_*` call.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Mm => "run_mm",
            Kind::Lu => "run_lu",
            Kind::Cholesky => "run_cholesky",
            Kind::Qr => "run_qr",
            Kind::StarMm => "run_star_mm",
        }
    }

    /// The executor kind of a serve kernel.
    pub fn of(kernel: Kernel) -> Kind {
        match kernel {
            Kernel::Mm => Kind::Mm,
            Kernel::Lu => Kind::Lu,
            Kernel::Cholesky => Kind::Cholesky,
            Kernel::Qr => Kind::Qr,
        }
    }

    /// The grid plan of this kind over `dist`.
    ///
    /// # Panics
    /// Panics for `StarMm`, whose plan comes from a topology.
    pub fn plan(self, dist: &dyn BlockDist, nb: usize) -> Plan {
        match self {
            Kind::Mm => hetgrid_plan::mm_plan(dist, nb),
            Kind::Lu => hetgrid_plan::factor_plan(dist, nb),
            Kind::Cholesky => hetgrid_plan::cholesky_plan(dist, nb),
            Kind::Qr => hetgrid_plan::qr_plan(dist, nb),
            Kind::StarMm => panic!("a star plan has no block distribution"),
        }
    }

    /// The `sim::counts` fold of a plan of this kind.
    pub fn fold(self, plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
        match self {
            Kind::Mm => counts::mm_counts_from_plan(plan, weights),
            Kind::Lu => counts::factor_counts_from_plan(plan, 1, weights),
            Kind::Cholesky => counts::cholesky_counts_from_plan(plan, weights),
            Kind::Qr => counts::qr_counts_from_plan(plan, weights),
            Kind::StarMm => counts::star_mm_counts_from_plan(plan, weights),
        }
    }

    fn serve_kernel(self) -> Option<Kernel> {
        match self {
            Kind::Mm => Some(Kernel::Mm),
            Kind::Lu => Some(Kernel::Lu),
            Kind::Cholesky => Some(Kernel::Cholesky),
            Kind::Qr => Some(Kernel::Qr),
            Kind::StarMm => None,
        }
    }
}

/// Sizes of one workload. `r` is the block order, `nb` blocks per side.
pub struct Shape {
    pub times: [f64; 4],
    pub r: usize,
    pub stages: &'static [(Kind, usize)],
    /// Ops run in set-up after the first verified one. Set-up is a fixed
    /// amount of work, never a fixed time; raise this (never a bound) if
    /// `setup_s` stops repeating.
    pub warmup_ops: usize,
}

/// Star platform of `chol_qr_star`: three workers of 21 blocks each.
/// The fastest of the four processors is the master (it computes
/// nothing); the workers' cycle-times {2,2,3} over the fastest worker,
/// rounded, are their slowdown weights.
const STAR_WORKERS: usize = 3;
const STAR_WORKER_MEM: usize = 21;
const STAR_WEIGHTS: [u64; 4] = [1, 1, 1, 2];

pub fn shape(workload: &str, smoke: bool) -> Option<Shape> {
    // The paper's section 3.1.2 grid, and a milder one the LU skew
    // clamp leaves alone.
    const SKEWED: [f64; 4] = [1.0, 2.0, 3.0, 5.0];
    const MILD: [f64; 4] = [1.0, 2.0, 2.0, 3.0];
    let (times, stages, warmup_ops): (_, &'static [(Kind, usize)], _) = match workload {
        "mm_grid" => (SKEWED, &[(Kind::Mm, 9)], 16),
        "lu_grid" => (SKEWED, &[(Kind::Lu, 12)], 10),
        "chol_qr_star" => (
            MILD,
            &[(Kind::Cholesky, 8), (Kind::Qr, 3), (Kind::StarMm, 5)],
            10,
        ),
        _ => return None,
    };
    Some(Shape {
        times,
        // A smoke run keeps every code path and shrinks the blocks.
        r: if smoke { 32 } else { 128 },
        stages,
        warmup_ops: if smoke { 1 } else { warmup_ops },
    })
}

/// The result of a stage that set-up checked against the sequential
/// reference; every later op must reproduce it bit for bit.
struct Verified {
    out: Matrix,
    taus: Vec<f64>,
}

pub struct Stage {
    pub kind: Kind,
    pub nb: usize,
    inputs: Vec<Matrix>,
    request: Option<Request>,
    verified: Option<Verified>,
    /// Message and work totals the `sim::counts` fold of the plan
    /// predicts; every op's `ExecReport` must show exactly these.
    pub messages: u64,
    pub work_units: u64,
    pub block_ops: BlockOps,
    pub workers: usize,
}

pub struct StageOut {
    out: Matrix,
    taus: Vec<f64>,
    pub report: ExecReport,
}

pub struct ExecWorkload {
    pub shape: Shape,
    pub stages: Vec<Stage>,
    _server: ServerHandle,
    client: Client,
    star: Topology,
    star_weights: Vec<Vec<u64>>,
    /// Seconds the single-threaded `linalg` reference of the same
    /// problems took in set-up.
    pub seq_baseline_s: f64,
    /// Reports of traced ops, one per stage per op.
    pub reports: Vec<ExecReport>,
    pub counts_matched: bool,
}

fn random(rng: &mut Rng, n: usize) -> Matrix {
    Matrix::from_fn(n, n, |_, _| rng.range(-1.0, 1.0))
}

/// Symmetric and diagonally dominant: SPD for Cholesky, and safe for LU
/// without pivoting (partial pivoting would swap nothing).
fn dominant(rng: &mut Rng, n: usize) -> Matrix {
    let m = random(rng, n);
    Matrix::from_fn(n, n, |i, j| {
        let sym = 0.5 * (m[(i, j)] + m[(j, i)]);
        if i == j {
            sym + n as f64
        } else {
            sym
        }
    })
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `max |x - y|`, with the check it stays within `tol`.
fn close(what: &str, x: &Matrix, y: &Matrix, tol: f64) -> Result<(), String> {
    let err = x.sub(y).max_abs();
    if err <= tol {
        Ok(())
    } else {
        Err(format!("{what}: max-abs error {err:e} exceeds {tol:e}"))
    }
}

/// The distribution the server builds for a solved instance
/// (`serve::service::dist_for`): up to four panel rows and columns per
/// grid row and column, clamped to the block count.
pub fn panel_dist(arr: &Arrangement, alloc: &Allocation, nb: usize) -> PanelDist {
    let bp = nb.min(4 * arr.p()).max(arr.p());
    let bq = nb.min(4 * arr.q()).max(arr.q());
    PanelDist::from_allocation(arr, alloc, bp, bq, PanelOrdering::Interleaved)
}

pub fn plan_request(times: &[f64], p: usize, q: usize, kernel: Kernel, nb: usize) -> Request {
    Request {
        tenant: "bench".into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p,
                q,
                times: times.to_vec(),
            },
            kernel,
            nb,
        }),
    }
}

/// What a client needs from a `Plan` response to run the kernel.
pub struct Fetched {
    pub plan: Plan,
    pub arr: Arrangement,
    pub dist: PanelDist,
    pub weights: Vec<Vec<u64>>,
}

/// One `Plan` request and the client-side work that turns the response
/// into executor inputs, each call in its layer's span.
pub fn fetch(
    client: &mut Client,
    request: &Request,
    nb: usize,
    tr: &mut Tracer,
) -> Result<Fetched, String> {
    let resp = tr
        .call(Layer::Serve, "request_hot", || client.request(request))
        .map_err(|e| format!("plan request: {e}"))?;
    let Response::Plan(pr) = resp else {
        return Err(format!("plan request answered {}", resp.status()));
    };
    let plan = tr
        .call(Layer::Plan, "wire_decode", || {
            hetgrid_plan::wire::decode(&pr.plan_bytes)
        })
        .map_err(|e| format!("plan bytes: {e}"))?;
    if plan.steps.len() != nb {
        return Err(format!("plan has {} steps, want {nb}", plan.steps.len()));
    }
    let s = pr.solve;
    let (arr, alloc) = tr.call(Layer::Core, "arrangement", || {
        (
            Arrangement::try_from_times(s.p, s.q, s.times),
            Allocation::new(s.rows, s.cols),
        )
    });
    let arr = arr.map_err(|e| format!("solved arrangement: {e}"))?;
    let dist = tr.call(Layer::Dist, "from_allocation", || {
        panel_dist(&arr, &alloc, nb)
    });
    let weights = tr.call(Layer::Exec, "slowdown_weights", || slowdown_weights(&arr));
    Ok(Fetched {
        plan,
        arr,
        dist,
        weights,
    })
}

impl ExecWorkload {
    /// Fixed, seed-determined set-up work: inputs, server, cold
    /// requests, first results checked against the sequential `linalg`
    /// reference, then `warmup_ops` ops.
    pub fn setup(workload: &str, seed: u64, smoke: bool) -> Result<Self, String> {
        let shape = shape(workload, smoke).ok_or_else(|| format!("no workload {workload}"))?;
        let mut rng = Rng::new(seed);
        let r = shape.r;
        let server = hetgrid_serve::spawn("127.0.0.1:0", ServiceConfig::default())
            .map_err(|e| format!("spawning the server: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
        let stages = shape
            .stages
            .iter()
            .map(|&(kind, nb)| {
                let n = nb * r;
                let inputs = match kind {
                    Kind::Mm | Kind::StarMm => vec![random(&mut rng, n), random(&mut rng, n)],
                    Kind::Lu | Kind::Cholesky => vec![dominant(&mut rng, n)],
                    Kind::Qr => vec![random(&mut rng, n)],
                };
                Stage {
                    kind,
                    nb,
                    inputs,
                    request: kind
                        .serve_kernel()
                        .map(|k| plan_request(&shape.times, 2, 2, k, nb)),
                    verified: None,
                    messages: 0,
                    work_units: 0,
                    block_ops: BlockOps::default(),
                    workers: 0,
                }
            })
            .collect();
        let mut w = ExecWorkload {
            shape,
            stages,
            _server: server,
            client,
            star: Topology::Star {
                workers: STAR_WORKERS,
                worker_mem: STAR_WORKER_MEM,
                master_bw: 1.0,
            },
            star_weights: vec![STAR_WEIGHTS.to_vec()],
            seq_baseline_s: 0.0,
            reports: Vec::new(),
            counts_matched: true,
        };
        // The first op is the cold one: its requests miss the cache.
        let mut off = Tracer::new(false);
        let first = w.submit(&mut off)?;
        for (i, out) in first.into_iter().enumerate() {
            w.check_against_reference(i, out)?;
        }
        for _ in 0..w.shape.warmup_ops {
            let out = w.submit(&mut off)?;
            w.verify(out, false)?;
        }
        Ok(w)
    }

    /// Stage `i`'s plan as the executor will build it, with the weights
    /// it will run under.
    fn stage_plan(&mut self, i: usize) -> Result<(Plan, Vec<Vec<u64>>), String> {
        let (kind, nb) = (self.stages[i].kind, self.stages[i].nb);
        match &self.stages[i].request {
            Some(req) => {
                let f = fetch(&mut self.client, req, nb, &mut Tracer::new(false))?;
                // The plan the server sent is the plan the executor
                // derives from the rebuilt distribution.
                if kind.plan(&f.dist, nb) != f.plan {
                    return Err(format!("{kind:?}: served plan differs from the local one"));
                }
                Ok((f.plan, f.weights))
            }
            None => Ok((
                hetgrid_plan::star_mm_plan(&self.star, (nb, nb, nb)),
                self.star_weights.clone(),
            )),
        }
    }

    /// Checks stage `i`'s first result against the single-threaded
    /// reference at the stated tolerance (MM: max-abs error at most
    /// 1e-9 n; factorisations: reconstruction residual at most
    /// 1e-10 n max|A|), and fixes the counts later ops must show.
    fn check_against_reference(&mut self, i: usize, got: StageOut) -> Result<(), String> {
        let (plan, weights) = self.stage_plan(i)?;
        let r = self.shape.r;
        let stage = &mut self.stages[i];
        let n = (stage.nb * r) as f64;
        let a = &stage.inputs[0];
        let scale = a.max_abs();
        let t0 = Instant::now();
        let name = stage.kind.span_name();
        match stage.kind {
            Kind::Mm | Kind::StarMm => {
                let reference = matmul(a, &stage.inputs[1]);
                self.seq_baseline_s += t0.elapsed().as_secs_f64();
                close(name, &got.out, &reference, 1e-9 * n)?;
            }
            Kind::Lu => {
                let reference =
                    lu_factor_blocked(a, r).map_err(|e| format!("reference LU: {e}"))?;
                self.seq_baseline_s += t0.elapsed().as_secs_f64();
                if reference.swaps != 0 {
                    return Err("reference LU pivoted on a dominant matrix".into());
                }
                close(
                    "run_lu vs reference",
                    &got.out,
                    &reference.lu,
                    1e-10 * n * scale,
                )?;
                let l = hetgrid_linalg::tri::unit_lower_from_packed(&got.out);
                let u = hetgrid_linalg::tri::upper_from_packed(&got.out);
                close("L*U - A", &matmul(&l, &u), a, 1e-10 * n * scale)?;
            }
            Kind::Cholesky => {
                let reference = cholesky_blocked(a, r).map_err(|e| format!("reference: {e}"))?;
                self.seq_baseline_s += t0.elapsed().as_secs_f64();
                close(
                    "run_cholesky vs reference",
                    &got.out,
                    &reference,
                    1e-10 * n * scale,
                )?;
                close(
                    "L*L^T - A",
                    &matmul(&got.out, &got.out.transpose()),
                    a,
                    1e-10 * n * scale,
                )?;
            }
            Kind::Qr => {
                let (q_ref, r_ref) = qr_blocked(a, r);
                self.seq_baseline_s += t0.elapsed().as_secs_f64();
                close(
                    "reference Q*R - A",
                    &matmul(&q_ref, &r_ref),
                    a,
                    1e-10 * n * scale,
                )?;
                let (q, rr) = qr_unpack(&got.out, &got.taus, stage.nb, r);
                close("Q*R - A", &matmul(&q, &rr), a, 1e-10 * n * scale)?;
            }
        }
        let predicted = stage.kind.fold(&plan, &weights);
        stage.messages = predicted.total_messages();
        stage.work_units = predicted.total_work();
        stage.block_ops = block_ops(&plan, &weights);
        stage.workers = match stage.kind {
            Kind::StarMm => STAR_WORKERS,
            _ => plan.grid.0 * plan.grid.1,
        };
        if stage.block_ops.work_units() != stage.work_units {
            return Err(format!("{name}: block-op fold and sim::counts disagree"));
        }
        self.check_counts(i, &got.report)?;
        self.stages[i].verified = Some(Verified {
            out: got.out,
            taus: got.taus,
        });
        Ok(())
    }

    /// Runs stage `i` through its `exec::run_*_on_cfg` entry on the
    /// production transport (what the plain `run_*` entries forward to).
    fn run_stage(
        &mut self,
        i: usize,
        cfg: ExecConfig,
        tr: &mut Tracer,
    ) -> Result<StageOut, String> {
        let r = self.shape.r;
        let stage = &self.stages[i];
        let (kind, nb) = (stage.kind, stage.nb);
        let a = &stage.inputs[0];
        let t = &ChannelTransport;
        let fail = |e: hetgrid_exec::ExecError| format!("{}: {e}", kind.span_name());
        let Some(request) = &stage.request else {
            let (star, weights, b) = (&self.star, &self.star_weights, &stage.inputs[1]);
            let (out, report) = tr
                .call(Layer::Exec, kind.span_name(), || {
                    run_star_mm_on_cfg(t, a, b, star, (nb, nb, nb), r, weights, cfg)
                })
                .map_err(fail)?;
            return Ok(StageOut {
                out,
                taus: Vec::new(),
                report,
            });
        };
        let f = fetch(&mut self.client, request, nb, tr)?;
        let (dist, w) = (&f.dist, &f.weights);
        let (out, taus, report) = tr
            .call(Layer::Exec, kind.span_name(), || match kind {
                Kind::Mm => run_mm_on_cfg(t, a, &stage.inputs[1], dist, nb, r, w, cfg)
                    .map(|(c, rep)| (c, vec![], rep)),
                Kind::Lu => {
                    run_lu_on_cfg(t, a, dist, nb, r, w, cfg).map(|(f, rep)| (f, vec![], rep))
                }
                Kind::Cholesky => {
                    run_cholesky_on_cfg(t, a, dist, nb, r, w, cfg).map(|(l, rep)| (l, vec![], rep))
                }
                Kind::Qr => run_qr_on_cfg(t, a, dist, nb, r, w, cfg),
                Kind::StarMm => unreachable!("handled above"),
            })
            .map_err(fail)?;
        Ok(StageOut { out, taus, report })
    }

    /// One op up to the gathered results in the caller's hands.
    pub fn submit(&mut self, tr: &mut Tracer) -> Result<Vec<StageOut>, String> {
        (0..self.stages.len())
            .map(|i| self.run_stage(i, ExecConfig::default(), tr))
            .collect()
    }

    /// The report's message and work totals against the plan fold.
    fn check_counts(&mut self, i: usize, report: &ExecReport) -> Result<(), String> {
        let stage = &self.stages[i];
        let work: u64 = report.work_units.iter().flatten().sum();
        if report.total_messages() == stage.messages && work == stage.work_units {
            return Ok(());
        }
        self.counts_matched = false;
        Err(format!(
            "{}: {} messages / {work} work units, plan fold says {} / {}",
            stage.kind.span_name(),
            report.total_messages(),
            stage.messages,
            stage.work_units
        ))
    }

    fn verify_stage(&mut self, i: usize, got: &StageOut) -> Result<(), String> {
        let stage = &self.stages[i];
        let want = stage
            .verified
            .as_ref()
            .expect("set-up verified every stage");
        if !bits_equal(got.out.as_slice(), want.out.as_slice())
            || !bits_equal(&got.taus, &want.taus)
        {
            return Err(format!(
                "{}: result differs from the verified one",
                stage.kind.span_name()
            ));
        }
        self.check_counts(i, &got.report)
    }

    /// Every stage's result bit for bit against the verified one, and
    /// its `ExecReport` totals against the `sim::counts` plan fold.
    /// `keep_reports` keeps the reports for the per-layer metrics.
    pub fn verify(&mut self, outs: Vec<StageOut>, keep_reports: bool) -> Result<(), String> {
        for (i, got) in outs.iter().enumerate() {
            self.verify_stage(i, got)?;
        }
        if keep_reports {
            self.reports.extend(outs.into_iter().map(|o| o.report));
        }
        Ok(())
    }

    /// Seconds stage `i` takes at lookahead `depth` (median of `reps`),
    /// its hot request included.
    pub fn stage_at_depth(&mut self, i: usize, depth: usize, reps: usize) -> Result<f64, String> {
        let cfg = ExecConfig { lookahead: depth };
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            let got = self.run_stage(i, cfg, &mut Tracer::new(false))?;
            samples.push(t0.elapsed().as_secs_f64());
            // Bit-exact at every depth, or the gain would be for another result.
            self.verify_stage(i, &got)?;
        }
        Ok(crate::stats::median(&samples))
    }

    /// The first grid stage's inputs, for probes that replay what
    /// `run_*` does inside (scatter, gather, hazard graph).
    pub fn first_stage(&mut self) -> Result<(Fetched, &Matrix, usize), String> {
        let nb = self.stages[0].nb;
        let req = self.stages[0]
            .request
            .clone()
            .expect("first stage is a grid stage");
        let f = fetch(&mut self.client, &req, nb, &mut Tracer::new(false))?;
        Ok((f, &self.stages[0].inputs[0], nb))
    }
}
