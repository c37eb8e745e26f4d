//! Layer probes of the traced run: fixed work through each crate's
//! public functions, off every op path, timed from outside. They give a
//! change to one layer a base to be compared with, and the counts that
//! must repeat exactly.

use crate::exec_wl::{panel_dist, plan_request, Kind};
use crate::floor::{timed_median, KernelTimes};
use crate::names::Metrics;
use hetgrid_core::exact::solve_global;
use hetgrid_core::{heuristic, validate_times, Topology};
use hetgrid_dist::{balance_report, BlockCyclic};
use hetgrid_plan::deps::HazardGraph;
use hetgrid_serve::proto::{decode_request, encode_request, encode_response};
use hetgrid_serve::{cache_key, fingerprint, Client, Kernel, Service, ServiceConfig};
use hetgrid_sim::CostModel;
use std::hint::black_box;

/// What the probes run on: the workload's own grid and sizes.
pub struct ProbeCfg {
    pub times: Vec<f64>,
    pub p: usize,
    pub q: usize,
    pub nb: usize,
    pub r: usize,
    /// The kernel whose plan is the workload's main one.
    pub kind: Kind,
}

/// The fixed 3x3 pool the exact solver and the heuristic are compared
/// on (off every op path; a solver change reads its base here).
const POOL_3X3: [f64; 9] = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 9.0];
const REPS: usize = 15;

pub fn serve(cfg: &ProbeCfg, m: &mut Metrics) -> Result<(), String> {
    let request = plan_request(&cfg.times, cfg.p, cfg.q, Kernel::Lu, cfg.nb);
    let frame = encode_request(&request);
    let service = Service::new(ServiceConfig::default());
    // Misses: the same question at cycle-times scaled by a hair is a
    // new cache key with the same solver work.
    let mut scale = 1.0;
    let miss = timed_median(REPS, || {
        scale += 1e-9;
        let times: Vec<f64> = cfg.times.iter().map(|t| t * scale).collect();
        let fresh = encode_request(&plan_request(&times, cfg.p, cfg.q, Kernel::Lu, cfg.nb));
        black_box(service.handle(&fresh));
    });
    service.handle(&frame);
    let hit = timed_median(REPS * 8, || {
        black_box(service.handle(black_box(&frame)));
    });
    m.set("serve.handle_miss_s", miss);
    m.set("serve.handle_hit_s", hit);
    m.set(
        "serve.decode_request_s",
        timed_median(REPS * 8, || {
            black_box(decode_request(black_box(&frame)).expect("own frame"));
        }),
    );
    m.set(
        "serve.fingerprint_s",
        timed_median(REPS * 8, || {
            let key = cache_key(black_box(&request.body)).expect("cacheable");
            black_box(fingerprint(&key));
        }),
    );
    let response = service.respond(&request);
    m.set(
        "serve.encode_response_s",
        timed_median(REPS, || {
            black_box(encode_response(black_box(&response)));
        }),
    );
    // What the socket, the framing and the client's decode add to a hit.
    let server = hetgrid_serve::spawn("127.0.0.1:0", ServiceConfig::default())
        .map_err(|e| format!("probe server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("probe client: {e}"))?;
    client
        .request(&request)
        .map_err(|e| format!("probe request: {e}"))?;
    let mut failed = false;
    let over_tcp = timed_median(REPS * 8, || {
        failed |= client.request(&request).is_err();
    });
    if failed {
        return Err("probe request over TCP failed".into());
    }
    m.set("serve.tcp_rtt_s", (over_tcp - hit).max(0.0));
    Ok(())
}

pub fn core(cfg: &ProbeCfg, m: &mut Metrics) {
    m.set(
        "core.validate_times_s",
        timed_median(REPS * 8, || {
            black_box(validate_times(black_box(&cfg.times), cfg.p, cfg.q)).expect("valid times");
        }),
    );
    m.set(
        "core.heuristic_s",
        timed_median(REPS, || {
            black_box(heuristic::solve_default(
                black_box(&cfg.times),
                cfg.p,
                cfg.q,
            ));
        }),
    );
    let solved = heuristic::solve_default(&cfg.times, cfg.p, cfg.q);
    m.set("core.heuristic_iters", solved.iterations() as f64);
    let mut exact = solve_global(&POOL_3X3, 3, 3);
    m.set(
        "core.exact_s",
        timed_median(3, || exact = solve_global(black_box(&POOL_3X3), 3, 3)),
    );
    m.set("core.trees_examined", exact.trees_examined as f64);
    m.set("core.trees_pruned", exact.trees_pruned as f64);
    let approx = heuristic::solve_default(&POOL_3X3, 3, 3);
    m.set("core.obj2_gap", approx.best().obj2 / exact.obj2);
}

/// `dist.*`, `plan.*` and `sim.*` on the workload's solved grid.
pub fn dist_plan_sim(cfg: &ProbeCfg, m: &mut Metrics) {
    let solved = heuristic::solve_default(&cfg.times, cfg.p, cfg.q);
    let best = solved.best();
    let (arr, nb) = (&best.arrangement, cfg.nb);
    m.set(
        "dist.build_s",
        timed_median(REPS * 4, || {
            black_box(panel_dist(arr, &best.alloc, nb));
        }),
    );
    let dist = panel_dist(arr, &best.alloc, nb);
    // Busiest processor over the mean, one sweep over all blocks.
    let imbalance =
        |d: &dyn hetgrid_dist::BlockDist| 1.0 / balance_report(d, arr, nb, nb).average_utilization;
    let panel = imbalance(&dist);
    m.set("dist.work_imbalance", panel);
    m.set(
        "dist.balance_gain",
        imbalance(&BlockCyclic::new(cfg.p, cfg.q)) / panel,
    );

    let gen = |name: &str, m: &mut Metrics, f: &dyn Fn() -> hetgrid_plan::Plan| {
        m.set(name, timed_median(REPS, || drop(black_box(f()))));
    };
    gen("plan.gen_mm_s", m, &|| Kind::Mm.plan(&dist, nb));
    gen("plan.gen_lu_s", m, &|| Kind::Lu.plan(&dist, nb));
    gen("plan.gen_cholesky_s", m, &|| Kind::Cholesky.plan(&dist, nb));
    gen("plan.gen_qr_s", m, &|| Kind::Qr.plan(&dist, nb));
    let star = Topology::Star {
        workers: 3,
        worker_mem: 21,
        master_bw: 1.0,
    };
    gen("plan.gen_star_s", m, &|| {
        hetgrid_plan::star_mm_plan(&star, (8, 8, 8))
    });

    let weights = hetgrid_exec::slowdown_weights(arr);
    // The star workloads' main grid plan is the MM one.
    let kind = if cfg.kind == Kind::StarMm {
        Kind::Mm
    } else {
        cfg.kind
    };
    let plan = kind.plan(&dist, nb);
    let predicted = |p: &hetgrid_plan::Plan, w: &[Vec<u64>]| kind.fold(p, w);
    m.set("plan.steps", plan.steps.len() as f64);
    m.set(
        "plan.messages",
        predicted(&plan, &weights).total_messages() as f64,
    );
    let bytes = hetgrid_plan::wire::encode(&plan);
    m.set("plan.wire_bytes", bytes.len() as f64);
    m.set(
        "plan.wire_encode_s",
        timed_median(REPS, || {
            black_box(hetgrid_plan::wire::encode(black_box(&plan)));
        }),
    );
    m.set(
        "plan.wire_decode_s",
        timed_median(REPS, || {
            black_box(hetgrid_plan::wire::decode(black_box(&bytes)).expect("own bytes"));
        }),
    );
    m.set(
        "plan.hazard_build_s",
        timed_median(REPS, || {
            black_box(HazardGraph::build(black_box(&plan)));
        }),
    );
    m.set(
        "plan.hazard_edges",
        HazardGraph::build(&plan).edges.len() as f64,
    );

    m.set(
        "sim.counts_s",
        timed_median(REPS, || {
            black_box(predicted(black_box(&plan), &weights));
        }),
    );
    let cost = CostModel::default();
    m.set(
        "sim.des_s",
        timed_median(3, || match cfg.kind {
            Kind::Mm | Kind::StarMm => {
                black_box(hetgrid_sim::simulate_mm(
                    arr,
                    &dist,
                    nb,
                    cost,
                    hetgrid_sim::Broadcast::Direct,
                ));
            }
            Kind::Cholesky => {
                black_box(hetgrid_sim::simulate_cholesky(arr, &dist, nb, cost));
            }
            Kind::Lu | Kind::Qr => {
                black_box(hetgrid_sim::simulate_lu(arr, &dist, nb, cost));
            }
        }),
    );
}

pub fn linalg(r: usize, t: &KernelTimes, m: &mut Metrics) {
    let flops = 2.0 * (r * r * r) as f64;
    m.set("linalg.gemm_block_s", t.gemm);
    m.set("linalg.gemm_gflops", flops / t.gemm * 1e-9);
    // Computed, not measured: one block update reads A, B and C and
    // writes C, 4 r^2 doubles, whatever the caches then do.
    m.set(
        "linalg.gemm_flop_per_byte",
        flops / (4.0 * (r * r) as f64 * 8.0),
    );
    m.set("linalg.trsm_block_s", t.trsm);
    m.set("linalg.lu_block_s", t.lu);
    m.set("linalg.cholesky_block_s", t.cholesky);
    m.set("linalg.qr_block_s", t.qr_apply_unit);
}
