//! Tier-1's bare `cargo test` runs only the root package, so this file
//! drives one path through every layer the facade does not own:
//! `exec::run` for each kernel (verified against `linalg` by the
//! harness oracle, counted against `sim::counts::fold`), the star
//! executor, `sim::simulate` for each kernel against the `bsp` compute
//! bounds, and one serve `Plan` request checked against
//! `plan::Kernel::plan`.

use hetgrid::core::{heuristic, Allocation, Arrangement, Topology};
use hetgrid::dist::{PanelDist, PanelOrdering};
use hetgrid::exec::{run, run_star_mm_on_cfg, slowdown_weights, ChannelTransport, ExecConfig};
use hetgrid::linalg::gemm::matmul;
use hetgrid::linalg::Matrix;
use hetgrid::plan::{self, Kernel};
use hetgrid::sim::{bsp, counts, simulate, Broadcast, CostModel, SimError};
use hetgrid_harness::oracles::check_kernel;
use hetgrid_harness::scenario::{general_matrix, kernel_inputs};
use hetgrid_serve::proto::SolveResult;
use hetgrid_serve::{PlanSpec, Request, RequestBody, Response, Service, ServiceConfig, SolveSpec};
use rand::prelude::*;

/// The paper's Section 3.1.2 processors.
const TIMES: [f64; 4] = [1.0, 2.0, 3.0, 5.0];

/// The serve layer's distribution rule: up to four panels per grid line.
fn panel_dist(arr: &Arrangement, alloc: &Allocation, nb: usize) -> PanelDist {
    let bp = nb.min(4 * arr.p()).max(arr.p());
    let bq = nb.min(4 * arr.q()).max(arr.q());
    PanelDist::from_allocation(arr, alloc, bp, bq, PanelOrdering::Interleaved)
}

#[test]
fn run_every_kernel_on_the_paper_grid() {
    let solved = heuristic::solve_default(&TIMES, 2, 2);
    let best = solved.best();
    let (nb, r) = (6, 4);
    let dist = panel_dist(&best.arrangement, &best.alloc, nb);
    let weights = slowdown_weights(&best.arrangement);

    let mut rng = StdRng::seed_from_u64(0x51);
    for kernel in Kernel::ALL {
        let inputs = kernel_inputs(kernel, &mut rng, nb * r);
        let refs: Vec<&Matrix> = inputs.iter().collect();
        let cfg = ExecConfig::default();
        let t = ChannelTransport;
        let out = run(&t, kernel, &refs, &dist, nb, r, &weights, cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        check_kernel(kernel, &inputs, &out, nb, r)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert_eq!(out.taus.is_some(), kernel == Kernel::Qr);

        let predicted = counts::fold(&kernel.plan(&dist, nb), 0, &weights);
        assert_eq!(out.report.messages_sent, predicted.messages, "{kernel:?}");
        assert_eq!(out.report.work_units, predicted.work_units, "{kernel:?}");
    }
}

#[test]
fn simulate_every_kernel_on_the_paper_grid() {
    let solved = heuristic::solve_default(&TIMES, 2, 2);
    let best = solved.best();
    let arr = &best.arrangement;
    let nb = 12;
    let dist = panel_dist(arr, &best.alloc, nb);
    let cost = CostModel::default();
    let report = |kernel, mode| simulate(kernel, arr, &dist, nb, cost, mode).map(|run| run.report);

    for kernel in Kernel::ALL {
        let rep = report(kernel, Broadcast::Direct).unwrap();
        // No schedule beats its busiest processor.
        let busiest = rep
            .core_busy
            .iter()
            .flatten()
            .fold(0.0, |m: f64, &b| m.max(b));
        assert!(
            busiest > 0.0 && rep.makespan >= busiest - 1e-9,
            "{kernel:?}"
        );
        assert!(rep.average_utilization() <= 1.0 + 1e-9, "{kernel:?}");
        // Ring/Tree re-shape the communication only, and are defined
        // for every kernel but Cholesky.
        for mode in [Broadcast::Ring, Broadcast::Tree] {
            match report(kernel, mode) {
                Ok(shaped) => {
                    assert!((shaped.compute_time - rep.compute_time).abs() < 1e-9);
                    assert!(shaped.makespan >= busiest - 1e-9, "{kernel:?} {mode:?}");
                }
                Err(e) => assert_eq!(
                    (kernel, e),
                    (Kernel::Cholesky, SimError::CholeskyTopology(mode))
                ),
            }
        }
    }

    let direct = |kernel| report(kernel, Broadcast::Direct).unwrap();
    let (mm, lu, qr) = (direct(Kernel::Mm), direct(Kernel::Lu), direct(Kernel::Qr));
    assert!(mm.makespan >= bsp::mm_compute_lower_bound(arr, &dist, nb) - 1e-9);
    assert!(lu.makespan >= bsp::lu_update_lower_bound(arr, &dist, nb) - 1e-9);
    // The DES models QR as the LU schedule at twice the arithmetic.
    assert!((qr.compute_time - 2.0 * lu.compute_time).abs() < 1e-9 * qr.compute_time);
    assert!(direct(Kernel::Cholesky).compute_time < lu.compute_time);
}

#[test]
fn star_mm_matches_reference_and_fold() {
    let topo = Topology::Star {
        workers: 3,
        worker_mem: 7,
        master_bw: 1.0,
    };
    let (dims, r) = ((4, 3, 5), 3);
    let (mb, nb, kb) = dims;
    let mut rng = StdRng::seed_from_u64(0x53);
    let a = general_matrix(&mut rng, mb * r, kb * r);
    let b = general_matrix(&mut rng, kb * r, nb * r);
    let weights = vec![vec![1, 1, 2, 3]];
    let cfg = ExecConfig::default();
    let (c, report) =
        run_star_mm_on_cfg(&ChannelTransport, &a, &b, &topo, dims, r, &weights, cfg).unwrap();
    assert!(c.approx_eq(&matmul(&a, &b), 1e-9));
    let predicted = counts::fold(&plan::star_mm_plan(&topo, dims), 0, &weights);
    assert_eq!(report.messages_sent, predicted.messages);
    assert_eq!(report.work_units, predicted.work_units);
}

#[test]
fn served_plan_is_the_kernels_plan() {
    let (kernel, nb) = (Kernel::Cholesky, 8);
    let svc = Service::new(ServiceConfig::default());
    let response = svc.respond(&Request {
        tenant: "smoke".into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: TIMES.to_vec(),
            },
            kernel,
            nb,
        }),
    });
    let Response::Plan(got) = response else {
        panic!("expected a plan, got {response:?}")
    };
    let SolveResult {
        p,
        q,
        times,
        rows,
        cols,
        ..
    } = got.solve;
    let arr = Arrangement::from_times(p, q, times);
    let dist = panel_dist(&arr, &Allocation::new(rows, cols), nb);
    let served = plan::wire::decode(&got.plan_bytes).expect("served plan decodes");
    assert_eq!(served, kernel.plan(&dist, nb));
}
