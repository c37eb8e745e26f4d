//! Analytic bulk-synchronous cost models, used both as fast estimators
//! and as cross-checks for the discrete-event simulator.
//!
//! With a barrier after every outer-product step, the execution time is
//! the sum over steps of (communication phase + slowest processor's
//! compute phase). The event-driven simulation overlaps steps, so its
//! makespan lies between the no-communication lower bound and the BSP
//! upper bound (tests in this crate assert exactly that).

use crate::kernels::transfers;
use crate::machine::{CostModel, Network};
use hetgrid_core::Arrangement;
use hetgrid_dist::BlockDist;
use hetgrid_plan::{Bcast, Dests, OwnerWork, Owners, Step};
use std::collections::BTreeMap;

/// Per-step communication time under the machine model: on a shared bus
/// all messages serialize; on a switched network each processor's own
/// traffic serializes and the step takes the busiest endpoint's time.
fn comm_phase(msgs: &BTreeMap<((usize, usize), (usize, usize)), usize>, cost: &CostModel) -> f64 {
    match cost.network {
        Network::SharedBus => msgs
            .iter()
            .map(|(_, &blocks)| cost.message_time(blocks))
            .sum(),
        Network::Switched => {
            let mut endpoint: BTreeMap<(usize, usize), f64> = BTreeMap::new();
            for (&(src, dst), &blocks) in msgs {
                let t = cost.message_time(blocks);
                *endpoint.entry(src).or_insert(0.0) += t;
                *endpoint.entry(dst).or_insert(0.0) += t;
            }
            endpoint.values().cloned().fold(0.0, f64::max)
        }
    }
}

/// The messages of a broadcast phase, aggregated per (source,
/// destination) pair as the event-driven kernel aggregates them.
fn messages(
    dests: &mut Dests,
    owners: &Owners,
    panels: &[&[Bcast]],
) -> BTreeMap<((usize, usize), (usize, usize)), usize> {
    let mut msgs = BTreeMap::new();
    for pair in panels.iter().flat_map(|p| transfers(dests, owners, p)) {
        *msgs.entry(pair).or_insert(0) += 1;
    }
    msgs
}

/// The slowest processor's time for `blocks[i][j]` block updates each.
fn slowest(arr: &Arrangement, blocks: &[Vec<usize>]) -> f64 {
    let time = |(i, row): (usize, &Vec<usize>)| {
        let t = row
            .iter()
            .enumerate()
            .map(move |(j, &n)| n as f64 * arr.time(i, j));
        t.fold(0.0, f64::max)
    };
    blocks.iter().enumerate().map(time).fold(0.0, f64::max)
}

/// BSP (barrier-per-step) estimate of the outer-product MM makespan.
pub fn bsp_mm(arr: &Arrangement, dist: &dyn BlockDist, nb: usize, cost: CostModel) -> f64 {
    assert_eq!(dist.grid(), (arr.p(), arr.q()), "bsp_mm: grid mismatch");
    let compute_phase = slowest(arr, &dist.owned_counts(nb, nb));
    let (mut total, mut dests) = (0.0, Dests::default());
    for step in &hetgrid_plan::mm_plan(dist, nb).steps {
        let Step::Mm {
            a_bcasts,
            b_bcasts,
            owners,
            ..
        } = step
        else {
            unreachable!("an MM plan has MM steps")
        };
        let msgs = messages(&mut dests, owners, &[a_bcasts, b_bcasts]);
        total += comm_phase(&msgs, &cost) + compute_phase;
    }
    total
}

/// No-communication lower bound for MM: the busiest processor's total
/// work, `nb * max_ij owned_ij * t_ij`.
pub fn mm_compute_lower_bound(arr: &Arrangement, dist: &dyn BlockDist, nb: usize) -> f64 {
    slowest(arr, &dist.owned_counts(nb, nb)) * nb as f64
}

/// BSP estimate of right-looking LU: per step, panel phase + triangular
/// solve phase + update phase (each the slowest participant), plus the
/// step's communication.
pub fn bsp_lu(arr: &Arrangement, dist: &dyn BlockDist, nb: usize, cost: CostModel) -> f64 {
    assert_eq!(dist.grid(), (arr.p(), arr.q()), "bsp_lu: grid mismatch");
    let phase = |work: &[OwnerWork], unit: f64| {
        work.iter()
            .map(|w| w.blocks as f64 * arr.time(w.owner.0, w.owner.1) * unit)
            .fold(0.0, f64::max)
    };
    let (mut total, mut dests) = (0.0, Dests::default());
    for step in &hetgrid_plan::factor_plan(dist, nb).steps {
        let Step::Factor {
            k,
            panel,
            l_bcasts,
            trsm,
            u_bcasts,
            trailing,
            owners,
            ..
        } = step
        else {
            unreachable!("an LU plan has factor steps")
        };
        total += phase(panel, cost.panel_cost);
        if k + 1 == nb {
            continue;
        }
        total += comm_phase(&messages(&mut dests, owners, &[l_bcasts]), &cost);
        total += phase(trsm, cost.trsm_cost);
        total += comm_phase(&messages(&mut dests, owners, &[u_bcasts]), &cost);
        total += slowest(arr, trailing);
    }
    total
}

/// No-communication *step-synchronous* lower bound for LU: the sum over
/// steps of the slowest trailing-update participant (ignores panel and
/// trsm phases, so it lower-bounds any right-looking schedule that
/// synchronizes per step).
pub fn lu_update_lower_bound(arr: &Arrangement, dist: &dyn BlockDist, nb: usize) -> f64 {
    (1..nb)
        .map(|k| slowest(arr, &dist.trailing_counts(nb, k)))
        .fold(0.0, |total, upd| total + upd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{simulate_lu, simulate_mm, Broadcast};
    use crate::machine::CostModel;
    use hetgrid_core::exact;
    use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};

    fn fig1_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    #[test]
    fn des_between_lower_bound_and_bsp_mm() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let dists: Vec<Box<dyn BlockDist>> = vec![
            Box::new(BlockCyclic::new(2, 2)),
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                4,
                3,
                PanelOrdering::Contiguous,
            )),
        ];
        for cost in [CostModel::zero_comm(), CostModel::default()] {
            for d in &dists {
                let nb = 8;
                let des = simulate_mm(&arr, d.as_ref(), nb, cost, Broadcast::Direct);
                let lb = mm_compute_lower_bound(&arr, d.as_ref(), nb);
                let ub = bsp_mm(&arr, d.as_ref(), nb, cost);
                assert!(
                    des.makespan >= lb - 1e-9,
                    "DES {} below lower bound {}",
                    des.makespan,
                    lb
                );
                assert!(
                    des.makespan <= ub + 1e-9,
                    "DES {} above BSP bound {}",
                    des.makespan,
                    ub
                );
            }
        }
    }

    #[test]
    fn des_zero_comm_mm_equals_lower_bound() {
        // Without communication, each processor's chain of nb updates is
        // independent, so the DES hits the lower bound exactly.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let des = simulate_mm(&arr, &dist, 6, CostModel::zero_comm(), Broadcast::Direct);
        let lb = mm_compute_lower_bound(&arr, &dist, 6);
        assert!((des.makespan - lb).abs() < 1e-9);
    }

    #[test]
    fn des_lu_bounded_by_bsp() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        for cost in [CostModel::zero_comm(), CostModel::default()] {
            let nb = 16;
            let des = simulate_lu(&arr, &panel, nb, cost);
            let ub = bsp_lu(&arr, &panel, nb, cost);
            assert!(
                des.makespan <= ub + 1e-9,
                "DES LU {} above BSP {}",
                des.makespan,
                ub
            );
        }
    }

    #[test]
    fn bsp_mm_homogeneous_zero_comm_exact() {
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        assert_eq!(bsp_mm(&arr, &dist, 4, CostModel::zero_comm()), 16.0);
    }

    #[test]
    fn shared_bus_bsp_at_least_switched() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let bus = CostModel {
            network: Network::SharedBus,
            ..Default::default()
        };
        let sw = CostModel {
            network: Network::Switched,
            ..Default::default()
        };
        assert!(bsp_mm(&arr, &dist, 6, bus) >= bsp_mm(&arr, &dist, 6, sw));
    }
}
