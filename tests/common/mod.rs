//! Shared by the root integration tests.

use hetgrid::core::Arrangement;
use hetgrid::dist::BlockDist;
use hetgrid::plan::Kernel;
use hetgrid::sim::{simulate, Broadcast, CostModel, SimReport};

/// The report of a [`simulate`] call the test expects to be accepted.
pub fn sim(
    kernel: Kernel,
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> SimReport {
    simulate(kernel, arr, dist, nb, cost, broadcast)
        .unwrap()
        .report
}
