//! The simulated machine: a heterogeneous network of workstations
//! configured as a (virtual) 2D grid (Section 2.2 of the paper).
//!
//! Every processor has a *core* resource (block updates) and a *NIC*
//! resource — "the communications performed by one processor are
//! sequential". On an Ethernet-like network all transfers additionally
//! serialize on one shared *bus* resource; on a Myrinet/switched network
//! independent transfers proceed in parallel.

use crate::engine::{Engine, ResourceId, TaskId, TaskTag};
use hetgrid_core::Arrangement;

/// Interconnect kind (Section 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Network {
    /// All communications share a single medium and are globally
    /// sequential (standard Ethernet).
    SharedBus,
    /// Independent point-to-point transfers proceed in parallel; only
    /// each endpoint's own communications serialize (Myrinet, switched).
    Switched,
}

/// Cost parameters of the simulation. All times are in units of one
/// `r x r` block update on a reference (cycle-time 1) processor.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message start-up latency.
    pub latency: f64,
    /// Transfer time per `r x r` block of payload.
    pub block_transfer: f64,
    /// Interconnect kind.
    pub network: Network,
    /// Relative cost of factoring one panel block vs a plain update
    /// (LU panel work; QR uses twice this).
    pub panel_cost: f64,
    /// Relative cost of one triangular-solve block update.
    pub trsm_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency: 0.1,
            block_transfer: 0.05,
            network: Network::Switched,
            panel_cost: 1.0,
            trsm_cost: 1.0,
        }
    }
}

impl CostModel {
    /// A model with the given communication costs and the default
    /// compute ratios; the error names the first cost that is not
    /// finite and >= 0.
    pub fn checked(latency: f64, block_transfer: f64, network: Network) -> Result<Self, String> {
        for (what, cost) in [("latency", latency), ("block transfer", block_transfer)] {
            if !(cost >= 0.0 && cost.is_finite()) {
                return Err(format!("{what} must be finite and >= 0, got {cost}"));
            }
        }
        Ok(CostModel {
            latency,
            block_transfer,
            network,
            ..Default::default()
        })
    }

    /// A zero-communication model (useful to isolate load balance).
    pub fn zero_comm() -> Self {
        CostModel {
            latency: 0.0,
            block_transfer: 0.0,
            ..Default::default()
        }
    }

    /// Duration of one message carrying `blocks` blocks.
    pub fn message_time(&self, blocks: usize) -> f64 {
        self.latency + blocks as f64 * self.block_transfer
    }
}

/// The simulated grid machine: resource handles into an [`Engine`].
pub struct Machine<'a> {
    /// Cycle-times of the processors, by grid position.
    pub arr: &'a Arrangement,
    /// Cost parameters.
    pub cost: CostModel,
    core0: ResourceId,
    nic0: ResourceId,
    bus: Option<ResourceId>,
}

impl<'a> Machine<'a> {
    /// Registers the machine's resources in `engine`.
    pub fn new(engine: &mut Engine, arr: &'a Arrangement, cost: CostModel) -> Self {
        let n = arr.p() * arr.q();
        let core0 = engine.add_resources(n);
        let nic0 = engine.add_resources(n);
        let bus = match cost.network {
            Network::SharedBus => Some(engine.add_resource()),
            Network::Switched => None,
        };
        Machine {
            arr,
            cost,
            core0,
            nic0,
            bus,
        }
    }

    /// Core resource of processor `(i, j)`.
    pub fn core(&self, i: usize, j: usize) -> ResourceId {
        self.core0 + i * self.arr.q() + j
    }

    /// NIC resource of processor `(i, j)`.
    pub fn nic(&self, i: usize, j: usize) -> ResourceId {
        self.nic0 + i * self.arr.q() + j
    }

    /// Adds a compute task of `blocks` block updates (scaled by the
    /// processor's cycle-time and `unit_cost`) on processor `(i, j)`.
    pub fn compute(
        &self,
        engine: &mut Engine,
        deps: Vec<TaskId>,
        (i, j): (usize, usize),
        blocks: usize,
        unit_cost: f64,
    ) -> TaskId {
        let core = self.core(i, j);
        let duration = blocks as f64 * self.arr.time(i, j) * unit_cost;
        engine.add_task(deps, vec![core], duration, TaskTag::Compute(core))
    }

    /// Adds a message of `blocks` blocks from `src` to `dst`, occupying
    /// both NICs (and the bus, if any).
    ///
    /// # Panics
    /// Panics if `src == dst` (no self-messages).
    pub fn message(
        &self,
        engine: &mut Engine,
        deps: Vec<TaskId>,
        src: (usize, usize),
        dst: (usize, usize),
        blocks: usize,
    ) -> TaskId {
        assert_ne!(src, dst, "message: src == dst");
        let mut resources = vec![self.nic(src.0, src.1), self.nic(dst.0, dst.1)];
        if let Some(bus) = self.bus {
            resources.push(bus);
        }
        engine.add_task(
            deps,
            resources,
            self.cost.message_time(blocks),
            TaskTag::Comm,
        )
    }

    /// Per-processor busy (compute) time extracted from a schedule.
    pub fn core_busy(&self, schedule: &crate::engine::Schedule) -> Vec<Vec<f64>> {
        (0..self.arr.p())
            .map(|i| {
                (0..self.arr.q())
                    .map(|j| schedule.busy[self.core(i, j)])
                    .collect()
            })
            .collect()
    }
}

/// Aggregate result of a kernel simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total simulated execution time.
    pub makespan: f64,
    /// Per-processor compute busy time (row-major grid table).
    pub core_busy: Vec<Vec<f64>>,
    /// Sum of all message durations.
    pub comm_time: f64,
    /// Sum of all compute durations.
    pub compute_time: f64,
}

impl SimReport {
    /// Mean core utilization: `mean(busy) / makespan`. An empty grid or
    /// a zero makespan is reported as fully utilized (1.0) rather than
    /// NaN.
    pub fn average_utilization(&self) -> f64 {
        let total: f64 = self.core_busy.iter().flatten().sum();
        let n = self.core_busy.iter().map(|r| r.len()).sum::<usize>();
        if n > 0 && self.makespan > 0.0 {
            total / (n as f64 * self.makespan)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_model() {
        let c = CostModel {
            latency: 0.5,
            block_transfer: 0.25,
            ..Default::default()
        };
        assert_eq!(c.message_time(0), 0.5);
        assert_eq!(c.message_time(4), 1.5);
    }

    #[test]
    fn shared_bus_serializes_disjoint_pairs() {
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        for (network, expected) in [(Network::Switched, 1.0), (Network::SharedBus, 2.0)] {
            let cost = CostModel {
                latency: 1.0,
                block_transfer: 0.0,
                network,
                ..Default::default()
            };
            let mut e = Engine::new();
            let m = Machine::new(&mut e, &arr, cost);
            // Two transfers between disjoint pairs.
            m.message(&mut e, vec![], (0, 0), (0, 1), 0);
            m.message(&mut e, vec![], (1, 0), (1, 1), 0);
            let s = e.run();
            assert_eq!(s.makespan, expected, "network {:?}", network);
        }
    }

    #[test]
    fn nic_serializes_same_endpoint() {
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0, 1.0]]);
        let cost = CostModel {
            latency: 1.0,
            block_transfer: 0.0,
            network: Network::Switched,
            ..Default::default()
        };
        let mut e = Engine::new();
        let m = Machine::new(&mut e, &arr, cost);
        // Same source for both messages: its NIC serializes them.
        m.message(&mut e, vec![], (0, 0), (0, 1), 0);
        m.message(&mut e, vec![], (0, 0), (0, 2), 0);
        assert_eq!(e.run().makespan, 2.0);
    }

    #[test]
    fn compute_scales_with_cycle_time() {
        let arr = Arrangement::from_rows(&[vec![2.0, 3.0]]);
        let mut e = Engine::new();
        let m = Machine::new(&mut e, &arr, CostModel::default());
        m.compute(&mut e, vec![], (0, 0), 5, 1.0);
        m.compute(&mut e, vec![], (0, 1), 5, 1.0);
        let s = e.run();
        assert_eq!(s.makespan, 15.0);
        let busy = m.core_busy(&s);
        assert_eq!(busy[0][0], 10.0);
        assert_eq!(busy[0][1], 15.0);
    }
}
