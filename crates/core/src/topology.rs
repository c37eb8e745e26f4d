//! Platform models: the shape of the machine a schedule targets.
//!
//! The paper's load-balancing objective assumes a 2D processor grid
//! ([`Topology::Grid2D`]), and historically that assumption was
//! hard-wired through every layer. *Revisiting Matrix Product on
//! Master-Worker Platforms* (Dongarra et al.; see PAPERS.md) studies a
//! genuinely different platform — bounded-memory workers fed by a
//! bandwidth-limited one-port master ([`Topology::Star`]) — and this
//! enum is the seam the plan/sim/exec layers branch on. A topology is
//! pure description: plan generators consume it to pick a schedule
//! family, `hetgrid_sim::counts` to pick a closed form, and the
//! executor to pick a worker layout; none of them hard-code a grid any
//! more.

/// The platform model a kernel schedule targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// The paper's `p x q` processor grid: every processor owns blocks
    /// per a `hetgrid_dist`-style distribution, broadcasts travel
    /// along grid rows and columns, and all inputs are pre-scattered.
    Grid2D {
        /// Grid rows.
        p: usize,
        /// Grid columns.
        q: usize,
    },
    /// A master-worker star: one master holds every input block and
    /// collects every output block; `workers` bounded-memory workers
    /// hold at most `worker_mem` blocks each and receive/return blocks
    /// over the master's **one-port** link (at most one send or receive
    /// in flight at the master at a time).
    Star {
        /// Number of workers (the master is extra).
        workers: usize,
        /// Per-worker block capacity (must be at least 3: one `C`, one
        /// `A` and one `B` block is the minimum streaming footprint).
        worker_mem: usize,
        /// Master link bandwidth in blocks/second — a modelling input
        /// for bandwidth-bound makespan estimates, not enforced by the
        /// executor (real transports have their own timing).
        master_bw: f64,
    },
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Topology::Grid2D { p, q } => write!(f, "grid {p}x{q}"),
            Topology::Star {
                workers,
                worker_mem,
                ..
            } => write!(f, "star {workers}w mem {worker_mem}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_counts() {
        let g = Topology::Grid2D { p: 2, q: 3 };
        assert_eq!(g.to_string(), "grid 2x3");
        let s = Topology::Star {
            workers: 4,
            worker_mem: 7,
            master_bw: 1.0,
        };
        assert_eq!(s.to_string(), "star 4w mem 7");
    }
}
