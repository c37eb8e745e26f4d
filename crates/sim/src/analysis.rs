//! Post-mortem analysis of a traced simulation run: where did the time
//! go? Computes per-processor busy/idle breakdowns, communication
//! overlap, and the critical-path bound — the quantities one reads off
//! a Gantt chart, as numbers.

use crate::engine::{Engine, TaskTag};
use crate::kernels::TracedRun;

/// Per-processor time breakdown over the makespan.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreBreakdown {
    /// Time the core spent computing.
    pub busy: f64,
    /// Time the core sat idle (makespan - busy).
    pub idle: f64,
}

/// Aggregate analysis of one run.
#[derive(Clone, Debug)]
pub struct RunAnalysis {
    /// The run's makespan.
    pub makespan: f64,
    /// Per-core breakdowns, indexed like the grid (row-major).
    pub cores: Vec<CoreBreakdown>,
    /// Sum of communication task durations.
    pub total_comm: f64,
    /// Communication time that overlapped with at least one core
    /// computing — transfer time the machine hid behind useful work.
    pub overlapped_comm: f64,
    /// Length of the longest dependency chain (critical path): no
    /// schedule, with any number of resources, can beat this.
    pub critical_path: f64,
}

impl RunAnalysis {
    /// Fraction of total communication hidden behind computation.
    pub fn comm_overlap_fraction(&self) -> f64 {
        if self.total_comm > 0.0 {
            self.overlapped_comm / self.total_comm
        } else {
            1.0
        }
    }

    /// Mean core utilization.
    pub fn utilization(&self) -> f64 {
        if self.cores.is_empty() || self.makespan <= 0.0 {
            return 1.0;
        }
        self.cores.iter().map(|c| c.busy).sum::<f64>() / (self.cores.len() as f64 * self.makespan)
    }

    /// How far the schedule is from the dependency-limited ideal:
    /// `makespan / critical_path`, `>= 1`.
    pub fn critical_path_stretch(&self) -> f64 {
        if self.critical_path > 0.0 {
            self.makespan / self.critical_path
        } else {
            1.0
        }
    }
}

/// Analyzes a traced kernel run for a `p x q` grid machine.
///
/// Cores are assumed to occupy resources `0..p*q` (the layout
/// [`crate::machine::Machine`] creates on a fresh engine).
pub fn analyze(run: &TracedRun, p: usize, q: usize) -> RunAnalysis {
    let n_cores = p * q;
    let makespan = run.schedule.makespan;
    let cores: Vec<CoreBreakdown> = (0..n_cores)
        .map(|r| {
            let busy = run.schedule.busy.get(r).copied().unwrap_or(0.0);
            CoreBreakdown {
                busy,
                idle: (makespan - busy).max(0.0),
            }
        })
        .collect();

    // Communication overlap: collect compute intervals (merged) and comm
    // intervals, then measure comm time covered by any compute.
    let mut compute_iv: Vec<(f64, f64)> = Vec::new();
    let mut comm_iv: Vec<(f64, f64)> = Vec::new();
    let mut total_comm = 0.0;
    for id in 0..run.engine.len() {
        let (_, tag, duration) = run.engine.task_info(id);
        if duration == 0.0 {
            continue;
        }
        let iv = (run.schedule.start[id], run.schedule.finish[id]);
        match tag {
            TaskTag::Compute(_) => compute_iv.push(iv),
            TaskTag::Comm => {
                comm_iv.push(iv);
                total_comm += duration;
            }
            TaskTag::Join => {}
        }
    }
    compute_iv.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN"));
    // Merge compute intervals.
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for iv in compute_iv {
        match merged.last_mut() {
            Some(last) if iv.0 <= last.1 => last.1 = last.1.max(iv.1),
            _ => merged.push(iv),
        }
    }
    let mut overlapped_comm = 0.0;
    for (cs, ce) in &comm_iv {
        for (ms, me) in &merged {
            let lo = cs.max(*ms);
            let hi = ce.min(*me);
            if hi > lo {
                overlapped_comm += hi - lo;
            }
        }
    }

    let critical_path = dependency_critical_path(&run.engine);

    RunAnalysis {
        makespan,
        cores,
        total_comm,
        overlapped_comm,
        critical_path,
    }
}

/// Forward-pass critical path over the engine's task graph.
fn dependency_critical_path(engine: &Engine) -> f64 {
    let n = engine.len();
    let mut finish = vec![0.0f64; n];
    let mut best: f64 = 0.0;
    for id in 0..n {
        let (_, _, duration) = engine.task_info(id);
        let ready = engine
            .task_deps(id)
            .iter()
            .map(|&d| finish[d])
            .fold(0.0f64, f64::max);
        finish[id] = ready + duration;
        best = best.max(finish[id]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{simulate, Broadcast};
    use crate::machine::CostModel;
    use hetgrid_core::Arrangement;
    use hetgrid_dist::BlockCyclic;
    use hetgrid_plan::Kernel;

    fn run_mm(nb: usize, cost: CostModel) -> TracedRun {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let dist = BlockCyclic::new(2, 2);
        simulate(Kernel::Mm, &arr, &dist, nb, cost, Broadcast::Direct).unwrap()
    }

    #[test]
    fn breakdown_sums_to_makespan() {
        let run = run_mm(6, CostModel::default());
        let a = analyze(&run, 2, 2);
        for core in &a.cores {
            assert!((core.busy + core.idle - a.makespan).abs() < 1e-9);
        }
        assert!(a.utilization() > 0.0 && a.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn critical_path_bounds_makespan() {
        let run = run_mm(8, CostModel::default());
        let a = analyze(&run, 2, 2);
        assert!(
            a.critical_path <= a.makespan + 1e-9,
            "critical path {} exceeds makespan {}",
            a.critical_path,
            a.makespan
        );
        assert!(a.critical_path_stretch() >= 1.0 - 1e-12);
    }

    #[test]
    fn zero_comm_runs_have_full_overlap_by_convention() {
        let run = run_mm(4, CostModel::zero_comm());
        let a = analyze(&run, 2, 2);
        assert_eq!(a.total_comm, 0.0);
        assert_eq!(a.comm_overlap_fraction(), 1.0);
    }

    #[test]
    fn comm_overlap_is_partial_with_costs() {
        let run = run_mm(8, CostModel::default());
        let a = analyze(&run, 2, 2);
        assert!(a.total_comm > 0.0);
        assert!(a.overlapped_comm >= 0.0);
        assert!(a.overlapped_comm <= a.total_comm + 1e-9);
        // With compute-dominated costs, most comm hides behind compute.
        assert!(
            a.comm_overlap_fraction() > 0.3,
            "{}",
            a.comm_overlap_fraction()
        );
    }
}
