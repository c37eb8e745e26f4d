//! # hetgrid-repro
//!
//! Regenerates every figure and table of the IPPS 2000 paper (see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results). [`experiments`] holds one section per
//! experiment; the `report` binary prints one of them, or all of them
//! into RESULTS.md. Nothing here is timed: performance is measured by
//! `benchmark/` (`BENCHMARK.json`).

#![warn(missing_docs)]
pub mod experiments;
pub mod workloads;

use hetgrid_core::heuristic::{self, HeuristicOptions};
use hetgrid_core::{exact, Allocation, Arrangement};
use hetgrid_dist::{BlockDist, PanelOrdering, Scheme};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::CostModel;
use hetgrid_sim::{simulate, Broadcast};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::{self, Write as _};

/// Draws `n` cycle-times uniformly from `(0.01, 1.0]` — the paper's
/// "random cycle times in [0, 1]", excluding a neighbourhood of zero
/// because a zero cycle-time is an infinitely fast processor and breaks
/// `T^inv` (documented substitution, see EXPERIMENTS.md).
pub fn random_times(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(0.01..=1.0)).collect()
}

/// One point of the Figures 6–8 sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Grid side (the paper arranges `n^2` processors on an `n x n`
    /// grid).
    pub n: usize,
    /// Mean of the workload matrix `B` after convergence (Figure 6).
    pub average_workload: f64,
    /// `tau = obj2(converged) / obj2(first step) - 1` (Figure 7).
    pub tau: f64,
    /// Mean number of refinement steps to convergence (Figure 8).
    pub iterations: f64,
    /// Fraction of trials that converged (rather than cycled / hit the
    /// cap).
    pub converged_fraction: f64,
}

/// The seed of Figure 6's sweep, which `hetgrid sweep` draws at too.
pub const SWEEP_SEED: u64 = 0xF166;

/// Runs the heuristic on `trials` random `n x n` instances and averages
/// the Figure 6/7/8 quantities.
pub fn heuristic_sweep_point(n: usize, trials: usize, seed: u64) -> SweepPoint {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut workload = 0.0;
    let mut tau = 0.0;
    let mut iters = 0.0;
    let mut converged = 0usize;
    for _ in 0..trials {
        let times = random_times(n * n, &mut rng);
        let res = heuristic::solve(&times, n, n, HeuristicOptions::default());
        workload += res.last().average_workload;
        tau += res.tau();
        iters += res.iterations() as f64;
        if res.converged {
            converged += 1;
        }
    }
    let t = trials as f64;
    SweepPoint {
        n,
        average_workload: workload / t,
        tau: tau / t,
        iterations: iters / t,
        converged_fraction: converged as f64 / t,
    }
}

/// The full sweep over grid sides.
pub fn heuristic_sweep(ns: &[usize], trials: usize, seed: u64) -> Vec<SweepPoint> {
    ns.iter()
        .map(|&n| heuristic_sweep_point(n, trials, seed))
        .collect()
}

/// Appends an aligned text table to `out`.
pub fn table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) -> fmt::Result {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (k, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", cell, width = widths[k]));
        }
        writeln!(out, "{}", s.trim_end())
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())?;
    line(
        &widths
            .iter()
            .map(|&w| "-".repeat(w))
            .collect::<Vec<String>>(),
    )?;
    rows.iter().try_for_each(|row| line(row))
}

/// Appends a labelled grid of cycle-times or counts to `out`.
pub fn grid<T: fmt::Display>(out: &mut String, label: &str, rows: &[Vec<T>]) -> fmt::Result {
    writeln!(out, "{}:", label)?;
    for row in rows {
        let cells: Vec<String> = row.iter().map(|x| format!("{:>8}", x)).collect();
        writeln!(out, "  [{}]", cells.join(" "))?;
    }
    Ok(())
}

/// The distributions compared in the simulation tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform 2D block-cyclic (ScaLAPACK homogeneous baseline).
    Cyclic,
    /// The paper's block-panel distribution with shares from the
    /// polynomial heuristic.
    HeuristicPanel,
    /// Block-panel distribution with exact (spanning-tree) shares —
    /// small grids only.
    ExactPanel,
    /// Kalinov–Lastovetsky heterogeneous block-cyclic.
    KalinovLastovetsky,
}

impl Strategy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Cyclic => "cyclic",
            Strategy::HeuristicPanel => "heur-panel",
            Strategy::ExactPanel => "exact-panel",
            Strategy::KalinovLastovetsky => "kalinov-l",
        }
    }
}

/// A prepared instance: arrangement (from the heuristic's converged
/// placement, shared by all strategies for a fair comparison) plus the
/// distribution for each strategy.
pub struct SimInstance {
    /// The converged arrangement.
    pub arr: Arrangement,
    /// Strategy / distribution pairs.
    pub dists: Vec<(Strategy, Box<dyn BlockDist + Sync>)>,
}

/// Builds the strategies for an instance. `panel` controls the panel
/// size (`bp = bq = panel`); the exact strategy is included only for
/// grids where the spanning-tree solver is cheap.
pub fn build_instance(times: &[f64], p: usize, q: usize, panel: usize) -> SimInstance {
    let res = heuristic::solve(times, p, q, HeuristicOptions::default());
    let best = res.best();
    let arr = best.arrangement.clone();

    let (bp, bq) = (panel.max(p), panel.max(q));
    let panels = Scheme::Panel(PanelOrdering::Interleaved);
    let build = |scheme: Scheme, alloc: &Allocation| scheme.build(&arr, alloc, bp, bq);
    let mut dists = vec![
        (Strategy::Cyclic, build(Scheme::Cyclic, &best.alloc)),
        (Strategy::HeuristicPanel, build(panels, &best.alloc)),
    ];
    if p <= 4 && q <= 4 {
        let ex = exact::solve_arrangement(&arr);
        dists.push((Strategy::ExactPanel, build(panels, &ex.alloc)));
    }
    dists.push((Strategy::KalinovLastovetsky, build(Scheme::Kl, &best.alloc)));
    SimInstance { arr, dists }
}

/// Simulated `kernel` makespan (direct broadcasts) for every strategy
/// of an instance.
pub fn sim_row(
    inst: &SimInstance,
    kernel: Kernel,
    nb: usize,
    cost: CostModel,
) -> Vec<(Strategy, f64)> {
    inst.dists
        .iter()
        .map(|(s, d)| {
            let run = simulate(kernel, &inst.arr, d.as_ref(), nb, cost, Broadcast::Direct)
                .expect("build_instance lays every strategy out on the arrangement's grid");
            (*s, run.report.makespan)
        })
        .collect()
}

/// The entry of a [`sim_row`] for one strategy.
///
/// # Panics
/// Panics if the row has no such strategy (every instance has all but
/// [`Strategy::ExactPanel`]).
pub fn makespan_of(row: &[(Strategy, f64)], want: Strategy) -> f64 {
    row.iter()
        .find(|(s, _)| *s == want)
        .unwrap_or_else(|| panic!("no {} in the row", want.name()))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_times_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = random_times(100, &mut rng);
        assert!(t.iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    #[test]
    fn sweep_point_reasonable() {
        let pt = heuristic_sweep_point(3, 10, 7);
        assert!(pt.average_workload > 0.5 && pt.average_workload <= 1.0);
        assert!(pt.tau >= -1e-9);
        assert!(pt.iterations >= 1.0);
        assert!(pt.converged_fraction > 0.5);
    }

    #[test]
    fn build_instance_strategies() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let inst = build_instance(&times, 2, 2, 8);
        let names: Vec<&str> = inst.dists.iter().map(|(s, _)| s.name()).collect();
        assert!(names.contains(&"cyclic"));
        assert!(names.contains(&"heur-panel"));
        assert!(names.contains(&"exact-panel"));
        assert!(names.contains(&"kalinov-l"));
    }

    #[test]
    fn sim_row_cyclic_is_worst_on_skewed_grid() {
        let times = [1.0, 1.0, 1.0, 10.0];
        let inst = build_instance(&times, 2, 2, 12);
        let row = sim_row(&inst, Kernel::Mm, 24, CostModel::zero_comm());
        let cyclic = makespan_of(&row, Strategy::Cyclic);
        let heur = makespan_of(&row, Strategy::HeuristicPanel);
        assert!(heur < cyclic, "heur {} !< cyclic {}", heur, cyclic);
    }
}
