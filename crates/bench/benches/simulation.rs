//! Criterion benchmarks over the discrete-event simulator and the
//! DESIGN.md ablations that need it: LU panel-column ordering
//! (interleaved vs contiguous) and ring vs direct broadcasts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::CostModel;
use hetgrid_sim::{simulate, Broadcast};

fn paper_arr() -> Arrangement {
    Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]])
}

fn bench_des_mm(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_mm_cyclic");
    group.sample_size(20);
    let arr = paper_arr();
    let dist = BlockCyclic::new(2, 2);
    for &nb in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |b, &nb| {
            b.iter(|| {
                simulate(
                    Kernel::Mm,
                    &arr,
                    &dist,
                    nb,
                    CostModel::default(),
                    Broadcast::Direct,
                )
            })
        });
    }
    group.finish();
}

fn bench_des_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_lu_panel");
    group.sample_size(20);
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
    for &nb in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |b, &nb| {
            b.iter(|| {
                simulate(
                    Kernel::Lu,
                    &arr,
                    &dist,
                    nb,
                    CostModel::default(),
                    Broadcast::Direct,
                )
            })
        });
    }
    group.finish();
}

/// Ablation: interleaved (ABAABA) vs contiguous panel-column ordering
/// for LU. The benchmark reports runtimes; the *makespan* comparison is
/// printed once so the ablation result lands in the bench log.
fn bench_ablation_lu_ordering(c: &mut Criterion) {
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let nb = 48;
    let cost = CostModel::zero_comm();
    let inter = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
    let contig = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Contiguous);
    let lu = |dist: &PanelDist| {
        let run = simulate(Kernel::Lu, &arr, dist, nb, cost, Broadcast::Direct);
        run.unwrap().report.makespan
    };
    let (mi, mc) = (lu(&inter), lu(&contig));
    // Diagnostic, not benchmark output: route through obs so it lands
    // on stderr and never interleaves with Criterion's stdout.
    hetgrid_obs::diag!(
        "[ablation] LU makespan (zero comm, nb={}): interleaved={:.1} contiguous={:.1} (ratio {:.3})",
        nb,
        mi,
        mc,
        mc / mi
    );

    let mut group = c.benchmark_group("ablation_lu_ordering");
    group.sample_size(10);
    group.bench_function("interleaved", |b| {
        b.iter(|| simulate(Kernel::Lu, &arr, &inter, 16, cost, Broadcast::Direct))
    });
    group.bench_function("contiguous", |b| {
        b.iter(|| simulate(Kernel::Lu, &arr, &contig, 16, cost, Broadcast::Direct))
    });
    group.finish();
}

fn bench_broadcast_modes(c: &mut Criterion) {
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Contiguous);
    let mut group = c.benchmark_group("broadcast_mode_mm");
    group.sample_size(20);
    for (name, mode) in [("direct", Broadcast::Direct), ("ring", Broadcast::Ring)] {
        group.bench_function(name, |b| {
            b.iter(|| simulate(Kernel::Mm, &arr, &dist, 16, CostModel::default(), mode))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_des_mm,
    bench_des_lu,
    bench_ablation_lu_ordering,
    bench_broadcast_modes
);
criterion_main!(benches);
