//! Folding a plan into counts allocates per step at most, not per
//! broadcast: `counts::fold` reads each broadcast's destination count
//! from one list per whole row, column or hook, kept in shared buffers.
//! A counting global allocator checks it for every kernel at nb = 64 on
//! a 4x4 panel grid.

use hetgrid_core::Arrangement;
use hetgrid_dist::{PanelDist, PanelOrdering};
use hetgrid_plan::Kernel;
use hetgrid_sim::counts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn fold_allocates_per_step_not_per_broadcast() {
    let arr = Arrangement::from_rows(&[
        vec![1.0, 1.5, 2.0, 2.5],
        vec![3.0, 3.5, 4.0, 4.5],
        vec![5.0, 5.5, 6.0, 6.5],
        vec![7.0, 7.5, 8.0, 9.0],
    ]);
    let alloc = hetgrid_core::exact::solve_arrangement(&arr).alloc;
    let dist = PanelDist::from_allocation(&arr, &alloc, 16, 16, PanelOrdering::Interleaved);
    let weights = arr.slowdown_weights();
    for kernel in Kernel::ALL {
        let plan = kernel.plan(&dist, 64);
        let before = ALLOCS.load(Relaxed);
        let folded = counts::fold(&plan, 0, &weights);
        let allocs = ALLOCS.load(Relaxed) - before;
        let steps = plan.steps.len();
        eprintln!("{}: {allocs} allocations, {steps} steps", kernel.name());
        assert!(folded.total_work() > 0);
        assert!(
            allocs <= steps,
            "{}: {allocs} allocations for {steps} steps",
            kernel.name()
        );
    }
}
