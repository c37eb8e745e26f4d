//! What one `Plan` request costs the server's allocator, cold (a cache
//! miss: solve, distribute, encode one period of owners) and hot (a
//! cache hit), through `Service::handle` at nb = 64 on a 4x4 grid. A
//! counting global allocator prints both budgets and holds each under
//! its bound: a miss that built the plan's steps again, or a response
//! that carried an owner per block again, would pass it.

use hetgrid_serve::proto::{encode_request, Kernel, PlanSpec, Request, RequestBody, SolveSpec};
use hetgrid_serve::service::{Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting every allocation and reallocation and the bytes
/// each asks for.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An LU plan at nb = 64 on a 4x4 grid of cycle-times `scale * (1..=16)`.
fn frame(scale: f64) -> Vec<u8> {
    encode_request(&Request {
        tenant: "budget".into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 4,
                q: 4,
                times: (1..=16).map(|t| scale * f64::from(t)).collect(),
            },
            kernel: Kernel::Lu,
            nb: 64,
        }),
    })
}

/// Allocations and bytes of one `handle` call.
fn cost(svc: &Service, frame: &[u8]) -> (usize, usize, usize) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let len = svc.handle(frame).len();
    (
        ALLOCS.load(Relaxed) - allocs,
        BYTES.load(Relaxed) - bytes,
        len,
    )
}

#[test]
fn a_plan_request_stays_within_its_allocation_budget() {
    let svc = Service::new(ServiceConfig::default());
    // A first miss registers the metrics, the tenant and the latency
    // histogram, which every later request finds.
    cost(&svc, &frame(1.0));
    let cold = cost(&svc, &frame(2.0));
    let hot = cost(&svc, &frame(2.0));
    eprintln!("cold: {} allocations, {} bytes", cold.0, cold.1);
    eprintln!("hot: {} allocations, {} bytes", hot.0, hot.1);
    assert_eq!(cold.2, hot.2, "a hit answers the miss's bytes");
    assert!(cold.2 < 1024, "a response of {} bytes", cold.2);
    assert!(cold.0 <= COLD_ALLOCS, "cold: {} allocations", cold.0);
    assert!(cold.1 <= COLD_BYTES, "cold: {} bytes", cold.1);
    assert!(hot.0 <= HOT_ALLOCS, "hot: {} allocations", hot.0);
    assert!(hot.1 <= HOT_BYTES, "hot: {} bytes", hot.1);
}

// Each bound is its count as ten runs read it, the same in every run.
const COLD_ALLOCS: usize = 232;
const COLD_BYTES: usize = 32_262;
const HOT_ALLOCS: usize = 16;
const HOT_BYTES: usize = 845;
