//! The transport-independent service: admission, quotas, the
//! content-addressed cache, in-flight coalescing, compute, and all
//! `serve.*` metrics.
//!
//! [`Service::handle`] maps one request frame to one response frame.
//! The TCP server is a thin loop around it, and the tests drive it
//! in-process — the semantics under test are exactly the semantics
//! the socket sees.
//!
//! ## Accounting invariants
//!
//! For the cacheable endpoints (solve / plan / simulate), after any
//! quiescent point:
//!
//! * `serve.cache.hits + serve.cache.misses == serve.requests.admitted`
//! * `serve.solver.invocations == serve.cache.misses`
//! * `serve.cache.evictions <= serve.cache.misses`
//! * `serve.cache.coalesced <= serve.cache.hits`
//!
//! A request that waited on another tenant's identical in-flight solve
//! counts as a *hit* (`coalesced` tracks the subset): exactly one
//! solver invocation happens per distinct fingerprint no matter how
//! many clients race. Rejections (`serve.shed`, `serve.quota.denied`,
//! `serve.requests.malformed`) happen *before* admission and are
//! excluded, as are the meta endpoints (`serve.requests.meta`).
//!
//! ## Compute
//!
//! Cold-path compute runs on the admitted request's own thread, so
//! CPU-bound solver work is bounded by [`ServiceConfig::queue_limit`] —
//! the admission limit — and a request is one connected trace tree. It
//! is wrapped in `catch_unwind`: a panic degrades to a typed
//! `ServerError` response (uncached) instead of taking the process
//! down. A plan grows faster in `nb` than the request bound allows
//! for: a `Plan` or `Simulate` whose plan would hold more than
//! [`MAX_BUILT_LEN`] bytes as [`built_len`] or [`counts_len`] count
//! them is refused before anything is built, and a response that still
//! turns out too large for a frame ([`MAX_FRAME`]) degrades to an
//! uncached `BadRequest` naming its size and the cap (a `Simulate` on
//! the widest grids; a `Plan` response never does). A `Plan` response
//! carries the plan's source, one period of owners: the server never
//! builds its steps, the client's `wire::decode` does.

use crate::cache::PlanCache;
use crate::fingerprint::{cache_key, fingerprint};
use crate::proto::{
    decode_request, encode_response, Request, RequestBody, Response, SolveResult, SolveSpec,
    MAX_SPREAD,
};
use crate::quota::{QuotaConfig, QuotaTable};
use crate::wire::MAX_FRAME;
use hetgrid_core::{heuristic, validate_times, Arrangement};
use hetgrid_dist::{panel_period, PanelDist, PanelOrdering};
use hetgrid_plan::wire::{built_len, counts_len, MAX_BUILT_LEN};
use hetgrid_plan::{Kernel, Source};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Latency histogram bucket bounds, seconds.
const LATENCY_BOUNDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Tuning knobs for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum concurrently-admitted compute requests before load is
    /// shed with `Busy`.
    pub queue_limit: usize,
    /// Per-tenant quota policy.
    pub quota: QuotaConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 256,
            queue_limit: 64,
            quota: QuotaConfig::unlimited(),
        }
    }
}

/// One in-flight compute: waiters block on the condvar until the
/// leader publishes the encoded response.
struct Flight {
    slot: Mutex<Option<Arc<Vec<u8>>>>,
    done: Condvar,
}

/// The scheduling service. Cheap to share (`Arc<Service>`); every
/// method takes `&self`.
pub struct Service {
    cfg: ServiceConfig,
    cache: Mutex<PlanCache>,
    quotas: Mutex<QuotaTable>,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    active: AtomicUsize,
    shutdown: AtomicBool,
    start: Instant,
}

fn serve_track() -> hetgrid_obs::trace::TrackId {
    static TRACK: OnceLock<hetgrid_obs::trace::TrackId> = OnceLock::new();
    *TRACK.get_or_init(|| hetgrid_obs::trace::track("serve"))
}

fn pool_track() -> hetgrid_obs::trace::TrackId {
    static TRACK: OnceLock<hetgrid_obs::trace::TrackId> = OnceLock::new();
    *TRACK.get_or_init(|| hetgrid_obs::trace::track("serve-pool"))
}

impl Service {
    /// A fresh service under `cfg`.
    pub fn new(cfg: ServiceConfig) -> Self {
        Service {
            cache: Mutex::new(PlanCache::new(cfg.cache_capacity)),
            quotas: Mutex::new(QuotaTable::new(cfg.quota)),
            inflight: Mutex::new(HashMap::new()),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            cfg,
        }
    }

    /// True once a `Shutdown` request has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request frame, returning the encoded response
    /// frame. Total: malformed input yields an encoded `BadRequest`,
    /// a compute panic an encoded `ServerError` — never a panic out of
    /// this function. Responses for requests with the same cache
    /// fingerprint are the *same* `Arc` — byte-identical by
    /// construction.
    pub fn handle(&self, frame: &[u8]) -> Arc<Vec<u8>> {
        let req = match decode_request(frame) {
            Ok(req) => req,
            Err(e) => {
                hetgrid_obs::metrics()
                    .counter("serve.requests.malformed")
                    .inc();
                return Arc::new(encode_response(&Response::BadRequest(e.to_string())));
            }
        };
        self.handle_decoded(&req)
    }

    /// [`Service::handle`] over an already-decoded request, decoding
    /// the response for in-process callers.
    pub fn respond(&self, req: &Request) -> Response {
        let bytes = self.handle_decoded(req);
        match crate::proto::decode_response(&bytes) {
            Ok(resp) => resp,
            Err(e) => Response::ServerError(format!("internal codec error: {e}")),
        }
    }

    fn handle_decoded(&self, req: &Request) -> Arc<Vec<u8>> {
        let m = hetgrid_obs::metrics();
        let _span = hetgrid_obs::span!(
            serve_track(),
            "{} tenant={}",
            req.body.endpoint(),
            req.tenant
        );
        let body = &req.body;
        // Only the meta endpoints (metrics, shutdown) have no cache key.
        let Some(key) = cache_key(body) else {
            m.counter("serve.requests.meta").inc();
            let resp = match body {
                // The whole registry: the top dashboard wants the
                // exec/pool/recovery families too; clients narrow it.
                RequestBody::Metrics => Response::Metrics(m.snapshot()),
                _ => {
                    self.shutdown.store(true, Ordering::SeqCst);
                    Response::ShuttingDown
                }
            };
            return Arc::new(encode_capped(&resp).0);
        };
        if let Err(msg) = validate_body(body) {
            m.counter("serve.requests.malformed").inc();
            return Arc::new(encode_response(&Response::BadRequest(msg)));
        }
        // Quota, then load shedding, then admission.
        let now = self.start.elapsed().as_secs_f64();
        if !self
            .quotas
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .try_admit(&req.tenant, now)
        {
            m.counter("serve.quota.denied").inc();
            return Arc::new(encode_response(&Response::QuotaExceeded));
        }
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        if active > self.cfg.queue_limit {
            self.active.fetch_sub(1, Ordering::SeqCst);
            m.counter("serve.shed").inc();
            return Arc::new(encode_response(&Response::Busy));
        }
        m.gauge("serve.queue.depth").set(active as f64);
        m.counter("serve.requests.admitted").inc();
        let tenant = if req.tenant.is_empty() {
            "anon"
        } else {
            req.tenant.as_str()
        };
        m.counter(&format!("serve.tenant.{tenant}.admitted")).inc();
        let t0 = Instant::now();
        let resp_bytes = self.cached_compute(body, key);
        m.histogram(
            &format!("serve.latency.{}", body.endpoint()),
            LATENCY_BOUNDS,
        )
        .observe(t0.elapsed().as_secs_f64());
        let left = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        m.gauge("serve.queue.depth").set(left as f64);
        resp_bytes
    }

    /// The cache / coalescing / compute path for an admitted request
    /// with cache key `key`. Returns the encoded response bytes (shared
    /// with the cache).
    fn cached_compute(&self, body: &RequestBody, key: Vec<u8>) -> Arc<Vec<u8>> {
        let m = hetgrid_obs::metrics();
        let fp = fingerprint(&key);

        let cached = || {
            let hit = self
                .cache
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(fp, &key);
            if hit.is_some() {
                m.counter("serve.cache.hits").inc();
            }
            hit
        };
        if let Some(bytes) = cached() {
            return bytes;
        }

        // Not cached: either lead the compute or wait on the leader.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
            match inflight.get(&fp.0) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    // A leader may have cached this key and retired its
                    // flight since the check above: look again before
                    // leading. Lock order is in-flight, then cache; no
                    // path takes them the other way round.
                    if let Some(bytes) = cached() {
                        return bytes;
                    }
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inflight.insert(fp.0, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            let mut slot = flight.slot.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(bytes) = &*slot {
                    m.counter("serve.cache.hits").inc();
                    m.counter("serve.cache.coalesced").inc();
                    return Arc::clone(bytes);
                }
                slot = flight.done.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
        }

        m.counter("serve.cache.misses").inc();
        m.counter("serve.solver.invocations").inc();
        // Solve on this request's own thread — admission already bounds
        // how many run at once — and absorb any panic into a typed,
        // uncached ServerError. The span stays on the `serve-pool` track
        // and, on the same thread, in the same trace tree as admission.
        let computed = catch_unwind(AssertUnwindSafe(|| {
            let _span = hetgrid_obs::span!(pool_track(), "solve {}", body.endpoint());
            compute(body)
        }));
        let (resp, cacheable) = match computed {
            Ok(resp) => (resp, true),
            Err(_) => (
                Response::ServerError("solver panicked; request not cached".into()),
                false,
            ),
        };
        let (bytes, fits) = encode_capped(&resp);
        let bytes = Arc::new(bytes);
        if cacheable && fits {
            let inserted = self.cache.lock().unwrap_or_else(|p| p.into_inner()).insert(
                fp,
                key,
                Arc::clone(&bytes),
            );
            if inserted.evicted {
                m.counter("serve.cache.evictions").inc();
            }
        }
        // Publish to waiters, then retire the flight so later requests
        // go through the cache.
        *flight.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&bytes));
        flight.done.notify_all();
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&fp.0);
        bytes
    }
}

/// `resp` encoded, or a `BadRequest` naming the size and the cap when
/// those bytes would not fit one frame (`false`: not what was asked).
fn encode_capped(resp: &Response) -> (Vec<u8>, bool) {
    let bytes = encode_response(resp);
    if bytes.len() <= MAX_FRAME {
        return (bytes, true);
    }
    let msg = format!(
        "response of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
        bytes.len()
    );
    (encode_response(&Response::BadRequest(msg)), false)
}

/// Semantic validation beyond what the codec enforces structurally:
/// valid cycle-times, a plan a server builds (a `Simulate` folds the
/// same plan, so it is held to the same bound), and a `Simulate`
/// pool whose work weights fit ([`MAX_SPREAD`]).
fn validate_body(body: &RequestBody) -> Result<(), String> {
    let spec = match body {
        RequestBody::Solve(s) => s,
        RequestBody::Plan(p) | RequestBody::Simulate(p) => &p.solve,
        _ => return Ok(()),
    };
    validate_times(&spec.times, spec.p, spec.q).map_err(|e| e.to_string())?;
    if let RequestBody::Plan(plan) | RequestBody::Simulate(plan) = body {
        refuse_unbuildable(plan.kernel, plan.nb, (spec.p, spec.q))?;
    }
    if let RequestBody::Simulate(_) = body {
        let max = spec.times.iter().copied().fold(0.0, f64::max);
        let min = spec.times.iter().copied().fold(f64::INFINITY, f64::min);
        let spread = (max / min).round();
        if spread > MAX_SPREAD {
            return Err(format!(
                "cycle-time spread {spread:e} (slowest / fastest) exceeds the simulate bound {MAX_SPREAD:e}"
            ));
        }
    }
    Ok(())
}

/// Refuses a plan that a server does not build and a client does not
/// decode: one whose steps, as [`built_len`] counts them, or whose
/// count tables on the `p x q` grid ([`counts_len`]) pass
/// [`MAX_BUILT_LEN`].
fn refuse_unbuildable(kernel: Kernel, nb: usize, (p, q): (usize, usize)) -> Result<(), String> {
    let name = kernel.name();
    let counts = counts_len((p, q), nb);
    if counts > MAX_BUILT_LEN {
        return Err(format!(
            "a {name} plan at nb = {nb} on a {p}x{q} grid keeps {counts} processor counts, a byte each, over the {MAX_BUILT_LEN}-byte bound on a built plan"
        ));
    }
    let built = built_len(kernel, (nb, nb, nb));
    if built > MAX_BUILT_LEN {
        return Err(format!(
            "a {name} plan at nb = {nb} builds at least {built} bytes of steps, over the {MAX_BUILT_LEN}-byte bound on a built plan"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Compute: the pure function a cache entry memoizes
// ---------------------------------------------------------------------

fn solve_result(spec: &SolveSpec) -> (Arrangement, hetgrid_core::Allocation, SolveResult) {
    let res = heuristic::solve_default(&spec.times, spec.p, spec.q);
    let best = res.best();
    let result = SolveResult {
        p: spec.p,
        q: spec.q,
        times: best.arrangement.times().to_vec(),
        rows: best.alloc.r.clone(),
        cols: best.alloc.c.clone(),
        obj2: best.obj2,
    };
    (best.arrangement.clone(), best.alloc.clone(), result)
}

/// The paper-faithful distribution for a solved instance: interleaved
/// panels from the continuous allocation, at [`panel_period`]'s period.
fn dist_for(arr: &Arrangement, alloc: &hetgrid_core::Allocation, nb: usize) -> PanelDist {
    let (bp, bq) = (panel_period(nb, arr.p()), panel_period(nb, arr.q()));
    PanelDist::from_allocation(arr, alloc, bp, bq, PanelOrdering::Interleaved)
}

fn compute(body: &RequestBody) -> Response {
    match body {
        RequestBody::Solve(spec) => {
            let (_, _, result) = solve_result(spec);
            Response::Solve(result)
        }
        RequestBody::Plan(spec) => {
            let (arr, alloc, result) = solve_result(&spec.solve);
            let dist = dist_for(&arr, &alloc, spec.nb);
            let nb = spec.nb;
            let source = Source::grid(spec.kernel, &dist, (nb, nb, nb));
            Response::Plan(crate::proto::PlanResult {
                solve: result,
                plan_bytes: hetgrid_plan::wire::encode_source(&source),
            })
        }
        RequestBody::Simulate(spec) => {
            let (arr, alloc, _) = solve_result(&spec.solve);
            let dist = dist_for(&arr, &alloc, spec.nb);
            let weights = arr.slowdown_weights();
            let plan = spec.kernel.plan(&dist, spec.nb);
            let counts = hetgrid_sim::counts::fold(&plan, 0, &weights);
            Response::Simulate(crate::proto::SimulateResult {
                p: spec.solve.p,
                q: spec.solve.q,
                messages: counts.messages.iter().flatten().copied().collect(),
                work: counts.work_units.iter().flatten().copied().collect(),
            })
        }
        RequestBody::Metrics | RequestBody::Shutdown => {
            unreachable!("meta endpoints are handled before compute")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, Kernel, PlanSpec};
    use std::sync::{MutexGuard, OnceLock};

    /// The metrics registry is process-global, so tests that assert
    /// counter deltas must not run while other Service tests are
    /// incrementing the same counters.
    fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn plan_request(tenant: &str, times: &[f64]) -> Request {
        Request {
            tenant: tenant.into(),
            body: RequestBody::Plan(PlanSpec {
                solve: SolveSpec {
                    p: 2,
                    q: 2,
                    times: times.to_vec(),
                },
                kernel: Kernel::Lu,
                nb: 6,
            }),
        }
    }

    #[test]
    fn malformed_frames_become_bad_request() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for frame in [&b""[..], &b"xx"[..], &[0xFF; 64][..]] {
            let resp = crate::proto::decode_response(&svc.handle(frame)).unwrap();
            assert!(matches!(resp, Response::BadRequest(_)), "{frame:?}");
        }
    }

    /// A Plan request as a v1 client wrote it (every count a `u32`) is
    /// refused by its version byte, before any of its body is read.
    #[test]
    fn v1_request_frames_become_bad_request() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let mut v1 = vec![b'h', b'g', 1, 2, 0, 0, 1];
        v1.extend(8u32.to_le_bytes()); // nb
        v1.extend([2, 0, 2, 0]); // p, q
        v1.extend(4u32.to_le_bytes()); // cycle-time count
        for t in [1.0f64, 2.0, 3.0, 5.0] {
            v1.extend(t.to_bits().to_le_bytes());
        }
        let resp = crate::proto::decode_response(&svc.handle(&v1)).unwrap();
        assert_eq!(
            resp,
            Response::BadRequest(
                "malformed payload at byte 2: unsupported protocol version".into()
            )
        );
    }

    #[test]
    fn bad_cycle_times_become_bad_request_not_panic() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let req = plan_request("t", &[1.0, 2.0, 3.0, bad]);
            let resp = crate::proto::decode_response(&svc.handle(&encode_request(&req))).unwrap();
            assert!(matches!(resp, Response::BadRequest(_)), "time {bad}");
        }
    }

    #[test]
    fn identical_requests_are_byte_identical_and_hit_the_cache() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let req = encode_request(&plan_request("a", &[1.0, 2.0, 3.0, 5.0]));
        let m = hetgrid_obs::metrics();
        let before = m.snapshot();
        let first = svc.handle(&req);
        // Different tenant, same spec: same bytes, served from cache.
        let other = encode_request(&plan_request("b", &[1.0, 2.0, 3.0, 5.0]));
        let second = svc.handle(&other);
        assert_eq!(first, second);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.counter("serve.requests.admitted"), 2);
        assert_eq!(d.counter("serve.cache.misses"), 1);
        assert_eq!(d.counter("serve.cache.hits"), 1);
        assert_eq!(d.counter("serve.solver.invocations"), 1);
    }

    #[test]
    fn plan_response_decodes_to_a_valid_plan() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let req = plan_request("t", &[1.0, 2.0, 2.0, 4.0]);
        let resp = svc.respond(&req);
        let Response::Plan(r) = resp else {
            panic!("expected a plan response, got {resp:?}")
        };
        let plan = hetgrid_plan::wire::decode(&r.plan_bytes).expect("valid plan bytes");
        assert_eq!(plan.grid, (2, 2));
        assert_eq!(plan.steps.len(), 6);
        assert_eq!(r.solve.rows.len(), 2);
        assert_eq!(r.solve.cols.len(), 2);
    }

    /// What `benchmark/src/plan_serve.rs` re-derives for every served
    /// plan, with the period rule spelled out as its frozen copy
    /// (`benchmark/src/exec_wl.rs::panel_dist`) spells it: if
    /// `hetgrid_dist::panel_period` drifts, this fails before the
    /// benchmark's byte comparison does.
    #[test]
    fn plan_bytes_are_the_benchmarks_rederivation() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let specs: [(usize, usize, usize, Vec<f64>); 2] = [
            (2, 2, 6, vec![1.0, 2.0, 3.0, 5.0]),
            (4, 4, 24, (1..=16).map(f64::from).collect()),
        ];
        for (p, q, nb, times) in specs {
            let res = heuristic::solve_default(&times, p, q);
            let best = res.best();
            let (bp, bq) = (nb.min(4 * p).max(p), nb.min(4 * q).max(q));
            let dist = PanelDist::from_allocation(
                &best.arrangement,
                &best.alloc,
                bp,
                bq,
                PanelOrdering::Interleaved,
            );
            for kernel in Kernel::ALL {
                let solve = SolveSpec {
                    p,
                    q,
                    times: times.clone(),
                };
                let resp = svc.respond(&Request {
                    tenant: String::new(),
                    body: RequestBody::Plan(PlanSpec { solve, kernel, nb }),
                });
                let Response::Plan(served) = resp else {
                    panic!("expected a plan response, got {resp:?}")
                };
                let expect = hetgrid_plan::wire::encode(&kernel.plan(&dist, nb));
                assert!(
                    served.plan_bytes == expect,
                    "{} on {p}x{q}, nb {nb}: served plan differs",
                    kernel.name()
                );
                assert_eq!(served.solve.obj2, best.obj2);
            }
        }
    }

    /// A QR plan request on the paper's grid.
    /// A `Plan` of `kernel` at `nb` on the paper's 2x2 grid {1, 2, 3, 5}.
    fn paper_plan(kernel: Kernel, nb: usize) -> Request {
        Request {
            tenant: String::new(),
            body: RequestBody::Plan(PlanSpec {
                solve: SolveSpec {
                    p: 2,
                    q: 2,
                    times: vec![1.0, 2.0, 3.0, 5.0],
                },
                kernel,
                nb,
            }),
        }
    }

    /// A `Simulate` of LU at nb = 1 on the widest grid the protocol
    /// takes, 1024 x 1024, answers two counts a processor: 16 777 230
    /// bytes, more than a frame holds. The answer is a typed refusal,
    /// not a frame the connection cannot write, and never cached.
    #[test]
    fn oversize_response_is_a_bad_request_and_not_cached() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let side = crate::proto::MAX_GRID_SIDE;
        let want = "response of 16777230 bytes exceeds the 16777216-byte frame cap";
        let resp = svc.respond(&Request {
            tenant: String::new(),
            body: RequestBody::Simulate(PlanSpec {
                solve: SolveSpec {
                    p: side,
                    q: side,
                    times: vec![1.0; side * side],
                },
                kernel: Kernel::Lu,
                nb: 1,
            }),
        });
        assert!(
            matches!(&resp, Response::BadRequest(msg) if msg == want),
            "got a {} response",
            resp.status()
        );
        assert!(svc.cache.lock().unwrap().is_empty());
    }

    /// The most bytes a `Plan` response takes on a `p x q` grid at `nb`:
    /// the solve result's cycle-times and shares, then a source whose
    /// period is [`dist_for`]'s clamped to the matrix, every owner
    /// written as the grid's last processor.
    fn plan_response_bound((p, q): (usize, usize), nb: usize) -> usize {
        let varint = |v: usize| {
            let mut bytes = Vec::new();
            hetgrid_plan::wire::Field::put(&v, &mut bytes);
            bytes.len()
        };
        let (bp, bq) = (panel_period(nb, p).min(nb), panel_period(nb, q).min(nb));
        let owner = varint(p - 1) + varint(q - 1);
        let plan = 2 + 3 * varint(nb) + varint(p) + varint(q) + varint(bp) + varint(bq);
        let plan = plan + bp * bq * owner;
        let shares = varint(p * q) + 8 * p * q + varint(p) + 8 * p + varint(q) + 8 * q;
        4 + 4 + shares + 8 + varint(plan) + plan
    }

    /// No `Plan` response passes the frame cap, so none is refused as
    /// oversize: a source is one period of owners, at most four panel
    /// lines per grid line, and a grid's count tables bound its `nb`.
    /// Checked for every grid the protocol takes at the largest `nb`
    /// its count tables allow, through a bound that holds over real
    /// responses.
    #[test]
    fn no_plan_response_passes_the_frame_cap() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for (p, q, kernel, nb) in [(2, 2, Kernel::Lu, 6), (4, 4, Kernel::Mm, 64)] {
            let times = (1..=p * q).map(|t| t as f64).collect();
            let req = Request {
                tenant: String::new(),
                body: RequestBody::Plan(PlanSpec {
                    solve: SolveSpec { p, q, times },
                    kernel,
                    nb,
                }),
            };
            let len = svc.handle(&encode_request(&req)).len();
            assert!(len <= plan_response_bound((p, q), nb), "{p}x{q}: {len}");
        }
        let side = crate::proto::MAX_GRID_SIDE;
        let mut worst = 0;
        for p in 1..=side {
            for q in 1..=side {
                let nb = (MAX_BUILT_LEN / (p * q)).min(crate::proto::MAX_NB);
                assert!(counts_len((p, q), nb) <= MAX_BUILT_LEN);
                worst = worst.max(plan_response_bound((p, q), nb));
            }
        }
        assert!(worst <= MAX_FRAME, "a plan response of {worst} bytes");
    }

    /// At the largest nb the codec takes, every kernel's plan builds
    /// past the built-plan bound: `Plan` and `Simulate` are both refused
    /// before anything is built (building them would take minutes and
    /// gigabytes), and nothing is cached.
    #[test]
    fn unsendable_plans_are_refused_before_planning() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for kernel in Kernel::ALL {
            let plan = paper_plan(kernel, crate::proto::MAX_NB);
            let RequestBody::Plan(spec) = plan.body.clone() else {
                unreachable!()
            };
            let simulate = Request {
                body: RequestBody::Simulate(spec),
                ..plan.clone()
            };
            for req in [plan, simulate] {
                let t0 = Instant::now();
                let resp = svc.respond(&req);
                assert!(
                    matches!(&resp, Response::BadRequest(msg) if msg.contains("bound on a built plan")),
                    "{kernel:?}: got a {} response",
                    resp.status()
                );
                assert!(t0.elapsed().as_secs_f64() < 1.0, "{kernel:?} was planned");
            }
        }
        assert!(svc.cache.lock().unwrap().is_empty());
    }

    /// The (kernel, nb) refused before planning are exactly those whose
    /// plan, every QR step written in long form, was provably past the
    /// frame cap: the bound as it stood before QR steps had a short
    /// form, copied here as the oracle.
    #[test]
    fn the_refused_plans_are_the_ones_refused_before_the_short_form() {
        fn long_form_least(kernel: Kernel, nb: usize) -> usize {
            let entries = match kernel {
                Kernel::Mm => 2 * nb * nb * 5,
                Kernel::Lu => nb * nb * 5,
                Kernel::Cholesky => nb * nb.saturating_sub(1) / 2 * 5,
                Kernel::Qr => (0..nb).map(|m| (m + 1) * 2 + m * (4 + m * 2)).sum(),
            };
            nb * 2 + entries
        }
        for kernel in Kernel::ALL {
            for nb in 1..=crate::proto::MAX_NB {
                let RequestBody::Plan(spec) = paper_plan(kernel, nb).body else {
                    unreachable!()
                };
                let refused = validate_body(&RequestBody::Plan(spec)).is_err();
                let oracle = long_form_least(kernel, nb) > 16 * 1024 * 1024;
                assert_eq!(refused, oracle, "{kernel:?} at nb = {nb}");
            }
        }
    }

    /// QR at nb = 293 is the first QR plan refused before planning: the
    /// refusal says what it bounds.
    #[test]
    fn a_qr_refusal_names_the_built_plan_bound_not_the_frame_cap() {
        let RequestBody::Plan(spec) = paper_plan(Kernel::Qr, 293).body else {
            unreachable!()
        };
        let msg = validate_body(&RequestBody::Plan(spec)).unwrap_err();
        assert_eq!(
            msg,
            "a qr plan at nb = 293 builds at least 16941260 bytes of steps, over the \
             16777216-byte bound on a built plan"
        );
    }

    /// A grid whose count tables, one count per processor a step, pass
    /// the built-plan bound is refused before planning, as the client's
    /// decoder would refuse its plan: a 128 x 128 grid at nb = 1025.
    #[test]
    fn a_grid_whose_count_tables_pass_the_bound_is_refused() {
        let refused = |nb| {
            let solve = SolveSpec {
                p: 128,
                q: 128,
                times: vec![1.0; 128 * 128],
            };
            let kernel = Kernel::Lu;
            validate_body(&RequestBody::Plan(PlanSpec { solve, kernel, nb })).err()
        };
        assert_eq!(refused(1024), None);
        assert_eq!(
            refused(1025).as_deref(),
            Some(
                "a lu plan at nb = 1025 on a 128x128 grid keeps 16793600 processor counts, \
                 a byte each, over the 16777216-byte bound on a built plan"
            )
        );
    }

    /// QR at nb = 240 on the paper's grid fits one frame.
    #[test]
    fn qr_at_nb_240_is_served() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let resp = svc.respond(&paper_plan(Kernel::Qr, 240));
        let Response::Plan(r) = resp else {
            panic!("expected a plan response, got a {} response", resp.status())
        };
        assert!(r.plan_bytes.len() <= MAX_FRAME);
        let plan = hetgrid_plan::wire::decode(&r.plan_bytes).expect("valid plan bytes");
        assert_eq!(plan.steps.len(), 240);
        assert_eq!(svc.cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn simulate_agrees_with_direct_counts() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let spec = PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0, 2.0, 3.0, 5.0],
            },
            kernel: Kernel::Cholesky,
            nb: 6,
        };
        let resp = svc.respond(&Request {
            tenant: String::new(),
            body: RequestBody::Simulate(spec.clone()),
        });
        let Response::Simulate(sim) = resp else {
            panic!("expected simulate")
        };
        let (arr, alloc, _) = solve_result(&spec.solve);
        let dist = dist_for(&arr, &alloc, spec.nb);
        let counts = hetgrid_sim::counts::cholesky_counts(&dist, spec.nb, &arr.slowdown_weights());
        assert_eq!(sim.messages.iter().sum::<u64>(), counts.total_messages());
        assert_eq!(sim.work.iter().sum::<u64>(), counts.total_work());
    }

    #[test]
    fn quota_denies_past_burst() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.001,
                burst: 2.0,
            },
            ..ServiceConfig::default()
        });
        let req = plan_request("greedy", &[1.0, 2.0, 3.0, 5.0]);
        assert_ne!(svc.respond(&req).status(), "quota");
        assert_ne!(svc.respond(&req).status(), "quota");
        assert_eq!(svc.respond(&req).status(), "quota");
        // Another tenant is unaffected.
        let other = plan_request("patient", &[1.0, 2.0, 3.0, 5.0]);
        assert_ne!(svc.respond(&other).status(), "quota");
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        assert!(!svc.shutdown_requested());
        let resp = svc.respond(&Request {
            tenant: "ops".into(),
            body: RequestBody::Shutdown,
        });
        assert_eq!(resp, Response::ShuttingDown);
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn metrics_endpoint_reports_the_whole_registry() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        hetgrid_obs::metrics()
            .counter("exec.test.metrics_endpoint")
            .inc();
        svc.respond(&plan_request("t", &[2.0, 2.0, 3.0, 5.0]));
        let resp = svc.respond(&Request {
            tenant: "ops".into(),
            body: RequestBody::Metrics,
        });
        let Response::Metrics(snap) = resp else {
            panic!("expected metrics")
        };
        assert!(snap.counter("serve.requests.admitted") >= 1);
        assert!(snap.counter("serve.tenant.t.admitted") >= 1);
        assert!(snap.counter("exec.test.metrics_endpoint") >= 1);
        assert!(snap.histograms.contains_key("serve.latency.plan"));
    }

    /// A valid pool whose slowest / fastest ratio passes `MAX_SPREAD`
    /// would overflow the weighted work counts: refused, typed, before
    /// admission. Solve and Plan never weight work, so they take it.
    #[test]
    fn spread_out_simulate_pools_are_bad_requests() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let spec = |times: [f64; 4]| PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: times.to_vec(),
            },
            kernel: Kernel::Lu,
            nb: 4,
        };
        let request = |body| Request {
            tenant: String::new(),
            body,
        };
        let edge = [1.0, MAX_SPREAD, 1.0, 1.0];
        let past = [1.0, MAX_SPREAD + 1.0, 1.0, 1.0];
        let ok = svc.respond(&request(RequestBody::Simulate(spec(edge))));
        assert!(matches!(ok, Response::Simulate(_)), "{ok:?}");
        let resp = svc.respond(&request(RequestBody::Simulate(spec(past))));
        assert_eq!(
            resp,
            Response::BadRequest(
                "cycle-time spread 1.6777217e7 (slowest / fastest) exceeds the simulate bound 1.6777216e7".into()
            )
        );
        let plan = svc.respond(&request(RequestBody::Plan(spec(past))));
        assert!(matches!(plan, Response::Plan(_)), "{plan:?}");
    }
}
