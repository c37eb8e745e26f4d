//! `plan_serve`: the control plane alone; `exec` and `linalg` do nothing.
//!
//! A 4x4 grid at 64 blocks per side, one server with the default
//! 256-entry cache, one connection. One op is four cold `Plan` requests
//! (cycle-times no request has carried before, one per kernel: miss -> heuristic ->
//! distribution -> plan -> encode -> insert, evicting once the cache is
//! full) and `HOT_PER_OP` hot ones from a 64-key set (hit -> shared
//! bytes). Reads sit beside writes on the cache, so a gain on hits that
//! costs misses, or the reverse, shows.

use crate::exec_wl::{panel_dist, plan_request, Kind};
use crate::rng::Rng;
use crate::span::{Layer, Tracer};
use hetgrid_core::heuristic;
use hetgrid_dist::PanelDist;
use hetgrid_plan::Plan;
use hetgrid_serve::proto::PlanResult;
use hetgrid_serve::{Client, Kernel, PlanSpec, Request, RequestBody, Response, ServerHandle};

pub const P: usize = 4;
pub const Q: usize = 4;
pub const NB: usize = 64;
pub const KERNELS: [Kernel; 4] = [Kernel::Mm, Kernel::Lu, Kernel::Cholesky, Kernel::Qr];
pub const HOT_KEYS: usize = 64;
/// Hot requests per op, a constant chosen so that hot requests take
/// between 0.35 and 0.65 of an op (`serve.hot_share`).
pub const HOT_PER_OP: usize = 80;
/// Cold requests set-up sends after the hot set, to fill the cache.
const CACHE_FILL: usize = 192;
/// Every this many cold responses, one is recomputed directly.
const RECHECK_EVERY: u64 = 16;
/// Every this many hot responses, one is compared byte for byte with
/// its key's first response (a response is about half a megabyte, and
/// comparing all of them would be a tenth of the op); the others are
/// compared by solved shares and plan length. The stride is odd, so
/// over eight ops every key has its turn.
const HOT_FULL_EVERY: u64 = 7;

pub struct PlanServe {
    _server: ServerHandle,
    client: Client,
    draws: Draws,
    hot: Vec<(Request, PlanResult)>,
    next_hot: usize,
    cold_seen: u64,
    hot_seen: u64,
    warmup_ops: usize,
    /// Seconds the direct in-process computation of the hot set took in
    /// set-up: this workload's single-threaded baseline.
    pub seq_baseline_s: f64,
    pub counts_matched: bool,
    /// Bytes of plan the traced ops received.
    pub response_bytes: u64,
}

/// The responses of one op: cold ones with their requests, hot ones
/// with the index of their key.
pub struct OpOut {
    cold: Vec<(Request, PlanResult)>,
    hot: Vec<(usize, PlanResult)>,
}

/// Cycle-times of the next request: one of `PROFILES` fixed pools of 16
/// times in [1, 10), taken in turn (one pool per four requests, so each
/// kernel meets every pool), its entries shuffled and scaled by the
/// seed's draws. Every seed so asks new questions (the cache key is the
/// bit pattern of the times) that cost the same solver, plan and
/// response work in total, which is what lets two seeds be compared.
struct Draws {
    rng: Rng,
    profiles: Vec<Vec<f64>>,
    drawn: usize,
}

const PROFILES: usize = 8;

impl Draws {
    fn new(seed: u64) -> Self {
        let mut fixed = Rng::new(0x9120_F11E);
        Draws {
            rng: Rng::new(seed),
            profiles: (0..PROFILES)
                .map(|_| (0..P * Q).map(|_| fixed.range(1.0, 10.0)).collect())
                .collect(),
            drawn: 0,
        }
    }

    fn times(&mut self) -> Vec<f64> {
        let pool = &self.profiles[self.drawn / KERNELS.len() % PROFILES];
        self.drawn += 1;
        let scale = self.rng.range(1.0, 2.0);
        let mut times: Vec<f64> = pool.iter().map(|t| t * scale).collect();
        for i in (1..times.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            times.swap(i, j);
        }
        times
    }
}

fn spec_of(request: &Request) -> &PlanSpec {
    match &request.body {
        RequestBody::Plan(spec) => spec,
        _ => unreachable!("this workload sends only plan requests"),
    }
}

/// What the server computes on a miss, through the same public
/// functions, each in its layer's span: `core -> dist -> plan ->
/// wire::encode`. Returns the encoded plan and the pieces it came from.
pub fn recompute(spec: &PlanSpec, tr: &mut Tracer) -> (Vec<u8>, PanelDist, Plan) {
    let s = &spec.solve;
    let solved = tr.call(Layer::Core, "heuristic", || {
        heuristic::solve_default(&s.times, s.p, s.q)
    });
    let best = solved.best();
    let dist = tr.call(Layer::Dist, "from_allocation", || {
        panel_dist(&best.arrangement, &best.alloc, spec.nb)
    });
    let plan = tr.call(Layer::Plan, "generate", || {
        Kind::of(spec.kernel).plan(&dist, spec.nb)
    });
    let bytes = tr.call(Layer::Plan, "wire_encode", || {
        hetgrid_plan::wire::encode(&plan)
    });
    (bytes, dist, plan)
}

impl PlanServe {
    pub fn setup(seed: u64, smoke: bool) -> Result<Self, String> {
        let server = hetgrid_serve::spawn("127.0.0.1:0", Default::default())
            .map_err(|e| format!("spawning the server: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
        let mut w = PlanServe {
            _server: server,
            client,
            draws: Draws::new(seed),
            hot: Vec::new(),
            next_hot: 0,
            cold_seen: 0,
            hot_seen: 0,
            warmup_ops: if smoke { 2 } else { 16 },
            seq_baseline_s: 0.0,
            counts_matched: true,
            response_bytes: 0,
        };
        let mut off = Tracer::new(false);
        // Prefill the hot set; each key's first response is checked
        // against the direct computation.
        for i in 0..HOT_KEYS {
            let times = w.draws.times();
            let request = plan_request(&times, P, Q, KERNELS[i % KERNELS.len()], NB);
            let got = w.plan(&request, "request_cold", &mut off)?;
            let t0 = std::time::Instant::now();
            let (bytes, ..) = recompute(spec_of(&request), &mut off);
            w.seq_baseline_s += t0.elapsed().as_secs_f64();
            if bytes != got.plan_bytes {
                return Err(format!("hot key {i}: served plan differs from direct one"));
            }
            w.hot.push((request, got));
        }
        // With the 64 hot keys, 192 more entries fill the 256-entry
        // cache: from here on every cold request evicts.
        for i in 0..CACHE_FILL {
            let times = w.draws.times();
            let request = plan_request(&times, P, Q, KERNELS[i % KERNELS.len()], NB);
            w.plan(&request, "request_cold", &mut off)?;
        }
        for _ in 0..w.warmup_ops {
            let out = w.submit(&mut off)?;
            w.verify(&out, false)?;
        }
        Ok(w)
    }

    fn plan(
        &mut self,
        request: &Request,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<PlanResult, String> {
        let client = &mut self.client;
        match tr.call(Layer::Serve, span, || client.request(request)) {
            Ok(Response::Plan(pr)) => Ok(pr),
            Ok(other) => Err(format!("plan request answered {}", other.status())),
            Err(e) => Err(format!("plan request: {e}")),
        }
    }

    /// One op: four cold requests, their plans decoded, and
    /// `HOT_PER_OP` hot requests round-robin over the hot set.
    pub fn submit(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut {
            cold: Vec::with_capacity(KERNELS.len()),
            hot: Vec::with_capacity(HOT_PER_OP),
        };
        for kernel in KERNELS {
            let times = self.draws.times();
            let request = plan_request(&times, P, Q, kernel, NB);
            let got = self.plan(&request, "request_cold", tr)?;
            let plan = tr
                .call(Layer::Plan, "wire_decode", || {
                    hetgrid_plan::wire::decode(&got.plan_bytes)
                })
                .map_err(|e| format!("cold plan bytes: {e}"))?;
            if plan.steps.len() != NB {
                return Err(format!(
                    "cold plan has {} steps, want {NB}",
                    plan.steps.len()
                ));
            }
            out.cold.push((request, got));
        }
        for _ in 0..HOT_PER_OP {
            let key = self.next_hot;
            self.next_hot = (key + 1) % self.hot.len();
            let request = self.hot[key].0.clone();
            out.hot.push((key, self.plan(&request, "request_hot", tr)?));
        }
        Ok(out)
    }

    /// Hot responses unchanged per key; every sixteenth cold
    /// response against the direct recomputation, whose plan must also
    /// fold to the counts the regenerated plan gives.
    pub fn verify(&mut self, out: &OpOut, traced: bool) -> Result<(), String> {
        for (key, got) in &out.hot {
            let first = &self.hot[*key].1;
            self.hot_seen += 1;
            let same = if self.hot_seen.is_multiple_of(HOT_FULL_EVERY) {
                got == first
            } else {
                got.solve == first.solve && got.plan_bytes.len() == first.plan_bytes.len()
            };
            if !same {
                return Err(format!("hot key {key}: response changed"));
            }
        }
        for (request, got) in &out.cold {
            self.cold_seen += 1;
            if traced {
                self.response_bytes += got.plan_bytes.len() as u64;
            }
            if !self.cold_seen.is_multiple_of(RECHECK_EVERY) {
                continue;
            }
            let spec = spec_of(request);
            let (bytes, _, regenerated) = recompute(spec, &mut Tracer::new(false));
            if bytes != got.plan_bytes {
                return Err("cold response differs from direct recomputation".into());
            }
            let served = hetgrid_plan::wire::decode(&got.plan_bytes)
                .map_err(|e| format!("cold plan bytes: {e}"))?;
            let unit = vec![vec![1u64; Q]; P];
            let kind = Kind::of(spec.kernel);
            let (folded, closed) = (kind.fold(&served, &unit), kind.fold(&regenerated, &unit));
            if folded != closed {
                self.counts_matched = false;
                return Err("served plan folds to other counts than the distribution".into());
            }
        }
        Ok(())
    }
}

/// Re-runs, outside the op and in replay spans, what the server
/// computed for each cold request of `out`, so that the request time
/// splits into serve self time and its children.
pub fn replay(out: &OpOut, tr: &mut Tracer) {
    tr.set_replay(true);
    for (request, _) in &out.cold {
        recompute(spec_of(request), tr);
    }
    tr.set_replay(false);
}
