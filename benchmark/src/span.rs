//! Benchmark-side spans around the calls into each crate.
//!
//! The traced run wraps every public call an op makes in a span
//! `{name, layer, start, end, parent, op}`; spans stay in memory and are
//! written as a Chrome trace when the run ends. A layer's share of an op
//! is the *self time* of its spans: a span's duration minus what its
//! direct children cover. With tracing off a span is one branch.

use hetgrid_obs::chrome::{Arg, ChromeTrace};
use std::time::Instant;

/// A layer is a crate of the workspace (`Bench` is this package).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Serve,
    Core,
    Dist,
    Plan,
    Exec,
    Linalg,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Serve,
        Layer::Core,
        Layer::Dist,
        Layer::Plan,
        Layer::Exec,
        Layer::Linalg,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve",
            Layer::Core => "core",
            Layer::Dist => "dist",
            Layer::Plan => "plan",
            Layer::Exec => "exec",
            Layer::Linalg => "linalg",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
    /// A replay re-runs, outside the op, work the server did inside a
    /// request, so that the request's time can be split by layer.
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while on; a no-op wrapper while off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    replay: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            replay: false,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Marks spans opened from now on as replays (or not).
    pub fn set_replay(&mut self, replay: bool) {
        self.replay = replay;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            replay: self.replay,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn call<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span, in nanoseconds: duration minus the summed
/// durations of its direct children (children of one parent never
/// overlap: one thread records them in call order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Seconds of self time per layer (indexed like [`Layer::ALL`]) over the
/// spans `keep` selects.
pub fn layer_seconds(spans: &[Span], keep: impl Fn(&Span) -> bool) -> [f64; 7] {
    let own = self_times(spans);
    let mut out = [0.0; 7];
    for (s, ns) in spans.iter().zip(own) {
        if keep(s) {
            let slot = Layer::ALL
                .iter()
                .position(|l| *l == s.layer)
                .expect("layer");
            out[slot] += ns as f64 * 1e-9;
        }
    }
    out
}

/// Chrome trace-event JSON: ops on row 1, replays on row 2.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut t = ChromeTrace::new();
    t.thread_name(1, "ops");
    t.thread_name(2, "replay (server-side work re-run outside the op)");
    for s in spans {
        let name = format!("{}.{}", s.layer.name(), s.name);
        t.complete(
            if s.replay { 2 } else { 1 },
            &name,
            s.start_ns as f64 * 1e-3,
            s.dur_ns() as f64 * 1e-3,
            &[
                ("op", Arg::U64(u64::from(s.op))),
                ("parent", Arg::U64(s.parent.map_or(0, |p| p as u64 + 1))),
            ],
        );
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Serve, 10, 40, Some(0)),
            span(Layer::Exec, 50, 90, Some(0)),
            span(Layer::Linalg, 60, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20]);
        let by_layer = layer_seconds(&spans, |_| true);
        let total: f64 = by_layer.iter().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
        assert!((by_layer[4] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let mut off = Tracer::new(false);
        assert_eq!(off.call(Layer::Core, "x", || 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_op(3);
        let root = on.open(Layer::Bench, "op");
        on.call(Layer::Serve, "request", || ());
        on.call(Layer::Exec, "run", || ());
        on.close(root);
        let s = on.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
        let json = chrome_json(s);
        let parsed = hetgrid_obs::json::parse(&json).expect("valid trace json");
        assert!(parsed.get("traceEvents").is_some() || parsed.as_arr().is_some());
    }
}
