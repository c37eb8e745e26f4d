//! Structured spans and instant events.
//!
//! The model is deliberately small: a global interned list of *tracks*
//! (one per grid processor, transport edge, or subsystem), and a flat
//! stream of [`TraceEvent`]s, each either a *complete* span (start +
//! duration) or an *instant* marker. Events are buffered in
//! thread-local vectors and drained into the global collector when a
//! buffer fills or at an explicit [`flush_thread`]; [`take`] collects
//! everything for export.
//!
//! Two independent sinks share the instrumentation points, switched by
//! one atomic bitmask:
//!
//! * **export** ([`set_enabled`]) — the original buffer-and-export
//!   path feeding [`take`] / [`crate::chrome::export`];
//! * **flight** ([`set_flight`], normally via [`crate::flight::arm`])
//!   — per-thread black-box rings that keep only the last N events,
//!   for post-mortem dumps on faults.
//!
//! The whole module is inert until at least one sink is on: the
//! [`crate::span!`] / [`crate::event!`] macros check [`active`] (one
//! relaxed atomic load) before formatting anything, and [`enabled`]
//! keeps its historical meaning of "the export sink specifically".
//!
//! While a [`crate::ctx::TraceCtx`] is installed on the thread, every
//! recorded event is stamped with `(trace, span, parent)` ids and each
//! open span becomes the parent of spans opened inside it — see
//! [`crate::ctx`] for the propagation rules.

use crate::chrome::Arg;
use crate::ctx::{self, SpanCtx, TraceCtx};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Bit 0 of [`FLAGS`]: the buffer-and-export sink.
const EXPORT: u8 = 1;
/// Bit 1 of [`FLAGS`]: the flight-recorder sink.
const FLIGHT: u8 = 2;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Is the *export* sink enabled? Exporters ([`take`]) only see events
/// recorded while this is on.
#[inline(always)]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & EXPORT != 0
}

/// Is *any* sink on? Instrumented hot paths call this first and skip
/// all other work (including name formatting) when it returns `false`.
/// This is the single relaxed load the ≤2 ns disabled-probe budget is
/// measured on.
#[inline(always)]
pub fn active() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

/// Is the flight-recorder sink on? (See [`crate::flight`].)
#[inline(always)]
pub fn flight_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLIGHT != 0
}

/// Turns the export sink on or off (off is the default). The flight
/// recorder is unaffected.
pub fn set_enabled(on: bool) {
    if on {
        FLAGS.fetch_or(EXPORT, Ordering::SeqCst);
    } else {
        FLAGS.fetch_and(!EXPORT, Ordering::SeqCst);
    }
}

/// Turns the flight-recorder sink on or off. Normally driven by
/// [`crate::flight::arm`] / [`crate::flight::disarm`], which also set
/// the dump destination.
pub fn set_flight(on: bool) {
    if on {
        FLAGS.fetch_or(FLIGHT, Ordering::SeqCst);
    } else {
        FLAGS.fetch_and(!FLIGHT, Ordering::SeqCst);
    }
}

/// A thread-local buffer drains to the collector once it holds this
/// many events.
pub const FLUSH_AT: usize = 1024;

/// An interned track (timeline row in the exported trace). Copyable;
/// fetch once per worker with [`track`] and reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrackId(u32);

impl TrackId {
    /// Index into the track-name table returned by [`take`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Display name (span or marker label).
    pub name: String,
    /// The track this event belongs to.
    pub track: TrackId,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: f64,
    /// Duration in microseconds for complete spans; `None` for instant
    /// events.
    pub dur_us: Option<f64>,
    /// Structured arguments attached to the event.
    pub args: Vec<(&'static str, Arg)>,
    /// Request identity, when a [`TraceCtx`] was installed on the
    /// recording thread.
    pub ctx: Option<SpanCtx>,
}

struct Collector {
    tracks: Mutex<Vec<String>>,
    events: Mutex<Vec<TraceEvent>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        tracks: Mutex::new(Vec::new()),
        events: Mutex::new(Vec::new()),
    })
}

/// Tolerate poisoning: a panicking instrumented thread must not take
/// the whole trace (and every later test) down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first call wins).
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Interns `name` as a track, returning its stable id. Registering the
/// same name twice returns the same id. Takes the collector lock —
/// call once per worker, not per event.
pub fn track(name: &str) -> TrackId {
    let mut tracks = lock(&collector().tracks);
    if let Some(i) = tracks.iter().position(|t| t == name) {
        return TrackId(i as u32);
    }
    tracks.push(name.to_string());
    TrackId((tracks.len() - 1) as u32)
}

/// A copy of the current track-name table (indexed by
/// [`TrackId::index`]) without draining any events — the flight
/// recorder needs it to render a dump mid-run.
pub fn tracks_snapshot() -> Vec<String> {
    lock(&collector().tracks).clone()
}

thread_local! {
    static BUFFER: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

fn push(ev: TraceEvent) {
    if flight_on() {
        crate::flight::record(&ev);
    }
    if !enabled() {
        return;
    }
    let full = BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.push(ev);
        b.len() >= FLUSH_AT
    });
    if full {
        flush_thread();
    }
}

/// Drains this thread's buffer into the global collector. Instrumented
/// worker threads call this at their join point (end of a kernel run);
/// events still buffered on a thread that never flushes are lost.
pub fn flush_thread() {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        if !b.is_empty() {
            lock(&collector().events).append(&mut b);
        }
    });
}

/// Flushes the calling thread and removes every collected event,
/// returning the track-name table (indexed by [`TrackId::index`]) and
/// the events. Track registrations persist (ids stay valid).
pub fn take() -> (Vec<String>, Vec<TraceEvent>) {
    flush_thread();
    let tracks = lock(&collector().tracks).clone();
    let events = std::mem::take(&mut *lock(&collector().events));
    (tracks, events)
}

/// Discards this thread's buffer and every collected event (test
/// helper; track registrations persist).
pub fn clear() {
    BUFFER.with(|b| b.borrow_mut().clear());
    lock(&collector().events).clear();
}

/// Stamps the current context on a new event: mints a child span id
/// under the installed [`TraceCtx`], or returns `None` outside any
/// request.
fn stamp() -> Option<SpanCtx> {
    ctx::current().map(|parent| SpanCtx {
        trace_id: parent.trace_id,
        span_id: ctx::next_span_id(),
        parent_span: parent.span_id,
    })
}

/// An open span; records a complete event over its lifetime when
/// dropped. Obtain via [`crate::span!`] (or [`span_at`] when the
/// active check has already been done).
///
/// The state lives behind a `Box` so that `Option<SpanGuard>` — what
/// the `span!` macro evaluates to — is a single nullable pointer. The
/// disabled fast path materializes and drops that `None` on every
/// probe, so its size is what the zero-cost-when-off budget in
/// `tests/disabled_probe.rs` actually measures; the active path already
/// allocates for the span name, so one more allocation there is noise.
pub struct SpanGuard(Box<SpanInner>);

struct SpanInner {
    name: String,
    track: TrackId,
    start_us: f64,
    args: Vec<(&'static str, Arg)>,
    ctx: Option<SpanCtx>,
    prev: Option<TraceCtx>,
    restore: bool,
}

impl SpanGuard {
    /// Attaches an integer argument.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        self.0.args.push((key, Arg::U64(value)));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let inner = &mut *self.0;
        if inner.restore {
            ctx::set_current(inner.prev);
        }
        let dur = now_us() - inner.start_us;
        push(TraceEvent {
            name: std::mem::take(&mut inner.name),
            track: inner.track,
            start_us: inner.start_us,
            dur_us: Some(dur),
            args: std::mem::take(&mut inner.args),
            ctx: inner.ctx,
        });
    }
}

/// Opens a span unconditionally (the caller — normally the
/// [`crate::span!`] macro — has already checked [`active`]).
///
/// While a [`TraceCtx`] is installed, the span is stamped as a child
/// of the current parent and installs itself as the parent for its
/// lifetime; guards must therefore drop in LIFO order per thread (the
/// natural scoping).
pub fn span_at(track: TrackId, name: String) -> SpanGuard {
    let (sc, prev, restore) = match stamp() {
        Some(sc) => {
            let prev = ctx::set_current(Some(TraceCtx {
                trace_id: sc.trace_id,
                span_id: sc.span_id,
            }));
            (Some(sc), prev, true)
        }
        None => (None, None, false),
    };
    SpanGuard(Box::new(SpanInner {
        name,
        track,
        start_us: now_us(),
        args: Vec::new(),
        ctx: sc,
        prev,
        restore,
    }))
}

/// Records an instant event now.
pub fn instant(track: TrackId, name: String) {
    instant_with(track, name, Vec::new());
}

/// Records an instant event now, with arguments.
pub fn instant_with(track: TrackId, name: String, args: Vec<(&'static str, Arg)>) {
    push(TraceEvent {
        name,
        track,
        start_us: now_us(),
        dur_us: None,
        args,
        ctx: stamp(),
    });
}

/// Records a complete span from explicit timestamps (for code that
/// already measures with its own `Instant`s).
pub fn complete(
    track: TrackId,
    name: String,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, Arg)>,
) {
    push(TraceEvent {
        name,
        track,
        start_us,
        dur_us: Some(dur_us),
        args,
        ctx: stamp(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_interning_is_stable() {
        let a = track("intern-test-a");
        let b = track("intern-test-b");
        assert_ne!(a, b);
        assert_eq!(track("intern-test-a"), a);
        assert_eq!(track("intern-test-b"), b);
    }

    #[test]
    fn now_us_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
