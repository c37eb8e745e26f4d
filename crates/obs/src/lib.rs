//! # hetgrid-obs
//!
//! Workspace-wide observability: structured spans and events, a metrics
//! registry, and exporters for both — self-contained (the build is
//! offline, so this is **not** a `tracing`-crate wrapper).
//!
//! The crate has three independent legs:
//!
//! * [`trace`] — cheap structured spans/events. Instrumented code
//!   records into thread-local buffers that drain into a global
//!   collector; everything is a no-op (a single relaxed atomic load)
//!   while tracing is disabled, which is the default. See the
//!   [`span!`] and [`event!`] macros.
//! * [`metrics`](mod@metrics) — a global registry of named counters, gauges, and
//!   fixed-bucket histograms with typed handles. Hot paths fetch a
//!   handle once and then pay one relaxed atomic op per update; the
//!   registry lock is touched only at registration and snapshot time.
//! * [`json`] / [`chrome`] — the crate's one JSON writer
//!   ([`json::Value`] renders itself) with its test oracle
//!   [`json::parse`], and Chrome trace-event documents (Perfetto,
//!   `chrome://tracing`) built as `Value`s, like the metrics document.
//!
//! [`diag`](mod@diag) is the fourth, tiny leg: verbosity-gated stderr
//! diagnostics ([`diag!`] / [`vdiag!`]) so machine-readable output on
//! stdout is never interleaved with progress chatter.
//!
//! Growing out of those legs, the *telemetry plane*:
//!
//! * [`ctx`] — request-scoped trace contexts (128-bit trace id +
//!   parent span), stamped on events so one serve request exports as
//!   one connected tree;
//! * [`flight`] — a black-box recorder: bounded per-thread rings of
//!   the latest events, recording even while export is off, dumped to
//!   a Chrome trace when a fault fires;
//! * [`expo`] — Prometheus-style text exposition of a snapshot, for
//!   clients that render one they received (`hetgrid submit --format
//!   expo`).
//!
//! ## Overhead strategy
//!
//! Instrumentation in the hot kernels is guarded by [`trace::active`]
//! (one relaxed atomic load of a bitmask whose bits are the export and
//! flight sinks). When both sinks are off, the [`span!`] macro does
//! not even format its name. When a sink is on, a span costs two
//! `Instant::now()` calls and a push onto a thread-local `Vec` (export)
//! and/or ring (flight); the global mutex is taken only when a buffer
//! fills ([`trace::FLUSH_AT`] events) or at an explicit
//! [`trace::flush_thread`]. Instrumented worker threads flush at their
//! natural join points (end of a kernel run), never mid-computation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod ctx;
pub mod diag;
pub mod expo;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use chrome::{Arg, ChromeTrace};
pub use ctx::TraceCtx;
pub use metrics::{metrics, Counter, Gauge, Histogram, MetricsSnapshot};
pub use trace::{enabled, set_enabled, SpanGuard, TrackId};

/// Opens a span on `track` that closes (records a complete event) when
/// the returned guard drops. Evaluates to `Option<SpanGuard>`: `None`
/// — without formatting the name — while no trace sink (export or
/// flight recorder) is active.
///
/// ```
/// let track = hetgrid_obs::trace::track("P(1,1)");
/// let _g = hetgrid_obs::span!(track, "compute step {}", 3);
/// ```
#[macro_export]
macro_rules! span {
    ($track:expr, $($fmt:tt)*) => {
        if $crate::trace::active() {
            Some($crate::trace::span_at($track, format!($($fmt)*)))
        } else {
            None
        }
    };
}

/// Records an instant event on `track`. A no-op (name unformatted)
/// while no trace sink is active.
#[macro_export]
macro_rules! event {
    ($track:expr, $($fmt:tt)*) => {
        if $crate::trace::active() {
            $crate::trace::instant($track, format!($($fmt)*));
        }
    };
}

/// Level-1 diagnostic on stderr: shown unless `--quiet`
/// (verbosity 0). Formatting is lazy; nothing is allocated when
/// suppressed.
#[macro_export]
macro_rules! diag {
    ($($t:tt)*) => { $crate::diag::emit(1, format_args!($($t)*)) };
}

/// Level-2 (verbose, `-v`) diagnostic on stderr.
#[macro_export]
macro_rules! vdiag {
    ($($t:tt)*) => { $crate::diag::emit(2, format_args!($($t)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that touch the global enabled flag or the
    /// global trace collector (unit tests in one binary run in
    /// parallel).
    fn global_state_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_cost_nothing_and_emit_nothing() {
        let _g = global_state_lock();
        set_enabled(false);
        trace::clear();
        let track = trace::track("test-disabled");
        for i in 0..1000 {
            let guard = span!(track, "never formatted {}", i);
            assert!(guard.is_none());
            event!(track, "also never formatted {}", i);
        }
        let (_, events) = trace::take();
        assert!(events.is_empty(), "disabled tracing must emit nothing");
    }

    #[test]
    fn enabled_span_records_complete_event_with_args() {
        let _g = global_state_lock();
        set_enabled(true);
        trace::clear();
        let track = trace::track("test-enabled");
        {
            let mut guard = span!(track, "step {}", 7).unwrap();
            guard.arg_u64("bytes", 128);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        event!(track, "marker");
        set_enabled(false);
        let (tracks, events) = trace::take();
        assert_eq!(events.len(), 2);
        let span_ev = &events[0];
        assert_eq!(span_ev.name, "step 7");
        assert_eq!(&tracks[span_ev.track.index()], "test-enabled");
        assert!(span_ev.dur_us.unwrap() >= 1000.0, "slept a millisecond");
        assert!(matches!(span_ev.args[0], ("bytes", Arg::U64(128))));
        assert!(events[1].dur_us.is_none(), "instant event has no duration");
    }

    #[test]
    fn spans_from_many_threads_all_reach_the_collector() {
        let _g = global_state_lock();
        set_enabled(true);
        trace::clear();
        let track = trace::track("test-threads");
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..50 {
                        drop(span!(track, "t{} i{}", t, i));
                    }
                    trace::flush_thread();
                });
            }
        });
        set_enabled(false);
        let (_, events) = trace::take();
        assert_eq!(events.len(), 4 * 50);
    }

    #[test]
    fn export_current_trace_is_valid_json_with_named_tracks() {
        let _g = global_state_lock();
        set_enabled(true);
        trace::clear();
        let track = trace::track("P(1,1)");
        drop(span!(track, "compute"));
        set_enabled(false);
        let (tracks, events) = trace::take();
        let out = chrome::export(&tracks, &events);
        let doc = json::parse(&out).expect("exported trace must parse");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // One thread_name metadata record per track, plus the span.
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("P(1,1)")
        }));
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("compute")));
    }

    #[test]
    fn trace_flag_bits_are_independent() {
        let _g = global_state_lock();
        set_enabled(false);
        trace::set_flight(false);
        assert!(!trace::active());
        trace::set_flight(true);
        assert!(trace::active() && trace::flight_on() && !enabled());
        set_enabled(true);
        assert!(trace::active() && trace::flight_on() && enabled());
        trace::set_flight(false);
        assert!(trace::active() && !trace::flight_on() && enabled());
        set_enabled(false);
        assert!(!trace::active());
    }

    #[test]
    fn flight_recorder_records_while_export_is_off() {
        let _g = global_state_lock();
        set_enabled(false);
        trace::clear();
        flight::clear();
        let dir = std::env::temp_dir().join("hetgrid-obs-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        flight::arm(&path);
        let track = trace::track("flight-test");
        drop(span!(track, "black box span"));
        event!(track, "black box marker");
        let written = flight::dump("unit test").expect("armed dump must write");
        flight::disarm();
        assert_eq!(written, path);
        // Export stayed empty: the flight sink is independent.
        let (_, events) = trace::take();
        assert!(events.is_empty(), "export sink must not see flight events");
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let names: Vec<_> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
            .collect();
        assert!(names.contains(&"black box span"));
        assert!(names.contains(&"black box marker"));
        assert!(names.contains(&"flight dump: unit test"));
        flight::clear();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flight_ring_keeps_only_the_last_records() {
        let _g = global_state_lock();
        set_enabled(false);
        flight::clear();
        trace::set_flight(true);
        let track = trace::track("flight-ring-test");
        for i in 0..trace::FLUSH_AT + flight::RING_CAP + 50 {
            event!(track, "ev {}", i);
        }
        trace::set_flight(false);
        assert_eq!(flight::retained(), flight::RING_CAP);
        flight::clear();
    }

    #[test]
    fn ctx_spans_export_as_one_connected_tree_with_flows() {
        let _g = global_state_lock();
        set_enabled(true);
        trace::clear();
        let t_serve = trace::track("ctx-serve");
        let t_pool = trace::track("ctx-pool");
        let trace_id = ctx::mint_trace_id();
        let root_ctx = TraceCtx {
            trace_id,
            span_id: ctx::next_span_id(),
        };
        {
            let _req = ctx::install(root_ctx);
            let _admission = span!(t_serve, "request").unwrap();
            let inner = ctx::current().expect("span installed itself as parent");
            assert_eq!(inner.trace_id, trace_id);
            assert_ne!(inner.span_id, root_ctx.span_id);
            // Hop to a "pool" thread: explicit capture + install.
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = ctx::install(inner);
                    drop(span!(t_pool, "solve"));
                    trace::flush_thread();
                });
            });
        }
        set_enabled(false);
        let (tracks, events) = trace::take();
        assert_eq!(events.len(), 2);
        let solve = events.iter().find(|e| e.name == "solve").unwrap();
        let request = events.iter().find(|e| e.name == "request").unwrap();
        let (sc, rc) = (solve.ctx.unwrap(), request.ctx.unwrap());
        assert_eq!(sc.trace_id, trace_id);
        assert_eq!(rc.trace_id, trace_id);
        assert_eq!(
            sc.parent_span, rc.span_id,
            "solve must be a child of request"
        );
        assert_eq!(rc.parent_span, root_ctx.span_id);
        let out = chrome::export(&tracks, &events);
        let doc = json::parse(&out).expect("export must parse");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let hex = format!("{:032x}", trace_id);
        // Both spans carry the trace id arg…
        let stamped = evs
            .iter()
            .filter(|e| {
                e.get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(|v| v.as_str())
                    == Some(hex.as_str())
            })
            .count();
        assert_eq!(stamped, 2);
        // …and the two tracks are joined by a flow start and finish.
        for ph in ["s", "f"] {
            assert!(
                evs.iter()
                    .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph)),
                "missing flow record ph={ph}"
            );
        }
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let c = metrics().counter("obs.test.concurrent");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 80_000);
    }
}
