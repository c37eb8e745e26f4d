//! Chrome trace-event documents.
//!
//! Emits the `{"traceEvents": [...]}` object form of the [Trace Event
//! Format] consumed by Perfetto and `chrome://tracing`: `"M"`
//! (metadata) records name the tracks, `"X"` (complete) records are
//! spans with a start and duration, `"i"` records are instant markers.
//! All timestamps are microseconds. One process (`pid` 1) with one
//! `tid` per track keeps every track on its own timeline row.
//!
//! Each record is a [`Value`] and the document is written by the
//! crate's one JSON writer (see [`crate::json`]).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Value;
use crate::trace::TraceEvent;

/// A structured event argument (rendered into the record's `"args"`
/// object).
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Unsigned integer, rendered as a JSON number.
    U64(u64),
    /// Float, rendered as a JSON number (`null` if not finite).
    F64(f64),
    /// String, rendered escaped.
    Str(String),
}

impl From<&Arg> for Value {
    fn from(arg: &Arg) -> Value {
        match arg {
            Arg::U64(n) => Value::U64(*n),
            Arg::F64(x) => Value::Num(*x),
            Arg::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Incremental builder for one trace file. Records are appended in any
/// order (the format does not require sorted timestamps); [`finish`]
/// yields the complete JSON document.
///
/// [`finish`]: ChromeTrace::finish
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<Value>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names the timeline row `tid` (a `thread_name` metadata record).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        let args = Value::obj([("name", name.into())]);
        self.record("M", "thread_name", tid, vec![("args", args)]);
    }

    /// Appends a complete span (`ph:"X"`).
    pub fn complete(
        &mut self,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, Arg)],
    ) {
        // Perfetto rejects negative durations; clock jitter on a
        // zero-length span must not corrupt the file.
        let mut rest = vec![("ts", ts_us.into()), ("dur", dur_us.max(0.0).into())];
        rest.extend(args_member(args));
        self.record("X", name, tid, rest);
    }

    /// Appends an instant marker (`ph:"i"`, thread scope).
    pub fn instant(&mut self, tid: u64, name: &str, ts_us: f64, args: &[(&str, Arg)]) {
        let mut rest = vec![("ts", ts_us.into()), ("s", "t".into())];
        rest.extend(args_member(args));
        self.record("i", name, tid, rest);
    }

    /// Appends a flow record: `ph` is `"s"` (start), `"t"` (step), or
    /// `"f"` (finish, with binding point `"e"` so it attaches to the
    /// enclosing slice). Records sharing `cat:"trace"` and `id` are
    /// drawn as one arrowed flow across tracks.
    pub fn flow(&mut self, ph: &str, tid: u64, name: &str, ts_us: f64, id: u64) {
        let mut rec = vec![
            ("ph", ph.into()),
            ("cat", "trace".into()),
            ("id", id.into()),
            ("name", name.into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("ts", ts_us.into()),
        ];
        if ph == "f" {
            rec.push(("bp", "e".into()));
        }
        self.events.push(Value::obj(rec));
    }

    /// Appends `{ph, name, pid: 1, tid}` followed by `rest`.
    fn record(&mut self, ph: &str, name: &str, tid: u64, rest: Vec<(&str, Value)>) {
        let head = [
            ("ph", ph.into()),
            ("name", name.into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
        ];
        self.events.push(Value::obj(head.into_iter().chain(rest)));
    }

    /// The finished `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        let doc = Value::obj([("traceEvents", Value::Arr(self.events))]);
        format!("{doc}\n")
    }
}

/// The `"args"` member of a record, absent when `args` is empty.
fn args_member(args: &[(&str, Arg)]) -> Option<(&'static str, Value)> {
    (!args.is_empty()).then(|| {
        let members = args.iter().map(|(k, v)| (k.to_string(), v.into()));
        ("args", Value::Obj(members.collect()))
    })
}

/// Renders collected [`crate::trace`] events (as returned by
/// [`crate::trace::take`]) into a Chrome trace: one named track per
/// interned track id.
///
/// Events stamped with a [`crate::ctx::SpanCtx`] gain `trace` / `span`
/// / `parent` args, and every trace id whose events span at least two
/// tracks also gets flow records (`"s"` → `"t"` → `"f"` in time order)
/// so the viewer draws the request as one connected arrowed tree —
/// serve admission on the connection track, the solve on a pool
/// track, and so on.
pub fn export(tracks: &[String], events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;

    let mut ct = ChromeTrace::new();
    for (tid, name) in tracks.iter().enumerate() {
        ct.thread_name(tid as u64, name);
    }
    for ev in events {
        let tid = ev.track.index() as u64;
        let mut args: Vec<(&str, Arg)> = ev.args.clone();
        if let Some(c) = ev.ctx {
            args.push(("trace", Arg::Str(format!("{:032x}", c.trace_id))));
            args.push(("span", Arg::U64(c.span_id)));
            args.push(("parent", Arg::U64(c.parent_span)));
        }
        match ev.dur_us {
            Some(d) => ct.complete(tid, &ev.name, ev.start_us, d, &args),
            None => ct.instant(tid, &ev.name, ev.start_us, &args),
        }
    }

    let mut by_trace: BTreeMap<u128, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        if let Some(c) = ev.ctx {
            by_trace.entry(c.trace_id).or_default().push(ev);
        }
    }
    for (trace_id, mut evs) in by_trace {
        let first_track = evs[0].track;
        if evs.iter().all(|e| e.track == first_track) {
            continue; // single-track request: slices already nest
        }
        evs.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let last = evs.len() - 1;
        for (i, ev) in evs.iter().enumerate() {
            let ph = match i {
                0 => "s",
                i if i == last => "f",
                _ => "t",
            };
            let tid = ev.track.index() as u64;
            ct.flow(ph, tid, "req", ev.start_us, trace_id as u64);
        }
    }
    ct.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn builder_output_is_well_formed_and_complete() {
        let mut ct = ChromeTrace::new();
        ct.thread_name(0, "P(1,1)");
        ct.thread_name(1, "E P(1,1)->P(1,2)");
        ct.complete(0, "compute step 0", 10.0, 42.5, &[("units", Arg::U64(3))]);
        ct.instant(
            1,
            "send",
            12.0,
            &[
                ("bytes", Arg::U64(2048)),
                ("dest", Arg::Str("P(1,2)".into())),
            ],
        );
        let out = ct.finish();
        let doc = json::parse(&out).expect("builder output must parse");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(evs.len(), 4);
        let x = &evs[2];
        assert_eq!(x.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(x.get("dur").and_then(|v| v.as_f64()), Some(42.5));
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("units"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
        let i = &evs[3];
        assert_eq!(i.get("ph").and_then(|v| v.as_str()), Some("i"));
        assert_eq!(
            i.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|v| v.as_f64()),
            Some(2048.0)
        );
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = json::parse(&ChromeTrace::new().finish()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn negative_duration_is_clamped() {
        let mut ct = ChromeTrace::new();
        ct.complete(0, "jitter", 5.0, -0.001, &[]);
        let doc = json::parse(&ct.finish()).unwrap();
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(evs[0].get("dur").and_then(|v| v.as_f64()), Some(0.0));
    }
}
