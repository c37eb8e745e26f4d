//! The two JSON documents `obs` writes, pinned: a Chrome trace export
//! and a metrics snapshot. Each pin is the parsed document (walked
//! through the public accessors, so it does not depend on how the
//! parser represents numbers) plus the exact digits of every integer
//! field as written, so a writer that rounds a `u64` through `f64`
//! fails here. Layout (whitespace, float spelling) is free to change.

use hetgrid_obs::chrome::{self, Arg};
use hetgrid_obs::ctx::SpanCtx;
use hetgrid_obs::json::{self, Value};
use hetgrid_obs::metrics::HistogramSnapshot;
use hetgrid_obs::trace::{self, TraceEvent};
use hetgrid_obs::MetricsSnapshot;

/// The document through the accessors: objects as `{k: v}`, arrays as
/// `[..]` with one element a line, numbers as `as_f64`'s `{:?}`, strings as `{:?}`.
fn canon(v: &Value) -> String {
    if let Some(members) = v.members() {
        let inner: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{k:?}: {}", canon(v)))
            .collect();
        format!("{{{}}}", inner.join(", "))
    } else if let Some(items) = v.as_arr() {
        let inner: Vec<String> = items.iter().map(canon).collect();
        format!("[\n{}\n]", inner.join(",\n"))
    } else if let Some(s) = v.as_str() {
        format!("{s:?}")
    } else if let Some(x) = v.as_f64() {
        format!("{x:?}")
    } else {
        format!("{v:?}")
    }
}

/// Every number literal of `text` as written, with its path
/// (`.key` / `[i]` steps; keys as written, escapes and all).
fn number_literals(text: &str) -> Vec<(String, String)> {
    enum Frame {
        Obj(String),
        Arr(usize),
    }
    let b = text.as_bytes();
    let (mut stack, mut out, mut want_key, mut i) = (Vec::new(), Vec::new(), false, 0);
    while i < b.len() {
        match b[i] {
            b'{' => {
                stack.push(Frame::Obj(String::new()));
                want_key = true;
            }
            b'[' => stack.push(Frame::Arr(0)),
            b'}' | b']' => {
                stack.pop();
            }
            b',' => match stack.last_mut() {
                Some(Frame::Obj(_)) => want_key = true,
                Some(Frame::Arr(n)) => *n += 1,
                None => {}
            },
            b'"' => {
                let start = i + 1;
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                if want_key {
                    if let Some(Frame::Obj(k)) = stack.last_mut() {
                        *k = text[start..i].to_string();
                    }
                    want_key = false;
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i + 1 < b.len()
                    && matches!(b[i + 1], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                let path: String = stack
                    .iter()
                    .map(|f| match f {
                        Frame::Obj(k) => format!(".{k}"),
                        Frame::Arr(n) => format!("[{n}]"),
                    })
                    .collect();
                out.push((path, text[start..=i].to_string()));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The literals at paths `keep` accepts, as `path=digits` lines.
fn integer_fields(text: &str, keep: impl Fn(&str) -> bool) -> String {
    number_literals(text)
        .into_iter()
        .filter(|(p, _)| keep(p))
        .map(|(p, d)| format!("{p}={d}\n"))
        .collect()
}

#[test]
fn chrome_export_is_pinned() {
    let names = ["P(1,1)", "conn \"7\"\n", "pool"];
    let ids: Vec<_> = names.iter().map(|n| trace::track(n)).collect();
    let tracks: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    // Above 2^53: an f64 would round it.
    let trace_id: u128 = (1 << 64) + 9_007_199_254_740_993;
    let ctx = |span_id, parent_span| {
        Some(SpanCtx {
            trace_id,
            span_id,
            parent_span,
        })
    };
    let ev =
        |name: &str, track, start_us, dur_us, args: Vec<(&'static str, Arg)>, ctx| TraceEvent {
            name: name.to_string(),
            track,
            start_us,
            dur_us,
            args,
            ctx,
        };
    let events = vec![
        ev(
            "compute \"step\" 0\t\u{1}",
            ids[0],
            10.25,
            Some(42.5),
            vec![("units", Arg::U64(u64::MAX)), ("rate", Arg::F64(f64::NAN))],
            None,
        ),
        ev("jitter", ids[0], 60.5, Some(-0.001), vec![], None),
        ev(
            "request",
            ids[1],
            1.5,
            Some(100.75),
            vec![("who", Arg::Str("a\\b\u{1f}✓".into()))],
            ctx(18_446_744_073_709_551_557, 0),
        ),
        ev(
            "solve",
            ids[2],
            20.125,
            Some(30.5),
            vec![],
            ctx(3, 18_446_744_073_709_551_557),
        ),
        ev(
            "reply",
            ids[1],
            90.5,
            None,
            vec![("bytes", Arg::U64(2048))],
            ctx(4, 3),
        ),
    ];
    let out = chrome::export(&tracks, &events);
    let doc = json::parse(&out).expect("the export parses");
    assert_eq!(canon(&doc), CHROME_DOC);
    let ints = integer_fields(&out, |p| {
        let last = p.rsplit('.').next().unwrap_or("");
        matches!(
            last,
            "pid" | "tid" | "id" | "span" | "parent" | "units" | "bytes"
        )
    });
    assert_eq!(ints, CHROME_INTS);
}

#[test]
fn metrics_document_is_pinned() {
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("a.max".into(), u64::MAX);
    snap.counters
        .insert("b \"quoted\"\n".into(), 9_007_199_254_740_993);
    snap.counters.insert("c.zero".into(), 0);
    snap.gauges.insert("g.nan".into(), f64::NAN);
    snap.gauges.insert("g.tenth".into(), 0.1);
    snap.gauges.insert("g.whole".into(), -3.0);
    snap.histograms.insert(
        "h.lat".into(),
        HistogramSnapshot {
            bounds: vec![0.5, 1.0, 1e300],
            buckets: vec![1, 18_446_744_073_709_551_000, 0, 7],
            count: 18_446_744_073_709_551_008,
            sum: 12.75,
        },
    );
    let out = snap.to_json();
    let doc = json::parse(&out).expect("the document parses");
    assert_eq!(canon(&doc), METRICS_DOC);
    let ints = integer_fields(&out, |p| {
        p.starts_with(".counters.") || p.contains(".buckets[") || p.ends_with(".count")
    });
    assert_eq!(ints, METRICS_INTS);
}

const CHROME_DOC: &str = r##"{"traceEvents": [
{"ph": "M", "name": "thread_name", "pid": 1.0, "tid": 0.0, "args": {"name": "P(1,1)"}},
{"ph": "M", "name": "thread_name", "pid": 1.0, "tid": 1.0, "args": {"name": "conn \"7\"\n"}},
{"ph": "M", "name": "thread_name", "pid": 1.0, "tid": 2.0, "args": {"name": "pool"}},
{"ph": "X", "name": "compute \"step\" 0\t\u{1}", "pid": 1.0, "tid": 0.0, "ts": 10.25, "dur": 42.5, "args": {"units": 1.8446744073709552e19, "rate": Null}},
{"ph": "X", "name": "jitter", "pid": 1.0, "tid": 0.0, "ts": 60.5, "dur": 0.0},
{"ph": "X", "name": "request", "pid": 1.0, "tid": 1.0, "ts": 1.5, "dur": 100.75, "args": {"who": "a\\b\u{1f}✓", "trace": "00000000000000010020000000000001", "span": 1.8446744073709552e19, "parent": 0.0}},
{"ph": "X", "name": "solve", "pid": 1.0, "tid": 2.0, "ts": 20.125, "dur": 30.5, "args": {"trace": "00000000000000010020000000000001", "span": 3.0, "parent": 1.8446744073709552e19}},
{"ph": "i", "name": "reply", "pid": 1.0, "tid": 1.0, "ts": 90.5, "s": "t", "args": {"bytes": 2048.0, "trace": "00000000000000010020000000000001", "span": 4.0, "parent": 3.0}},
{"ph": "s", "cat": "trace", "id": 9007199254740992.0, "name": "req", "pid": 1.0, "tid": 1.0, "ts": 1.5},
{"ph": "t", "cat": "trace", "id": 9007199254740992.0, "name": "req", "pid": 1.0, "tid": 2.0, "ts": 20.125},
{"ph": "f", "cat": "trace", "id": 9007199254740992.0, "name": "req", "pid": 1.0, "tid": 1.0, "ts": 90.5, "bp": "e"}
]}"##;
const CHROME_INTS: &str = r##".traceEvents[0].pid=1
.traceEvents[0].tid=0
.traceEvents[1].pid=1
.traceEvents[1].tid=1
.traceEvents[2].pid=1
.traceEvents[2].tid=2
.traceEvents[3].pid=1
.traceEvents[3].tid=0
.traceEvents[3].args.units=18446744073709551615
.traceEvents[4].pid=1
.traceEvents[4].tid=0
.traceEvents[5].pid=1
.traceEvents[5].tid=1
.traceEvents[5].args.span=18446744073709551557
.traceEvents[5].args.parent=0
.traceEvents[6].pid=1
.traceEvents[6].tid=2
.traceEvents[6].args.span=3
.traceEvents[6].args.parent=18446744073709551557
.traceEvents[7].pid=1
.traceEvents[7].tid=1
.traceEvents[7].args.bytes=2048
.traceEvents[7].args.span=4
.traceEvents[7].args.parent=3
.traceEvents[8].id=9007199254740993
.traceEvents[8].pid=1
.traceEvents[8].tid=1
.traceEvents[9].id=9007199254740993
.traceEvents[9].pid=1
.traceEvents[9].tid=2
.traceEvents[10].id=9007199254740993
.traceEvents[10].pid=1
.traceEvents[10].tid=1
"##;
const METRICS_DOC: &str = r##"{"counters": {"a.max": 1.8446744073709552e19, "b \"quoted\"\n": 9007199254740992.0, "c.zero": 0.0}, "gauges": {"g.nan": Null, "g.tenth": 0.1, "g.whole": -3.0}, "histograms": {"h.lat": {"bounds": [
0.5,
1.0,
1e300
], "buckets": [
1.0,
1.8446744073709552e19,
0.0,
7.0
], "count": 1.8446744073709552e19, "sum": 12.75}}}"##;
const METRICS_INTS: &str = r##".counters.a.max=18446744073709551615
.counters.b \"quoted\"\n=9007199254740993
.counters.c.zero=0
.histograms.h.lat.buckets[0]=1
.histograms.h.lat.buckets[1]=18446744073709551000
.histograms.h.lat.buckets[2]=0
.histograms.h.lat.buckets[3]=7
.histograms.h.lat.count=18446744073709551008
"##;
