//! Prometheus-style text exposition of a [`MetricsSnapshot`]: what
//! `hetgrid submit --op metrics --format expo` prints from the snapshot
//! the server sends (the server itself renders no text).
//!
//! ## Grammar
//!
//! Each metric renders as a family block:
//!
//! ```text
//! # TYPE <family> counter|gauge|histogram
//! <family>{name="<original>"} <value>
//! ```
//!
//! `<family>` is the metric name *sanitized* to `[a-zA-Z0-9_:]`
//! ([`sanitize`]); the untouched original name rides in the `name`
//! label (escaped: `\\`, `\"`, `\n`), so a scraper can tell apart two
//! names that sanitize alike. Histograms additionally emit, per
//! Prometheus convention, cumulative
//! `<family>_bucket{name=...,le="<bound>"}` lines in ascending bound
//! order, an `le="+Inf"` line, and `<family>_sum` / `<family>_count`
//! lines. One deliberate bend: the `+Inf` cumulative value is the sum
//! of the bucket vector (including overflow) rather than a copy of
//! `_count`, so the bucket lines of a torn concurrent snapshot — where
//! `count` lags the buckets by an in-flight observation — still agree
//! with each other.
//!
//! Numbers use Rust's `{}` float formatting, the shortest string that
//! parses back to the identical bits.
//!
//! Output order is counters, then gauges, then histograms, each
//! alphabetical (the snapshot's `BTreeMap` order) — identical
//! registries produce identical bytes.

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Maps a metric name onto the exposition family charset
/// `[a-zA-Z0-9_:]` (other characters become `_`; a leading digit gains
/// a `_` prefix). Not injective — the `name` label carries the
/// original.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn sample(out: &mut String, family: &str, name: &str, extra: Option<(&str, &str)>) {
    out.push_str(family);
    out.push_str("{name=\"");
    escape_label(out, name);
    out.push('"');
    if let Some((k, v)) = extra {
        let _ = write!(out, ",{k}=\"{v}\"");
    }
    out.push_str("} ");
}

/// Renders `snap` as exposition text (see the module docs for the
/// grammar). Deterministic: identical snapshots produce identical
/// bytes.
pub fn write(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let fam = sanitize(name);
        let _ = writeln!(out, "# TYPE {fam} counter");
        sample(&mut out, &fam, name, None);
        let _ = writeln!(out, "{v}");
    }
    for (name, v) in &snap.gauges {
        let fam = sanitize(name);
        let _ = writeln!(out, "# TYPE {fam} gauge");
        sample(&mut out, &fam, name, None);
        let _ = writeln!(out, "{v}");
    }
    for (name, h) in &snap.histograms {
        let fam = sanitize(name);
        let _ = writeln!(out, "# TYPE {fam} histogram");
        let bucket_fam = format!("{fam}_bucket");
        let mut cum = 0u64;
        for (i, b) in h.bounds.iter().enumerate() {
            cum += h.buckets.get(i).copied().unwrap_or(0);
            sample(&mut out, &bucket_fam, name, Some(("le", &format!("{b}"))));
            let _ = writeln!(out, "{cum}");
        }
        cum += h.buckets.get(h.bounds.len()).copied().unwrap_or(0);
        sample(&mut out, &bucket_fam, name, Some(("le", "+Inf")));
        let _ = writeln!(out, "{cum}");
        sample(&mut out, &format!("{fam}_sum"), name, None);
        let _ = writeln!(out, "{}", h.sum);
        sample(&mut out, &format!("{fam}_count"), name, None);
        let _ = writeln!(out, "{}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn hostile_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("serve.cache.hits".into(), 42);
        s.counters.insert("weird \"name\"\\with\njunk".into(), 7);
        s.counters.insert("9starts.with-digit".into(), 1);
        s.gauges.insert("serve.queue.depth".into(), 2.5);
        s.gauges.insert("neg".into(), -0.0);
        s.histograms.insert(
            "exec.step.compute_us".into(),
            HistogramSnapshot {
                bounds: vec![10.0, 100.0, 1000.0],
                buckets: vec![3, 0, 5, 2],
                count: 10,
                sum: 1234.5678,
            },
        );
        s
    }

    #[test]
    fn write_is_deterministic_for_identical_snapshots() {
        let a = write(&hostile_snapshot());
        let b = write(&hostile_snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn families_appear_in_sorted_order_within_each_kind() {
        let text = write(&hostile_snapshot());
        let hits = text.find("serve_cache_hits{").unwrap();
        let digit = text.find("_9starts_with_digit{").unwrap();
        let weird = text.find("weird__name__with_junk{").unwrap();
        // BTreeMap order: '9starts…' < 'serve…' < 'weird…'.
        assert!(digit < hits && hits < weird);
    }

    #[test]
    fn hostile_names_are_escaped_in_the_name_label() {
        let text = write(&hostile_snapshot());
        assert!(text.contains("name=\"weird \\\"name\\\"\\\\with\\njunk\""));
        assert!(text.contains(
            "# TYPE serve_queue_depth gauge\nserve_queue_depth{name=\"serve.queue.depth\"} 2.5\n"
        ));
        assert!(text.contains("neg{name=\"neg\"} -0\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_sum_and_count() {
        let text = write(&hostile_snapshot());
        let fam = "exec_step_compute_us";
        let name = "{name=\"exec.step.compute_us\"";
        for line in [
            format!("# TYPE {fam} histogram"),
            format!("{fam}_bucket{name},le=\"10\"}} 3"),
            format!("{fam}_bucket{name},le=\"100\"}} 3"),
            format!("{fam}_bucket{name},le=\"1000\"}} 8"),
            format!("{fam}_bucket{name},le=\"+Inf\"}} 10"),
            format!("{fam}_sum{name}}} 1234.5678"),
            format!("{fam}_count{name}}} 10"),
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
    }

    #[test]
    fn torn_histogram_inf_bucket_follows_the_buckets() {
        // A concurrent snapshot can catch `count` one behind the
        // buckets; the +Inf line sums the buckets, not `count`.
        let mut s = MetricsSnapshot::default();
        s.histograms.insert(
            "torn".into(),
            HistogramSnapshot {
                bounds: vec![1.0],
                buckets: vec![2, 1],
                count: 2,
                sum: 3.0,
            },
        );
        let text = write(&s);
        assert!(
            text.contains("torn_bucket{name=\"torn\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("torn_count{name=\"torn\"} 2\n"), "{text}");
    }
}
