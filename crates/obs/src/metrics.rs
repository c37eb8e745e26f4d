//! Global metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Registration hands out *typed handles* ([`Counter`], [`Gauge`],
//! [`Histogram`]) that are cheap clones of the underlying atomics; hot
//! paths fetch a handle once (per worker, per thread) and then pay one
//! relaxed atomic operation per update. The registry's mutex is taken
//! only at registration and [`snapshot`](Registry::snapshot) time.
//!
//! Values are cumulative for the process lifetime; callers interested
//! in a single run take a snapshot before and after and use
//! [`MetricsSnapshot::delta`]. The harness differential oracle does
//! exactly this to compare executor-observed counters with the
//! closed-form `sim::counts` predictions.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float gauge (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn record_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistInner {
    /// Upper bounds, strictly increasing. Bucket `i` counts
    /// observations `v <= bounds[i]` (and `> bounds[i-1]`); one extra
    /// overflow bucket counts `v > bounds.last()`.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, accumulated as `f64` bits under CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram with upper-inclusive bucket bounds.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// A standalone histogram (outside the registry) with the given
    /// strictly increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let h = &self.0;
        // First bucket whose bound is >= v (upper-inclusive), or the
        // overflow bucket.
        let idx = h.bounds.partition_point(|&b| v > b);
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = h.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match h
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The process-wide named-metric table. Obtain via [`metrics`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

/// The global registry.
pub fn metrics() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers (or fetches) the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// Registers (or fetches) the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// Registers (or fetches) the histogram `name`. `bounds` applies
    /// on first registration; later fetches reuse the existing buckets.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different type, or
    /// on invalid `bounds` (see [`Histogram::new`]).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A copied histogram state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds (see [`Histogram`]).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) assuming
    /// observations are uniform *within* each bucket: the continuous
    /// rank `q·count` is located in the cumulative distribution and
    /// interpolated linearly between the bucket's lower and upper
    /// bounds (the first bucket's lower bound is 0 — every recorded
    /// quantity here is nonnegative).
    ///
    /// Returns NaN for an empty histogram. Ranks landing in the
    /// unbounded overflow bucket report the largest finite bound — a
    /// deliberate underestimate flagged by `p99 == bounds.last()`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let prev = cum as f64;
            cum += c;
            if c > 0 && cum as f64 >= rank {
                if i >= self.bounds.len() {
                    break; // overflow bucket
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        self.bounds[self.bounds.len() - 1]
    }
}

/// A point-in-time copy of the registry (see [`Registry::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, or 0.0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// This snapshot minus `baseline`: counters and histogram
    /// counts/sums are subtracted (saturating); gauges keep their
    /// current value (a gauge is a level, not a flow).
    pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(baseline.counter(name));
        }
        for (name, h) in out.histograms.iter_mut() {
            if let Some(base) = baseline.histograms.get(name) {
                for (b, bb) in h.buckets.iter_mut().zip(&base.buckets) {
                    *b = b.saturating_sub(*bb);
                }
                h.count = h.count.saturating_sub(base.count);
                h.sum -= base.sum;
            }
        }
        out
    }

    /// Only the metrics whose names start with `prefix` — the registry
    /// is process-global, so a component reporting its own metrics over
    /// a boundary (e.g. the `hetgrid serve` metrics endpoint exporting
    /// `serve.*`) narrows the snapshot first.
    pub fn filtered(&self, prefix: &str) -> MetricsSnapshot {
        fn keep<T: Clone>(map: &BTreeMap<String, T>, prefix: &str) -> BTreeMap<String, T> {
            let kept = map.iter().filter(|(n, _)| n.starts_with(prefix));
            kept.map(|(n, v)| (n.clone(), v.clone())).collect()
        }
        MetricsSnapshot {
            counters: keep(&self.counters, prefix),
            gauges: keep(&self.gauges, prefix),
            histograms: keep(&self.histograms, prefix),
        }
    }

    /// Renders as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        fn named<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Value) -> Value {
            Value::Obj(map.iter().map(|(n, v)| (n.clone(), value(v))).collect())
        }
        fn list<T: Copy + Into<Value>>(xs: &[T]) -> Value {
            Value::Arr(xs.iter().map(|&x| x.into()).collect())
        }
        let histogram = |h: &HistogramSnapshot| {
            Value::obj([
                ("bounds", list(&h.bounds)),
                ("buckets", list(&h.buckets)),
                ("count", h.count.into()),
                ("sum", h.sum.into()),
            ])
        };
        let doc = Value::obj([
            ("counters", named(&self.counters, |&v| v.into())),
            ("gauges", named(&self.gauges, |&v| v.into())),
            ("histograms", named(&self.histograms, histogram)),
        ]);
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0] {
            h.observe(v); // <= 1.0 -> bucket 0
        }
        for v in [1.0001, 2.0] {
            h.observe(v); // (1, 2] -> bucket 1
        }
        h.observe(4.0); // (2, 4] -> bucket 2
        h.observe(4.0001); // > 4.0 -> overflow
        h.observe(1e12); // > 4.0 -> overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 2]);
        assert_eq!(s.count, 7);
        let expected_sum = 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 4.0001 + 1e12;
        assert!((s.sum - expected_sum).abs() < 1e-6 * expected_sum);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn filtered_keeps_only_the_prefix() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("serve.cache.hits".into(), 3);
        s.counters.insert("exec.messages".into(), 9);
        s.gauges.insert("serve.queue.depth".into(), 2.0);
        s.gauges.insert("exec.depth".into(), 5.0);
        let f = s.filtered("serve.");
        assert_eq!(f.counter("serve.cache.hits"), 3);
        assert_eq!(f.counter("exec.messages"), 0);
        assert_eq!(f.gauge("serve.queue.depth"), 2.0);
        assert!(!f.gauges.contains_key("exec.depth"));
    }

    #[test]
    fn gauge_set_and_record_max() {
        let g = metrics().gauge("obs.test.gauge");
        g.set(3.5);
        g.record_max(2.0);
        assert_eq!(g.get(), 3.5);
        g.record_max(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn registry_returns_the_same_underlying_metric() {
        let a = metrics().counter("obs.test.same");
        let b = metrics().counter("obs.test.same");
        a.add(5);
        assert_eq!(b.get(), a.get());
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn registry_rejects_type_confusion() {
        metrics().counter("obs.test.confused");
        metrics().gauge("obs.test.confused");
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let c = metrics().counter("obs.test.delta");
        c.add(3);
        let before = metrics().snapshot();
        c.add(39);
        let d = metrics().snapshot().delta(&before);
        assert_eq!(d.counter("obs.test.delta"), 39);
        assert_eq!(d.counter("obs.test.never-registered"), 0);
    }

    #[test]
    fn snapshot_json_parses_and_carries_values() {
        let c = metrics().counter("obs.test.json \"quoted\"");
        c.add(2);
        let h = metrics().histogram("obs.test.json.hist", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(100.0);
        let snap = metrics().snapshot();
        let doc = json::parse(&snap.to_json()).expect("metrics json must parse");
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("obs.test.json \"quoted\""))
                .and_then(|v| v.as_f64())
                .unwrap()
                >= 2.0
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("obs.test.json.hist"))
            .unwrap();
        assert_eq!(
            hist.get("buckets")
                .and_then(|b| b.as_arr())
                .map(|b| b.len()),
            Some(3)
        );
        assert!(hist.get("count").and_then(|v| v.as_f64()).unwrap() >= 2.0);
    }

    #[test]
    fn quantiles_interpolate_linearly_to_exact_values() {
        // 2 obs in (0,1], 2 in (1,2]: the CDF is a straight line from
        // 0 at x=0 to 4 at x=2, so quantiles are exactly q*2.
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.25, 0.75, 1.25, 1.75] {
            h.observe(v);
        }
        for (q, want) in [
            (0.0, 0.0),
            (0.25, 0.5),
            (0.5, 1.0),
            (0.75, 1.5),
            (0.95, 1.9),
            (1.0, 2.0),
        ] {
            let got = h.quantile(q);
            assert!((got - want).abs() < 1e-12, "q={q}: got {got}, want {want}");
        }
    }

    #[test]
    fn quantiles_skip_empty_buckets_and_handle_skew() {
        // 1 obs in (0,10], 9 in (100,1000]; nothing in (10,100].
        let h = Histogram::new(&[10.0, 100.0, 1000.0]);
        h.observe(5.0);
        for _ in 0..9 {
            h.observe(500.0);
        }
        // rank(0.05) = 0.5 -> halfway through the first bucket.
        assert!((h.quantile(0.05) - 5.0).abs() < 1e-12);
        // rank(0.5) = 5 -> 4 of 9 through (100,1000].
        let want = 100.0 + 900.0 * (4.0 / 9.0);
        assert!((h.quantile(0.5) - want).abs() < 1e-9);
        // rank(1.0) = 10 -> upper edge of the last occupied bucket.
        assert!((h.quantile(1.0) - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no quantiles");
        h.observe(100.0); // overflow bucket only
        assert_eq!(h.quantile(0.5), 2.0, "overflow reports the last bound");
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(7.0), 2.0);
        assert_eq!(h.quantile(-1.0), 2.0);
    }
}
