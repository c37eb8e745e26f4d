//! Time-series metrics: a fixed-capacity ring of periodic
//! [`MetricsSnapshot`] deltas.
//!
//! A [`Series`] owns one ring: [`Series::sample`] diffs the global
//! registry against the ring's previous sample and appends the delta
//! (stamped with [`crate::trace::now_us`]), keeping the last
//! [`SERIES_CAP`] points. The free functions [`sample`] and
//! [`to_json`] act on one process-wide default `Series`: `hetgrid
//! serve` drives it from a 1 Hz sampler thread and exposes it over the
//! wire (`Request::Metrics` with the `Series` format, what `hetgrid
//! submit --op metrics --format series` prints). `hetgrid top` does
//! not read it: it polls the `Expo` format and computes rates from
//! successive polls.

use crate::chrome::write_f64;
use crate::metrics::{metrics, MetricsSnapshot};
use crate::trace::now_us;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Points retained in the ring.
pub const SERIES_CAP: usize = 128;

/// One sampled point: the registry delta over the preceding interval.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Sample time, microseconds since the trace epoch.
    pub t_us: f64,
    /// Registry delta since the previous sample (the first sample's
    /// delta is against an empty registry, i.e. absolute values).
    pub delta: MetricsSnapshot,
}

#[derive(Default)]
struct Ring {
    points: VecDeque<SeriesPoint>,
    last: Option<MetricsSnapshot>,
}

/// A ring of the last [`SERIES_CAP`] registry deltas and the baseline
/// the next delta is taken against. Shared by reference (`&self`
/// everywhere, internal mutex) so a sampler thread and readers can use
/// one instance.
#[derive(Default)]
pub struct Series {
    ring: Mutex<Ring>,
}

impl Series {
    /// An empty ring with no baseline.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Takes one sample: snapshots the registry, records the delta
    /// since the previous sample, and advances the baseline. Evicts the
    /// oldest point at capacity.
    pub fn sample(&self) {
        let cur = metrics().snapshot();
        let mut r = self.lock();
        let delta = match &r.last {
            Some(prev) => cur.delta(prev),
            None => cur.clone(),
        };
        if r.points.len() == SERIES_CAP {
            r.points.pop_front();
        }
        r.points.push_back(SeriesPoint {
            t_us: now_us(),
            delta,
        });
        r.last = Some(cur);
    }

    /// A copy of the retained points, oldest first.
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.lock().points.iter().cloned().collect()
    }

    /// Renders the ring as JSON:
    /// `{"series": [{"t_us": ..., "delta": {<snapshot json>}}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\": [");
        for (i, p) in self.points().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"t_us\": ");
            write_f64(&mut out, p.t_us);
            out.push_str(", \"delta\": ");
            out.push_str(p.delta.to_json().trim_end());
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

fn global() -> &'static Series {
    static SERIES: OnceLock<Series> = OnceLock::new();
    SERIES.get_or_init(Series::new)
}

/// [`Series::sample`] on the process-wide default series.
pub fn sample() {
    global().sample();
}

/// [`Series::to_json`] of the process-wide default series.
pub fn to_json() -> String {
    global().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn samples_record_deltas_and_respect_capacity() {
        // The registry is process-global, so drive a dedicated counter
        // and only assert on it.
        let c = metrics().counter("obs.test.series");
        let series = Series::new();
        series.sample();
        c.add(5);
        series.sample();
        c.add(2);
        series.sample();
        let pts = series.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1].delta.counter("obs.test.series"), 5);
        assert_eq!(pts[2].delta.counter("obs.test.series"), 2);
        assert!(pts[0].t_us <= pts[1].t_us && pts[1].t_us <= pts[2].t_us);

        for _ in 0..SERIES_CAP + 10 {
            series.sample();
        }
        assert_eq!(series.points().len(), SERIES_CAP);
    }

    #[test]
    fn series_json_parses() {
        let series = Series::new();
        metrics().counter("obs.test.series.json").inc();
        series.sample();
        let doc = json::parse(&series.to_json()).expect("series json must parse");
        let arr = doc.get("series").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(arr.len(), 1);
        assert!(arr[0].get("t_us").and_then(|v| v.as_f64()).is_some());
        assert!(arr[0]
            .get("delta")
            .and_then(|d| d.get("counters"))
            .is_some());
    }
}
