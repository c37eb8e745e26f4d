//! `hetgrid top`: a live dashboard over a running `hetgrid serve`.

use crate::args::Args;
use hetgrid_obs::MetricsSnapshot;
use hetgrid_serve::proto::{MetricsFormat, Request, RequestBody, Response};
use hetgrid_serve::Client;

/// Live in-terminal dashboard over a running `hetgrid serve`: polls
/// the metrics endpoint (text exposition format), derives rates from
/// successive snapshots, and redraws. `--once` prints a single frame
/// (totals instead of rates) and exits — the CI smoke job uses it.
pub fn top(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let once = args.flag("once");
    let interval: f64 = args.get_parse("interval", 2.0)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err(format!("--interval must be positive, got {}", interval));
    }

    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {}: {}", addr, e))?;
    let mut prev: Option<(std::time::Instant, MetricsSnapshot)> = None;
    loop {
        let resp = client
            .request(&Request {
                tenant: "top".into(),
                body: RequestBody::Metrics(MetricsFormat::Expo),
            })
            .map_err(|e| format!("polling {}: {}", addr, e))?;
        let text = match resp {
            Response::Metrics(text) => text,
            other => return Err(format!("unexpected response: {:?}", other.status())),
        };
        let snap = hetgrid_obs::expo::parse(&text)
            .map_err(|e| format!("server exposition did not parse: {}", e))?;
        let now = std::time::Instant::now();
        let frame = render_top(
            addr,
            &snap,
            prev.as_ref()
                .map(|(t, s)| (now.duration_since(*t).as_secs_f64(), s)),
        );
        if once {
            print!("{}", frame);
            return Ok(());
        }
        // Clear + home, then redraw in place.
        print!("\x1b[2J\x1b[H{}", frame);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = Some((now, snap));
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// One dashboard frame. `prev` is `(seconds_since, snapshot)` of the
/// previous poll: present, counters render as rates; absent (first
/// frame, `--once`), they render as totals.
fn render_top(addr: &str, snap: &MetricsSnapshot, prev: Option<(f64, &MetricsSnapshot)>) -> String {
    use std::fmt::Write as _;

    let rate = |name: &str| -> (f64, &'static str) {
        match prev {
            Some((dt, p)) if dt > 0.0 => (
                (snap.counter(name).saturating_sub(p.counter(name))) as f64 / dt,
                "/s",
            ),
            _ => (snap.counter(name) as f64, " total"),
        }
    };
    let ratio = |num: u64, den: u64| -> String {
        if den == 0 {
            "  n/a".to_string()
        } else {
            format!("{:5.1}%", 100.0 * num as f64 / den as f64)
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "hetgrid top — {}", addr);
    let (qps, unit) = rate("serve.requests.admitted");
    let _ = writeln!(
        out,
        "requests   admitted {:8.1}{}   shed {}   quota-denied {}   malformed {}",
        qps,
        unit,
        snap.counter("serve.shed"),
        snap.counter("serve.quota.denied"),
        snap.counter("serve.requests.malformed"),
    );

    let hits = snap.counter("serve.cache.hits");
    let misses = snap.counter("serve.cache.misses");
    let _ = writeln!(
        out,
        "cache      hit ratio {}   hits {}   misses {}   coalesced {}   evictions {}",
        ratio(hits, hits + misses),
        hits,
        misses,
        snap.counter("serve.cache.coalesced"),
        snap.counter("serve.cache.evictions"),
    );

    let ph = snap.counter("exec.pool.hits");
    let pm = snap.counter("exec.pool.misses");
    let _ = writeln!(
        out,
        "exec       pool hit rate {}   recovery crashes {} joins {} blocks-moved {} replayed {}",
        ratio(ph, ph + pm),
        snap.counter("exec.recovery.crashes"),
        snap.counter("exec.recovery.joins"),
        snap.counter("exec.recovery.blocks_moved"),
        snap.counter("exec.recovery.replayed_steps"),
    );

    // Latency quantiles per endpoint, interpolated from the histogram
    // buckets the exposition carries.
    for (name, h) in &snap.histograms {
        let Some(endpoint) = name.strip_prefix("serve.latency.") else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "latency    {:9} p50 {:9.6}s  p95 {:9.6}s  p99 {:9.6}s  ({} reqs)",
            endpoint,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.count,
        );
    }
    if let Some(h) = snap.histograms.get("exec.step.compute_us") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "compute    step p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  ({} chunks)",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.count,
            );
        }
    }

    // Per-tenant admission, busiest first.
    let mut tenants: Vec<(&str, f64, &'static str)> = snap
        .counters
        .keys()
        .filter_map(|name| {
            let t = name
                .strip_prefix("serve.tenant.")?
                .strip_suffix(".admitted")?;
            let (r, unit) = rate(name);
            Some((t, r, unit))
        })
        .collect();
    tenants.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    for (tenant, r, unit) in tenants.iter().take(8) {
        let _ = writeln!(out, "tenant     {:24} {:8.1}{}", tenant, r, unit);
    }
    out
}
