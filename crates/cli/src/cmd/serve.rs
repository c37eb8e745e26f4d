//! `hetgrid serve`: the scheduling service in the foreground.

use crate::args::Args;
use crate::obs_out::ObsSession;
use hetgrid_serve::{QuotaConfig, ServiceConfig};

/// Runs the scheduling service until a client sends a `Shutdown`
/// request. With `--trace-out`, per-request spans from the `serve`
/// track (and any executor activity) are exported when the server
/// drains; `--metrics-out` writes the session's metrics delta. At exit
/// the `serve.*` metrics go to stdout as exposition text.
pub fn serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7421");
    let cfg = ServiceConfig {
        cache_capacity: args.get_parse("cache", 256usize)?,
        queue_limit: args.get_parse("queue", 64usize)?,
        quota: QuotaConfig {
            rate_per_sec: args.get_parse("quota-rps", 0.0f64)?,
            burst: args.get_parse("quota-burst", 8.0f64)?,
        },
    };
    let obs = ObsSession::begin(args);
    let handle = hetgrid_serve::spawn(addr, cfg).map_err(|e| format!("binding {}: {}", addr, e))?;
    // The resolved address on stdout is the machine-readable contract:
    // harnesses bind `:0` and read the port from here. Flush
    // explicitly: stdout is block-buffered when redirected to a file,
    // and a harness polls for this line while the server runs.
    println!("listening {}", handle.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    handle.join();
    let snapshot = hetgrid_obs::metrics().snapshot().filtered("serve.");
    print!("{}", hetgrid_obs::expo::write(&snapshot));
    obs.finish(None)
}
