//! `--trace-out` / `--metrics-out` plumbing shared by the subcommands
//! that drive instrumented code.
//!
//! [`ObsSession::begin`] enables workspace tracing when either output
//! path is requested and snapshots the metrics registry;
//! [`ObsSession::finish`] disables tracing again and writes the
//! requested artifacts — a Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) drained from the live collector, and
//! the *per-run* metrics delta as JSON. Subcommands whose timeline
//! comes from the simulator rather than the live collector hand
//! `finish` a pre-rendered document.

use crate::args::Args;
use hetgrid_obs::diag;

/// One subcommand's observability outputs.
pub struct ObsSession {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    baseline: hetgrid_obs::MetricsSnapshot,
}

impl ObsSession {
    /// Reads `--trace-out` / `--metrics-out`; when either is present,
    /// clears stale trace state, enables tracing, and records the
    /// metrics baseline the final delta is taken against.
    pub fn begin(args: &Args) -> ObsSession {
        let trace_out = args.get("trace-out").map(String::from);
        let metrics_out = args.get("metrics-out").map(String::from);
        if trace_out.is_some() || metrics_out.is_some() {
            hetgrid_obs::trace::clear();
            hetgrid_obs::set_enabled(true);
        }
        let baseline = hetgrid_obs::metrics().snapshot();
        ObsSession {
            trace_out,
            metrics_out,
            baseline,
        }
    }

    /// Was `--trace-out` requested?
    pub fn wants_trace(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Disables tracing and writes the requested artifacts: `trace` as
    /// the trace document when given, else the live collector's
    /// export (the collector is drained either way, so later runs start
    /// clean).
    pub fn finish(self, trace: Option<String>) -> Result<(), String> {
        if self.trace_out.is_none() && self.metrics_out.is_none() {
            return Ok(());
        }
        hetgrid_obs::set_enabled(false);
        let (tracks, events) = hetgrid_obs::trace::take();
        if let Some(path) = &self.trace_out {
            let doc = trace.unwrap_or_else(|| hetgrid_obs::chrome::export(&tracks, &events));
            write_file(path, &doc)?;
            diag!("wrote chrome trace to {path} (open in Perfetto or chrome://tracing)");
        }
        if let Some(path) = &self.metrics_out {
            let delta = hetgrid_obs::metrics().snapshot().delta(&self.baseline);
            write_file(path, &delta.to_json())?;
            diag!("wrote metrics to {path}");
        }
        Ok(())
    }
}

/// Writes `contents` to `path` with a subcommand-friendly error.
pub fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {}", path, e))
}
