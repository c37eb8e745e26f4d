//! The benchmark's vocabulary: workloads and metrics, by the names
//! `BENCHMARK.json` carries. `tests/smoke.rs` holds the two in step.

pub const WORKLOADS: [&str; 4] = ["mm_grid", "lu_grid", "chol_qr_star", "plan_serve"];

/// One metric: `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen before a change counts as a regression. Each bound is
/// three times the spread the same code showed over ten seeds on the
/// 2-core host it was defined on (README, "End-to-end metrics").
pub const END_TO_END: [(Def, f64); 4] = [
    (("op_p50_s", "s", "lower"), 0.20),
    (("ops_per_s", "1/s", "higher"), 0.24),
    (("setup_s", "s", "lower"), 0.25),
    (("peak_rss_mb", "MiB", "lower"), 0.22),
];

/// Per-layer metrics whose value is a count the program determines: it
/// must repeat exactly across runs of one seed.
pub const EXACT: [&str; 15] = [
    "serve.cache_hit_ratio",
    "serve.cache_evictions",
    "serve.solver_invocations",
    "serve.response_bytes",
    "core.heuristic_iters",
    "plan.steps",
    "plan.messages",
    "plan.wire_bytes",
    "plan.hazard_edges",
    "exec.messages",
    "exec.work_units",
    "exec.bytes_computed",
    "sim.counts_match",
    "obs.spans_per_op",
    "obs.traced_ops",
];

pub const PER_LAYER: [Def; 79] = [
    ("budget.serve_s", "s", "lower"),
    ("budget.core_s", "s", "lower"),
    ("budget.dist_s", "s", "lower"),
    ("budget.plan_s", "s", "lower"),
    ("budget.exec_s", "s", "lower"),
    ("budget.linalg_s", "s", "lower"),
    ("budget.bench_s", "s", "lower"),
    ("budget.coverage", "ratio", "higher"),
    ("serve.tcp_rtt_s", "s", "lower"),
    ("serve.handle_hit_s", "s", "lower"),
    ("serve.handle_miss_s", "s", "lower"),
    ("serve.decode_request_s", "s", "lower"),
    ("serve.fingerprint_s", "s", "lower"),
    ("serve.encode_response_s", "s", "lower"),
    ("serve.hot_share", "ratio", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.solver_invocations", "count", "lower"),
    ("serve.response_bytes", "B", "lower"),
    ("core.validate_times_s", "s", "lower"),
    ("core.heuristic_s", "s", "lower"),
    ("core.heuristic_iters", "count", "lower"),
    ("core.exact_s", "s", "lower"),
    ("core.trees_examined", "count", "lower"),
    ("core.trees_pruned", "count", "higher"),
    ("core.obj2_gap", "ratio", "higher"),
    ("dist.build_s", "s", "lower"),
    ("dist.work_imbalance", "ratio", "lower"),
    ("dist.balance_gain", "ratio", "higher"),
    ("plan.gen_mm_s", "s", "lower"),
    ("plan.gen_lu_s", "s", "lower"),
    ("plan.gen_cholesky_s", "s", "lower"),
    ("plan.gen_qr_s", "s", "lower"),
    ("plan.gen_star_s", "s", "lower"),
    ("plan.steps", "count", "lower"),
    ("plan.messages", "count", "lower"),
    ("plan.wire_encode_s", "s", "lower"),
    ("plan.wire_decode_s", "s", "lower"),
    ("plan.wire_bytes", "B", "lower"),
    ("plan.hazard_build_s", "s", "lower"),
    ("plan.hazard_edges", "count", "lower"),
    ("exec.scatter_s", "s", "lower"),
    ("exec.run_s", "s", "lower"),
    ("exec.gather_s", "s", "lower"),
    ("exec.kernel_floor_s", "s", "lower"),
    ("exec.efficiency", "ratio", "higher"),
    ("exec.busy_max_s", "s", "lower"),
    ("exec.imbalance", "ratio", "lower"),
    ("exec.messages", "count", "lower"),
    ("exec.work_units", "count", "lower"),
    ("exec.bytes_computed", "B", "lower"),
    ("exec.stalls", "count", "lower"),
    ("exec.pool_hit_ratio", "ratio", "higher"),
    ("exec.lookahead_gain", "ratio", "higher"),
    ("exec.speedup_vs_seq", "ratio", "higher"),
    ("exec.cholesky_s", "s", "lower"),
    ("exec.qr_s", "s", "lower"),
    ("exec.star_mm_s", "s", "lower"),
    ("linalg.gemm_block_s", "s", "lower"),
    ("linalg.gemm_gflops", "GFLOP/s", "higher"),
    ("linalg.gemm_flop_per_byte", "flop/B", "higher"),
    ("linalg.trsm_block_s", "s", "lower"),
    ("linalg.lu_block_s", "s", "lower"),
    ("linalg.cholesky_block_s", "s", "lower"),
    ("linalg.qr_block_s", "s", "lower"),
    ("linalg.seq_baseline_s", "s", "lower"),
    ("sim.counts_s", "s", "lower"),
    ("sim.des_s", "s", "lower"),
    ("sim.counts_match", "count", "higher"),
    ("tail.op_p90_s", "s", "lower"),
    ("tail.op_max_s", "s", "lower"),
    ("host.threads", "count", "higher"),
    ("host.calib_s", "s", "lower"),
    ("host.calib_drift", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.spans_per_op", "count", "lower"),
    ("obs.traced_ops", "count", "higher"),
    ("exec.workers", "count", "higher"),
    ("tail.op_count", "count", "higher"),
];

/// Metric values of one run, in table order. A traced run reports
/// every per-layer metric; one a workload bypasses reads 0.
pub struct Metrics(Vec<(Def, f64)>);

impl Metrics {
    pub fn new(defs: &[Def]) -> Self {
        Metrics(defs.iter().map(|d| (*d, 0.0)).collect())
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// Panics on a name the table does not hold (a typo in this package).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(d, _)| d.0 == name);
        slot.unwrap_or_else(|| panic!("metric {name} is not in the table"))
            .1 = value;
    }

    /// # Panics
    /// Panics on a name the table does not hold.
    pub fn get(&self, name: &str) -> f64 {
        let slot = self.0.iter().find(|(d, _)| d.0 == name);
        slot.unwrap_or_else(|| panic!("metric {name} is not in the table"))
            .1
    }

    /// `"name": {"value": v, "unit": "u"}` members in table order.
    ///
    /// A non-finite value is an error: it would not be JSON.
    pub fn to_json(&self) -> Result<String, String> {
        let mut members = Vec::with_capacity(self.0.len());
        for ((name, unit, _), v) in &self.0 {
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            members.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", members.join(", ")))
    }
}

pub fn end_to_end_defs() -> Vec<Def> {
    END_TO_END.iter().map(|(d, _)| *d).collect()
}
