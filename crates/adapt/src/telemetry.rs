//! Structured telemetry from kernel iterations.
//!
//! The executor already measures per-processor busy time and weighted
//! work per run ([`hetgrid_exec::ExecReport`]); telemetry turns that
//! aggregate into the stream the adaptive loop consumes: one
//! [`IterationSample`] per kernel iteration, carrying the *observed
//! per-unit cycle-time* of every grid position. Samples are keyed by
//! grid position because that is what the executor measures; the
//! controller maps positions back to physical processor ids through the
//! active arrangement.

use hetgrid_core::Arrangement;
use hetgrid_exec::ExecReport;

/// One iteration's observation: the per-unit cycle-time seen at every
/// grid position (`None` where a processor performed no work).
#[derive(Clone, Debug, PartialEq)]
pub struct IterationSample {
    /// `observed[i][j]` = busy time per work unit of the processor at
    /// grid position `(i, j)`, if it did any work.
    pub observed: Vec<Vec<Option<f64>>>,
}

impl IterationSample {
    /// Builds a sample from an executor report (real measurements).
    pub fn from_exec_report(report: &ExecReport) -> Self {
        IterationSample {
            observed: report.observed_times(),
        }
    }

    /// Builds a noiseless sample from known true cycle-times, indexed by
    /// *processor id* — the simulator-side perfect-telemetry source used
    /// by the deterministic closed-loop experiments.
    ///
    /// # Panics
    /// Panics if `times_by_proc` does not cover the arrangement.
    pub fn from_true_times(arr: &Arrangement, times_by_proc: &[f64]) -> Self {
        assert_eq!(
            times_by_proc.len(),
            arr.len(),
            "IterationSample: times/arrangement size mismatch"
        );
        let observed = (0..arr.p())
            .map(|i| {
                (0..arr.q())
                    .map(|j| Some(times_by_proc[arr.proc(i, j)]))
                    .collect()
            })
            .collect();
        IterationSample { observed }
    }

    /// Re-keys the sample from grid positions to processor ids using the
    /// arrangement that was active when the sample was taken.
    ///
    /// # Panics
    /// Panics if the sample's shape does not match the arrangement.
    pub fn by_proc(&self, arr: &Arrangement) -> Vec<Option<f64>> {
        assert_eq!(
            self.observed.len(),
            arr.p(),
            "IterationSample: row count mismatch"
        );
        let mut out = vec![None; arr.len()];
        for (i, row) in self.observed.iter().enumerate() {
            assert_eq!(row.len(), arr.q(), "IterationSample: column count mismatch");
            for (j, &obs) in row.iter().enumerate() {
                out[arr.proc(i, j)] = obs;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_times_round_trip_through_proc_mapping() {
        // A permuted arrangement: sorted_row_major reorders processors.
        let times = vec![5.0, 1.0, 3.0, 2.0];
        let arr = hetgrid_core::arrangement::sorted_row_major(&times, 2, 2);
        let sample = IterationSample::from_true_times(&arr, &times);
        let by_proc = sample.by_proc(&arr);
        for (k, &t) in times.iter().enumerate() {
            assert_eq!(by_proc[k], Some(t), "proc {}", k);
        }
    }

    #[test]
    fn exec_report_sample_preserves_missing_work() {
        let report = ExecReport {
            wall_seconds: 1.0,
            busy_seconds: vec![vec![2.0, 0.0]],
            work_units: vec![vec![4, 0]],
            messages_sent: vec![vec![0, 0]],
            lookahead: 0,
        };
        let sample = IterationSample::from_exec_report(&report);
        assert_eq!(sample.observed, vec![vec![Some(0.5), None]]);
    }
}
