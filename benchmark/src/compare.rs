//! `e2e_budget compare A B`: two sets of runs side by side.
//!
//! A set is a file of result records, one per line (the files a run
//! writes under `benchmark/out/`, concatenated). One row per workload
//! and end-to-end metric: both medians with their quartiles, the ratio
//! with its base, the bound, and a verdict. A metric whose run-to-run
//! spread exceeds its bound is UNRESOLVED, not unchanged, unless every
//! run of B reads better than every run of A. The counts that must
//! repeat exactly print EXACT, or DIFFERS with their names, per workload
//! and seed.

use crate::names::{END_TO_END, EXACT, WORKLOADS};
use crate::stats::{quartiles, spread};
use hetgrid_obs::json::{parse, Value};
use std::collections::BTreeMap;

/// One run: `(workload, seed, traced, metric -> value)`.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let v = parse(line).map_err(|e| bad(&e))?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::members)
            .ok_or_else(|| bad("no result.metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            seed: num("seed")? as u64,
            traced: num("trace")? != 0.0,
            metrics,
        });
    }
    Ok(out)
}

fn values(set: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// How one metric moved from set A to set B.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Better,
    Worse,
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let b_beats_a = |x: f64, y: f64| if lower_is_better { y < x } else { y > x };
    let all_better = a.iter().all(|x| b.iter().all(|y| b_beats_a(*x, *y)));
    // The share of A's median by which B's median is worse.
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma;
    if all_better {
        Verdict::Better
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Prints the table; `Ok(true)` when no row is WORSE, UNRESOLVED or
/// DIFFERS.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<13} {:<12} {:>3}+{:<3} {:>12} {:>22} {:>12} {:>22} {:>18} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "nB",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B/A (base A)",
        "bound"
    );
    for workload in WORKLOADS {
        for ((name, unit, better), bound) in END_TO_END {
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let v = verdict(&va, &vb, better == "lower", bound);
            let word = match v {
                Verdict::Within => "within bound",
                Verdict::Better => "BETTER (every run)",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "UNRESOLVED",
            };
            clean &= matches!(v, Verdict::Within | Verdict::Better);
            println!(
                "{workload:<13} {name:<12} {:>3}+{:<3} {:>12.6} {:>22} {:>12.6} {:>22} {:>18} {bound:>6}  {word}",
                va.len(),
                vb.len(),
                qa[1],
                format!("[{:.6}, {:.6}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.6}, {:.6}]", qb[0], qb[2]),
                format!("{:.4} of {:.4} {unit}", qb[1] / qa[1], qa[1]),
            );
        }
    }
    // Exact counts: all traced runs of one workload and seed, both
    // sets. One row per workload and seed, naming what differs.
    let mut runs: BTreeMap<(&str, u64), Vec<&Record>> = BTreeMap::new();
    for r in a.iter().chain(&b).filter(|r| r.traced) {
        runs.entry((&r.workload, r.seed)).or_default().push(r);
    }
    for ((workload, seed), rs) in &runs {
        let differing: Vec<&str> = EXACT
            .into_iter()
            .filter(|name| {
                let bits = |r: &&Record| r.metrics.get(*name).map(|v| v.to_bits());
                rs.iter().any(|r| bits(r) != bits(&rs[0]))
            })
            .collect();
        clean &= differing.is_empty();
        let word = if differing.is_empty() {
            "EXACT".to_string()
        } else {
            format!("DIFFERS: {}", differing.join(", "))
        };
        println!(
            "{workload:<13} seed {seed:<3} {} counts over {} traced runs  {word}",
            EXACT.len(),
            rs.len()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let near = [1.03, 1.02, 1.01, 1.04, 1.02];
        let far = [1.20, 1.21, 1.19, 1.22, 1.20];
        let noisy = [0.8, 1.3, 1.0, 0.7, 1.4];
        let fast = [0.5, 0.51, 0.52, 0.5, 0.49];
        assert_eq!(verdict(&a, &near, true, 0.07), Verdict::Within);
        assert_eq!(verdict(&a, &far, true, 0.07), Verdict::Worse);
        assert_eq!(verdict(&a, &noisy, true, 0.07), Verdict::Unresolved);
        assert_eq!(verdict(&a, &fast, true, 0.07), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(&a, &far, false, 0.07), Verdict::Better);
        assert_eq!(verdict(&far, &a, false, 0.07), Verdict::Worse);
        // 20 % worse is within a bound of 0.25.
        assert_eq!(verdict(&a, &far, true, 0.25), Verdict::Within);
    }
}
