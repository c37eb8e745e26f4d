//! `hetgrid adapt`: the deterministic closed-loop scenario.

use super::PANELS;
use crate::args::Args;
use crate::obs_out::ObsSession;
use hetgrid_adapt::{
    run_scenario, ControllerConfig, DriftDetectorConfig, Outcome, PolicyConfig, Scenario,
};
use hetgrid_obs::vdiag;
use hetgrid_sim::DriftProfile;

/// Runs the deterministic closed-loop scenario: static plan vs adaptive
/// controller over a drifting pool, reporting both makespans.
pub fn adapt(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let new_times = args.pool("new-times", p, q)?;
    let factors: Vec<f64> = times.iter().zip(&new_times).map(|(b, n)| n / b).collect();

    let nb = args.count("nb", 32)?;
    let iters: usize = args.get_parse("iters", 60)?;
    let (bp, bq) = args.panel(PANELS, (p, q), (8, 8))?;

    let at: usize = args.get_parse("at", 5)?;
    let profile = match args.get("drift").unwrap_or("step") {
        "step" => DriftProfile::Step { at, factors },
        "ramp" => DriftProfile::Ramp {
            from: at,
            to: args.get_parse("until", at + 20)?,
            factors,
        },
        "spike" => DriftProfile::PeriodicSpike {
            period: args.get_parse("period", 10)?,
            width: args.get_parse("width", 2)?,
            factors,
        },
        other => return Err(format!("unknown drift profile: {}", other)),
    };

    let config = ControllerConfig {
        half_life: args.get_parse("half-life", 3.0)?,
        detector: DriftDetectorConfig {
            threshold: args.get_parse("threshold", 0.2)?,
            patience: args.get_parse("patience", 3)?,
            cooldown: args.get_parse("cooldown", 5)?,
        },
        policy: PolicyConfig {
            safety_factor: args.get_parse("safety", 1.5)?,
            block_move_cost: args.get_parse("move-cost", 1.0)?,
            ..PolicyConfig::default()
        },
    };
    config.validate()?;

    let scenario = Scenario {
        base_times: times,
        p,
        q,
        bp,
        bq,
        nb,
        iters,
        profile,
        config,
    };
    let session = ObsSession::begin(args);
    vdiag!(
        "running closed loop: {} iterations on a {}x{} grid",
        iters,
        p,
        q
    );
    let out = run_scenario(&scenario);
    if session.wants_trace() {
        session.finish_with_trace(chrome_trace(&out))?;
    } else {
        session.finish()?;
    }

    if args.flag("csv") {
        println!("iter,static_cost,adaptive_cost,rebalanced");
        for h in &out.history {
            println!(
                "{},{:.4},{:.4},{}",
                h.iter, h.static_cost, h.adaptive_cost, h.rebalanced as u8
            );
        }
        return Ok(());
    }
    println!(
        "closed loop over {} iterations of {}x{} blocks:",
        iters, nb, nb
    );
    println!("static makespan     : {:.1}", out.static_makespan);
    println!(
        "adaptive makespan   : {:.1}  (incl. redistribution cost {:.1})",
        out.adaptive_makespan, out.redistribution_cost
    );
    println!("rebalances          : {}", out.rebalances);
    println!("blocks moved        : {}", out.blocks_moved);
    println!("adaptive speedup    : {:.2}x", out.speedup());
    Ok(())
}

/// Renders the adaptive-loop history as a Chrome trace-event document:
/// one track per strategy (`static`, `adaptive`) with a complete event
/// per kernel iteration (duration = that iteration's cost, one
/// simulated time unit = one second), plus an instant `rebalance`
/// marker on the adaptive track at every plan swap.
fn chrome_trace(out: &Outcome) -> String {
    const US_PER_UNIT: f64 = 1e6;
    let mut ct = hetgrid_obs::ChromeTrace::new();
    ct.thread_name(0, "static");
    ct.thread_name(1, "adaptive");
    let (mut t_static, mut t_adaptive) = (0.0f64, 0.0f64);
    for h in &out.history {
        let name = format!("iter {}", h.iter);
        ct.complete(
            0,
            &name,
            t_static * US_PER_UNIT,
            h.static_cost * US_PER_UNIT,
            &[("cost", hetgrid_obs::Arg::F64(h.static_cost))],
        );
        ct.complete(
            1,
            &name,
            t_adaptive * US_PER_UNIT,
            h.adaptive_cost * US_PER_UNIT,
            &[("cost", hetgrid_obs::Arg::F64(h.adaptive_cost))],
        );
        t_static += h.static_cost;
        t_adaptive += h.adaptive_cost;
        if h.rebalanced {
            ct.instant(1, "rebalance", t_adaptive * US_PER_UNIT, &[]);
        }
    }
    ct.finish()
}
