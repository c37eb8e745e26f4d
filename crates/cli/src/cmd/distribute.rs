//! `hetgrid distribute`: the owner map of one period and its balance.

use crate::args::Args;
use hetgrid_core::exact::ExactOptions;
use hetgrid_core::Method;

pub fn distribute(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let scheme = args.scheme()?;
    let (bp, bq) = args.panel(scheme, (p, q), (8, 8))?;
    let solved = Method::Heuristic.solve(&times, p, q, &ExactOptions::default());
    let dist = scheme.build(&solved.arr, &solved.alloc, bp, bq);

    println!("arrangement:\n{}", solved.arr);
    println!("owner map over one {}x{} period:", bp, bq);
    for bi in 0..bp {
        let row: Vec<String> = (0..bq)
            .map(|bj| {
                let (i, j) = dist.owner(bi, bj);
                format!("({},{})", i + 1, j + 1)
            })
            .collect();
        println!("  {}", row.join(" "));
    }
    let counts = dist.owned_counts(bp, bq);
    println!("blocks per processor in one period:");
    for row in &counts {
        println!("  {:?}", row);
    }
    let report = hetgrid_dist::balance_report(dist.as_ref(), &solved.arr, bp, bq);
    println!(
        "per-period makespan {:.3}, average utilization {:.1}%",
        report.makespan,
        report.average_utilization * 100.0
    );
    Ok(())
}
