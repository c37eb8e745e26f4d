//! `e2e_budget --workload W --seed S --seconds N --trace 0|1 [--smoke] [--out DIR]`
//! `e2e_budget compare A B`

use e2e_budget::run::{run, Args};
use std::process::ExitCode;

const USAGE: &str = "usage: e2e_budget --workload <mm_grid|lu_grid|chol_qr_star|plan_serve> \
--seed <n> [--seconds <n>] [--trace <0|1>] [--smoke] [--out <dir>]\n       \
e2e_budget compare <A> <B>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?,
            "--trace" => a.trace = number()? != 0,
            "--out" => a.out_dir = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => e2e_budget::compare::compare(&argv[1], &argv[2]),
        Some("compare") => Err("compare takes two files".into()),
        _ => parse(&argv).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
