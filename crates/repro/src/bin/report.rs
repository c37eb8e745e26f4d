//! The paper reproduction, one command.
//!
//! Usage: `report <experiment> [args]` prints one experiment;
//! `report all [out.md] [trials]` writes every experiment to a markdown
//! file (defaults: RESULTS.md, trial counts capped at 50).

use hetgrid_repro::experiments::{render, render_all, Args, EXPERIMENTS};
use std::io::{self, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\nusage: report all [out.md] [trials]");
            for (name, arguments, _) in EXPERIMENTS {
                eprintln!("       {}", format!("report {name} {arguments}").trim_end());
            }
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let number = |s: &String| {
        s.parse::<usize>()
            .map_err(|_| format!("`{s}` is not a non-negative integer"))
    };
    let (name, rest) = args.split_first().ok_or("no experiment named")?;
    if name == "all" {
        let path = rest.first().map_or("RESULTS.md", String::as_str);
        let trial_cap = rest.get(1).map_or(Ok(50), number)?;
        std::fs::write(path, render_all(trial_cap)).map_err(|e| format!("write {path}: {e}"))?;
        return print(&format!("wrote {path}\n"));
    }
    let &(.., section) = EXPERIMENTS
        .iter()
        .find(|(n, ..)| n == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let values = rest.iter().map(number).collect::<Result<Vec<_>, _>>()?;
    print(&render(
        section,
        &Args {
            values: &values,
            trial_cap: usize::MAX,
        },
    ))
}

/// Writes `text` once through a locked stdout. A reader that closed the
/// pipe early (`report fig6 | head`) is not an error.
fn print(text: &str) -> Result<(), String> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}
