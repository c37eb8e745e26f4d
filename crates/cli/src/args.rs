//! Minimal flag parsing for the `hetgrid` CLI (no external parser: the
//! offline dependency set is deliberately small).

use hetgrid_core::exact::MAX_DIM;
use hetgrid_core::{validate_times, Method};
use hetgrid_dist::{PanelOrdering, Scheme};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::{CostModel, Network};
use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Is `t` a flag token? `--anything`, or a short flag like `-v`
/// (a single dash followed by a letter — `-1.5` stays a value).
fn is_flag_token(t: &str) -> bool {
    t.starts_with("--")
        || (t.len() > 1
            && t.starts_with('-')
            && t[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic()))
}

impl Args {
    /// Parses from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            if let Some(key) = a.strip_prefix("--") {
                // `--key value` when the next token is not a flag;
                // otherwise a boolean flag.
                match argv.peek() {
                    Some(v) if !is_flag_token(v) => {
                        let v = argv.next().expect("peeked");
                        if out.options.insert(key.to_string(), v).is_some() {
                            return Err(format!("duplicate option --{}", key));
                        }
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if is_flag_token(&a) {
                // Short boolean flag (`-v`); never takes a value.
                out.flags.push(a[1..].to_string());
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(format!("unexpected argument: {}", a));
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{}", key))
    }

    /// A parsed option with default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{}: {}", key, v)),
            None => Ok(default),
        }
    }

    /// A count with default: `--nb`, `--trials`; at least 1.
    pub fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_parse(key, default)? {
            0 => Err(format!("--{key} must be >= 1, got 0")),
            n => Ok(n),
        }
    }

    /// A boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Diagnostic verbosity from `--quiet`/`-q` and `--verbose`/`-v`
    /// (see `hetgrid_obs::diag`): 0 quiet, 1 default, 2 verbose.
    pub fn verbosity(&self) -> i32 {
        if self.flag("quiet") || self.flag("q") {
            0
        } else if self.flag("verbose") || self.flag("v") {
            2
        } else {
            1
        }
    }

    /// Was `--key` given at all, with or without a value?
    pub fn has(&self, key: &str) -> bool {
        self.flag(key) || self.get(key).is_some()
    }

    /// `--key AxB`, two counts; `want` names the shape in the error.
    pub fn pair(&self, key: &str, want: &str) -> Result<Option<(usize, usize)>, String> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        raw.split_once(['x', 'X'])
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .map(Some)
            .ok_or_else(|| format!("invalid --{} (want {}): {}", key, want, raw))
    }

    /// `--panel BPxBQ`, the period of `scheme` on a `p x q` grid: the
    /// panel scheme deals every grid line at least one panel line.
    pub fn panel(
        &self,
        scheme: Scheme,
        (p, q): (usize, usize),
        default: (usize, usize),
    ) -> Result<(usize, usize), String> {
        let (bp, bq) = self.pair("panel", "BPxBQ")?.unwrap_or(default);
        if matches!(scheme, Scheme::Panel(_)) && (bp < p || bq < q) {
            return Err(format!(
                "--panel {}x{} is smaller than the {}x{} grid",
                bp, bq, p, q
            ));
        }
        Ok((bp, bq))
    }

    /// The comma-separated cycle-times of `--key`, one per processor of
    /// a `p x q` grid, each positive and finite: everything the solvers
    /// assert, as an error.
    pub fn pool(&self, key: &str, p: usize, q: usize) -> Result<Vec<f64>, String> {
        let times = self
            .require(key)?
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid cycle-time: {}", s))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        if times.len() != p * q {
            return Err(format!("{} {} for a {}x{} grid", times.len(), key, p, q));
        }
        validate_times(&times, p, q).map_err(|e| format!("--{}: {}", key, e))?;
        Ok(times)
    }

    /// `--times T1,T2,..` on `--grid PxQ`: the pool every grid command
    /// starts from, as `(times, p, q)`.
    pub fn grid_times(&self) -> Result<(Vec<f64>, usize, usize), String> {
        let (p, q) = self.pair("grid", "PxQ")?.ok_or("missing --grid")?;
        Ok((self.pool("times", p, q)?, p, q))
    }

    /// `--key NAME` looked up in a `(name, value)` table; the error
    /// lists the table's names.
    pub fn choice<T: Copy>(
        &self,
        key: &str,
        default: &str,
        table: &[(&str, T)],
    ) -> Result<T, String> {
        let raw = self.get(key).unwrap_or(default);
        let hit = table.iter().find(|(name, _)| *name == raw);
        hit.map(|&(_, value)| value).ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
            format!(
                "unknown {}: {} (want one of {})",
                key,
                raw,
                names.join(", ")
            )
        })
    }

    /// `--network switched|bus --latency L --transfer B`: the
    /// simulator's communication costs, each finite and >= 0.
    pub fn cost_model(&self) -> Result<CostModel, String> {
        let networks = [
            ("switched", Network::Switched),
            ("bus", Network::SharedBus),
            ("ethernet", Network::SharedBus),
        ];
        let network = self.choice("network", "switched", &networks)?;
        let latency = self.get_parse("latency", 0.2)?;
        CostModel::checked(latency, self.get_parse("transfer", 0.02)?, network)
    }

    /// `--kernel mm|lu|cholesky|qr`.
    pub fn kernel(&self, default: Kernel) -> Result<Kernel, String> {
        let table = Kernel::ALL.map(|k| (k.name(), k));
        self.choice("kernel", default.name(), &table)
    }

    /// `--method heuristic|exact|local-search|anneal` for a `p x q`
    /// grid; `exact` only up to the exact solver's limit.
    pub fn method(&self, (p, q): (usize, usize)) -> Result<Method, String> {
        let table = Method::ALL.map(|m| (m.name(), m));
        let method = self.choice("method", Method::default().name(), &table)?;
        if method == Method::Exact && p.max(q) > MAX_DIM {
            return Err(format!(
                "--method exact is limited to grids up to {MAX_DIM}x{MAX_DIM}, got {p}x{q} (use --method heuristic)"
            ));
        }
        Ok(method)
    }

    /// `--scheme panel|kl|cyclic`, the panel scheme under
    /// `--ordering interleaved|contiguous|columns`.
    pub fn scheme(&self) -> Result<Scheme, String> {
        let ordering = self.choice("ordering", "interleaved", &PanelOrdering::NAMED)?;
        let schemes = Scheme::all(ordering).map(|s| (s.name(), s));
        self.choice("scheme", "panel", &schemes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn basic_parsing() {
        let a = parse("solve --times 1,2,3 --grid 1x3 --csv");
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.grid_times().unwrap(), (vec![1.0, 2.0, 3.0], 1, 3));
        assert!(a.flag("csv"));
        assert!(!a.flag("json"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse("simulate --nb 32");
        assert_eq!(a.get_parse("nb", 0usize).unwrap(), 32);
        assert_eq!(a.get_parse("trials", 7usize).unwrap(), 7);
        assert!(a.require("times").is_err());
    }

    #[test]
    fn short_flags_and_verbosity() {
        let a = parse("run --nb 8 -v");
        assert!(a.flag("v"));
        assert_eq!(a.get_parse("nb", 0usize).unwrap(), 8);
        assert_eq!(a.verbosity(), 2);
        assert_eq!(parse("run --quiet").verbosity(), 0);
        assert_eq!(parse("run -q").verbosity(), 0);
        assert_eq!(parse("run").verbosity(), 1);
        // A short flag is never swallowed as an option value, but a
        // negative number still is.
        let a = parse("run --kernel mm -v");
        assert_eq!(a.get("kernel"), Some("mm"));
        assert!(a.flag("v"));
        let a = parse("run --shift -1.5");
        assert_eq!(a.get_parse("shift", 0.0f64).unwrap(), -1.5);
    }

    #[test]
    fn rejects_duplicates_and_strays() {
        assert!(Args::parse(["--a", "1", "--a", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["cmd", "stray"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn grid_format_errors() {
        let err = |s: &str| parse(s).grid_times().unwrap_err();
        assert_eq!(
            err("x --times 1,2 --grid 2y3"),
            "invalid --grid (want PxQ): 2y3"
        );
        assert_eq!(
            err("x --times 1,2 --grid ax2"),
            "invalid --grid (want PxQ): ax2"
        );
        assert_eq!(err("x --times 1,2 --grid 0x2"), "2 times for a 0x2 grid");
        assert_eq!(err("x --times 1,2 --grid 1x3"), "2 times for a 1x3 grid");
        assert_eq!(
            parse("x --new-times 1,2")
                .pool("new-times", 1, 3)
                .unwrap_err(),
            "2 new-times for a 1x3 grid"
        );
        assert!(err("x --times 1,-2 --grid 1x2").contains("strictly positive"));
        assert_eq!(err("x --times 1,two --grid 1x2"), "invalid cycle-time: two");
        let panels = Scheme::Panel(PanelOrdering::Interleaved);
        let a = parse("x --panel 4x6");
        assert_eq!(a.panel(panels, (2, 2), (8, 8)).unwrap(), (4, 6));
        assert_eq!(parse("x").panel(panels, (2, 2), (8, 8)).unwrap(), (8, 8));
        assert!(a.panel(panels, (2, 7), (8, 8)).is_err());
        assert_eq!(a.panel(Scheme::Cyclic, (2, 7), (8, 8)).unwrap(), (4, 6));
    }

    #[test]
    fn choices_list_their_names() {
        assert_eq!(parse("x").method((2, 2)).unwrap(), Method::Heuristic);
        assert_eq!(
            parse("x --method greedy").method((2, 2)).unwrap_err(),
            "unknown method: greedy (want one of heuristic, exact, local-search, anneal)"
        );
        let a = parse("x --scheme panel --ordering columns");
        assert_eq!(
            a.scheme().unwrap(),
            Scheme::Panel(PanelOrdering::ColumnsInterleaved)
        );
        assert_eq!(parse("x --scheme kl").scheme().unwrap(), Scheme::Kl);
        assert!(parse("x --ordering zigzag").scheme().is_err());
        assert_eq!(parse("x").kernel(Kernel::Lu).unwrap(), Kernel::Lu);
    }
}
