//! `hetgrid submit`: the stock client of a running `hetgrid serve`.

use crate::args::Args;
use hetgrid_obs::MetricsSnapshot;
use hetgrid_plan::Kernel;
use hetgrid_serve::proto::{PlanSpec, Request, RequestBody, Response, SolveSpec};
use hetgrid_serve::Client;

/// A rendering of the server's metrics snapshot.
type Render = fn(&MetricsSnapshot) -> String;

/// The `serve.*` metrics as a JSON document.
fn serve_json(snap: &MetricsSnapshot) -> String {
    snap.filtered("serve.").to_json()
}

/// `--format` of `--op metrics`: the client renders what the server
/// sent.
const FORMATS: [(&str, Render); 2] = [("json", serve_json), ("expo", hetgrid_obs::expo::write)];

/// Sends one request kind `--repeat` times over a single connection
/// and prints each response.
pub fn submit(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let op = args.get("op").unwrap_or("plan");
    let tenant = args.get("tenant").unwrap_or("").to_string();
    let repeat: usize = args.get_parse("repeat", 1usize)?;

    let mut render: Render = serve_json;
    let body = match op {
        "metrics" => {
            render = args.choice("format", "json", &FORMATS)?;
            RequestBody::Metrics
        }
        "shutdown" => RequestBody::Shutdown,
        "solve" | "plan" | "simulate" => {
            let (times, p, q) = args.grid_times()?;
            let solve = SolveSpec { p, q, times };
            if op == "solve" {
                RequestBody::Solve(solve)
            } else {
                let kernel = args.kernel(Kernel::Lu)?;
                let nb: usize = args.get_parse("nb", 8usize)?;
                let spec = PlanSpec { solve, kernel, nb };
                if op == "plan" {
                    RequestBody::Plan(spec)
                } else {
                    RequestBody::Simulate(spec)
                }
            }
        }
        other => return Err(format!("unknown --op: {}", other)),
    };

    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {}: {}", addr, e))?;
    for i in 0..repeat {
        let resp = client
            .request(&Request {
                tenant: tenant.clone(),
                body: body.clone(),
            })
            .map_err(|e| format!("request {} failed: {}", i, e))?;
        // The echoed trace id goes to stderr (stdout stays
        // machine-readable): grep for it in the server's --trace-out
        // export to find this request's span tree.
        if let Some(id) = client.last_trace_id() {
            hetgrid_obs::diag!("trace id: {:032x}", id);
        }
        print_response(&resp, args.verbosity(), render);
    }
    Ok(())
}

fn print_response(resp: &Response, verbosity: i32, render: Render) {
    match resp {
        Response::Solve(r) => {
            println!(
                "solve ok: {}x{} obj2 {:.6} rows {:?} cols {:?}",
                r.p, r.q, r.obj2, r.rows, r.cols
            );
        }
        Response::Plan(r) => {
            // 0 steps when the bytes fail to decode: the server produced
            // them, so failure here is cosmetic only.
            let steps = hetgrid_plan::wire::decode(&r.plan_bytes).map_or(0, |p| p.steps.len());
            println!(
                "plan ok: {}x{} obj2 {:.6} plan {} bytes ({} steps)",
                r.solve.p,
                r.solve.q,
                r.solve.obj2,
                r.plan_bytes.len(),
                steps
            );
        }
        Response::Simulate(r) => {
            println!(
                "simulate ok: {}x{} messages {} work {}",
                r.p,
                r.q,
                r.messages.iter().sum::<u64>(),
                r.work.iter().sum::<u64>()
            );
            if verbosity > 1 {
                println!("  per-proc messages {:?}", r.messages);
                println!("  per-proc work     {:?}", r.work);
            }
        }
        Response::Metrics(snap) => println!("{}", render(snap)),
        Response::ShuttingDown => println!("server shutting down"),
        Response::Busy => println!("server busy (load shed)"),
        Response::QuotaExceeded => println!("quota exceeded"),
        Response::BadRequest(msg) => println!("bad request: {}", msg),
        Response::ServerError(msg) => println!("server error: {}", msg),
    }
}
