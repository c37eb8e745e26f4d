//! Versioned request/response protocol for `hetgrid serve`.
//!
//! Every payload starts with the two magic bytes `hg` and a version
//! byte, then a kind byte. Integers are little-endian; cycle-times
//! travel as raw IEEE-754 `f64` bit patterns, so what the client sent
//! is bit-for-bit what the solver (and the cache fingerprint) sees.
//!
//! Request kinds:
//!
//! | kind | body |
//! |------|------|
//! | 1 `Solve`    | `u16 p, u16 q, p*q x f64` |
//! | 2 `Plan`     | `u8 kernel, u32 nb, u16 p, u16 q, p*q x f64` |
//! | 3 `Simulate` | same as `Plan` |
//! | 4 `Metrics`  | `u8 format` (absent ⇒ `0` = JSON, for v1 clients) |
//! | 5 `Shutdown` | empty |
//!
//! A `u16` tenant-id length plus UTF-8 bytes (max [`MAX_TENANT`])
//! precedes every body. The tenant id scopes quota buckets only — it
//! is deliberately *excluded* from the cache fingerprint, so tenants
//! share the plan cache (the solver is a pure function of the spec).
//!
//! Kind 6 ([`TRACE_HEADER_KIND`]) is not a request: it is an optional
//! *header frame* a client may send immediately before a request frame
//! to propagate its trace context (`u128` trace id + `u64` parent span
//! id, little-endian, both nonzero). A server that admits the request
//! under that context echoes the header frame back before the response
//! frame — and only then, so v1 clients never see an unexpected frame.
//!
//! Decoding is total: malformed bytes produce a typed [`ProtoError`],
//! never a panic, and the decoders bound every length field before
//! allocating.

use crate::wire::MAX_FRAME;

/// Protocol magic, first two payload bytes.
pub const MAGIC: [u8; 2] = *b"hg";
/// Protocol version accepted by this build.
pub const PROTO_VERSION: u8 = 1;
/// Longest accepted tenant id, in UTF-8 bytes.
pub const MAX_TENANT: usize = 64;
/// Largest accepted grid side.
pub const MAX_GRID_SIDE: usize = 1024;
/// Largest accepted block count per matrix side (plan generation is
/// super-linear in `nb`; this bounds the work one request can demand).
pub const MAX_NB: usize = 4096;
/// Kind byte of the optional trace-context header frame (not a
/// request kind; see the module docs).
pub const TRACE_HEADER_KIND: u8 = 6;

/// A malformed protocol payload: what and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What the decoder was reading.
    pub what: &'static str,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed payload at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for ProtoError {}

/// The kernel a plan or simulation request is about: the workspace's
/// one kernel enum, whose `as_u8` bytes are this wire's kernel field
/// and part of every plan-cache fingerprint.
pub use hetgrid_plan::Kernel;

/// The load-balancing problem instance: a `p x q` grid and its
/// row-major cycle-time matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSpec {
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Row-major cycle-times, `p * q` entries.
    pub times: Vec<f64>,
}

/// A plan/simulate instance: a solve spec plus the kernel and block
/// count the schedule is for.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSpec {
    /// The underlying load-balancing problem.
    pub solve: SolveSpec,
    /// Which kernel to schedule.
    pub kernel: Kernel,
    /// Blocks per matrix side.
    pub nb: usize,
}

/// Which rendering of the server's metrics a `Metrics` request wants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// `serve.*` counters/gauges as a JSON document (the v1 behavior;
    /// an absent format byte decodes to this).
    #[default]
    Json,
    /// The full metrics snapshot in the Prometheus-style text
    /// exposition format (see `hetgrid_obs::expo`).
    Expo,
    /// The time-series ring of recent snapshot deltas as JSON (see
    /// `hetgrid_obs::series`).
    Series,
}

impl MetricsFormat {
    /// Wire byte for this format.
    pub fn as_u8(self) -> u8 {
        match self {
            MetricsFormat::Json => 0,
            MetricsFormat::Expo => 1,
            MetricsFormat::Series => 2,
        }
    }

    /// Format for a wire byte.
    pub fn from_u8(b: u8) -> Option<MetricsFormat> {
        Some(match b {
            0 => MetricsFormat::Json,
            1 => MetricsFormat::Expo,
            2 => MetricsFormat::Series,
            _ => return None,
        })
    }
}

/// A decoded request body.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Solve the load-balancing problem (arrangement + allocation).
    Solve(SolveSpec),
    /// Solve, then build and serialize the kernel step plan.
    Plan(PlanSpec),
    /// Solve, then predict per-processor message/work totals.
    Simulate(PlanSpec),
    /// Report the server's metrics in the requested rendering.
    Metrics(MetricsFormat),
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl RequestBody {
    fn kind_byte(&self) -> u8 {
        match self {
            RequestBody::Solve(_) => 1,
            RequestBody::Plan(_) => 2,
            RequestBody::Simulate(_) => 3,
            RequestBody::Metrics(_) => 4,
            RequestBody::Shutdown => 5,
        }
    }

    /// Endpoint label for metrics/tracing.
    pub fn endpoint(&self) -> &'static str {
        match self {
            RequestBody::Solve(_) => "solve",
            RequestBody::Plan(_) => "plan",
            RequestBody::Simulate(_) => "simulate",
            RequestBody::Metrics(_) => "metrics",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// A full request: who is asking (for quota accounting) and what for.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Tenant id (quota bucket key); empty means the anonymous tenant.
    pub tenant: String,
    /// What is being asked.
    pub body: RequestBody,
}

/// The solved distribution parameters returned to the client.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveResult {
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Row-major cycle-times of the *solved arrangement* (the input
    /// times, reordered onto the grid).
    pub times: Vec<f64>,
    /// Row allocation `r_i` (fraction of the unit square per grid row).
    pub rows: Vec<f64>,
    /// Column allocation `c_j`.
    pub cols: Vec<f64>,
    /// The arrangement's objective value (max over processors of
    /// `r_i * c_j / t_ij`-normalized workload; lower is better).
    pub obj2: f64,
}

/// A solve result plus the serialized step plan
/// (decode with [`hetgrid_plan::wire::decode`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanResult {
    /// The solved distribution.
    pub solve: SolveResult,
    /// [`hetgrid_plan::wire`]-encoded schedule.
    pub plan_bytes: Vec<u8>,
}

/// Predicted per-processor totals for one kernel run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimulateResult {
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Row-major point-to-point messages sent per processor.
    pub messages: Vec<u64>,
    /// Row-major weighted work units per processor.
    pub work: Vec<u64>,
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful solve.
    Solve(SolveResult),
    /// Successful plan.
    Plan(PlanResult),
    /// Successful simulation.
    Simulate(SimulateResult),
    /// Server metrics snapshot as a JSON document.
    Metrics(String),
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Load shed: the admission queue is full, try again later.
    Busy,
    /// The tenant's token bucket is empty.
    QuotaExceeded,
    /// The request was malformed or out of bounds; human-readable why.
    BadRequest(String),
    /// The server failed internally; human-readable why.
    ServerError(String),
}

impl Response {
    fn kind_byte(&self) -> u8 {
        match self {
            Response::Solve(_) => 1,
            Response::Plan(_) => 2,
            Response::Simulate(_) => 3,
            Response::Metrics(_) => 4,
            Response::ShuttingDown => 5,
            Response::Busy => 16,
            Response::QuotaExceeded => 17,
            Response::BadRequest(_) => 18,
            Response::ServerError(_) => 19,
        }
    }

    /// Short status label (`ok`, `busy`, `quota`, `bad-request`,
    /// `server-error`).
    pub fn status(&self) -> &'static str {
        match self {
            Response::Busy => "busy",
            Response::QuotaExceeded => "quota",
            Response::BadRequest(_) => "bad-request",
            Response::ServerError(_) => "server-error",
            _ => "ok",
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.push(PROTO_VERSION);
    out.push(kind);
}

fn put_u16(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u16).to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    put_u32(out, vals.len());
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_solve_spec(out: &mut Vec<u8>, s: &SolveSpec) {
    put_u16(out, s.p);
    put_u16(out, s.q);
    put_f64s(out, &s.times);
}

fn put_solve_result(out: &mut Vec<u8>, r: &SolveResult) {
    put_u16(out, r.p);
    put_u16(out, r.q);
    put_f64s(out, &r.times);
    put_f64s(out, &r.rows);
    put_f64s(out, &r.cols);
    out.extend_from_slice(&r.obj2.to_bits().to_le_bytes());
}

/// Serializes a request to its canonical payload bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + req.tenant.len());
    put_header(&mut out, req.body.kind_byte());
    put_u16(&mut out, req.tenant.len());
    out.extend_from_slice(req.tenant.as_bytes());
    match &req.body {
        RequestBody::Solve(s) => put_solve_spec(&mut out, s),
        RequestBody::Plan(p) | RequestBody::Simulate(p) => {
            out.push(p.kernel.as_u8());
            put_u32(&mut out, p.nb);
            put_solve_spec(&mut out, &p.solve);
        }
        RequestBody::Metrics(fmt) => out.push(fmt.as_u8()),
        RequestBody::Shutdown => {}
    }
    out
}

/// Serializes a trace-context header frame (sent before a request, or
/// echoed before the response it contextualizes).
pub fn encode_trace_header(trace_id: u128, span_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    put_header(&mut out, TRACE_HEADER_KIND);
    out.extend_from_slice(&trace_id.to_le_bytes());
    out.extend_from_slice(&span_id.to_le_bytes());
    out
}

/// True if `buf` looks like a trace-context header frame (magic,
/// version, and kind byte match). Used to decide whether a received
/// frame is the optional header or the request/response itself.
pub fn is_trace_header(buf: &[u8]) -> bool {
    buf.len() >= 4 && buf[..2] == MAGIC && buf[2] == PROTO_VERSION && buf[3] == TRACE_HEADER_KIND
}

/// Decodes a trace-context header frame into `(trace_id, span_id)`.
/// Total over arbitrary bytes; a zero trace id is malformed (zero
/// means "no context" and must be expressed by omitting the frame).
pub fn decode_trace_header(buf: &[u8]) -> Result<(u128, u64), ProtoError> {
    let mut c = Cursor { buf, pos: 0 };
    let kind = c.header("trace header kind")?;
    if kind != TRACE_HEADER_KIND {
        return Err(c.err("not a trace header"));
    }
    let lo = c.u64("trace id")? as u128;
    let hi = c.u64("trace id")? as u128;
    let trace_id = (hi << 64) | lo;
    let span_id = c.u64("span id")?;
    c.done()?;
    if trace_id == 0 {
        return Err(ProtoError {
            offset: 4,
            what: "zero trace id",
        });
    }
    Ok((trace_id, span_id))
}

/// Serializes a response to its canonical payload bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_header(&mut out, resp.kind_byte());
    match resp {
        Response::Solve(r) => put_solve_result(&mut out, r),
        Response::Plan(r) => {
            put_solve_result(&mut out, &r.solve);
            put_u32(&mut out, r.plan_bytes.len());
            out.extend_from_slice(&r.plan_bytes);
        }
        Response::Simulate(r) => {
            put_u16(&mut out, r.p);
            put_u16(&mut out, r.q);
            put_u32(&mut out, r.messages.len());
            for v in &r.messages {
                out.extend_from_slice(&v.to_le_bytes());
            }
            put_u32(&mut out, r.work.len());
            for v in &r.work {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Metrics(json) => put_str(&mut out, json),
        Response::BadRequest(msg) | Response::ServerError(msg) => put_str(&mut out, msg),
        Response::ShuttingDown | Response::Busy | Response::QuotaExceeded => {}
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, what: &'static str) -> ProtoError {
        ProtoError {
            offset: self.pos,
            what,
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.err(what))?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| self.err(what))?;
        self.pos = end;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ProtoError> {
        let (bytes, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or_else(|| self.err(what))?;
        self.pos += N;
        Ok(*bytes)
    }

    fn u16(&mut self, what: &'static str) -> Result<usize, ProtoError> {
        Ok(u16::from_le_bytes(self.array(what)?) as usize)
    }

    fn u32(&mut self, what: &'static str) -> Result<usize, ProtoError> {
        Ok(u32::from_le_bytes(self.array(what)?) as usize)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u32` element count, bounded by the bytes remaining.
    fn count(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, ProtoError> {
        let n = self.u32(what)?;
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.pos {
            return Err(self.err(what));
        }
        Ok(n)
    }

    fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, ProtoError> {
        let n = self.count(8, what)?;
        (0..n).map(|_| self.f64(what)).collect()
    }

    fn u64s(&mut self, what: &'static str) -> Result<Vec<u64>, ProtoError> {
        let n = self.count(8, what)?;
        (0..n).map(|_| self.u64(what)).collect()
    }

    fn string(&mut self, max: usize, what: &'static str) -> Result<String, ProtoError> {
        let n = self.count(1, what)?;
        if n > max {
            return Err(self.err(what));
        }
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError {
            offset: self.pos,
            what,
        })
    }

    fn header(&mut self, expect_what: &'static str) -> Result<u8, ProtoError> {
        let magic = self.take(2, "magic bytes")?;
        if magic != MAGIC {
            return Err(ProtoError {
                offset: 0,
                what: "bad magic bytes",
            });
        }
        let version = self.u8("version byte")?;
        if version != PROTO_VERSION {
            return Err(ProtoError {
                offset: 2,
                what: "unsupported protocol version",
            });
        }
        self.u8(expect_what)
    }

    fn solve_spec(&mut self) -> Result<SolveSpec, ProtoError> {
        let p = self.u16("grid rows")?;
        let q = self.u16("grid cols")?;
        if p == 0 || q == 0 || p > MAX_GRID_SIDE || q > MAX_GRID_SIDE {
            return Err(self.err("grid shape out of bounds"));
        }
        let times = self.f64s("cycle-times")?;
        if times.len() != p * q {
            return Err(self.err("cycle-time count does not match grid"));
        }
        Ok(SolveSpec { p, q, times })
    }

    fn plan_spec(&mut self) -> Result<PlanSpec, ProtoError> {
        let kernel =
            Kernel::from_u8(self.u8("kernel byte")?).ok_or_else(|| self.err("unknown kernel"))?;
        let nb = self.u32("block count")?;
        if nb == 0 || nb > MAX_NB {
            return Err(self.err("block count out of bounds"));
        }
        let solve = self.solve_spec()?;
        Ok(PlanSpec { solve, kernel, nb })
    }

    fn solve_result(&mut self) -> Result<SolveResult, ProtoError> {
        let p = self.u16("result grid rows")?;
        let q = self.u16("result grid cols")?;
        Ok(SolveResult {
            p,
            q,
            times: self.f64s("result times")?,
            rows: self.f64s("row allocation")?,
            cols: self.f64s("column allocation")?,
            obj2: self.f64("objective")?,
        })
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(self.err("trailing bytes"));
        }
        Ok(())
    }
}

/// Decodes a request payload. Total over arbitrary bytes.
pub fn decode_request(buf: &[u8]) -> Result<Request, ProtoError> {
    if buf.len() > MAX_FRAME {
        return Err(ProtoError {
            offset: 0,
            what: "payload exceeds frame cap",
        });
    }
    let mut c = Cursor { buf, pos: 0 };
    let kind = c.header("request kind")?;
    let tenant_len = c.u16("tenant length")?;
    if tenant_len > MAX_TENANT {
        return Err(c.err("tenant id too long"));
    }
    let tenant_bytes = c.take(tenant_len, "tenant id")?;
    let tenant = String::from_utf8(tenant_bytes.to_vec()).map_err(|_| ProtoError {
        offset: 4,
        what: "tenant id is not utf-8",
    })?;
    let body = match kind {
        1 => RequestBody::Solve(c.solve_spec()?),
        2 => RequestBody::Plan(c.plan_spec()?),
        3 => RequestBody::Simulate(c.plan_spec()?),
        // A v1 client sends no format byte: empty body means JSON.
        4 if c.pos == buf.len() => RequestBody::Metrics(MetricsFormat::Json),
        4 => RequestBody::Metrics(
            MetricsFormat::from_u8(c.u8("metrics format")?)
                .ok_or_else(|| c.err("unknown metrics format"))?,
        ),
        5 => RequestBody::Shutdown,
        _ => return Err(c.err("unknown request kind")),
    };
    c.done()?;
    Ok(Request { tenant, body })
}

/// Decodes a response payload. Total over arbitrary bytes.
pub fn decode_response(buf: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor { buf, pos: 0 };
    let kind = c.header("response kind")?;
    let resp = match kind {
        1 => Response::Solve(c.solve_result()?),
        2 => {
            let solve = c.solve_result()?;
            let n = c.count(1, "plan bytes")?;
            let plan_bytes = c.take(n, "plan bytes")?.to_vec();
            Response::Plan(PlanResult { solve, plan_bytes })
        }
        3 => {
            let p = c.u16("sim grid rows")?;
            let q = c.u16("sim grid cols")?;
            Response::Simulate(SimulateResult {
                p,
                q,
                messages: c.u64s("message counts")?,
                work: c.u64s("work counts")?,
            })
        }
        4 => Response::Metrics(c.string(MAX_FRAME, "metrics json")?),
        5 => Response::ShuttingDown,
        16 => Response::Busy,
        17 => Response::QuotaExceeded,
        18 => Response::BadRequest(c.string(4096, "error message")?),
        19 => Response::ServerError(c.string(4096, "error message")?),
        _ => return Err(c.err("unknown response kind")),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        let solve = SolveSpec {
            p: 2,
            q: 2,
            times: vec![1.0, 2.0, 3.0, 5.0],
        };
        let plan = PlanSpec {
            solve: solve.clone(),
            kernel: Kernel::Lu,
            nb: 8,
        };
        vec![
            Request {
                tenant: "team-a".into(),
                body: RequestBody::Solve(solve),
            },
            Request {
                tenant: String::new(),
                body: RequestBody::Plan(plan.clone()),
            },
            Request {
                tenant: "x".into(),
                body: RequestBody::Simulate(plan),
            },
            Request {
                tenant: "ops".into(),
                body: RequestBody::Metrics(MetricsFormat::Json),
            },
            Request {
                tenant: "ops".into(),
                body: RequestBody::Metrics(MetricsFormat::Expo),
            },
            Request {
                tenant: "ops".into(),
                body: RequestBody::Metrics(MetricsFormat::Series),
            },
            Request {
                tenant: "ops".into(),
                body: RequestBody::Shutdown,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    fn sample_responses() -> Vec<Response> {
        let solve = SolveResult {
            p: 2,
            q: 2,
            times: vec![1.0, 2.0, 3.0, 5.0],
            rows: vec![0.6, 0.4],
            cols: vec![0.7, 0.3],
            obj2: 1.25,
        };
        vec![
            Response::Solve(solve.clone()),
            Response::Plan(PlanResult {
                solve,
                plan_bytes: vec![1, 2, 3, 4],
            }),
            Response::Simulate(SimulateResult {
                p: 1,
                q: 2,
                messages: vec![3, 4],
                work: vec![10, 20],
            }),
            Response::Metrics("{}".into()),
            Response::ShuttingDown,
            Response::Busy,
            Response::QuotaExceeded,
            Response::BadRequest("nope".into()),
            Response::ServerError("boom".into()),
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_responses_error_not_panic() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            for len in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..len]).is_err(),
                    "prefix of {len} bytes of {resp:?} decoded"
                );
            }
        }
    }

    /// Cache fingerprints and the request wire both carry `as_u8`: the
    /// bytes must not move when the enum does.
    #[test]
    fn kernel_wire_bytes_are_pinned() {
        let pinned = [
            (Kernel::Mm, 0u8),
            (Kernel::Lu, 1),
            (Kernel::Cholesky, 2),
            (Kernel::Qr, 3),
        ];
        assert_eq!(pinned.map(|(k, _)| k), Kernel::ALL);
        for (kernel, byte) in pinned {
            assert_eq!(kernel.as_u8(), byte);
            assert_eq!(Kernel::from_u8(byte), Some(kernel));
        }
        assert_eq!(Kernel::from_u8(4), None);
    }

    #[test]
    fn truncated_requests_error_not_panic() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            for len in 0..bytes.len() {
                // The one legal truncation: a Metrics frame minus its
                // format byte is a valid v1 (JSON-format) request.
                if matches!(req.body, RequestBody::Metrics(_)) && len == bytes.len() - 1 {
                    assert_eq!(
                        decode_request(&bytes[..len]).unwrap().body,
                        RequestBody::Metrics(MetricsFormat::Json)
                    );
                    continue;
                }
                assert!(
                    decode_request(&bytes[..len]).is_err(),
                    "prefix of {len} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn metrics_format_bounds_and_back_compat() {
        // Unknown format byte errors.
        let mut bytes = encode_request(&Request {
            tenant: String::new(),
            body: RequestBody::Metrics(MetricsFormat::Json),
        });
        *bytes.last_mut().unwrap() = 9;
        assert!(decode_request(&bytes).is_err());
        // A v1 frame (no format byte at all) decodes as JSON.
        bytes.pop();
        assert_eq!(
            decode_request(&bytes).unwrap().body,
            RequestBody::Metrics(MetricsFormat::Json)
        );
    }

    #[test]
    fn trace_headers_round_trip_and_reject_garbage() {
        let buf = encode_trace_header(0xdead_beef_cafe_f00d_0123_4567_89ab_cdef, 42);
        assert!(is_trace_header(&buf));
        assert_eq!(
            decode_trace_header(&buf).unwrap(),
            (0xdead_beef_cafe_f00d_0123_4567_89ab_cdef, 42)
        );
        // Request frames are not headers.
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert!(!is_trace_header(&bytes));
            assert!(decode_trace_header(&bytes).is_err());
        }
        // Zero trace id, truncation, trailing bytes: all typed errors.
        assert!(decode_trace_header(&encode_trace_header(0, 1)).is_err());
        for len in 0..buf.len() {
            assert!(decode_trace_header(&buf[..len]).is_err());
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_trace_header(&long).is_err());
    }

    #[test]
    fn corrupt_bytes_error_not_panic() {
        let bytes = encode_request(&sample_requests()[1]);
        for i in 0..bytes.len() {
            for evil in [0x00, 0x7F, 0xFF] {
                let mut b = bytes.clone();
                b[i] = evil;
                let _ = decode_request(&b); // must not panic
                let _ = decode_response(&b);
            }
        }
    }

    #[test]
    fn bounds_are_enforced() {
        // Oversize tenant.
        let mut req = sample_requests()[0].clone();
        req.tenant = "t".repeat(MAX_TENANT + 1);
        assert!(decode_request(&encode_request(&req)).is_err());
        // Mismatched times length.
        let bad = Request {
            tenant: String::new(),
            body: RequestBody::Solve(SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0; 3],
            }),
        };
        assert!(decode_request(&encode_request(&bad)).is_err());
        // nb out of bounds.
        let bad = Request {
            tenant: String::new(),
            body: RequestBody::Plan(PlanSpec {
                solve: SolveSpec {
                    p: 1,
                    q: 1,
                    times: vec![1.0],
                },
                kernel: Kernel::Mm,
                nb: MAX_NB + 1,
            }),
        };
        assert!(decode_request(&encode_request(&bad)).is_err());
    }
}
