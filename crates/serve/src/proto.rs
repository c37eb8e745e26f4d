//! Versioned request/response protocol for `hetgrid serve`.
//!
//! Every payload starts with the two magic bytes `hg` and a version
//! byte, then a kind byte. Fixed-width integers are little-endian;
//! every count and the block count `nb` are [`hetgrid_plan::wire`]
//! varints (one byte below 128); cycle-times travel as raw IEEE-754
//! `f64` bit patterns, so what the client sent is bit-for-bit what the
//! solver (and the cache fingerprint) sees.
//!
//! Request kinds:
//!
//! | kind | body |
//! |------|------|
//! | 1 `Solve`    | `u16 p, u16 q, varint n (= p*q), n x f64` |
//! | 2 `Plan`     | `u8 kernel, varint nb`, then the `Solve` body |
//! | 3 `Simulate` | same as `Plan` |
//! | 4 `Metrics`  | `u8 format` (absent ⇒ `0` = JSON) |
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
//! frame — and only then, so a client that sent none never sees one.
//!
//! Every field is written and read with [`hetgrid_plan::wire`]'s
//! codec, the one the encoded plans use: decoding is total (malformed
//! bytes produce a typed [`DecodeError`], never a panic) and every
//! length field is bounded by the bytes left before anything is
//! allocated. A frame of another version (v1 wrote every count as a
//! `u32`) is an [`UnsupportedVersion`] error.

use crate::wire::MAX_FRAME;
use hetgrid_plan::wire::DecodeErrorKind::{InvalidField, UnsupportedVersion};
use hetgrid_plan::wire::{DecodeError, Field, Reader};

/// Protocol magic, first two payload bytes.
pub const MAGIC: [u8; 2] = *b"hg";
/// Protocol version accepted by this build.
pub const PROTO_VERSION: u8 = 2;
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
    /// `serve.*` counters/gauges as a JSON document (an absent format
    /// byte decodes to this).
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
    /// Kind byte on the wire; the cache key starts with it too.
    pub(crate) fn kind_byte(&self) -> u8 {
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
    /// Server metrics in the requested [`MetricsFormat`]: a JSON
    /// document, or exposition text.
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

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.push(PROTO_VERSION);
    out.push(kind);
}

/// Reads the magic and version bytes, then the kind byte.
fn header(r: &mut Reader<'_>, kind_what: &'static str) -> Result<u8, DecodeError> {
    if r.take(2, "magic bytes")? != MAGIC {
        return Err(DecodeError {
            offset: 0,
            ..r.err("bad magic bytes", InvalidField)
        });
    }
    let version = r.byte("version byte")?;
    if version != PROTO_VERSION {
        return Err(DecodeError {
            offset: 2,
            ..r.err("unsupported protocol version", UnsupportedVersion(version))
        });
    }
    r.byte(kind_what)
}

/// `u16 p, u16 q`, then the cycle-times; decoding checks the shape.
impl Field for SolveSpec {
    const MIN_BYTES: usize = 5;
    fn put(&self, out: &mut Vec<u8>) {
        (self.p as u16).put(out);
        (self.q as u16).put(out);
        self.times.put(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
        let p = usize::from(r.get::<u16>("grid rows")?);
        let q = usize::from(r.get::<u16>("grid cols")?);
        if p == 0 || q == 0 || p > MAX_GRID_SIDE || q > MAX_GRID_SIDE {
            return Err(r.err("grid shape out of bounds", InvalidField));
        }
        let times: Vec<f64> = r.get("cycle-times")?;
        if times.len() != p * q {
            return Err(r.err("cycle-time count does not match grid", InvalidField));
        }
        Ok(SolveSpec { p, q, times })
    }
}

/// `u8 kernel, varint nb`, then the solve spec; decoding checks both.
impl Field for PlanSpec {
    const MIN_BYTES: usize = 2 + SolveSpec::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.kernel.as_u8());
        self.nb.put(out);
        self.solve.put(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
        let kernel = Kernel::from_u8(r.byte("kernel byte")?)
            .ok_or_else(|| r.err("unknown kernel", InvalidField))?;
        let nb: usize = r.get("block count")?;
        if nb == 0 || nb > MAX_NB {
            return Err(r.err("block count out of bounds", InvalidField));
        }
        let solve = r.get("solve spec")?;
        Ok(PlanSpec { solve, kernel, nb })
    }
}

impl Field for SolveResult {
    const MIN_BYTES: usize = 15;
    fn put(&self, out: &mut Vec<u8>) {
        (self.p as u16).put(out);
        (self.q as u16).put(out);
        self.times.put(out);
        self.rows.put(out);
        self.cols.put(out);
        self.obj2.put(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
        Ok(SolveResult {
            p: usize::from(r.get::<u16>("result grid rows")?),
            q: usize::from(r.get::<u16>("result grid cols")?),
            times: r.get("result times")?,
            rows: r.get("row allocation")?,
            cols: r.get("column allocation")?,
            obj2: r.get("objective")?,
        })
    }
}

impl Field for SimulateResult {
    const MIN_BYTES: usize = 6;
    fn put(&self, out: &mut Vec<u8>) {
        (self.p as u16).put(out);
        (self.q as u16).put(out);
        self.messages.put(out);
        self.work.put(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
        Ok(SimulateResult {
            p: usize::from(r.get::<u16>("sim grid rows")?),
            q: usize::from(r.get::<u16>("sim grid cols")?),
            messages: r.get("message counts")?,
            work: r.get("work counts")?,
        })
    }
}

/// Serializes a request to its canonical payload bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + req.tenant.len());
    put_header(&mut out, req.body.kind_byte());
    (req.tenant.len() as u16).put(&mut out);
    out.extend_from_slice(req.tenant.as_bytes());
    match &req.body {
        RequestBody::Solve(s) => s.put(&mut out),
        RequestBody::Plan(p) | RequestBody::Simulate(p) => p.put(&mut out),
        RequestBody::Metrics(fmt) => out.push(fmt.as_u8()),
        RequestBody::Shutdown => {}
    }
    out
}

/// Decodes a request payload. Total over arbitrary bytes.
pub fn decode_request(buf: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(buf);
    if buf.len() > MAX_FRAME {
        return Err(r.err("payload exceeds frame cap", InvalidField));
    }
    let kind = header(&mut r, "request kind")?;
    let tenant_len = usize::from(r.get::<u16>("tenant length")?);
    if tenant_len > MAX_TENANT {
        return Err(r.err("tenant id too long", InvalidField));
    }
    let tenant =
        String::from_utf8(r.take(tenant_len, "tenant id")?.to_vec()).map_err(|_| DecodeError {
            offset: 4,
            ..r.err("tenant id is not utf-8", InvalidField)
        })?;
    let body = match kind {
        1 => RequestBody::Solve(r.get("solve spec")?),
        2 => RequestBody::Plan(r.get("plan spec")?),
        3 => RequestBody::Simulate(r.get("plan spec")?),
        // No format byte: an empty body means JSON.
        4 if r.is_empty() => RequestBody::Metrics(MetricsFormat::Json),
        4 => RequestBody::Metrics(
            MetricsFormat::from_u8(r.byte("metrics format")?)
                .ok_or_else(|| r.err("unknown metrics format", InvalidField))?,
        ),
        5 => RequestBody::Shutdown,
        _ => return Err(r.err("unknown request kind", InvalidField)),
    };
    r.done("trailing bytes")?;
    Ok(Request { tenant, body })
}

/// Serializes a trace-context header frame (sent before a request, or
/// echoed before the response it contextualizes).
pub fn encode_trace_header(trace_id: u128, span_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    put_header(&mut out, TRACE_HEADER_KIND);
    (trace_id as u64, (trace_id >> 64) as u64).put(&mut out);
    span_id.put(&mut out);
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
pub fn decode_trace_header(buf: &[u8]) -> Result<(u128, u64), DecodeError> {
    let mut r = Reader::new(buf);
    if header(&mut r, "trace header kind")? != TRACE_HEADER_KIND {
        return Err(r.err("not a trace header", InvalidField));
    }
    let (lo, hi): (u64, u64) = r.get("trace id")?;
    let span_id = r.get("span id")?;
    r.done("trailing bytes")?;
    let trace_id = (u128::from(hi) << 64) | u128::from(lo);
    if trace_id == 0 {
        return Err(DecodeError {
            offset: 4,
            ..r.err("zero trace id", InvalidField)
        });
    }
    Ok((trace_id, span_id))
}

/// Serializes a response to its canonical payload bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_header(&mut out, resp.kind_byte());
    match resp {
        Response::Solve(r) => r.put(&mut out),
        Response::Plan(r) => {
            r.solve.put(&mut out);
            r.plan_bytes.put(&mut out);
        }
        Response::Simulate(r) => r.put(&mut out),
        Response::Metrics(text) | Response::BadRequest(text) | Response::ServerError(text) => {
            text.put(&mut out)
        }
        Response::ShuttingDown | Response::Busy | Response::QuotaExceeded => {}
    }
    out
}

/// An error message of at most 4096 bytes.
fn message(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let msg: String = r.get("error message")?;
    if msg.len() > 4096 {
        return Err(r.err("error message", InvalidField));
    }
    Ok(msg)
}

/// Decodes a response payload. Total over arbitrary bytes.
pub fn decode_response(buf: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(buf);
    let resp = match header(&mut r, "response kind")? {
        1 => Response::Solve(r.get("solve result")?),
        2 => Response::Plan(PlanResult {
            solve: r.get("solve result")?,
            plan_bytes: r.get("plan bytes")?,
        }),
        3 => Response::Simulate(r.get("sim result")?),
        4 => Response::Metrics(r.get("metrics text")?),
        5 => Response::ShuttingDown,
        16 => Response::Busy,
        17 => Response::QuotaExceeded,
        18 => Response::BadRequest(message(&mut r)?),
        19 => Response::ServerError(message(&mut r)?),
        _ => return Err(r.err("unknown response kind", InvalidField)),
    };
    r.done("trailing bytes")?;
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

    /// FNV-1a 128 over each of `frames`, length-prefixed, in order.
    fn digest(frames: impl IntoIterator<Item = Vec<u8>>) -> String {
        let mut all = Vec::new();
        for f in frames {
            f.put(&mut all);
        }
        crate::fingerprint::fingerprint(&all).to_string()
    }

    /// Every sample request, response and cache key as one digest per
    /// set: if one moves, bump PROTO_VERSION (or the cache key rules).
    #[test]
    fn request_response_and_key_bytes_are_pinned() {
        let requests = sample_requests();
        assert_eq!(
            digest(requests.iter().map(encode_request)),
            "13c95fdc17072680e3fa87d2f48e8a32"
        );
        assert_eq!(
            digest(sample_responses().iter().map(encode_response)),
            "6d4dc1f9d87e283df042f7578d079b14"
        );
        let keys = requests
            .iter()
            .filter_map(|r| crate::fingerprint::cache_key(&r.body));
        assert_eq!(digest(keys), "d21e9373c5f3c72e123ca85e34b15c97");
    }

    /// The error texts a server answers malformed input with, over every
    /// truncation and three single-byte corruptions of each sample
    /// request and of a trace header, as one digest.
    #[test]
    fn bad_request_texts_are_pinned() {
        let mut frames: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        frames.push(encode_trace_header(7, 9));
        let mut texts = Vec::new();
        for bytes in &frames {
            let mut inputs: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
            for i in 0..bytes.len() {
                for evil in [0x00, 0x7F, 0xFF] {
                    let mut b = bytes.clone();
                    b[i] = evil;
                    inputs.push(b);
                }
            }
            for b in inputs {
                for err in [decode_request(&b).err(), decode_trace_header(&b).err()]
                    .into_iter()
                    .flatten()
                {
                    texts.push(err.to_string().into_bytes());
                }
            }
        }
        assert_eq!(texts.len(), 1235);
        assert_eq!(digest(texts), "810783eb2e6c5991cbb6a471c48d940d");
    }

    #[test]
    fn truncated_requests_error_not_panic() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            for len in 0..bytes.len() {
                // The one legal truncation: a Metrics frame minus its
                // format byte is a valid (JSON-format) request.
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
        // A frame with no format byte at all decodes as JSON.
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
