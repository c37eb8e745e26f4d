//! Fuzzes the one byte codec through every decoder built on it:
//! `hetgrid_plan::wire::decode` and serve's `decode_request`,
//! `decode_response` and `decode_trace_header` all read with
//! `hetgrid_plan::wire::Reader`.
//!
//! Inputs are single-byte mutations of valid encodings, random byte
//! strings, and random bytes behind a valid header (so the noise reaches
//! the bodies, not just the magic check). The properties:
//!
//! * no decoder panics, whatever the bytes;
//! * whatever a decoder accepts re-encodes to bytes that decode and
//!   re-encode to themselves (bytes, not values, are compared: a NaN
//!   cycle-time is a legal payload but not equal to itself);
//! * a plan the decoder accepts re-encodes to exactly its input: the
//!   codec has one encoding per plan (varints in shortest form only);
//! * the decoder that accepts a valid encoding refuses each of its
//!   proper prefixes.

use hetgrid_core::Topology;
use hetgrid_dist::BlockCyclic;
use hetgrid_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use hetgrid_plan::{wire, Kernel};
use hetgrid_serve::proto::{
    decode_request, decode_response, decode_trace_header, encode_request, encode_response,
    encode_trace_header, PlanResult, PlanSpec, Request, RequestBody, Response, SolveSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small registry snapshot with a hostile name, a NaN gauge and a
/// histogram.
fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.counters
        .insert("serve.tenant.\"a\nb\".admitted".into(), 2);
    snap.gauges.insert("serve.queue.depth".into(), f64::NAN);
    snap.histograms.insert(
        "serve.latency.plan".into(),
        HistogramSnapshot {
            bounds: vec![1e-3],
            buckets: vec![1, 1],
            count: 2,
            sum: 0.5,
        },
    );
    snap
}

/// Valid encodings of every request kind, every response kind, a trace
/// header and a plan of every kernel.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dist = BlockCyclic::new(2, 2);
        let star = Topology::Star {
            workers: 2,
            worker_mem: 7,
            master_bw: 1.0,
        };
        let mut plans: Vec<Vec<u8>> = Kernel::ALL
            .iter()
            .map(|k| wire::encode(&k.plan(&dist, 3)))
            .collect();
        plans.push(wire::encode(&hetgrid_plan::star_mm_plan(&star, (2, 2, 2))));

        let solve = SolveSpec {
            p: 1,
            q: 2,
            times: vec![1.0, 3.0],
        };
        let spec = PlanSpec {
            solve: solve.clone(),
            kernel: Kernel::Cholesky,
            nb: 3,
        };
        let requests = [
            RequestBody::Solve(solve),
            RequestBody::Plan(spec.clone()),
            RequestBody::Simulate(spec),
            RequestBody::Metrics,
            RequestBody::Shutdown,
        ]
        .map(|body| {
            encode_request(&Request {
                tenant: "t".into(),
                body,
            })
        });

        let result = hetgrid_serve::proto::SolveResult {
            p: 1,
            q: 2,
            times: vec![1.0, 3.0],
            rows: vec![1.0],
            cols: vec![0.75, 0.25],
            obj2: 0.75,
        };
        let responses = [
            Response::Solve(result.clone()),
            Response::Plan(PlanResult {
                solve: result,
                plan_bytes: plans[0].clone(),
            }),
            Response::Simulate(hetgrid_serve::proto::SimulateResult {
                p: 1,
                q: 2,
                messages: vec![1, 2],
                work: vec![3, 4],
            }),
            Response::Metrics(snapshot()),
            Response::ShuttingDown,
            Response::Busy,
            Response::QuotaExceeded,
            Response::BadRequest("no".into()),
            Response::ServerError("boom".into()),
        ]
        .map(|r| encode_response(&r));

        let mut all = plans;
        all.extend(requests);
        all.extend(responses);
        all.push(encode_trace_header(5, 6));
        all
    })
}

/// Runs `bytes` through every decoder; on success, checks that the
/// re-encoding is a fixed point of decode-then-encode.
fn check(bytes: &[u8]) {
    if let Ok(plan) = wire::decode(bytes) {
        assert_eq!(wire::encode(&plan), bytes);
    }
    if let Ok(req) = decode_request(bytes) {
        let again = encode_request(&req);
        assert_eq!(encode_request(&decode_request(&again).unwrap()), again);
    }
    if let Ok(resp) = decode_response(bytes) {
        let again = encode_response(&resp);
        assert_eq!(encode_response(&decode_response(&again).unwrap()), again);
        if let Response::Plan(r) = resp {
            check(&r.plan_bytes);
        }
    }
    if let Ok((trace_id, span_id)) = decode_trace_header(bytes) {
        let again = encode_trace_header(trace_id, span_id);
        assert_eq!(decode_trace_header(&again), Ok((trace_id, span_id)));
    }
}

#[test]
fn corpus_decodes() {
    let decoders: [fn(&[u8]) -> bool; 4] = [
        |b| wire::decode(b).is_ok(),
        |b| decode_request(b).is_ok(),
        |b| decode_response(b).is_ok(),
        |b| decode_trace_header(b).is_ok(),
    ];
    for bytes in corpus() {
        assert!(decoders.iter().any(|d| d(bytes)), "{bytes:?}");
        check(bytes);
        // The decoder that takes a valid encoding refuses every proper
        // prefix of it: a truncated plan, request, response (a Metrics
        // snapshot's three lists included) or header is a typed error.
        for decodes in decoders.iter().filter(|d| d(bytes)) {
            for len in 0..bytes.len() {
                assert!(!decodes(&bytes[..len]), "prefix {len} of {bytes:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn decoders_are_total_and_reencode_to_a_fixed_point(
        mode in 0u8..3,
        which in 0usize..usize::MAX,
        at in 0usize..usize::MAX,
        byte in 0u8..=255,
        noise in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let base = &corpus()[which % corpus().len()];
        let input = match mode {
            0 => {
                let mut b = base.clone();
                let i = at % b.len();
                b[i] = byte;
                b
            }
            1 => noise,
            _ => [&base[..base.len().min(4)], &noise[..]].concat(),
        };
        check(&input);
    }
}
