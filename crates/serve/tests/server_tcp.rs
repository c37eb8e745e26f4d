//! End-to-end robustness tests for the TCP front end: many concurrent
//! clients mixing well-formed requests with hostile traffic (malformed
//! payloads, truncated frames, oversize length prefixes), plus the
//! deterministic control paths — Busy shedding, quota denial, and both
//! shutdown routes — and the framing of the buffered reads and vectored
//! writes: pipelined frames, frames split by pauses, and a client that
//! stops reading. The server must never panic: a panic in any
//! server-side thread would abort `join` on the handle and fail the
//! test.
//!
//! These tests avoid asserting on deltas of the process-global metrics
//! registry (several servers run concurrently in this binary); the
//! accounting invariants are covered by the service unit tests, the
//! coalesce test, and the harness oracle.

use hetgrid_serve::proto::{
    decode_response, decode_trace_header, encode_request, encode_response, encode_trace_header,
    Kernel, PlanSpec, Request, RequestBody, Response, SolveSpec, MAX_GRID_SIDE, MAX_NB,
};
use hetgrid_serve::server::POLL_INTERVAL;
use hetgrid_serve::wire::{read_frame, write_frame, STALL_LIMIT};
use hetgrid_serve::{spawn, Client, QuotaConfig, ServiceConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn plan_request(tenant: &str, seed: usize) -> Request {
    Request {
        tenant: tenant.into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0 + seed as f64, 2.0, 3.0, 5.0],
            },
            kernel: Kernel::Lu,
            nb: 8,
        }),
    }
}

fn meta_request(body: RequestBody) -> Request {
    Request {
        tenant: "test".into(),
        body,
    }
}

#[test]
fn concurrent_clients_with_hostile_traffic_never_panic_the_server() {
    const CLIENTS: usize = 12; // >= 8 per the acceptance criteria

    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = handle.addr();

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            joins.push(s.spawn(move || match c % 4 {
                // Well-behaved clients: several requests on one stream.
                0 => {
                    let mut client = Client::connect(addr).expect("connect");
                    for r in 0..6 {
                        let resp = client
                            .request(&plan_request("good", r % 3))
                            .expect("request");
                        assert!(
                            matches!(resp, Response::Plan(_)),
                            "expected Plan, got {resp:?}"
                        );
                    }
                }
                // Malformed payloads inside well-formed frames: the
                // server answers BadRequest and the connection lives.
                1 => {
                    let mut client = Client::connect(addr).expect("connect");
                    for garbage in [
                        &b""[..],                         // empty payload
                        &b"xx"[..],                       // wrong magic
                        &b"hg\x01\x09"[..],               // unknown request kind
                        &b"hg\x63\x01"[..],               // unsupported version
                        &b"hg\x01\x01\xff\xff"[..],       // tenant length overruns
                        &[b'h', b'g', 1, 1, 0, 0, 7][..], // truncated solve body
                    ] {
                        let frame = client.request_raw(garbage).expect("response frame");
                        let resp = hetgrid_serve::proto::decode_response(&frame).expect("decodes");
                        assert!(
                            matches!(resp, Response::BadRequest(_)),
                            "expected BadRequest for {garbage:?}, got {resp:?}"
                        );
                    }
                    // The same connection still serves valid requests.
                    let resp = client
                        .request(&plan_request("recovered", 0))
                        .expect("request");
                    assert!(matches!(resp, Response::Plan(_)));
                }
                // Oversize length prefix: the server must refuse to
                // allocate and drop the connection, nothing worse.
                2 => {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    stream.write_all(&u32::MAX.to_be_bytes()).expect("write");
                    // Connection is dropped: read sees EOF or a reset.
                    let mut buf = [0u8; 16];
                    let _ = std::io::Read::read(&mut stream, &mut buf);
                }
                // Truncated frame: promise 64 bytes, send 7, hang up.
                _ => {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.write_all(&64u32.to_be_bytes()).expect("write");
                    stream.write_all(b"partial").expect("write");
                    drop(stream); // server's read_full sees Closed
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    // The server survived the abuse: it still answers cleanly.
    let resp = hetgrid_serve::submit(addr, &plan_request("after", 1)).expect("submit");
    assert!(matches!(resp, Response::Plan(_)));

    // Local shutdown: joins the accept thread and every connection
    // thread; a panic in any of them propagates here.
    handle.shutdown();
}

#[test]
fn zero_queue_limit_sheds_every_data_request_with_busy() {
    let handle = spawn(
        "127.0.0.1:0",
        ServiceConfig {
            queue_limit: 0,
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    for r in 0..3 {
        let resp = client
            .request(&plan_request("shed-me", r))
            .expect("request");
        assert_eq!(resp, Response::Busy, "queue_limit=0 must shed");
    }
    // Meta endpoints bypass admission and still work while shedding.
    let resp = client
        .request(&meta_request(RequestBody::Metrics))
        .expect("request");
    assert!(matches!(resp, Response::Metrics(_)));
    // Even the Busy responses above were attributable: each carried an
    // echoed trace header.
    assert!(client.last_trace_id().is_some());

    handle.shutdown();
}

/// Well-formed requests whose values are out of range, as `hetgrid
/// submit` can send them: each gets a typed `BadRequest`, and the same
/// connection then still answers a `Metrics` request. The last two
/// pools are valid but so spread out that their work weights would
/// overflow the simulated counts.
#[test]
fn out_of_range_values_are_bad_requests_and_the_connection_lives() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let simulate = |times: &[f64], nb| {
        RequestBody::Simulate(PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: times.to_vec(),
            },
            kernel: Kernel::Lu,
            nb,
        })
    };
    let solve = |p, q, n| {
        RequestBody::Solve(SolveSpec {
            p,
            q,
            times: vec![1.0; n],
        })
    };
    let pool = [1.0, 2.0, 3.0, 5.0];
    let side = MAX_GRID_SIDE + 1;
    let cases = [
        ("nb 0", simulate(&pool, 0)),
        ("nb MAX_NB + 1", simulate(&pool, MAX_NB + 1)),
        ("grid side 0", solve(0, 2, 0)),
        ("grid side MAX_GRID_SIDE + 1", solve(side, 1, side)),
        ("time 0", simulate(&[1.0, 2.0, 3.0, 0.0], 4)),
        ("time -1", simulate(&[1.0, 2.0, 3.0, -1.0], 4)),
        ("time NaN", simulate(&[1.0, 2.0, 3.0, f64::NAN], 4)),
        ("time inf", simulate(&[1.0, 2.0, 3.0, f64::INFINITY], 4)),
        ("3 times for 2x2", solve(2, 2, 3)),
        ("pool 1e-308,1,1,1", simulate(&[1e-308, 1.0, 1.0, 1.0], 4)),
        ("pool 1,1e19,1,1", simulate(&[1.0, 1e19, 1.0, 1.0], 4)),
    ];
    for (what, body) in cases {
        let tenant = "edge".to_string();
        let resp = client
            .request(&Request { tenant, body })
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(matches!(resp, Response::BadRequest(_)), "{what}: {resp:?}");
        let resp = client
            .request(&meta_request(RequestBody::Metrics))
            .unwrap_or_else(|e| panic!("metrics after {what}: {e}"));
        assert!(matches!(resp, Response::Metrics(_)), "after {what}");
    }
    handle.shutdown();
}

#[test]
fn every_admitted_request_carries_a_unique_trace_id() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut seen = std::collections::HashSet::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..4 {
            joins.push(s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut ids = Vec::new();
                for r in 0..8 {
                    // Mix statuses: even some hostile traffic between
                    // real requests must not confuse attribution.
                    if r % 4 == 3 {
                        let frame = client.request_raw(b"xx").expect("response frame");
                        assert!(!hetgrid_serve::proto::is_trace_header(&frame));
                    }
                    let resp = client
                        .request(&plan_request("traced", c * 8 + r))
                        .expect("request");
                    assert!(matches!(resp, Response::Plan(_)));
                    ids.push(client.last_trace_id().expect("echoed trace id"));
                }
                ids
            }));
        }
        for j in joins {
            for id in j.join().expect("client thread") {
                assert_ne!(id, 0);
                assert!(seen.insert(id), "trace id {id:#x} reused across requests");
            }
        }
    });
    handle.shutdown();
}

#[test]
fn exhausted_token_bucket_denies_the_tenant_but_not_others() {
    let handle = spawn(
        "127.0.0.1:0",
        ServiceConfig {
            quota: QuotaConfig {
                rate_per_sec: 1e-9, // effectively never refills
                burst: 1.0,
            },
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    let first = client
        .request(&plan_request("tenant-a", 0))
        .expect("request");
    assert!(matches!(first, Response::Plan(_)), "burst of 1 admits once");
    let second = client
        .request(&plan_request("tenant-a", 1))
        .expect("request");
    assert_eq!(second, Response::QuotaExceeded, "bucket is empty");

    // Buckets are per tenant: a different tenant still gets through.
    let other = client
        .request(&plan_request("tenant-b", 0))
        .expect("request");
    assert!(matches!(other, Response::Plan(_)));

    handle.shutdown();
}

#[test]
fn remote_shutdown_request_drains_the_server() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = handle.addr();

    let resp = hetgrid_serve::submit(addr, &meta_request(RequestBody::Shutdown)).expect("submit");
    assert_eq!(resp, Response::ShuttingDown);

    // The accept loop notices and exits; join returns instead of
    // blocking forever, and no thread panicked.
    handle.join();

    // Data requests after the drain fail to connect or to converse —
    // either way, no response arrives.
    assert!(hetgrid_serve::submit(addr, &plan_request("late", 0)).is_err());
}

#[test]
fn frames_pipelined_in_one_write_are_answered_frame_by_frame() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = handle.addr();
    let requests = [plan_request("burst", 0), plan_request("burst", 1)];

    // What two `Client::request` calls receive (the codec is canonical,
    // so re-encoding a decoded response gives back its bytes).
    let mut client = Client::connect(addr).expect("connect");
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_response(&client.request(r).expect("request")))
        .collect();

    // A trace header and both requests in one `write_all`.
    let (trace_id, span_id) = (0x0123_4567_89ab_cdef_u128, 7);
    let mut burst = Vec::new();
    for payload in [
        encode_trace_header(trace_id, span_id),
        encode_request(&requests[0]),
        encode_request(&requests[1]),
    ] {
        write_frame(&mut burst, &payload).unwrap();
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&burst).expect("write");

    // Echo, response, response: only the first request had a header.
    let echo = read_frame(&mut stream).expect("echo");
    assert_eq!(decode_trace_header(&echo), Ok((trace_id, span_id)));
    for want in &expected {
        assert_eq!(&read_frame(&mut stream).expect("response"), want);
    }
    handle.shutdown();
}

#[test]
fn a_request_split_by_pauses_longer_than_the_poll_interval_is_served() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(&plan_request("slow", 0))).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Mid-header, then mid-payload: each pause is a stall the server's
    // read must sit out without losing its place in the frame.
    let mid = frame.len() / 2;
    for (i, piece) in [&frame[..2], &frame[2..mid], &frame[mid..]]
        .into_iter()
        .enumerate()
    {
        if i > 0 {
            std::thread::sleep(POLL_INTERVAL + Duration::from_millis(150));
        }
        stream.write_all(piece).expect("write");
    }
    let resp = decode_response(&read_frame(&mut stream).expect("response")).expect("decodes");
    assert!(matches!(resp, Response::Plan(_)), "got {resp:?}");
    handle.shutdown();
}

#[test]
fn a_client_that_stops_reading_cannot_hold_up_shutdown() {
    let handle = spawn("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    // Cholesky at nb = 2400 on a 1 x 300 grid sends 5.76 million
    // owners, most of them two varint bytes past column 127: about
    // 15 MB, more than the loopback socket buffers hold.
    let request = Request {
        tenant: "stalled".into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 1,
                q: 300,
                times: vec![1.0; 300],
            },
            kernel: Kernel::Cholesky,
            nb: 2400,
        }),
    };
    let mut burst = Vec::new();
    for _ in 0..16 {
        write_frame(&mut burst, &encode_request(&request)).unwrap();
    }
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&burst).expect("write");
    // Read the first length prefix, so the server is writing, and then
    // nothing more: 16 responses of ~15 MB park it in a write.
    let mut prefix = [0u8; 4];
    std::io::Read::read_exact(&mut stream, &mut prefix).expect("first frame header");
    assert!(
        u32::from_be_bytes(prefix) > 12 << 20,
        "a plan of more than 12 MiB"
    );

    let budget = POLL_INTERVAL * STALL_LIMIT;
    let (done, shut) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(());
    });
    shut.recv_timeout(budget + Duration::from_secs(10))
        .expect("shutdown must return within the write stall budget plus a margin");
    drop(stream);
}
