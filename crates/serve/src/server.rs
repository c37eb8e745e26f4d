//! The TCP front end: `std::net` only, thread-per-connection, no
//! async runtime. A server runs one accept thread and one thread per
//! connection, nothing else: a `Metrics` request snapshots the registry
//! when it arrives, so no thread samples it in the background.
//!
//! Connection sockets carry a read timeout so idle connection threads
//! wake periodically, notice a pending shutdown, and exit, and a write
//! timeout so a peer that stops reading is dropped after the stall
//! budget ([`crate::wire::STALL_LIMIT`] timeouts without progress)
//! instead of holding shutdown up forever; the accept
//! thread is woken from its blocking `accept` by a loopback
//! self-connection. Shutdown is initiated either locally
//! ([`ServerHandle::shutdown`]) or remotely (a `Shutdown` request),
//! and joins every thread it started — "clean shutdown" means no
//! thread is left behind and every accepted connection saw its stream
//! closed, never a panic.

use crate::proto;
use crate::service::{Service, ServiceConfig};
use crate::wire::{read_frame, spin_until_readable, write_frame, write_frames, READ_BUFFER};
use hetgrid_obs::{diag, vdiag};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Idle-poll interval: how long a blocked read waits before checking
/// the shutdown flag, and a blocked write before counting a stall.
pub const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// A running server: the bound address, the stop flag, and the
/// accept thread (which joins the connection threads it started).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (port resolved when
    /// `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains connection threads, and joins
    /// everything the server started (what dropping the handle does).
    pub fn shutdown(self) {}

    /// Waits for the server to stop on its own (a remote `Shutdown`
    /// request) and joins everything it started.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
/// accepting in a background thread.
pub fn spawn(addr: &str, cfg: ServiceConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(Service::new(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, addr, service, stop))?
    };
    vdiag!("serve: listening on {}", addr);
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
) {
    let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) || service.shutdown_requested() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        hetgrid_obs::metrics()
            .counter("serve.connections.opened")
            .inc();
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                connection(stream, addr, &service, &stop);
                hetgrid_obs::metrics()
                    .counter("serve.connections.closed")
                    .inc();
                hetgrid_obs::trace::flush_thread();
            });
        let handle = match spawned {
            Ok(handle) => handle,
            // The OS is out of threads: the closure, and the stream in
            // it, is already dropped, so this client sees a closed
            // connection; the ones being served are not disturbed.
            // Counted closed as well as refused, so opened − closed
            // stays the number of live connections.
            Err(e) => {
                for name in ["serve.connections.refused", "serve.connections.closed"] {
                    hetgrid_obs::metrics().counter(name).inc();
                }
                diag!("serve: refused a connection, no thread for it: {}", e);
                continue;
            }
        };
        let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
        conns.push(handle);
        // Opportunistically reap finished threads so a long-lived
        // server does not accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns.into_inner().unwrap_or_else(|p| p.into_inner()) {
        let _ = h.join();
    }
    vdiag!("serve: stopped accepting on {}", addr);
}

/// One connection: a loop of read-frame / handle / write-frame.
/// Returns (closing the stream) on peer close, any framing error, or
/// shutdown. Malformed *frames* (oversize, truncated) drop the
/// connection — the stream cannot be trusted to be frame-aligned —
/// while malformed *payloads* in well-formed frames get a typed
/// `BadRequest` response and the connection lives on. Each read starts
/// with [`spin_until_readable`], so a client's next request finds the
/// thread awake.
///
/// A trace-context header frame ([`proto::TRACE_HEADER_KIND`]) gets no
/// response of its own: it sets the context for the *next* request on
/// this connection, whose response is then preceded by an echo of the
/// header so the client can attribute even a `Busy` or error response
/// to its trace. Requests without a header still run under a
/// freshly-minted server-side trace id — every admitted request is
/// traceable — but nothing extra is written to the stream, so v1
/// clients see exactly the v1 conversation. The echo and the response
/// go out as one vectored write.
fn connection(stream: TcpStream, addr: SocketAddr, service: &Service, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    // Read through the buffer, written through `get_mut()`.
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let mut pending: Option<(u128, u64)> = None;
    loop {
        if stop.load(Ordering::SeqCst) || service.shutdown_requested() {
            return;
        }
        spin_until_readable(&stream);
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(e) if e.is_idle_timeout() => continue,
            Err(_) => return,
        };
        if proto::is_trace_header(&frame) {
            match proto::decode_trace_header(&frame) {
                Ok(hdr) => {
                    pending = Some(hdr);
                    continue;
                }
                Err(e) => {
                    // Well-formed frame, malformed payload: typed
                    // response, connection lives on, context cleared.
                    pending = None;
                    hetgrid_obs::metrics()
                        .counter("serve.requests.malformed")
                        .inc();
                    let resp = crate::proto::encode_response(&crate::proto::Response::BadRequest(
                        e.to_string(),
                    ));
                    if write_frame(stream.get_mut(), &resp).is_err() {
                        return;
                    }
                    continue;
                }
            }
        }
        let hdr = pending.take();
        let ctx = match hdr {
            Some((trace_id, span_id)) => hetgrid_obs::TraceCtx { trace_id, span_id },
            None => hetgrid_obs::TraceCtx {
                trace_id: hetgrid_obs::ctx::mint_trace_id(),
                span_id: 0,
            },
        };
        let resp = {
            let _g = hetgrid_obs::ctx::install(ctx);
            service.handle(&frame)
        };
        let echo = hdr.map(|_| proto::encode_trace_header(ctx.trace_id, ctx.span_id));
        let sent = match &echo {
            Some(echo) => write_frames(stream.get_mut(), &[echo, &resp]),
            None => write_frame(stream.get_mut(), &resp),
        };
        if sent.is_err() {
            return;
        }
        if service.shutdown_requested() {
            // This request asked us to stop: wake the acceptor so the
            // drain starts immediately instead of at its next accept.
            let _ = TcpStream::connect(addr);
            return;
        }
    }
}
