//! A minimal blocking client for the serve wire protocol, shared by
//! `hetgrid submit`, the benches, and the integration tests.
//!
//! Every request travels under a trace context: if the calling thread
//! has one installed ([`hetgrid_obs::ctx`]) its trace id is reused
//! (the request joins the caller's trace); otherwise a fresh id is
//! minted per request. The context rides ahead of the request as a
//! header frame, and the server echoes it back ahead of the response —
//! [`Client::last_trace_id`] exposes the echo, so even a `Busy` or
//! error response is attributable to a specific trace. The header and
//! the request go out as one vectored write, and frames are read
//! through a 64 KiB buffer, so a round trip is one write each way.
//! After its write the client polls for [`crate::wire::SPIN`] before
//! its read blocks ([`crate::wire::spin_until_readable`]), so a quick
//! answer finds it awake.

use crate::proto::{
    decode_response, decode_trace_header, encode_request, encode_trace_header, is_trace_header,
    Request, Response,
};
use crate::wire::{
    read_frame, spin_until_readable, write_frame, write_frames, WireError, READ_BUFFER,
};
use hetgrid_plan::wire::DecodeError;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Could not connect.
    Connect(std::io::ErrorKind),
    /// Framing failed mid-conversation.
    Wire(WireError),
    /// The server's response did not decode.
    Proto(DecodeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(kind) => write!(f, "connect failed: {kind:?}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client; reusable for many requests over one stream.
pub struct Client {
    /// Read through the buffer, written through `get_mut()`.
    stream: BufReader<TcpStream>,
    last_trace_id: Option<u128>,
}

impl Client {
    /// Connects to `addr` with a 10-second response timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Connect(e.kind()))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
            last_trace_id: None,
        })
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let ctx = match hetgrid_obs::ctx::current() {
            Some(c) => c,
            None => hetgrid_obs::TraceCtx {
                trace_id: hetgrid_obs::ctx::mint_trace_id(),
                span_id: 0,
            },
        };
        self.last_trace_id = None;
        let header = encode_trace_header(ctx.trace_id, ctx.span_id);
        write_frames(self.stream.get_mut(), &[&header, &encode_request(req)])
            .map_err(ClientError::Wire)?;
        spin_until_readable(&self.stream);
        let mut frame = read_frame(&mut self.stream).map_err(ClientError::Wire)?;
        if is_trace_header(&frame) {
            let (trace_id, _) = decode_trace_header(&frame).map_err(ClientError::Proto)?;
            self.last_trace_id = Some(trace_id);
            frame = read_frame(&mut self.stream).map_err(ClientError::Wire)?;
        }
        decode_response(&frame).map_err(ClientError::Proto)
    }

    /// The trace id the server echoed for the most recent
    /// [`Client::request`] (`None` before any request, or if the
    /// server sent no echo).
    pub fn last_trace_id(&self) -> Option<u128> {
        self.last_trace_id
    }

    /// Sends pre-encoded payload bytes (test hook for malformed
    /// traffic) and reads back one frame. No trace header is sent —
    /// the conversation is exactly the bytes given.
    pub fn request_raw(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_frame(self.stream.get_mut(), payload).map_err(ClientError::Wire)?;
        read_frame(&mut self.stream).map_err(ClientError::Wire)
    }
}

/// One-shot helper: connect, send, receive, disconnect.
pub fn submit(addr: impl ToSocketAddrs, req: &Request) -> Result<Response, ClientError> {
    Client::connect(addr)?.request(req)
}
