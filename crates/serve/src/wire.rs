//! Length-prefixed framing for the serve wire protocol.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! payload bytes. Frames larger than [`MAX_FRAME`] are rejected before
//! any allocation, so a malicious length prefix cannot balloon memory.
//!
//! [`read_frame`] is written for sockets with a read timeout (the
//! server's idle-poll mechanism), read through a `BufReader` so that a
//! burst of small frames costs one `read` call rather than two per
//! frame: a timeout with **zero** bytes of the current frame consumed
//! surfaces as `WireError::Io(TimedOut)` and is safe to retry — the
//! stream is still frame-aligned. A timeout in the *middle* of a frame
//! is retried internally up to [`STALL_LIMIT`] consecutive times and
//! then reported as [`WireError::Truncated`], because retrying
//! externally would lose frame alignment; the caller must drop the
//! connection.
//!
//! [`write_frames`] sends a burst of frames (a trace header and the
//! message it precedes) as one vectored write, each header and payload
//! its own slice, so a round trip is one write each way and no payload
//! is copied. On a socket with a write timeout, writes share
//! the read side's stall budget: [`STALL_LIMIT`] consecutive timeouts
//! without progress give [`WireError::Truncated`], so a peer that stops
//! reading cannot park the writer forever.

use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard upper bound on a frame payload (16 MiB). A 4096-processor
/// cycle-time matrix is ~32 KiB; this leaves generous headroom for
/// encoded plans while bounding what a hostile peer can make us buffer.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of the `BufReader` each end of a connection reads its stream
/// through: a burst of frames arrives in one `read`, while a larger
/// payload bypasses it once what is buffered has been copied out.
pub const READ_BUFFER: usize = 64 * 1024;

/// Consecutive timeouts without progress tolerated in the middle of a
/// frame being read, or anywhere in a burst being written, before the
/// stream is given up as [`WireError::Truncated`] (with the server's
/// 250 ms poll interval and write timeout this is a ~10 s stall
/// budget).
pub const STALL_LIMIT: u32 = 40;

/// A framing-level failure. Protocol-level problems (bad magic, bad
/// field) are a [`hetgrid_plan::wire::DecodeError`]; this type only
/// covers moving bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream ended, or stalled past the stall budget, in the
    /// middle of a frame being read or a burst being written.
    Truncated,
    /// The length prefix, or a payload to be sent, exceeds
    /// [`MAX_FRAME`].
    Oversize(usize),
    /// Any other I/O failure, by kind. `Io(TimedOut)` /
    /// `Io(WouldBlock)` with zero frame bytes consumed is retryable.
    Io(ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated => write!(f, "connection ended mid-frame"),
            WireError::Oversize(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// True when the error is an idle-poll timeout: no frame bytes were
    /// consumed, so calling [`read_frame`] again is safe.
    pub fn is_idle_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(ErrorKind::TimedOut) | WireError::Io(ErrorKind::WouldBlock)
        )
    }
}

fn timeoutish(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::TimedOut | ErrorKind::WouldBlock)
}

/// Reads exactly `buf.len()` bytes. `started` says whether earlier
/// bytes of this frame were already consumed (affects how EOF and
/// timeouts are classified — see module docs).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], mut started: bool) -> Result<(), WireError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if started {
                    WireError::Truncated
                } else {
                    WireError::Closed
                })
            }
            Ok(n) => {
                got += n;
                started = true;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if timeoutish(e.kind()) => {
                if !started {
                    return Err(WireError::Io(e.kind()));
                }
                stalls += 1;
                if stalls >= STALL_LIMIT {
                    return Err(WireError::Truncated);
                }
            }
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(())
}

/// How long [`spin_until_readable`] polls a quiet stream before the
/// read blocks: more than a cache hit's round trip on loopback (about
/// 25 µs) and a client's turn between two requests, far less than the
/// server's 250 ms idle poll.
pub const SPIN: Duration = Duration::from_micros(100);

/// Waits, without sleeping, up to [`SPIN`] for `stream` to have a byte
/// to read (or to reach end of stream or an error), then leaves it
/// blocking again.
///
/// Both ends call it before [`read_frame`], so a quick exchange finds
/// each of them awake: a thread asleep in `read` is woken by its peer's
/// write, and on a host whose idle cores sleep that wake-up costs tens
/// of microseconds, more in one run than the next. Each poll yields
/// the core, so a peer that shares it still runs, and a connection that
/// goes quiet costs one [`SPIN`] before its thread sleeps.
pub fn spin_until_readable(stream: &BufReader<TcpStream>) {
    if !stream.buffer().is_empty() {
        return;
    }
    let sock = stream.get_ref();
    if sock.set_nonblocking(true).is_err() {
        return;
    }
    let start = Instant::now();
    let mut probe = [0u8; 1];
    while matches!(sock.peek(&mut probe), Err(e) if e.kind() == ErrorKind::WouldBlock)
        && start.elapsed() < SPIN
    {
        std::thread::yield_now();
    }
    let _ = sock.set_nonblocking(false);
}

/// Reads one frame and returns its payload.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    read_full(r, &mut header, false)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, true)?;
    Ok(payload)
}

/// Writes one frame. A payload over [`MAX_FRAME`], which no peer
/// would read, is refused as [`WireError::Oversize`] before anything
/// is written.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    write_frames(w, &[payload])
}

/// Writes `payloads` as consecutive frames, the same bytes as one
/// [`write_frame`] per payload, through `write_vectored` with each
/// header and payload its own slice. If any payload is over
/// [`MAX_FRAME`] the whole burst is refused as [`WireError::Oversize`]
/// before anything is written.
pub fn write_frames<W: Write>(w: &mut W, payloads: &[&[u8]]) -> Result<(), WireError> {
    if let Some(p) = payloads.iter().find(|p| p.len() > MAX_FRAME) {
        return Err(WireError::Oversize(p.len()));
    }
    let headers: Vec<[u8; 4]> = payloads
        .iter()
        .map(|p| (p.len() as u32).to_be_bytes())
        .collect();
    let mut slices: Vec<IoSlice<'_>> = headers
        .iter()
        .zip(payloads)
        .flat_map(|(h, p)| [IoSlice::new(h), IoSlice::new(p)])
        .collect();
    let mut bufs = &mut slices[..];
    let mut stalls = 0u32;
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(WireError::Io(ErrorKind::WriteZero)),
            Ok(n) => {
                IoSlice::advance_slices(&mut bufs, n);
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if timeoutish(e.kind()) => {
                stalls += 1;
                if stalls >= STALL_LIMIT {
                    return Err(WireError::Truncated);
                }
            }
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    w.flush().map_err(|e| WireError::Io(e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn oversize_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::Oversize(u32::MAX as usize)
        );
    }

    #[test]
    fn oversize_payload_is_refused_without_writing() {
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, &vec![0; MAX_FRAME + 1]),
            Err(WireError::Oversize(MAX_FRAME + 1))
        );
        assert!(buf.is_empty());
        write_frame(&mut buf, &vec![0; MAX_FRAME]).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME);
    }

    /// Takes at most 3 bytes per call, across slice boundaries, and
    /// fails every other call with `fail` (before taking anything).
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
        fail: ErrorKind,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(self.fail.into());
            }
            let before = self.out.len();
            for b in bufs {
                let room = 3 - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_burst_is_the_bytes_of_its_frames_through_short_and_interrupted_writes() {
        let payloads: [&[u8]; 4] = [b"trace header", b"", b"x", &[7; 100]];
        let mut expected = Vec::new();
        for p in payloads {
            write_frame(&mut expected, p).unwrap();
        }
        for fail in [ErrorKind::Interrupted, ErrorKind::WouldBlock] {
            let mut w = Trickle {
                out: Vec::new(),
                calls: 0,
                fail,
            };
            write_frames(&mut w, &payloads).unwrap();
            assert_eq!(w.out, expected, "{fail:?}");
        }
    }

    #[test]
    fn a_writer_with_no_progress_is_given_up_at_the_stall_limit() {
        struct Stuck(u32);
        impl Write for Stuck {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Err(ErrorKind::TimedOut.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Stuck(0);
        assert_eq!(write_frame(&mut w, b"abc"), Err(WireError::Truncated));
        assert_eq!(w.0, STALL_LIMIT);
    }

    #[test]
    fn an_oversize_payload_anywhere_refuses_the_whole_burst() {
        let big = vec![0; MAX_FRAME + 1];
        for at in 0..3 {
            let mut payloads: Vec<&[u8]> = vec![b"echo", b"response", b"more"];
            payloads[at] = &big;
            let mut buf = Vec::new();
            assert_eq!(
                write_frames(&mut buf, &payloads),
                Err(WireError::Oversize(MAX_FRAME + 1))
            );
            assert!(buf.is_empty(), "oversize at {at} wrote {} bytes", buf.len());
        }
    }

    #[test]
    fn truncation_is_distinguished_from_clean_close() {
        // Clean close: EOF exactly between frames.
        assert_eq!(
            read_frame(&mut Cursor::new(Vec::new())).unwrap_err(),
            WireError::Closed
        );
        // Truncated header.
        assert_eq!(
            read_frame(&mut Cursor::new(vec![0, 0])).unwrap_err(),
            WireError::Truncated
        );
        // Truncated payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::Truncated
        );
    }

    /// On a quiet stream the poll gives up after `SPIN` and leaves the
    /// socket blocking, so the read after it still waits for its
    /// timeout; a frame already sent is read at once.
    #[test]
    fn spin_gives_up_and_leaves_the_stream_blocking() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        let timeout = Duration::from_millis(50);
        sock.set_read_timeout(Some(timeout)).unwrap();
        let mut stream = BufReader::new(sock);

        let t0 = Instant::now();
        spin_until_readable(&stream);
        assert!(t0.elapsed() >= SPIN);
        let t1 = Instant::now();
        assert!(read_frame(&mut stream).unwrap_err().is_idle_timeout());
        assert!(t1.elapsed() >= timeout, "the read did not block");

        write_frame(&mut peer, b"ping").unwrap();
        spin_until_readable(&stream);
        assert_eq!(read_frame(&mut stream).unwrap(), b"ping");
    }
}
