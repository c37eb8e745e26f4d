//! Pluggable message transport for the distributed kernels.
//!
//! The executor's communication surface is deliberately tiny: each
//! virtual processor owns one mailbox and can push a message into any
//! other processor's mailbox. [`Transport`] abstracts who implements
//! that surface:
//!
//! * [`ChannelTransport`] — the production transport, one
//!   `std::sync::mpsc` channel per processor (what callers of
//!   [`crate::run`] pass outside tests);
//! * `hetgrid-harness`'s virtual transport — a seeded fault-injecting
//!   router (message delay, reordering, starvation detection) used by
//!   the deterministic simulation harness.
//!
//! The kernels are *order-insensitive by design*: every message carries
//! its step and block coordinates, and workers buffer messages that
//! arrive ahead of their step. A transport is therefore free to deliver
//! messages in any order; the only obligations are that every sent
//! message is eventually delivered exactly once and that [`Endpoint::recv`]
//! fails (or the harness aborts the run) rather than blocking forever
//! once delivery is impossible.

use crate::recovery::GridFault;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;

/// The transport is closed: the peer endpoints required to complete the
/// operation were dropped.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl fmt::Debug for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Closed")
    }
}

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transport closed: peer endpoints dropped")
    }
}

impl std::error::Error for Closed {}

/// A distributed kernel run failed: a peer endpoint dropped out (its
/// thread returned or its mailbox became unreachable) before the plan
/// completed, so the remaining workers aborted with typed errors
/// instead of panicking. The run's partial results are discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Processor `(i, j)` observed a dropped peer (send or receive on a
    /// closed mailbox) and aborted the run.
    PeerDropped {
        /// Grid coordinates of the first worker (in linear id order)
        /// that hit the closed transport.
        proc: (usize, usize),
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PeerDropped { proc: (i, j) } => write!(
                f,
                "executor run aborted: processor ({}, {}) observed a dropped peer",
                i + 1,
                j + 1
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One processor's view of the transport: send to any peer by linear
/// processor id, receive from the own mailbox.
///
/// An endpoint is owned by exactly one worker thread; implementations
/// must be `Send` but are never shared (`&self` methods exist so the
/// endpoint can be used through a `Box<dyn Endpoint<T>>` without
/// threading `&mut` through the kernel code).
pub trait Endpoint<T>: Send {
    /// Delivers `msg` into the mailbox of processor `dest`.
    ///
    /// Fails only when delivery has become impossible (every receiver of
    /// the destination mailbox is gone).
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed>;

    /// Blocks for the next message of the own mailbox. Fails when the
    /// mailbox is drained and no live endpoint can refill it.
    fn recv(&self) -> Result<T, Closed>;

    /// Non-blocking receive: `Ok(Some(msg))` if a message was already
    /// waiting, `Ok(None)` if the mailbox is currently empty, `Err`
    /// under the same conditions [`recv`](Endpoint::recv) fails. The
    /// out-of-order step driver polls this to overlap communication
    /// with compute; the default (always empty) degrades such a driver
    /// to blocking receives, which is correct for any transport.
    fn try_recv(&self) -> Result<Option<T>, Closed> {
        Ok(None)
    }

    /// Progress beacon: the step driver calls `mark(step)` every time
    /// this processor retires a step (all of the step's local actions
    /// are done). A transport may use it to observe the retirement
    /// frontier or — like the harness's virtual transport — to inject
    /// grid-membership faults at an exact, replayable boundary:
    /// returning `Err(Closed)` makes the worker abandon the run as if
    /// its processor had died (or, for a voluntary pause, as if it had
    /// agreed to stop at this frontier). The default ignores the beacon
    /// and always succeeds.
    fn mark(&self, step: usize) -> Result<(), Closed> {
        let _ = step;
        Ok(())
    }

    /// Best-effort abort of the whole run this endpoint belongs to:
    /// marks every peer mailbox as doomed so blocked receivers fail
    /// fast with [`Closed`] instead of deadlocking on messages that
    /// will never arrive. Called by the step driver when a worker hits
    /// a closed transport mid-plan. The default is a no-op — a
    /// transport with its own liveness mechanism (e.g. the harness
    /// watchdog) need not implement it.
    fn abort(&self) {}
}

/// Factory for a connected set of [`Endpoint`]s — one per virtual
/// processor of a run.
///
/// `connect` is generic over the message type: a transport only moves
/// values, it never inspects them (the executor's one wire format is
/// private to it; tests connect plain integers).
pub trait Transport {
    /// Creates `n` mutually connected endpoints; endpoint `i` receives
    /// what anyone sends to destination `i`.
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>>;

    /// The grid faults this transport has injected so far, in firing
    /// order ([`crate::run_recovery`] reads it after an epoch aborts).
    /// The default injects none, so every abort is a genuine failure.
    fn faults(&self) -> Vec<GridFault> {
        Vec::new()
    }
}

/// The default transport: one unbounded `std::sync::mpsc` channel per
/// processor, each endpoint holding a sender to every mailbox (its own
/// included) and the receiver of its own, plus one doom flag shared by
/// the whole run. [`Endpoint::abort`] raises the flag and posts a `None`
/// wake-up into every mailbox; from then on every `send`, `recv` and
/// `try_recv` of the run fails with [`Closed`], queued messages unread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelTransport;

struct ChannelEndpoint<T> {
    txs: Vec<Sender<Option<T>>>,
    rx: Receiver<Option<T>>,
    /// Shared by every endpoint of one `connect`; `abort`'s `Release`
    /// store pairs with `alive`'s `Acquire` load.
    doomed: Arc<AtomicBool>,
}

impl<T> ChannelEndpoint<T> {
    fn alive(&self) -> bool {
        !self.doomed.load(Ordering::Acquire)
    }
}

impl<T: Send> Endpoint<T> for ChannelEndpoint<T> {
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed> {
        if !self.alive() {
            return Err(Closed);
        }
        self.txs[dest].send(Some(msg)).map_err(|_| Closed)
    }

    fn recv(&self) -> Result<T, Closed> {
        // The flag is checked before blocking: `abort` raises it before
        // posting the one `None` wake-up, so a receiver either sees the
        // flag here or later takes the `None`, even after that `None`
        // was consumed by an earlier `try_recv`.
        if !self.alive() {
            return Err(Closed);
        }
        match self.rx.recv() {
            Ok(Some(msg)) if self.alive() => Ok(msg),
            _ => Err(Closed),
        }
    }

    fn try_recv(&self) -> Result<Option<T>, Closed> {
        match self.rx.try_recv() {
            Ok(Some(msg)) if self.alive() => Ok(Some(msg)),
            Err(TryRecvError::Empty) if self.alive() => Ok(None),
            _ => Err(Closed),
        }
    }

    fn abort(&self) {
        self.doomed.store(true, Ordering::Release);
        for tx in &self.txs {
            // A mailbox whose endpoint is gone needs no wake-up.
            let _ = tx.send(None);
        }
    }
}

impl Transport for ChannelTransport {
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let doomed = Arc::new(AtomicBool::new(false));
        rxs.into_iter()
            .map(|rx| {
                Box::new(ChannelEndpoint {
                    txs: txs.clone(),
                    rx,
                    doomed: Arc::clone(&doomed),
                }) as Box<dyn Endpoint<T>>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn endpoints_are_mutually_connected() {
        let eps = ChannelTransport.connect::<(usize, u32)>(3);
        let mut it = eps.into_iter();
        let (e0, e1, e2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        let h1 = thread::spawn(move || e1.recv().unwrap());
        let h2 = thread::spawn(move || e2.recv().unwrap());
        e0.send(1, (0, 10)).unwrap();
        e0.send(2, (0, 20)).unwrap();
        assert_eq!(h1.join().unwrap(), (0, 10));
        assert_eq!(h2.join().unwrap(), (0, 20));
    }

    #[test]
    fn self_send_is_allowed() {
        let eps = ChannelTransport.connect::<u8>(1);
        eps[0].send(0, 7).unwrap();
        assert_eq!(eps[0].recv().unwrap(), 7);
    }

    #[test]
    fn send_to_fully_dropped_mailbox_fails() {
        let mut eps = ChannelTransport.connect::<u8>(2);
        drop(eps.pop()); // endpoint 1 (its receiver) is gone
        assert_eq!(eps[0].send(1, 3), Err(Closed));
        // The own mailbox is still alive.
        eps[0].send(0, 4).unwrap();
        assert_eq!(eps[0].recv().unwrap(), 4);
    }

    #[test]
    fn abort_fails_blocked_peers_fast() {
        let eps = ChannelTransport.connect::<u8>(3);
        let mut it = eps.into_iter();
        let (e0, e1, e2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        // e1 and e2 block waiting for messages that will never come;
        // without the abort they would deadlock (each still holds a
        // sender to its own mailbox).
        let h1 = thread::spawn(move || e1.recv());
        let h2 = thread::spawn(move || e2.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        e0.abort();
        assert_eq!(h1.join().unwrap(), Err(Closed));
        assert_eq!(h2.join().unwrap(), Err(Closed));
        // The aborting endpoint itself also fails from here on.
        assert_eq!(e0.send(0, 1), Err(Closed));
    }

    #[test]
    fn abort_abandons_queued_messages() {
        let eps = ChannelTransport.connect::<u8>(2);
        eps[1].send(0, 1).unwrap();
        eps[1].send(0, 2).unwrap();
        eps[1].abort();
        // A doomed run fails fast: nothing queued before the abort is
        // delivered, on either receive path.
        assert_eq!(eps[0].try_recv(), Err(Closed));
        assert_eq!(eps[0].recv(), Err(Closed));
        assert_eq!(eps[1].send(0, 3), Err(Closed));
    }

    #[test]
    fn abort_fails_every_later_recv_on_an_empty_mailbox() {
        let eps = ChannelTransport.connect::<u8>(2);
        eps[1].abort();
        // `try_recv` takes the one wake-up; the receives after it must
        // still fail instead of blocking on a mailbox that never closes.
        assert_eq!(eps[0].try_recv(), Err(Closed));
        assert_eq!(eps[0].recv(), Err(Closed));
        assert_eq!(eps[0].recv(), Err(Closed));
        // Likewise when `recv` itself took the wake-up.
        assert_eq!(eps[1].recv(), Err(Closed));
        assert_eq!(eps[1].recv(), Err(Closed));
    }

    #[test]
    fn try_recv_is_empty_not_closed_while_alive() {
        let eps = ChannelTransport.connect::<u8>(2);
        assert_eq!(eps[0].try_recv(), Ok(None));
        eps[1].send(0, 5).unwrap();
        assert_eq!(eps[0].try_recv(), Ok(Some(5)));
        assert_eq!(eps[0].try_recv(), Ok(None));
    }
}
