//! The seeded fault-injecting virtual transport.
//!
//! Implements [`hetgrid_exec::Transport`] so the *real* kernel code runs
//! over it unchanged. Each mailbox is a mutex-protected pair of queues:
//!
//! * `ready` — deliverable messages; a receive pops the front, or a
//!   seeded pick when the profile reorders;
//! * `held` — messages the fault injector is delaying. A held message
//!   carries a countdown of subsequent arrivals at the same mailbox;
//!   when the countdown expires it moves to `ready`. A receiver that
//!   finds `ready` empty promotes the oldest held message instead of
//!   blocking — delay can starve progress only temporarily, never
//!   forever.
//!
//! Whether a particular message is held, for how long, and which ready
//! message a receive takes are all pure functions of the run seed and
//! per-endpoint counters (see [`crate::faults`]), so a seed replays the
//! same fault schedule regardless of OS scheduling. If a run
//! nevertheless wedges — every queue empty, senders alive but nothing
//! arriving within the watchdog window — the transport panics with the
//! seed rather than hanging the test suite.

use crate::faults::{FaultProfile, KillSchedule};
use hetgrid_exec::recovery::GridFault;
use hetgrid_exec::transport::{Closed, Endpoint, Transport};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long a receiver waits on an empty mailbox (with other endpoints
/// still alive) before declaring the run wedged.
const WATCHDOG: Duration = Duration::from_secs(10);

/// The grid-membership fault schedule, shared by every endpoint of every
/// epoch a transport connects. Its events fire in list order, each at
/// most once across the whole transport lifetime: an epoch (one
/// [`Transport::connect`]) may fire only the first event not yet fired
/// when it connected, so event `i` fires in an epoch after the one
/// event `i - 1` aborted, and a crash consumed by epoch 1 never
/// re-kills the (renumbered) grid of epoch 2.
struct KillState {
    events: Vec<GridFault>,
    /// Faults that actually fired, in firing order — the recovery
    /// driver's authoritative record of *who* died (the executor's own
    /// error reports the first worker to notice, not the victim).
    fired: Mutex<Vec<GridFault>>,
}

impl KillState {
    fn fired(&self) -> Vec<GridFault> {
        self.fired.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// A [`Transport`] whose endpoints misbehave according to a
/// [`FaultProfile`], deterministically per `seed` — and, when armed
/// with a [`KillSchedule`], kill or pause processors at exact
/// retirement boundaries.
#[derive(Clone, Debug)]
pub struct VirtualTransport {
    seed: u64,
    profile: FaultProfile,
    kills: Arc<KillState>,
    watchdog: Duration,
}

impl std::fmt::Debug for KillState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KillState")
            .field("events", &self.events)
            .field("fired", &self.fired())
            .finish()
    }
}

impl VirtualTransport {
    /// A transport injecting `profile`'s faults with decisions derived
    /// from `seed`.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        VirtualTransport {
            seed,
            profile,
            kills: Arc::new(KillState {
                events: Vec::new(),
                fired: Mutex::new(Vec::new()),
            }),
            watchdog: WATCHDOG,
        }
    }

    /// Arms a grid-fault schedule: each event fires once, in list order,
    /// at the retirement beacon of its boundary, and is recorded in
    /// [`Transport::faults`].
    pub fn with_kills(mut self, schedule: &KillSchedule) -> Self {
        self.kills = Arc::new(KillState {
            events: schedule.events.clone(),
            fired: Mutex::new(Vec::new()),
        });
        self
    }

    /// Overrides the starvation watchdog window (tests of the watchdog
    /// itself shrink it; the env-free builder keeps parallel test runs
    /// deterministic).
    pub fn with_watchdog(mut self, window: Duration) -> Self {
        self.watchdog = window;
        self
    }

    /// The run seed (reported in failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The active fault profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }
}

struct MailboxState<T> {
    ready: VecDeque<T>,
    /// Held messages with their remaining-arrivals countdown, oldest
    /// first.
    held: VecDeque<(T, u32)>,
    /// The owning endpoint was dropped; sends to it fail.
    closed: bool,
}

struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    cv: Condvar,
}

impl<T> Mailbox<T> {
    /// Locks the state, tolerating poisoning: the queues are consistent
    /// at every lock boundary, and a panicking run (watchdog, oracle
    /// failure) must not abort the process by double-panicking in
    /// endpoint drops or concurrent sends.
    fn lock(&self) -> MutexGuard<'_, MailboxState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Obs counters for injected faults, one per category. Handles are
/// resolved once per [`Transport::connect`]; each injection is a single
/// relaxed atomic increment.
struct FaultCounters {
    delayed: hetgrid_obs::Counter,
    reordered: hetgrid_obs::Counter,
    promoted: hetgrid_obs::Counter,
}

impl FaultCounters {
    fn new() -> Self {
        let m = hetgrid_obs::metrics();
        FaultCounters {
            delayed: m.counter("harness.faults.delayed"),
            reordered: m.counter("harness.faults.reordered"),
            promoted: m.counter("harness.faults.promoted"),
        }
    }
}

struct Shared<T> {
    boxes: Vec<Mailbox<T>>,
    /// Endpoints still alive; a lone survivor's empty recv fails
    /// instead of blocking.
    live: AtomicUsize,
    /// Set by [`Endpoint::abort`] after a worker dies: every blocked or
    /// future operation on this epoch's endpoints fails fast with
    /// [`Closed`] instead of waiting for messages a dead peer will
    /// never send.
    doomed: AtomicBool,
    /// The grid-fault schedule, shared across epochs.
    kills: Arc<KillState>,
    /// The index of the one event this epoch may fire: the first not
    /// yet fired when it connected.
    armed: usize,
    watchdog: Duration,
    seed: u64,
    profile: FaultProfile,
    faults: FaultCounters,
}

struct VirtualEndpoint<T> {
    shared: Arc<Shared<T>>,
    me: usize,
    /// Messages sent so far on each edge `me -> dest` (program order of
    /// this endpoint's thread, hence deterministic).
    sent: Vec<Cell<u64>>,
    /// Receives completed so far on the own mailbox.
    received: Cell<u64>,
}

impl<T: Send> Endpoint<T> for VirtualEndpoint<T> {
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed> {
        if self.shared.doomed.load(Ordering::SeqCst) {
            return Err(Closed);
        }
        let n = self.sent[dest].get();
        self.sent[dest].set(n + 1);
        let hold = self
            .shared
            .profile
            .hold_for(self.shared.seed, self.me, dest, n);

        let mb = &self.shared.boxes[dest];
        let mut st = mb.lock();
        if st.closed {
            return Err(Closed);
        }
        // Every arrival ages the messages already held here.
        let mut i = 0;
        while i < st.held.len() {
            st.held[i].1 -= 1;
            if st.held[i].1 == 0 {
                let (m, _) = st.held.remove(i).unwrap();
                st.ready.push_back(m);
            } else {
                i += 1;
            }
        }
        match hold {
            Some(arrivals) => {
                self.shared.faults.delayed.inc();
                st.held.push_back((msg, arrivals));
            }
            None => st.ready.push_back(msg),
        }
        drop(st);
        // Notify even when the message went into `held`: a receiver
        // already blocked on an empty mailbox wakes and promotes it
        // (the delay fault may reorder traffic, never wedge it).
        mb.cv.notify_all();
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<T>, Closed> {
        if self.shared.doomed.load(Ordering::SeqCst) {
            return Err(Closed);
        }
        let mb = &self.shared.boxes[self.me];
        let mut st = mb.lock();
        if !st.ready.is_empty() {
            let n = self.received.get();
            self.received.set(n + 1);
            let idx = self
                .shared
                .profile
                .pick(self.shared.seed, self.me, n, st.ready.len());
            if idx != 0 {
                self.shared.faults.reordered.inc();
            }
            return Ok(Some(st.ready.remove(idx).unwrap()));
        }
        // Deliberately no held-message promotion here: promotion exists
        // so a *blocked* receiver is never starved by the fault
        // injector. A poll that came up empty just goes back to
        // computing — promoting on polls would defeat the delay fault
        // entirely for a polling driver.
        if st.held.is_empty() && self.shared.live.load(Ordering::SeqCst) <= 1 {
            return Err(Closed);
        }
        Ok(None)
    }

    fn recv(&self) -> Result<T, Closed> {
        let mb = &self.shared.boxes[self.me];
        let mut st = mb.lock();
        loop {
            if self.shared.doomed.load(Ordering::SeqCst) {
                return Err(Closed);
            }
            if !st.ready.is_empty() {
                let n = self.received.get();
                self.received.set(n + 1);
                let idx = self
                    .shared
                    .profile
                    .pick(self.shared.seed, self.me, n, st.ready.len());
                if idx != 0 {
                    self.shared.faults.reordered.inc();
                }
                return Ok(st.ready.remove(idx).unwrap());
            }
            // Nothing deliverable: promote the oldest held message so a
            // waiting receiver is never starved by the fault injector.
            if let Some((msg, _)) = st.held.pop_front() {
                self.shared.faults.promoted.inc();
                self.received.set(self.received.get() + 1);
                return Ok(msg);
            }
            if self.shared.live.load(Ordering::SeqCst) <= 1 {
                return Err(Closed);
            }
            let (guard, timeout) = mb
                .cv
                .wait_timeout(st, self.shared.watchdog)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
            if timeout.timed_out() && st.ready.is_empty() && st.held.is_empty() {
                if self.shared.live.load(Ordering::SeqCst) <= 1 {
                    return Err(Closed);
                }
                if self.shared.doomed.load(Ordering::SeqCst) {
                    return Err(Closed);
                }
                drop(st); // do not poison the mailbox the panic abandons
                          // Dump the flight-recorder rings before panicking: the
                          // spans leading into the starvation are the evidence
                          // (no-op unless a dump destination is armed).
                hetgrid_obs::flight::dump(&format!(
                    "harness watchdog: processor {} starved for {:?}",
                    self.me, self.shared.watchdog
                ));
                let fired = self.shared.kills.fired();
                let cause = if fired.is_empty() {
                    "genuine starvation, no grid fault fired".to_string()
                } else {
                    format!("un-recovered grid fault(s) {fired:?} — a peer was crashed by the kill schedule and nobody resumed the run")
                };
                panic!(
                    "harness watchdog: processor {} starved for {:?} \
                     ({cause}; profile '{}', seed {}) — replay with HARNESS_SEED={}",
                    self.me,
                    self.shared.watchdog,
                    self.shared.profile.name,
                    self.shared.seed,
                    self.shared.seed
                );
            }
        }
    }

    fn mark(&self, step: usize) -> Result<(), Closed> {
        if self.shared.doomed.load(Ordering::SeqCst) {
            return Err(Closed);
        }
        let (kills, armed) = (&self.shared.kills, self.shared.armed);
        let Some(&event) = kills.events.get(armed) else {
            return Ok(());
        };
        let hits = match event {
            GridFault::Crash { proc, at_step } => proc == self.me && at_step == step,
            // A join pauses the whole grid; one designated endpoint
            // (linear 0 exists in every grid shape) reports it.
            GridFault::Join { at_step } => self.me == 0 && at_step == step,
        };
        if !hits {
            return Ok(());
        }
        let mut fired = kills.fired.lock().unwrap_or_else(|p| p.into_inner());
        if fired.len() != armed {
            return Ok(());
        }
        fired.push(event);
        Err(Closed)
    }

    fn abort(&self) {
        self.shared.doomed.store(true, Ordering::SeqCst);
        for mb in &self.shared.boxes {
            mb.cv.notify_all();
        }
    }
}

impl<T> Drop for VirtualEndpoint<T> {
    fn drop(&mut self) {
        self.shared.boxes[self.me].lock().closed = true;
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        // Receivers blocked on other mailboxes must recheck liveness.
        for mb in &self.shared.boxes {
            mb.cv.notify_all();
        }
    }
}

impl Transport for VirtualTransport {
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>> {
        let shared = Arc::new(Shared {
            boxes: (0..n)
                .map(|_| Mailbox {
                    state: Mutex::new(MailboxState {
                        ready: VecDeque::new(),
                        held: VecDeque::new(),
                        closed: false,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            live: AtomicUsize::new(n),
            doomed: AtomicBool::new(false),
            kills: Arc::clone(&self.kills),
            armed: self.kills.fired().len(),
            watchdog: self.watchdog,
            seed: self.seed,
            profile: self.profile,
            faults: FaultCounters::new(),
        });
        (0..n)
            .map(|me| {
                Box::new(VirtualEndpoint {
                    shared: Arc::clone(&shared),
                    me,
                    sent: (0..n).map(|_| Cell::new(0)).collect(),
                    received: Cell::new(0),
                }) as Box<dyn Endpoint<T>>
            })
            .collect()
    }

    fn faults(&self) -> Vec<GridFault> {
        self.kills.fired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_profile_preserves_order() {
        let t = VirtualTransport::new(1, FaultProfile::FIFO);
        let mut eps = t.connect::<u32>(2);
        let rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        for v in 0..50 {
            tx.send(1, v).unwrap();
        }
        let got: Vec<u32> = (0..50).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn every_message_is_delivered_exactly_once_under_chaos() {
        for seed in 0..8 {
            let t = VirtualTransport::new(seed, FaultProfile::CHAOS);
            let mut eps = t.connect::<u32>(2);
            let rx = eps.pop().unwrap();
            let tx = eps.pop().unwrap();
            let h = thread::spawn(move || {
                for v in 0..200 {
                    tx.send(1, v).unwrap();
                }
            });
            let mut got: Vec<u32> = (0..200).map(|_| rx.recv().unwrap()).collect();
            h.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, (0..200).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn chaos_actually_reorders() {
        let t = VirtualTransport::new(3, FaultProfile::CHAOS);
        let mut eps = t.connect::<u32>(2);
        let rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        for v in 0..200 {
            tx.send(1, v).unwrap();
        }
        let got: Vec<u32> = (0..200).map(|_| rx.recv().unwrap()).collect();
        assert_ne!(got, (0..200).collect::<Vec<_>>(), "expected reordering");
    }

    #[test]
    fn send_to_dropped_endpoint_fails() {
        let t = VirtualTransport::new(4, FaultProfile::FIFO);
        let mut eps = t.connect::<u32>(2);
        drop(eps.pop());
        assert_eq!(eps[0].send(1, 9), Err(Closed));
    }

    #[test]
    fn recv_fails_when_last_survivor_and_empty() {
        let t = VirtualTransport::new(5, FaultProfile::DELAY);
        let mut eps = t.connect::<u32>(2);
        let tx = eps.remove(0);
        tx.send(1, 11).unwrap();
        drop(tx);
        let rx = eps.pop().unwrap();
        // The in-flight (possibly held) message is still delivered...
        assert_eq!(rx.recv().unwrap(), 11);
        // ...then the drained, sender-less mailbox reports closure.
        assert_eq!(rx.recv(), Err(Closed));
    }
}
