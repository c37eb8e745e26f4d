//! Shared plan-interpretation machinery for the executor kernels.
//!
//! A kernel is only the algorithm, expressed as an emitter: a pure
//! function that turns one plan step into this processor's [`Action`]s
//! (each declaring the messages it needs and the blocks it
//! reads/writes), which the one interpreter,
//! [`GridInterp`](crate::grid::GridInterp), runs under the
//! [`WorkClock`].
//!
//! * [`WireMsg`] — the one wire format: `(step, tag, block index)`
//!   routing plus the one [`Payload`] type, an `Arc<Matrix>`;
//! * [`Courier`] — owns the endpoint, the pending-message buffer, the
//!   scratch [`BufferPool`], the observability
//!   [`Probe`](crate::probe::Probe), and the sent-message counter; all
//!   sends and receives go through it so the `ExecReport` and the obs
//!   counters can never disagree about what was sent;
//! * [`WorkClock`] — the slowdown-weighted work units and busy time;
//! * [`run_steps`] — the dependency-aware out-of-order driver: keeps a
//!   window of [`ExecConfig::lookahead`]` + 1` consecutive steps open
//!   and runs any action whose messages have arrived and whose block
//!   conflicts with *earlier* unfinished actions are clear, so step
//!   `k + 1`'s panel factorization and broadcasts overlap step `k`'s
//!   trailing updates;
//! * [`run_grid`] — spawns one thread per virtual processor over a
//!   [`Transport`], hands each a courier and a clock, and assembles the
//!   [`ExecReport`] from what they return.
//!
//! # Why out-of-order execution is bit-exact
//!
//! Floating-point addition is not associative, so reordering *updates
//! to the same block* would change results. The driver never does:
//! every block write is owner-local, [`conflicts`] forbids running an
//! action while an earlier-in-program-order unfinished action touches
//! any of the same blocks (RAW, WAW, *and* WAR), and within one step a
//! processor's actions write disjoint blocks. Every block therefore
//! receives exactly the in-order sequence of arithmetic, and any
//! lookahead depth produces bit-identical output — only the schedule
//! around the dependence chains moves.

use crate::grid::{self, GridInterp, Work};
use crate::pool::BufferPool;
use crate::probe::Probe;
use crate::store::{BlockStore, CheckpointLog, ExecReport};
use crate::transport::{Closed, Endpoint, ExecError, Transport};
use hetgrid_linalg::Matrix;
use hetgrid_obs::trace::SpanGuard;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Default lookahead window depth: how many steps past the oldest
/// unfinished one a worker may pull work from. Depth 0 is the legacy
/// strictly-in-order schedule; depth 2 covers the panel-factorization
/// latency of the next two steps without holding block buffers much
/// longer than the in-order schedule would.
pub const DEFAULT_LOOKAHEAD: usize = 2;

/// Tuning knobs for an executor run, accepted by [`crate::run`] and
/// the typed `*_on_cfg` forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Out-of-order window depth: a worker may execute actions of steps
    /// `front ..= front + lookahead` where `front` is its oldest
    /// incomplete step. `0` reproduces the in-order driver exactly.
    pub lookahead: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            lookahead: DEFAULT_LOOKAHEAD,
        }
    }
}

/// What every message carries: one matrix — an `r x r` block, or QR's
/// stacked panel factors — shared by all destinations of a broadcast.
pub(crate) type Payload = Arc<Matrix>;

/// One wire message: a [`Payload`] routed by `(step, tag, idx)`, where
/// `tag` distinguishes a kernel's message kinds (diagonal factors, L
/// blocks, ...) and `idx` is the block index the payload belongs to.
pub(crate) struct WireMsg {
    step: usize,
    tag: u8,
    idx: (usize, usize),
    payload: Payload,
}

/// A message routing key: `(step, tag, block index)`.
pub(crate) type MsgKey = (usize, u8, (usize, usize));

/// A block-level resource an [`Action`] reads or writes:
/// `(namespace, bi, bj)`. Namespace 0 is the main matrix (the factored
/// matrix, or C for MM and the star), 1 and 2 MM's and the star's
/// `A`/`B` blocks, 3 QR's reflectors of step `k`, keyed `(3, k, k)`,
/// and 4 a block QR holds on loan from its owner (see [`crate::qr`]).
/// The star lowers to grid actions plus two pseudo-resources, the
/// master's one-port link `(5, 0, 0)` and a worker's memory `(6, 0, 0)`
/// (see [`crate::star`]).
pub(crate) type Res = (u8, usize, usize);

/// One schedulable unit of a processor's per-step work: blocks taken
/// in, block kernels on owned blocks, broadcasts of owned blocks and
/// blocks dropped, run in that order by [`GridInterp::execute`], with
/// the hazard sets [`grid::action_moving`] derives from them.
///
/// `needs` are the wire messages that must have arrived before the
/// action can run; `reads`/`writes` are the block resources it touches,
/// used by [`conflicts`] to keep every block's update sequence in
/// program order (see the module docs for why that makes any schedule
/// bit-exact).
#[derive(Clone, Debug)]
pub(crate) struct Action {
    /// Plan step this action belongs to.
    pub step: usize,
    /// The phase (`factor`, `panel`, `bcast`, `compute`, ...) that names
    /// the action's `"{span} {step}"` trace span; the per-block trailing
    /// updates go without, one span per block would swamp the trace.
    pub span: Option<&'static str>,
    /// Primary block coordinate, disambiguating same-span actions
    /// within a step; the scheduler tests name actions by it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub blk: (usize, usize),
    /// Critical-path hint: prefer this action over non-critical ones
    /// (panel factorizations, solves, and sends unblock other
    /// processors; trailing updates only fill local time).
    pub crit: bool,
    /// The blocks installed first.
    pub takes: Vec<grid::Take>,
    /// The block kernels, in order.
    pub work: Vec<Work>,
    /// The broadcasts made after the work.
    pub sends: Vec<grid::Send>,
    /// The owned blocks forgotten last.
    pub drops: Vec<Res>,
    /// Messages that must be present in the courier buffer first.
    pub needs: Vec<MsgKey>,
    /// Locally owned blocks read (messages are covered by `needs`).
    pub reads: Vec<Res>,
    /// Locally owned blocks written. Disjoint across one step's actions
    /// on one processor.
    pub writes: Vec<Res>,
}

/// One worker's handle on the shared [`CheckpointLog`]: which processor
/// it journals as. Passing `None` to [`run_steps`] disables journaling
/// entirely (the fault-free fast path).
pub(crate) struct Journal<'a> {
    /// The epoch's shared block-version log.
    pub log: &'a CheckpointLog,
    /// This worker's linear processor id.
    pub me: usize,
}

/// `true` when `later` must wait for `earlier` (program order): any
/// write/write, write/read, or read/write block overlap.
pub(crate) fn conflicts(earlier: &Action, later: &Action) -> bool {
    let hit = |xs: &[Res], ys: &[Res]| xs.iter().any(|x| ys.contains(x));
    hit(&earlier.writes, &later.writes)
        || hit(&earlier.writes, &later.reads)
        || hit(&earlier.reads, &later.writes)
}

/// Picks the next runnable action of the window, by index: the first
/// critical one in program order, else the first runnable at all.
/// Runnable = not done, every needed message arrived (`has`), and no
/// earlier unfinished action conflicts. Returns `None` when nothing is
/// runnable (the caller then blocks on the transport).
pub(crate) fn pick_action(
    win: &VecDeque<(Action, bool)>,
    has: impl Fn(&MsgKey) -> bool,
) -> Option<usize> {
    let mut fallback = None;
    'actions: for i in 0..win.len() {
        let (a, done) = &win[i];
        if *done || !a.needs.iter().all(&has) {
            continue;
        }
        for (e, edone) in win.iter().take(i) {
            if !*edone && conflicts(e, a) {
                continue 'actions;
            }
        }
        if a.crit {
            return Some(i);
        }
        fallback.get_or_insert(i);
    }
    fallback
}

/// The out-of-order step driver: runs `interp`'s plan with a window of
/// `lookahead + 1` consecutive steps open at a time, from step `start`
/// to the end, and returns the worker's result blocks.
///
/// The loop invariantly (1) emits steps into the window while the
/// budget allows, (2) retires fully-done front steps (freeing budget
/// and buffered messages), (3) drains the mailbox without blocking,
/// then (4) executes one runnable action — or, when data dependencies
/// and missing messages block everything, (5) records a stall and
/// blocks on the transport.
///
/// Deadlock-free by induction: the oldest not-done action in the window
/// has no earlier unfinished action to conflict with, so once its
/// messages arrive it is runnable; its messages are sent by actions
/// that precede it in the global in-order schedule, which by induction
/// all eventually run on their owners.
pub(crate) fn run_steps(
    mut interp: GridInterp<'_>,
    courier: &mut Courier,
    clock: &mut WorkClock,
    lookahead: usize,
    start: usize,
    journal: Option<&Journal<'_>>,
) -> Result<BlockStore, Stop> {
    let n = interp.n_steps();
    let mut win: VecDeque<(Action, bool)> = VecDeque::new();
    let mut front = start; // oldest unretired step
    let mut emitted = start; // steps emitted into the window so far
    let mut buf: Vec<Action> = Vec::new();
    loop {
        while emitted < n && emitted <= front + lookahead {
            buf.clear();
            interp.emit(emitted, &mut buf);
            debug_assert!(buf.iter().all(|a| a.step == emitted));
            win.extend(buf.drain(..).map(|a| (a, false)));
            emitted += 1;
        }
        // Retire before picking: a step this processor has no actions
        // for must advance `front` (and the emit budget) immediately,
        // or the loop would stall forever on an empty window.
        let mut retired = false;
        while front < emitted && win.iter().all(|(a, done)| a.step != front || *done) {
            win.retain(|(a, _)| a.step != front);
            interp.retire(front);
            courier.end_step(front);
            if let Some(j) = journal {
                j.log.note_retired(j.me, front);
            }
            // The retirement beacon: a fault-injecting transport may
            // kill this worker here — the only place a processor can
            // die, which is exactly what makes every crash land on a
            // consistent retirement frontier.
            courier.mark(front)?;
            front += 1;
            retired = true;
        }
        if retired {
            continue; // refill the window before scheduling
        }
        if front >= n {
            break;
        }
        courier.drain();
        match pick_action(&win, |key| courier.has(*key)) {
            Some(i) => {
                let action = &win[i].0;
                courier.note_depth((action.step - front) as u64);
                interp.execute(action, courier, clock)?;
                if let Some(j) = journal {
                    for &(ns, bi, bj) in &action.writes {
                        if ns == 0 {
                            if let Some(data) = interp.peek((bi, bj)) {
                                j.log.record(action.step, (bi, bj), data);
                            }
                        }
                    }
                }
                win[i].1 = true;
            }
            None => courier.stall()?,
        }
    }
    Ok(interp.into_store())
}

/// Why a worker stopped before its plan completed.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The transport closed under it: a peer dropped out, or the run
    /// was aborted.
    Closed,
    /// A block kernel of the given plan step broke down (see
    /// [`ExecError::Breakdown`]).
    Breakdown(usize, &'static str),
}

impl From<Closed> for Stop {
    fn from(Closed: Closed) -> Stop {
        Stop::Closed
    }
}

/// Per-worker communication handle: endpoint + pending buffer + buffer
/// pool + probe + sent counter. Messages that arrive ahead of their
/// step are buffered; [`Courier::end_step`] reclaims the buffers of a
/// retired step's leftovers into the pool.
pub(crate) struct Courier {
    ep: Box<dyn Endpoint<WireMsg>>,
    pending: HashMap<MsgKey, Payload>,
    pool: BufferPool,
    probe: Option<Probe>,
    sent: u64,
    stalls: u64,
    q: usize,
}

impl Courier {
    /// Linear processor `me`'s handle on a `grid`-shaped run.
    pub(crate) fn new(ep: Box<dyn Endpoint<WireMsg>>, me: usize, grid: (usize, usize)) -> Self {
        Courier {
            ep,
            pending: HashMap::new(),
            pool: BufferPool::new(),
            probe: Probe::new((me / grid.1, me % grid.1), grid),
            sent: 0,
            stalls: 0,
            q: grid.1,
        }
    }

    /// Sends `payload` to grid processor `dest`, counting it (and the
    /// bytes of its `f64` elements) in the report and the obs counters.
    /// Fails with [`Closed`] when the destination mailbox is gone (the
    /// peer dropped out).
    pub fn send(
        &mut self,
        dest: (usize, usize),
        step: usize,
        tag: u8,
        idx: (usize, usize),
        payload: Payload,
    ) -> Result<(), Closed> {
        let dest = dest.0 * self.q + dest.1;
        let bytes = std::mem::size_of_val(payload.as_slice()) as u64;
        self.ep.send(
            dest,
            WireMsg {
                step,
                tag,
                idx,
                payload,
            },
        )?;
        self.sent += 1;
        if let Some(pr) = self.probe.as_mut() {
            pr.sent(dest, step, bytes);
        }
        Ok(())
    }

    /// Sends `payload` to every destination of a plan broadcast list:
    /// one buffer, one reference per destination.
    pub fn bcast(
        &mut self,
        dests: &[(usize, usize)],
        step: usize,
        tag: u8,
        idx: (usize, usize),
        payload: Payload,
    ) -> Result<(), Closed> {
        let Some((&last, rest)) = dests.split_last() else {
            return Ok(());
        };
        for &dest in rest {
            self.send(dest, step, tag, idx, Arc::clone(&payload))?;
        }
        // The sender keeps no reference: the last receiver to finish
        // with the buffer reshelves it.
        self.send(last, step, tag, idx, payload)
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The worker's scratch/receive buffer pool.
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    fn pump_until(&mut self, key: MsgKey) -> Result<(), Closed> {
        while !self.pending.contains_key(&key) {
            let m = self.ep.recv()?;
            self.pending.insert((m.step, m.tag, m.idx), m.payload);
        }
        Ok(())
    }

    /// Blocks until the message is here and removes it from the buffer,
    /// unwrapping the matrix: a point-to-point payload has one holder,
    /// so nothing is copied.
    pub fn take(&mut self, step: usize, tag: u8, idx: (usize, usize)) -> Result<Matrix, Closed> {
        self.pump_until((step, tag, idx))?;
        let payload = self
            .pending
            .remove(&(step, tag, idx))
            .expect("pumped above");
        Ok(Arc::try_unwrap(payload).unwrap_or_else(|shared| Matrix::clone(&shared)))
    }

    /// A buffered message that an action's `needs` already guaranteed
    /// (left buffered: several actions may read one payload).
    pub fn get(&self, step: usize, tag: u8, idx: (usize, usize)) -> &Matrix {
        self.pending
            .get(&(step, tag, idx))
            .expect("message missing (not in the action's needs)")
    }

    /// Whether a message is already buffered (the scheduler's `needs`
    /// check; never blocks).
    pub fn has(&self, key: MsgKey) -> bool {
        self.pending.contains_key(&key)
    }

    /// Buffers everything already waiting in the mailbox, without
    /// blocking. A `Closed` is swallowed deliberately: the last
    /// surviving worker polls an empty sender-less mailbox while
    /// finishing purely local work, and that is not an error — closure
    /// surfaces through [`Courier::stall`] or a send the moment
    /// progress actually requires a peer.
    pub fn drain(&mut self) {
        while let Ok(Some(m)) = self.ep.try_recv() {
            self.pending.insert((m.step, m.tag, m.idx), m.payload);
        }
    }

    /// Fires the retirement beacon for step `step` on the endpoint. A
    /// fault-injecting transport may answer [`Closed`] to kill this
    /// worker at the boundary.
    pub fn mark(&mut self, step: usize) -> Result<(), Closed> {
        self.ep.mark(step)
    }

    /// Nothing runnable: count the stall and block for one message.
    pub fn stall(&mut self) -> Result<(), Closed> {
        self.stalls += 1;
        let m = self.ep.recv()?;
        self.pending.insert((m.step, m.tag, m.idx), m.payload);
        Ok(())
    }

    /// Records the step distance `d = action.step - front` of a
    /// scheduled action in the lookahead-depth histogram.
    pub fn note_depth(&mut self, d: u64) {
        if let Some(pr) = &self.probe {
            pr.depth(d);
        }
    }

    /// Reclaims every leftover buffered message of step `k` and earlier
    /// into the pool (receivers consumed what they needed; broadcast
    /// overshoot ends here).
    pub fn end_step(&mut self, k: usize) {
        if self.pending.keys().all(|&(s, _, _)| s > k) {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (key, payload) in pending {
            if key.0 > k {
                self.pending.insert(key, payload);
            } else {
                self.pool.retire(payload);
            }
        }
    }

    /// Opens a named span on this processor's trace track, building the
    /// name only when tracing is enabled.
    pub fn span_with(&self, name: impl FnOnce() -> String) -> Option<SpanGuard> {
        self.probe.as_ref().map(|pr| pr.span(name()))
    }

    /// Records one compute chunk's duration in the obs histogram.
    pub fn step_done(&self, dur_seconds: f64) {
        if let Some(pr) = &self.probe {
            pr.step_done(dur_seconds);
        }
    }

    fn finish(&self, total_units: u64) {
        if let Some(pr) = &self.probe {
            pr.finish(
                total_units,
                self.stalls,
                self.pool.hits(),
                self.pool.misses(),
            );
        }
    }
}

/// Busy-time and work-unit accounting under an integer slowdown weight:
/// a block kernel runs once for real, and `weight - 1` repeats (in
/// [`crate::grid`]) emulate a `weight`-times-slower processor re-doing
/// equivalent work.
pub(crate) struct WorkClock {
    /// Seconds spent in block kernels, repeats included.
    pub busy: f64,
    /// Weighted block operations performed.
    pub units: u64,
    /// The slowdown weight.
    pub weight: u64,
}

impl WorkClock {
    pub(crate) fn new(weight: u64) -> Self {
        WorkClock {
            busy: 0.0,
            units: 0,
            weight,
        }
    }
}

/// Validates a slowdown-weight table against the grid shape.
pub(crate) fn check_weights(weights: &[Vec<u64>], (p, q): (usize, usize), kernel: &str) {
    assert_eq!(weights.len(), p, "{kernel}: weights rows mismatch");
    assert!(
        weights.iter().all(|row| row.len() == q),
        "{kernel}: weights cols mismatch"
    );
}

/// Spawns one worker thread per virtual processor of a `p x q` grid
/// over `transport`, giving each a [`Courier`] and a [`WorkClock`]
/// seeded from its slowdown weight. Returns each worker's final block
/// store (indexed by linear processor id) and the assembled
/// [`ExecReport`], whose `lookahead` the caller fills in (only it knows
/// the depth its workers drove [`run_steps`] at).
///
/// A worker that hits a closed transport (a peer dropped out) or whose
/// block kernel breaks down returns a [`Stop`]; the driver then aborts
/// the whole run through [`Endpoint::abort`] so every blocked peer
/// fails fast, waits for all threads, and reports a typed
/// [`ExecError`]: the earliest breakdown if there was one, else the
/// first processor that saw the transport close. Neither panics the
/// process.
pub(crate) fn run_grid<W>(
    transport: &impl Transport,
    (p, q): (usize, usize),
    weights: &[Vec<u64>],
    worker: W,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError>
where
    W: Fn(usize, &mut Courier, &mut WorkClock) -> Result<BlockStore, Stop> + Sync,
{
    let n_procs = p * q;
    let endpoints = transport.connect::<WireMsg>(n_procs);
    type Done = (usize, Result<BlockStore, Stop>, f64, u64, u64);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();

    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for (me, ep) in endpoints.into_iter().enumerate() {
            let (i, j) = (me / q, me % q);
            let done = done_tx.clone();
            let w = weights[i][j];
            let worker = &worker;
            scope.spawn(move || {
                let mut courier = Courier::new(ep, me, (p, q));
                let mut clock = WorkClock::new(w);
                let store = worker(me, &mut courier, &mut clock);
                if store.is_err() {
                    // Doom every peer mailbox so blocked workers fail
                    // fast instead of waiting for messages this worker
                    // will never send.
                    courier.ep.abort();
                }
                courier.finish(clock.units);
                // The main thread outlives the scope; if its receiver
                // is somehow gone the result has nowhere to go anyway.
                let _ = done.send((me, store, clock.busy, clock.units, courier.sent()));
            });
        }
    });
    drop(done_tx);

    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let mut stores: Vec<BlockStore> = (0..n_procs).map(|_| BlockStore::new()).collect();
    let mut busy = vec![vec![0.0f64; q]; p];
    let mut work = vec![vec![0u64; q]; p];
    let mut msgs = vec![vec![0u64; q]; p];
    // The failure to report, keyed so the earliest breakdown wins over
    // any closed transport, and the lowest processor id breaks ties.
    let mut failed: Option<((usize, usize), ExecError)> = None;
    while let Ok((me, store, busy_s, units, sent)) = done_rx.recv() {
        let (i, j) = (me / q, me % q);
        busy[i][j] = busy_s;
        work[i][j] = units;
        msgs[i][j] = sent;
        let (key, err) = match store {
            Ok(store) => {
                stores[me] = store;
                continue;
            }
            Err(Stop::Breakdown(step, what)) => {
                let proc = (i, j);
                ((step, me), ExecError::Breakdown { proc, step, what })
            }
            Err(Stop::Closed) => ((usize::MAX, me), ExecError::PeerDropped { proc: (i, j) }),
        };
        if failed.is_none_or(|(k, _)| key < k) {
            failed = Some((key, err));
        }
    }
    if let Some((_, err)) = failed {
        // An abort cascade is exactly what the flight recorder exists
        // for: dump the retained span rings before the error surfaces
        // (a no-op unless `--flight-recorder` armed a destination).
        hetgrid_obs::flight::dump(&err.to_string());
        return Err(err);
    }
    Ok((
        stores,
        ExecReport {
            wall_seconds,
            busy_seconds: busy,
            work_units: work,
            messages_sent: msgs,
            lookahead: 0,
        },
    ))
}

/// Folds worker block stores into one `rows_b x cols_b` block matrix,
/// asserting every block arrived exactly once.
pub(crate) fn gather_result(
    stores: Vec<BlockStore>,
    (rows_b, cols_b): (usize, usize),
    r: usize,
    kernel: &str,
) -> hetgrid_linalg::Matrix {
    let mut m = hetgrid_linalg::Matrix::zeros(rows_b * r, cols_b * r);
    let mut blocks_seen = 0usize;
    for store in stores {
        for ((bi, bj), block) in store {
            m.set_block(bi * r, bj * r, &block);
            blocks_seen += 1;
        }
    }
    assert_eq!(
        blocks_seen,
        rows_b * cols_b,
        "{kernel}: missing result blocks"
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(
        step: usize,
        crit: bool,
        needs: Vec<MsgKey>,
        reads: Vec<Res>,
        writes: Vec<Res>,
    ) -> Action {
        let empty = grid::action(step, None, (0, 0), crit, vec![], vec![]);
        Action {
            needs,
            reads,
            writes,
            ..empty
        }
    }

    #[test]
    fn pick_prefers_critical_over_earlier_noncritical() {
        let win: VecDeque<(Action, bool)> = vec![
            (action(0, false, vec![], vec![], vec![(0, 1, 1)]), false),
            (action(0, true, vec![], vec![], vec![(0, 2, 2)]), false),
        ]
        .into();
        assert_eq!(pick_action(&win, |_| true), Some(1));
    }

    #[test]
    fn pick_respects_needs_and_falls_back_in_order() {
        let win: VecDeque<(Action, bool)> = vec![
            (
                action(0, true, vec![(0, 0, (0, 0))], vec![], vec![(0, 1, 1)]),
                false,
            ),
            (action(0, false, vec![], vec![], vec![(0, 2, 2)]), false),
            (action(0, false, vec![], vec![], vec![(0, 3, 3)]), false),
        ]
        .into();
        // The critical action's message is missing; the first runnable
        // non-critical action wins.
        assert_eq!(pick_action(&win, |_| false), Some(1));
    }

    #[test]
    fn pick_blocks_on_block_conflicts_with_earlier_unfinished_work() {
        let w = (0u8, 4usize, 4usize);
        let win: VecDeque<(Action, bool)> = vec![
            (
                action(0, false, vec![(0, 0, (0, 0))], vec![], vec![w]),
                false,
            ),
            (action(1, true, vec![], vec![w], vec![(0, 5, 5)]), false),
            (action(1, false, vec![], vec![], vec![(0, 6, 6)]), false),
        ]
        .into();
        // Step 1's critical action reads the block step 0 still has to
        // write (RAW): it must wait even though its messages are in.
        assert_eq!(pick_action(&win, |_| false), Some(2));
        // Once the writer is done, the critical reader is free.
        let mut win = win;
        win[0].1 = true;
        assert_eq!(pick_action(&win, |_| false), Some(1));
    }

    #[test]
    fn pick_returns_none_when_everything_waits_on_messages() {
        let win: VecDeque<(Action, bool)> = vec![
            (action(0, true, vec![(0, 0, (0, 0))], vec![], vec![]), false),
            (
                action(0, false, vec![(0, 1, (0, 1))], vec![], vec![]),
                false,
            ),
        ]
        .into();
        assert_eq!(pick_action(&win, |_| false), None);
    }

    #[test]
    fn conflict_covers_waw_raw_and_war() {
        let r = (0u8, 2usize, 3usize);
        let waw = (
            action(0, false, vec![], vec![], vec![r]),
            action(1, false, vec![], vec![], vec![r]),
        );
        let raw = (
            action(0, false, vec![], vec![], vec![r]),
            action(1, false, vec![], vec![r], vec![]),
        );
        let war = (
            action(0, false, vec![], vec![r], vec![]),
            action(1, false, vec![], vec![], vec![r]),
        );
        assert!(conflicts(&waw.0, &waw.1));
        assert!(conflicts(&raw.0, &raw.1));
        assert!(conflicts(&war.0, &war.1));
        let disjoint = (
            action(0, false, vec![], vec![r], vec![(0, 9, 9)]),
            action(1, false, vec![], vec![r], vec![(0, 8, 8)]),
        );
        assert!(!conflicts(&disjoint.0, &disjoint.1), "read/read is free");
    }
}
