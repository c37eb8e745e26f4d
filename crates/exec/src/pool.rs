//! Scratch/receive buffer pooling for the step driver's hot path.
//!
//! Every wire payload is an `Arc<Matrix>`: a broadcast makes one copy
//! of the block ([`BufferPool::dup`]) and every destination only bumps
//! the refcount; whoever drops the last reference
//! ([`BufferPool::retire`]) reshelves the buffer — a receiver, since
//! the sender's own reference travels in its last message. The pool
//! shelves retired [`Matrix`] buffers by shape so the next same-shaped
//! copy or receive staging reuses the allocation instead of growing
//! the churn with the lookahead window.
//!
//! The pool is strictly thread-local (one per worker's
//! `step::Courier`): no locks, no cross-thread
//! traffic. Hit/miss totals are published to `obs` at run end.

use hetgrid_linalg::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-shape shelf capacity: buffers returned beyond this are simply
/// dropped, bounding the pool's footprint at a handful of windows'
/// worth of blocks per shape.
const SHELF_CAP: usize = 32;

/// A by-shape free list of matrix buffers.
///
/// `take` hands out a buffer with **stale contents** — callers
/// overwrite it entirely (via [`Matrix::copy_from`] or by writing every
/// block of a stacked panel) before reading, exactly as they would fill
/// a freshly cloned buffer.
#[derive(Debug, Default)]
pub struct BufferPool {
    shelves: HashMap<(usize, usize), Vec<Matrix>>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// A `rows x cols` buffer: reused from the shelf when one is
    /// available (stale contents!), freshly allocated otherwise.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.shelves.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(m) => {
                self.hits += 1;
                m
            }
            None => {
                self.misses += 1;
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Returns a retired buffer to its shape's shelf (dropped when the
    /// shelf is full).
    pub fn put(&mut self, m: Matrix) {
        let shelf = self.shelves.entry(m.shape()).or_default();
        if shelf.len() < SHELF_CAP {
            shelf.push(m);
        }
    }

    /// A shareable pool-backed copy of `m`: the one deep copy a send or
    /// broadcast makes, whatever its fan-out.
    pub fn dup(&mut self, m: &Matrix) -> Arc<Matrix> {
        let (rows, cols) = m.shape();
        let mut copy = self.take(rows, cols);
        copy.copy_from(m);
        Arc::new(copy)
    }

    /// Drops one reference to a shared payload; the last holder gets
    /// the buffer back onto its shelf.
    pub fn retire(&mut self, payload: Arc<Matrix>) {
        if let Ok(m) = Arc::try_unwrap(payload) {
            self.put(m);
        }
    }

    /// Takes met from the shelf so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Takes that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_matching_shape_only() {
        let mut pool = BufferPool::new();
        pool.put(Matrix::filled(2, 3, 7.0));
        let m = pool.take(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(pool.misses(), 1);
        let m2 = pool.take(2, 3);
        assert_eq!(m2.shape(), (2, 3));
        assert_eq!(pool.hits(), 1);
        drop((m, m2));
    }

    #[test]
    fn dup_is_bitwise_equal() {
        let mut pool = BufferPool::new();
        pool.put(Matrix::filled(2, 2, 9.0)); // stale shelf entry
        let src = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let dup = pool.dup(&src);
        assert!(dup.approx_eq(&src, 0.0));
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn retire_recovers_buffer_only_when_unique() {
        let mut pool = BufferPool::new();
        let a = Arc::new(Matrix::zeros(4, 4));
        let b = Arc::clone(&a);
        pool.retire(a);
        assert_eq!(pool.take(4, 4).shape(), (4, 4));
        assert_eq!(pool.misses(), 1, "shared Arc must not be shelved");
        pool.retire(b);
        pool.take(4, 4);
        assert_eq!(pool.hits(), 1, "unique Arc returns its buffer");
    }

    #[test]
    fn shelf_is_bounded() {
        let mut pool = BufferPool::new();
        for _ in 0..2 * SHELF_CAP {
            pool.put(Matrix::zeros(1, 1));
        }
        let shelved = pool.shelves[&(1, 1)].len();
        assert_eq!(shelved, SHELF_CAP);
    }
}
