//! Size-keyed free-list pool for tape activation buffers.
//!
//! `Graph::truncate` runs once per inference request / train step and used
//! to drop every per-step activation `Vec<f32>` straight to the allocator,
//! only for the next forward to request the same sizes again. The pool
//! keeps truncated storage keyed by element count so the next forward's
//! allocations become free-list pops.
//!
//! Recycling is bitwise-invisible: buffers handed out via [`BufferPool::take`]
//! are zero-filled exactly as a fresh `vec![0.0; n]` would be, and
//! [`BufferPool::take_any`] is reserved for fills that overwrite every
//! element — which every tape forward kernel does (the shared
//! `mfaplace_tensor::lowlevel` kernels clear their own outputs and
//! scratch where they accumulate).

use std::collections::HashMap;

/// Retained buffers per size class. Steady-state mark/forward/truncate
/// loops reuse far fewer than this; the cap bounds worst-case retention
/// when shapes churn (e.g. a serve batcher coalescing varying batch sizes).
const MAX_PER_CLASS: usize = 32;

/// Size-keyed free list of `Vec<f32>` buffers with hit/miss counters.
#[derive(Default)]
pub struct BufferPool {
    free: HashMap<usize, Vec<Vec<f32>>>,
    hits: u64,
    misses: u64,
    recycled_bytes: u64,
    /// Counters already pushed to `rt::timer`, so flushes emit deltas.
    flushed_hits: u64,
    flushed_misses: u64,
    flushed_bytes: u64,
}

/// A cloned graph (per-shard trainer replicas) starts with an empty pool:
/// retained buffers are working storage, not state worth duplicating.
impl Clone for BufferPool {
    fn clone(&self) -> Self {
        BufferPool::default()
    }
}

impl BufferPool {
    /// Take a **zero-filled** buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Take a buffer of exactly `len` elements with **unspecified
    /// contents**. Only for fills that overwrite every element.
    pub fn take_any(&mut self, len: usize) -> Vec<f32> {
        self.pop(len).unwrap_or_else(|| vec![0.0; len])
    }

    fn pop(&mut self, len: usize) -> Option<Vec<f32>> {
        if len == 0 {
            return Some(Vec::new());
        }
        match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.hits += 1;
                self.recycled_bytes += (len * std::mem::size_of::<f32>()) as u64;
                Some(buf)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Return a buffer to its size class (dropped if the class is full or
    /// the buffer is empty).
    pub fn give(&mut self, buf: Vec<f32>) {
        let len = buf.len();
        if len == 0 {
            return;
        }
        let class = self.free.entry(len).or_default();
        if class.len() < MAX_PER_CLASS {
            class.push(buf);
        }
    }

    /// Free-list pops that found a buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Free-list pops that fell through to the allocator.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total bytes served from recycled storage.
    pub fn recycled_bytes(&self) -> u64 {
        self.recycled_bytes
    }

    /// Buffers currently retained across all size classes.
    pub fn retained(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Push counter deltas to `rt::timer` (surfaced by `mfaplace-serve`'s
    /// `GET /metrics`). Called once per `Graph::truncate` rather than per
    /// take/give — `timer::count` locks a mutex per call.
    pub fn flush_counters(&mut self) {
        let (dh, dm, db) = (
            self.hits - self.flushed_hits,
            self.misses - self.flushed_misses,
            self.recycled_bytes - self.flushed_bytes,
        );
        if dh > 0 {
            mfaplace_rt::timer::count("graph/pool_hits", dh);
            self.flushed_hits = self.hits;
        }
        if dm > 0 {
            mfaplace_rt::timer::count("graph/pool_misses", dm);
            self.flushed_misses = self.misses;
        }
        if db > 0 {
            mfaplace_rt::timer::count("graph/pool_recycled_bytes", db);
            self.flushed_bytes = self.recycled_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_hits() {
        let mut pool = BufferPool::default();
        let a = pool.take(16);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
        pool.give(a);
        assert_eq!(pool.retained(), 1);
        let b = pool.take(16);
        assert_eq!(pool.hits(), 1);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(pool.recycled_bytes(), 64);
    }

    #[test]
    fn take_zeroes_recycled_contents() {
        let mut pool = BufferPool::default();
        let mut a = pool.take(4);
        a.iter_mut().for_each(|x| *x = 7.0);
        pool.give(a);
        assert!(pool.take(4).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_any_reuses_without_zeroing_guarantee() {
        let mut pool = BufferPool::default();
        let mut a = pool.take_any(8);
        a.iter_mut().for_each(|x| *x = 3.0);
        pool.give(a);
        let b = pool.take_any(8);
        assert_eq!(b.len(), 8);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn size_classes_do_not_cross() {
        let mut pool = BufferPool::default();
        pool.give(vec![1.0; 8]);
        let _ = pool.take(9);
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.retained(), 1);
    }

    #[test]
    fn class_capacity_is_bounded() {
        let mut pool = BufferPool::default();
        for _ in 0..(MAX_PER_CLASS + 10) {
            pool.give(vec![0.0; 4]);
        }
        assert_eq!(pool.retained(), MAX_PER_CLASS);
    }

    #[test]
    fn empty_and_zero_len_are_noops() {
        let mut pool = BufferPool::default();
        pool.give(Vec::new());
        assert_eq!(pool.retained(), 0);
        assert!(pool.take(0).is_empty());
        assert!(pool.take_any(0).is_empty());
    }

    #[test]
    fn clone_starts_empty() {
        let mut pool = BufferPool::default();
        pool.give(vec![0.0; 4]);
        let _ = pool.take(4);
        let cloned = pool.clone();
        assert_eq!(cloned.retained(), 0);
        assert_eq!(cloned.hits(), 0);
        assert_eq!(cloned.misses(), 0);
    }
}
