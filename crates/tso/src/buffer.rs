//! Per-process TSO write buffers.
//!
//! The TSO model allows at most a single pending write per variable in a
//! buffer: issuing a second write to the same variable *replaces the older
//! write in place* (Section 2 of the paper), rather than enqueueing a new
//! entry. Commits drain the buffer in FIFO order of first issue.

use std::collections::VecDeque;

use crate::awareness::AwSet;
use crate::ids::{Value, VarId};

/// A pending (issued but uncommitted) write.
#[derive(Debug)]
pub struct PendingWrite {
    /// Variable written.
    pub var: VarId,
    /// Value to commit.
    pub value: Value,
    /// Snapshot of the issuer's awareness set at *issue* time. Definition 1
    /// of the paper propagates the awareness the writer had **when it issued
    /// the write**, not when the write commits, so the snapshot travels with
    /// the buffered write.
    pub aw_snapshot: AwSet,
}

impl Clone for PendingWrite {
    fn clone(&self) -> Self {
        PendingWrite {
            var: self.var,
            value: self.value,
            aw_snapshot: self.aw_snapshot.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.var = src.var;
        self.value = src.value;
        self.aw_snapshot.clone_from(&src.aw_snapshot);
    }
}

/// A TSO write buffer: FIFO over variables, coalescing per variable.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    entries: VecDeque<PendingWrite>,
}

impl Clone for WriteBuffer {
    fn clone(&self) -> Self {
        WriteBuffer {
            entries: self.entries.clone(),
        }
    }

    /// Overwrites `self` in place, keeping its allocation and overwriting
    /// entries one by one (`VecDeque::clone_from` drops and re-clones
    /// every entry).
    fn clone_from(&mut self, src: &Self) {
        self.entries.truncate(src.entries.len());
        let kept = self.entries.len();
        for (dst, w) in self.entries.iter_mut().zip(&src.entries) {
            dst.clone_from(w);
        }
        self.entries.extend(src.entries.range(kept..).cloned());
    }
}

impl WriteBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pending writes (at most one per distinct variable).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Issues a write. If a write to `var` is already pending, it is
    /// replaced in place (keeping its buffer position); otherwise the write
    /// goes to the back of the buffer.
    pub fn issue(&mut self, var: VarId, value: Value, aw_snapshot: AwSet) {
        match self.entries.iter_mut().find(|w| w.var == var) {
            Some(entry) => {
                entry.value = value;
                entry.aw_snapshot = aw_snapshot;
            }
            None => self.entries.push_back(PendingWrite {
                var,
                value,
                aw_snapshot,
            }),
        }
    }

    /// Removes and returns the oldest pending write, if any.
    pub fn pop_oldest(&mut self) -> Option<PendingWrite> {
        self.entries.pop_front()
    }

    /// Removes and returns the pending write to `var`, if any — the PSO
    /// commit primitive (per-variable order only).
    pub fn pop_var(&mut self, var: VarId) -> Option<PendingWrite> {
        let idx = self.entries.iter().position(|w| w.var == var)?;
        self.entries.remove(idx)
    }

    /// Returns the oldest pending write without removing it.
    pub fn peek_oldest(&self) -> Option<&PendingWrite> {
        self.entries.front()
    }

    /// Returns the pending value for `var`, if the buffer holds one. This is
    /// the value a read by the owning process observes (TSO store-to-load
    /// forwarding).
    pub fn pending_value(&self, var: VarId) -> Option<Value> {
        self.entries.iter().find(|w| w.var == var).map(|w| w.value)
    }

    /// Returns `true` if the buffer holds a pending write to `var`.
    pub fn contains(&self, var: VarId) -> bool {
        self.entries.iter().any(|w| w.var == var)
    }

    /// Iterates over pending writes in commit (FIFO) order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingWrite> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;

    fn aw(p: u32) -> AwSet {
        AwSet::singleton(ProcId(p))
    }

    #[test]
    fn empty_buffer() {
        let b = WriteBuffer::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.pending_value(VarId(0)), None);
    }

    #[test]
    fn fifo_commit_order() {
        let mut b = WriteBuffer::new();
        b.issue(VarId(0), 10, aw(0));
        b.issue(VarId(1), 11, aw(0));
        b.issue(VarId(2), 12, aw(0));
        assert_eq!(b.pop_oldest().unwrap().var, VarId(0));
        assert_eq!(b.pop_oldest().unwrap().var, VarId(1));
        assert_eq!(b.pop_oldest().unwrap().var, VarId(2));
        assert!(b.pop_oldest().is_none());
    }

    #[test]
    fn coalescing_replaces_in_place() {
        let mut b = WriteBuffer::new();
        b.issue(VarId(0), 10, aw(0));
        b.issue(VarId(1), 11, aw(0));
        // Re-write v0: must keep its position at the front, with new value.
        b.issue(VarId(0), 99, aw(0));
        assert_eq!(b.len(), 2, "coalesced, not appended");
        let first = b.pop_oldest().unwrap();
        assert_eq!(first.var, VarId(0));
        assert_eq!(first.value, 99);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = WriteBuffer::new();
        b.issue(VarId(3), 42, aw(1));
        assert_eq!(b.pending_value(VarId(3)), Some(42));
        assert!(b.contains(VarId(3)));
        assert!(!b.contains(VarId(4)));
        b.issue(VarId(3), 43, aw(1));
        assert_eq!(b.pending_value(VarId(3)), Some(43));
    }

    #[test]
    fn at_most_one_pending_write_per_variable() {
        let mut b = WriteBuffer::new();
        for i in 0..100 {
            b.issue(VarId(7), i, aw(0));
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop_oldest().unwrap().value, 99);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut b = WriteBuffer::new();
        b.issue(VarId(0), 1, aw(0));
        assert_eq!(b.peek_oldest().unwrap().var, VarId(0));
        assert_eq!(b.len(), 1);
    }
}
