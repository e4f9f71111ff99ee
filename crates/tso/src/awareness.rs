//! Awareness sets (Definition 1 of the paper).
//!
//! Process `p` is *aware of* `q` after execution `E` if `p = q` or there is
//! information flow from `q` to `p` through shared memory: `p` read a
//! variable last committed by `q`, or last committed by some `r` that was
//! aware of `q` **at the time `r` issued that write**.
//!
//! The "at issue time" clause is why buffered writes carry a snapshot of the
//! issuer's awareness set (see [`crate::buffer::PendingWrite`]).
//!
//! Awareness sets only grow along an execution. They are represented as
//! copy-on-write shared sets so that snapshotting at write-issue time is
//! O(1) and memory stays proportional to the number of distinct sets.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ids::ProcId;

/// A copy-on-write awareness set.
#[derive(PartialEq, Eq)]
pub struct AwSet {
    inner: Arc<BTreeSet<ProcId>>,
}

impl Clone for AwSet {
    fn clone(&self) -> Self {
        AwSet {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Leaves the reference count alone when `self` already shares
    /// `src`'s set, which is the common case when a recycled search
    /// machine is overwritten: search forks never grow awareness.
    fn clone_from(&mut self, src: &Self) {
        if !Arc::ptr_eq(&self.inner, &src.inner) {
            self.inner = Arc::clone(&src.inner);
        }
    }
}

impl AwSet {
    /// The initial awareness set of process `p`: `{p}`.
    pub fn singleton(p: ProcId) -> Self {
        let mut s = BTreeSet::new();
        s.insert(p);
        AwSet { inner: Arc::new(s) }
    }

    /// An empty awareness set (used for never-scheduled processes).
    pub fn empty() -> Self {
        AwSet {
            inner: Arc::new(BTreeSet::new()),
        }
    }

    /// Returns `true` if the set contains `p`.
    pub fn contains(&self, p: ProcId) -> bool {
        self.inner.contains(&p)
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts a single process.
    pub fn insert(&mut self, p: ProcId) {
        if !self.inner.contains(&p) {
            Arc::make_mut(&mut self.inner).insert(p);
        }
    }

    /// Merges `other` into `self` (set union).
    pub fn union_with(&mut self, other: &AwSet) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let missing: Vec<ProcId> = other
            .inner
            .iter()
            .filter(|p| !self.inner.contains(p))
            .copied()
            .collect();
        if !missing.is_empty() {
            let set = Arc::make_mut(&mut self.inner);
            set.extend(missing);
        }
    }

    /// O(1) snapshot of the current contents (copy-on-write share).
    pub fn snapshot(&self) -> AwSet {
        self.clone()
    }

    /// Iterates the members in increasing ID order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.inner.iter().copied()
    }

    /// Returns `true` if the intersection of `self` with `others` is
    /// contained in `{me}` — the IN1 condition of Definition 4 for one
    /// process.
    pub fn intersects_only_self(&self, me: ProcId, others: &BTreeSet<ProcId>) -> bool {
        self.inner.iter().all(|p| *p == me || !others.contains(p))
    }
}

impl fmt::Debug for AwSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.inner.iter()).finish()
    }
}

impl FromIterator<ProcId> for AwSet {
    fn from_iter<T: IntoIterator<Item = ProcId>>(iter: T) -> Self {
        AwSet {
            inner: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_contains_only_self() {
        let s = AwSet::singleton(ProcId(3));
        assert!(s.contains(ProcId(3)));
        assert!(!s.contains(ProcId(4)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshot_is_immutable_under_later_growth() {
        let mut s = AwSet::singleton(ProcId(0));
        let snap = s.snapshot();
        s.insert(ProcId(1));
        s.insert(ProcId(2));
        assert_eq!(snap.len(), 1, "snapshot must not see later insertions");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_merges_both_sides() {
        let mut a = AwSet::singleton(ProcId(0));
        let b: AwSet = [ProcId(1), ProcId(2)].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(ProcId(1)));
        assert!(a.contains(ProcId(2)));
        // b unchanged.
        assert_eq!(b.len(), 2);
        assert!(!b.contains(ProcId(0)));
    }

    #[test]
    fn union_with_self_is_noop() {
        let mut a = AwSet::singleton(ProcId(0));
        let b = a.clone();
        a.union_with(&b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn in1_check() {
        let invisible: BTreeSet<ProcId> = [ProcId(5), ProcId(6)].into_iter().collect();
        let ok = AwSet::singleton(ProcId(5));
        assert!(ok.intersects_only_self(ProcId(5), &invisible));
        let bad: AwSet = [ProcId(5), ProcId(6)].into_iter().collect();
        assert!(!bad.intersects_only_self(ProcId(5), &invisible));
        let unrelated: AwSet = [ProcId(1), ProcId(2)].into_iter().collect();
        assert!(unrelated.intersects_only_self(ProcId(1), &invisible));
    }

    #[test]
    fn iter_in_id_order() {
        let s: AwSet = [ProcId(4), ProcId(1), ProcId(3)].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![ProcId(1), ProcId(3), ProcId(4)]);
    }
}
