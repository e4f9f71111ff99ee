//! Sorted small-vector sleep sets.
//!
//! The explorer consults a node's sleep set once per enabled directive
//! (`contains`) and compares whole sets during cache subsumption
//! (`is_subset`). Sleep sets are tiny — bounded by the number of enabled
//! directives, typically under a dozen — so a sorted `Vec` beats a hash
//! set: membership is a branch-predictable binary search, subset testing
//! is a single merge walk instead of the old O(n²) `contains` scan, and
//! forking a node clones one flat allocation.

use tpa_tso::Directive;

/// A sorted set of directives currently asleep (their exploration is
/// covered by an already-explored sibling subtree).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SleepSet(Vec<Directive>);

impl SleepSet {
    /// The empty sleep set (every directive awake).
    pub const fn empty() -> Self {
        SleepSet(Vec::new())
    }

    /// Whether `d` is asleep.
    pub fn contains(&self, d: Directive) -> bool {
        self.0.binary_search(&d).is_ok()
    }

    /// Puts `d` to sleep (no-op if already asleep).
    pub fn insert(&mut self, d: Directive) {
        if let Err(i) = self.0.binary_search(&d) {
            self.0.insert(i, d);
        }
    }

    /// Wakes every sleeper, keeping the storage for reuse.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Whether every sleeper of `self` is also asleep in `other` — a
    /// merge walk over the two sorted vectors.
    pub fn is_subset(&self, other: &SleepSet) -> bool {
        let mut theirs = other.0.iter();
        'mine: for d in &self.0 {
            for t in theirs.by_ref() {
                match t.cmp(d) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'mine,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// The sleepers, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Directive> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_tso::ProcId;

    fn issue(p: u32) -> Directive {
        Directive::Issue(ProcId(p))
    }

    #[test]
    fn insert_keeps_sorted_and_dedups() {
        let mut s = SleepSet::empty();
        for p in [3, 1, 2, 1, 3] {
            s.insert(issue(p));
        }
        let got: Vec<Directive> = s.iter().collect();
        assert_eq!(got, vec![issue(1), issue(2), issue(3)]);
        assert!(s.contains(issue(2)));
        assert!(!s.contains(issue(4)));
    }

    #[test]
    fn subset_is_a_merge_walk() {
        let mut small = SleepSet::empty();
        let mut big = SleepSet::empty();
        for p in [1, 3] {
            small.insert(issue(p));
        }
        for p in [0, 1, 2, 3] {
            big.insert(issue(p));
        }
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(SleepSet::empty().is_subset(&small));
        assert!(small.is_subset(&small));
    }
}
