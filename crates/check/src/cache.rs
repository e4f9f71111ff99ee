//! The visited-state cache: hash-sharded, sleep-set- and rank-aware.
//!
//! A state may be revisited along many schedules; a revisit can be
//! skipped only if an earlier visit *subsumes* it. With one thread the
//! classic condition is "an earlier visit had a subset sleep set"; with
//! many threads "earlier" is no longer well-defined, so entries carry two
//! extra tags that make subsumption independent of the order workers
//! happen to reach states:
//!
//! * **depth** — a visit only covers the subtree reachable within the
//!   remaining step budget, so a shallow visit subsumes a deeper revisit
//!   but not vice versa;
//! * **rank** — the path of sibling indices from the root. A visit may
//!   only suppress revisits at lexicographically *greater-or-equal*
//!   ranks. This is what makes the reported witness deterministic: the
//!   lexicographically least violating path can never be suppressed by a
//!   cache entry from a lexicographically later part of the tree, no
//!   matter which worker got there first.
//!
//! Entries live in `Mutex<HashMap>` shards selected by the state key's
//! low bits, so concurrent lookups of different states rarely contend.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tpa_tso::{FxBuildHasher, StateKey};

use crate::sleep::SleepSet;

/// A node's position in the schedule tree: the sibling index (within the
/// parent's `enabled_all` order) of every edge from the root. Ordering
/// rank vectors lexicographically orders nodes in sequential-DFS
/// visitation order.
pub(crate) type Rank = Arc<[u32]>;

struct CacheEntry {
    sleep: SleepSet,
    depth: u32,
    rank: Rank,
}

impl CacheEntry {
    /// Whether this recorded visit already covers a visit at
    /// `(sleep, depth, rank)`: it had at least as many directives awake,
    /// at least as much remaining depth budget, and sits at a
    /// lexicographically earlier-or-equal position.
    fn subsumes(&self, sleep: &SleepSet, depth: u32, rank: &[u32]) -> bool {
        self.depth <= depth && self.rank.as_ref() <= rank && self.sleep.is_subset(sleep)
    }
}

/// The concurrent visited-state cache.
pub(crate) struct StateCache {
    shards: Vec<Mutex<HashMap<StateKey, Vec<CacheEntry>, FxBuildHasher>>>,
    /// `shards.len() - 1` (the shard count is a power of two).
    mask: usize,
}

impl StateCache {
    /// A sharded cache with at least `shards` shards (rounded up to a
    /// power of two). One shard is enough for sequential search;
    /// parallel search wants several per worker.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        StateCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
            mask: n - 1,
        }
    }

    /// Records a visit to `key` unless an already-recorded visit subsumes
    /// it. Returns `None` if the visit is covered; otherwise the caller
    /// should expand the node, and gets the number of recorded entries
    /// the new visit evicted by subsuming them.
    pub fn try_visit(
        &self,
        key: StateKey,
        sleep: &SleepSet,
        depth: u32,
        rank: &Rank,
    ) -> Option<u64> {
        let mut shard = self.shards[(key.0 as usize) & self.mask]
            .lock()
            .expect("state-cache shard poisoned");
        let entries = shard.entry(key).or_default();
        if entries.iter().any(|e| e.subsumes(sleep, depth, rank)) {
            return None;
        }
        // Drop entries the new visit subsumes, so per-key lists stay short.
        let before = entries.len();
        entries.retain(|e| {
            !(depth <= e.depth && rank.as_ref() <= e.rank.as_ref() && sleep.is_subset(&e.sleep))
        });
        let evicted = (before - entries.len()) as u64;
        entries.push(CacheEntry {
            sleep: sleep.clone(),
            depth,
            rank: rank.clone(),
        });
        Some(evicted)
    }

    /// Every live entry, grouped by state key and sorted by key — the
    /// checkpoint image of the cache. Rebuilding a cache by
    /// `try_visit`ing each exported entry reproduces both the entry set
    /// and `unique_states` exactly: live entries are pairwise
    /// non-subsuming (`try_visit` rejects subsumed inserts and evicts
    /// subsumed residents), so every import is accepted, in any order.
    pub fn export(&self) -> Vec<(u64, Vec<crate::checkpoint::CacheEntryData>)> {
        let data = |entries: &[CacheEntry]| {
            entries
                .iter()
                .map(|e| crate::checkpoint::CacheEntryData {
                    sleep: e.sleep.iter().collect(),
                    depth: e.depth,
                    rank: e.rank.to_vec(),
                })
                .collect()
        };
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("state-cache shard poisoned");
            for (key, entries) in shard.iter() {
                out.push((key.0, data(entries)));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Number of distinct states recorded.
    pub fn unique_states(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("state-cache shard poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_tso::{Directive, ProcId};

    /// `c.try_visit` of state `key` with `asleep` processes' issues
    /// asleep.
    fn visit(c: &StateCache, key: u64, asleep: &[u32], depth: u32, rank: &[u32]) -> Option<u64> {
        let mut sleep = SleepSet::empty();
        for &p in asleep {
            sleep.insert(Directive::Issue(ProcId(p)));
        }
        c.try_visit(StateKey(key), &sleep, depth, &Arc::from(rank))
    }

    #[test]
    fn first_visit_always_expands() {
        let c = StateCache::new(1);
        assert_eq!(visit(&c, 7, &[], 0, &[]), Some(0));
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn subset_sleep_at_earlier_rank_subsumes() {
        let c = StateCache::new(1);
        assert_eq!(visit(&c, 7, &[1], 2, &[0, 1]), Some(0));
        // More asleep, deeper, later: covered.
        assert_eq!(visit(&c, 7, &[1, 2], 3, &[0, 2]), None);
        // Fewer asleep: must re-expand.
        assert!(visit(&c, 7, &[], 3, &[0, 2]).is_some());
    }

    #[test]
    fn later_rank_entry_cannot_suppress_an_earlier_visit() {
        let c = StateCache::new(1);
        assert_eq!(visit(&c, 9, &[], 2, &[1, 0]), Some(0));
        // Same state reached on a lexicographically earlier path — the
        // deterministic-witness guarantee requires re-expansion.
        assert!(visit(&c, 9, &[], 2, &[0, 5]).is_some());
        // And now the later-rank revisit *is* covered by the earlier one.
        assert_eq!(visit(&c, 9, &[], 2, &[1, 0]), None);
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn subsumption_evictions_are_counted() {
        let c = StateCache::new(1);
        assert_eq!(visit(&c, 7, &[1, 2], 4, &[2]), Some(0));
        // A strictly stronger visit (fewer asleep, shallower, earlier)
        // evicts the recorded one.
        assert_eq!(visit(&c, 7, &[], 2, &[1]), Some(1));
    }

    #[test]
    fn shallower_revisit_is_not_skipped() {
        let c = StateCache::new(1);
        assert_eq!(visit(&c, 3, &[], 5, &[0]), Some(0));
        // Same state, same sleep, but more remaining budget: expand.
        assert!(visit(&c, 3, &[], 1, &[4]).is_some());
    }
}
