//! The visited-state cache: hash-sharded, sleep-set- and rank-aware.
//!
//! A state may be revisited along many schedules; a revisit can be
//! skipped only if an earlier visit *subsumes* it. Entries carry three
//! tags:
//!
//! * **sleep set** — a visit covers a revisit whose sleep set is a
//!   superset of its own (at least as many directives were awake);
//! * **depth** — a visit only covers the subtree reachable within the
//!   remaining step budget, so a shallow visit subsumes a deeper revisit
//!   but not vice versa;
//! * **rank** — the path of sibling indices from the root.
//!
//! Sleep set and depth are all a *verdict* needs: with them alone the
//! cache is the classic sound combination of sleep sets and state
//! caching (Godefroid), whatever order workers reach states in. A
//! *ranked* cache adds the **rank test**: a visit may only suppress
//! revisits at lexicographically greater-or-equal ranks. That makes a
//! search report the lexicographically least violating path no matter
//! which visit reached a state first, and it costs re-expansions: a state
//! first reached from a later subtree is expanded again when an earlier
//! subtree reaches it. Only the sequential witness search
//! ([`crate::parallel`]) pays for it; the parallel verdict search builds
//! its cache without it. Entries keep their rank either way, so a
//! checkpoint image has one layout.
//!
//! A [`Rank`] is stored as a byte string whose byte order is the index
//! path's lexicographic order, typically one byte per edge. The byte
//! length is not the depth (a wide index takes five bytes), so entries
//! keep their depth beside the rank.
//!
//! Entries live in `Mutex<HashMap>` shards selected by the state key's
//! low bits, so concurrent lookups of different states rarely contend.
//! Each key's entry list is allocated at its exact length: most keys
//! hold one or two entries, and a doubling `Vec` would reserve four.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tpa_tso::{FxBuildHasher, StateKey};

use crate::sleep::SleepSet;

/// Lead byte of an index that does not fit in one byte; its four
/// big-endian bytes follow.
const WIDE: u8 = 0xFF;

/// A node's position in the schedule tree: the sibling index (within the
/// parent's `enabled_all` order) of every edge from the root. Ordering
/// ranks orders nodes in sequential-DFS visitation order.
///
/// The indices are encoded so that byte order equals index-path order:
/// an index below 255 is one byte, any other is [`WIDE`] followed by its
/// four big-endian bytes. Every one-byte index sorts below every wide
/// one, wide indices compare by their big-endian bytes, and a proper
/// prefix sorts first, so the derived `Ord` is one `memcmp`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Rank(Arc<[u8]>);

/// The encoding of one sibling index, and how many of its bytes are used.
fn encode(index: u32) -> ([u8; 5], usize) {
    match u8::try_from(index) {
        Ok(b) if b != WIDE => ([b, 0, 0, 0, 0], 1),
        _ => {
            let [a, b, c, d] = index.to_be_bytes();
            ([WIDE, a, b, c, d], 5)
        }
    }
}

impl Rank {
    /// Overwrites `buf` with the bytes of this node's `index`-th child's
    /// rank. A worker builds every child's rank in one reused buffer, and
    /// [`StateCache::try_visit`] turns it into a `Rank` only for a child
    /// it records.
    pub fn child_into(&self, index: u32, buf: &mut Vec<u8>) {
        let (tail, len) = encode(index);
        buf.clear();
        buf.extend_from_slice(&self.0);
        buf.extend_from_slice(&tail[..len]);
    }

    /// The rank whose bytes are `bytes`, as written by
    /// [`Rank::child_into`] or returned by [`Rank::as_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Rank {
        Rank(Arc::from(bytes))
    }

    /// The encoded bytes, whose order is the rank order.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The rank of the path `indices`.
    pub fn from_indices(indices: &[u32]) -> Rank {
        let mut bytes = Vec::with_capacity(indices.len());
        for &i in indices {
            let (enc, len) = encode(i);
            bytes.extend_from_slice(&enc[..len]);
        }
        Rank(Arc::from(bytes))
    }

    /// The sibling indices from the root, decoded.
    pub fn indices(&self) -> impl Iterator<Item = u32> + '_ {
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            let (&lead, tail) = rest.split_first()?;
            if lead != WIDE {
                rest = tail;
                return Some(lead as u32);
            }
            let (wide, tail) = tail.split_at(4);
            rest = tail;
            Some(u32::from_be_bytes(wide.try_into().expect("four bytes")))
        })
    }
}

struct CacheEntry {
    sleep: SleepSet,
    depth: u32,
    rank: Rank,
}

impl CacheEntry {
    fn tags(&self) -> (&SleepSet, u32, &[u8]) {
        (&self.sleep, self.depth, self.rank.as_bytes())
    }
}

/// Whether a visit at `(sleep, depth, rank)` covers one at `(other_sleep,
/// other_depth, other_rank)`: it had at least as many directives awake,
/// at least as much remaining depth budget and, when `ranked`, sits at a
/// lexicographically earlier-or-equal position (ranks as their bytes).
fn covers(
    (sleep, depth, rank): (&SleepSet, u32, &[u8]),
    (other_sleep, other_depth, other_rank): (&SleepSet, u32, &[u8]),
    ranked: bool,
) -> bool {
    depth <= other_depth && (!ranked || rank <= other_rank) && sleep.is_subset(other_sleep)
}

/// The concurrent visited-state cache.
pub(crate) struct StateCache {
    shards: Vec<Mutex<HashMap<StateKey, Vec<CacheEntry>, FxBuildHasher>>>,
    /// `shards.len() - 1` (the shard count is a power of two).
    mask: usize,
    /// Whether subsumption applies the rank test.
    ranked: bool,
}

impl StateCache {
    /// A sharded cache with at least `shards` shards (rounded up to a
    /// power of two), applying the rank test when `ranked`. One shard is
    /// enough for sequential search; parallel search wants several per
    /// worker.
    pub fn new(shards: usize, ranked: bool) -> Self {
        let n = shards.max(1).next_power_of_two();
        StateCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
            mask: n - 1,
            ranked,
        }
    }

    /// Records a visit to `key` at the rank whose bytes are `rank` unless
    /// an already-recorded visit subsumes it. Returns `None` if the visit
    /// is covered; otherwise the caller should expand the node, and gets
    /// the number of recorded entries the new visit evicted by subsuming
    /// them, and the recorded rank. The rank is allocated only here, for
    /// a visit that is recorded.
    pub fn try_visit(
        &self,
        key: StateKey,
        sleep: &SleepSet,
        depth: u32,
        rank: &[u8],
    ) -> Option<(u64, Rank)> {
        let mut shard = self.shards[(key.0 as usize) & self.mask]
            .lock()
            .expect("state-cache shard poisoned");
        let entries = shard.entry(key).or_default();
        let visit = (sleep, depth, rank);
        if entries.iter().any(|e| covers(e.tags(), visit, self.ranked)) {
            return None;
        }
        // Drop entries the new visit subsumes, so per-key lists stay short.
        let before = entries.len();
        entries.retain(|e| !covers(visit, e.tags(), self.ranked));
        let evicted = (before - entries.len()) as u64;
        let rank = Rank::from_bytes(rank);
        entries.reserve_exact(1);
        entries.push(CacheEntry {
            sleep: sleep.clone(),
            depth,
            rank: rank.clone(),
        });
        Some((evicted, rank))
    }

    /// Every live entry, grouped by state key and sorted by key — the
    /// checkpoint image of the cache. Rebuilding a cache with the same
    /// rank setting by `try_visit`ing each exported entry reproduces both
    /// the entry set and `unique_states` exactly: live entries are
    /// pairwise non-subsuming (`try_visit` rejects subsumed inserts and
    /// evicts subsumed residents), so every import is accepted, in any
    /// order.
    pub fn export(&self) -> Vec<(u64, Vec<crate::checkpoint::CacheEntryData>)> {
        let data = |entries: &[CacheEntry]| {
            entries
                .iter()
                .map(|e| crate::checkpoint::CacheEntryData {
                    sleep: e.sleep.iter().collect(),
                    depth: e.depth,
                    rank: e.rank.indices().collect(),
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
        c.try_visit(
            StateKey(key),
            &sleep,
            depth,
            Rank::from_indices(rank).as_bytes(),
        )
        .map(|(evicted, _)| evicted)
    }

    #[test]
    fn first_visit_always_expands() {
        let c = StateCache::new(1, true);
        assert_eq!(visit(&c, 7, &[], 0, &[]), Some(0));
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn subset_sleep_at_earlier_rank_subsumes() {
        let c = StateCache::new(1, true);
        assert_eq!(visit(&c, 7, &[1], 2, &[0, 1]), Some(0));
        // More asleep, deeper, later: covered.
        assert_eq!(visit(&c, 7, &[1, 2], 3, &[0, 2]), None);
        // Fewer asleep: must re-expand.
        assert!(visit(&c, 7, &[], 3, &[0, 2]).is_some());
    }

    #[test]
    fn later_rank_entry_cannot_suppress_an_earlier_visit() {
        let c = StateCache::new(1, true);
        assert_eq!(visit(&c, 9, &[], 2, &[1, 0]), Some(0));
        // Same state reached on a lexicographically earlier path — the
        // deterministic-witness guarantee requires re-expansion.
        assert!(visit(&c, 9, &[], 2, &[0, 5]).is_some());
        // And now the later-rank revisit *is* covered by the earlier one.
        assert_eq!(visit(&c, 9, &[], 2, &[1, 0]), None);
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn without_the_rank_test_any_earlier_visit_subsumes() {
        let c = StateCache::new(1, false);
        assert_eq!(visit(&c, 9, &[], 2, &[1, 0]), Some(0));
        // An earlier rank no longer forces re-expansion…
        assert_eq!(visit(&c, 9, &[1], 2, &[0, 5]), None);
        // …but fewer sleepers or a shallower depth still do, and the
        // stronger visit evicts the recorded one whatever its rank.
        assert!(visit(&c, 9, &[], 1, &[2]).is_some());
        assert_eq!(visit(&c, 9, &[], 0, &[3]), Some(1));
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn subsumption_evictions_are_counted() {
        let c = StateCache::new(1, true);
        assert_eq!(visit(&c, 7, &[1, 2], 4, &[2]), Some(0));
        // A strictly stronger visit (fewer asleep, shallower, earlier)
        // evicts the recorded one.
        assert_eq!(visit(&c, 7, &[], 2, &[1]), Some(1));
    }

    /// Random index paths mixing one-byte and wide indices (255 itself
    /// included), with every proper prefix of each path added.
    fn random_paths() -> Vec<Vec<u32>> {
        let mut rng = tpa_tso::sched::XorShift::new(15);
        let mut paths = Vec::new();
        for _ in 0..200 {
            let len = rng.below(8);
            let path: Vec<u32> = (0..len)
                .map(|_| match rng.below(4) {
                    0 => rng.below(4) as u32,
                    1 => 253 + rng.below(5) as u32,
                    2 => rng.next_u64() as u32,
                    _ => u32::MAX - rng.below(2) as u32,
                })
                .collect();
            for cut in 0..len {
                paths.push(path[..cut].to_vec());
            }
            paths.push(path);
        }
        paths
    }

    #[test]
    fn rank_order_is_index_path_order() {
        let paths = random_paths();
        let ranks: Vec<Rank> = paths.iter().map(|p| Rank::from_indices(p)).collect();
        for (a, ra) in paths.iter().zip(&ranks) {
            for (b, rb) in paths.iter().zip(&ranks) {
                assert_eq!(ra.cmp(rb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn rank_decodes_to_its_indices() {
        for path in random_paths() {
            let rank = Rank::from_indices(&path);
            assert_eq!(rank.indices().collect::<Vec<u32>>(), path);
            // Building child by child gives the same bytes.
            let mut buf = Vec::new();
            let built = path.iter().fold(Rank::from_indices(&[]), |r, &i| {
                r.child_into(i, &mut buf);
                Rank::from_bytes(&buf)
            });
            assert_eq!(built, rank);
        }
    }

    #[test]
    fn narrow_indices_take_one_byte_each() {
        let path: Vec<u32> = (0..60).map(|i| (i * 7 % 255) as u32).collect();
        assert_eq!(Rank::from_indices(&path).0.len(), 60);
        assert_eq!(Rank::from_indices(&[255]).0.len(), 5);
    }

    #[test]
    fn shallower_revisit_is_not_skipped() {
        let c = StateCache::new(1, true);
        assert_eq!(visit(&c, 3, &[], 5, &[0]), Some(0));
        // Same state, same sleep, but more remaining budget: expand.
        assert!(visit(&c, 3, &[], 1, &[4]).is_some());
    }
}
