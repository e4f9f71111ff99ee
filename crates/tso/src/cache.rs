//! Cache-coherence directories for RMR accounting in the CC model.
//!
//! The paper's results hold for both the write-through and write-back
//! coherence protocols (quoted from Golab et al. in Section 2). Values are
//! always taken from shared memory / write buffers — the directories here
//! exist purely to decide whether a given access incurs an RMR under each
//! protocol, so one simulated execution yields RMR counts for DSM, CC
//! write-through and CC write-back simultaneously.
//!
//! Write-through rules:
//! * read: hit iff the reader holds a valid copy; a miss incurs an RMR and
//!   creates a copy.
//! * write: always an RMR; invalidates all *other* copies (the writer's own
//!   copy, if any, is updated and stays valid).
//!
//! Write-back rules:
//! * read: hit iff the reader holds a copy (shared or exclusive); a miss
//!   incurs an RMR, downgrades any exclusive holder to shared, and creates
//!   a shared copy.
//! * write: hit iff the writer holds an exclusive copy; otherwise an RMR
//!   that invalidates all other copies and grants the writer exclusivity.

use std::collections::HashSet;

use crate::ids::{ProcId, VarId};

/// Per-variable cache directory state for both protocols.
#[derive(Clone, Debug, Default)]
struct CacheLine {
    /// Processes holding a valid write-through copy.
    wt: HashSet<ProcId>,
    /// Processes holding a shared write-back copy.
    wb_shared: HashSet<ProcId>,
    /// Process holding the exclusive write-back copy, if any. Invariant:
    /// when set, `wb_shared` is empty.
    wb_excl: Option<ProcId>,
}

/// Whether an access was a cache hit or an RMR, per protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CcCost {
    /// RMR under the write-through protocol.
    pub wt_rmr: bool,
    /// RMR under the write-back protocol.
    pub wb_rmr: bool,
}

/// Cache directories for all variables of a system.
#[derive(Clone, Debug)]
pub struct CacheDir {
    lines: Vec<CacheLine>,
}

impl CacheDir {
    /// Creates directories for `var_count` variables, all uncached.
    pub fn new(var_count: usize) -> Self {
        CacheDir {
            lines: vec![CacheLine::default(); var_count],
        }
    }

    /// Records a read of `var` by `p` and returns its CC cost.
    pub fn read(&mut self, p: ProcId, var: VarId) -> CcCost {
        let line = &mut self.lines[var.index()];

        let wt_rmr = !line.wt.contains(&p);
        if wt_rmr {
            line.wt.insert(p);
        }

        let wb_hit = line.wb_excl == Some(p) || line.wb_shared.contains(&p);
        if !wb_hit {
            if let Some(q) = line.wb_excl.take() {
                line.wb_shared.insert(q);
            }
            line.wb_shared.insert(p);
        }

        CcCost {
            wt_rmr,
            wb_rmr: !wb_hit,
        }
    }

    /// Records a write commit to `var` by `p` and returns its CC cost.
    pub fn write(&mut self, p: ProcId, var: VarId) -> CcCost {
        let line = &mut self.lines[var.index()];

        // Write-through: always an RMR; invalidate all other copies, keep
        // (and update) the writer's own copy if present.
        line.wt.retain(|q| *q == p);
        let wt_rmr = true;

        // Write-back: hit iff exclusive holder.
        let wb_rmr = line.wb_excl != Some(p);
        if wb_rmr {
            line.wb_shared.clear();
            line.wb_excl = Some(p);
        }

        CcCost { wt_rmr, wb_rmr }
    }

    /// Drops every cached copy held by a process in `erased` (in-place
    /// erasure support). Survivors' copies are kept; an exclusive
    /// write-back line held by an erased process becomes uncached. Note
    /// that survivors' *future* hit/miss behaviour may then differ from a
    /// from-scratch replay without the erased processes — cache state is
    /// history-dependent — which only perturbs the CC RMR counters, never
    /// values or criticality.
    pub fn purge(&mut self, erased: &std::collections::BTreeSet<ProcId>) {
        for line in &mut self.lines {
            line.wt.retain(|p| !erased.contains(p));
            line.wb_shared.retain(|p| !erased.contains(p));
            if let Some(q) = line.wb_excl {
                if erased.contains(&q) {
                    line.wb_excl = None;
                }
            }
        }
    }

    /// Returns `true` if `p` holds any write-back copy of `var`.
    pub fn wb_holds(&self, p: ProcId, var: VarId) -> bool {
        let line = &self.lines[var.index()];
        line.wb_excl == Some(p) || line.wb_shared.contains(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: VarId = VarId(0);

    #[test]
    fn wt_first_read_misses_then_hits() {
        let mut d = CacheDir::new(1);
        assert!(d.read(ProcId(0), V).wt_rmr);
        assert!(!d.read(ProcId(0), V).wt_rmr);
    }

    #[test]
    fn wt_write_always_rmr_and_invalidates_others() {
        let mut d = CacheDir::new(1);
        d.read(ProcId(0), V);
        d.read(ProcId(1), V);
        let c = d.write(ProcId(2), V);
        assert!(c.wt_rmr);
        // Other copies invalidated.
        assert!(d.read(ProcId(0), V).wt_rmr);
        assert!(d.read(ProcId(1), V).wt_rmr);
    }

    #[test]
    fn wt_writer_keeps_own_copy() {
        let mut d = CacheDir::new(1);
        d.read(ProcId(0), V);
        d.write(ProcId(0), V);
        assert!(
            !d.read(ProcId(0), V).wt_rmr,
            "own copy stays valid across own write"
        );
    }

    #[test]
    fn wb_read_miss_downgrades_exclusive() {
        let mut d = CacheDir::new(1);
        assert!(d.write(ProcId(0), V).wb_rmr);
        // p0 now exclusive; p1's read downgrades it.
        assert!(d.read(ProcId(1), V).wb_rmr);
        assert!(
            d.wb_holds(ProcId(0), V),
            "downgraded to shared, still holds"
        );
        assert!(d.wb_holds(ProcId(1), V));
        // p0 re-reading is a hit (shared copy retained).
        assert!(!d.read(ProcId(0), V).wb_rmr);
        // But p0 writing again is an RMR (lost exclusivity).
        assert!(d.write(ProcId(0), V).wb_rmr);
    }

    #[test]
    fn wb_exclusive_writer_hits_on_rewrite() {
        let mut d = CacheDir::new(1);
        d.write(ProcId(0), V);
        assert!(
            !d.write(ProcId(0), V).wb_rmr,
            "exclusive holder rewrites for free"
        );
    }

    #[test]
    fn wb_write_invalidates_shared_readers() {
        let mut d = CacheDir::new(1);
        d.read(ProcId(1), V);
        d.read(ProcId(2), V);
        assert!(d.write(ProcId(0), V).wb_rmr);
        assert!(!d.wb_holds(ProcId(1), V));
        assert!(!d.wb_holds(ProcId(2), V));
        assert!(
            d.read(ProcId(1), V).wb_rmr,
            "invalidated reader misses again"
        );
    }

    #[test]
    fn distinct_variables_are_independent() {
        let mut d = CacheDir::new(2);
        d.read(ProcId(0), VarId(0));
        assert!(d.read(ProcId(0), VarId(1)).wt_rmr);
        assert!(!d.read(ProcId(0), VarId(1)).wb_rmr);
    }
}
