//! Process-identifier permutations and the symmetry group of a system.
//!
//! A pid-symmetric system looks the same after renaming its processes: if
//! every program differs only in its pid, any permutation `π` of
//! `{0..n-1}` maps a reachable state to a reachable state, and the two
//! states have identical futures modulo the same renaming. The exhaustive
//! checker exploits this by caching states under a *canonical* key — the
//! minimum of the state fingerprint over all valid renamings — which
//! collapses each orbit of up to `n!` states to one cache entry.
//!
//! Renaming touches more than the per-process components: pid-indexed
//! variable arrays permute their *indices* (`flag[i] → flag[π(i)]`) and
//! pid-valued variables permute their *contents* (`turn = i → turn =
//! π(i)`). [`VarSpec`] records both facts (see
//! [`VarSpecBuilder::mark_pid_indexed`] and
//! [`VarSpecBuilder::mark_pid_valued`]); [`SymmetryGroup::for_spec`] turns
//! them into one variable-relabeling table per permutation, rejecting any
//! permutation the declared DSM ownership is not equivariant under.
//!
//! [`VarSpecBuilder::mark_pid_indexed`]: crate::VarSpecBuilder::mark_pid_indexed
//! [`VarSpecBuilder::mark_pid_valued`]: crate::VarSpecBuilder::mark_pid_valued
//!
//! Soundness note: a permutation may be *invalid for a particular state*
//! (e.g. a scan in pid order whose prefix is not preserved, or an
//! unwritten pid-valued variable whose initial value the permutation
//! moves), and the identity is always valid. Keys are orbit-invariant,
//! but a renaming that is valid in one state need not commute with the
//! transitions out of it: under canonical keys, `splitter`, `filter` and
//! `dijkstra` can report `Pass` on an orbit that concrete keys report as
//! a `Violation` (ROADMAP item 1). A per-state validity rule does not
//! make the reduction sound; only a group of automorphisms does.

use crate::ids::{ProcId, Value, VarId};
use crate::machine::Directive;
use crate::vars::VarSpec;

/// A permutation of the process identifiers `{0..n-1}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// The identity on `n` processes.
    pub fn identity(n: usize) -> Self {
        Permutation {
            map: (0..n as u32).collect(),
        }
    }

    /// The transposition swapping `a` and `b` on `n` processes.
    pub fn transposition(n: usize, a: usize, b: usize) -> Self {
        let mut p = Self::identity(n);
        p.map.swap(a, b);
        p
    }

    /// All `n!` permutations, identity first, in a deterministic order.
    pub fn all(n: usize) -> Vec<Permutation> {
        let mut out = Vec::new();
        let mut current: Vec<u32> = (0..n as u32).collect();
        // Lexicographic enumeration starting from the identity.
        loop {
            out.push(Permutation {
                map: current.clone(),
            });
            // Next lexicographic permutation, or stop.
            let Some(i) = (0..n.saturating_sub(1))
                .rev()
                .find(|&i| current[i] < current[i + 1])
            else {
                break;
            };
            let j = (i + 1..n).rev().find(|&j| current[j] > current[i]).unwrap();
            current.swap(i, j);
            current[i + 1..].reverse();
        }
        out
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &m)| i as u32 == m)
    }

    /// `π(p)`.
    #[inline]
    pub fn apply(&self, p: ProcId) -> ProcId {
        ProcId(self.map[p.index()])
    }

    /// `π(i)` on a raw pid index (panics if `i >= n`).
    #[inline]
    pub fn apply_index(&self, i: usize) -> usize {
        self.map[i] as usize
    }

    /// Maps a zero-based pid-valued datum: `v ↦ π(v)`, or `None` when `v`
    /// is outside `{0..n-1}` (the renaming cannot express it).
    #[inline]
    pub fn map_value_zero_based(&self, v: Value) -> Option<Value> {
        self.map.get(v as usize).map(|&m| m as Value)
    }

    /// Maps a one-based pid-valued datum with `0` as the "no process"
    /// sentinel: `0 ↦ 0`, `v ↦ π(v-1)+1`, or `None` when `v > n`.
    #[inline]
    pub fn map_value_one_based(&self, v: Value) -> Option<Value> {
        if v == 0 {
            return Some(0);
        }
        self.map.get(v as usize - 1).map(|&m| m as Value + 1)
    }

    /// Does `π` map `{0..j-1}` onto `{0..π(j)-1}`? This is the validity
    /// condition for a program scanning *all* processes in pid order that
    /// has completed the prefix below `j`: the renamed program must have
    /// completed exactly the prefix below `π(j)`.
    pub fn maps_prefix(&self, j: usize) -> bool {
        debug_assert!(self.n() <= 64);
        let mut image = 0u64;
        for k in 0..j {
            image |= 1u64 << self.map[k];
        }
        image == (1u64 << self.map[j]) - 1
    }

    /// Like [`Permutation::maps_prefix`], for a scan that skips the
    /// scanner's own pid `me`: does `π` map `{k < j, k ≠ me}` onto
    /// `{k < π(j), k ≠ π(me)}`?
    pub fn maps_scan_prefix(&self, j: usize, me: usize) -> bool {
        debug_assert!(self.n() <= 64);
        let mut image = 0u64;
        for k in 0..j {
            if k != me {
                image |= 1u64 << self.map[k];
            }
        }
        let mut want = (1u64 << self.map[j]) - 1;
        let pme = self.map[me];
        if pme < self.map[j] {
            want &= !(1u64 << pme);
        }
        image == want
    }
}

/// The usable symmetry group of a system: every process permutation the
/// declared variable layout is equivariant under, each paired with its
/// induced variable relabeling. Built once per search by
/// [`SymmetryGroup::for_spec`]; consumed by
/// [`crate::Machine::canonical_state_key`].
#[derive(Clone, Debug)]
pub struct SymmetryGroup {
    n: usize,
    perms: Vec<Permutation>,
    var_maps: Vec<Vec<u32>>,
}

/// Permutations are enumerated eagerly (`n!` of them), so refuse to build
/// a group past this bound — reduction at such widths would be paid for
/// in canonicalisation time anyway.
const MAX_SYMMETRY_N: usize = 6;

impl SymmetryGroup {
    /// Builds the group for a spec and process count. Keeps exactly the
    /// permutations whose induced variable relabeling respects the
    /// declared DSM ownership (`owner(π·v) = π(owner(v))`); the result is
    /// a subgroup, so canonicalisation stays orbit-consistent. The
    /// identity (index 0) is always present.
    pub fn for_spec(spec: &VarSpec, n: usize) -> SymmetryGroup {
        let perms = if n <= MAX_SYMMETRY_N {
            Permutation::all(n)
        } else {
            vec![Permutation::identity(n)]
        };
        let mut kept = Vec::new();
        let mut var_maps = Vec::new();
        for p in perms {
            if let Some(map) = Self::var_map_for(spec, n, &p) {
                kept.push(p);
                var_maps.push(map);
            }
        }
        debug_assert!(kept[0].is_identity());
        SymmetryGroup {
            n,
            perms: kept,
            var_maps,
        }
    }

    /// The variable relabeling induced by `p`: pid-indexed groups permute
    /// their elements, everything else stays put. `None` when ownership
    /// is not equivariant under `p`.
    fn var_map_for(spec: &VarSpec, n: usize, p: &Permutation) -> Option<Vec<u32>> {
        let count = spec.count();
        let mut map: Vec<u32> = (0..count as u32).collect();
        for &(base, len) in spec.pid_indexed_groups() {
            if len as usize != n {
                // A pid-indexed array must have one slot per process.
                if !p.is_identity() {
                    return None;
                }
                continue;
            }
            for i in 0..len as usize {
                map[base as usize + i] = base + p.apply_index(i) as u32;
            }
        }
        for (v, &image) in map.iter().enumerate() {
            let image = VarId(image);
            let want = spec
                .owner(VarId(v as u32))
                .map(|o| if o.index() < n { p.apply(o) } else { o });
            if spec.owner(image) != want {
                return None;
            }
        }
        Some(map)
    }

    /// Number of permutations kept (≥ 1; index 0 is the identity).
    #[allow(clippy::len_without_is_empty)] // never empty: identity always kept
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True when only the identity survived — no reduction available.
    pub fn is_trivial(&self) -> bool {
        self.perms.len() <= 1
    }

    /// Process count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `idx`-th permutation.
    pub fn perm(&self, idx: usize) -> &Permutation {
        &self.perms[idx]
    }

    /// The variable relabeling of the `idx`-th permutation.
    pub fn var_map(&self, idx: usize) -> &[u32] {
        &self.var_maps[idx]
    }

    /// Index of the transposition `(a b)` in this group, if kept.
    pub fn find_transposition(&self, a: usize, b: usize) -> Option<usize> {
        let t = Permutation::transposition(self.n, a, b);
        self.perms.iter().position(|p| *p == t)
    }

    /// Renames a scheduling directive under the `idx`-th permutation —
    /// how the checker relabels sleep sets into canonical coordinates.
    pub fn rename_directive(&self, idx: usize, d: Directive) -> Directive {
        let p = &self.perms[idx];
        match d {
            Directive::Issue(q) => Directive::Issue(p.apply(q)),
            Directive::Commit(q) => Directive::Commit(p.apply(q)),
            Directive::CommitVar(q, v) => {
                Directive::CommitVar(p.apply(q), VarId(self.var_maps[idx][v.index()]))
            }
            Directive::Crash(q) => Directive::Crash(p.apply(q)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_all_permutations_identity_first() {
        let all = Permutation::all(3);
        assert_eq!(all.len(), 6);
        assert!(all[0].is_identity());
        let mut seen: Vec<Vec<u32>> = all.iter().map(|p| p.map.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn value_mapping_encodings() {
        let p = Permutation::transposition(3, 0, 2);
        assert_eq!(p.map_value_zero_based(0), Some(2));
        assert_eq!(p.map_value_zero_based(1), Some(1));
        assert_eq!(p.map_value_zero_based(3), None);
        assert_eq!(p.map_value_one_based(0), Some(0));
        assert_eq!(p.map_value_one_based(1), Some(3));
        assert_eq!(p.map_value_one_based(4), None);
    }

    #[test]
    fn prefix_conditions() {
        // π = (0 1) on 3 procs. At j=0 the scanner has completed nothing,
        // but the renamed scanner at π(0)=1 would imply slot 0 done —
        // invalid. At j=1 the completed set {0} maps to {1}, not {0} —
        // invalid. At j=2 the completed set {0,1} maps to itself — valid.
        let p = Permutation::transposition(3, 0, 1);
        assert!(!p.maps_prefix(0));
        assert!(!p.maps_prefix(1));
        assert!(p.maps_prefix(2));
        // A permutation fixing 0 renames a j=0 scanner to a j=0 scanner.
        assert!(Permutation::transposition(3, 1, 2).maps_prefix(0));
        // Skipping me=2: scanned {0} at j=1, image {1}; want {k<π(1)=0}
        // minus π(2)=2 = {} — mismatch.
        assert!(!p.maps_scan_prefix(1, 2));
        // me=0 at j=1: scanned {} (k=0 is me), image {}; want
        // {k < π(1)=0} minus π(0)=1 = {} — ok.
        assert!(p.maps_scan_prefix(1, 0));
    }

    #[test]
    fn ownership_equivariance_filters_permutations() {
        // Two vars owned by p0 and p1 but NOT declared pid-indexed: any
        // permutation moving p0 or p1 breaks ownership equivariance.
        let mut b = VarSpec::builder();
        b.var("a", 0, Some(ProcId(0)));
        b.var("b", 0, Some(ProcId(1)));
        let spec = b.build();
        let g = SymmetryGroup::for_spec(&spec, 2);
        assert!(g.is_trivial());

        // The same layout declared as a pid-indexed array relabels
        // cleanly and keeps both permutations.
        let mut b = VarSpec::builder();
        let base = b.array("a", 2, 0, |i| Some(ProcId(i as u32)));
        b.mark_pid_indexed(base, 2);
        let spec = b.build();
        let g = SymmetryGroup::for_spec(&spec, 2);
        assert_eq!(g.len(), 2);
        assert_eq!(g.var_map(1), &[1, 0]);
    }

    #[test]
    fn directive_renaming_covers_every_variant() {
        let mut b = VarSpec::builder();
        let base = b.array("f", 2, 0, |_| None);
        b.mark_pid_indexed(base, 2);
        let spec = b.build();
        let g = SymmetryGroup::for_spec(&spec, 2);
        let swap = g.find_transposition(0, 1).expect("swap kept");
        assert_eq!(
            g.rename_directive(swap, Directive::Issue(ProcId(0))),
            Directive::Issue(ProcId(1))
        );
        assert_eq!(
            g.rename_directive(swap, Directive::CommitVar(ProcId(1), VarId(0))),
            Directive::CommitVar(ProcId(0), VarId(1))
        );
        assert_eq!(
            g.rename_directive(swap, Directive::Crash(ProcId(0))),
            Directive::Crash(ProcId(1))
        );
    }

    #[test]
    fn wide_systems_fall_back_to_identity() {
        let spec = VarSpec::remote(1);
        let g = SymmetryGroup::for_spec(&spec, 9);
        assert!(g.is_trivial());
    }
}
