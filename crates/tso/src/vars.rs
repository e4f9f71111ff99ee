//! Shared-variable layout and storage.
//!
//! A [`VarSpec`] declares how many variables a system uses, their initial
//! values, and — for the DSM model — which process each variable is local
//! to (`owner(v)`). In the CC model every variable is remote to all
//! processes, expressed as `owner(v) = None`.

use crate::awareness::AwSet;
use crate::ids::{ProcId, Value, VarId};

/// How a variable's *contents* relate to process identifiers — the fact
/// symmetry reduction needs to relabel values when renaming processes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PidEncoding {
    /// Plain data: values never mention a pid.
    #[default]
    None,
    /// The value *is* a pid, `0..n-1` (e.g. dijkstra's `turn`).
    ZeroBased,
    /// The value is `pid + 1` with `0` meaning "no process" (e.g. the MCS
    /// `tail` pointer).
    OneBased,
}

/// Static description of a system's shared variables.
#[derive(Clone, Debug)]
pub struct VarSpec {
    owners: Vec<Option<ProcId>>,
    init: Vec<Value>,
    names: Vec<Option<String>>,
    /// `(base, len)` spans of arrays indexed by pid — renaming processes
    /// permutes their elements.
    pid_indexed: Vec<(u32, u32)>,
    /// Per-variable content encoding (dense, defaults to
    /// [`PidEncoding::None`]).
    encodings: Vec<PidEncoding>,
}

impl VarSpec {
    /// A spec with `count` variables, all initialised to `0` and remote to
    /// every process (the CC layout).
    pub fn remote(count: usize) -> Self {
        VarSpec {
            owners: vec![None; count],
            init: vec![0; count],
            names: vec![None; count],
            pid_indexed: Vec::new(),
            encodings: vec![PidEncoding::None; count],
        }
    }

    /// Starts building a spec incrementally.
    pub fn builder() -> VarSpecBuilder {
        VarSpecBuilder::default()
    }

    /// Number of variables.
    pub fn count(&self) -> usize {
        self.owners.len()
    }

    /// The process `v` is local to, if any.
    pub fn owner(&self, v: VarId) -> Option<ProcId> {
        self.owners[v.index()]
    }

    /// The initial value of `v`.
    pub fn init_value(&self, v: VarId) -> Value {
        self.init[v.index()]
    }

    /// Diagnostic name of `v`, if one was declared.
    pub fn name(&self, v: VarId) -> Option<&str> {
        self.names[v.index()].as_deref()
    }

    /// The `(base, len)` spans declared pid-indexed (see
    /// [`VarSpecBuilder::mark_pid_indexed`]).
    pub fn pid_indexed_groups(&self) -> &[(u32, u32)] {
        &self.pid_indexed
    }

    /// How `v`'s contents encode process identifiers.
    pub fn pid_encoding(&self, v: VarId) -> PidEncoding {
        self.encodings[v.index()]
    }
}

/// Incremental builder for [`VarSpec`] (one call per variable, returning its
/// [`VarId`], so algorithm constructors can lay out their variables and
/// remember the handles).
#[derive(Clone, Debug, Default)]
pub struct VarSpecBuilder {
    owners: Vec<Option<ProcId>>,
    init: Vec<Value>,
    names: Vec<Option<String>>,
    pid_indexed: Vec<(u32, u32)>,
    encodings: Vec<(u32, PidEncoding)>,
}

impl VarSpecBuilder {
    /// Declares one variable and returns its id.
    pub fn var(&mut self, name: impl Into<String>, init: Value, owner: Option<ProcId>) -> VarId {
        let id = VarId(self.owners.len() as u32);
        self.owners.push(owner);
        self.init.push(init);
        self.names.push(Some(name.into()));
        id
    }

    /// Declares a contiguous array of `len` variables named `name[i]`, all
    /// with the same initial value. `owner_of(i)` assigns per-element DSM
    /// ownership. Returns the id of element 0; element `i` is at
    /// `VarId(base.0 + i)`.
    pub fn array(
        &mut self,
        name: &str,
        len: usize,
        init: Value,
        mut owner_of: impl FnMut(usize) -> Option<ProcId>,
    ) -> VarId {
        let base = VarId(self.owners.len() as u32);
        for i in 0..len {
            self.owners.push(owner_of(i));
            self.init.push(init);
            self.names.push(Some(format!("{name}[{i}]")));
        }
        base
    }

    /// Declares that the `len` variables starting at `base` form a
    /// pid-indexed array (element `i` belongs to process `i`). Symmetry
    /// reduction permutes such arrays' elements when renaming processes;
    /// arrays indexed by anything else (levels, tickets, tree nodes)
    /// must *not* be marked.
    pub fn mark_pid_indexed(&mut self, base: VarId, len: usize) {
        self.pid_indexed.push((base.0, len as u32));
    }

    /// Declares that `v`'s contents encode a pid (see [`PidEncoding`]).
    pub fn mark_pid_valued(&mut self, v: VarId, enc: PidEncoding) {
        self.encodings.push((v.0, enc));
    }

    /// [`VarSpecBuilder::mark_pid_valued`] for a whole array.
    pub fn mark_pid_valued_array(&mut self, base: VarId, len: usize, enc: PidEncoding) {
        for i in 0..len as u32 {
            self.encodings.push((base.0 + i, enc));
        }
    }

    /// Finalises the spec.
    pub fn build(self) -> VarSpec {
        let mut encodings = vec![PidEncoding::None; self.owners.len()];
        for (v, enc) in self.encodings {
            encodings[v as usize] = enc;
        }
        VarSpec {
            owners: self.owners,
            init: self.init,
            names: self.names,
            pid_indexed: self.pid_indexed,
            encodings,
        }
    }
}

/// Runtime state of one shared variable.
#[derive(Debug)]
pub(crate) struct VarState {
    /// Current committed value.
    pub value: Value,
    /// Last process to commit a write (`writer(v, E)`), `None` if unwritten.
    pub writer: Option<ProcId>,
    /// Awareness snapshot carried by the last committed write (issue-time
    /// awareness of the writer, per Definition 1).
    pub writer_aw: AwSet,
    /// Initial value (for erasure reverts).
    pub initial: Value,
}

impl Clone for VarState {
    fn clone(&self) -> Self {
        VarState {
            value: self.value,
            writer: self.writer,
            writer_aw: self.writer_aw.clone(),
            initial: self.initial,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.value = src.value;
        self.writer = src.writer;
        self.writer_aw.clone_from(&src.writer_aw);
        self.initial = src.initial;
    }
}

/// The committed shared memory: values plus `writer(v, E)` metadata.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarTable {
    states: Vec<VarState>,
    /// Per-variable commit history `(writer, value, issue-time
    /// awareness)` — what in-place erasure rewinds through. Empty (no
    /// entry per variable) on a search fork, whose commits pass
    /// `record = false`.
    history: Vec<Vec<(ProcId, Value, AwSet)>>,
}

impl VarTable {
    pub fn new(spec: &VarSpec) -> Self {
        let states = (0..spec.count())
            .map(|i| {
                let initial = spec.init_value(VarId(i as u32));
                VarState {
                    value: initial,
                    writer: None,
                    writer_aw: AwSet::empty(),
                    initial,
                }
            })
            .collect();
        VarTable {
            states,
            history: vec![Vec::new(); spec.count()],
        }
    }

    pub fn get(&self, v: VarId) -> &VarState {
        &self.states[v.index()]
    }

    /// Commits `value` to `v`. With `record` the commit is also appended
    /// to `v`'s history; search forks pass `false`, since they refuse the
    /// in-place erasure that reads it.
    pub fn commit(
        &mut self,
        v: VarId,
        value: Value,
        writer: ProcId,
        writer_aw: AwSet,
        record: bool,
    ) {
        if record {
            self.history[v.index()].push((writer, value, writer_aw.clone()));
        }
        let s = &mut self.states[v.index()];
        s.value = value;
        s.writer = Some(writer);
        s.writer_aw = writer_aw;
    }

    /// Removes every commit by a process in `erased` from `v`'s history and
    /// restores the latest surviving commit (or the initial value).
    pub fn revert_erased(&mut self, v: VarId, erased: &std::collections::BTreeSet<ProcId>) {
        let history = &mut self.history[v.index()];
        if !history.iter().any(|(p, _, _)| erased.contains(p)) {
            return;
        }
        history.retain(|(p, _, _)| !erased.contains(p));
        let s = &mut self.states[v.index()];
        match history.last() {
            Some((p, value, aw)) => {
                s.value = *value;
                s.writer = Some(*p);
                s.writer_aw = aw.clone();
            }
            None => {
                s.value = s.initial;
                s.writer = None;
                s.writer_aw = AwSet::empty();
            }
        }
    }

    pub fn count(&self) -> usize {
        self.states.len()
    }

    /// Overwrites `dst` with a history-free copy of `self`, for
    /// [`crate::Machine::fork_for_search_into`]: the commit history exists
    /// only to serve in-place erasure, which search forks forbid, so the
    /// copy is O(vars) instead of O(commits). `dst`'s vectors are reused.
    pub fn fork_for_search_into(&self, dst: &mut VarTable) {
        dst.states.clone_from(&self.states);
        dst.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_spec_defaults() {
        let s = VarSpec::remote(3);
        assert_eq!(s.count(), 3);
        assert_eq!(s.owner(VarId(1)), None);
        assert_eq!(s.init_value(VarId(2)), 0);
        assert_eq!(s.name(VarId(0)), None);
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = VarSpec::builder();
        let a = b.var("lock", 7, None);
        let c = b.var("turn", 1, Some(ProcId(4)));
        let spec = b.build();
        assert_eq!(a, VarId(0));
        assert_eq!(c, VarId(1));
        assert_eq!(spec.init_value(a), 7);
        assert_eq!(spec.owner(c), Some(ProcId(4)));
        assert_eq!(spec.name(c), Some("turn"));
    }

    #[test]
    fn array_layout_with_per_element_owner() {
        let mut b = VarSpec::builder();
        let base = b.array("spin", 4, 0, |i| Some(ProcId(i as u32)));
        let spec = b.build();
        assert_eq!(base, VarId(0));
        assert_eq!(spec.count(), 4);
        assert_eq!(spec.owner(VarId(2)), Some(ProcId(2)));
        assert_eq!(spec.name(VarId(3)), Some("spin[3]"));
    }

    #[test]
    fn symmetry_marks_round_trip() {
        let mut b = VarSpec::builder();
        let turn = b.var("turn", 0, None);
        let flags = b.array("flag", 3, 0, |i| Some(ProcId(i as u32)));
        b.mark_pid_indexed(flags, 3);
        b.mark_pid_valued(turn, PidEncoding::ZeroBased);
        b.mark_pid_valued_array(flags, 3, PidEncoding::OneBased);
        let spec = b.build();
        assert_eq!(spec.pid_indexed_groups(), &[(flags.0, 3)]);
        assert_eq!(spec.pid_encoding(turn), PidEncoding::ZeroBased);
        assert_eq!(spec.pid_encoding(VarId(flags.0 + 2)), PidEncoding::OneBased);
        assert_eq!(VarSpec::remote(1).pid_encoding(VarId(0)), PidEncoding::None);
    }

    #[test]
    fn var_table_tracks_writer_metadata() {
        let spec = VarSpec::remote(2);
        let mut t = VarTable::new(&spec);
        assert_eq!(t.get(VarId(0)).writer, None);
        t.commit(VarId(0), 5, ProcId(1), AwSet::singleton(ProcId(1)), true);
        let s = t.get(VarId(0));
        assert_eq!(s.value, 5);
        assert_eq!(s.writer, Some(ProcId(1)));
        assert!(s.writer_aw.contains(ProcId(1)));
        assert_eq!(t.history[0].len(), 1);
        t.commit(VarId(0), 6, ProcId(0), AwSet::singleton(ProcId(0)), false);
        let s = t.get(VarId(0));
        assert_eq!((s.value, s.writer), (6, Some(ProcId(0))));
        assert_eq!(
            t.history[0].len(),
            1,
            "an unrecorded commit leaves the history"
        );
    }
}
