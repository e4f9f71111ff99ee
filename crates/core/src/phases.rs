//! The read, write and regularization phases of the construction
//! (Sections 4.1–4.3 of the paper).

use std::collections::{BTreeMap, BTreeSet};

use tpa_tso::machine::NextEvent;
use tpa_tso::{Directive, Op, ProcId, StepError, VarId};

use crate::construction::{Construction, Failure, StopReason};
use crate::turan::ConflictGraph;

/// How a pending special event participates in phase case analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// About to execute `CS` (at most one process, by exclusion).
    CsBound,
    /// About to begin (or drain for) a fence, or to execute a CAS — the
    /// "fence-bound" class `Z₁` of the read phase.
    FenceBound,
    /// About to perform a critical read of `var` — the class `Z₂`.
    CriticalRead(VarId),
    /// About to commit a critical write to `var` (write phase `Z₂`).
    CriticalCommit(VarId),
    /// About to execute a CAS on `var` (handled like a critical commit but
    /// with conservative single-survivor grouping, since a CAS also reads).
    CasCommit(VarId),
    /// About to complete a fence (`EndFence`) — write-phase `Z₁`.
    FenceEnd,
    /// Anything else (unexpected transition, halted): erase.
    Stuck,
}

fn classify_read_phase(next: NextEvent) -> Class {
    match next {
        NextEvent::Transition(Op::Cs) => Class::CsBound,
        NextEvent::BeginFence => Class::FenceBound,
        NextEvent::Cas { var, .. } => Class::CasCommit(var),
        // A CAS stalled behind a buffered critical write: fence-class (the
        // process is effectively draining for its CAS).
        NextEvent::CommitNext { .. } => Class::FenceBound,
        NextEvent::Read {
            var,
            critical: true,
            ..
        } => Class::CriticalRead(var),
        NextEvent::EndFence => Class::FenceEnd,
        _ => Class::Stuck,
    }
}

fn classify_write_phase(next: NextEvent) -> Class {
    match next {
        NextEvent::EndFence => Class::FenceEnd,
        NextEvent::CommitNext { var, .. } => Class::CriticalCommit(var),
        NextEvent::Cas { var, .. } => Class::CasCommit(var),
        NextEvent::Transition(Op::Cs) => Class::CsBound,
        NextEvent::BeginFence => Class::FenceBound,
        NextEvent::Read {
            var,
            critical: true,
            ..
        } => Class::CriticalRead(var),
        _ => Class::Stuck,
    }
}

impl Construction<'_> {
    /// Section 4.1: iterate critical-read batches until (more than) half
    /// of the surviving processes are about to fence. Returns the number
    /// of read iterations (`s`).
    pub(crate) fn read_phase(&mut self) -> Result<usize, Failure> {
        for iter in 0..self.cfg.max_phase_iters {
            let act_before = self.active.len();
            let nexts = self.run_all_to_special()?;
            if nexts.is_empty() {
                return Err(Failure::Stop(StopReason::ActiveExhausted));
            }

            let mut z1: Vec<ProcId> = Vec::new();
            let mut z2: Vec<(ProcId, VarId)> = Vec::new();
            let mut drop: BTreeSet<ProcId> = BTreeSet::new();
            // CAS-bound processes are carried into the write phase without
            // executing anything yet.
            let mut cas_bound: Vec<ProcId> = Vec::new();
            for (p, next) in &nexts {
                match classify_read_phase(*next) {
                    Class::FenceBound => z1.push(*p),
                    Class::CasCommit(_) => {
                        z1.push(*p);
                        cas_bound.push(*p);
                    }
                    Class::CriticalRead(v) => z2.push((*p, v)),
                    Class::CsBound | Class::Stuck | Class::FenceEnd => {
                        drop.insert(*p);
                    }
                    Class::CriticalCommit(_) => {
                        // mode = read: only reachable via a CAS stall,
                        // already mapped to FenceBound above.
                        z1.push(*p);
                    }
                }
            }
            self.erase_set(&drop)?;
            z1.retain(|p| self.active.contains(p));
            z2.retain(|(p, _)| self.active.contains(p));

            if z1.is_empty() && z2.is_empty() {
                return Err(Failure::Stop(StopReason::ActiveExhausted));
            }

            if z1.len() > z2.len() {
                // Case I: keep the fence-bound processes; the read phase
                // ends. Execute their BeginFence events (CAS-bound
                // processes wait for the write phase).
                let w: BTreeSet<ProcId> = z1.iter().copied().collect();
                let erase: BTreeSet<ProcId> = self.active.difference(&w).copied().collect();
                self.erase_set(&erase)?;
                let _ = &cas_bound; // CAS-bound survivors execute in the write phase
                let survivors: Vec<ProcId> = self.active.iter().copied().collect();
                for p in survivors {
                    // Only genuine fence starts execute here; CAS-bound and
                    // CAS-stalled processes act in the write phase.
                    if self.machine.peek_next(p) == NextEvent::BeginFence {
                        self.machine
                            .step(Directive::Issue(p))
                            .map_err(Failure::from)?;
                    }
                }
                self.trace(
                    format!("read[{iter}]"),
                    "case I (fence-bound)".into(),
                    act_before,
                );
                self.check("read phase end", false)?;
                return Ok(iter);
            }

            // Case II: independent set of the read-conflict graph, then one
            // critical read each.
            let mut graph = ConflictGraph::new(z2.iter().map(|(p, _)| *p));
            let z2_set: BTreeSet<ProcId> = z2.iter().map(|(p, _)| *p).collect();
            for (p, v) in &z2 {
                if let Some(owner) = self.machine.owner(*v) {
                    if z2_set.contains(&owner) {
                        graph.add_edge(*p, owner);
                    }
                }
                if let Some(writer) = self.machine.writer(*v) {
                    if z2_set.contains(&writer) {
                        graph.add_edge(*p, writer);
                    }
                }
            }
            let w = graph.independent_set();
            let erase: BTreeSet<ProcId> = self.active.difference(&w).copied().collect();
            self.erase_set(&erase)?;
            let survivors: Vec<ProcId> = self.active.iter().copied().collect();
            for p in survivors {
                // Execute the pending critical read.
                debug_assert!(matches!(
                    self.machine.peek_next(p),
                    NextEvent::Read { critical: true, .. }
                ));
                self.machine
                    .step(Directive::Issue(p))
                    .map_err(Failure::from)?;
            }
            self.trace(
                format!("read[{iter}]"),
                "case II (critical reads)".into(),
                act_before,
            );
            self.check("read iteration", false)?;
        }
        Err(Failure::Stop(StopReason::PhaseBudget { phase: "read" }))
    }

    /// Section 4.2: commit critical writes (low-contention: one writer per
    /// variable; high-contention: ID-ordered sequence) until half of the
    /// survivors reach `EndFence`. Returns the number of write iterations
    /// (`t`).
    pub(crate) fn write_phase(&mut self) -> Result<usize, Failure> {
        for iter in 0..self.cfg.max_phase_iters {
            let act_before = self.active.len();
            let nexts = self.run_all_to_special()?;
            if nexts.is_empty() {
                return Err(Failure::Stop(StopReason::ActiveExhausted));
            }

            let mut z1: Vec<ProcId> = Vec::new(); // EndFence-bound
            let mut z2: Vec<(ProcId, VarId, bool)> = Vec::new(); // (p, var, is_cas)
            let mut drop: BTreeSet<ProcId> = BTreeSet::new();
            for (p, next) in &nexts {
                match classify_write_phase(*next) {
                    Class::FenceEnd => z1.push(*p),
                    Class::CriticalCommit(v) => z2.push((*p, v, false)),
                    Class::CasCommit(v) => z2.push((*p, v, true)),
                    // A process still in read mode that reached another
                    // special (possible when it was CAS-bound and the read
                    // phase kept it): treat reads/fences conservatively.
                    Class::FenceBound => z1.push(*p),
                    _ => {
                        drop.insert(*p);
                    }
                }
            }
            self.erase_set(&drop)?;
            z1.retain(|p| self.active.contains(p));
            z2.retain(|(p, _, _)| self.active.contains(p));

            if z1.is_empty() && z2.is_empty() {
                return Err(Failure::Stop(StopReason::ActiveExhausted));
            }

            if z1.len() >= z2.len() {
                // Case I: the write phase ends; survivors complete their
                // fences. A process still before its BeginFence executes
                // it and drains (its buffer holds only non-critical writes
                // here, or it would have classified as a commit).
                let w: BTreeSet<ProcId> = z1.iter().copied().collect();
                let erase: BTreeSet<ProcId> = self.active.difference(&w).copied().collect();
                self.erase_set(&erase)?;
                let survivors: Vec<ProcId> = self.active.iter().copied().collect();
                for p in survivors {
                    if self.machine.peek_next(p) == NextEvent::EndFence {
                        self.machine
                            .step(Directive::Issue(p))
                            .map_err(Failure::from)?;
                    }
                }
                self.trace(
                    format!("write[{iter}]"),
                    "case I (end-fence)".into(),
                    act_before,
                );
                // Claim 4.3.1: after the EndFence batch the execution is
                // semi-regular and W₀ = Act ∖ {p_max} is an IN-set.
                self.check_w0("write phase end")?;
                return Ok(iter);
            }

            // Group the pending critical commits by variable.
            let mut groups: BTreeMap<VarId, Vec<(ProcId, bool)>> = BTreeMap::new();
            for (p, v, is_cas) in &z2 {
                groups.entry(*v).or_default().push((*p, *is_cas));
            }
            let distinct_vars = groups.len();
            let threshold = (z2.len() as f64).sqrt();

            if (distinct_vars as f64) >= threshold {
                // Case II (low contention): one writer per variable, then
                // an independent set against prior accessors/owners.
                let reps: Vec<(ProcId, VarId)> = groups
                    .iter()
                    .map(|(v, ps)| (ps.iter().map(|(p, _)| *p).min().unwrap(), *v))
                    .collect();
                let rep_set: BTreeSet<ProcId> = reps.iter().map(|(p, _)| *p).collect();
                let mut graph = ConflictGraph::new(rep_set.iter().copied());
                for (p, v) in &reps {
                    if let Some(owner) = self.machine.owner(*v) {
                        if rep_set.contains(&owner) {
                            graph.add_edge(*p, owner);
                        }
                    }
                    for q in self.machine.accessed(*v) {
                        if rep_set.contains(q) {
                            graph.add_edge(*p, *q);
                        }
                    }
                }
                let w = graph.independent_set();
                let erase: BTreeSet<ProcId> = self.active.difference(&w).copied().collect();
                self.erase_set(&erase)?;
                let survivors: Vec<ProcId> = self.active.iter().copied().collect();
                for p in survivors {
                    self.machine
                        .step(Directive::Issue(p))
                        .map_err(Failure::from)?;
                }
                self.trace(
                    format!("write[{iter}]"),
                    format!("case II ({distinct_vars} vars)"),
                    act_before,
                );
            } else {
                // Case III (high contention): the largest group commits to
                // one variable in increasing ID order. If the group CASes
                // (a CAS also *reads*, which would leak awareness), keep
                // only the smallest ID — a conservative deviation that
                // erases more than the paper needs to.
                let (var, group) = groups
                    .iter()
                    .max_by_key(|(v, ps)| (ps.len(), std::cmp::Reverse(**v)))
                    .map(|(v, ps)| (*v, ps.clone()))
                    .unwrap();
                let has_cas = group.iter().any(|(_, c)| *c);
                let keep: BTreeSet<ProcId> = if has_cas {
                    group.iter().map(|(p, _)| *p).min().into_iter().collect()
                } else {
                    group.iter().map(|(p, _)| *p).collect()
                };
                let erase: BTreeSet<ProcId> = self.active.difference(&keep).copied().collect();
                self.erase_set(&erase)?;
                let survivors: Vec<ProcId> = self.active.iter().copied().collect();
                for p in survivors {
                    // Increasing ID order (BTreeSet iteration order).
                    self.machine
                        .step(Directive::Issue(p))
                        .map_err(Failure::from)?;
                }
                self.trace(
                    format!("write[{iter}]"),
                    format!(
                        "case III (var {var}, {} writers{})",
                        keep.len(),
                        if has_cas { ", cas" } else { "" }
                    ),
                    act_before,
                );
            }
            self.check("write iteration", true)?;
        }
        Err(Failure::Stop(StopReason::PhaseBudget { phase: "write" }))
    }

    /// Section 4.3: run `p_max` to completion, erasing the (at most one)
    /// invisible process justifying each critical event. Returns the
    /// number of critical events `p_max` executed (`m`) and the finisher.
    #[allow(clippy::explicit_counter_loop)] // `criticals` ticks only on critical events
    pub(crate) fn regularize(&mut self) -> Result<(usize, ProcId), Failure> {
        let p_max = self
            .p_max()
            .ok_or(Failure::Stop(StopReason::ActiveExhausted))?;
        let target = self.machine.passages_completed(p_max) + 1;
        let mut criticals = 0usize;

        for _ in 0..self.cfg.max_phase_iters {
            let act_before = self.active.len();
            // Run p_max through non-critical events (including its own
            // fences and transitions) until it finishes or faces a
            // critical event.
            let mut finished = false;
            let mut steps = 0usize;
            loop {
                if self.machine.passages_completed(p_max) >= target {
                    finished = true;
                    break;
                }
                let next = self.machine.peek_next(p_max);
                let critical = match next {
                    NextEvent::Halted => {
                        return Err(Failure::Stop(StopReason::Step(StepError::Halted(p_max))))
                    }
                    NextEvent::Read { critical, .. } => critical,
                    NextEvent::CommitNext { critical, .. } => critical,
                    NextEvent::Cas { critical, .. } => critical,
                    _ => false,
                };
                if critical {
                    break;
                }
                self.machine
                    .step(Directive::Issue(p_max))
                    .map_err(Failure::from)?;
                steps += 1;
                if steps > self.cfg.step_budget {
                    return Err(Failure::Stop(StopReason::Step(StepError::NonTermination {
                        pid: p_max,
                        steps,
                    })));
                }
            }

            if finished {
                self.active.remove(&p_max);
                self.trace(
                    format!("regularize[{criticals}]"),
                    format!("{p_max} finished"),
                    act_before,
                );
                self.check("regularization end", false)?;
                return Ok((criticals, p_max));
            }

            // About to execute a critical event on u: erase the active
            // process that is visible on u or owns it (at most one exists,
            // by Claim 4.3.2 — checked defensively here).
            let u = match self.machine.peek_next(p_max) {
                NextEvent::Read { var, .. }
                | NextEvent::CommitNext { var, .. }
                | NextEvent::Cas { var, .. } => var,
                other => {
                    return Err(Failure::Stop(StopReason::InvariantViolated(format!(
                        "regularization: expected critical event, found {other:?}"
                    ))))
                }
            };
            let mut q_set = BTreeSet::new();
            if let Some(q) = self.machine.writer(u) {
                if q != p_max && self.active.contains(&q) {
                    q_set.insert(q);
                }
            }
            if let Some(q) = self.machine.owner(u) {
                if q != p_max && self.active.contains(&q) {
                    q_set.insert(q);
                }
            }
            if q_set.len() > 1 {
                return Err(Failure::Stop(StopReason::InvariantViolated(format!(
                    "Claim 4.3.2 violated: both writer and owner of {u} active: {q_set:?}"
                ))));
            }
            self.erase_set(&q_set)?;
            // Defensive: erasing q may expose an earlier active writer
            // only if IN5 was already broken; detect rather than loop.
            if let Some(q2) = self.machine.writer(u) {
                if q2 != p_max && self.active.contains(&q2) {
                    return Err(Failure::Stop(StopReason::InvariantViolated(format!(
                        "IN5 breach: {u} still written by active {q2} after erasure"
                    ))));
                }
            }
            // Execute the critical event.
            self.machine
                .step(Directive::Issue(p_max))
                .map_err(Failure::from)?;
            criticals += 1;
        }
        Err(Failure::Stop(StopReason::PhaseBudget {
            phase: "regularize",
        }))
    }
}

#[cfg(test)]
mod tests {
    use tpa_tso::{Op, Outcome, ProcId, Program, System, Value, VarId, VarSpec};

    use crate::construction::{Config, Construction, StopReason};

    /// A toy "lock" whose processes all commit a write to the SAME shared
    /// variable inside their first fence — forcing the write phase's
    /// high-contention case III (an ID-ordered commit sequence), which the
    /// portfolio locks rarely exhibit. It is trivially exclusive in the
    /// construction's one-passage setting because processes only reach CS
    /// one at a time during regularization.
    struct HotspotToy {
        n: usize,
    }

    #[derive(Clone, Copy, Hash, Debug)]
    enum TState {
        Enter,
        WriteShared,
        Fence1,
        WriteOwn,
        Fence2,
        Cs,
        Exit,
        Done,
    }

    #[derive(Clone)]
    struct TProg {
        me: u32,
        state: TState,
    }

    impl Program for TProg {
        fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
            use std::hash::Hash;
            self.state.hash(&mut h);
        }

        fn peek(&self) -> Op {
            match self.state {
                TState::Enter => Op::Enter,
                TState::WriteShared => Op::Write(VarId(0), Value::from(self.me) + 1),
                TState::Fence1 | TState::Fence2 => Op::Fence,
                TState::WriteOwn => Op::Write(VarId(1 + self.me), 1),
                TState::Cs => Op::Cs,
                TState::Exit => Op::Exit,
                TState::Done => Op::Halt,
            }
        }

        fn apply(&mut self, _outcome: Outcome) {
            self.state = match self.state {
                TState::Enter => TState::WriteShared,
                TState::WriteShared => TState::Fence1,
                TState::Fence1 => TState::WriteOwn,
                TState::WriteOwn => TState::Fence2,
                TState::Fence2 => TState::Cs,
                TState::Cs => TState::Exit,
                TState::Exit => TState::Done,
                TState::Done => panic!("halted"),
            };
        }
    }

    impl System for HotspotToy {
        fn n(&self) -> usize {
            self.n
        }

        fn vars(&self) -> VarSpec {
            VarSpec::remote(1 + self.n)
        }

        fn program(&self, pid: ProcId) -> Box<dyn Program> {
            Box::new(TProg {
                me: pid.0,
                state: TState::Enter,
            })
        }

        fn name(&self) -> &str {
            "hotspot-toy"
        }
    }

    #[test]
    fn high_contention_case_iii_is_exercised_and_ordered() {
        let sys = HotspotToy { n: 16 };
        let cfg = Config {
            max_rounds: 1,
            check_invariants: true,
            ..Config::default()
        };
        let out = Construction::new(&sys, cfg).unwrap().run();
        match &out.stop {
            StopReason::InvariantViolated(v) | StopReason::EraseInvalid(v) => {
                panic!("invariants broke: {v}")
            }
            _ => {}
        }
        assert!(
            out.phases.iter().any(|p| p.case_taken.contains("case III")),
            "expected a case III step, got: {:?}",
            out.phases.iter().map(|p| &p.case_taken).collect::<Vec<_>>()
        );
        // Case III keeps the whole group: no erasures in that step.
        let c3 = out
            .phases
            .iter()
            .find(|p| p.case_taken.contains("case III"))
            .unwrap();
        assert_eq!(
            c3.act_before, c3.act_after,
            "pure R/W case III erases nobody"
        );
        assert_eq!(out.rounds_completed(), 1);
    }

    #[test]
    fn hotspot_writer_after_case_iii_is_the_largest_id() {
        // Claim 4.3.1(c): after the ID-ordered commit sequence, the largest
        // active ID is visible on the hotspot.
        let sys = HotspotToy { n: 8 };
        let cfg = Config {
            max_rounds: 1,
            check_invariants: true,
            ..Config::default()
        };
        let mut c = Construction::new(&sys, cfg).unwrap();
        c.read_phase().map_err(|_| "read").unwrap();
        c.write_phase().map_err(|_| "write").unwrap();
        let p_max = *c.active.iter().next_back().unwrap();
        assert_eq!(c.machine().writer(VarId(0)), Some(p_max));
    }
}
