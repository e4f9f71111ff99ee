//! Safety invariants evaluated after every explored step.
//!
//! An [`Invariant`] is a *state predicate*: it inspects a [`Machine`]
//! (optionally its trailing log event) and reports a [`Violation`] if the
//! state is bad. Keeping invariants state-local is what lets the verdict
//! pipeline re-establish a violation while *replaying a subsequence* of
//! the original schedule — [`crate::verdict`] shrinks counterexamples with
//! `tpa_tso::shrink::shrink_schedule`, whose candidate schedules are
//! checked with exactly the same predicate.

use tpa_tso::machine::NextEvent;
use tpa_tso::{CrashState, EventKind, Machine, Op, ProcId, Section};

/// A violated invariant: which law broke and a human-readable diagnosis.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the invariant that fired (stable, used to re-find the
    /// invariant when shrinking).
    pub invariant: &'static str,
    /// What exactly is wrong in the violating state.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// A state predicate checked by the explorer after every step.
///
/// `Send + Sync` is a supertrait so one invariant battery can be shared
/// by reference across the parallel explorer's worker threads;
/// invariants are stateless predicates, so this costs implementations
/// nothing.
pub trait Invariant: Send + Sync {
    /// Stable identifier, e.g. `"mutual-exclusion"`.
    fn name(&self) -> &'static str;

    /// Returns a violation if `machine`'s current state breaks the law.
    fn check(&self, machine: &Machine) -> Option<Violation>;
}

/// Processes whose very next event is the `CS` transition.
///
/// The machine models the critical section as an instantaneous
/// transition, so "two processes in the CS simultaneously" manifests as
/// two processes both having `CS` enabled — the same witness
/// [`tpa_tso::shrink::exclusion_violated`] uses.
pub fn cs_enabled_pids(machine: &Machine) -> Vec<ProcId> {
    cs_enabled(machine).collect()
}

fn cs_enabled(machine: &Machine) -> impl Iterator<Item = ProcId> + '_ {
    (0..machine.n())
        .map(|i| ProcId(i as u32))
        .filter(|&p| machine.peek_next(p) == NextEvent::Transition(Op::Cs))
}

/// Whether two or more processes have `CS` enabled. Counts without
/// allocating: the message naming them is built only on a violation.
fn cs_contended(machine: &Machine) -> bool {
    cs_enabled(machine).nth(1).is_some()
}

/// Mutual exclusion: at most one process may have its `CS` transition
/// enabled.
pub struct MutualExclusion;

impl Invariant for MutualExclusion {
    fn name(&self) -> &'static str {
        "mutual-exclusion"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        cs_contended(machine).then(|| Violation {
            invariant: self.name(),
            detail: format!(
                "processes {:?} can all enter the critical section",
                cs_enabled_pids(machine)
            ),
        })
    }
}

/// Structural laws of the write-buffer/fence machinery, checked
/// independently of the machine's own bookkeeping (a checker should catch
/// simulator bugs, not just algorithm bugs):
///
/// * an `EndFence` event implies the fencing process' buffer is empty
///   (fences drain completely before closing);
/// * a `Cas` event implies the issuer's buffer is empty (CAS carries
///   fence semantics and stalls until the buffer drains).
pub struct StoreBufferLaws;

impl Invariant for StoreBufferLaws {
    fn name(&self) -> &'static str {
        "store-buffer-laws"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        let last = machine.log().last()?;
        let bad = match last.kind {
            EventKind::EndFence => !machine.buffer_empty(last.pid),
            EventKind::Cas { .. } => !machine.buffer_empty(last.pid),
            _ => false,
        };
        bad.then(|| Violation {
            invariant: self.name(),
            detail: format!(
                "{:?} by {:?} with {} writes still buffered",
                last.kind,
                last.pid,
                machine.buffer_len(last.pid)
            ),
        })
    }
}

/// Bounded deadlock-freedom: a *terminal* state (no process has any
/// enabled directive) must be fully quiescent — every process back in its
/// non-critical section with nothing buffered.
///
/// A process whose program halts mid-passage (stuck in `Entry` or `Exit`
/// forever) violates this; a process that merely *spins* always has its
/// `Issue` directive enabled and never produces a terminal state, so
/// livelock is out of scope for a bounded explorer (the paper's progress
/// property, weak obstruction-freedom, is checked separately by
/// `tpa_algos::testing::check_solo_progress`).
pub struct TerminalQuiescence;

impl Invariant for TerminalQuiescence {
    fn name(&self) -> &'static str {
        "deadlock-freedom"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        if !machine.is_terminal() {
            return None;
        }
        let stuck: Vec<ProcId> = (0..machine.n())
            .map(|i| ProcId(i as u32))
            .filter(|&p| machine.section(p) != Section::Ncs || !machine.buffer_empty(p))
            .collect();
        (!stuck.is_empty()).then(|| Violation {
            invariant: self.name(),
            detail: format!("terminal state but processes {stuck:?} never completed a passage"),
        })
    }
}

/// Crash-safe mutual exclusion: exclusion must survive the fault model.
///
/// Same predicate as [`MutualExclusion`] but restricted to executions in
/// which a crash actually *lost buffered stores*
/// ([`Machine::writes_lost`]` > 0`) — the TSO-specific crash hazard,
/// where a victim's unflushed writes silently vanish from under the
/// survivors. The restriction is what makes the invariant useful on its
/// own: checking a crash-vulnerable protocol against this invariant alone
/// steers the search — and, more importantly, the ddmin shrink, which
/// replays candidate sub-schedules against the same predicate — toward
/// witnesses in which the data-losing crash is load-bearing. A 1-minimal
/// witness of this invariant always keeps a
/// [`tpa_tso::Directive::Crash`] that discarded at least one store.
pub struct CrashSafeExclusion;

impl Invariant for CrashSafeExclusion {
    fn name(&self) -> &'static str {
        "crash-safe-exclusion"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        if machine.writes_lost() == 0 {
            return None;
        }
        cs_contended(machine).then(|| Violation {
            invariant: self.name(),
            detail: format!(
                "after {} crash(es) losing {} buffered store(s), \
                 processes {:?} can all enter the critical section",
                machine.crashes_executed(),
                machine.writes_lost(),
                cs_enabled_pids(machine)
            ),
        })
    }
}

/// Recoverable progress: a crash must not wedge the survivors.
///
/// In a *terminal* state of a crash-bearing execution, every process that
/// is still running (never crashed, or crashed and recovered) must be back
/// in its non-critical section with nothing buffered. Crash-stopped
/// processes are exempt — they are gone by assumption — which is where
/// this differs from [`TerminalQuiescence`]: that invariant asks whether
/// *anyone* got stuck; this one asks specifically whether a victim's lost
/// writes stranded everyone else. (A survivor that spins forever keeps its
/// `Issue` directive enabled and never yields a terminal state, so
/// crash-induced livelock is out of scope for a bounded explorer.)
pub struct RecoverableProgress;

impl Invariant for RecoverableProgress {
    fn name(&self) -> &'static str {
        "recoverable-progress"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        if machine.crashes_executed() == 0 || !machine.is_terminal() {
            return None;
        }
        let stuck: Vec<ProcId> = (0..machine.n())
            .map(|i| ProcId(i as u32))
            .filter(|&p| {
                machine.crash_state(p) == CrashState::Running
                    && (machine.section(p) != Section::Ncs || !machine.buffer_empty(p))
            })
            .collect();
        (!stuck.is_empty()).then(|| Violation {
            invariant: self.name(),
            detail: format!(
                "crash(es) left surviving processes {stuck:?} wedged mid-passage in a terminal state"
            ),
        })
    }
}

/// The default battery: mutual exclusion, buffer/fence laws, and bounded
/// deadlock-freedom.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(MutualExclusion),
        Box::new(StoreBufferLaws),
        Box::new(TerminalQuiescence),
    ]
}

/// The battery for crash-enabled checks: [`standard_invariants`] plus the
/// crash-specific laws. The standard battery is deliberately untouched so
/// every crash-free witness stays byte-identical to what it was before
/// the fault model existed.
pub fn crash_invariants() -> Vec<Box<dyn Invariant>> {
    let mut invs = standard_invariants();
    invs.push(Box::new(CrashSafeExclusion));
    invs.push(Box::new(RecoverableProgress));
    invs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_tso::scripted::{Instr, ScriptSystem};
    use tpa_tso::Directive;

    #[test]
    fn fresh_scripted_machine_satisfies_the_battery() {
        let sys = ScriptSystem::new(2, 1, |_| {
            vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt]
        });
        let machine = Machine::new(&sys);
        for inv in standard_invariants() {
            assert!(
                inv.check(&machine).is_none(),
                "{} fired on init",
                inv.name()
            );
        }
    }

    #[test]
    fn end_fence_law_holds_along_a_full_drain() {
        let sys = ScriptSystem::new(1, 2, |_| {
            vec![
                Instr::Write { var: 0, value: 1 },
                Instr::Write { var: 1, value: 2 },
                Instr::Fence,
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        // Issue both writes, then drive the fence to completion.
        for _ in 0..7 {
            if m.enabled_directives(ProcId(0)).is_empty() {
                break;
            }
            m.step(Directive::Issue(ProcId(0))).unwrap();
            assert!(StoreBufferLaws.check(&m).is_none());
        }
        assert!(m.buffer_empty(ProcId(0)));
    }

    #[test]
    fn quiescence_ignores_non_terminal_states() {
        // A spinning process keeps Issue enabled: never terminal.
        let sys = ScriptSystem::new(1, 1, |_| {
            vec![Instr::Write { var: 0, value: 1 }, Instr::Halt]
        });
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        // Buffered write pending: Commit still enabled, so not terminal.
        assert!(TerminalQuiescence.check(&m).is_none());
    }
}
