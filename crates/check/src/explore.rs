//! Bounded-exhaustive schedule exploration with sleep-set pruning.
//!
//! The search enumerates every schedule of a [`System`] up to a step
//! bound by depth-first search over search forks
//! ([`Machine::fork_for_search_into`]), checking a battery of
//! [`Invariant`](crate::Invariant)s after every step. Two reductions
//! keep the search tractable without losing violations:
//!
//! * **Sleep sets** (Godefroid): after exploring directive `d` from a
//!   state, sibling subtrees need not re-explore interleavings that merely
//!   run `d` later *past independent directives* — `d` is put to sleep in
//!   those subtrees and woken only by a dependent step. Independence is
//!   [`Machine::independent`]: distinct processes whose shared-memory
//!   footprints are disjoint commute.
//! * **State cache**: states are keyed by [`Machine::state_hash`]. A
//!   state revisited with a sleep set *no smaller* than a previously
//!   explored one, at no less depth, is skipped. The sequential witness
//!   search also requires the earlier visit to sit at an earlier-or-equal
//!   rank (position in schedule order), which is what makes it report the
//!   lexicographically least witness; the parallel verdict search does
//!   without that test.
//!
//! Both reductions are sound for state predicates: every reachable state
//! within the bound is reached by at least one explored schedule. The
//! engine itself lives in [`crate::parallel`]; this module keeps the
//! configuration types. The search is driven through
//! [`Checker`](crate::Checker).

use tpa_tso::{Directive, Machine, MemoryModel, ProcId, System};

use crate::invariant::Violation;

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum schedule length (search depth).
    pub max_steps: usize,
    /// Global budget on executed transitions; exceeding it aborts the
    /// search with [`EffortStats::complete`](crate::EffortStats)` == false`.
    pub max_transitions: u64,
    /// Crash budget: how many [`Directive::Crash`] moves the explorer may
    /// enumerate per schedule. The default 0 disables the fault model —
    /// every existing state space is bit-identical.
    pub max_crashes: u32,
    /// Wall-clock deadline; when it passes, the search aborts with
    /// [`IncompleteReason::DeadlineExpired`].
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 80,
            max_transitions: 20_000_000,
            max_crashes: 0,
            deadline: None,
        }
    }
}

/// Why an exhaustive search stopped short of covering its whole bounded
/// space. `None` in [`crate::EffortStats::incomplete`] means full
/// coverage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IncompleteReason {
    /// The global transition budget ([`ExploreConfig::max_transitions`])
    /// was exhausted.
    BudgetExhausted,
    /// The wall-clock deadline ([`ExploreConfig::deadline`]) expired.
    DeadlineExpired,
    /// A worker thread panicked; the surviving workers' results were
    /// kept, but the panicked worker's subtree was lost.
    WorkerPanic {
        /// The panic payload's message, so the verdict names the actual
        /// failure ("index out of bounds…") instead of just the fact of
        /// one.
        message: String,
    },
}

impl std::fmt::Display for IncompleteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncompleteReason::BudgetExhausted => write!(f, "transition budget exhausted"),
            IncompleteReason::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            IncompleteReason::WorkerPanic { message } => {
                write!(f, "a worker thread panicked: {message}")
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message — the two shapes
/// `panic!` actually produces, with a truthful fallback for anything
/// exotic thrown via `panic_any`.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// A violating schedule as found (pre-shrinking).
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// The invariant that fired and its diagnosis.
    pub violation: Violation,
    /// The full schedule from the initial state to the violating state.
    pub schedule: Vec<Directive>,
}

/// Every directive any process can execute in the current state.
pub fn enabled_all(machine: &Machine) -> Vec<Directive> {
    let mut out = Vec::new();
    enabled_all_into(machine, &mut out);
    out
}

/// Overwrites `out` with [`enabled_all`]`(machine)`, reusing its storage.
pub(crate) fn enabled_all_into(machine: &Machine, out: &mut Vec<Directive>) {
    out.clear();
    for i in 0..machine.n() {
        machine.enabled_directives_into(ProcId(i as u32), out);
    }
}

/// Replays the sibling-index path `indices` (a node's rank) from the
/// initial state of `system`: each index picks a directive from
/// [`enabled_all`] of the state reached so far. Returns the machine at
/// the end of the path and the schedule that reached it, or `None` when
/// an index names no enabled directive.
pub(crate) fn replay(
    system: &dyn System,
    model: MemoryModel,
    max_crashes: u32,
    indices: impl IntoIterator<Item = u32>,
) -> Option<(Machine, Vec<Directive>)> {
    let mut machine = Machine::with_model(system, model);
    machine.set_crash_budget(max_crashes);
    let mut schedule = Vec::new();
    for i in indices {
        let d = *enabled_all(&machine).get(i as usize)?;
        machine
            .step(d)
            .unwrap_or_else(|e| panic!("replay: enabled directive {d:?} failed: {e:?}"));
        schedule.push(d);
    }
    Some((machine, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{standard_invariants, Invariant, Violation};
    use crate::parallel::run_exhaustive;
    use tpa_tso::scripted::{Instr, ScriptSystem};
    use tpa_tso::{Machine, MemoryModel, Value, VarId};

    /// p0: v0 := 1; read v1.  p1: v1 := 1; read v0. The store-buffer
    /// litmus: TSO reaches r0 = r1 = 0.
    fn store_buffer() -> ScriptSystem {
        ScriptSystem::new(2, 2, |pid| {
            let me = pid.0;
            vec![
                Instr::Write { var: me, value: 1 },
                Instr::Read {
                    var: 1 - me,
                    reg: 0,
                },
                Instr::Halt,
            ]
        })
    }

    /// Fires when both processes read 0 — the TSO-only outcome.
    struct BothReadZero;
    impl Invariant for BothReadZero {
        fn name(&self) -> &'static str {
            "both-read-zero"
        }
        fn check(&self, m: &Machine) -> Option<Violation> {
            // Registers start at 0, so only count once both programs have
            // actually executed their read (i.e. halted).
            let halted =
                |p: u32| m.peek_next(tpa_tso::ProcId(p)) == tpa_tso::machine::NextEvent::Halted;
            let r = |p: u32| m.program(tpa_tso::ProcId(p)).and_then(|pr| pr.register(0));
            (halted(0) && halted(1) && r(0) == Some(0 as Value) && r(1) == Some(0)).then(|| {
                Violation {
                    invariant: "both-read-zero",
                    detail: "store-buffer reordering observed".into(),
                }
            })
        }
    }

    #[test]
    fn exhaustive_search_finds_the_tso_reordering() {
        let sys = store_buffer();
        let invs: Vec<Box<dyn Invariant>> = vec![Box::new(BothReadZero)];
        let out = run_exhaustive(
            &sys,
            MemoryModel::Tso,
            &invs,
            &ExploreConfig::default(),
            1,
            None,
            None,
            None,
            None,
            None,
        );
        let found = out.found.expect("TSO must exhibit r0 = r1 = 0");
        assert!(out.stats.transitions > 0);
        // Both reads executed before either commit: at least 4 steps.
        assert!(found.schedule.len() >= 4, "{:?}", found.schedule);
    }

    #[test]
    fn scripted_writers_satisfy_the_standard_battery() {
        let sys = store_buffer();
        let invs = standard_invariants();
        let out = run_exhaustive(
            &sys,
            MemoryModel::Tso,
            &invs,
            &ExploreConfig::default(),
            1,
            None,
            None,
            None,
            None,
            None,
        );
        assert!(out.found.is_none(), "unexpected violation: {:?}", out.found);
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].transitions, out.stats.transitions);
        assert!(out.stats.complete);
        assert!(out.stats.unique_states > 0);
    }

    #[test]
    fn sleep_sets_prune_commuting_writers_without_losing_states() {
        // Two processes writing disjoint variables: all interleavings
        // commute, so pruning should bite hard.
        let sys = ScriptSystem::new(2, 2, |pid| {
            vec![
                Instr::Write {
                    var: pid.0,
                    value: 7,
                },
                Instr::Fence,
                Instr::Halt,
            ]
        });
        let invs = standard_invariants();
        let out = run_exhaustive(
            &sys,
            MemoryModel::Tso,
            &invs,
            &ExploreConfig::default(),
            1,
            None,
            None,
            None,
            None,
            None,
        );
        assert!(out.found.is_none());
        assert!(out.stats.complete);
        assert!(
            out.stats.pruned_sleep + out.stats.cache_skips > 0,
            "expected pruning on a fully commuting system: {:?}",
            out.stats
        );
    }

    #[test]
    fn pruned_search_still_reaches_every_final_value() {
        // Cross-check: exhaustive exploration with pruning still finds the
        // schedule where p1's CAS observes p0's committed write.
        let sys = ScriptSystem::new(2, 1, |pid| {
            if pid.0 == 0 {
                vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt]
            } else {
                vec![
                    Instr::Cas {
                        var: 0,
                        expected: 1,
                        new: 5,
                        success_reg: 0,
                    },
                    Instr::Halt,
                ]
            }
        });
        struct CasWon;
        impl Invariant for CasWon {
            fn name(&self) -> &'static str {
                "cas-won"
            }
            fn check(&self, m: &Machine) -> Option<Violation> {
                (m.value(VarId(0)) == 5).then(|| Violation {
                    invariant: "cas-won",
                    detail: "p1's CAS observed the committed 1".into(),
                })
            }
        }
        let invs: Vec<Box<dyn Invariant>> = vec![Box::new(CasWon)];
        let out = run_exhaustive(
            &sys,
            MemoryModel::Tso,
            &invs,
            &ExploreConfig::default(),
            1,
            None,
            None,
            None,
            None,
            None,
        );
        assert!(out.found.is_some());
    }
}
