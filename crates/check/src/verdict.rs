//! The verdict pipeline: search → shrink → render.
//!
//! [`crate::Checker`] runs a search mode over an invariant battery and
//! packages the outcome as a [`Report`]. A raw violating schedule is
//! noise — tens of directives, most irrelevant — so a found violation is
//! first minimised with [`tpa_tso::shrink::shrink_schedule`] (ddmin
//! against the *same* state predicate that fired) and then rendered with
//! [`tpa_tso::trace`] into the per-process timeline a human actually
//! reads.

use tpa_obs::Metrics;
use tpa_tso::shrink::shrink_schedule;
use tpa_tso::{trace, Directive, Machine, MemoryModel, System};

use crate::explore::{FoundViolation, IncompleteReason};
use crate::invariant::Invariant;

/// Outcome of checking one system.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// No invariant fired *and* the search covered its whole bounded
    /// space (exhaustive) or ran every requested schedule (swarm).
    Pass,
    /// No invariant fired, but the search stopped early — transition
    /// budget, wall-clock deadline, or a worker panic — so unexplored
    /// schedules remain. Deliberately a distinct variant: an incomplete
    /// run must never be confused with a clean pass.
    Incomplete {
        /// What cut the search short, plus any fallback effort made.
        reason: String,
        /// Where the interrupted search was checkpointed, when
        /// checkpointing was configured ([`crate::Checker::checkpoint_dir`])
        /// and the write succeeded. Feed it back through
        /// [`crate::Checker::resume_from`] or `check_file --resume` to
        /// continue the search instead of restarting it.
        checkpoint: Option<std::path::PathBuf>,
    },
    /// An invariant fired; the witness schedule was shrunk and rendered.
    Violation {
        /// Name of the invariant that fired.
        invariant: &'static str,
        /// Diagnosis from the violating state.
        detail: String,
        /// The witness schedule exactly as the search found it. For
        /// exhaustive search this is deterministic — the
        /// lexicographically least violating schedule — regardless of
        /// thread count.
        found: Vec<Directive>,
        /// Length of the schedule as found (`found.len()`).
        found_len: usize,
        /// The minimised witness schedule.
        shrunk: Vec<Directive>,
        /// Human-readable trace of the minimised schedule.
        rendered: String,
    },
}

impl Verdict {
    /// Whether the check passed. `Incomplete` is *not* a pass: no
    /// violation was found, but schedules remain unexplored.
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

/// Search-effort counters, unified across modes. The counters are the
/// sum of [`Report::workers`] (plus, for a resumed search, the counters
/// its checkpoint carried).
#[derive(Clone, Default, Debug)]
pub struct EffortStats {
    /// Machine steps executed.
    pub transitions: u64,
    /// Sleep-set skips (exhaustive mode only).
    pub pruned_sleep: u64,
    /// State-cache skips (exhaustive mode only).
    pub cache_skips: u64,
    /// Distinct states visited (exhaustive mode only). On a pass with
    /// concrete keys it is every state within the step bound, at any
    /// thread count. On a violation it is the states the sequential
    /// witness search visited (a multi-thread search's verdict search is
    /// not counted), so it is the same at any thread count too.
    ///
    /// With [`crate::StateKeys::Canonical`] it counts canonical keys. The
    /// count is stable on one thread and on a violation, but a pass on
    /// more than one thread may count slightly more or fewer: where a
    /// renaming's validity depends on the state, two states of one orbit
    /// can have different keys, so which keys get recorded depends on
    /// which state of the orbit a worker expands first.
    pub unique_states: usize,
    /// Random schedules run (swarm mode only).
    pub schedules_run: usize,
    /// Whether the search covered its whole bounded space (exhaustive
    /// mode; swarm is never complete).
    pub complete: bool,
    /// Why an exhaustive search stopped short, when `complete` is false.
    pub incomplete: Option<IncompleteReason>,
}

/// The full result of checking one system in one mode.
#[derive(Clone, Debug)]
pub struct Report {
    /// The checked system's name.
    pub algo: String,
    /// The store-ordering model the check ran under.
    pub model: MemoryModel,
    /// `"exhaustive"` or `"swarm"`.
    pub mode: &'static str,
    /// Worker threads the search ran on.
    pub threads: usize,
    /// Whether the exhaustive search cached states under canonical
    /// (symmetry-reduced) keys. Always `false` in swarm mode, and when
    /// the system does not declare itself symmetric or the declared
    /// symmetry failed its start-of-run validation.
    pub symmetry: bool,
    /// Whether the search ran the system's compiled bytecode
    /// ([`tpa_tso::VmSystem`]) instead of its native programs. `false`
    /// when [`crate::Execution::Compiled`] was not requested or the
    /// system has no compiler ([`tpa_tso::System::compile_vm`] returned
    /// `None`).
    pub vm: bool,
    /// How many biased random schedules the deadline-degradation swarm
    /// fallback ran after an exhaustive deadline expiry
    /// ([`crate::Checker::fallback_schedules`]); `0` when the fallback
    /// did not fire.
    pub fallback_schedules: usize,
    /// Wall-clock time of the search (excluding shrinking/rendering).
    pub wall: std::time::Duration,
    /// Pass, or a shrunk and rendered violation.
    pub verdict: Verdict,
    /// How hard the search worked.
    pub stats: EffortStats,
    /// Per-worker breakdown of the effort. One entry per worker thread,
    /// in worker order; in swarm mode `nodes_expanded` counts schedules.
    pub workers: Vec<crate::parallel::WorkerStats>,
}

impl Report {
    /// Panics with the rendered counterexample if the check failed — the
    /// one-liner test assertion. An [`Verdict::Incomplete`] run also
    /// panics: "no violation found in the part we explored" is not a
    /// pass.
    pub fn assert_pass(&self) {
        match &self.verdict {
            Verdict::Pass => {}
            Verdict::Incomplete { reason, checkpoint } => {
                let resume_hint = checkpoint
                    .as_ref()
                    .map(|p| format!("; resumable from {}", p.display()))
                    .unwrap_or_default();
                panic!(
                    "{} [{}] did not finish checking: {} \
                     ({} transitions, {} unique states explored{})",
                    self.algo,
                    self.mode,
                    reason,
                    self.stats.transitions,
                    self.stats.unique_states,
                    resume_hint
                );
            }
            Verdict::Violation {
                invariant,
                detail,
                shrunk,
                rendered,
                ..
            } => {
                panic!(
                    "{} [{}] violates {}: {}\nminimal schedule ({} directives):\n{}",
                    self.algo,
                    self.mode,
                    invariant,
                    detail,
                    shrunk.len(),
                    rendered
                );
            }
        }
    }
}

/// Shrinks and renders a found violation (or passes).
pub(crate) fn condemn(
    system: &dyn System,
    model: MemoryModel,
    invariants: &[Box<dyn Invariant>],
    found: Option<FoundViolation>,
    metrics: Option<&Metrics>,
) -> Verdict {
    let Some(found) = found else {
        return Verdict::Pass;
    };
    let fired: &dyn Invariant = invariants
        .iter()
        .map(|b| b.as_ref())
        .find(|i| i.name() == found.violation.invariant)
        .expect("violation names an invariant from the battery");
    let iterations = metrics.map(|m| m.counter("shrink.iterations"));
    let shrunk = shrink_schedule(system, model, &found.schedule, |m| {
        if let Some(c) = &iterations {
            c.incr();
        }
        fired.check(m).is_some()
    });
    if let Some(m) = metrics {
        m.histogram("shrink.shrunk_len")
            .observe(shrunk.len() as u64);
    }
    let rendered = render(system, model, &shrunk);
    Verdict::Violation {
        invariant: found.violation.invariant,
        detail: found.violation.detail,
        found_len: found.schedule.len(),
        found: found.schedule,
        shrunk,
        rendered,
    }
}

/// Replays `schedule` from scratch and renders the resulting log.
fn render(system: &dyn System, model: MemoryModel, schedule: &[Directive]) -> String {
    let mut machine = Machine::with_model(system, model);
    for d in schedule {
        if machine.step(*d).is_err() {
            break;
        }
    }
    format!(
        "{}\n{}",
        trace::timeline(machine.log(), machine.n()),
        trace::listing(machine.log())
    )
}

#[cfg(test)]
mod tests {
    use crate::Checker;
    use tpa_tso::scripted::{Instr, ScriptSystem};

    fn disjoint_writers() -> ScriptSystem {
        ScriptSystem::new(2, 2, |pid| {
            vec![
                Instr::Write {
                    var: pid.0,
                    value: 1,
                },
                Instr::Fence,
                Instr::Halt,
            ]
        })
    }

    #[test]
    fn clean_system_passes_both_modes() {
        let sys = disjoint_writers();
        let ex = Checker::new(&sys).exhaustive();
        assert!(ex.verdict.passed());
        assert!(ex.stats.complete);
        assert_eq!(ex.mode, "exhaustive");
        ex.assert_pass();

        let sw = Checker::new(&sys).max_steps(128).seed(3).swarm(6);
        assert!(sw.verdict.passed());
        assert_eq!(sw.mode, "swarm");
        assert_eq!(sw.stats.schedules_run, 6);
    }
}
