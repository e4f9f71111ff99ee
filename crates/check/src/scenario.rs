//! Running compiled `.tpa` scenarios end to end: build the invariant
//! battery a scenario asked for, run every `check` clause, and judge
//! each clause's verdict against its `expect`.
//!
//! This is the engine behind the `check_file` CLI and the corpus golden
//! tests; library users who only want "check this system" should hand
//! the compiled scenario's `system` to [`Checker::new`](crate::Checker::new)
//! instead.

use std::path::PathBuf;
use std::sync::Arc;

use tpa_dsl::{AssertKind, CompiledScenario, Expect, Forbid};
use tpa_obs::Metrics;
use tpa_tso::Machine;

use crate::checker::{Checker, Features, StateKeys};
use crate::checkpoint::Checkpoint;
use crate::invariant::{
    crash_invariants, standard_invariants, CrashSafeExclusion, Invariant, MutualExclusion,
    RecoverableProgress, TerminalQuiescence, Violation,
};
use crate::verdict::{Report, Verdict};

/// A `forbid` predicate adapted to the checker's [`Invariant`] trait:
/// fires when every process has halted in a state the scenario declared
/// illegal.
pub struct ForbiddenState(pub Forbid);

impl Invariant for ForbiddenState {
    fn name(&self) -> &'static str {
        "forbidden-state"
    }

    fn check(&self, machine: &Machine) -> Option<Violation> {
        self.0.matches(machine).then(|| Violation {
            invariant: "forbidden-state",
            detail: format!("forbidden terminal state reached: {}", self.0.text),
        })
    }
}

fn named_invariant(kind: AssertKind) -> Box<dyn Invariant> {
    match kind {
        AssertKind::Exclusion => Box::new(MutualExclusion),
        AssertKind::Liveness => Box::new(TerminalQuiescence),
        AssertKind::CrashExclusion => Box::new(CrashSafeExclusion),
        AssertKind::Recovery => Box::new(RecoverableProgress),
    }
}

/// The invariant battery a scenario's declarations select for a clause
/// with crash budget `crashes`.
///
/// Explicit properties win: if the scenario has `forbid` or `assert`
/// declarations, the battery is exactly those. Otherwise the default
/// battery applies — [`crash_invariants`] when the clause injects
/// crashes, [`standard_invariants`] when it doesn't.
pub fn battery(scenario: &CompiledScenario, crashes: u32) -> Vec<Box<dyn Invariant>> {
    if scenario.forbids.is_empty() && scenario.asserts.is_empty() {
        return if crashes > 0 {
            crash_invariants()
        } else {
            standard_invariants()
        };
    }
    let mut battery: Vec<Box<dyn Invariant>> = Vec::new();
    for f in &scenario.forbids {
        battery.push(Box::new(ForbiddenState(f.clone())));
    }
    for &kind in &scenario.asserts {
        battery.push(named_invariant(kind));
    }
    battery
}

/// The outcome of one `check` clause.
pub struct ClauseOutcome {
    /// The clause, echoed back.
    pub clause: tpa_dsl::Check,
    /// The full checker report.
    pub report: Report,
    /// Whether the verdict matched the clause's `expect`.
    pub ok: bool,
    /// Whether this clause continued from the checkpoint in
    /// [`RunOptions::resume`] rather than starting fresh.
    pub resumed: bool,
}

impl ClauseOutcome {
    /// One status line: `tso expect violation .. ok (12345 states, 1.2ms)`.
    pub fn summary(&self) -> String {
        let expect = match self.clause.expect {
            Expect::Pass => "pass",
            Expect::Violation => "violation",
        };
        let status = if self.ok { "ok" } else { "FAILED" };
        let resumed = if self.resumed { " [resumed]" } else { "" };
        format!(
            "{model:>3} expect {expect:<9} .. {status}{resumed} ({states} states, {transitions} transitions, {wall:.1?})",
            model = match self.clause.model {
                tpa_tso::MemoryModel::Tso => "tso",
                tpa_tso::MemoryModel::Pso => "pso",
            },
            states = self.report.stats.unique_states,
            transitions = self.report.stats.transitions,
            wall = self.report.wall,
        )
    }
}

/// Observability options for a scenario run — everything
/// [`run_checks_opts`] threads into each clause's [`Checker`] beyond the
/// thread count.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Worker threads per clause (0 is clamped to 1).
    pub threads: usize,
    /// Append a [`tpa_obs::RunRecord`] per clause into this ledger
    /// directory.
    pub ledger: Option<PathBuf>,
    /// Scenario identity base for ledger records; clause `i` is recorded
    /// as `{id}#{i}`. Defaults to the scenario's declared name.
    pub scenario_id: Option<String>,
    /// Metrics registry shared by every clause's search.
    pub metrics: Option<Arc<Metrics>>,
    /// Wall-clock deadline per clause ([`Checker::deadline`]).
    pub deadline: Option<std::time::Duration>,
    /// Directory for search checkpoints ([`Checker::checkpoint_dir`]),
    /// threaded into every clause.
    pub checkpoint_dir: Option<PathBuf>,
    /// Periodic checkpoint cadence in node expansions
    /// ([`Checker::checkpoint_every`]).
    pub checkpoint_every: Option<u64>,
    /// A checkpoint file to resume. The checkpoint's fingerprint decides
    /// which clause it belongs to: the first clause whose own
    /// configuration — model, step bound, crash budget, battery,
    /// features — matches the fingerprint resumes from it
    /// ([`Checker::resume_from`]), and the rest run fresh.
    /// [`run_checks_opts`] fails before any clause runs if no clause
    /// matches, and fails at that clause if the program changed since —
    /// a stale or foreign checkpoint must not silently turn into a
    /// from-scratch run.
    pub resume: Option<PathBuf>,
}

/// Runs every `check` clause of a compiled scenario exhaustively and
/// judges each against its expectation. A scenario with no clauses gets
/// one implicit `check tso expect pass`.
///
/// Scenarios declared `symmetric` run with [`StateKeys::Canonical`], so
/// the DSL's symmetry annotations go through the checker's start-of-run
/// lockstep validation walk like any native system's.
pub fn run_checks(scenario: &CompiledScenario, threads: usize) -> Vec<ClauseOutcome> {
    run_checks_opts(
        scenario,
        &RunOptions {
            threads,
            ..RunOptions::default()
        },
    )
    .expect("run_checks configures no resume, the only fallible option")
}

/// [`run_checks`] with full [`RunOptions`]: per-clause ledger records
/// under `{scenario_id}#{clause_index}` identities, an optional shared
/// metrics registry, and checkpoint emission/resume.
///
/// # Errors
///
/// Only resume can fail: an unreadable or corrupt
/// [`RunOptions::resume`] checkpoint, one whose fingerprint no clause
/// of this scenario is configured for, or one its clause refuses as
/// stale or unreplayable. The message carries the diagnostic (offset
/// and section for corruption, each clause's first mismatching field
/// for a foreign checkpoint).
pub fn run_checks_opts(
    scenario: &CompiledScenario,
    opts: &RunOptions,
) -> Result<Vec<ClauseOutcome>, String> {
    let clauses: Vec<tpa_dsl::Check> = if scenario.checks.is_empty() {
        vec![tpa_dsl::Check {
            model: tpa_tso::MemoryModel::Tso,
            steps: None,
            crashes: 0,
            transitions: None,
            expect: Expect::Pass,
        }]
    } else {
        scenario.checks.clone()
    };
    let keys = if scenario.symmetric {
        StateKeys::Canonical
    } else {
        StateKeys::Concrete
    };
    let id_base = opts
        .scenario_id
        .clone()
        .unwrap_or_else(|| scenario.name.clone());
    let checkers: Vec<Checker> = clauses
        .iter()
        .enumerate()
        .map(|(index, clause)| {
            let mut checker = Checker::new(&scenario.system)
                .model(clause.model)
                .threads(opts.threads)
                .max_crashes(clause.crashes)
                .features(Features {
                    keys,
                    ..Features::default()
                })
                .invariants(battery(scenario, clause.crashes))
                .scenario_id(format!("{id_base}#{index}"));
            if let Some(steps) = clause.steps {
                checker = checker.max_steps(steps);
            }
            if let Some(budget) = clause.transitions {
                checker = checker.max_transitions(budget);
            }
            if let Some(dir) = &opts.ledger {
                checker = checker.ledger(dir.clone());
            }
            if let Some(m) = &opts.metrics {
                checker = checker.metrics(m.clone());
            }
            if let Some(deadline) = opts.deadline {
                checker = checker.deadline(deadline);
            }
            if let Some(dir) = &opts.checkpoint_dir {
                checker = checker.checkpoint_dir(dir.clone());
            }
            if let Some(every) = opts.checkpoint_every {
                checker = checker.checkpoint_every(every);
            }
            checker
        })
        .collect();
    // The fingerprint decides ownership, before any clause runs. Clauses
    // configured alike derive alike, so the first clause configured for
    // the checkpoint's search is the only one that can resume it; the
    // rest run fresh.
    let resume = match &opts.resume {
        Some(path) => {
            let ckpt = Checkpoint::load(path)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
            let mut rejections = Vec::new();
            let owner = checkers.iter().position(|checker| {
                let mismatch = checker.configured_mismatch(&ckpt);
                if let Some(msg) = &mismatch {
                    rejections.push(format!("clause #{}: {msg}", rejections.len()));
                }
                mismatch.is_none()
            });
            let Some(owner) = owner else {
                return Err(format!(
                    "checkpoint {} matches no clause of scenario `{}`:\n  {}",
                    path.display(),
                    scenario.name,
                    rejections.join("\n  ")
                ));
            };
            Some((owner, path, ckpt))
        }
        None => None,
    };
    let mut outcomes = Vec::with_capacity(clauses.len());
    for (index, (clause, checker)) in clauses.into_iter().zip(checkers).enumerate() {
        let (report, resumed) = match &resume {
            Some((owner, path, ckpt)) if *owner == index => {
                let report = checker.resume_from(ckpt).map_err(|e| {
                    format!(
                        "cannot resume from {} in clause #{index}: {e}",
                        path.display()
                    )
                })?;
                (report, true)
            }
            _ => (checker.exhaustive(), false),
        };
        let ok = matches!(
            (clause.expect, &report.verdict),
            (Expect::Pass, Verdict::Pass) | (Expect::Violation, Verdict::Violation { .. })
        );
        outcomes.push(ClauseOutcome {
            clause,
            report,
            ok,
            resumed,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: &str = "
        scenario sb
        procs 2
        var x
        var y
        proc 0 { reg a  x = 1  a = y  halt }
        proc 1 { reg b  y = 1  b = x  halt }
        forbid p0.a == 0 && p1.b == 0
        check tso expect violation
    ";

    #[test]
    fn store_buffering_clause_is_judged_against_its_expectation() {
        let scenario = tpa_dsl::compile(SB).expect("sb compiles");
        let outcomes = run_checks(&scenario, 1);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].ok, "{}", outcomes[0].summary());
        assert!(matches!(
            outcomes[0].report.verdict,
            Verdict::Violation { .. }
        ));
    }

    /// SB with two clauses that differ only in their step bound. Within
    /// 20 steps both processes can read 0, which the scenario forbids;
    /// within 3 neither halts.
    const SB_TWO_BOUNDS: &str = "
        scenario sb
        procs 2
        var x
        var y
        proc 0 { reg a  x = 1  a = y  halt }
        proc 1 { reg b  y = 1  b = x  halt }
        forbid p0.a == 0 && p1.b == 0
        check tso steps 20 expect pass
        check tso steps 3 expect pass
    ";

    /// Checkpoints both clauses of [`SB_TWO_BOUNDS`] at a zero deadline
    /// into a fresh directory; returns it and the 3-step clause's
    /// checkpoint.
    fn three_step_checkpoint(tag: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("tpa-scenario-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = tpa_dsl::compile(SB_TWO_BOUNDS).expect("compiles");
        let outcomes = run_checks_opts(
            &scenario,
            &RunOptions {
                threads: 1,
                deadline: Some(std::time::Duration::ZERO),
                checkpoint_dir: Some(dir.clone()),
                ..RunOptions::default()
            },
        )
        .expect("no resume requested");
        let Verdict::Incomplete {
            checkpoint: Some(path),
            ..
        } = &outcomes[1].report.verdict
        else {
            panic!("no checkpoint: {:?}", outcomes[1].report.verdict);
        };
        (dir, path.clone())
    }

    /// A checkpoint resumes only the clause configured for its search:
    /// the 3-step clause's checkpoint is refused by the 20-step clause,
    /// which runs fresh and finds the violation, and resumed by the
    /// 3-step clause.
    #[test]
    fn a_checkpoint_resumes_only_the_clause_it_was_written_for() {
        let (dir, path) = three_step_checkpoint("bounds");
        let scenario = tpa_dsl::compile(SB_TWO_BOUNDS).expect("compiles");
        let outcomes = run_checks_opts(
            &scenario,
            &RunOptions {
                threads: 1,
                resume: Some(path),
                ..RunOptions::default()
            },
        )
        .expect("the 3-step clause owns the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let summaries: Vec<String> = outcomes.iter().map(ClauseOutcome::summary).collect();
        assert!(!outcomes[0].resumed, "{summaries:?}");
        assert!(!outcomes[0].ok, "{summaries:?}");
        assert!(
            matches!(outcomes[0].report.verdict, Verdict::Violation { .. }),
            "{summaries:?}"
        );
        assert!(outcomes[1].resumed, "{summaries:?}");
        assert!(outcomes[1].ok, "{summaries:?}");
        assert!(outcomes[1].report.stats.complete, "{summaries:?}");
    }

    /// A checkpoint no clause is configured for fails the run before any
    /// clause runs (none reaches the ledger), naming each clause's first
    /// mismatching field.
    #[test]
    fn a_checkpoint_no_clause_matches_is_an_error() {
        let (dir, path) = three_step_checkpoint("orphan");
        let other_bound = SB_TWO_BOUNDS.replace("steps 3", "steps 4");
        let scenario = tpa_dsl::compile(&other_bound).expect("compiles");
        let ledger = dir.join("ledger");
        let err = run_checks_opts(
            &scenario,
            &RunOptions {
                threads: 1,
                ledger: Some(ledger.clone()),
                resume: Some(path),
                ..RunOptions::default()
            },
        )
        .err()
        .expect("no clause has a 3-step bound");
        let ran = ledger.exists();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!ran, "a clause ran before the checkpoint was refused");
        assert!(err.contains("matches no clause"), "{err}");
        assert!(
            err.contains("clause #0: ") && err.contains("clause #1: "),
            "{err}"
        );
        assert!(
            err.contains("max_steps is 3 in the checkpoint but 4 here"),
            "{err}"
        );
    }

    /// A checkpoint whose clause is configured for it but whose program
    /// has changed since fails the run at that clause as stale; it does
    /// not run fresh.
    #[test]
    fn a_stale_checkpoint_fails_at_its_clause() {
        let (dir, path) = three_step_checkpoint("stale");
        let edited = SB_TWO_BOUNDS.replace("x = 1  a = y", "x = 2  a = y");
        let scenario = tpa_dsl::compile(&edited).expect("compiles");
        let err = run_checks_opts(
            &scenario,
            &RunOptions {
                threads: 1,
                resume: Some(path),
                ..RunOptions::default()
            },
        )
        .err()
        .expect("the program changed since the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains("in clause #1: "), "{err}");
        assert!(err.contains("stale checkpoint"), "{err}");
    }

    #[test]
    fn scenarios_without_clauses_get_an_implicit_tso_pass() {
        let scenario = tpa_dsl::compile("scenario quiet procs 1 var x proc* { x = 1 fence halt }")
            .expect("compiles");
        let outcomes = run_checks(&scenario, 1);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].ok);
    }
}
