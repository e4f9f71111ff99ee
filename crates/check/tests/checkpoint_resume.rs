//! The checkpoint/resume headline oracle: interrupt-then-resume must be
//! observationally identical to a run that was never interrupted.
//!
//! Each case runs an uninterrupted *control*, then the same search with
//! a transition budget small enough to force one or more interruptions.
//! Every interrupted leg writes a checkpoint (the budget makes the
//! interrupt deterministic, unlike a wall-clock deadline) and the chain
//! is resumed — at a *different* thread count each leg, under both
//! memory models, native and VM execution, concrete and canonical keys —
//! until it completes. The final verdict, the lexicographically least
//! witness and the unique/canonical state counts must be bit-equal to
//! the control; per-leg effort counters legitimately differ, exactly as
//! they already do across thread counts. A checkpoint records which
//! search it interrupted: a verdict-phase image resumes at any thread
//! count, a witness-phase image on one thread, and chains that cross
//! from one phase into the other must still match the control.

use std::path::{Path, PathBuf};

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::invariant::{Invariant, Violation};
use tpa_check::{
    Checker, Checkpoint, Execution, Features, IncompleteReason, Report, SearchPhase, StateKeys,
    Verdict,
};
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::{Directive, Machine, MemoryModel};

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tpa-ckpt-resume-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Drives an interrupted report to completion: every `Incomplete`
/// verdict must carry a checkpoint, which is resumed through a freshly
/// built checker from `make` (the leg index lets callers vary the thread
/// count per leg). Returns the final report and the number of resumed
/// legs.
fn drive<'a>(mut report: Report, make: &dyn Fn(usize) -> Checker<'a>) -> (Report, usize) {
    let mut legs = 0usize;
    loop {
        match &report.verdict {
            Verdict::Incomplete {
                checkpoint: Some(path),
                ..
            } => {
                legs += 1;
                assert!(legs < 64, "resume chain did not converge in 64 legs");
                let path = path.clone();
                report = make(legs)
                    .resume(&path)
                    .expect("a search's own checkpoint must be compatible with it");
            }
            Verdict::Incomplete {
                reason,
                checkpoint: None,
            } => panic!("interrupted with checkpointing armed but no checkpoint: {reason}"),
            _ => return (report, legs),
        }
    }
}

/// Verdict + deterministic-outputs equality between a control run and a
/// resumed chain.
fn assert_identical(control: &Report, resumed: &Report, label: &str) {
    match (&control.verdict, &resumed.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(control.stats.complete, "{label}: control hit its budget");
            assert!(resumed.stats.complete, "{label}: chain never completed");
            assert_eq!(
                control.stats.unique_states, resumed.stats.unique_states,
                "{label}: resumed chain visited a different state set"
            );
        }
        (
            Verdict::Violation {
                found: a,
                shrunk: sa,
                ..
            },
            Verdict::Violation {
                found: b,
                shrunk: sb,
                ..
            },
        ) => {
            assert_eq!(a, b, "{label}: resumed witness differs from control");
            assert_eq!(sa, sb, "{label}: shrunk witness differs from control");
        }
        (c, r) => panic!("{label}: verdicts disagree (control {c:?} vs resumed {r:?})"),
    }
}

/// The budget that forces interruption: a fraction of the control's
/// total effort, floored high enough that every leg makes progress.
fn interrupt_budget(control: &Report) -> u64 {
    (control.stats.transitions / 4).max(40)
}

/// The whole lock portfolio at n = 2, TSO and PSO: interrupt at a
/// quarter of the control's transition budget and resume with the thread
/// count cycling 1 → 2 → 4 across legs. Unique-state counts and verdicts
/// must be unchanged, and the chain must really have been interrupted.
#[test]
fn portfolio_interrupt_resume_matches_uninterrupted() {
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for lock in tpa_algos::all_locks(2, 1) {
            let control = Checker::new(lock.as_ref())
                .model(model)
                .max_steps(40)
                .threads(2)
                .exhaustive();
            assert!(control.stats.complete);
            let label = format!("{} under {model:?}", control.algo);
            let dir = scratch(&control.algo.replace('/', "_"));
            let budget = interrupt_budget(&control);
            let make = |leg: usize| {
                Checker::new(lock.as_ref())
                    .model(model)
                    .max_steps(40)
                    .threads([1, 2, 4][leg % 3])
                    .max_transitions(budget)
                    .checkpoint_dir(&*dir)
            };
            let first = make(0).exhaustive();
            assert!(
                matches!(first.verdict, Verdict::Incomplete { .. }),
                "{label}: budget {budget} failed to interrupt ({} transitions)",
                first.stats.transitions
            );
            let (resumed, legs) = drive(first, &make);
            assert!(legs >= 1, "{label}: chain completed without resuming");
            assert_identical(&control, &resumed, &label);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A violating search: the fenceless bakery's lexicographically least
/// witness must survive interruption mid-hunt — including when the best
/// candidate so far is checkpointed and a better (lex-smaller) one is
/// found only after resuming.
#[test]
fn violation_witness_survives_interrupt_resume() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let control = Checker::new(&broken).max_steps(60).threads(1).exhaustive();
    assert!(
        matches!(control.verdict, Verdict::Violation { .. }),
        "control must catch the fenceless bakery"
    );
    let dir = scratch("bakery-nofence");
    let budget = interrupt_budget(&control);
    let make = |leg: usize| {
        // Leg 0 runs at 1 thread: a violating search terminates early,
        // so only a deterministic first leg guarantees the interrupt.
        Checker::new(&broken)
            .max_steps(60)
            .threads([1, 4, 2][leg % 3])
            .max_transitions(budget)
            .checkpoint_dir(&*dir)
    };
    let (resumed, legs) = drive(make(0).exhaustive(), &make);
    assert!(legs >= 1, "chain completed without resuming");
    assert_identical(&control, &resumed, "bakery-nofence");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The phases of every checkpoint written into `dir`, oldest first
/// (checkpoint ids sort by creation time).
fn phases_in(dir: &Path) -> Vec<SearchPhase> {
    let mut ckpts: Vec<Checkpoint> = std::fs::read_dir(dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tpack"))
        .map(|p| Checkpoint::load(&p).expect("a written checkpoint loads"))
        .collect();
    ckpts.sort_by(|a, b| a.id().cmp(b.id()));
    ckpts.iter().map(Checkpoint::phase).collect()
}

/// A verdict-phase checkpoint resumes as a verdict search at any thread
/// count. The fenceless bakery's first leg runs at 4 threads and stops
/// in the verdict phase; the chain is resumed at 1 thread and, again
/// from the start, at 2 threads. Each chain finds the violation in the
/// verdict phase, carries on into the witness search (the checkpoints
/// after that are witness-phase images, resumed on one thread) and must
/// report the 1-thread control's witness and shrunk witness.
#[test]
fn verdict_phase_checkpoint_resumes_at_any_thread_count() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let control = Checker::new(&broken).max_steps(60).threads(1).exhaustive();
    assert!(
        matches!(control.verdict, Verdict::Violation { .. }),
        "control must catch the fenceless bakery"
    );
    let budget = interrupt_budget(&control);
    for resume_threads in [1, 2] {
        let label = format!("bakery-nofence resumed at {resume_threads}");
        let dir = scratch(&format!("phase-{resume_threads}"));
        let make = |leg: usize| {
            let (threads, budget) = match leg {
                // Both processes must run their six-access doorway and
                // wait loop before mutual exclusion can fail, so no
                // schedule of 8 transitions violates it: the first leg
                // cannot leave the verdict phase.
                0 => (4, 8),
                _ => (resume_threads, budget),
            };
            Checker::new(&broken)
                .max_steps(60)
                .threads(threads)
                .max_transitions(budget)
                .checkpoint_dir(&*dir)
        };
        let first = make(0).exhaustive();
        assert!(
            matches!(first.verdict, Verdict::Incomplete { .. }),
            "{label}: the first leg was not interrupted: {:?}",
            first.verdict
        );
        let (resumed, legs) = drive(first, &make);
        assert!(legs >= 2, "{label}: chain took {legs} resumed legs");
        assert_identical(&control, &resumed, &label);
        let phases = phases_in(&dir);
        assert_eq!(phases.first(), Some(&SearchPhase::Verdict), "{label}");
        assert!(
            phases.contains(&SearchPhase::Witness),
            "{label}: the chain never checkpointed its witness search: {phases:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fires once process 0 has halted.
struct Halted;
impl Invariant for Halted {
    fn name(&self) -> &'static str {
        "halted"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        (m.peek_next(tpa_tso::ProcId(0)) == tpa_tso::machine::NextEvent::Halted).then(|| {
            Violation {
                invariant: "halted",
                detail: "process 0 halted".into(),
            }
        })
    }
}

/// A witness search interrupted before it holds a candidate never
/// reports a pass. One process runs `fence; halt`: every state has one
/// enabled directive, so the search is a single chain that ends by
/// violating `Halted`. At 2 threads with a budget of exactly that
/// chain's length, the verdict search spends the budget finding the
/// violation and the witness search that follows has none left. Without
/// a checkpoint the run reports the verdict search's violation,
/// incomplete; with one it reports `Incomplete` with a witness-phase
/// checkpoint, which resumes to the control's witness.
#[test]
fn interrupted_witness_search_never_passes() {
    let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Fence, Instr::Halt]);
    let make = |threads: usize| {
        Checker::new(&sys)
            .invariants(vec![Box::new(Halted)])
            .max_steps(4)
            .threads(threads)
    };
    let control = make(1).exhaustive();
    let Verdict::Violation { found: least, .. } = &control.verdict else {
        panic!("the first step halts process 0: {:?}", control.verdict);
    };
    let chain = least.len() as u64;

    let bare = make(2).max_transitions(chain).exhaustive();
    let Verdict::Violation { found, .. } = &bare.verdict else {
        panic!(
            "no checkpoint: expected the verdict search's violation, got {:?}",
            bare.verdict
        );
    };
    assert_eq!(found, least);
    assert!(!bare.stats.complete);
    assert_eq!(
        bare.stats.incomplete,
        Some(IncompleteReason::BudgetExhausted)
    );
    assert_eq!(bare.stats.transitions, chain);

    let dir = scratch("witness-interrupt");
    let checkpointed = make(2)
        .max_transitions(chain)
        .checkpoint_dir(&*dir)
        .exhaustive();
    let Verdict::Incomplete {
        checkpoint: Some(path),
        ..
    } = &checkpointed.verdict
    else {
        panic!(
            "with a checkpoint: expected Incomplete, got {:?}",
            checkpointed.verdict
        );
    };
    let ckpt = Checkpoint::load(path).expect("load");
    assert_eq!(ckpt.phase(), SearchPhase::Witness);
    assert!(!ckpt.has_candidate());
    assert_eq!(
        ckpt.transitions(),
        chain,
        "the verdict search's transitions"
    );
    let resumed = make(2).resume(path).expect("compatible");
    assert_identical(&control, &resumed, "witness-phase resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// VM execution resumes identically: the fingerprint carries the
/// bytecode hash, the resumed legs re-engage the VM, and the state count
/// matches the uninterrupted compiled run.
#[test]
fn vm_execution_resumes_identically() {
    let compiled = Features {
        execution: Execution::Compiled,
        ..Features::default()
    };
    let lock = tpa_algos::lock_by_name("ttas", 2, 1).unwrap();
    let control = Checker::new(lock.as_ref())
        .max_steps(40)
        .threads(2)
        .features(compiled)
        .exhaustive();
    assert!(control.vm, "ttas must compile to the VM");
    let dir = scratch("vm");
    let budget = interrupt_budget(&control);
    let make = |leg: usize| {
        Checker::new(lock.as_ref())
            .max_steps(40)
            .threads([1, 4][leg % 2])
            .features(compiled)
            .max_transitions(budget)
            .checkpoint_dir(&*dir)
    };
    let (resumed, legs) = drive(make(0).exhaustive(), &make);
    assert!(legs >= 1, "chain completed without resuming");
    assert!(resumed.vm, "resumed legs must re-engage the VM");
    assert_identical(&control, &resumed, "ttas under the VM");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Canonical (symmetry-reduced) keys resume identically: the canonical
/// state count — strictly smaller than the concrete one — survives the
/// interruption, and the resumed legs re-validate and re-engage the
/// group. Each resumed frontier node's renaming table is rebuilt from
/// scratch, so the inputs include `mcs` at n = 3: five non-identity
/// renamings, which rename the pid-valued `tail` and `next[]`, besides
/// `filter` at n = 2 with its one.
#[test]
fn canonical_keys_resume_identically() {
    let canonical = Features {
        keys: StateKeys::Canonical,
        ..Features::default()
    };
    for (name, n) in [("filter", 2), ("mcs", 3)] {
        let lock = tpa_algos::lock_by_name(name, n, 1).unwrap();
        let control = Checker::new(lock.as_ref())
            .max_steps(40)
            .threads(2)
            .features(canonical)
            .exhaustive();
        assert!(control.symmetry, "{name} must engage symmetry at n = {n}");
        let dir = scratch(&format!("sym-{name}"));
        let budget = interrupt_budget(&control);
        let make = |leg: usize| {
            Checker::new(lock.as_ref())
                .max_steps(40)
                .threads([2, 1, 4][leg % 3])
                .features(canonical)
                .max_transitions(budget)
                .checkpoint_dir(&*dir)
        };
        let (resumed, legs) = drive(make(0).exhaustive(), &make);
        assert!(legs >= 1, "{name}: chain completed without resuming");
        assert!(
            resumed.symmetry,
            "{name}: resumed legs must re-engage symmetry"
        );
        assert_identical(
            &control,
            &resumed,
            &format!("{name} at n = {n} under canonical keys"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash-injecting search (recoverable bakery, crash budget 1) resumes
/// identically — the crash budget is part of the fingerprint and of the
/// replayed machine state.
#[test]
fn crash_budget_resumes_identically() {
    let sys = BakeryLock::recoverable(2, 1);
    let control = Checker::new(&sys)
        .max_steps(36)
        .max_crashes(1)
        .threads(2)
        .exhaustive();
    assert!(control.stats.complete);
    let dir = scratch("crash");
    let budget = interrupt_budget(&control);
    let make = |leg: usize| {
        Checker::new(&sys)
            .max_steps(36)
            .max_crashes(1)
            .threads([1, 4][leg % 2])
            .max_transitions(budget)
            .checkpoint_dir(&*dir)
    };
    let (resumed, legs) = drive(make(0).exhaustive(), &make);
    assert!(legs >= 1, "chain completed without resuming");
    assert_identical(&control, &resumed, "recoverable bakery, 1 crash");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fires when both store-buffer litmus processes read 0.
struct BothReadZero;
impl Invariant for BothReadZero {
    fn name(&self) -> &'static str {
        "both-read-zero"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        let halted =
            |p: u32| m.peek_next(tpa_tso::ProcId(p)) == tpa_tso::machine::NextEvent::Halted;
        let r = |p: u32| m.program(tpa_tso::ProcId(p)).and_then(|pr| pr.register(0));
        (halted(0) && halted(1) && r(0) == Some(0) && r(1) == Some(0)).then(|| Violation {
            invariant: "both-read-zero",
            detail: "store-buffer reordering observed".into(),
        })
    }
}

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

/// Fires once variable 258 holds anything but 0 in memory.
struct Var258StaysZero;
impl Invariant for Var258StaysZero {
    fn name(&self) -> &'static str {
        "var-258-stays-0"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        (m.value(tpa_tso::VarId(258)) != 0).then(|| Violation {
            invariant: "var-258-stays-0",
            detail: "process 258's write reached memory".into(),
        })
    }
}

/// A node with more than 255 enabled directives, so sibling indices
/// take the rank's wide form. 260 processes each write their own
/// variable once; the only violating schedules issue and commit process
/// 258's write, and the least of them has rank [258, 258]. The witness
/// must be the same at 1 and 2 threads and across a budget interrupt
/// and resume.
#[test]
fn wide_ranks_keep_the_least_witness() {
    let sys = ScriptSystem::new(260, 260, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                value: 1,
            },
            Instr::Halt,
        ]
    });
    let p = tpa_tso::ProcId(258);
    let least = vec![Directive::Issue(p), Directive::Commit(p)];
    let make = |threads: usize| {
        Checker::new(&sys)
            .invariants(vec![Box::new(Var258StaysZero)])
            .max_steps(2)
            .threads(threads)
    };
    let found = |report: &Report| match &report.verdict {
        Verdict::Violation { found, .. } => found.clone(),
        other => panic!("expected a violation, got {other:?}"),
    };
    let control = make(1).exhaustive();
    assert_eq!(found(&control), least, "1 thread");
    assert_eq!(found(&make(2).exhaustive()), least, "2 threads");

    let dir = scratch("wide");
    let budget = interrupt_budget(&control);
    let interrupted = |leg: usize| {
        make([1, 2][leg % 2])
            .max_transitions(budget)
            .checkpoint_dir(&*dir)
    };
    let (resumed, legs) = drive(interrupted(0).exhaustive(), &interrupted);
    assert!(legs >= 1, "chain completed without resuming");
    assert_eq!(found(&resumed), least, "resumed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A custom invariant battery travels through the fingerprint: the
/// resumed checker must configure the same battery *before* resuming
/// (the candidate's invariant is resolved by name from it), and the
/// witness matches the control.
#[test]
fn custom_battery_resumes_and_preserves_the_witness() {
    let sys = store_buffer();
    let battery = || -> Vec<Box<dyn Invariant>> { vec![Box::new(BothReadZero)] };
    let control = Checker::new(&sys)
        .invariants(battery())
        .max_steps(24)
        .threads(1)
        .exhaustive();
    assert!(matches!(control.verdict, Verdict::Violation { .. }));
    let dir = scratch("battery");
    let budget = (control.stats.transitions / 3).max(8);
    let make = |leg: usize| {
        // Leg 0 at 1 thread: deterministic interrupt (see above).
        Checker::new(&sys)
            .invariants(battery())
            .max_steps(24)
            .threads([1, 2][leg % 2])
            .max_transitions(budget)
            .checkpoint_dir(&*dir)
    };
    let (resumed, legs) = drive(make(0).exhaustive(), &make);
    assert!(legs >= 1, "chain completed without resuming");
    assert_identical(&control, &resumed, "store-buffer custom battery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic checkpoints (`checkpoint_every`) must not perturb the search
/// that emits them, and any mid-flight snapshot must resume to the
/// control's exact result — twice, to pin resume determinism.
#[test]
fn periodic_checkpoints_are_resumable_and_non_perturbing() {
    let lock = tpa_algos::lock_by_name("tas", 2, 1).unwrap();
    let control = Checker::new(lock.as_ref())
        .max_steps(40)
        .threads(2)
        .exhaustive();
    assert!(control.stats.complete);
    let dir = scratch("periodic");
    let recorder = std::sync::Arc::new(tpa_obs::Recorder::in_memory());
    let with_ckpt = Checker::new(lock.as_ref())
        .max_steps(40)
        .threads(2)
        .checkpoint_dir(&*dir)
        .checkpoint_every(40)
        .probe(recorder.clone())
        .exhaustive();
    assert_identical(&control, &with_ckpt, "tas with periodic checkpoints");
    // Workers keep counting across the legs between snapshots, so the
    // run log stays valid.
    if let Err(e) = tpa_obs::schema::validate_lines(&recorder.lines()) {
        panic!("run log across checkpoint legs is invalid: {e}");
    }
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tpack"))
        .collect();
    snapshots.sort();
    assert!(
        !snapshots.is_empty(),
        "a 40-expansion cadence must snapshot this search at least once"
    );
    let resume_from = |path: &Path| {
        let report = Checker::new(lock.as_ref())
            .max_steps(40)
            .threads(4)
            .resume(path)
            .expect("periodic snapshot must be compatible");
        assert_identical(&control, &report, "tas resumed from a periodic snapshot");
        report
    };
    let first = resume_from(&snapshots[0]);
    let again = resume_from(&snapshots[0]);
    assert_eq!(
        first.stats.unique_states, again.stats.unique_states,
        "resuming the same snapshot twice diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The run ledger records resume lineage: the interrupted run carries
/// the checkpoint id it wrote, the resumed run carries the same id as
/// `resumed_from`, and both survive the record round trip — so
/// `tpa_runs` can pair the chain honestly.
#[test]
fn ledger_records_resume_lineage() {
    let lock = tpa_algos::lock_by_name("tas", 2, 1).unwrap();
    let dir = scratch("lineage");
    let ledger_dir = dir.join("ledger");
    let ckpt_dir = dir.join("ckpt");
    let control = Checker::new(lock.as_ref())
        .max_steps(40)
        .threads(1)
        .exhaustive();
    let budget = interrupt_budget(&control);
    let make = |_: usize| {
        Checker::new(lock.as_ref())
            .max_steps(40)
            .threads(1)
            .max_transitions(budget)
            .checkpoint_dir(&ckpt_dir)
            .ledger(ledger_dir.clone())
    };
    let first = make(0).exhaustive();
    assert!(matches!(first.verdict, Verdict::Incomplete { .. }));
    let (resumed, legs) = drive(first, &make);
    assert!(legs >= 1);
    assert_identical(&control, &resumed, "tas through the ledger");

    let ledger = tpa_obs::Ledger::open(&ledger_dir).expect("open ledger");
    let (runs, unreadable) = ledger.runs().expect("read ledger");
    assert_eq!(unreadable, 0);
    assert_eq!(runs.len(), legs + 1, "one record per leg");
    // Every interrupted leg wrote a checkpoint; every resumed leg names
    // the previous leg's checkpoint. The chain must link up exactly.
    assert!(runs[0].resumed_from.is_empty(), "first leg resumed nothing");
    for pair in runs.windows(2) {
        assert!(
            !pair[0].checkpoint.is_empty(),
            "an interrupted leg must record the checkpoint it wrote"
        );
        assert_eq!(
            pair[1].resumed_from, pair[0].checkpoint,
            "resumed leg must name its predecessor's checkpoint"
        );
    }
    assert!(
        runs.last().unwrap().checkpoint.is_empty() || !matches!(resumed.verdict, Verdict::Pass),
        "a completed final leg writes no abort-time checkpoint"
    );
    // The full record round-trips the lineage (and the fallback knob's
    // effort shows up in stats, 0 here — no deadline fired).
    let full = ledger.load(&runs[1].id).expect("load resumed record");
    assert_eq!(full, runs[1]);
    assert_eq!(full.resumed_from, runs[0].checkpoint);
    assert_eq!(full.stats.get("fallback_schedules"), Some(&0));
    let _ = std::fs::remove_dir_all(&dir);
}
