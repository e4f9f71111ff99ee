//! VM-vs-native differential tests: checking a lock's compiled bytecode
//! must be *observationally identical* to checking its native program.
//!
//! `Execution::Compiled` swaps every process for its [`tpa_tso::VmProgram`]
//! (via [`tpa_tso::System::compile_vm`]) and promises that nothing else
//! changes: the verdict, the witness schedule (lexicographically least
//! violating schedule), the unique-state count of a complete passing
//! search, and — with `StateKeys::Canonical` — the canonical-state count are
//! all pinned against the native run here, over the whole lock portfolio,
//! under both memory models, at several thread counts. Only wall-clock
//! time is allowed to differ.

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::invariant::{CrashSafeExclusion, Invariant, Violation};
use tpa_check::{Checker, Execution, Features, Report, Verdict};

fn exec_of(vm: bool) -> Features {
    Features {
        execution: if vm {
            Execution::Compiled
        } else {
            Execution::Native
        },
        ..Features::default()
    }
}
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::{Directive, Machine, MemoryModel, System};

fn run(system: &dyn System, model: MemoryModel, threads: usize, vm: bool) -> Report {
    Checker::new(system)
        .model(model)
        .max_steps(40)
        .max_transitions(4_000_000)
        .threads(threads)
        .features(exec_of(vm))
        .exhaustive()
}

fn assert_identical(native: &Report, vm: &Report, label: &str) {
    assert!(!native.vm, "{label}: native run unexpectedly compiled");
    assert!(vm.vm, "{label}: vm run did not engage the compiler");
    match (&native.verdict, &vm.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(native.stats.complete, "{label}: native run hit the budget");
            assert!(vm.stats.complete, "{label}: vm run hit the budget");
            assert_eq!(
                native.stats.unique_states, vm.stats.unique_states,
                "{label}: vm search visited a different state set"
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
            assert_eq!(a, b, "{label}: vm witness differs from native");
            assert_eq!(sa, sb, "{label}: vm shrunk witness differs from native");
        }
        (n, v) => panic!(
            "{label}: verdicts disagree (native {}, vm {})",
            if n.passed() { "pass" } else { "violation" },
            if v.passed() { "pass" } else { "violation" },
        ),
    }
}

/// Every lock in the portfolio compiles.
#[test]
fn the_whole_portfolio_compiles() {
    for lock in tpa_algos::all_locks(3, 1) {
        assert!(
            lock.compile_vm().is_some(),
            "{} has no bytecode compiler",
            lock.name()
        );
    }
}

/// The full lock portfolio at n = 2 under both memory models: identical
/// verdict and unique-state count, native vs compiled.
#[test]
fn portfolio_n2_vm_agrees_with_native() {
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for lock in tpa_algos::all_locks(2, 1) {
            let native = run(lock.as_ref(), model, 1, false);
            let vm = run(lock.as_ref(), model, 1, true);
            assert_identical(&native, &vm, &format!("{} under {model:?}", native.algo));
        }
    }
}

/// The agreement holds at every thread count the parallel engine
/// supports, not just sequentially (the native baseline is itself
/// thread-count-invariant, pinned by `differential.rs`).
#[test]
fn vm_agrees_with_native_at_every_thread_count() {
    for lock in tpa_algos::all_locks(2, 1) {
        let native = run(lock.as_ref(), MemoryModel::Tso, 1, false);
        for threads in [2, 4, 8] {
            let vm = run(lock.as_ref(), MemoryModel::Tso, threads, true);
            assert_identical(&native, &vm, &format!("{} @{threads}", native.algo));
        }
    }
}

/// With `StateKeys::Canonical` the compiled system must engage the same
/// reduction (the bytecode carries its own renaming semantics — see
/// `tpa_tso::bytecode::SymMode`) and land on the same canonical-state
/// count as the native run.
#[test]
fn symmetry_reduced_counts_agree() {
    for lock in tpa_algos::all_locks(2, 1) {
        let native = Checker::new(lock.as_ref())
            .max_steps(40)
            .max_transitions(4_000_000)
            .features(Features::default().canonical())
            .exhaustive();
        let vm = Checker::new(lock.as_ref())
            .max_steps(40)
            .max_transitions(4_000_000)
            .features(Features::full())
            .exhaustive();
        assert_eq!(
            native.symmetry, vm.symmetry,
            "{}: symmetry engaged for one side only",
            native.algo
        );
        assert_identical(&native, &vm, &format!("{} symmetry-reduced", native.algo));
    }
}

/// Negative control: the doorway-fence-stripped bakery is caught through
/// the VM path with the same violation and the same ddmin-shrunk
/// schedule as the native path, at every thread count.
#[test]
fn vm_catches_the_fenceless_bakery_with_the_native_witness() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let check = |threads: usize, vm: bool| {
        Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(threads)
            .features(exec_of(vm))
            .exhaustive()
    };
    let native = check(1, false);
    let Verdict::Violation { invariant, .. } = &native.verdict else {
        panic!("native explorer missed the fenceless bakery");
    };
    assert_eq!(*invariant, "mutual-exclusion");
    for threads in [1, 2, 4, 8] {
        let vm = check(threads, true);
        let Verdict::Violation { invariant, .. } = &vm.verdict else {
            panic!("vm explorer missed the fenceless bakery at {threads} threads");
        };
        assert_eq!(*invariant, "mutual-exclusion");
        assert_identical(&native, &vm, &format!("bakery-nofence @{threads}"));
    }
}

/// Negative control with the crash model: the unfenced *recoverable*
/// bakery's crash-gated violation — reachable only by crashing a process
/// in its doorway — surfaces through the VM path (bytecode `recover_pc`
/// plus register-file erasure) with the native witness and shrunk
/// schedule.
#[test]
fn vm_catches_the_crash_gated_doorway_violation() {
    let broken = BakeryLock::recoverable_without_doorway_fence(2, 1);
    let check = |vm: bool| {
        Checker::new(&broken)
            .invariants(vec![Box::new(CrashSafeExclusion)])
            .max_steps(32)
            .max_crashes(1)
            .features(exec_of(vm))
            .exhaustive()
    };
    let native = check(false);
    let vm = check(true);
    let Verdict::Violation { found, .. } = &vm.verdict else {
        panic!("vm explorer missed the crash-gated violation");
    };
    assert!(
        found.iter().any(|d| matches!(d, Directive::Crash(_))),
        "the vm witness must include the crash"
    );
    assert_identical(&native, &vm, "bakery-rec-nofence crash-gated");

    // And the hardened recoverable bakery still passes through the VM,
    // with the identical crash-enabled state space.
    let hardened = BakeryLock::recoverable(2, 1);
    let check = |vm: bool| {
        Checker::new(&hardened)
            .max_steps(32)
            .max_crashes(1)
            .features(exec_of(vm))
            .exhaustive()
    };
    let native = check(false);
    let vm = check(true);
    native.assert_pass();
    vm.assert_pass();
    assert_identical(&native, &vm, "bakery-rec crash budget");
}

/// Swarm mode drives the compiled programs too: same seeded schedules,
/// same verdict over the portfolio, and — on a litmus swarm *can* catch
/// (the TSO store-buffer reordering; the fenceless bakery's window is
/// too narrow for biased random schedules) — the identical witness.
#[test]
fn swarm_through_the_vm_agrees_with_native() {
    for lock in tpa_algos::all_locks(2, 1) {
        let native = Checker::new(lock.as_ref()).max_steps(256).swarm(8);
        let vm = Checker::new(lock.as_ref())
            .max_steps(256)
            .features(Features::default().compiled())
            .swarm(8);
        assert!(vm.vm, "{}: swarm did not engage the compiler", vm.algo);
        assert_eq!(
            native.verdict.passed(),
            vm.verdict.passed(),
            "{}: swarm verdicts disagree",
            native.algo
        );
    }

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
    let sys = ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 1 },
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    });
    let check = |vm: bool| {
        Checker::new(&sys)
            .invariants(vec![Box::new(BothReadZero)])
            .max_steps(64)
            .features(exec_of(vm))
            .swarm(8)
    };
    let (native, vm) = (check(false), check(true));
    let (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) =
        (&native.verdict, &vm.verdict)
    else {
        panic!("swarm must observe the store-buffer reordering on both paths");
    };
    assert_eq!(a, b, "swarm witness differs between native and vm");
}
