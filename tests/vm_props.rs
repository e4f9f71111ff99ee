//! Property tests for the bytecode VM: encode/decode round-trips over
//! every compiled program the repo can produce, long random lockstep
//! walks pinning the VM's per-step state against the native programs
//! (including crash/recovery and in-place erasure), and fork/step
//! commutation.
//!
//! Native and compiled programs hash their local state differently (enum
//! discriminants vs a register file), so "same state" along a walk means
//! *bijection* of state keys — each native key is paired with exactly one
//! VM key and vice versa — plus equality of everything directly
//! observable: enabled directives, shared-variable values, buffer
//! occupancy, sections and passage counts.

use std::collections::{BTreeSet, HashMap};

use tpa::algos::sim::bakery::BakeryLock;
use tpa::algos::testing::check_vm_lockstep;
use tpa::prelude::*;
use tpa::tso::sched::XorShift;
use tpa::tso::scripted::{Instr, ScriptSystem};
use tpa::tso::Bytecode;

/// Every compiled program in the portfolio (plus the bakery variants and
/// a lowered script) survives an encode → decode round-trip bit-exactly.
#[test]
fn bytecode_roundtrip_over_the_portfolio() {
    let mut systems: Vec<Box<dyn System>> = tpa::algos::all_locks(3, 2);
    systems.push(Box::new(BakeryLock::pso_hardened(3, 2)));
    systems.push(Box::new(BakeryLock::recoverable(2, 1)));
    systems.push(Box::new(BakeryLock::recoverable_without_doorway_fence(
        2, 1,
    )));
    systems.push(Box::new(ScriptSystem::new(2, 2, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                value: 1,
            },
            Instr::Cas {
                var: 2,
                expected: 0,
                new: 1,
                success_reg: 1,
            },
            Instr::Read {
                var: 1 - pid.0,
                reg: 0,
            },
            Instr::Fence,
            Instr::Halt,
        ]
    })));
    for sys in &systems {
        let vm = sys
            .compile_vm()
            .unwrap_or_else(|| panic!("{} has no compiler", sys.name()));
        for i in 0..sys.n() {
            let bc = vm.bytecode(ProcId(i as u32));
            let bytes = bc.encode();
            let decoded = Bytecode::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} pid {i}: decode failed: {e}", sys.name()));
            assert_eq!(
                **bc,
                decoded,
                "{} pid {i}: round-trip changed the bytecode",
                sys.name()
            );
            // Truncations must error, never panic or mis-decode.
            for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    Bytecode::decode(&bytes[..cut]).is_err(),
                    "{} pid {i}: truncated decode at {cut} succeeded",
                    sys.name()
                );
            }
        }
    }
}

/// 200-step random lockstep walks over the whole portfolio under both
/// models: the compiled machine tracks the native one step for step (see
/// `tpa_algos::testing::check_vm_lockstep` for everything compared).
#[test]
fn random_walks_stay_in_lockstep_for_200_steps() {
    for lock in tpa::algos::all_locks(2, 2) {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            for seed in 1..=3u64 {
                check_vm_lockstep(lock.as_ref(), model, seed, 96, 200)
                    .unwrap_or_else(|e| panic!("{} under {model:?} seed {seed}: {e}", lock.name()));
            }
        }
    }
}

/// Drives two machines (native and compiled) with one schedule drawn
/// from the *agreed* enabled-directive sets and checks state-key
/// bijection plus shared-memory equality after every step. Returns the
/// number of steps taken.
fn lockstep_walk(
    system: &dyn System,
    seed: u64,
    crash_budget: u32,
    steps: usize,
    pids: &[u32],
) -> usize {
    let vm_sys = system.compile_vm().expect("system compiles");
    let mut nat = Machine::new(system);
    let mut vm = Machine::new(&vm_sys);
    nat.set_crash_budget(crash_budget);
    vm.set_crash_budget(crash_budget);
    let mut rng = XorShift::new(seed | 1);
    let mut nat_to_vm: HashMap<u64, u64> = HashMap::new();
    let mut vm_to_nat: HashMap<u64, u64> = HashMap::new();
    let nvars = system.vars().count();
    let mut taken = 0;
    for _ in 0..steps {
        let mut all = Vec::new();
        for &i in pids {
            let p = ProcId(i);
            let en = nat.enabled_directives(p);
            assert_eq!(
                en,
                vm.enabled_directives(p),
                "{} seed {seed}: enabled sets diverge for {p}",
                system.name()
            );
            all.extend(en);
        }
        if all.is_empty() {
            break;
        }
        let d = all[rng.below(all.len())];
        nat.step(d).expect("enabled directive steps natively");
        vm.step(d).expect("enabled directive steps on the vm");
        taken += 1;
        for v in 0..nvars {
            assert_eq!(
                nat.value(VarId(v as u32)),
                vm.value(VarId(v as u32)),
                "{} seed {seed}: memory diverges on var {v}",
                system.name()
            );
        }
        let (k_nat, k_vm) = (nat.state_key().0, vm.state_key().0);
        assert_eq!(
            *nat_to_vm.entry(k_nat).or_insert(k_vm),
            k_vm,
            "{} seed {seed}: one native state maps to two vm states",
            system.name()
        );
        assert_eq!(
            *vm_to_nat.entry(k_vm).or_insert(k_nat),
            k_nat,
            "{} seed {seed}: one vm state maps to two native states",
            system.name()
        );
    }
    taken
}

/// Crash/recovery lockstep: with a crash budget the adversary may crash
/// any buffered process; the recoverable bakery restarts through its
/// bytecode `recover_pc`, the crash-stop locks halt for good. The VM must
/// offer the same crash points and land in bijective states.
#[test]
fn crash_and_recovery_stay_in_lockstep() {
    let recoverable = BakeryLock::recoverable(2, 1);
    let unfenced = BakeryLock::recoverable_without_doorway_fence(2, 1);
    let stop = tpa::algos::lock_by_name("tas", 2, 2).unwrap();
    let pids = [0, 1];
    for seed in 1..=6u64 {
        lockstep_walk(&recoverable, seed, 2, 200, &pids);
        lockstep_walk(&unfenced, seed, 2, 200, &pids);
        lockstep_walk(stop.as_ref(), seed, 2, 200, &pids);
    }
}

/// In-place erasure: walk two survivors, erase the untouched third
/// process on both machines, and require the erasure to succeed and the
/// machines to stay in lockstep through it and beyond.
#[test]
fn erase_in_place_stays_in_lockstep() {
    for (name, sys) in [
        ("bakery", Box::new(BakeryLock::new(3, 1)) as Box<dyn System>),
        ("filter", tpa::algos::lock_by_name("filter", 3, 1).unwrap()),
    ] {
        let vm_sys = sys.compile_vm().expect("system compiles");
        let mut nat = Machine::new(sys.as_ref());
        let mut vm = Machine::new(&vm_sys);
        let mut rng = XorShift::new(0xe5a5_e000 | 1);
        // Walk only pids 0 and 1 so pid 2 stays erasable (nobody can
        // become aware of a process that never acts).
        for _ in 0..40 {
            let mut all = Vec::new();
            for i in 0..2u32 {
                let en = nat.enabled_directives(ProcId(i));
                assert_eq!(en, vm.enabled_directives(ProcId(i)), "{name}: pre-erase");
                all.extend(en);
            }
            if all.is_empty() {
                break;
            }
            let d = all[rng.below(all.len())];
            nat.step(d).unwrap();
            vm.step(d).unwrap();
        }
        let erased: BTreeSet<ProcId> = [ProcId(2)].into_iter().collect();
        nat.erase_in_place(&erased)
            .unwrap_or_else(|e| panic!("{name}: native erasure refused: {e:?}"));
        vm.erase_in_place(&erased)
            .unwrap_or_else(|e| panic!("{name}: vm erasure refused: {e:?}"));
        assert!(vm.is_erased(ProcId(2)));
        assert!(vm.enabled_directives(ProcId(2)).is_empty());
        // The survivors keep agreeing after the surgery.
        let mut nat_to_vm: HashMap<u64, u64> = HashMap::new();
        let mut vm_to_nat: HashMap<u64, u64> = HashMap::new();
        for _ in 0..120 {
            let mut all = Vec::new();
            for i in 0..2u32 {
                let en = nat.enabled_directives(ProcId(i));
                assert_eq!(en, vm.enabled_directives(ProcId(i)), "{name}: post-erase");
                all.extend(en);
            }
            if all.is_empty() {
                break;
            }
            let d = all[rng.below(all.len())];
            nat.step(d).unwrap();
            vm.step(d).unwrap();
            for v in 0..sys.vars().count() {
                assert_eq!(
                    nat.value(VarId(v as u32)),
                    vm.value(VarId(v as u32)),
                    "{name}: memory diverges after erasure"
                );
            }
            let (k_nat, k_vm) = (nat.state_key().0, vm.state_key().0);
            assert_eq!(*nat_to_vm.entry(k_nat).or_insert(k_vm), k_vm, "{name}");
            assert_eq!(*vm_to_nat.entry(k_vm).or_insert(k_nat), k_nat, "{name}");
        }
    }
}

fn enabled_all(m: &Machine) -> Vec<Directive> {
    (0..m.n() as u32)
        .flat_map(|i| m.enabled_directives(ProcId(i)))
        .collect()
}

/// Fork/step commutation across the lock portfolio, native and compiled,
/// TSO and PSO, crash budgets 0 and 1: along a random walk, stepping a
/// fork executes the same event as stepping the original (`seq` and
/// `critical` included) and reaches the same state — same key, same
/// enabled directives, same result from every invariant of the crash
/// battery — for the full fork, the search fork, and a search fork taken
/// after the step.
#[test]
fn fork_then_step_equals_step_then_fork() {
    let battery = crash_invariants();
    let verdicts = |m: &Machine| -> Vec<Option<(&'static str, String)>> {
        battery
            .iter()
            .map(|inv| inv.check(m).map(|v| (v.invariant, v.detail)))
            .collect()
    };
    for lock in tpa::algos::all_locks(2, 1) {
        let vm_sys = lock.compile_vm().expect("system compiles");
        let systems: [(&str, &dyn System); 2] = [("native", lock.as_ref()), ("vm", &vm_sys)];
        for (execution, sys) in systems {
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                for crashes in [0, 1] {
                    let ctx = format!(
                        "{} ({execution}, {model:?}, crash budget {crashes})",
                        lock.name()
                    );
                    let mut m = Machine::with_model(sys, model);
                    m.set_crash_budget(crashes);
                    let mut rng = XorShift::new(0xf02c | 1);
                    for step in 0..150 {
                        let all = enabled_all(&m);
                        if all.is_empty() {
                            break;
                        }
                        let d = all[rng.below(all.len())];
                        let mut forked_full = m.fork();
                        let mut forked_search = m.fork_for_search();
                        let full_event = forked_full.step(d).unwrap();
                        let search_event = forked_search.step(d).unwrap();
                        let event = m.step(d).unwrap();
                        assert_eq!(full_event, event, "{ctx}, step {step}: full fork's event");
                        assert_eq!(
                            search_event, event,
                            "{ctx}, step {step}: search fork's event"
                        );
                        let reforked = m.fork_for_search();
                        for (which, fork) in [
                            ("full fork", &forked_full),
                            ("search fork", &forked_search),
                            ("search fork after the step", &reforked),
                        ] {
                            assert_eq!(
                                fork.state_key(),
                                m.state_key(),
                                "{ctx}, step {step}: {which}'s state key"
                            );
                            assert_eq!(
                                enabled_all(fork),
                                enabled_all(&m),
                                "{ctx}, step {step}: {which}'s enabled directives"
                            );
                            assert_eq!(
                                verdicts(fork),
                                verdicts(&m),
                                "{ctx}, step {step}: {which}'s invariant results"
                            );
                        }
                    }
                }
            }
        }
    }
}
