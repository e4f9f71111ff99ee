//! Property tests for the bytecode VM: the bytecode encoding the
//! checkpoint fingerprint hashes is injective over every compiled program
//! the repo can produce and their one-field edits, long random lockstep
//! walks pin the VM's per-step state against the native programs
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
use tpa::tso::{BInstr, Bytecode, Cmp, Operand, RegKind, SymMode, VRef, DISCARD, NREGS};

/// Edits of `v` that each change one field or the variant.
fn vrefs(v: VRef) -> Vec<VRef> {
    let ix = |base, idx, off| VRef::Indexed { base, idx, off };
    match v {
        VRef::Direct(id) => vec![VRef::Direct(id ^ 1), ix(id, 0, 0)],
        VRef::Indexed { base, idx, off } => vec![
            ix(base ^ 1, idx, off),
            ix(base, idx ^ 1, off),
            ix(base, idx, off ^ 1),
            VRef::Direct(base),
        ],
    }
}

/// Edits of `o` that each change one field or the variant.
fn operands(o: Operand) -> Vec<Operand> {
    match o {
        Operand::Imm(x) => vec![Operand::Imm(x ^ 1), Operand::Reg(x as u8)],
        Operand::Reg(r) => vec![Operand::Reg(r ^ 1), Operand::RegOff(r, 0)],
        Operand::RegOff(r, off) => vec![
            Operand::RegOff(r ^ 1, off),
            Operand::RegOff(r, off ^ 1),
            Operand::Reg(r),
        ],
    }
}

/// Instructions that differ from `instr` in exactly one operand, plus
/// one of another variant.
fn instr_edits(instr: BInstr) -> Vec<BInstr> {
    use BInstr::*;
    const CMPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
    let next = |c| CMPS[(CMPS.iter().position(|&x| x == c).unwrap() + 1) % CMPS.len()];
    let mut out = vec![if instr == Halt { Fence } else { Halt }];
    match instr {
        Read { var, dst } => {
            out.extend(vrefs(var).into_iter().map(|var| Read { var, dst }));
            out.push(Read { var, dst: dst ^ 1 });
        }
        ReadBr {
            var,
            cmp,
            rhs,
            jt,
            jf,
        } => {
            let at = |var, cmp, rhs, jt, jf| ReadBr {
                var,
                cmp,
                rhs,
                jt,
                jf,
            };
            out.extend(vrefs(var).into_iter().map(|v| at(v, cmp, rhs, jt, jf)));
            out.extend(operands(rhs).into_iter().map(|r| at(var, cmp, r, jt, jf)));
            out.push(at(var, next(cmp), rhs, jt, jf));
            out.push(at(var, cmp, rhs, jt ^ 1, jf));
            out.push(at(var, cmp, rhs, jt, jf ^ 1));
        }
        Write { var, val } => {
            out.extend(vrefs(var).into_iter().map(|var| Write { var, val }));
            out.extend(operands(val).into_iter().map(|val| Write { var, val }));
        }
        Cas {
            var,
            expected: e,
            new: n,
            ok_obs: oo,
            fail_obs: fo,
            ok,
            fail,
        } => {
            let cas = |var, expected, new, ok_obs, fail_obs, ok, fail| Cas {
                var,
                expected,
                new,
                ok_obs,
                fail_obs,
                ok,
                fail,
            };
            for v in vrefs(var) {
                out.push(cas(v, e, n, oo, fo, ok, fail));
            }
            for x in operands(e) {
                out.push(cas(var, x, n, oo, fo, ok, fail));
            }
            for x in operands(n) {
                out.push(cas(var, e, x, oo, fo, ok, fail));
            }
            out.push(cas(var, e, n, oo ^ 1, fo, ok, fail));
            out.push(cas(var, e, n, oo, fo ^ 1, ok, fail));
            out.push(cas(var, e, n, oo, fo, ok ^ 1, fail));
            out.push(cas(var, e, n, oo, fo, ok, fail ^ 1));
        }
        Fence | Enter | Cs | Exit | Halt => {}
        Invoke { op, arg } => {
            out.push(Invoke { op: op ^ 1, arg });
            out.extend(operands(arg).into_iter().map(|arg| Invoke { op, arg }));
        }
        Return { src } => out.extend(operands(src).into_iter().map(|src| Return { src })),
        Li { dst, imm } => {
            let li = |dst, imm| Li { dst, imm };
            out.extend([li(dst ^ 1, imm), li(dst, imm ^ 1)]);
        }
        Mov { dst, src } => out.extend([Mov { dst: dst ^ 1, src }, Mov { dst, src: src ^ 1 }]),
        Add { dst, delta } => {
            let add = |dst, delta| Add { dst, delta };
            out.extend([add(dst ^ 1, delta), add(dst, delta ^ 1)]);
        }
        Br { a, cmp, b, target } => {
            let br = |a, cmp, b, target| Br { a, cmp, b, target };
            out.extend(operands(a).into_iter().map(|x| br(x, cmp, b, target)));
            out.extend(operands(b).into_iter().map(|x| br(a, cmp, x, target)));
            out.push(br(a, next(cmp), b, target));
            out.push(br(a, cmp, b, target ^ 1));
        }
        Jmp { target } => out.push(Jmp { target: target ^ 1 }),
    }
    out
}

/// Bytecode that differs from `bc` in one instruction, the initial
/// registers, the recovery entry point, the symmetry mode or `me`.
fn one_field_edits(bc: &Bytecode) -> Vec<Bytecode> {
    let mut out = Vec::new();
    for (pc, &instr) in bc.code.iter().enumerate() {
        for edit in instr_edits(instr) {
            let mut e = bc.clone();
            e.code[pc] = edit;
            out.push(e);
        }
    }
    let mut dropped = bc.clone();
    dropped.code.pop();
    out.push(dropped);
    for r in 0..NREGS {
        let mut e = bc.clone();
        e.init_regs[r] = e.init_regs[r].wrapping_add(1);
        out.push(e);
    }
    let recover = match bc.recover_pc {
        None => vec![Some(0)],
        Some(pc) => vec![None, Some(pc ^ 1)],
    };
    out.extend(recover.into_iter().map(|recover_pc| Bytecode {
        recover_pc,
        ..bc.clone()
    }));
    let mut syms = vec![
        SymMode::Asymmetric,
        SymMode::Equivariant,
        SymMode::Kinds(vec![]),
    ];
    if let SymMode::Kinds(table) = &bc.sym {
        for row in 0..table.len() {
            let mut t = table.clone();
            let kind = &mut t[row][row % NREGS];
            *kind = if *kind == RegKind::Plain {
                RegKind::OneBased
            } else {
                RegKind::Plain
            };
            syms.push(SymMode::Kinds(t));
        }
    }
    out.extend(
        syms.into_iter()
            .filter(|s| *s != bc.sym)
            .map(|sym| Bytecode { sym, ..bc.clone() }),
    );
    out.push(Bytecode {
        me: bc.me + 1,
        ..bc.clone()
    });
    out
}

/// A program that uses every instruction variant, operand kind and
/// register kind, so the edits reach the ones no lock compiles to.
fn every_variant() -> Bytecode {
    let code = vec![
        BInstr::Read {
            var: VRef::Direct(3),
            dst: 2,
        },
        BInstr::ReadBr {
            var: VRef::Indexed {
                base: 1,
                idx: 4,
                off: -1,
            },
            cmp: Cmp::Ge,
            rhs: Operand::Reg(5),
            jt: 0,
            jf: 7,
        },
        BInstr::Write {
            var: VRef::Direct(0),
            val: Operand::RegOff(3, -9),
        },
        BInstr::Cas {
            var: VRef::Direct(2),
            expected: Operand::Imm(0),
            new: Operand::RegOff(1, 1),
            ok_obs: 6,
            fail_obs: DISCARD,
            ok: 4,
            fail: 1,
        },
        BInstr::Fence,
        BInstr::Enter,
        BInstr::Cs,
        BInstr::Exit,
        BInstr::Invoke {
            op: 7,
            arg: Operand::Imm(11),
        },
        BInstr::Return {
            src: Operand::Reg(0),
        },
        BInstr::Halt,
        BInstr::Li { dst: 1, imm: 99 },
        BInstr::Mov { dst: 2, src: 1 },
        BInstr::Add { dst: 2, delta: -3 },
        BInstr::Br {
            a: Operand::Reg(2),
            cmp: Cmp::Lt,
            b: Operand::Imm(4),
            target: 11,
        },
        BInstr::Jmp { target: 0 },
    ];
    let mut kinds = vec![[RegKind::Plain; NREGS]; code.len()];
    kinds[0][2] = RegKind::OneBased;
    kinds[1][4] = RegKind::ScanSkipSelf;
    kinds[3][6] = RegKind::ZeroIdx;
    kinds[4][0] = RegKind::ScanAll;
    let mut init_regs = [0; NREGS];
    init_regs[15] = 42;
    Bytecode {
        code,
        init_regs,
        recover_pc: Some(11),
        sym: SymMode::Kinds(kinds),
        me: 3,
    }
}

/// The checkpoint fingerprint's code hash covers [`Bytecode::encode`],
/// and nothing decodes those bytes, so what the hash can tell apart
/// rests on the encoding being injective. Over every compiled program
/// of the portfolio at n = 2, 3 and 4 (plus the bakery variants, a
/// lowered script and a program using every variant), and over every
/// one-field edit of each, two encodings are equal exactly when the
/// `Bytecode` values are.
#[test]
fn bytecode_encoding_is_injective_over_the_portfolio() {
    let mut systems: Vec<Box<dyn System>> = Vec::new();
    for n in [2, 3, 4] {
        systems.extend(tpa::algos::all_locks(n, 2));
    }
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
    let mut programs: Vec<(String, Bytecode)> = Vec::new();
    for sys in &systems {
        let vm = sys
            .compile_vm()
            .unwrap_or_else(|| panic!("{} has no compiler", sys.name()));
        for i in 0..sys.n() {
            let bc = (**vm.bytecode(ProcId(i as u32))).clone();
            programs.push((format!("{} n = {} pid {i}", sys.name(), sys.n()), bc));
        }
    }
    programs.push(("every variant".into(), every_variant()));
    // Across programs: equal encodings only for equal bytecode.
    let mut seen: HashMap<Vec<u8>, &(String, Bytecode)> = HashMap::new();
    for entry in &programs {
        let (what, bc) = entry;
        assert_eq!(
            bc.encode(),
            bc.clone().encode(),
            "{what}: encode is not deterministic"
        );
        if let Some((other, prev)) = seen.insert(bc.encode(), entry) {
            assert_eq!(prev, bc, "{what} and {other} differ but encode equally");
        }
    }
    // Within each program and its edits: equal encodings only for equal
    // bytecode, and no edit encodes like the original.
    let mut edits = 0;
    for (what, bc) in &programs {
        let mut by_bytes: HashMap<Vec<u8>, Bytecode> = HashMap::new();
        by_bytes.insert(bc.encode(), bc.clone());
        for edit in one_field_edits(bc) {
            assert_ne!(&edit, bc, "{what}: an edit left the bytecode unchanged");
            if let Some(prev) = by_bytes.insert(edit.encode(), edit.clone()) {
                assert_eq!(prev, edit, "{what}: two different programs encode equally");
            }
            edits += 1;
        }
    }
    assert!(edits > 10_000, "only {edits} edits checked");
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
