//! The bytecode interpreter: a [`Program`] whose state is a flat
//! register file.
//!
//! A [`VmProgram`] executes a compiled [`Bytecode`] under the same
//! peek/apply protocol as every other program, so it drops into
//! [`crate::Machine`], the explorer's sharded cache, symmetry reduction
//! and both checker engines unchanged. Its whole mutable state is
//! `(pc, regs, halted)` — forking copies a fixed-size array instead of a
//! struct tree, and hashing is a fixed-length loop. The machine
//! additionally special-cases VM programs in its process table (see
//! [`crate::System::vm_program`]) to store them inline, skipping the
//! per-fork box allocation and the trait-object dispatch on the hot
//! peek/apply/hash path.
//!
//! Compilation contract (what the VM-vs-native differential suite pins):
//! a compiled program's *rest states* — the states in which the program
//! counter sits on a visible instruction, after eager resolution of
//! local instructions — must be in bijection with the native program's
//! states, with register lifetimes mirroring the native fields (a
//! register whose native counterpart dies is re-zeroed on the same
//! edge). Under that discipline the machine's unique-state counts,
//! verdicts and lex-least witnesses are identical by construction.

use std::sync::Arc;

use crate::bytecode::{BInstr, Bytecode, Operand, RegKind, SymMode, VRef, DISCARD, NREGS};
use crate::ids::{ProcId, Value, VarId};
use crate::op::{Op, Outcome};
use crate::perm::Permutation;
use crate::program::{Program, System};
use crate::vars::VarSpec;

/// A program interpreting compiled [`Bytecode`].
#[derive(Debug)]
pub struct VmProgram {
    code: Arc<Bytecode>,
    pc: u16,
    regs: [Value; NREGS],
    halted: bool,
}

impl Clone for VmProgram {
    fn clone(&self) -> Self {
        VmProgram {
            code: Arc::clone(&self.code),
            pc: self.pc,
            regs: self.regs,
            halted: self.halted,
        }
    }

    /// Touches the code's reference count only when `self` runs other
    /// code than `src`.
    fn clone_from(&mut self, src: &Self) {
        if !Arc::ptr_eq(&self.code, &src.code) {
            self.code = Arc::clone(&src.code);
        }
        self.pc = src.pc;
        self.regs = src.regs;
        self.halted = src.halted;
    }
}

impl VmProgram {
    /// Creates a program at pc 0 with the bytecode's initial register
    /// file, resolved to its first rest point.
    pub fn new(code: Arc<Bytecode>) -> Self {
        let regs = code.init_regs;
        let mut p = VmProgram {
            code,
            pc: 0,
            regs,
            halted: false,
        };
        p.resolve_local();
        p
    }

    /// The current program counter (diagnostics and tests).
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// The bytecode this program executes.
    pub fn bytecode(&self) -> &Arc<Bytecode> {
        &self.code
    }

    fn operand(&self, o: Operand) -> Value {
        match o {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.regs[r as usize],
            Operand::RegOff(r, off) => self.regs[r as usize].wrapping_add_signed(off),
        }
    }

    fn var_of(&self, v: VRef) -> VarId {
        match v {
            VRef::Direct(id) => VarId(id),
            VRef::Indexed { base, idx, off } => {
                let i = self.regs[idx as usize] as i64 + off as i64;
                VarId(base.wrapping_add(i as u32))
            }
        }
    }

    fn set(&mut self, dst: u8, v: Value) {
        if dst != DISCARD {
            self.regs[dst as usize] = v;
        }
    }

    /// Executes local instructions until the counter rests on a visible
    /// instruction or the program halts (running off the end of the code
    /// halts, mirroring [`crate::scripted::ScriptProgram`]).
    fn resolve_local(&mut self) {
        loop {
            let Some(instr) = self.code.code.get(self.pc as usize) else {
                self.halted = true;
                return;
            };
            match *instr {
                BInstr::Li { dst, imm } => {
                    self.regs[dst as usize] = imm;
                    self.pc += 1;
                }
                BInstr::Mov { dst, src } => {
                    self.regs[dst as usize] = self.regs[src as usize];
                    self.pc += 1;
                }
                BInstr::Add { dst, delta } => {
                    self.regs[dst as usize] = self.regs[dst as usize].wrapping_add_signed(delta);
                    self.pc += 1;
                }
                BInstr::Br { a, cmp, b, target } => {
                    self.pc = if cmp.eval(self.operand(a), self.operand(b)) {
                        target
                    } else {
                        self.pc + 1
                    };
                }
                BInstr::Jmp { target } => self.pc = target,
                BInstr::Halt => {
                    self.halted = true;
                    return;
                }
                _ => return, // visible instruction: a rest point
            }
        }
    }

    /// The next machine operation ([`Program::peek`], monomorphic).
    #[inline]
    pub fn peek_op(&self) -> Op {
        if self.halted {
            return Op::Halt;
        }
        match self.code.code[self.pc as usize] {
            BInstr::Read { var, .. } | BInstr::ReadBr { var, .. } => Op::Read(self.var_of(var)),
            BInstr::Write { var, val } => Op::Write(self.var_of(var), self.operand(val)),
            BInstr::Cas {
                var, expected, new, ..
            } => Op::Cas {
                var: self.var_of(var),
                expected: self.operand(expected),
                new: self.operand(new),
            },
            BInstr::Fence => Op::Fence,
            BInstr::Enter => Op::Enter,
            BInstr::Cs => Op::Cs,
            BInstr::Exit => Op::Exit,
            BInstr::Invoke { op, arg } => Op::Invoke {
                op,
                arg: self.operand(arg),
            },
            BInstr::Return { src } => Op::Return(self.operand(src)),
            BInstr::Halt => Op::Halt,
            ref local => unreachable!("resting on local instruction {local:?}"),
        }
    }

    /// Advances with the outcome of the peeked operation
    /// ([`Program::apply`], monomorphic).
    #[inline]
    pub fn apply_outcome(&mut self, outcome: Outcome) {
        debug_assert!(!self.halted, "apply on a halted VM program");
        match (self.code.code[self.pc as usize], outcome) {
            (BInstr::Read { dst, .. }, Outcome::ReadValue(v)) => {
                self.set(dst, v);
                self.pc += 1;
            }
            (
                BInstr::ReadBr {
                    cmp, rhs, jt, jf, ..
                },
                Outcome::ReadValue(v),
            ) => {
                self.pc = if cmp.eval(v, self.operand(rhs)) {
                    jt
                } else {
                    jf
                };
            }
            (BInstr::Write { .. }, Outcome::WriteIssued) => self.pc += 1,
            (
                BInstr::Cas {
                    ok_obs,
                    fail_obs,
                    ok,
                    fail,
                    ..
                },
                Outcome::CasResult { success, observed },
            ) => {
                if success {
                    self.set(ok_obs, observed);
                    self.pc = ok;
                } else {
                    self.set(fail_obs, observed);
                    self.pc = fail;
                }
            }
            (BInstr::Fence, Outcome::FenceDone) => self.pc += 1,
            (
                BInstr::Enter
                | BInstr::Cs
                | BInstr::Exit
                | BInstr::Invoke { .. }
                | BInstr::Return { .. },
                Outcome::Progressed,
            ) => self.pc += 1,
            (instr, outcome) => panic!("outcome {outcome:?} does not match instruction {instr:?}"),
        }
        self.resolve_local();
    }

    /// Crash recovery ([`Program::recover`], monomorphic): jumps to the
    /// bytecode's recovery entry point, which is responsible for
    /// re-zeroing the registers its native counterpart loses.
    #[inline]
    pub fn do_recover(&mut self) -> bool {
        match self.code.recover_pc {
            None => false,
            Some(pc) => {
                self.pc = pc;
                self.halted = false;
                self.resolve_local();
                true
            }
        }
    }

    /// Feeds `(pc, regs, halted)` into `h` ([`Program::state_hash`],
    /// monomorphic so the machine's hot path skips the hasher's vtable).
    #[inline]
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.pc.hash(h);
        for v in &self.regs {
            v.hash(h);
        }
        self.halted.hash(h);
    }

    /// The renamed-state hash ([`Program::state_hash_permuted`],
    /// monomorphic). Must feed exactly what the process at `perm(me)` —
    /// same code layout, relabeled constants — would feed via
    /// [`VmProgram::hash_state`]; the per-pc [`RegKind`] table says how
    /// each register's contents map.
    #[inline]
    pub fn hash_state_permuted<H: std::hash::Hasher>(&self, perm: &Permutation, h: &mut H) -> bool {
        use std::hash::Hash;
        match &self.code.sym {
            SymMode::Asymmetric => false,
            SymMode::Equivariant => {
                self.hash_state(h);
                true
            }
            SymMode::Kinds(table) => {
                let me = self.code.me as usize;
                let kinds = &table[self.pc as usize];
                self.pc.hash(h);
                for (r, &v) in self.regs.iter().enumerate() {
                    let mapped = match kinds[r] {
                        RegKind::Plain => v,
                        RegKind::OneBased => match perm.map_value_one_based(v) {
                            Some(m) => m,
                            None => return false,
                        },
                        RegKind::ZeroIdx => match perm.map_value_zero_based(v) {
                            Some(m) => m,
                            None => return false,
                        },
                        RegKind::ScanSkipSelf => {
                            if !perm.maps_scan_prefix(v as usize, me) {
                                return false;
                            }
                            perm.apply_index(v as usize) as Value
                        }
                        RegKind::ScanAll => {
                            if !perm.maps_prefix(v as usize) {
                                return false;
                            }
                            perm.apply_index(v as usize) as Value
                        }
                    };
                    mapped.hash(h);
                }
                self.halted.hash(h);
                true
            }
        }
    }
}

impl Program for VmProgram {
    fn peek(&self) -> Op {
        self.peek_op()
    }

    fn apply(&mut self, outcome: Outcome) {
        self.apply_outcome(outcome);
    }

    fn register(&self, index: usize) -> Option<Value> {
        self.regs.get(index).copied()
    }

    fn recover(&mut self) -> bool {
        self.do_recover()
    }

    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        self.hash_state(&mut h);
    }

    fn state_hash_permuted(&self, perm: &Permutation, mut h: &mut dyn std::hash::Hasher) -> bool {
        self.hash_state_permuted(perm, &mut h)
    }
}

/// A compiled [`System`]: the same variable layout and name as the
/// native system it was compiled from, with every process running
/// [`Bytecode`].
///
/// Keeping the name identical means reports, witnesses and condemnation
/// output are indistinguishable from the native run — exactly the
/// property the differential suite asserts.
#[derive(Clone)]
pub struct VmSystem {
    n: usize,
    spec: VarSpec,
    code: Vec<Arc<Bytecode>>,
    name: String,
    symmetric: bool,
}

impl VmSystem {
    /// Bundles per-process bytecode into a system. `spec`, `name` and
    /// `symmetric` must be taken verbatim from the native system.
    pub fn new(
        name: impl Into<String>,
        spec: VarSpec,
        code: Vec<Bytecode>,
        symmetric: bool,
    ) -> Self {
        let code: Vec<Arc<Bytecode>> = code.into_iter().map(Arc::new).collect();
        VmSystem {
            n: code.len(),
            spec,
            code,
            name: name.into(),
            symmetric,
        }
    }

    /// The bytecode of process `pid`. The checker reads it to size the
    /// program (`vm.code_instrs`) and, through [`Bytecode::encode`], to
    /// hash it into a checkpoint's fingerprint.
    pub fn bytecode(&self, pid: ProcId) -> &Arc<Bytecode> {
        &self.code[pid.index()]
    }
}

impl System for VmSystem {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        self.spec.clone()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(VmProgram::new(Arc::clone(&self.code[pid.index()])))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn symmetric(&self) -> bool {
        self.symmetric
    }

    fn vm_program(&self, pid: ProcId) -> Option<VmProgram> {
        Some(VmProgram::new(Arc::clone(&self.code[pid.index()])))
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        Some(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Asm, Cmp};
    use crate::machine::{Directive, Machine};

    fn spin_until_one() -> Bytecode {
        let mut a = Asm::new();
        let spin = a.here();
        let done = a.label();
        a.read_br(VRef::Direct(0), Cmp::Eq, Operand::Imm(1), done, spin);
        a.bind(done);
        a.halt();
        Bytecode {
            code: a.finish(),
            init_regs: [0; NREGS],
            recover_pc: None,
            sym: SymMode::Equivariant,
            me: 0,
        }
    }

    #[test]
    fn read_br_spins_and_exits() {
        let mut p = VmProgram::new(Arc::new(spin_until_one()));
        assert_eq!(p.peek_op(), Op::Read(VarId(0)));
        p.apply_outcome(Outcome::ReadValue(0));
        assert_eq!(p.peek_op(), Op::Read(VarId(0)), "predicate false: respin");
        p.apply_outcome(Outcome::ReadValue(1));
        assert_eq!(p.peek_op(), Op::Halt);
    }

    #[test]
    fn cas_branches_and_stores_observed_per_path() {
        let mut a = Asm::new();
        let ok = a.label();
        let fail = a.label();
        let tryit = a.here();
        a.cas(
            VRef::Direct(0),
            Operand::Imm(0),
            Operand::Imm(7),
            1,
            2,
            ok,
            fail,
        );
        a.bind(fail);
        a.jmp(tryit);
        a.bind(ok);
        a.halt();
        let bc = Bytecode {
            code: a.finish(),
            init_regs: [0; NREGS],
            recover_pc: None,
            sym: SymMode::Equivariant,
            me: 0,
        };
        let mut p = VmProgram::new(Arc::new(bc));
        p.apply_outcome(Outcome::CasResult {
            success: false,
            observed: 9,
        });
        assert_eq!(p.register(2), Some(9), "failure observation");
        assert!(matches!(p.peek_op(), Op::Cas { .. }), "retry loop");
        p.apply_outcome(Outcome::CasResult {
            success: true,
            observed: 0,
        });
        assert_eq!(p.register(1), Some(0), "success observation");
        assert_eq!(p.peek_op(), Op::Halt);
    }

    #[test]
    fn indexed_vref_and_operands() {
        let mut a = Asm::new();
        a.li(0, 2);
        a.read(
            VRef::Indexed {
                base: 4,
                idx: 0,
                off: -1,
            },
            1,
        );
        a.write(
            VRef::Indexed {
                base: 4,
                idx: 0,
                off: 1,
            },
            Operand::RegOff(0, 5),
        );
        a.halt();
        let bc = Bytecode {
            code: a.finish(),
            init_regs: [0; NREGS],
            recover_pc: None,
            sym: SymMode::Equivariant,
            me: 0,
        };
        let mut p = VmProgram::new(Arc::new(bc));
        assert_eq!(p.peek_op(), Op::Read(VarId(5)), "base 4 + r0 2 - 1");
        p.apply_outcome(Outcome::ReadValue(3));
        assert_eq!(p.register(1), Some(3));
        assert_eq!(
            p.peek_op(),
            Op::Write(VarId(7), 7),
            "base 4 + 2 + 1, r0 + 5"
        );
    }

    #[test]
    fn recover_jumps_to_recovery_block() {
        let mut a = Asm::new();
        a.li(0, 1);
        a.write(VRef::Direct(0), Operand::Imm(1));
        a.halt();
        let rec = a.here();
        a.li(0, 0);
        a.write(VRef::Direct(0), Operand::Imm(2));
        a.halt();
        let recover_pc = Some(a.pc_of(rec));
        let bc = Bytecode {
            code: a.finish(),
            init_regs: [0; NREGS],
            recover_pc,
            sym: SymMode::Asymmetric,
            me: 0,
        };
        let mut p = VmProgram::new(Arc::new(bc));
        assert_eq!(p.register(0), Some(1));
        assert!(p.do_recover());
        assert_eq!(p.register(0), Some(0), "recovery block re-zeroes");
        assert_eq!(p.peek_op(), Op::Write(VarId(0), 2));

        let mut nop = VmProgram::new(Arc::new(spin_until_one()));
        assert!(!nop.do_recover(), "no recovery section: crash-stop");
    }

    #[test]
    fn vm_system_runs_in_the_machine() {
        // Two processes CAS-contend on v0; exactly one wins.
        let mk = |me: u32| {
            let mut a = Asm::new();
            let ok = a.label();
            let fail = a.label();
            a.cas(
                VRef::Direct(0),
                Operand::Imm(0),
                Operand::Imm(me as Value + 1),
                DISCARD,
                DISCARD,
                ok,
                fail,
            );
            a.bind(fail);
            a.halt();
            a.bind(ok);
            a.halt();
            Bytecode {
                code: a.finish(),
                init_regs: [0; NREGS],
                recover_pc: None,
                sym: SymMode::Equivariant,
                me,
            }
        };
        let sys = VmSystem::new("cas-duel", VarSpec::remote(1), vec![mk(0), mk(1)], false);
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(1))).unwrap();
        assert_eq!(m.value(VarId(0)), 1, "p0 won, p1's CAS failed");
        assert_eq!(m.peek_next(ProcId(0)), crate::machine::NextEvent::Halted);
        assert_eq!(m.peek_next(ProcId(1)), crate::machine::NextEvent::Halted);
    }

    #[test]
    fn fork_preserves_state_and_diverges_after() {
        let mut p = VmProgram::new(Arc::new(spin_until_one()));
        p.apply_outcome(Outcome::ReadValue(0));
        let f = crate::program::ForkProgram::fork(&p);
        let mut hp = crate::fxhash::FxHasher::with_seed(1);
        let mut hf = crate::fxhash::FxHasher::with_seed(1);
        p.hash_state(&mut hp);
        f.state_hash(&mut hf);
        assert_eq!(
            std::hash::Hasher::finish(&hp),
            std::hash::Hasher::finish(&hf)
        );
        p.apply_outcome(Outcome::ReadValue(1));
        assert_eq!(p.peek_op(), Op::Halt);
        assert_eq!(f.peek(), Op::Read(VarId(0)), "fork unaffected");
    }
}
