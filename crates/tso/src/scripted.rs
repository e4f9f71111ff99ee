//! A tiny scripted program interpreter.
//!
//! Hand-writing a [`Program`] state machine is the right tool for real
//! algorithms (see the `tpa-algos` crate), but tests, litmus harnesses and
//! simple workloads are much clearer as short instruction scripts. A
//! [`ScriptProgram`] interprets a list of [`Instr`]s; local control-flow
//! instructions (jumps, register moves) are resolved eagerly between
//! shared-memory operations so that every [`Program::peek`] exposes an
//! actual machine operation.

use std::sync::Arc;

use crate::bytecode::{BInstr, Bytecode, Cmp, Operand, SymMode, VRef, DISCARD, NREGS};
use crate::ids::{ProcId, Value, VarId};
use crate::op::{Op, Outcome};
use crate::perm::Permutation;
use crate::program::{Program, System};
use crate::vars::VarSpec;
use crate::vm::VmSystem;

/// Number of registers available to a script.
pub const REGS: usize = 16;

/// One scripted instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// Read `var` into register `reg`.
    Read {
        /// Variable index.
        var: u32,
        /// Destination register.
        reg: usize,
    },
    /// Read the variable `base + regs[idx_reg]` into `reg`.
    ReadIdx {
        /// Array base variable index.
        base: u32,
        /// Register holding the element offset.
        idx_reg: usize,
        /// Destination register.
        reg: usize,
    },
    /// Write a constant to `var`.
    Write {
        /// Variable index.
        var: u32,
        /// Value to write.
        value: Value,
    },
    /// Write the value of register `reg` to `var`.
    WriteReg {
        /// Variable index.
        var: u32,
        /// Source register.
        reg: usize,
    },
    /// Write the value of `reg` to the variable `base + regs[idx_reg]`.
    WriteIdx {
        /// Array base variable index.
        base: u32,
        /// Register holding the element offset.
        idx_reg: usize,
        /// Source register.
        reg: usize,
    },
    /// Compare-and-swap on `var`; stores 1 (success) or 0 into
    /// `success_reg` and the observed value into `success_reg + 1`.
    Cas {
        /// Variable index.
        var: u32,
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
        /// Register receiving the success flag.
        success_reg: usize,
    },
    /// Memory fence.
    Fence,
    /// `Enter` transition.
    Enter,
    /// `CS` transition.
    Cs,
    /// `Exit` transition.
    Exit,
    /// Begin an object operation.
    Invoke {
        /// Operation code.
        op: u32,
        /// Argument.
        arg: Value,
    },
    /// Complete an object operation with the value in `reg`.
    ReturnReg {
        /// Register holding the result value.
        reg: usize,
    },
    /// `regs[reg] = value` (local, resolved eagerly).
    SetReg {
        /// Destination register.
        reg: usize,
        /// Constant.
        value: Value,
    },
    /// `regs[dst] = regs[src]` (local).
    CopyReg {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
    },
    /// `regs[reg] += delta` (wrapping; local).
    AddConst {
        /// Register to modify.
        reg: usize,
        /// Signed delta.
        delta: i64,
    },
    /// Jump to `target` if `regs[reg] == 0` (local).
    JumpIfZero {
        /// Register tested.
        reg: usize,
        /// Destination instruction index.
        target: usize,
    },
    /// Jump to `target` if `regs[reg] != 0` (local).
    JumpIfNonZero {
        /// Register tested.
        reg: usize,
        /// Destination instruction index.
        target: usize,
    },
    /// Jump to `target` if `regs[a] == regs[b]` (local).
    JumpIfEq {
        /// First register.
        a: usize,
        /// Second register.
        b: usize,
        /// Destination instruction index.
        target: usize,
    },
    /// Unconditional jump (local).
    Jump {
        /// Destination instruction index.
        target: usize,
    },
    /// Stop the program.
    Halt,
}

/// A program interpreting a fixed instruction list.
#[derive(Clone, Debug)]
pub struct ScriptProgram {
    code: Arc<Vec<Instr>>,
    pc: usize,
    regs: [Value; REGS],
    halted: bool,
}

impl ScriptProgram {
    /// Creates a program at instruction 0 with zeroed registers.
    pub fn new(code: Arc<Vec<Instr>>) -> Self {
        let mut p = ScriptProgram {
            code,
            pc: 0,
            regs: [0; REGS],
            halted: false,
        };
        p.resolve_local();
        p
    }

    /// Executes local instructions (jumps, register ops) until the program
    /// counter rests on an effectful instruction or the program halts.
    fn resolve_local(&mut self) {
        loop {
            if self.pc >= self.code.len() {
                self.halted = true;
                return;
            }
            match self.code[self.pc] {
                Instr::SetReg { reg, value } => {
                    self.regs[reg] = value;
                    self.pc += 1;
                }
                Instr::CopyReg { dst, src } => {
                    self.regs[dst] = self.regs[src];
                    self.pc += 1;
                }
                Instr::AddConst { reg, delta } => {
                    self.regs[reg] = self.regs[reg].wrapping_add_signed(delta);
                    self.pc += 1;
                }
                Instr::JumpIfZero { reg, target } => {
                    self.pc = if self.regs[reg] == 0 {
                        target
                    } else {
                        self.pc + 1
                    };
                }
                Instr::JumpIfNonZero { reg, target } => {
                    self.pc = if self.regs[reg] != 0 {
                        target
                    } else {
                        self.pc + 1
                    };
                }
                Instr::JumpIfEq { a, b, target } => {
                    self.pc = if self.regs[a] == self.regs[b] {
                        target
                    } else {
                        self.pc + 1
                    };
                }
                Instr::Jump { target } => self.pc = target,
                Instr::Halt => {
                    self.halted = true;
                    return;
                }
                _ => return, // effectful instruction: stop resolving
            }
        }
    }

    fn var_of(&self, base: u32, idx_reg: usize) -> VarId {
        VarId(base + self.regs[idx_reg] as u32)
    }
}

impl Program for ScriptProgram {
    fn peek(&self) -> Op {
        if self.halted {
            return Op::Halt;
        }
        match self.code[self.pc] {
            Instr::Read { var, .. } => Op::Read(VarId(var)),
            Instr::ReadIdx { base, idx_reg, .. } => Op::Read(self.var_of(base, idx_reg)),
            Instr::Write { var, value } => Op::Write(VarId(var), value),
            Instr::WriteReg { var, reg } => Op::Write(VarId(var), self.regs[reg]),
            Instr::WriteIdx { base, idx_reg, reg } => {
                Op::Write(self.var_of(base, idx_reg), self.regs[reg])
            }
            Instr::Cas {
                var, expected, new, ..
            } => Op::Cas {
                var: VarId(var),
                expected,
                new,
            },
            Instr::Fence => Op::Fence,
            Instr::Enter => Op::Enter,
            Instr::Cs => Op::Cs,
            Instr::Exit => Op::Exit,
            Instr::Invoke { op, arg } => Op::Invoke { op, arg },
            Instr::ReturnReg { reg } => Op::Return(self.regs[reg]),
            _ => unreachable!("local instructions are resolved eagerly"),
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        debug_assert!(!self.halted, "apply on a halted script");
        match (self.code[self.pc], outcome) {
            (Instr::Read { reg, .. }, Outcome::ReadValue(v))
            | (Instr::ReadIdx { reg, .. }, Outcome::ReadValue(v)) => self.regs[reg] = v,
            (Instr::Cas { success_reg, .. }, Outcome::CasResult { success, observed }) => {
                self.regs[success_reg] = success as Value;
                if success_reg + 1 < REGS {
                    self.regs[success_reg + 1] = observed;
                }
            }
            (
                Instr::Write { .. } | Instr::WriteReg { .. } | Instr::WriteIdx { .. },
                Outcome::WriteIssued,
            ) => {}
            (Instr::Fence, Outcome::FenceDone) => {}
            (
                Instr::Enter
                | Instr::Cs
                | Instr::Exit
                | Instr::Invoke { .. }
                | Instr::ReturnReg { .. },
                Outcome::Progressed,
            ) => {}
            (instr, outcome) => {
                panic!("outcome {outcome:?} does not match instruction {instr:?}")
            }
        }
        self.pc += 1;
        self.resolve_local();
    }

    fn register(&self, index: usize) -> Option<Value> {
        self.regs.get(index).copied()
    }

    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        // The code is immutable and shared; pc + registers + the halt flag
        // fully determine future behaviour.
        self.pc.hash(&mut h);
        self.regs.hash(&mut h);
        self.halted.hash(&mut h);
    }

    fn state_hash_permuted(&self, _perm: &Permutation, h: &mut dyn std::hash::Hasher) -> bool {
        // A script's local state never references a pid: registers hold
        // read data values and the pc indexes the (shared) code. Under a
        // pid-equivariant renaming the renamed process's program is in the
        // bitwise-identical local state, so the concrete hash stands in.
        // Only meaningful for systems that opt in via
        // [`ScriptSystem::pid_equivariant`]; the checker's start-of-run
        // validation rejects scripts that are not actually equivariant.
        self.state_hash(h);
        true
    }
}

/// Convenience constructor for a boxed [`ScriptProgram`].
pub fn script(code: Vec<Instr>) -> Box<dyn Program> {
    Box::new(ScriptProgram::new(Arc::new(code)))
}

/// A [`System`] whose processes each run a fixed script over `var_count`
/// remote variables initialised to zero.
pub struct ScriptSystem {
    scripts: Vec<Arc<Vec<Instr>>>,
    var_count: usize,
    name: String,
    pid_equivariant: bool,
}

impl ScriptSystem {
    /// Builds an `n`-process system; `gen` produces the script of each
    /// process.
    pub fn new(n: usize, var_count: usize, mut gen: impl FnMut(ProcId) -> Vec<Instr>) -> Self {
        let scripts = (0..n).map(|i| Arc::new(gen(ProcId(i as u32)))).collect();
        ScriptSystem {
            scripts,
            var_count,
            name: "scripted".to_owned(),
            pid_equivariant: bool::default(),
        }
    }

    /// Sets a diagnostic name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares the scripts pid-equivariant: process `π(p)`'s script is
    /// process `p`'s with every variable `v` replaced by `π(v)` (requires
    /// `var_count == n`, one variable per process), and no register ever
    /// holds a pid. The variable array is then marked pid-indexed and the
    /// system reports itself [`System::symmetric`], letting the checker's
    /// symmetry reduction collapse renamed interleavings. Declaring this
    /// for scripts that are *not* equivariant is caught by the checker's
    /// start-of-run validation (the search falls back to concrete keys).
    pub fn pid_equivariant(mut self) -> Self {
        self.pid_equivariant = true;
        self
    }
}

impl System for ScriptSystem {
    fn n(&self) -> usize {
        self.scripts.len()
    }

    fn vars(&self) -> VarSpec {
        if self.pid_equivariant {
            let mut b = VarSpec::builder();
            let base = b.array("v", self.var_count, 0, |_| None);
            b.mark_pid_indexed(base, self.var_count);
            b.build()
        } else {
            VarSpec::remote(self.var_count)
        }
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(ScriptProgram::new(Arc::clone(&self.scripts[pid.index()])))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn symmetric(&self) -> bool {
        self.pid_equivariant
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = self
            .scripts
            .iter()
            .enumerate()
            .map(|(pid, script)| lower_script(script, pid as u32))
            .collect();
        Some(VmSystem::new(
            self.name.clone(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

/// Lowers a script to [`Bytecode`] index-for-index, so a compiled
/// program's rest state `(pc, regs, halted)` always equals the
/// interpreting [`ScriptProgram`]'s.
///
/// Instruction `i` lands at pc `i`; pc `len` holds a `Halt` (running off
/// the end of a script halts); every [`Instr::Cas`] branches to a pair
/// of stubs past the end that materialise the success flag (and jump
/// straight back to `i + 1`), reproducing the `success_reg` convention
/// without a rest state the interpreter doesn't have.
///
/// [`ScriptSystem::compile_vm`] lowers each process's script through it.
fn lower_script(script: &[Instr], me: u32) -> Bytecode {
    let len = script.len();
    assert!(len + 1 + 4 * len < u16::MAX as usize, "script too long");
    // A jump target past the end halts natively; route it to the Halt at
    // `len` so it cannot land in the stub region.
    let target_of = |t: usize| t.min(len) as u16;
    let obs_reg = |sr: usize| {
        if sr + 1 < NREGS {
            (sr + 1) as u8
        } else {
            DISCARD
        }
    };
    let mut code: Vec<BInstr> = Vec::with_capacity(len + 1);
    let mut stubs: Vec<BInstr> = Vec::new();
    for (i, instr) in script.iter().enumerate() {
        let lowered = match *instr {
            Instr::Read { var, reg } => BInstr::Read {
                var: VRef::Direct(var),
                dst: reg as u8,
            },
            Instr::ReadIdx { base, idx_reg, reg } => BInstr::Read {
                var: VRef::Indexed {
                    base,
                    idx: idx_reg as u8,
                    off: 0,
                },
                dst: reg as u8,
            },
            Instr::Write { var, value } => BInstr::Write {
                var: VRef::Direct(var),
                val: Operand::Imm(value),
            },
            Instr::WriteReg { var, reg } => BInstr::Write {
                var: VRef::Direct(var),
                val: Operand::Reg(reg as u8),
            },
            Instr::WriteIdx { base, idx_reg, reg } => BInstr::Write {
                var: VRef::Indexed {
                    base,
                    idx: idx_reg as u8,
                    off: 0,
                },
                val: Operand::Reg(reg as u8),
            },
            Instr::Cas {
                var,
                expected,
                new,
                success_reg,
            } => {
                let stub_base = (len + 1 + stubs.len()) as u16;
                let back = (i + 1) as u16;
                stubs.extend_from_slice(&[
                    // success: flag := 1
                    BInstr::Li {
                        dst: success_reg as u8,
                        imm: 1,
                    },
                    BInstr::Jmp { target: back },
                    // failure: flag := 0
                    BInstr::Li {
                        dst: success_reg as u8,
                        imm: 0,
                    },
                    BInstr::Jmp { target: back },
                ]);
                BInstr::Cas {
                    var: VRef::Direct(var),
                    expected: Operand::Imm(expected),
                    new: Operand::Imm(new),
                    ok_obs: obs_reg(success_reg),
                    fail_obs: obs_reg(success_reg),
                    ok: stub_base,
                    fail: stub_base + 2,
                }
            }
            Instr::Fence => BInstr::Fence,
            Instr::Enter => BInstr::Enter,
            Instr::Cs => BInstr::Cs,
            Instr::Exit => BInstr::Exit,
            Instr::Invoke { op, arg } => BInstr::Invoke {
                op,
                arg: Operand::Imm(arg),
            },
            Instr::ReturnReg { reg } => BInstr::Return {
                src: Operand::Reg(reg as u8),
            },
            Instr::SetReg { reg, value } => BInstr::Li {
                dst: reg as u8,
                imm: value,
            },
            Instr::CopyReg { dst, src } => BInstr::Mov {
                dst: dst as u8,
                src: src as u8,
            },
            Instr::AddConst { reg, delta } => BInstr::Add {
                dst: reg as u8,
                delta,
            },
            Instr::JumpIfZero { reg, target } => BInstr::Br {
                a: Operand::Reg(reg as u8),
                cmp: Cmp::Eq,
                b: Operand::Imm(0),
                target: target_of(target),
            },
            Instr::JumpIfNonZero { reg, target } => BInstr::Br {
                a: Operand::Reg(reg as u8),
                cmp: Cmp::Ne,
                b: Operand::Imm(0),
                target: target_of(target),
            },
            Instr::JumpIfEq { a, b, target } => BInstr::Br {
                a: Operand::Reg(a as u8),
                cmp: Cmp::Eq,
                b: Operand::Reg(b as u8),
                target: target_of(target),
            },
            Instr::Jump { target } => BInstr::Jmp {
                target: target_of(target),
            },
            Instr::Halt => BInstr::Halt,
        };
        code.push(lowered);
    }
    code.push(BInstr::Halt);
    code.extend(stubs);
    Bytecode {
        code,
        init_regs: [0; NREGS],
        recover_pc: None,
        // A script's registers never hold a pid (see
        // `ScriptProgram::state_hash_permuted`): the concrete hash
        // stands in under every renaming.
        sym: SymMode::Equivariant,
        me,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Directive, Machine};

    #[test]
    fn local_instructions_resolve_eagerly() {
        let p = ScriptProgram::new(Arc::new(vec![
            Instr::SetReg { reg: 0, value: 5 },
            Instr::AddConst { reg: 0, delta: -2 },
            Instr::WriteReg { var: 0, reg: 0 },
            Instr::Halt,
        ]));
        assert_eq!(p.peek(), Op::Write(VarId(0), 3));
    }

    #[test]
    fn loop_over_array_reads() {
        // Sum v0..v2 into r1 using an index loop.
        let sys = ScriptSystem::new(1, 3, |_| {
            vec![
                Instr::SetReg { reg: 0, value: 0 }, // i = 0
                Instr::SetReg { reg: 3, value: 3 }, // bound
                // loop:
                Instr::ReadIdx {
                    base: 0,
                    idx_reg: 0,
                    reg: 2,
                }, // r2 = v[i]   (index 2)
                Instr::AddConst { reg: 1, delta: 0 }, // placeholder (r1 += r2 below)
                Instr::CopyReg { dst: 4, src: 1 },
                Instr::AddConst { reg: 0, delta: 1 }, // i += 1
                Instr::JumpIfEq {
                    a: 0,
                    b: 3,
                    target: 8,
                },
                Instr::Jump { target: 2 },
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        let mut reads = 0;
        while m.peek_next(p) != crate::machine::NextEvent::Halted {
            m.step(Directive::Issue(p)).unwrap();
            reads += 1;
        }
        assert_eq!(reads, 3, "exactly three shared reads execute");
    }

    #[test]
    fn scripts_are_deterministic_across_spawns() {
        let sys = ScriptSystem::new(1, 1, |_| {
            vec![
                Instr::Read { var: 0, reg: 0 },
                Instr::Write { var: 0, value: 1 },
                Instr::Halt,
            ]
        });
        let a = sys.program(ProcId(0));
        let b = sys.program(ProcId(0));
        assert_eq!(a.peek(), b.peek());
    }

    #[test]
    fn empty_script_halts_immediately() {
        let p = ScriptProgram::new(Arc::new(vec![]));
        assert_eq!(p.peek(), Op::Halt);
    }

    #[test]
    fn halted_at_end_of_code_without_explicit_halt() {
        let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Write { var: 0, value: 1 }]);
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        assert_eq!(m.peek_next(ProcId(0)), crate::machine::NextEvent::Halted);
    }
}
