//! The bytecode instruction set the [`crate::vm::VmProgram`] interpreter
//! executes.
//!
//! Hand-written [`crate::Program`] state machines are the portfolio's
//! correctness oracle, but the explorer spends its time forking and
//! hashing them: every fork clones a Rust struct tree behind a trait
//! object, and every peek re-matches a nested enum. A compiled
//! [`Bytecode`] program is a flat register file plus a program counter —
//! forking is a `memcpy`, hashing is a fixed-length loop, and the
//! interpreter is one `match` over a compact instruction word.
//!
//! The instruction set mirrors the machine's event alphabet: *visible*
//! instructions ([`BInstr::Read`], [`BInstr::Write`], [`BInstr::Cas`],
//! [`BInstr::Fence`], the section markers) each decode to exactly one
//! [`crate::Op`] and are the only places the program counter may rest;
//! *local* instructions (register moves, branches) are resolved eagerly
//! after every outcome, exactly like [`crate::scripted::ScriptProgram`]
//! resolves its local instructions. This keeps the VM's rest states in
//! bijection with the native programs' states, which is what the
//! VM-vs-native differential suite pins (identical verdicts, witnesses
//! and unique-state counts).
//!
//! Symmetry reduction needs to know how register *contents* relate to
//! process ids; a [`SymMode::Kinds`] table records, per program counter,
//! the [`RegKind`] of every register so
//! [`crate::Program::state_hash_permuted`] can relabel exactly the live
//! pid-bearing registers (a dead register is canonically zero and hashes
//! as plain data).

use crate::ids::Value;

/// Number of registers in a VM register file (matches
/// [`crate::scripted::REGS`] so scripts lower 1:1).
pub const NREGS: usize = 16;

/// Register operand sentinel meaning "discard the value".
pub const DISCARD: u8 = u8::MAX;

/// A shared-variable reference: either a fixed id or a register-indexed
/// array element.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VRef {
    /// The fixed variable `VarId(id)`.
    Direct(u32),
    /// The array element `VarId(base + regs[idx] + off)` (offset applied
    /// as a signed displacement, so one-based registers can index
    /// zero-based arrays).
    Indexed {
        /// Array base variable id.
        base: u32,
        /// Register holding the element index.
        idx: u8,
        /// Signed displacement added to the register value.
        off: i32,
    },
}

/// A value operand: immediate, register, or register plus displacement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// The constant value itself.
    Imm(Value),
    /// The current value of a register.
    Reg(u8),
    /// `regs[r] + off` (wrapping signed add), e.g. `ticket + 1`.
    RegOff(u8, i64),
}

/// Comparison predicate for branches, on unsigned 64-bit values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl Cmp {
    /// Evaluates the predicate.
    pub fn eval(self, a: Value, b: Value) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// One bytecode instruction.
///
/// The first group is *visible*: each decodes to one [`crate::Op`] and is
/// a legal rest point for the program counter. The second group is
/// *local* and is executed eagerly between outcomes, so the machine (and
/// the state hash) never observes a program stopped on one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BInstr {
    /// Read `var` into `dst` ([`DISCARD`] drops the value); falls through.
    Read {
        /// Variable reference.
        var: VRef,
        /// Destination register or [`DISCARD`].
        dst: u8,
    },
    /// Read `var`, compare the value against `rhs`, branch to `jt` if the
    /// predicate holds and `jf` otherwise. The value itself is discarded —
    /// this mirrors native test-and-discard spin reads, which keep no
    /// register the branch hasn't already consumed.
    ReadBr {
        /// Variable reference.
        var: VRef,
        /// Predicate applied as `cmp(value, rhs)`.
        cmp: Cmp,
        /// Right-hand side of the comparison.
        rhs: Operand,
        /// Target when the predicate holds.
        jt: u16,
        /// Target when it does not.
        jf: u16,
    },
    /// Issue a write of `val` to `var`; falls through.
    Write {
        /// Variable reference.
        var: VRef,
        /// Value to write.
        val: Operand,
    },
    /// Compare-and-swap on `var`, branching on the result. The observed
    /// (pre-swap) value is stored into `ok_obs` on success and `fail_obs`
    /// on failure ([`DISCARD`] drops it) — two destinations because
    /// native programs keep the observed value in different fields on the
    /// two paths (e.g. MCS stores its predecessor on success and its
    /// retry expectation on failure).
    Cas {
        /// Variable reference.
        var: VRef,
        /// Expected value.
        expected: Operand,
        /// Replacement stored on success.
        new: Operand,
        /// Register receiving the observed value on success.
        ok_obs: u8,
        /// Register receiving the observed value on failure.
        fail_obs: u8,
        /// Target on success.
        ok: u16,
        /// Target on failure.
        fail: u16,
    },
    /// Memory fence; falls through once the buffer has drained.
    Fence,
    /// `Enter` transition; falls through.
    Enter,
    /// `Cs` transition; falls through.
    Cs,
    /// `Exit` transition; falls through.
    Exit,
    /// Begin an object operation; falls through.
    Invoke {
        /// Operation code.
        op: u32,
        /// Argument.
        arg: Operand,
    },
    /// Complete an object operation with `src`; falls through.
    Return {
        /// Result value.
        src: Operand,
    },
    /// The program has terminated.
    Halt,
    /// `regs[dst] = imm` (local).
    Li {
        /// Destination register.
        dst: u8,
        /// Constant.
        imm: Value,
    },
    /// `regs[dst] = regs[src]` (local).
    Mov {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `regs[dst] += delta` (wrapping signed add; local).
    Add {
        /// Register to modify.
        dst: u8,
        /// Signed delta.
        delta: i64,
    },
    /// Branch to `target` if `cmp(a, b)` holds, else fall through (local).
    Br {
        /// Left operand.
        a: Operand,
        /// Predicate.
        cmp: Cmp,
        /// Right operand.
        b: Operand,
        /// Branch target.
        target: u16,
    },
    /// Unconditional jump (local).
    Jmp {
        /// Jump target.
        target: u16,
    },
}

/// How a register's *contents* relate to process ids, per program
/// counter — the VM analogue of [`crate::vars::PidEncoding`] plus the
/// scan-position conventions the native locks use in their
/// [`crate::Program::state_hash_permuted`] implementations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RegKind {
    /// Plain data: hashed unchanged under renaming.
    #[default]
    Plain,
    /// The value is `pid + 1` with `0` meaning "no process" (MCS
    /// pointers). Mapped with
    /// [`crate::Permutation::map_value_one_based`]; a value above `n`
    /// makes the renaming inapplicable.
    OneBased,
    /// The value *is* a pid `0..n-1` (dijkstra's turn holder). Mapped
    /// with [`crate::Permutation::apply_index`].
    ZeroIdx,
    /// A scan position over the other processes in id order: the state is
    /// expressible under a renaming only if it preserves the scanned
    /// prefix minus the scanner itself
    /// ([`crate::Permutation::maps_scan_prefix`]).
    ScanSkipSelf,
    /// A scan position over *all* processes in id order
    /// ([`crate::Permutation::maps_prefix`]).
    ScanAll,
}

/// Symmetry treatment of a compiled program's local state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SymMode {
    /// The program does not support renaming
    /// ([`crate::Program::state_hash_permuted`] returns `false`), e.g.
    /// locks that break ties by pid.
    Asymmetric,
    /// The local state never mentions a pid: the concrete hash stands in
    /// for every renaming (scripts, test-and-set, ticket locks).
    Equivariant,
    /// Per-program-counter register kinds: entry `table[pc][r]` tells how
    /// to relabel `regs[r]` when the counter rests at `pc`. Only rest
    /// points matter; local-instruction rows are never consulted.
    Kinds(Vec<[RegKind; NREGS]>),
}

/// A compiled per-process program: code, initial register file, optional
/// recovery entry point, and the symmetry table.
///
/// Bytecode is compiled per process (constants like the process id and
/// its variable ids are baked in), but for a symmetric algorithm every
/// process' code must share one *layout* — same instruction count, same
/// label positions — so that equal program counters mean equal
/// algorithmic locations under renaming.
#[derive(Clone, PartialEq, Debug)]
pub struct Bytecode {
    /// The instruction sequence; execution starts at 0.
    pub code: Vec<BInstr>,
    /// Initial register file (e.g. a passages-remaining counter).
    pub init_regs: [Value; NREGS],
    /// Recovery entry point: where the program resumes after a crash, or
    /// `None` if it crash-stops.
    pub recover_pc: Option<u16>,
    /// Symmetry treatment of the register file.
    pub sym: SymMode,
    /// The process this bytecode was compiled for (scan-prefix checks
    /// need the scanner's own id).
    pub me: u32,
}

impl Bytecode {
    /// Serialises the bytecode to a flat byte string. This is the
    /// checkpoint fingerprint's serialization: its code hash is an
    /// FNV-1a over every process's encoding, and nothing decodes the
    /// bytes. Two encodings are equal exactly when the bytecode is
    /// (pinned by `tests/vm_props.rs`), so an edited program changes
    /// what the hash covers. Not a stable ABI: changing the format makes
    /// existing checkpoints stale.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.code.len() * 8);
        out.extend_from_slice(b"TPAB");
        out.push(1); // version
        enc_u32(&mut out, self.me);
        for r in self.init_regs {
            enc_u64(&mut out, r);
        }
        match self.recover_pc {
            None => out.push(0),
            Some(pc) => {
                out.push(1);
                enc_u16(&mut out, pc);
            }
        }
        enc_u32(&mut out, self.code.len() as u32);
        for instr in &self.code {
            enc_instr(&mut out, instr);
        }
        match &self.sym {
            SymMode::Asymmetric => out.push(0),
            SymMode::Equivariant => out.push(1),
            SymMode::Kinds(table) => {
                out.push(2);
                enc_u32(&mut out, table.len() as u32);
                for row in table {
                    for kind in row {
                        out.push(*kind as u8);
                    }
                }
            }
        }
        out
    }
}

fn enc_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_vref(out: &mut Vec<u8>, v: &VRef) {
    match v {
        VRef::Direct(id) => {
            out.push(0);
            enc_u32(out, *id);
        }
        VRef::Indexed { base, idx, off } => {
            out.push(1);
            enc_u32(out, *base);
            out.push(*idx);
            enc_i32(out, *off);
        }
    }
}

fn enc_operand(out: &mut Vec<u8>, v: &Operand) {
    match v {
        Operand::Imm(x) => {
            out.push(0);
            enc_u64(out, *x);
        }
        Operand::Reg(r) => {
            out.push(1);
            out.push(*r);
        }
        Operand::RegOff(r, off) => {
            out.push(2);
            out.push(*r);
            enc_i64(out, *off);
        }
    }
}

fn enc_instr(out: &mut Vec<u8>, instr: &BInstr) {
    match instr {
        BInstr::Read { var, dst } => {
            out.push(0);
            enc_vref(out, var);
            out.push(*dst);
        }
        BInstr::ReadBr {
            var,
            cmp,
            rhs,
            jt,
            jf,
        } => {
            out.push(1);
            enc_vref(out, var);
            out.push(*cmp as u8);
            enc_operand(out, rhs);
            enc_u16(out, *jt);
            enc_u16(out, *jf);
        }
        BInstr::Write { var, val } => {
            out.push(2);
            enc_vref(out, var);
            enc_operand(out, val);
        }
        BInstr::Cas {
            var,
            expected,
            new,
            ok_obs,
            fail_obs,
            ok,
            fail,
        } => {
            out.push(3);
            enc_vref(out, var);
            enc_operand(out, expected);
            enc_operand(out, new);
            out.push(*ok_obs);
            out.push(*fail_obs);
            enc_u16(out, *ok);
            enc_u16(out, *fail);
        }
        BInstr::Fence => out.push(4),
        BInstr::Enter => out.push(5),
        BInstr::Cs => out.push(6),
        BInstr::Exit => out.push(7),
        BInstr::Invoke { op, arg } => {
            out.push(8);
            enc_u32(out, *op);
            enc_operand(out, arg);
        }
        BInstr::Return { src } => {
            out.push(9);
            enc_operand(out, src);
        }
        BInstr::Halt => out.push(10),
        BInstr::Li { dst, imm } => {
            out.push(11);
            out.push(*dst);
            enc_u64(out, *imm);
        }
        BInstr::Mov { dst, src } => {
            out.push(12);
            out.push(*dst);
            out.push(*src);
        }
        BInstr::Add { dst, delta } => {
            out.push(13);
            out.push(*dst);
            enc_i64(out, *delta);
        }
        BInstr::Br { a, cmp, b, target } => {
            out.push(14);
            enc_operand(out, a);
            out.push(*cmp as u8);
            enc_operand(out, b);
            enc_u16(out, *target);
        }
        BInstr::Jmp { target } => {
            out.push(15);
            enc_u16(out, *target);
        }
    }
}

/// A forward-referencing label handle issued by [`Asm::label`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

const UNBOUND: u16 = u16::MAX;

/// A tiny single-pass assembler with labels, used by the per-lock
/// compilers in `tpa-algos` and the script lowering in
/// [`crate::scripted`].
#[derive(Default)]
pub struct Asm {
    code: Vec<BInstr>,
    labels: Vec<u16>,
    /// `(instruction index, slot, label)`; slot 0 is the primary target
    /// (`Br`/`Jmp` target, `ReadBr` true-branch, `Cas` success), slot 1
    /// the secondary (`ReadBr` false-branch, `Cas` failure).
    fixups: Vec<(usize, u8, usize)>,
}

impl Asm {
    /// A fresh assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Declares a label, initially unbound.
    pub fn label(&mut self) -> Label {
        self.labels.push(UNBOUND);
        Label(self.labels.len() - 1)
    }

    /// Binds `l` to the current position.
    pub fn bind(&mut self, l: Label) {
        assert_eq!(self.labels[l.0], UNBOUND, "label bound twice");
        self.labels[l.0] = self.code.len() as u16;
    }

    /// Declares a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// The position a bound label resolves to.
    ///
    /// # Panics
    ///
    /// If `l` is not yet bound.
    pub fn pc_of(&self, l: Label) -> u16 {
        let pc = self.labels[l.0];
        assert_ne!(pc, UNBOUND, "pc_of on unbound label");
        pc
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    fn push(&mut self, instr: BInstr) {
        self.code.push(instr);
    }

    /// Emits [`BInstr::Read`].
    pub fn read(&mut self, var: VRef, dst: u8) {
        self.push(BInstr::Read { var, dst });
    }

    /// Emits [`BInstr::ReadBr`].
    pub fn read_br(&mut self, var: VRef, cmp: Cmp, rhs: Operand, jt: Label, jf: Label) {
        let at = self.code.len();
        self.fixups.push((at, 0, jt.0));
        self.fixups.push((at, 1, jf.0));
        self.push(BInstr::ReadBr {
            var,
            cmp,
            rhs,
            jt: UNBOUND,
            jf: UNBOUND,
        });
    }

    /// Emits [`BInstr::Write`].
    pub fn write(&mut self, var: VRef, val: Operand) {
        self.push(BInstr::Write { var, val });
    }

    /// Emits [`BInstr::Cas`].
    #[allow(clippy::too_many_arguments)]
    pub fn cas(
        &mut self,
        var: VRef,
        expected: Operand,
        new: Operand,
        ok_obs: u8,
        fail_obs: u8,
        ok: Label,
        fail: Label,
    ) {
        let at = self.code.len();
        self.fixups.push((at, 0, ok.0));
        self.fixups.push((at, 1, fail.0));
        self.push(BInstr::Cas {
            var,
            expected,
            new,
            ok_obs,
            fail_obs,
            ok: UNBOUND,
            fail: UNBOUND,
        });
    }

    /// Emits [`BInstr::Fence`].
    pub fn fence(&mut self) {
        self.push(BInstr::Fence);
    }

    /// Emits [`BInstr::Enter`].
    pub fn enter(&mut self) {
        self.push(BInstr::Enter);
    }

    /// Emits [`BInstr::Cs`].
    pub fn cs(&mut self) {
        self.push(BInstr::Cs);
    }

    /// Emits [`BInstr::Exit`].
    pub fn exit(&mut self) {
        self.push(BInstr::Exit);
    }

    /// Emits [`BInstr::Invoke`].
    pub fn invoke(&mut self, op: u32, arg: Operand) {
        self.push(BInstr::Invoke { op, arg });
    }

    /// Emits [`BInstr::Return`].
    pub fn ret(&mut self, src: Operand) {
        self.push(BInstr::Return { src });
    }

    /// Emits [`BInstr::Halt`].
    pub fn halt(&mut self) {
        self.push(BInstr::Halt);
    }

    /// Emits [`BInstr::Li`].
    pub fn li(&mut self, dst: u8, imm: Value) {
        self.push(BInstr::Li { dst, imm });
    }

    /// Emits [`BInstr::Mov`].
    pub fn mov(&mut self, dst: u8, src: u8) {
        self.push(BInstr::Mov { dst, src });
    }

    /// Emits [`BInstr::Add`].
    pub fn add(&mut self, dst: u8, delta: i64) {
        self.push(BInstr::Add { dst, delta });
    }

    /// Emits [`BInstr::Br`].
    pub fn br(&mut self, a: Operand, cmp: Cmp, b: Operand, target: Label) {
        let at = self.code.len();
        self.fixups.push((at, 0, target.0));
        self.push(BInstr::Br {
            a,
            cmp,
            b,
            target: UNBOUND,
        });
    }

    /// Emits [`BInstr::Jmp`].
    pub fn jmp(&mut self, target: Label) {
        let at = self.code.len();
        self.fixups.push((at, 0, target.0));
        self.push(BInstr::Jmp { target: UNBOUND });
    }

    /// Patches every label reference and returns the instruction
    /// sequence.
    ///
    /// # Panics
    ///
    /// If any referenced label was never bound.
    pub fn finish(mut self) -> Vec<BInstr> {
        for (at, slot, label) in std::mem::take(&mut self.fixups) {
            let pc = self.labels[label];
            assert_ne!(pc, UNBOUND, "unbound label referenced at {at}");
            match (&mut self.code[at], slot) {
                (BInstr::ReadBr { jt, .. }, 0) => *jt = pc,
                (BInstr::ReadBr { jf, .. }, 1) => *jf = pc,
                (BInstr::Cas { ok, .. }, 0) => *ok = pc,
                (BInstr::Cas { fail, .. }, 1) => *fail = pc,
                (BInstr::Br { target, .. }, 0) => *target = pc,
                (BInstr::Jmp { target }, 0) => *target = pc,
                (instr, slot) => unreachable!("fixup slot {slot} on {instr:?}"),
            }
        }
        self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_semantics() {
        assert!(Cmp::Eq.eval(3, 3) && !Cmp::Eq.eval(3, 4));
        assert!(Cmp::Ne.eval(3, 4) && !Cmp::Ne.eval(3, 3));
        assert!(Cmp::Lt.eval(2, 3) && !Cmp::Lt.eval(3, 3));
        assert!(Cmp::Le.eval(3, 3) && !Cmp::Le.eval(4, 3));
        assert!(Cmp::Gt.eval(4, 3) && !Cmp::Gt.eval(3, 3));
        assert!(Cmp::Ge.eval(3, 3) && !Cmp::Ge.eval(2, 3));
    }

    #[test]
    fn assembler_patches_forward_and_backward_references() {
        let mut a = Asm::new();
        let spin = a.here();
        let done = a.label();
        a.read_br(VRef::Direct(0), Cmp::Eq, Operand::Imm(1), done, spin);
        a.bind(done);
        a.halt();
        let code = a.finish();
        assert_eq!(
            code,
            vec![
                BInstr::ReadBr {
                    var: VRef::Direct(0),
                    cmp: Cmp::Eq,
                    rhs: Operand::Imm(1),
                    jt: 1,
                    jf: 0,
                },
                BInstr::Halt,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn assembler_rejects_unbound_labels() {
        let mut a = Asm::new();
        let nowhere = a.label();
        a.jmp(nowhere);
        a.finish();
    }
}
