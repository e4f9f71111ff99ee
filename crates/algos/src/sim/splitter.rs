//! Lamport's fast mutual exclusion (splitter-based fast path, read/write
//! only).
//!
//! Lamport's 1987 algorithm: the `x`/`y` pair forms what was later called
//! a *splitter* — a process that writes `x`, sees `y` clear, claims `y`
//! and still finds `x` unchanged wins the fast path in O(1) steps.
//! Contenders fall through to a slow path that waits for all announced
//! processes (`b[j]` flags).
//!
//! This is the repository's adaptive-flavoured read/write lock (the
//! Kim–Anderson adaptive algorithm builds a whole renaming tree out of
//! such splitters): running solo it costs O(1) RMRs **and** O(1) fences;
//! under contention `k` it retries the splitter and rescans the `b` array,
//! so both RMRs and fences grow with the actual contention — the shape the
//! paper's trade-off says any adaptive algorithm must exhibit.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, PidEncoding, ProcId, Program, RegKind,
    SymMode, System, VRef, Value, VarId, VarSpec, VmSystem, NREGS,
};

/// The fast-path (splitter) lock system.
#[derive(Clone, Debug)]
pub struct SplitterLock {
    n: usize,
    passages: usize,
}

impl SplitterLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        SplitterLock { n, passages }
    }
}

const Y: VarId = VarId(0);
const X: VarId = VarId(1);
const B_BASE: u32 = 2;

fn b_var(j: usize) -> VarId {
    VarId(B_BASE + j as u32)
}

impl System for SplitterLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        // x and y hold pid+1 (0 = unclaimed); b[] is the pid-indexed
        // announce array.
        let y = b.var("y", 0, None);
        let x = b.var("x", 0, None);
        let bb = b.array("b", self.n, 0, |_| None);
        b.mark_pid_valued(y, PidEncoding::OneBased);
        b.mark_pid_valued(x, PidEncoding::OneBased);
        b.mark_pid_indexed(bb, self.n);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(SplitterProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "splitter"
    }

    fn symmetric(&self) -> bool {
        // Processes are interchangeable: x/y hold one-based pids compared
        // only for equality with the reader's own id, b[] is pid-indexed,
        // and the slow-path wait scan is a renaming precondition in
        // `state_hash_permuted`.
        true
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = (0..self.n).map(|me| self.compile(me as u32)).collect();
        Some(VmSystem::new(
            self.name(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

impl SplitterLock {
    /// Compiles process `me`. Every splitter read compares against a
    /// constant (`0` or `me+1`) and discards the value, so the whole
    /// control graph lowers to [`BInstr::ReadBr`] test-and-discard
    /// instructions; the only live payload is the slow-path b-scan index
    /// in `r1` — the native `WaitB { j }` — which scans *all* pids in
    /// order ([`RegKind::ScanAll`] at that single rest point) and dies on
    /// the edge into `ReadY2`. `r0` is `passages_left`. Four distinct
    /// y-read rest points keep the pc ↔ native-state bijection exact
    /// (`ReadY`, `AwaitYZero`, `ReadY2`, `AwaitYZeroRetry` each get their
    /// own `ReadBr`).
    fn compile(&self, me: u32) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_J: u8 = 1;
        let me1 = me as Value + 1;
        let n = self.n as Value;
        let b_me = VRef::Direct(B_BASE + me);
        let b_j = VRef::Indexed {
            base: B_BASE,
            idx: R_J,
            off: 0,
        };
        let y = VRef::Direct(Y.0);
        let x = VRef::Direct(X.0);
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        // Announce: b[me] := 1, x := me+1, fence.
        let wb1 = a.here();
        a.write(b_me, Operand::Imm(1));
        a.write(x, Operand::Imm(me1));
        a.fence();
        // Splitter: y clear → claim it, else back off and await y == 0.
        let writey = a.label();
        let backoff = a.label();
        a.read_br(y, Cmp::Eq, Operand::Imm(0), writey, backoff);
        a.bind(backoff);
        a.write(b_me, Operand::Imm(0));
        a.fence();
        let restart = a.label();
        let awaity = a.here();
        a.read_br(y, Cmp::Eq, Operand::Imm(0), restart, awaity);
        a.bind(restart);
        a.jmp(wb1);
        a.bind(writey);
        a.write(y, Operand::Imm(me1));
        a.fence();
        // x unchanged → fast win; else slow path: clear b[me], wait for
        // every announced process, re-read y.
        let cs = a.label();
        let slow = a.label();
        a.read_br(x, Cmp::Eq, Operand::Imm(me1), cs, slow);
        a.bind(slow);
        a.write(b_me, Operand::Imm(0));
        a.fence();
        let badv = a.label();
        let waitb = a.here();
        a.read_br(b_j, Cmp::Eq, Operand::Imm(0), badv, waitb);
        a.bind(badv);
        a.add(R_J, 1);
        a.br(Operand::Reg(R_J), Cmp::Lt, Operand::Imm(n), waitb);
        a.li(R_J, 0);
        let retry = a.label();
        a.read_br(y, Cmp::Eq, Operand::Imm(me1), cs, retry);
        let restart2 = a.label();
        a.bind(retry);
        a.read_br(y, Cmp::Eq, Operand::Imm(0), restart2, retry);
        a.bind(restart2);
        a.jmp(wb1);
        a.bind(cs);
        a.cs();
        a.write(y, Operand::Imm(0));
        a.write(b_me, Operand::Imm(0));
        a.fence();
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let waitb_pc = a.pc_of(waitb) as usize;
        let code = a.finish();
        let mut kinds = vec![[RegKind::Plain; NREGS]; code.len()];
        kinds[waitb_pc][R_J as usize] = RegKind::ScanAll;
        let mut init_regs = [0; NREGS];
        init_regs[R_LEFT as usize] = self.passages as Value;
        Bytecode {
            code,
            init_regs,
            recover_pc: None,
            sym: SymMode::Kinds(kinds),
            me,
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    /// `b[me] := 1` — announce.
    WriteB1,
    /// `x := me+1`.
    WriteX,
    /// Commit `b[me]`, `x`.
    FenceXB,
    /// Read `y`; 0 → claim it, else back off.
    ReadY,
    /// Back-off: `b[me] := 0`.
    BackoffClearB,
    BackoffFence,
    /// Spin until `y == 0`, then restart.
    AwaitYZero,
    /// `y := me+1`.
    WriteY,
    FenceY,
    /// Read `x`; unchanged → fast win, else slow path.
    ReadX,
    /// Slow path: `b[me] := 0`.
    SlowClearB,
    SlowFence,
    /// Await `b[j] == 0` for every j.
    WaitB {
        j: usize,
    },
    /// Re-read `y`: ours → win, else wait for release and restart.
    ReadY2,
    AwaitYZeroRetry,
    Cs,
    /// Release: `y := 0`, `b[me] := 0`, fence.
    ClearY,
    ClearB,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct SplitterProgram {
    me: usize,
    n: usize,
    state: State,
    passages_left: usize,
}

impl SplitterProgram {
    fn me1(&self) -> Value {
        self.me as Value + 1
    }
}

impl Program for SplitterProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, perm: &Permutation, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash;
        // The b-scan runs over *all* pids (including me) in pid order:
        // the renamed program must have completed exactly the renamed
        // prefix.
        let state = match self.state {
            State::WaitB { j } => {
                if !perm.maps_prefix(j) {
                    return false;
                }
                State::WaitB {
                    j: perm.apply_index(j),
                }
            }
            s => s,
        };
        state.hash(&mut h);
        self.passages_left.hash(&mut h);
        true
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::WriteB1 => Op::Write(b_var(self.me), 1),
            State::WriteX => Op::Write(X, self.me1()),
            State::FenceXB
            | State::BackoffFence
            | State::FenceY
            | State::SlowFence
            | State::FenceRelease => Op::Fence,
            State::ReadY | State::AwaitYZero | State::ReadY2 | State::AwaitYZeroRetry => {
                Op::Read(Y)
            }
            State::BackoffClearB | State::SlowClearB | State::ClearB => {
                Op::Write(b_var(self.me), 0)
            }
            State::WriteY => Op::Write(Y, self.me1()),
            State::ReadX => Op::Read(X),
            State::WaitB { j } => Op::Read(b_var(j)),
            State::Cs => Op::Cs,
            State::ClearY => Op::Write(Y, 0),
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        self.state = match self.state {
            State::Enter => State::WriteB1,
            State::WriteB1 => State::WriteX,
            State::WriteX => State::FenceXB,
            State::FenceXB => State::ReadY,
            State::ReadY => {
                if read(outcome) == 0 {
                    State::WriteY
                } else {
                    State::BackoffClearB
                }
            }
            State::BackoffClearB => State::BackoffFence,
            State::BackoffFence => State::AwaitYZero,
            State::AwaitYZero => {
                if read(outcome) == 0 {
                    State::WriteB1 // restart
                } else {
                    State::AwaitYZero
                }
            }
            State::WriteY => State::FenceY,
            State::FenceY => State::ReadX,
            State::ReadX => {
                if read(outcome) == self.me1() {
                    State::Cs // fast path
                } else {
                    State::SlowClearB
                }
            }
            State::SlowClearB => State::SlowFence,
            State::SlowFence => State::WaitB { j: 0 },
            State::WaitB { j } => {
                if read(outcome) == 0 {
                    if j + 1 < self.n {
                        State::WaitB { j: j + 1 }
                    } else {
                        State::ReadY2
                    }
                } else {
                    State::WaitB { j }
                }
            }
            State::ReadY2 => {
                if read(outcome) == self.me1() {
                    State::Cs // slow win
                } else {
                    State::AwaitYZeroRetry
                }
            }
            State::AwaitYZeroRetry => {
                if read(outcome) == 0 {
                    State::WriteB1 // restart
                } else {
                    State::AwaitYZeroRetry
                }
            }
            State::Cs => State::ClearY,
            State::ClearY => State::ClearB,
            State::ClearB => State::FenceRelease,
            State::FenceRelease => State::Exit,
            State::Exit => {
                self.passages_left -= 1;
                if self.passages_left == 0 {
                    State::Done
                } else {
                    State::Enter
                }
            }
            State::Done => panic!("apply on a halted program"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(SplitterLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(SplitterLock::new(n, p)));
    }

    #[test]
    fn solo_cost_is_constant_in_n() {
        // Adaptivity: solo fences and RMRs do not depend on n.
        let cost = |n: usize| {
            let sys = SplitterLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1_000_000).unwrap();
            let c = m.metrics().proc(ProcId(0)).completed[0].counters;
            (c.fences, c.rmr_dsm)
        };
        let small = cost(2);
        let large = cost(256);
        assert_eq!(small.0, large.0, "solo fences independent of n");
        assert_eq!(small.1, large.1, "solo RMRs independent of n");
        assert_eq!(large.0, 3, "x/b fence + y fence + release fence");
    }

    #[test]
    fn fast_path_skips_the_b_scan() {
        let sys = SplitterLock::new(64, 1);
        let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1_000_000).unwrap();
        let c = m.metrics().proc(ProcId(0)).completed[0].counters;
        assert!(c.events < 30, "fast path is O(1) events, got {}", c.events);
    }
}
