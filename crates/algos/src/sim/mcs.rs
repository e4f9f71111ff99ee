//! MCS queue lock (simulated), with genuinely local spinning.
//!
//! The Mellor-Crummey–Scott list lock: a process appends its queue node by
//! swapping the tail (a CAS retry loop here — the paper's primitive set
//! has no atomic swap), links itself behind its predecessor, and spins on
//! **its own** `locked` flag, which we declare DSM-local to the process.
//! This is the only lock in the portfolio whose DSM RMR count per passage
//! is O(1) plus CAS retries — the local-spin discipline the RMR model was
//! invented for (compare the T7 table). Fences: Θ(retries) on the tail
//! swap plus a constant.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, PidEncoding, ProcId, Program, RegKind,
    SymMode, System, VRef, Value, VarId, VarSpec, VmSystem, DISCARD, NREGS,
};

/// The MCS lock system.
#[derive(Clone, Debug)]
pub struct McsLock {
    n: usize,
    passages: usize,
}

impl McsLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        McsLock { n, passages }
    }
}

const TAIL: VarId = VarId(0);

fn next_var(i: usize) -> VarId {
    VarId(1 + i as u32)
}

fn locked_var(n: usize, i: usize) -> VarId {
    VarId(1 + n as u32 + i as u32)
}

impl System for McsLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        let tail = b.var("tail", 0, None);
        // next[i] is written by i's predecessor-to-be and read by i: keep
        // it remote. locked[i] is spun on only by i: DSM-local.
        let next = b.array("next", self.n, 0, |_| None);
        let locked = b.array("locked", self.n, 0, |i| Some(ProcId(i as u32)));
        // Queue links are pid+1 with 0 meaning "empty"/"none".
        b.mark_pid_valued(tail, PidEncoding::OneBased);
        b.mark_pid_indexed(next, self.n);
        b.mark_pid_valued_array(next, self.n, PidEncoding::OneBased);
        b.mark_pid_indexed(locked, self.n);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(McsProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            pred: 0,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "mcs"
    }

    fn symmetric(&self) -> bool {
        // Processes are interchangeable: queue links are one-based pids
        // (`tail`, `next[]`, the local `pred`/`succ`), both arrays are
        // pid-indexed, and nothing depends on pid *order*.
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

impl McsLock {
    /// Compiles process `me`. Register layout mirrors [`McsProgram`]
    /// field-for-field: `r0` is `passages_left`, `r1` the predecessor
    /// link `pred` (a one-based pid, stale across passages like the
    /// native field and therefore renamed at *every* pc), `r2` the
    /// `CasTail` expectation (one-based, live only at the CAS rest
    /// point), `r3` the handoff successor (one-based, live only at the
    /// handoff write). The code layout is identical for every process —
    /// only the baked-in constants differ — so equal counters mean equal
    /// algorithmic locations under renaming, as [`SymMode::Kinds`]
    /// requires.
    fn compile(&self, me: u32) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_PRED: u8 = 1;
        const R_T: u8 = 2;
        const R_SUCC: u8 = 3;
        let n = self.n as u32;
        let me1 = me as Value + 1;
        let next_me = VRef::Direct(1 + me);
        let locked_me = VRef::Direct(1 + n + me);
        // next[pred - 1] and locked[succ - 1]: one-based links into
        // zero-based arrays.
        let next_pred = VRef::Indexed {
            base: 1,
            idx: R_PRED,
            off: -1,
        };
        let locked_succ = VRef::Indexed {
            base: 1 + n as i32 as u32,
            idx: R_SUCC,
            off: -1,
        };
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        a.write(next_me, Operand::Imm(0));
        a.write(locked_me, Operand::Imm(1));
        a.fence();
        a.read(VRef::Direct(TAIL.0), R_T);
        let won = a.label();
        let cs = a.label();
        let cas = a.here();
        a.cas(
            VRef::Direct(TAIL.0),
            Operand::Reg(R_T),
            Operand::Imm(me1),
            R_PRED,
            R_T,
            won,
            cas,
        );
        a.bind(won);
        a.li(R_T, 0);
        a.br(Operand::Reg(R_PRED), Cmp::Eq, Operand::Imm(0), cs);
        a.write(next_pred, Operand::Imm(me1));
        a.fence();
        let spin = a.here();
        a.read_br(locked_me, Cmp::Eq, Operand::Imm(0), cs, spin);
        a.bind(cs);
        a.cs();
        let handoff = a.label();
        a.read(next_me, R_SUCC);
        a.br(Operand::Reg(R_SUCC), Cmp::Ne, Operand::Imm(0), handoff);
        let exit = a.label();
        let waitsucc = a.label();
        a.cas(
            VRef::Direct(TAIL.0),
            Operand::Imm(me1),
            Operand::Imm(0),
            DISCARD,
            DISCARD,
            exit,
            waitsucc,
        );
        a.bind(waitsucc);
        a.read(next_me, R_SUCC);
        a.br(Operand::Reg(R_SUCC), Cmp::Eq, Operand::Imm(0), waitsucc);
        a.bind(handoff);
        a.write(locked_succ, Operand::Imm(0));
        a.li(R_SUCC, 0);
        a.fence();
        a.bind(exit);
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let cas_pc = a.pc_of(cas) as usize;
        let handoff_pc = a.pc_of(handoff) as usize;
        let code = a.finish();
        let mut kinds = vec![[RegKind::Plain; NREGS]; code.len()];
        for row in &mut kinds {
            row[R_PRED as usize] = RegKind::OneBased;
        }
        kinds[cas_pc][R_T as usize] = RegKind::OneBased;
        kinds[handoff_pc][R_SUCC as usize] = RegKind::OneBased;
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
    /// Reset `next[me]` and pre-arm `locked[me]` (cleared again if we turn
    /// out to be the queue head).
    ResetNext,
    ArmLocked,
    FencePrepare,
    /// Swap ourselves in as the tail: read + CAS retry.
    ReadTail,
    CasTail {
        t: Value,
    },
    /// Link behind the predecessor and wait for the handoff.
    WriteLink,
    FenceLink,
    SpinLocked,
    Cs,
    /// Release: if we have no successor, try to swing the tail back to 0;
    /// otherwise hand off.
    ReadNext,
    CasTailRelease,
    WaitSuccessor,
    WriteHandoff {
        succ: Value,
    },
    FenceHandoff,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct McsProgram {
    me: usize,
    n: usize,
    state: State,
    pred: Value,
    passages_left: usize,
}

impl McsProgram {
    fn me1(&self) -> Value {
        self.me as Value + 1
    }
}

impl Program for McsProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.pred.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, perm: &Permutation, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash;
        // Every pid in local state is one-based (0 = none): the observed
        // tail, the predecessor link and the successor being handed to.
        let state = match self.state {
            State::CasTail { t } => match perm.map_value_one_based(t) {
                Some(t) => State::CasTail { t },
                None => return false,
            },
            State::WriteHandoff { succ } => match perm.map_value_one_based(succ) {
                Some(succ) => State::WriteHandoff { succ },
                None => return false,
            },
            s => s,
        };
        let Some(pred) = perm.map_value_one_based(self.pred) else {
            return false;
        };
        state.hash(&mut h);
        pred.hash(&mut h);
        self.passages_left.hash(&mut h);
        true
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::ResetNext => Op::Write(next_var(self.me), 0),
            State::ArmLocked => Op::Write(locked_var(self.n, self.me), 1),
            State::FencePrepare | State::FenceLink | State::FenceHandoff => Op::Fence,
            State::ReadTail => Op::Read(TAIL),
            State::CasTail { t } => Op::Cas {
                var: TAIL,
                expected: t,
                new: self.me1(),
            },
            State::WriteLink => Op::Write(next_var(self.pred as usize - 1), self.me1()),
            State::SpinLocked => Op::Read(locked_var(self.n, self.me)),
            State::Cs => Op::Cs,
            State::ReadNext => Op::Read(next_var(self.me)),
            State::CasTailRelease => Op::Cas {
                var: TAIL,
                expected: self.me1(),
                new: 0,
            },
            State::WaitSuccessor => Op::Read(next_var(self.me)),
            State::WriteHandoff { succ } => Op::Write(locked_var(self.n, succ as usize - 1), 0),
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
            State::Enter => State::ResetNext,
            State::ResetNext => State::ArmLocked,
            State::ArmLocked => State::FencePrepare,
            State::FencePrepare => State::ReadTail,
            State::ReadTail => State::CasTail { t: read(outcome) },
            State::CasTail { .. } => match outcome {
                Outcome::CasResult {
                    success: true,
                    observed,
                } => {
                    self.pred = observed;
                    if self.pred == 0 {
                        State::Cs // queue was empty: we hold the lock
                    } else {
                        State::WriteLink
                    }
                }
                Outcome::CasResult {
                    success: false,
                    observed,
                } => State::CasTail { t: observed },
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            State::WriteLink => State::FenceLink,
            State::FenceLink => State::SpinLocked,
            State::SpinLocked => {
                if read(outcome) == 0 {
                    State::Cs
                } else {
                    State::SpinLocked
                }
            }
            State::Cs => State::ReadNext,
            State::ReadNext => {
                let succ = read(outcome);
                if succ == 0 {
                    State::CasTailRelease
                } else {
                    State::WriteHandoff { succ }
                }
            }
            State::CasTailRelease => match outcome {
                Outcome::CasResult { success: true, .. } => State::Exit,
                Outcome::CasResult { success: false, .. } => State::WaitSuccessor,
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            State::WaitSuccessor => {
                let succ = read(outcome);
                if succ == 0 {
                    State::WaitSuccessor // the new tail has not linked yet
                } else {
                    State::WriteHandoff { succ }
                }
            }
            State::WriteHandoff { .. } => State::FenceHandoff,
            State::FenceHandoff => State::Exit,
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
        testing::standard_lock_battery(&|n, p| Box::new(McsLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(McsLock::new(n, p)));
    }

    #[test]
    fn solo_dsm_cost_is_constant_in_n() {
        let cost = |n: usize| {
            let sys = McsLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            m.metrics().proc(ProcId(0)).completed[0].counters.rmr_dsm
        };
        assert_eq!(
            cost(2),
            cost(128),
            "queue node spin is local: O(1) DSM RMRs"
        );
    }

    #[test]
    fn contended_spin_is_on_the_local_flag() {
        use tpa_tso::sched::CommitPolicy;
        let sys = McsLock::new(4, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 2_000_000).unwrap();
        for (pid, pm) in m.metrics().iter() {
            let c = pm.completed[0].counters;
            // Spinning happens on locked[me] (local), so DSM RMRs stay
            // bounded even though events (spins) can be many.
            assert!(
                c.rmr_dsm <= 16,
                "{pid}: {} DSM RMRs with {} events — spin not local?",
                c.rmr_dsm,
                c.events
            );
        }
    }

    #[test]
    fn handoff_transfers_in_queue_order() {
        use tpa_tso::sched::CommitPolicy;
        let sys = McsLock::new(3, 2);
        testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 2, 2_000_000).unwrap();
    }
}
