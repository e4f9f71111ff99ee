//! The Burns–Lynch one-bit mutual exclusion algorithm (read/write only).
//!
//! Space-optimal: a single shared bit per process. A process raises its
//! flag, backs off if any *smaller*-ID process also has its flag up
//! (clearing its own bit while it waits), and finally waits for all
//! *larger*-ID processes to lower theirs. Deadlock-free but not
//! starvation-free; Θ(n) reads per attempt and a number of fences
//! proportional to the number of back-offs — contention-sensitive fences
//! on yet another axis of the portfolio.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, ProcId, Program, SymMode, System, VRef, Value, VarId,
    VarSpec, VmSystem, NREGS,
};

/// The one-bit lock system.
#[derive(Clone, Debug)]
pub struct OneBitLock {
    n: usize,
    passages: usize,
}

impl OneBitLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        OneBitLock { n, passages }
    }
}

fn flag_var(j: usize) -> VarId {
    VarId(j as u32)
}

impl System for OneBitLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.array("flag", self.n, 0, |_| None);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(OneBitProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "onebit"
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = (0..self.n).map(|me| self.compile(me)).collect();
        Some(VmSystem::new(
            self.name(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

impl OneBitLock {
    /// Compiles process `me`. `r0` is `passages_left`; `r1` carries the
    /// scan index / blocker — the native `ScanLow`/`Lower`/`WaitLow`/
    /// `WaitHigh` payloads, which share one register because the blocker
    /// *is* the scan index where the low scan stopped. `r1` is re-zeroed
    /// on exactly the edges where the native payload dies (restart after
    /// a back-off, entry to the critical section). One-bit breaks ties by
    /// pid order, so the bytecode is [`SymMode::Asymmetric`], like the
    /// native program's default `state_hash_permuted`.
    fn compile(&self, me: usize) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_J: u8 = 1;
        let flag_me = VRef::Direct(me as u32);
        let flag_j = VRef::Indexed {
            base: 0,
            idx: R_J,
            off: 0,
        };
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        let raise = a.here();
        a.write(flag_me, Operand::Imm(1));
        a.fence();
        if me > 0 {
            // Scan smaller ids; any raised flag is a blocker.
            let conflict = a.label();
            let adv = a.label();
            let after_low = a.label();
            let scan = a.here();
            a.read_br(flag_j, Cmp::Ne, Operand::Imm(0), conflict, adv);
            a.bind(adv);
            a.add(R_J, 1);
            a.br(Operand::Reg(R_J), Cmp::Lt, Operand::Imm(me as Value), scan);
            a.jmp(after_low);
            a.bind(conflict);
            a.write(flag_me, Operand::Imm(0));
            a.fence();
            let restart = a.label();
            let waitlow = a.here();
            a.read_br(flag_j, Cmp::Eq, Operand::Imm(0), restart, waitlow);
            a.bind(restart);
            a.li(R_J, 0);
            a.jmp(raise);
            a.bind(after_low);
        }
        if me + 1 < self.n {
            // Wait for every larger id to lower its flag.
            a.li(R_J, me as Value + 1);
            let whadv = a.label();
            let waithigh = a.here();
            a.read_br(flag_j, Cmp::Eq, Operand::Imm(0), whadv, waithigh);
            a.bind(whadv);
            a.add(R_J, 1);
            a.br(
                Operand::Reg(R_J),
                Cmp::Lt,
                Operand::Imm(self.n as Value),
                waithigh,
            );
        }
        a.li(R_J, 0);
        a.cs();
        a.write(flag_me, Operand::Imm(0));
        a.fence();
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let mut init_regs = [0; NREGS];
        init_regs[R_LEFT as usize] = self.passages as Value;
        Bytecode {
            code: a.finish(),
            init_regs,
            recover_pc: None,
            sym: SymMode::Asymmetric,
            me: me as u32,
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    /// `flag[me] := 1`.
    Raise,
    FenceRaise,
    /// Scan smaller IDs; any raised flag forces a back-off.
    ScanLow {
        j: usize,
    },
    /// Back-off: `flag[me] := 0`, fence, then wait for the blocker.
    Lower {
        blocker: usize,
    },
    FenceLower {
        blocker: usize,
    },
    WaitLow {
        blocker: usize,
    },
    /// Wait for every larger ID to lower its flag.
    WaitHigh {
        j: usize,
    },
    Cs,
    Clear,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct OneBitProgram {
    me: usize,
    n: usize,
    state: State,
    passages_left: usize,
}

impl OneBitProgram {
    fn after_low_scan(&self) -> State {
        if self.me + 1 < self.n {
            State::WaitHigh { j: self.me + 1 }
        } else {
            State::Cs
        }
    }
}

impl Program for OneBitProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::Raise => Op::Write(flag_var(self.me), 1),
            State::FenceRaise | State::FenceLower { .. } | State::FenceRelease => Op::Fence,
            State::ScanLow { j } => Op::Read(flag_var(j)),
            State::Lower { .. } | State::Clear => Op::Write(flag_var(self.me), 0),
            State::WaitLow { blocker } => Op::Read(flag_var(blocker)),
            State::WaitHigh { j } => Op::Read(flag_var(j)),
            State::Cs => Op::Cs,
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
            State::Enter => State::Raise,
            State::Raise => State::FenceRaise,
            State::FenceRaise => {
                if self.me == 0 {
                    self.after_low_scan()
                } else {
                    State::ScanLow { j: 0 }
                }
            }
            State::ScanLow { j } => {
                if read(outcome) != 0 {
                    State::Lower { blocker: j }
                } else if j + 1 < self.me {
                    State::ScanLow { j: j + 1 }
                } else {
                    self.after_low_scan()
                }
            }
            State::Lower { blocker } => State::FenceLower { blocker },
            State::FenceLower { blocker } => State::WaitLow { blocker },
            State::WaitLow { blocker } => {
                if read(outcome) == 0 {
                    State::Raise // restart the attempt
                } else {
                    State::WaitLow { blocker }
                }
            }
            State::WaitHigh { j } => {
                if read(outcome) == 0 {
                    if j + 1 < self.n {
                        State::WaitHigh { j: j + 1 }
                    } else {
                        State::Cs
                    }
                } else {
                    State::WaitHigh { j }
                }
            }
            State::Cs => State::Clear,
            State::Clear => State::FenceRelease,
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
        testing::standard_lock_battery(&|n, p| Box::new(OneBitLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(OneBitLock::new(n, p)));
    }

    #[test]
    fn space_is_one_bit_per_process() {
        let sys = OneBitLock::new(10, 1);
        assert_eq!(sys.vars().count(), 10);
    }

    #[test]
    fn lowest_id_never_backs_off_solo() {
        let sys = OneBitLock::new(8, 1);
        let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
        let c = m.metrics().proc(ProcId(0)).completed[0].counters;
        assert_eq!(c.fences, 2, "raise fence + release fence, no back-offs");
    }

    #[test]
    fn high_id_pays_scans_but_constant_fences_solo() {
        let sys = OneBitLock::new(8, 1);
        let m = testing::check_solo_progress(&sys, ProcId(7), 1, 100_000).unwrap();
        let c = m.metrics().proc(ProcId(7)).completed[0].counters;
        assert_eq!(c.fences, 2);
        assert!(c.rmr_dsm >= 7, "scans all smaller flags");
    }
}
