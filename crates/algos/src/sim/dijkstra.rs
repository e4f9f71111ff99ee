//! Dijkstra's 1965 mutual exclusion algorithm (read/write only).
//!
//! The original n-process solution: a process announces interest
//! (`flag = 1`), grabs the `turn` variable when its holder is passive,
//! escalates to `flag = 2`, and enters only if no other process is at
//! stage 2 — otherwise it restarts. Safety rests solely on the
//! "escalate, fence, scan" step (two stage-2 processes would have seen
//! each other), so it is insensitive to races on `turn`, which only
//! arbitrates liveness.
//!
//! Complexity: Θ(n) reads per scan and a number of fences proportional to
//! the number of restarts — constant when uncontended, growing with
//! contention. Deadlock-free but not starvation-free.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, PidEncoding, ProcId, Program, RegKind,
    SymMode, System, VRef, Value, VarId, VarSpec, VmSystem, NREGS,
};

/// Dijkstra's lock system.
#[derive(Clone, Debug)]
pub struct DijkstraLock {
    n: usize,
    passages: usize,
}

impl DijkstraLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        DijkstraLock { n, passages }
    }
}

const TURN: VarId = VarId(0);
const FLAG_BASE: u32 = 1;

fn flag_var(j: usize) -> VarId {
    VarId(FLAG_BASE + j as u32)
}

impl System for DijkstraLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        let turn = b.var("turn", 0, None);
        let flags = b.array("flag", self.n, 0, |_| None);
        b.mark_pid_valued(turn, PidEncoding::ZeroBased);
        b.mark_pid_indexed(flags, self.n);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(DijkstraProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "dijkstra"
    }

    fn symmetric(&self) -> bool {
        // Processes are interchangeable: `turn` holds a pid (relabeled as
        // zero-based), `flag` is pid-indexed, and the only pid-order
        // dependence — the scan — is handled as a renaming precondition
        // in `state_hash_permuted`.
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

impl DijkstraLock {
    /// Compiles process `me`. Register layout mirrors
    /// [`DijkstraProgram`] payload-for-payload: `r0` is `passages_left`,
    /// `r1` the watched turn holder (a pid — [`RegKind::ZeroIdx`] at its
    /// single rest point, zero everywhere else, exactly like the native
    /// `ReadHolderFlag` payload), `r2` the scan position
    /// ([`RegKind::ScanSkipSelf`] at the scan rest point), `r3` a read
    /// scratch consumed and re-zeroed within each apply edge.
    fn compile(&self, me: u32) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_HOLDER: u8 = 1;
        const R_J: u8 = 2;
        const R_V: u8 = 3;
        let n = self.n as Value;
        let j0: Value = if me == 0 { 1 } else { 0 };
        let flag_me = VRef::Direct(FLAG_BASE + me);
        let flag_holder = VRef::Indexed {
            base: FLAG_BASE,
            idx: R_HOLDER,
            off: 0,
        };
        let flag_j = VRef::Indexed {
            base: FLAG_BASE,
            idx: R_J,
            off: 0,
        };
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        let ww = a.here();
        a.write(flag_me, Operand::Imm(1));
        a.fence();
        let mine = a.label();
        let rt = a.here();
        a.read(VRef::Direct(TURN.0), R_HOLDER);
        a.br(
            Operand::Reg(R_HOLDER),
            Cmp::Eq,
            Operand::Imm(me as Value),
            mine,
        );
        let active = a.label();
        let hold = a.here();
        a.read(flag_holder, R_V);
        a.br(Operand::Reg(R_V), Cmp::Ne, Operand::Imm(0), active);
        a.li(R_HOLDER, 0);
        a.write(VRef::Direct(TURN.0), Operand::Imm(me as Value));
        a.fence();
        a.jmp(rt);
        a.bind(active);
        a.li(R_V, 0);
        a.li(R_HOLDER, 0);
        a.jmp(rt);
        a.bind(mine);
        a.li(R_HOLDER, 0);
        a.write(flag_me, Operand::Imm(2));
        a.fence();
        let mut scan_pc = None;
        if self.n > 1 {
            a.li(R_J, j0);
            let conflict = a.label();
            let noskip = a.label();
            let cs = a.label();
            let scan = a.here();
            scan_pc = Some(a.pc_of(scan) as usize);
            a.read(flag_j, R_V);
            a.br(Operand::Reg(R_V), Cmp::Eq, Operand::Imm(2), conflict);
            a.li(R_V, 0);
            a.add(R_J, 1);
            a.br(
                Operand::Reg(R_J),
                Cmp::Ne,
                Operand::Imm(me as Value),
                noskip,
            );
            a.add(R_J, 1);
            a.bind(noskip);
            a.br(Operand::Reg(R_J), Cmp::Lt, Operand::Imm(n), scan);
            a.li(R_J, 0);
            a.jmp(cs);
            a.bind(conflict);
            a.li(R_V, 0);
            a.li(R_J, 0);
            a.jmp(ww);
            a.bind(cs);
        }
        a.cs();
        a.write(flag_me, Operand::Imm(0));
        a.fence();
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let hold_pc = a.pc_of(hold) as usize;
        let code = a.finish();
        let mut kinds = vec![[RegKind::Plain; NREGS]; code.len()];
        kinds[hold_pc][R_HOLDER as usize] = RegKind::ZeroIdx;
        if let Some(pc) = scan_pc {
            kinds[pc][R_J as usize] = RegKind::ScanSkipSelf;
        }
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
    /// `flag[me] := 1` — announce interest.
    WriteWant,
    FenceWant,
    /// Read `turn`; if it is ours, escalate, otherwise inspect its holder.
    ReadTurn,
    /// Read `flag[turn]`; 0 → grab the turn, else spin on `ReadTurn`.
    ReadHolderFlag {
        holder: usize,
    },
    /// `turn := me`.
    GrabTurn,
    FenceTurn,
    /// `flag[me] := 2` — escalate.
    WriteStage2,
    FenceStage2,
    /// Scan all other flags for another stage-2 process.
    Scan {
        j: usize,
    },
    Cs,
    /// `flag[me] := 0`.
    ClearFlag,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct DijkstraProgram {
    me: usize,
    n: usize,
    state: State,
    passages_left: usize,
}

impl DijkstraProgram {
    fn scan_start(&self) -> State {
        match (0..self.n).find(|&j| j != self.me) {
            Some(j) => State::Scan { j },
            None => State::Cs,
        }
    }
}

impl Program for DijkstraProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, perm: &Permutation, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash;
        let state = match self.state {
            // The watched turn-holder is a pid.
            State::ReadHolderFlag { holder } => State::ReadHolderFlag {
                holder: perm.apply_index(holder),
            },
            // A scan in pid order skipping `me`: the renamed program must
            // have completed exactly the renamed prefix.
            State::Scan { j } => {
                if !perm.maps_scan_prefix(j, self.me) {
                    return false;
                }
                State::Scan {
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
            State::WriteWant => Op::Write(flag_var(self.me), 1),
            State::FenceWant | State::FenceTurn | State::FenceStage2 | State::FenceRelease => {
                Op::Fence
            }
            State::ReadTurn => Op::Read(TURN),
            State::ReadHolderFlag { holder } => Op::Read(flag_var(holder)),
            State::GrabTurn => Op::Write(TURN, self.me as Value),
            State::WriteStage2 => Op::Write(flag_var(self.me), 2),
            State::Scan { j } => Op::Read(flag_var(j)),
            State::Cs => Op::Cs,
            State::ClearFlag => Op::Write(flag_var(self.me), 0),
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
            State::Enter => State::WriteWant,
            State::WriteWant => State::FenceWant,
            State::FenceWant => State::ReadTurn,
            State::ReadTurn => {
                let turn = read(outcome) as usize;
                if turn == self.me {
                    State::WriteStage2
                } else {
                    State::ReadHolderFlag { holder: turn }
                }
            }
            State::ReadHolderFlag { .. } => {
                if read(outcome) == 0 {
                    State::GrabTurn
                } else {
                    State::ReadTurn // holder active: keep watching
                }
            }
            State::GrabTurn => State::FenceTurn,
            State::FenceTurn => State::ReadTurn, // re-check we kept it
            State::WriteStage2 => State::FenceStage2,
            State::FenceStage2 => self.scan_start(),
            State::Scan { j } => {
                if read(outcome) == 2 {
                    State::WriteWant // conflict: restart from stage 1
                } else {
                    match (j + 1..self.n).find(|&j2| j2 != self.me) {
                        Some(j2) => State::Scan { j: j2 },
                        None => State::Cs,
                    }
                }
            }
            State::Cs => State::ClearFlag,
            State::ClearFlag => State::FenceRelease,
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
        testing::standard_lock_battery(&|n, p| Box::new(DijkstraLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(DijkstraLock::new(n, p)));
    }

    #[test]
    fn solo_fence_count_is_constant() {
        for n in [1, 4, 32] {
            let sys = DijkstraLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1_000_000).unwrap();
            let f = m.metrics().proc(ProcId(0)).completed[0].counters.fences;
            // Solo p0 with turn == 0 initially: want fence + stage-2 fence +
            // release fence (no turn grab needed).
            assert_eq!(f, 3, "n = {n}");
        }
    }

    #[test]
    fn solo_non_turn_holder_pays_one_grab() {
        let sys = DijkstraLock::new(4, 1);
        let m = testing::check_solo_progress(&sys, ProcId(2), 1, 1_000_000).unwrap();
        let f = m.metrics().proc(ProcId(2)).completed[0].counters.fences;
        assert_eq!(f, 4, "want + turn grab + stage-2 + release");
    }

    #[test]
    fn scan_is_linear_in_n() {
        let cost = |n: usize| {
            let sys = DijkstraLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1_000_000).unwrap();
            m.metrics().proc(ProcId(0)).completed[0].counters.rmr_dsm
        };
        assert!(cost(32) > cost(4), "non-adaptive scan grows with n");
    }
}
