//! Lamport's bakery algorithm (read/write only).
//!
//! The classic n-process first-come-first-served lock: take a ticket one
//! larger than every ticket you can see, then wait until every smaller
//! (ticket, id) pair has been served. It uses only reads and writes, is
//! **non-adaptive** (the doorway scans all `n` slots: Θ(n) RMRs even when
//! running alone) — and needs only a **constant number of fences** per
//! passage (one after `choosing`, one closing the doorway, one on
//! release). It thereby sits on the opposite side of the paper's trade-off
//! from the adaptive locks: constant fences are possible exactly because
//! the algorithm refuses to adapt.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, ProcId, Program, SymMode, System, VRef, Value, VarId,
    VarSpec, VmSystem, NREGS,
};

/// The bakery lock system.
#[derive(Clone, Debug)]
pub struct BakeryLock {
    n: usize,
    passages: usize,
    pso_hardened: bool,
    doorway_fenced: bool,
    recoverable: bool,
}

impl BakeryLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: true,
            recoverable: false,
        }
    }

    /// A PSO-safe variant: adds one fence between the `number` write and
    /// the `choosing := 0` write. Under TSO those two writes commit in
    /// issue order for free; under PSO (Section 6 of the paper) the
    /// adversary may reorder them, which breaks mutual exclusion — the
    /// separation between the models, paid for in one extra fence (see the
    /// `pso` integration tests).
    pub fn pso_hardened(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: true,
            doorway_fenced: true,
            recoverable: false,
        }
    }

    /// A crash-recoverable variant for the fault model: on a crash the
    /// process abandons its passage and restarts cleanly at the doorway
    /// (losing registers and buffered writes, as
    /// [`tpa_tso::Machine::set_crash_budget`] specifies). Restarting the
    /// whole doorway — re-announcing `choosing`, rescanning, taking a
    /// fresh ticket — is what keeps exclusion: committed stale state
    /// (`choosing[me]`, `number[me]`) is republished and then properly
    /// cleared, so the survivors' view is never silently contradicted.
    pub fn recoverable(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: true,
            recoverable: true,
        }
    }

    /// The crash-model negative control: recoverable, but with the
    /// doorway-closing fence removed. The victim's doorway stores
    /// (`number[me]`, `choosing[me] := 0`) can then still be buffered —
    /// and lost to a crash — while it scans its competitors, so the
    /// explorer with a crash budget of 1 finds executions in which a
    /// crash discards buffered doorway stores and two processes enter the
    /// critical section (see `crates/check/tests/crash_faults.rs`).
    pub fn recoverable_without_doorway_fence(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: false,
            recoverable: true,
        }
    }

    /// A deliberately broken variant with the doorway-closing fence
    /// removed: `number[me]` and `choosing[me] := 0` stay buffered while
    /// the process scans its competitors. Under TSO two processes can
    /// then both take ticket 1, both observe the other's `choosing` and
    /// `number` as 0, and both enter the critical section. Exists to
    /// prove the `tpa-check` explorer actually catches real violations
    /// (see `tests/lock_correctness.rs`).
    pub fn without_doorway_fence(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: false,
            recoverable: false,
        }
    }
}

impl System for BakeryLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.array("choosing", self.n, 0, |_| None);
        b.array("number", self.n, 0, |_| None);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(BakeryProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            max: 0,
            my_number: 0,
            passages_left: self.passages,
            pso_hardened: self.pso_hardened,
            doorway_fenced: self.doorway_fenced,
            recoverable: self.recoverable,
        })
    }

    fn name(&self) -> &str {
        match (self.pso_hardened, self.doorway_fenced, self.recoverable) {
            (true, _, _) => "bakery-pso",
            (_, false, true) => "bakery-rec-nofence",
            (_, false, false) => "bakery-nofence",
            (_, true, true) => "bakery-rec",
            (_, true, false) => "bakery",
        }
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

impl BakeryLock {
    /// Compiles process `me`. Register layout mirrors [`BakeryProgram`]
    /// field-for-field: `r0` is `passages_left`, `r1` `max` (stale across
    /// passages, like the native field), `r2` `my_number` (likewise
    /// stale), `r3` the scan/wait index `j` — live only while the counter
    /// rests in a scan or wait loop, re-zeroed on exactly the edges where
    /// the native `j` payload dies — and `r4` a read scratch consumed and
    /// re-zeroed within each apply edge (the native program never stores
    /// a scanned value). Bakery breaks ties by pid, so the bytecode is
    /// [`SymMode::Asymmetric`], exactly like the native program's default
    /// `state_hash_permuted`.
    fn compile(&self, me: u32) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_MAX: u8 = 1;
        const R_NUM: u8 = 2;
        const R_J: u8 = 3;
        const R_V: u8 = 4;
        let n = self.n as u32;
        let choosing_me = VRef::Direct(me);
        let number_me = VRef::Direct(n + me);
        let choosing_j = VRef::Indexed {
            base: 0,
            idx: R_J,
            off: 0,
        };
        let number_j = VRef::Indexed {
            base: n,
            idx: R_J,
            off: 0,
        };
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        a.li(R_MAX, 0);
        a.write(choosing_me, Operand::Imm(1));
        a.fence();
        // Doorway scan: max := max over number[0..n].
        let keep = a.label();
        let scan = a.here();
        a.read(number_j, R_V);
        a.br(Operand::Reg(R_MAX), Cmp::Ge, Operand::Reg(R_V), keep);
        a.mov(R_MAX, R_V);
        a.bind(keep);
        a.li(R_V, 0);
        a.add(R_J, 1);
        a.br(
            Operand::Reg(R_J),
            Cmp::Lt,
            Operand::Imm(self.n as Value),
            scan,
        );
        a.mov(R_NUM, R_MAX);
        a.add(R_NUM, 1);
        a.li(R_J, 0);
        a.write(number_me, Operand::RegOff(R_MAX, 1));
        if self.pso_hardened {
            a.fence();
        }
        a.write(choosing_me, Operand::Imm(0));
        if self.doorway_fenced {
            a.fence();
        }
        // Wait phase: for each competitor j (id order, skipping me), wait
        // for choosing[j] == 0, then for number[j] to be served.
        let isme = a.label();
        let check = a.label();
        let donewait = a.label();
        a.jmp(check);
        a.bind(isme);
        a.add(R_J, 1);
        a.bind(check);
        a.br(Operand::Reg(R_J), Cmp::Eq, Operand::Imm(me as Value), isme);
        a.br(
            Operand::Reg(R_J),
            Cmp::Ge,
            Operand::Imm(self.n as Value),
            donewait,
        );
        let waitn = a.label();
        let waitc = a.here();
        a.read_br(choosing_j, Cmp::Eq, Operand::Imm(0), waitn, waitc);
        a.bind(waitn);
        a.read(number_j, R_V);
        // served = nj == 0 || nj > my_number || (nj == my_number && j > me)
        let served = a.label();
        let notserved = a.label();
        a.br(Operand::Reg(R_V), Cmp::Eq, Operand::Imm(0), served);
        a.br(Operand::Reg(R_V), Cmp::Gt, Operand::Reg(R_NUM), served);
        a.br(Operand::Reg(R_V), Cmp::Ne, Operand::Reg(R_NUM), notserved);
        a.br(
            Operand::Imm(me as Value),
            Cmp::Lt,
            Operand::Reg(R_J),
            served,
        );
        a.bind(notserved);
        a.li(R_V, 0);
        a.jmp(waitn);
        a.bind(served);
        a.li(R_V, 0);
        a.add(R_J, 1);
        a.jmp(check);
        a.bind(donewait);
        a.li(R_J, 0);
        a.cs();
        a.write(number_me, Operand::Imm(0));
        a.fence();
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        let halt = a.here();
        a.halt();
        let recover_pc = if self.recoverable {
            // Mirrors `BakeryProgram::recover`: registers are wiped and
            // the interrupted passage restarts at the doorway (or the
            // program stays done if none remained).
            let rec = a.here();
            a.li(R_MAX, 0);
            a.li(R_NUM, 0);
            a.li(R_J, 0);
            a.li(R_V, 0);
            a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
            a.jmp(halt);
            Some(a.pc_of(rec))
        } else {
            None
        };
        let mut init_regs = [0; NREGS];
        init_regs[R_LEFT as usize] = self.passages as Value;
        Bytecode {
            code: a.finish(),
            init_regs,
            recover_pc,
            sym: SymMode::Asymmetric,
            me,
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    WriteChoosing,
    FenceChoosing,
    ScanNumber {
        j: usize,
    },
    WriteNumber,
    /// PSO-hardened only: commit `number` before issuing `choosing := 0`.
    FenceNumber,
    ClearChoosing,
    FenceDoorway,
    WaitChoosing {
        j: usize,
    },
    WaitNumber {
        j: usize,
    },
    Cs,
    ClearNumber,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct BakeryProgram {
    me: usize,
    n: usize,
    state: State,
    max: Value,
    my_number: Value,
    passages_left: usize,
    pso_hardened: bool,
    doorway_fenced: bool,
    recoverable: bool,
}

impl BakeryProgram {
    fn choosing(&self, j: usize) -> VarId {
        VarId(j as u32)
    }

    fn number(&self, j: usize) -> VarId {
        VarId((self.n + j) as u32)
    }

    /// First competitor index after `j` (skipping `me`), or `None`.
    fn next_other(&self, j: usize) -> Option<usize> {
        let mut j = j;
        while j < self.n {
            if j != self.me {
                return Some(j);
            }
            j += 1;
        }
        None
    }

    fn start_wait(&self) -> State {
        match self.next_other(0) {
            Some(j) => State::WaitChoosing { j },
            None => State::Cs,
        }
    }
}

impl Program for BakeryProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.max.hash(&mut h);
        self.my_number.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::WriteChoosing => Op::Write(self.choosing(self.me), 1),
            State::FenceChoosing
            | State::FenceNumber
            | State::FenceDoorway
            | State::FenceRelease => Op::Fence,
            State::ScanNumber { j } => Op::Read(self.number(j)),
            State::WriteNumber => Op::Write(self.number(self.me), self.max + 1),
            State::ClearChoosing => Op::Write(self.choosing(self.me), 0),
            State::WaitChoosing { j } => Op::Read(self.choosing(j)),
            State::WaitNumber { j } => Op::Read(self.number(j)),
            State::Cs => Op::Cs,
            State::ClearNumber => Op::Write(self.number(self.me), 0),
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => {
                self.max = 0;
                State::WriteChoosing
            }
            State::WriteChoosing => State::FenceChoosing,
            State::FenceChoosing => State::ScanNumber { j: 0 },
            State::ScanNumber { j } => {
                let v = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for scan"),
                };
                self.max = self.max.max(v);
                if j + 1 < self.n {
                    State::ScanNumber { j: j + 1 }
                } else {
                    self.my_number = self.max + 1;
                    State::WriteNumber
                }
            }
            State::WriteNumber => {
                if self.pso_hardened {
                    State::FenceNumber
                } else {
                    State::ClearChoosing
                }
            }
            State::FenceNumber => State::ClearChoosing,
            State::ClearChoosing => {
                if self.doorway_fenced {
                    State::FenceDoorway
                } else {
                    self.start_wait()
                }
            }
            State::FenceDoorway => self.start_wait(),
            State::WaitChoosing { j } => match outcome {
                Outcome::ReadValue(0) => State::WaitNumber { j },
                Outcome::ReadValue(_) => State::WaitChoosing { j },
                other => panic!("unexpected outcome {other:?} for wait"),
            },
            State::WaitNumber { j } => {
                let nj = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for wait"),
                };
                let served =
                    nj == 0 || nj > self.my_number || (nj == self.my_number && j > self.me);
                if served {
                    match self.next_other(j + 1) {
                        Some(j2) => State::WaitChoosing { j: j2 },
                        None => State::Cs,
                    }
                } else {
                    State::WaitNumber { j }
                }
            }
            State::Cs => State::ClearNumber,
            State::ClearNumber => State::FenceRelease,
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

    fn recover(&mut self) -> bool {
        if !self.recoverable {
            return false;
        }
        // Crash wipes the registers; the passage being attempted restarts
        // from the doorway. Passages already completed stay completed —
        // `passages_left` is only decremented at `Exit`, which the crash
        // interrupted at most once.
        self.max = 0;
        self.my_number = 0;
        self.state = if self.passages_left == 0 {
            State::Done
        } else {
            State::Enter
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use tpa_tso::sched::CommitPolicy;

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(BakeryLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery_all_variants() {
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::new(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::pso_hardened(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::without_doorway_fence(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::recoverable(n, p)));
        testing::standard_vm_battery(&|n, p| {
            Box::new(BakeryLock::recoverable_without_doorway_fence(n, p))
        });
    }

    #[test]
    fn constant_fence_complexity() {
        for n in [1, 4, 16] {
            let sys = BakeryLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            let stats = &m.metrics().proc(ProcId(0)).completed[0];
            assert_eq!(
                stats.counters.fences, 3,
                "fences are constant in n (n = {n})"
            );
        }
    }

    #[test]
    fn doorway_scan_is_linear_in_n() {
        let mut costs = Vec::new();
        for n in [2, 4, 8, 16] {
            let sys = BakeryLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            costs.push(m.metrics().proc(ProcId(0)).completed[0].counters.rmr_dsm);
        }
        for w in costs.windows(2) {
            assert!(w[1] > w[0], "solo RMRs must grow with n: {costs:?}");
        }
    }

    #[test]
    fn fcfs_order_under_sequential_doorways() {
        // p0 completes its doorway before p1 starts: p0 must enter first.
        let sys = BakeryLock::new(2, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 1_000_000).unwrap();
        let cs: Vec<_> = m
            .log()
            .iter()
            .filter(|e| matches!(e.kind, tpa_tso::EventKind::Cs))
            .map(|e| e.pid)
            .collect();
        assert_eq!(cs.len(), 2);
    }
}
