//! Algorithm 1: one-time mutual exclusion from a counter (Section 5).
//!
//! ```text
//! Shared: release[N+1] : boolean, initially [1, 0, …, 0]
//!         waiting[N+1] : process id or ⊥, initially ⊥
//!         spin[N]      : boolean, initially 0   (spin[p] local to p in DSM)
//!         C            : an N-limited-use counter
//!
//! program for process p:
//!   1: v ← C.fetch&increment()
//!   2: waiting[v] ← p
//!   3: if release[v] = 0 then
//!   4:     wait (spin[p] ≠ 0)
//!      CS
//!   5: release[v+1] ← 1
//!   6: q ← waiting[v+1]
//!   7: if q ≠ ⊥ then
//!   8:     spin[q] ← 1
//! ```
//!
//! Every write is followed by a fence (as the paper assumes), so each
//! passage costs the fences of one `fetch&increment` plus a constant —
//! Lemma 9's complexity transfer, which [`crate::lemma9`] measures. The
//! counter is any [`SharedObject`] whose opcode-0 operation dispenses the
//! tickets `0, 1, …, N-1`: the CAS counter, the pre-filled queue
//! (`dequeue`) or the pre-filled stack (`pop`).

use std::sync::Arc;

use tpa_tso::{Op, Outcome, ProcId, Program, System, Value, VarId, VarSpec};

use crate::opmachine::{OpMachine, SharedObject, SubStep, EMPTY};

/// The one-time mutual exclusion system of Algorithm 1.
///
/// ```
/// use tpa_objects::{CasCounter, OneTimeMutex};
/// use tpa_tso::sched::{run_round_robin, CommitPolicy};
///
/// // Four processes, one passage each, built from a fetch&increment
/// // counter; a fair schedule completes every passage.
/// let mutex = OneTimeMutex::new(CasCounter::new(), 4);
/// let (machine, stats) = run_round_robin(&mutex, CommitPolicy::Lazy, 1_000_000)?;
/// assert!(stats.all_halted);
/// assert_eq!(machine.fin().len(), 4);
/// # Ok::<(), tpa_tso::StepError>(())
/// ```
pub struct OneTimeMutex<O: SharedObject + 'static> {
    object: Arc<O>,
    spec: VarSpec,
    n: usize,
    release_base: VarId,
    waiting_base: VarId,
    spin_base: VarId,
    name: String,
}

impl<O: SharedObject + 'static> OneTimeMutex<O> {
    /// Builds the reduction over `object` for `n` processes. The object
    /// must dispense tickets `0..n` via opcode 0 (use
    /// [`crate::CasCounter::new`], [`crate::ArrayQueue::counter_prefill`]
    /// or [`crate::TreiberStack::counter_prefill`]).
    pub fn new(mut object: O, n: usize) -> Self {
        let mut b = VarSpec::builder();
        object.declare_vars(&mut b);
        let mut release_base = None;
        for i in 0..=n {
            // release[0] starts at 1, the rest at 0.
            let v = b.var(format!("release[{i}]"), u64::from(i == 0), None);
            if i == 0 {
                release_base = Some(v);
            }
        }
        let waiting_base = b.array("waiting", n + 1, EMPTY, |_| None);
        // spin[p] is local to p (DSM model) — the only variable a process
        // busy-waits on, as in the paper's proof of Lemma 9.
        let spin_base = b.array("spin", n, 0, |i| Some(ProcId(i as u32)));
        let name = format!("onetime-mutex<{}>", object.name());
        OneTimeMutex {
            object: Arc::new(object),
            spec: b.build(),
            n,
            release_base: release_base.expect("n + 1 >= 1 slots"),
            waiting_base,
            spin_base,
            name,
        }
    }

    /// The `VarId` of `spin[p]` (exposed for layout assertions).
    pub fn spin_var(&self, p: usize) -> VarId {
        VarId(self.spin_base.0 + p as u32)
    }
}

impl<O: SharedObject + 'static> System for OneTimeMutex<O> {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        self.spec.clone()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(OneTimeProgram {
            me: pid,
            release_base: self.release_base,
            waiting_base: self.waiting_base,
            spin_base: self.spin_base,
            object: Arc::clone(&self.object) as Arc<dyn SharedObject>,
            state: RState::Enter,
            ticket: 0,
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

enum RState {
    Enter,
    /// Line 1: the single object operation.
    FetchTicket(Box<dyn OpMachine>),
    /// Line 2: `waiting[v] ← p` (+ fence).
    WriteWaiting,
    FenceWaiting,
    /// Line 3: read `release[v]`.
    ReadRelease,
    /// Line 4: wait on the local spin variable.
    SpinWait,
    Cs,
    /// Line 5: `release[v+1] ← 1` (+ fence).
    WriteRelease,
    FenceRelease,
    /// Line 6: `q ← waiting[v+1]`.
    ReadWaiting,
    /// Line 8: `spin[q] ← 1` (+ fence).
    WriteSpin(usize),
    FenceSpin,
    Exit,
    Done,
}

impl Clone for RState {
    fn clone(&self) -> Self {
        match self {
            RState::Enter => RState::Enter,
            RState::FetchTicket(m) => RState::FetchTicket(m.fork()),
            RState::WriteWaiting => RState::WriteWaiting,
            RState::FenceWaiting => RState::FenceWaiting,
            RState::ReadRelease => RState::ReadRelease,
            RState::SpinWait => RState::SpinWait,
            RState::Cs => RState::Cs,
            RState::WriteRelease => RState::WriteRelease,
            RState::FenceRelease => RState::FenceRelease,
            RState::ReadWaiting => RState::ReadWaiting,
            RState::WriteSpin(q) => RState::WriteSpin(*q),
            RState::FenceSpin => RState::FenceSpin,
            RState::Exit => RState::Exit,
            RState::Done => RState::Done,
        }
    }
}

impl RState {
    /// Control-location discriminant for [`Program::state_hash`].
    fn tag(&self) -> u8 {
        match self {
            RState::Enter => 0,
            RState::FetchTicket(_) => 1,
            RState::WriteWaiting => 2,
            RState::FenceWaiting => 3,
            RState::ReadRelease => 4,
            RState::SpinWait => 5,
            RState::Cs => 6,
            RState::WriteRelease => 7,
            RState::FenceRelease => 8,
            RState::ReadWaiting => 9,
            RState::WriteSpin(_) => 10,
            RState::FenceSpin => 11,
            RState::Exit => 12,
            RState::Done => 13,
        }
    }
}

#[derive(Clone)]
struct OneTimeProgram {
    me: ProcId,
    release_base: VarId,
    waiting_base: VarId,
    spin_base: VarId,
    object: Arc<dyn SharedObject>,
    state: RState,
    ticket: Value,
}

impl OneTimeProgram {
    fn release_var(&self, i: Value) -> VarId {
        VarId(self.release_base.0 + i as u32)
    }

    fn waiting_var(&self, i: Value) -> VarId {
        VarId(self.waiting_base.0 + i as u32)
    }

    fn spin_var(&self, p: usize) -> VarId {
        VarId(self.spin_base.0 + p as u32)
    }
}

impl Program for OneTimeProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.tag().hash(&mut h);
        match &self.state {
            RState::FetchTicket(m) => m.state_hash(h),
            RState::WriteSpin(q) => q.hash(&mut h),
            _ => {}
        }
        self.ticket.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match &self.state {
            RState::Enter => Op::Enter,
            RState::FetchTicket(m) => m.peek(),
            RState::WriteWaiting => Op::Write(self.waiting_var(self.ticket), self.me.0 as Value),
            RState::FenceWaiting | RState::FenceRelease | RState::FenceSpin => Op::Fence,
            RState::ReadRelease => Op::Read(self.release_var(self.ticket)),
            RState::SpinWait => Op::Read(self.spin_var(self.me.index())),
            RState::Cs => Op::Cs,
            RState::WriteRelease => Op::Write(self.release_var(self.ticket + 1), 1),
            RState::ReadWaiting => Op::Read(self.waiting_var(self.ticket + 1)),
            RState::WriteSpin(q) => Op::Write(self.spin_var(*q), 1),
            RState::Exit => Op::Exit,
            RState::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        self.state = match std::mem::replace(&mut self.state, RState::Done) {
            RState::Enter => RState::FetchTicket(self.object.start_op(0, 0)),
            RState::FetchTicket(mut m) => match m.apply(outcome) {
                SubStep::Continue => RState::FetchTicket(m),
                SubStep::Done(v) => {
                    assert_ne!(v, EMPTY, "ticket source exhausted");
                    self.ticket = v;
                    RState::WriteWaiting
                }
            },
            RState::WriteWaiting => RState::FenceWaiting,
            RState::FenceWaiting => RState::ReadRelease,
            RState::ReadRelease => {
                if read(outcome) == 1 {
                    RState::Cs
                } else {
                    RState::SpinWait
                }
            }
            RState::SpinWait => {
                if read(outcome) != 0 {
                    RState::Cs
                } else {
                    RState::SpinWait
                }
            }
            RState::Cs => RState::WriteRelease,
            RState::WriteRelease => RState::FenceRelease,
            RState::FenceRelease => RState::ReadWaiting,
            RState::ReadWaiting => {
                let q = read(outcome);
                if q == EMPTY {
                    RState::Exit
                } else {
                    RState::WriteSpin(q as usize)
                }
            }
            RState::WriteSpin(_) => RState::FenceSpin,
            RState::FenceSpin => RState::Exit,
            RState::Exit => RState::Done,
            RState::Done => panic!("apply on a halted program"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CasCounter;
    use crate::queue::ArrayQueue;
    use crate::stack::TreiberStack;
    use tpa_algos::testing;
    use tpa_tso::sched::CommitPolicy;

    #[test]
    fn counter_reduction_battery() {
        // One-time mutex: every process performs exactly one passage.
        for n in [1, 2, 4, 8] {
            let sys = OneTimeMutex::new(CasCounter::new(), n);
            crate::testutil::expect(
                testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 2_000_000),
                &format!("counter one-time mutex round-robin (n = {n})"),
            );
        }
        for seed in 1..=8u64 {
            let sys = OneTimeMutex::new(CasCounter::new(), 4);
            crate::testutil::expect(
                testing::check_exclusion_random(&sys, seed, 80, 400_000),
                &format!("counter one-time mutex exclusion (seed {seed})"),
            );
        }
    }

    #[test]
    fn queue_reduction_battery() {
        for n in [1, 2, 5] {
            let sys = OneTimeMutex::new(ArrayQueue::counter_prefill(n), n);
            crate::testutil::expect(
                testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 2_000_000),
                &format!("queue one-time mutex round-robin (n = {n})"),
            );
        }
        for seed in 1..=8u64 {
            let sys = OneTimeMutex::new(ArrayQueue::counter_prefill(4), 4);
            crate::testutil::expect(
                testing::check_exclusion_random(&sys, seed, 80, 400_000),
                &format!("queue one-time mutex exclusion (seed {seed})"),
            );
        }
    }

    #[test]
    fn stack_reduction_battery() {
        for n in [1, 2, 5] {
            let sys = OneTimeMutex::new(TreiberStack::counter_prefill(n), n);
            crate::testutil::expect(
                testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 2_000_000),
                &format!("stack one-time mutex round-robin (n = {n})"),
            );
        }
        for seed in 1..=8u64 {
            let sys = OneTimeMutex::new(TreiberStack::counter_prefill(4), 4);
            crate::testutil::expect(
                testing::check_exclusion_random(&sys, seed, 80, 400_000),
                &format!("stack one-time mutex exclusion (seed {seed})"),
            );
        }
    }

    #[test]
    fn passages_enter_in_ticket_order() {
        let sys = OneTimeMutex::new(CasCounter::new(), 4);
        let m = crate::testutil::expect(
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 2_000_000),
            "ticket-order round-robin",
        );
        let cs: Vec<_> = m
            .log()
            .iter()
            .filter(|e| matches!(e.kind, tpa_tso::EventKind::Cs))
            .map(|e| e.pid)
            .collect();
        assert_eq!(cs.len(), 4, "all four processes eventually enter");
    }

    #[test]
    fn solo_passage_is_constant_fences() {
        let sys = OneTimeMutex::new(CasCounter::new(), 1);
        let m = crate::testutil::expect(
            testing::check_solo_progress(&sys, ProcId(0), 1, 10_000),
            "solo passage",
        );
        let stats = &m.metrics().proc(ProcId(0)).completed[0];
        // 1 (counter CAS) + waiting fence + release fence = 3;
        // no successor, so no spin fence.
        assert_eq!(stats.counters.fences, 3);
    }

    #[test]
    fn dsm_spin_variable_is_local() {
        let sys = OneTimeMutex::new(CasCounter::new(), 2);
        let spec = sys.vars();
        let spin0 = sys.spin_var(0);
        assert_eq!(spec.owner(spin0), Some(ProcId(0)));
        let spin1 = sys.spin_var(1);
        assert_eq!(spec.owner(spin1), Some(ProcId(1)));
    }
}
