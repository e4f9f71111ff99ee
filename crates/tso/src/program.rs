//! The program and system abstractions.
//!
//! An algorithm is packaged as a [`System`]: a factory that declares the
//! shared-variable layout for `n` processes and spawns one deterministic
//! [`Program`] per process. Determinism is essential: the lower-bound
//! adversary *erases* processes by replaying a filtered schedule against
//! freshly spawned programs (see [`mod@crate::erase`]), which is only meaningful
//! if a program's behaviour is a function of the outcomes it has received.

use std::any::Any;

use crate::ids::{ProcId, Value};
use crate::op::{Op, Outcome};
use crate::perm::Permutation;
use crate::vars::VarSpec;
use crate::vm::{VmProgram, VmSystem};

/// A deterministic per-process step machine.
///
/// The machine drives a program through a peek/apply protocol:
///
/// 1. [`Program::peek`] returns the next operation in program order without
///    executing it (the adversary uses this to decide scheduling);
/// 2. after the machine executes the operation, [`Program::apply`] delivers
///    the [`Outcome`] and the program advances.
///
/// `peek` must be pure: calling it repeatedly without an intervening
/// `apply` must return the same operation. A program whose `peek` returns
/// [`Op::Halt`] is finished and is never scheduled again.
///
/// `Send` is a supertrait so a whole [`crate::Machine`] (which owns
/// `Box<dyn Program>`s) can move between the parallel explorer's worker
/// threads; programs are plain data, so this costs implementations
/// nothing. [`ForkProgram`] is a supertrait too, and every `Clone +
/// 'static` program has it, so implementations write no forking code.
pub trait Program: Send + ForkProgram {
    /// The next operation this process wants to perform.
    fn peek(&self) -> Op;

    /// Advances the program state with the outcome of the operation that
    /// `peek` reported.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `outcome` is not a valid response to
    /// the currently peeked operation (this indicates a machine bug).
    fn apply(&mut self, outcome: Outcome);

    /// Diagnostic access to a named local register, for tests and litmus
    /// harnesses. Returns `None` if the program has no such register.
    fn register(&self, index: usize) -> Option<Value> {
        let _ = index;
        None
    }

    /// Crash notification (the fault model): local registers and control
    /// location are lost. Returns `true` if the program has a recovery
    /// section and has jumped to it (it will be re-scheduled after a
    /// `Recover` event, and may rely only on shared memory to rebuild
    /// local state); `false` — the default — crash-stops the process.
    fn recover(&mut self) -> bool {
        false
    }

    /// Feeds every behaviourally relevant piece of local state into `h`.
    ///
    /// Two programs that hash equally must behave identically on every
    /// future outcome sequence — the explorer uses this to recognise
    /// already-visited global states, so *under*-hashing causes unsound
    /// pruning while over-hashing merely wastes cache entries. Include
    /// control location and every live register; exclude diagnostics.
    fn state_hash(&self, h: &mut dyn std::hash::Hasher);

    /// Feeds the *renamed* local state into `h`: exactly what the program
    /// running at position `perm(me)` would feed via
    /// [`Program::state_hash`] if this execution had its processes
    /// relabeled by `perm`. Pid-valued registers must be mapped
    /// (`i → perm(i)`); pid-*indexed* scan positions likewise; plain data
    /// is hashed unchanged.
    ///
    /// Returns `false` when the state is not expressible under `perm`
    /// (e.g. a pid-order scan whose prefix `perm` does not preserve) or
    /// when the program does not support symmetry at all — the default.
    /// Returning `true` after hashing the *wrong* content is unsound:
    /// only implement this after checking every field for pid
    /// dependence. Returning `false` in some states does not make the
    /// reduction sound either: `splitter`, `filter` and `dijkstra` refuse
    /// renamings mid-scan, yet under canonical keys they can report
    /// `Pass` on an orbit that concrete keys report as a `Violation`,
    /// because a renaming valid in one state need not commute with the
    /// transitions out of it (ROADMAP item 1).
    fn state_hash_permuted(&self, perm: &Permutation, h: &mut dyn std::hash::Hasher) -> bool {
        let _ = (perm, h);
        false
    }
}

/// Snapshots of a [`Program`], which the schedule explorer (`tpa-check`)
/// takes of the whole machine at every choice point.
///
/// It is implemented once, for every `Program + Clone + 'static`: a
/// program is forked by cloning it.
pub trait ForkProgram: Any {
    /// A behaviourally identical copy in the same state.
    fn fork(&self) -> Box<dyn Program>;

    /// Overwrites `dst` with a fork of `self`. When `dst` already holds a
    /// program of `self`'s type, `self` is cloned into it with
    /// [`Clone::clone_from`] and the box is kept; otherwise the box is
    /// replaced.
    fn fork_into(&self, dst: &mut Box<dyn Program>);
}

impl<P: Program + Clone + 'static> ForkProgram for P {
    fn fork(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn fork_into(&self, dst: &mut Box<dyn Program>) {
        let slot: &mut dyn Any = &mut **dst;
        match slot.downcast_mut::<P>() {
            Some(same) => same.clone_from(self),
            None => *dst = self.fork(),
        }
    }
}

/// An `n`-process algorithm instance: variable layout plus a program
/// factory.
///
/// `Send + Sync` is a supertrait so the parallel explorer's workers can
/// share one system by reference; implementations are immutable
/// configuration, so this costs them nothing.
pub trait System: Send + Sync {
    /// Number of processes.
    fn n(&self) -> usize;

    /// The shared-variable layout (count, initial values, DSM ownership).
    fn vars(&self) -> VarSpec;

    /// Spawns the program for process `pid`. Must be deterministic: every
    /// call with the same `pid` returns a behaviourally identical program.
    fn program(&self, pid: ProcId) -> Box<dyn Program>;

    /// Human-readable algorithm name (used in experiment output).
    fn name(&self) -> &str {
        "unnamed"
    }

    /// Declares that the system is process-symmetric: its programs differ
    /// only in their pid, every pid-indexed array and pid-valued variable
    /// is marked in [`System::vars`], and every program implements
    /// [`Program::state_hash_permuted`]. The checker validates the claim
    /// dynamically before relying on it, but declaring it falsely wastes
    /// that validation run — and an algorithm that genuinely breaks ties
    /// by pid (bakery, one-bit, tournament) must leave this `false`.
    fn symmetric(&self) -> bool {
        false
    }

    /// Spawns the *compiled* program for process `pid`, if this system
    /// carries bytecode. The machine stores such programs inline in its
    /// process table (no per-fork box, no trait-object dispatch on the
    /// peek/apply/hash path). The default — native systems — returns
    /// `None`, leaving behaviour and performance unchanged.
    fn vm_program(&self, pid: ProcId) -> Option<VmProgram> {
        let _ = pid;
        None
    }

    /// Compiles the whole system to bytecode, if a compiler exists for
    /// it. The checker calls this under `Execution::Compiled` and points
    /// the search at the compiled system; the returned [`VmSystem`] must
    /// be observationally identical (same name, variable layout, symmetry
    /// claim, and state-for-state behaviour — the VM differential suite
    /// pins this).
    /// The default returns `None`: the checker then falls back to the
    /// native programs.
    fn compile_vm(&self) -> Option<VmSystem> {
        None
    }
}

impl<S: System + ?Sized> System for &S {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn vars(&self) -> VarSpec {
        (**self).vars()
    }
    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        (**self).program(pid)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn symmetric(&self) -> bool {
        (**self).symmetric()
    }
    fn vm_program(&self, pid: ProcId) -> Option<VmProgram> {
        (**self).vm_program(pid)
    }
    fn compile_vm(&self) -> Option<VmSystem> {
        (**self).compile_vm()
    }
}

impl<S: System + ?Sized> System for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn vars(&self) -> VarSpec {
        (**self).vars()
    }
    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        (**self).program(pid)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn symmetric(&self) -> bool {
        (**self).symmetric()
    }
    fn vm_program(&self, pid: ProcId) -> Option<VmProgram> {
        (**self).vm_program(pid)
    }
    fn compile_vm(&self) -> Option<VmSystem> {
        (**self).compile_vm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;
    use crate::scripted::{Instr, ScriptSystem};

    /// A program that counts the reads it has done.
    #[derive(Clone)]
    struct Reads(u64);

    impl Program for Reads {
        fn peek(&self) -> Op {
            Op::Read(VarId(0))
        }
        fn apply(&mut self, _outcome: Outcome) {
            self.0 += 1;
        }
        fn register(&self, _index: usize) -> Option<Value> {
            Some(self.0)
        }
        fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
            std::hash::Hash::hash(&self.0, &mut h);
        }
    }

    /// A program that has halted, with a payload so its box allocates.
    #[derive(Clone)]
    struct Done(u64);

    impl Program for Done {
        fn peek(&self) -> Op {
            Op::Halt
        }
        fn apply(&mut self, _outcome: Outcome) {}
        fn register(&self, _index: usize) -> Option<Value> {
            Some(self.0)
        }
        fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
            std::hash::Hash::hash(&self.0, &mut h);
        }
    }

    #[test]
    fn fork_into_keeps_the_box_only_when_the_types_match() {
        let address = |p: &dyn Program| p as *const dyn Program as *const u8;
        let mut src = Reads(0);
        src.apply(Outcome::ReadValue(1));
        src.apply(Outcome::ReadValue(1));
        let mut dst: Box<dyn Program> = Box::new(Reads(7));
        let before = address(&*dst);
        src.fork_into(&mut dst);
        assert_eq!(address(&*dst), before, "same type: the box is kept");
        assert_eq!((dst.peek(), dst.register(0)), (Op::Read(VarId(0)), Some(2)));

        Done(5).fork_into(&mut dst);
        assert_ne!(address(&*dst), before, "another type: the box is replaced");
        assert_eq!((dst.peek(), dst.register(0)), (Op::Halt, Some(5)));
    }

    #[test]
    fn system_is_usable_through_references_and_boxes() {
        let sys = ScriptSystem::new(2, 1, |_| vec![Instr::Halt]);
        fn takes_system<S: System>(s: S) -> usize {
            s.n()
        }
        assert_eq!(takes_system(&sys), 2);
        let boxed: Box<dyn System> = Box::new(sys);
        assert_eq!(takes_system(&boxed), 2);
        assert_eq!(boxed.vars().count(), 1);
    }
}
