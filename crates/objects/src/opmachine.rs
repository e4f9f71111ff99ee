//! Object machinery: resumable operation fragments.
//!
//! A [`SharedObject`] is a factory of [`OpMachine`]s — small step machines
//! that execute one object operation (a `fetch&increment`, a `pop`, …)
//! through shared-memory operations only (reads, writes, CAS, fences;
//! never transitions). This split lets the same object implementation be
//!
//! * wrapped into a standalone [`crate::ObjectSystem`] where each
//!   operation is bracketed by `Invoke`/`Return` marker events, and
//! * *inlined* into a bigger protocol — the paper's Algorithm 1 invokes a
//!   single `fetch&increment`/`dequeue`/`pop` inside its entry section,
//!   which is exactly an [`OpMachine`] spliced into the lock's program.

use tpa_tso::{Op, Outcome, Value, VarSpecBuilder};

/// Sentinel returned by `pop`/`dequeue` on an empty stack/queue (the
/// paper's special value `empty`).
pub const EMPTY: Value = Value::MAX;

/// Result of advancing an [`OpMachine`] by one outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubStep {
    /// The operation needs more shared-memory steps.
    Continue,
    /// The operation completed with this result.
    Done(Value),
}

/// A resumable fragment executing one object operation.
///
/// The peek/apply protocol mirrors [`tpa_tso::Program`], but `apply`
/// reports completion with the operation's result instead of the fragment
/// deciding what comes next.
///
/// `Send` mirrors the [`tpa_tso::Program: Send`](tpa_tso::Program)
/// supertrait: fragments live inside programs that cross the parallel
/// explorer's worker threads.
pub trait OpMachine: Send + ForkOpMachine {
    /// The next shared-memory operation (never a transition, `Invoke`,
    /// `Return` or `Halt`).
    fn peek(&self) -> Op;

    /// Advances with the outcome of the peeked operation.
    fn apply(&mut self, outcome: Outcome) -> SubStep;

    /// Hashes the fragment's behavioural state (control location plus any
    /// live locals). Same contract as [`tpa_tso::Program::state_hash`]:
    /// under-hashing makes explorer pruning unsound.
    fn state_hash(&self, h: &mut dyn std::hash::Hasher);
}

/// Snapshots of an [`OpMachine`] mid-operation, so that a containing
/// [`tpa_tso::Program`] can fork for the `tpa-check` schedule explorer.
///
/// It is implemented once, for every `OpMachine + Clone + 'static`: a
/// fragment is forked by cloning it.
pub trait ForkOpMachine {
    /// A behaviourally identical copy in the same state.
    fn fork(&self) -> Box<dyn OpMachine>;
}

impl<M: OpMachine + Clone + 'static> ForkOpMachine for M {
    fn fork(&self) -> Box<dyn OpMachine> {
        Box::new(self.clone())
    }
}

/// An implemented shared object: variable layout plus operation factory.
///
/// `Send + Sync` mirrors [`tpa_tso::System`]: systems built over an object
/// share it (via `Arc`) across the parallel explorer's workers.
pub trait SharedObject: Send + Sync {
    /// Declares the object's shared variables into a larger layout. The
    /// object must remember the `VarId`s it is assigned (objects are
    /// constructed, then asked to declare, then used).
    fn declare_vars(&mut self, b: &mut VarSpecBuilder);

    /// Starts one operation. Opcode meanings are object-specific; by
    /// convention opcode `0` is the *ticket* operation the Section 5
    /// reduction uses (`fetch&increment` / `dequeue` / `pop`).
    fn start_op(&self, opcode: u32, arg: Value) -> Box<dyn OpMachine>;

    /// Object name for reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sentinel_is_distinct_from_small_values() {
        assert_ne!(EMPTY, 0);
        assert!(EMPTY > u32::MAX as Value);
    }

    #[test]
    fn substep_equality() {
        assert_eq!(SubStep::Done(3), SubStep::Done(3));
        assert_ne!(SubStep::Done(3), SubStep::Continue);
    }
}
