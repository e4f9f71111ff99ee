//! # tpa-objects — shared objects and the Section 5 reductions
//!
//! The paper extends its mutual-exclusion lower bound to weak
//! obstruction-free **counters, stacks and queues** (Section 5): given any
//! f-adaptive implementation of one of these objects, Algorithm 1 builds a
//! one-time mutual-exclusion lock in which each passage invokes a *single*
//! object operation and pays only a constant number of additional fences
//! and RMRs (Lemma 9). Any fence-complexity lower bound for the lock
//! therefore transfers to the object.
//!
//! This crate implements:
//!
//! * the object machinery ([`opmachine`]): objects as factories of
//!   resumable operation fragments that can run standalone (wrapped in
//!   `Invoke`/`Return` markers) **or** be inlined into a larger protocol —
//!   which is exactly what Algorithm 1 needs;
//! * concrete objects: a CAS-loop fetch&increment [`counter`], a Treiber
//!   [`stack`] over a never-reused node pool (no ABA), and a bounded MPMC
//!   array [`queue`] — each supporting pre-filling, so the paper's
//!   `⟨0; …; N⟩` queue and `⟨N; …; 0⟩` stack initialisations are one
//!   constructor call;
//! * the limited-use counter derivations: `fetch&increment` as `dequeue`
//!   on the pre-filled queue and `pop` on the pre-filled stack;
//! * the converse direction ([`locked`]): a counter protected by an
//!   inline lock, inheriting the lock's constant fence cost per operation;
//! * **Algorithm 1** ([`reduction`]): the one-time mutex built from any
//!   ticket-dispensing object, generic over the three objects above;
//! * the Lemma 9 measurement harness ([`lemma9`]): per-passage fence/RMR
//!   costs of the reduction versus the bare object operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod lemma9;
pub mod locked;
pub mod object_system;
pub mod opmachine;
pub mod queue;
pub mod reduction;
pub mod stack;
#[cfg(test)]
pub(crate) mod testutil;

pub use counter::CasCounter;
pub use locked::LockedCounter;
pub use object_system::{ObjectSystem, OpCall};
pub use opmachine::{ForkOpMachine, OpMachine, SharedObject, SubStep, EMPTY};
pub use queue::ArrayQueue;
pub use reduction::OneTimeMutex;
pub use stack::TreiberStack;
