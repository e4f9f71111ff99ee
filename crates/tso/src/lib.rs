//! # tpa-tso — an operational Total Store Ordering (TSO) simulator
//!
//! This crate implements, from scratch, the shared-memory model used by
//! Ben-Baruch and Hendler in *The Price of being Adaptive* (PODC 2015): a
//! simplified version of the Park–Dill operational TSO model in which
//!
//! * every process owns an abstract **write buffer**; writes are *issued*
//!   into the buffer and only become visible to other processes when a
//!   scheduling adversary *commits* them;
//! * a **fence** forces the adversary to commit all buffered writes of the
//!   issuing process, modelled by a `BeginFence` event, a run of
//!   `CommitWrite` events, and a final `EndFence` event;
//! * reads are served from the issuer's own write buffer when it holds a
//!   pending write to the variable, and from shared memory otherwise;
//! * a **scheduling adversary** picks, at every step, a process and whether
//!   it executes its next program event or commits its oldest buffered write.
//!
//! On top of the bare model the crate provides the accounting the paper's
//! lower bound is stated in:
//!
//! * **RMR accounting** for the distributed shared memory (DSM) model and
//!   for cache-coherent (CC) machines under both write-through and
//!   write-back protocols ([`metrics`]);
//! * **critical events** (Definition 2 of the paper) — first remote reads
//!   and remote write commits that overwrite another process' value;
//! * **awareness sets** (Definition 1) — the information-flow relation the
//!   adversary uses to keep processes mutually invisible ([`awareness`]);
//! * **erasure** `E^{-Y}` of a set of processes from an execution, with
//!   replay validation of Lemma 1 ([`erase::erase`]).
//!
//! Algorithms are expressed as deterministic step machines implementing
//! [`Program`], bundled into an n-process [`System`] that also declares the
//! shared-variable layout (including DSM ownership). The [`Machine`] runs a
//! `System` under any sequence of scheduling [`Directive`]s and records the
//! resulting execution.
//!
//! ```
//! use tpa_tso::{Machine, Directive, ProcId, scripted::ScriptSystem, scripted::Instr};
//!
//! // A two-process system where each process writes a flag, fences, and
//! // reads the other's flag (the classic store-buffer litmus test).
//! let sys = ScriptSystem::new(2, 2, |pid| {
//!     let me = pid.index() as u32;
//!     let other = 1 - me;
//!     vec![
//!         Instr::Write { var: me, value: 1 },
//!         Instr::Read { var: other, reg: 0 },
//!         Instr::Halt,
//!     ]
//! });
//! let mut m = Machine::new(&sys);
//! // Let both processes issue their writes and reads without any commit:
//! // under TSO both reads may return 0.
//! for pid in [ProcId(0), ProcId(1)] {
//!     m.step(Directive::Issue(pid)).unwrap();
//! }
//! for pid in [ProcId(0), ProcId(1)] {
//!     m.step(Directive::Issue(pid)).unwrap();
//! }
//! assert_eq!(m.program(ProcId(0)).unwrap().register(0), Some(0));
//! assert_eq!(m.program(ProcId(1)).unwrap().register(0), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod awareness;
pub mod buffer;
pub mod bytecode;
pub mod cache;
pub mod erase;
pub mod event;
pub mod fxhash;
pub mod ids;
pub mod machine;
pub mod metrics;
pub mod op;
pub mod perm;
pub mod program;
pub mod sched;
pub mod scripted;
pub mod shrink;
pub mod trace;
pub mod vars;
pub mod vm;

pub use analysis::{contention, Contention, Span};
pub use awareness::AwSet;
pub use buffer::WriteBuffer;
pub use bytecode::{
    Asm, BInstr, Bytecode, Cmp, Label, Operand, RegKind, SymMode, VRef, DISCARD, NREGS,
};
pub use erase::{erase, EraseOutcome};
pub use event::{Event, EventKind, ReadSource, SpecialKind};
pub use fxhash::{fx_hash_one, FxBuildHasher, FxHasher};
pub use ids::{ProcId, Value, VarId};
pub use machine::{
    CrashState, Directive, Machine, MemoryModel, Mode, RenamedHashes, Section, StateKey, StepError,
};
pub use metrics::{Counters, Histogram, Metrics, PassageStats, ProcMetrics, SpanKind};
pub use op::{Op, Outcome};
pub use perm::{Permutation, SymmetryGroup};
pub use program::{ForkProgram, Program, System};
pub use vars::{PidEncoding, VarSpec, VarSpecBuilder};
pub use vm::{VmProgram, VmSystem};
