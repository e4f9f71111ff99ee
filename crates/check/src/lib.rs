//! tpa-check: systematic schedule exploration for the TSO simulator.
//!
//! The rest of the workspace *measures* executions (RMRs, fences,
//! critical events); this crate *searches* them. The front door is
//! [`Checker`], a builder that configures one check and returns a
//! [`Report`]:
//!
//! ```
//! # use tpa_check::Checker;
//! # use tpa_tso::scripted::{Instr, ScriptSystem};
//! # use tpa_tso::MemoryModel;
//! # let system = ScriptSystem::new(2, 1, |_| vec![Instr::Fence, Instr::Halt]);
//! Checker::new(&system)
//!     .model(MemoryModel::Pso)
//!     .max_steps(24)
//!     .threads(4)
//!     .exhaustive()
//!     .assert_pass();
//! ```
//!
//! Underneath sit three layers:
//!
//! * [`parallel`](mod@parallel) — the work-distributing exploration
//!   engine: bounded-exhaustive enumeration of every
//!   [`tpa_tso::Directive`] interleaving up to a step bound, fanned out
//!   across worker threads with a sharded visited-state cache, sleep-set
//!   pruning of commuting directive pairs (built on
//!   [`tpa_tso::Machine::independent`]), and a deterministic
//!   first-violation guarantee — any thread count reports the same
//!   witness;
//! * [`swarm`](mod@swarm) — seeded biased random schedules
//!   (commit-starving, fence-stalling, single-process bursts) for
//!   instances too large to exhaust;
//! * [`verdict`] — packages a search outcome over the [`invariant`]
//!   battery (mutual exclusion, bounded deadlock-freedom,
//!   store-buffer/fence laws), and on a violation shrinks the witness
//!   schedule with [`tpa_tso::shrink::shrink_schedule`] and renders it
//!   with [`tpa_tso::trace`].
//!
//! The intended workflow is the one in `tests/lock_correctness.rs`:
//! exhaustively verify each lock at small `n`, swarm the larger
//! instances, and `assert_pass()` — a failure panics with a minimal,
//! human-readable counterexample schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod checker;
pub mod checkpoint;
pub mod explore;
pub mod invariant;
pub mod parallel;
pub mod scenario;
mod sleep;
pub mod swarm;
pub mod verdict;

pub use checker::{Checker, Execution, Features, StateKeys};
pub use checkpoint::{Checkpoint, CheckpointError, FailpointWriter, Section, WriteFault};
pub use explore::{enabled_all, ExploreConfig, FoundViolation, IncompleteReason};
pub use invariant::{crash_invariants, standard_invariants, Invariant, Violation};
pub use parallel::{default_threads, SearchPhase, WorkerStats};
pub use scenario::{
    battery, run_checks, run_checks_opts, ClauseOutcome, ForbiddenState, RunOptions,
};
pub use swarm::{Bias, SwarmConfig};
pub use verdict::{EffortStats, Report, Verdict};

/// `println!` for the crate's binaries, whose stdout reader may leave
/// early (`check_file F... | head -1`, `tpa_runs list L | head -1`): a
/// failed write is dropped instead of panicking, so the command still
/// finishes its work (every clause, ledger record, metrics snapshot and
/// `--out` report) and exits with the status an open stdout would give.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}
