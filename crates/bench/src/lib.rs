//! # tpa-bench — experiment harnesses
//!
//! One module per experiment of EXPERIMENTS.md, each producing
//! serialisable row structs consumed by the `exp_*` binaries, the
//! integration tests, and the Criterion benches. The experiments
//! regenerate every figure/table-equivalent of the paper:
//!
//! | id | paper artifact | binary |
//! |---|---|---|
//! | F1 | Figure 1 — structure of the inductive construction | `exp_f1_construction` |
//! | T1 | Theorems 1 & 3 — measured vs analytic `Act(H_i)` decay | `exp_t1_theorem1` |
//! | T2 | Corollary 2 — `Ω(log log N)` fences for linear adaptivity | `exp_t2_corollary2` |
//! | T3 | Corollary 3 — `Ω(log log log N)` for exponential adaptivity | `exp_t3_corollary3` |
//! | T4 | Corollary 1 / Section 6 — the adaptive-vs-fence separation | `exp_t4_separation` |
//! | T5 | Lemma 9 — object-to-mutex reduction cost transfer | `exp_t5_lemma9` |
//! | T6 | Theorem 1 — the feasibility frontier across f-families | `exp_t6_frontier` |
//! | C1 | checker cross-validation — explorer effort, native vs VM, symmetry | `exp_c1_explorer` |
//! | R1 | crash-fault model — crash budgets across the bakery variants | `exp_r1_crash` |
//!
//! Each binary prints an aligned table and, when the `TPA_JSON`
//! environment variable names a path, writes the raw rows as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c1;
pub mod experiments;
pub mod obs;
pub mod r1;
pub mod report;

pub use experiments::*;
