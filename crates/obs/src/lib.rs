//! # tpa-obs — the telemetry layer
//!
//! Structured observability for the whole workspace, built around one
//! trait: [`Probe`]. The simulator (`tpa-tso`), the adversary
//! construction (`tpa-adversary`) and the checker workers (`tpa-check`)
//! each accept an `Arc<dyn Probe>` and emit typed events into it:
//!
//! * [`SimStep`] — one `Machine::step` (reads/writes/fences/CAS with
//!   buffer depth), from the simulator's hot path;
//! * [`AdvEvent`] — construction progress: rounds, phase steps,
//!   erasures, `|Act(H_i)|` trajectory;
//! * [`WorkerSnapshot`] — periodic per-worker checker counters
//!   (transitions, cache hits/misses, sleep prunes, frontier depth);
//! * [`RunInfo`]/[`RunSummary`] — check lifecycle;
//! * [`HistogramRecord`] — per-passage RMR/fence/critical distributions.
//!
//! The cost model: probes are held as `Option<Arc<dyn Probe>>`, every
//! `Probe` method has an empty `#[inline]` default, and [`NullProbe`]
//! overrides nothing — so the disabled path is one branch, and tests pin
//! that enabling a recording probe perturbs *nothing* (state hashes,
//! witnesses, state counts are bit-identical; see
//! `crates/check/tests/differential.rs`).
//!
//! Sinks: [`CollectProbe`] buffers typed events in memory;
//! [`Recorder`] aggregates into a JSONL run log
//! (schema-checked by [`schema::validate_lines`]), a Chrome
//! trace-event/Perfetto export ([`perfetto`]), and an opt-in stderr
//! heartbeat. The crate is dependency-free and sits below `tpa-tso` in
//! the workspace graph, which is what lets all three engines share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod metrics;
pub mod perfetto;
pub mod probe;
pub mod recorder;
pub mod schema;

pub use ledger::{EnvFingerprint, Ledger, RunRecord, RUN_RECORD_VERSION};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use probe::{
    AdvEvent, CollectProbe, Collected, HistogramRecord, NullProbe, Probe, RunInfo, RunSummary,
    SimKind, SimStep, WorkerSnapshot,
};
pub use recorder::Recorder;
