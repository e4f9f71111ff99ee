//! The `Checker` builder — the one front door to schedule checking.
//!
//! ```
//! use tpa_check::Checker;
//! use tpa_tso::scripted::{Instr, ScriptSystem};
//! use tpa_tso::MemoryModel;
//!
//! let sys = ScriptSystem::new(2, 2, |pid| {
//!     vec![
//!         Instr::Write { var: pid.0, value: 1 },
//!         Instr::Fence,
//!         Instr::Halt,
//!     ]
//! });
//! // Every interleaving up to 24 steps, on 2 worker threads, under PSO.
//! let report = Checker::new(&sys)
//!     .model(MemoryModel::Pso)
//!     .max_steps(24)
//!     .threads(2)
//!     .exhaustive();
//! report.assert_pass();
//!
//! // Too big to exhaust? Sample 32 biased random schedules instead.
//! Checker::new(&sys).swarm(32).assert_pass();
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpa_obs::{EnvFingerprint, Ledger, Metrics, Probe, RunInfo, RunRecord, RunSummary};
use tpa_tso::sched::XorShift;
use tpa_tso::{Machine, MemoryModel, ProcId, SymmetryGroup, System};

use crate::checkpoint::{self, Checkpoint, CheckpointError, Fingerprint};
use crate::explore::{enabled_all, ExploreConfig, IncompleteReason};
use crate::invariant::{standard_invariants, Invariant};
use crate::parallel::{run_exhaustive, CheckpointHooks, ResumeSeed, SnapshotData};
use crate::swarm::{run_swarm, SwarmConfig};
use crate::verdict::{condemn, Report, Verdict};

/// Default size of the deadline-degradation swarm fallback
/// ([`Checker::fallback_schedules`]). Small on purpose: the fallback
/// exists to keep *looking for violations* after completeness is lost,
/// not to burn the rest of the wall clock.
const FALLBACK_SCHEDULES: usize = 32;

/// Steps per transposition in the start-of-run symmetry validation walk.
/// Long enough to get well past the doorway/entry protocol of every lock
/// in the portfolio, short enough to be noise next to the search itself.
const VALIDATION_STEPS: usize = 96;

fn model_tag(model: MemoryModel) -> &'static str {
    match model {
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// Records a finished search's bytecode-VM metrics: program size and
/// dispatched transitions when it ran compiled, and the decoder's
/// process-wide counters.
fn record_vm(m: &Metrics, compiled: Option<&tpa_tso::VmSystem>, transitions: u64) {
    if let Some(vm) = compiled {
        let instrs: u64 = (0..vm.n())
            .map(|p| vm.bytecode(ProcId(p as u32)).code.len() as u64)
            .sum();
        m.gauge("vm.code_instrs").set(instrs);
        m.counter("vm.dispatch_transitions").add(transitions);
    }
    let (calls, decoded) = tpa_tso::bytecode::decode_counters();
    m.gauge("vm.decode_calls").set(calls);
    m.gauge("vm.decoded_instrs").set(decoded);
}

/// Dynamically validates a system's claimed pid-symmetry before the
/// search trusts it: for every transposition `π = (a b)` the group kept,
/// walk two machines in lockstep — one under a deterministic
/// pseudo-random schedule, the other under the *renamed* schedule — and
/// require the canonical state keys to agree after every step.
///
/// The walk is *validity-preserving*: it only takes steps after which `π`
/// is still expressible for the reached state (`state_hash_permuted`
/// returns `Some`). That is exactly the regime in which the cache would
/// merge the two states, so it is the property worth testing; outside it
/// (a pid-order scan mid-prefix, an unwritten pid-valued variable the
/// transposition moves) the two executions legitimately diverge and the
/// canonicaliser never equates them anyway. A walk that cannot start or
/// continue validates vacuously; a *mismatch* — the declared marks are
/// wrong, so two genuinely equivalent states canonicalise apart — rejects
/// the group and the checker falls back to concrete keys, which is always
/// sound.
fn validate_symmetry(
    system: &dyn System,
    model: MemoryModel,
    max_crashes: u32,
    group: &SymmetryGroup,
) -> bool {
    let n = group.n();
    for a in 0..n {
        for b in (a + 1)..n {
            let Some(idx) = group.find_transposition(a, b) else {
                continue;
            };
            let perm = group.perm(idx);
            let var_map = group.var_map(idx);
            let mut orig = Machine::with_model(system, model);
            orig.set_crash_budget(max_crashes);
            let mut renamed = Machine::with_model(system, model);
            renamed.set_crash_budget(max_crashes);
            if orig.state_hash_permuted(perm, var_map).is_none() {
                // π cannot express even the initial state (e.g. it moves
                // the initial holder of a pid-valued variable): nothing
                // to validate for this transposition.
                continue;
            }
            let mut rng = XorShift::new(0x7379_6d00 ^ ((a as u64) << 8) ^ (b as u64) | 1);
            for _ in 0..VALIDATION_STEPS {
                let keeps_validity: Vec<_> = enabled_all(&orig)
                    .into_iter()
                    .filter(|&d| {
                        let mut probe = orig.fork_for_search();
                        probe.step(d).is_ok() && probe.state_hash_permuted(perm, var_map).is_some()
                    })
                    .collect();
                if keeps_validity.is_empty() {
                    break;
                }
                let d = keeps_validity[rng.below(keeps_validity.len())];
                if orig.step(d).is_err() || renamed.step(group.rename_directive(idx, d)).is_err() {
                    return false;
                }
                if orig.canonical_state_key(group).0 != renamed.canonical_state_key(group).0 {
                    return false;
                }
            }
        }
    }
    true
}

/// How the checker executes each process's program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Execution {
    /// Run the system's native [`tpa_tso::Program`]s as-is.
    #[default]
    Native,
    /// Run the system's compiled bytecode instead
    /// ([`tpa_tso::System::compile_vm`]); silently stays native when the
    /// system provides no compiler. Verdicts, witnesses and state counts
    /// are unchanged (pinned by the VM differential suite) but the flat
    /// register file forks faster, so exhaustive search explores more
    /// states per second. [`Report::vm`] records whether it engaged.
    Compiled,
}

/// How the visited-state cache keys states during exhaustive search.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StateKeys {
    /// Concrete per-state keys: every reachable state is its own entry.
    #[default]
    Concrete,
    /// Orbit-canonical keys under the process-symmetry group, collapsing
    /// up to `n!` equivalent states to one entry. Only engages when the
    /// system declares [`System::symmetric`], the variable layout yields
    /// a non-trivial group, and the claimed symmetry survives the
    /// start-of-run lockstep validation walk; otherwise the search
    /// silently falls back to concrete keys (always sound).
    /// [`Report::symmetry`] records whether it engaged.
    Canonical,
}

/// The typed feature configuration for a [`Checker`], replacing the old
/// pair of boolean toggles (`vm(bool)`, `symmetry(bool)`).
///
/// The default is the conservative baseline: native execution, concrete
/// state keys. [`Features::full`] turns both accelerators on; either can
/// also be set individually:
///
/// ```
/// use tpa_check::{Execution, Features, StateKeys};
///
/// let fast = Features::full();
/// assert_eq!(fast.execution, Execution::Compiled);
/// assert_eq!(fast.keys, StateKeys::Canonical);
///
/// let vm_only = Features::default().compiled();
/// assert_eq!(vm_only.keys, StateKeys::Concrete);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Features {
    /// Native programs or compiled bytecode.
    pub execution: Execution,
    /// Concrete or orbit-canonical state keys.
    pub keys: StateKeys,
}

impl Features {
    /// Both accelerators on: compiled execution, canonical keys. Each
    /// still degrades gracefully on systems that don't support it.
    pub fn full() -> Self {
        Features {
            execution: Execution::Compiled,
            keys: StateKeys::Canonical,
        }
    }

    /// This configuration with [`Execution::Compiled`].
    pub fn compiled(mut self) -> Self {
        self.execution = Execution::Compiled;
        self
    }

    /// This configuration with [`StateKeys::Canonical`].
    pub fn canonical(mut self) -> Self {
        self.keys = StateKeys::Canonical;
        self
    }
}

/// The system under check: borrowed from the caller or owned by the
/// checker (scenarios compiled from DSL source have no other owner).
enum SystemRef<'a> {
    Borrowed(&'a dyn System),
    Owned(Box<dyn System>),
}

impl SystemRef<'_> {
    fn get(&self) -> &dyn System {
        match self {
            SystemRef::Borrowed(s) => *s,
            SystemRef::Owned(s) => s.as_ref(),
        }
    }
}

/// Anything the checker can check: a borrowed native [`System`], an
/// owned (boxed) system, or `.tpa` scenario source compiled on entry.
///
/// This is the single front door ([`Checker::scenario`]) unifying the
/// native lock implementations, [`tpa_tso::scripted::ScriptSystem`], and
/// the scenario DSL:
///
/// ```
/// use tpa_check::{Checker, Scenario};
/// # use tpa_tso::scripted::{Instr, ScriptSystem};
///
/// // A native or scripted system, by reference.
/// let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Halt]);
/// Checker::scenario(&sys).unwrap().exhaustive().assert_pass();
///
/// // DSL source, compiled on entry.
/// let src = "scenario tiny procs 1 var x proc* { x = 1 fence halt }";
/// Checker::scenario(Scenario::source(src))
///     .unwrap()
///     .exhaustive()
///     .assert_pass();
/// ```
pub enum Scenario<'a> {
    /// A borrowed system.
    System(&'a dyn System),
    /// An owned system.
    Boxed(Box<dyn System>),
    /// Scenario DSL source text; `origin` names it in diagnostics.
    Source {
        /// The `.tpa` source text.
        src: String,
        /// Where it came from (a file name, `"<inline>"`, …).
        origin: String,
    },
}

impl Scenario<'_> {
    /// A scenario from inline DSL source.
    pub fn source(src: impl Into<String>) -> Self {
        Scenario::Source {
            src: src.into(),
            origin: "<inline>".into(),
        }
    }

    /// A scenario from DSL source read from `origin` (used only for
    /// diagnostics; this does not touch the filesystem).
    pub fn named_source(src: impl Into<String>, origin: impl Into<String>) -> Self {
        Scenario::Source {
            src: src.into(),
            origin: origin.into(),
        }
    }
}

impl<'a, S: System> From<&'a S> for Scenario<'a> {
    fn from(s: &'a S) -> Self {
        Scenario::System(s)
    }
}

impl<'a> From<&'a dyn System> for Scenario<'a> {
    fn from(s: &'a dyn System) -> Self {
        Scenario::System(s)
    }
}

impl From<Box<dyn System>> for Scenario<'_> {
    fn from(s: Box<dyn System>) -> Self {
        Scenario::Boxed(s)
    }
}

impl From<tpa_dsl::CompiledScenario> for Scenario<'_> {
    fn from(s: tpa_dsl::CompiledScenario) -> Self {
        Scenario::Boxed(Box::new(s.system))
    }
}

/// A scenario that failed to compile: the pre-rendered diagnostic
/// (source line, caret, help) from the DSL frontend.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// Configures and runs one check of one system; see the
/// [module docs](crate::checker) for an example.
///
/// Defaults: TSO, the standard invariant battery, one thread, a step
/// bound of 80 (exhaustive) / 4096 (swarm), a 20M-transition budget, and
/// the swarm seed the portfolio tests use.
pub struct Checker<'a> {
    system: SystemRef<'a>,
    model: MemoryModel,
    invariants: Vec<Box<dyn Invariant>>,
    max_steps: Option<usize>,
    max_transitions: u64,
    max_crashes: u32,
    deadline: Option<Duration>,
    threads: usize,
    seed: u64,
    features: Features,
    fallback_schedules: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: Option<Checkpoint>,
    probe: Option<Arc<dyn Probe>>,
    metrics: Option<Arc<Metrics>>,
    ledger: Option<PathBuf>,
    scenario_id: Option<String>,
}

impl<'a> Checker<'a> {
    /// A checker for `system` with the defaults above.
    pub fn new(system: &'a dyn System) -> Self {
        Checker::with_system(SystemRef::Borrowed(system))
    }

    /// The unified entry point: accepts anything [`Scenario`] covers —
    /// `&impl System`, a boxed system, a compiled DSL scenario, or DSL
    /// source (compiled here).
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when DSL source fails to compile; the message is
    /// the rendered diagnostic. Non-source scenarios cannot fail.
    pub fn scenario(scenario: impl Into<Scenario<'a>>) -> Result<Self, ScenarioError> {
        Ok(match scenario.into() {
            Scenario::System(s) => Checker::with_system(SystemRef::Borrowed(s)),
            Scenario::Boxed(s) => Checker::with_system(SystemRef::Owned(s)),
            Scenario::Source { src, origin } => {
                let compiled = tpa_dsl::compile_named(&src, &origin).map_err(ScenarioError)?;
                Checker::with_system(SystemRef::Owned(Box::new(compiled.system)))
            }
        })
    }

    fn with_system(system: SystemRef<'a>) -> Self {
        Checker {
            system,
            model: MemoryModel::Tso,
            invariants: standard_invariants(),
            max_steps: None,
            max_transitions: ExploreConfig::default().max_transitions,
            max_crashes: 0,
            deadline: None,
            threads: 1,
            seed: SwarmConfig::default().seed,
            features: Features::default(),
            fallback_schedules: FALLBACK_SCHEDULES,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: None,
            probe: None,
            metrics: None,
            ledger: None,
            scenario_id: None,
        }
    }

    /// Attaches a telemetry probe. The check emits a
    /// [`tpa_obs::RunInfo`] when it starts, periodic per-worker
    /// [`tpa_obs::WorkerSnapshot`]s while it runs (exhaustive mode), and
    /// a [`tpa_obs::RunSummary`] when it finishes. Probes never influence
    /// the search: verdict, witness and state counts are identical with
    /// or without one (pinned by the differential suite).
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attaches a [`Metrics`] registry. Each search worker counts its
    /// effort in its own [`crate::WorkerStats`] and writes what it
    /// gained into the registry when it sends a probe snapshot and when
    /// it retires, so the registry never influences the verdict,
    /// witness, or state counts — pinned by the metrics differential
    /// suite. Share one registry across runs to accumulate, or pass a
    /// fresh one per run.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Appends a [`tpa_obs::RunRecord`] for this run into the ledger
    /// directory at `dir` (created if missing) when the check finishes.
    /// When no registry was attached with [`Checker::metrics`], a fresh
    /// private one is created so the record still carries a metrics
    /// snapshot. Ledger I/O failures are reported on stderr and never
    /// fail the check.
    pub fn ledger(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ledger = Some(dir.into());
        self
    }

    /// Names this run's scenario in the ledger (a `.tpa` path, a
    /// `path#clause` pair, a lock name…). Runs with the same scenario id,
    /// model, mode and features are *comparable*: `tpa_runs diff` holds
    /// their verdicts and state counts against each other. Defaults to
    /// the system's name.
    pub fn scenario_id(mut self, id: impl Into<String>) -> Self {
        self.scenario_id = Some(id.into());
        self
    }

    /// The store-ordering model to check under.
    pub fn model(mut self, model: MemoryModel) -> Self {
        self.model = model;
        self
    }

    /// The schedule-length bound. Defaults to the mode's default (80
    /// exhaustive, 4096 swarm).
    pub fn max_steps(mut self, steps: usize) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// The global transition budget for exhaustive search.
    pub fn max_transitions(mut self, budget: u64) -> Self {
        self.max_transitions = budget;
        self
    }

    /// Enables the crash-fault model: the search may inject up to
    /// `crashes` process crashes per schedule. A crash atomically
    /// discards the victim's write buffer (its unflushed stores are lost)
    /// and either crash-stops the process or restarts it in its recovery
    /// section. The default 0 leaves every state space exactly as it was.
    pub fn max_crashes(mut self, crashes: u32) -> Self {
        self.max_crashes = crashes;
        self
    }

    /// Puts a wall-clock deadline on the search. An exhaustive search
    /// that hits it degrades gracefully: it stops expanding, runs a short
    /// swarm pass over what it could not cover, and — if still no
    /// violation — reports [`Verdict::Incomplete`] rather than a pass. A
    /// swarm run stops claiming schedules at the deadline and likewise
    /// reports [`Verdict::Incomplete`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Worker threads for the search (both modes). Any count produces the
    /// same verdict and witness, and with concrete keys the same
    /// unique-state count. With [`StateKeys::Canonical`] a passing
    /// search's count is stable only on one thread (see
    /// [`crate::EffortStats::unique_states`]). An exhaustive search on
    /// more than one thread decides the verdict without the cache's rank
    /// test and, only when it finds a violation, runs the sequential
    /// witness search after it; see [`crate::parallel`]. Use
    /// [`crate::parallel::default_threads`] for "all the machine has".
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the typed feature configuration: execution backend and
    /// state-key strategy. See [`Features`].
    pub fn features(mut self, features: Features) -> Self {
        self.features = features;
        self
    }

    /// The base seed for swarm schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The size of the deadline-degradation swarm fallback: how many
    /// biased random schedules to run over the uncovered space when an
    /// exhaustive search hits its wall-clock deadline. Defaults to 32;
    /// `0` disables the fallback entirely. The actual effort made is
    /// surfaced in [`Report::fallback_schedules`] and the ledger record.
    pub fn fallback_schedules(mut self, schedules: usize) -> Self {
        self.fallback_schedules = schedules;
        self
    }

    /// Directory where the exhaustive search persists checkpoints
    /// (created on first write). With a directory set, a checkpoint is
    /// written unconditionally whenever the search degrades — deadline,
    /// transition budget, worker panic — so [`Verdict::Incomplete`]
    /// carries a `checkpoint` path instead of throwing the explored
    /// states away. Combine with [`Checker::checkpoint_every`] for
    /// periodic snapshots too.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Additionally write a checkpoint every `n` node expansions (the
    /// engine quiesces its workers, snapshots, and continues). No effect
    /// unless [`Checker::checkpoint_dir`] is also set.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n.max(1));
        self
    }

    /// Continues a checkpointed exhaustive search instead of starting
    /// from the initial state. Loads and integrity-checks the file at
    /// `path`, then behaves as [`Checker::resume_from`].
    ///
    /// # Errors
    ///
    /// Everything [`Checkpoint::load`] and [`Checker::resume_from`] can
    /// reject: unreadable file, corruption (with offset diagnostics), or
    /// a checkpoint that does not belong to this search.
    pub fn resume(self, path: &Path) -> Result<Self, CheckpointError> {
        self.resume_from(Checkpoint::load(path)?)
    }

    /// Continues from an already-decoded [`Checkpoint`].
    ///
    /// The checkpoint's fingerprint *imposes* the identity-shaping
    /// configuration — memory model, step bound, crash budget, features —
    /// so the resumed search explores the same space; knobs that only
    /// decide when to stop (threads, deadline, transition budget, ledger,
    /// periodic checkpointing) stay the caller's choice, and the
    /// invariant battery must already be configured (it is part of the
    /// fingerprint). A checkpoint of the witness search
    /// ([`crate::SearchPhase::Witness`]) resumes on one thread whatever
    /// [`Checker::threads`] says; one of the verdict search resumes on
    /// the configured threads. Do not change the imposed knobs afterwards:
    /// [`Checker::exhaustive`] re-verifies the fingerprint and panics on
    /// a mismatch rather than run an unsound search.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incompatible`] naming the first mismatching
    /// fingerprint field — a different system or battery, or a stale
    /// checkpoint whose scenario has since been edited or recompiled —
    /// or the first frontier node or violation candidate whose stored
    /// position does not replay on this system.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Result<Self, CheckpointError> {
        let fp = &ckpt.fingerprint;
        self.model = fp.model;
        self.max_steps = Some(fp.max_steps as usize);
        self.max_crashes = fp.max_crashes;
        self.features = Features {
            execution: if fp.execution_compiled {
                Execution::Compiled
            } else {
                Execution::Native
            },
            keys: if fp.keys_canonical {
                StateKeys::Canonical
            } else {
                StateKeys::Concrete
            },
        };
        self.check_resumable(&ckpt)?;
        self.resume = Some(ckpt);
        Ok(self)
    }

    /// Refuses `ckpt` unless it belongs to this checker's exhaustive
    /// search: the fingerprint derived from scratch (compiling the VM and
    /// validating symmetry exactly as [`Checker::exhaustive`] will, minus
    /// the metrics side-effects) must match, and every stored position
    /// must replay on the system the search will run.
    fn check_resumable(&self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let native = self.system.get();
        let compiled = if self.features.execution == Execution::Compiled {
            native.compile_vm()
        } else {
            None
        };
        let system: &dyn System = match &compiled {
            Some(vm) => vm,
            None => native,
        };
        let symmetry_engaged = if self.features.keys == StateKeys::Canonical && system.symmetric() {
            let g = SymmetryGroup::for_spec(&system.vars(), system.n());
            !g.is_trivial() && validate_symmetry(system, self.model, self.max_crashes, &g)
        } else {
            false
        };
        let ours = self.build_fingerprint(
            native,
            system,
            compiled.as_ref(),
            symmetry_engaged,
            ckpt.fingerprint.max_steps as usize,
        );
        match ours
            .mismatch(&ckpt.fingerprint)
            .or_else(|| ckpt.replay_mismatch(system))
        {
            Some(msg) => Err(CheckpointError::Incompatible(msg)),
            None => Ok(()),
        }
    }

    /// Assembles the [`Fingerprint`] from already-derived parts (so the
    /// hot path reuses its compiled VM and validated group instead of
    /// re-deriving them).
    fn build_fingerprint(
        &self,
        native: &dyn System,
        system: &dyn System,
        compiled: Option<&tpa_tso::VmSystem>,
        symmetry_engaged: bool,
        max_steps: usize,
    ) -> Fingerprint {
        let mut init = Machine::with_model(system, self.model);
        init.set_crash_budget(self.max_crashes);
        // The code hash is taken from a VM compile even when the run
        // itself interprets natively: the initial-state hash cannot see
        // program text, so this is what catches a program edited since
        // the snapshot. Systems that don't compile keep hash 0 and rely
        // on the other fields.
        let hash_of = |vm: &tpa_tso::VmSystem| {
            let mut bytes = Vec::new();
            for p in 0..vm.n() {
                bytes.extend(vm.bytecode(ProcId(p as u32)).encode());
            }
            checkpoint::fnv1a(&bytes)
        };
        let code_hash = match compiled {
            Some(vm) => hash_of(vm),
            None => native.compile_vm().as_ref().map(hash_of).unwrap_or(0),
        };
        Fingerprint {
            system: native.name().to_string(),
            n: native.n() as u32,
            model: self.model,
            execution_compiled: self.features.execution == Execution::Compiled,
            keys_canonical: self.features.keys == StateKeys::Canonical,
            vm_engaged: compiled.is_some(),
            symmetry_engaged,
            max_steps: max_steps as u64,
            max_crashes: self.max_crashes,
            init_state_hash: init.state_hash(),
            code_hash,
            invariants: self
                .invariants
                .iter()
                .map(|i| i.name().to_owned())
                .collect(),
        }
    }

    /// Replaces the standard invariant battery.
    pub fn invariants(mut self, invariants: Vec<Box<dyn Invariant>>) -> Self {
        self.invariants = invariants;
        self
    }

    /// Adds one invariant to the battery.
    pub fn invariant(mut self, invariant: Box<dyn Invariant>) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Explores every schedule up to the bounds, in parallel if
    /// [`Checker::threads`] asked for it.
    ///
    /// # Panics
    ///
    /// When [`Checker::resume_from`] accepted a checkpoint but an
    /// identity-shaping knob (model, bounds, features, battery) was
    /// changed afterwards: resuming into a different search space would
    /// be unsound, so the fingerprint is re-verified here.
    pub fn exhaustive(mut self) -> Report {
        let resume_ckpt = self.resume.take();
        let resumed_from = resume_ckpt.as_ref().map(|c| c.id().to_owned());
        let config = ExploreConfig {
            max_steps: self.max_steps.unwrap_or(ExploreConfig::default().max_steps),
            max_transitions: self.max_transitions,
            max_crashes: self.max_crashes,
            deadline: self.deadline.map(|d| Instant::now() + d),
        };
        let native = self.system.get();
        let compiled = if self.features.execution == Execution::Compiled {
            native.compile_vm()
        } else {
            None
        };
        let system: &dyn System = match &compiled {
            Some(vm) => vm,
            None => native,
        };
        let registry = self.registry();
        let group = if self.features.keys == StateKeys::Canonical && system.symmetric() {
            let g = SymmetryGroup::for_spec(&system.vars(), system.n());
            let engaged = !g.is_trivial() && {
                if let Some(m) = &registry {
                    m.counter("sym.validations").incr();
                }
                validate_symmetry(system, self.model, self.max_crashes, &g)
            };
            if !engaged {
                if let Some(m) = &registry {
                    m.counter("sym.fallbacks").incr();
                }
            }
            engaged.then_some(g)
        } else {
            None
        };
        // The fingerprint pins the *derived* search identity — which
        // accelerators actually engaged, not just which were asked for —
        // so it must be assembled after VM compilation and symmetry
        // validation.
        let fingerprint = self.build_fingerprint(
            native,
            system,
            compiled.as_ref(),
            group.is_some(),
            config.max_steps,
        );
        let seed = resume_ckpt.map(|ckpt| {
            if let Some(msg) = fingerprint.mismatch(&ckpt.fingerprint) {
                panic!(
                    "checker reconfigured after resume_from(): {msg}; \
                     resuming into a different search space would be unsound"
                );
            }
            ResumeSeed {
                phase: ckpt.phase,
                counters: ckpt.counters,
                candidate: ckpt.candidate,
                frontier: ckpt.frontier,
                cache: ckpt.cache,
            }
        });
        let ckpt_dir = self.checkpoint_dir.clone();
        let emit_fp = fingerprint.clone();
        let emit = move |snap: SnapshotData| -> Option<(String, PathBuf)> {
            let dir = ckpt_dir.as_ref()?;
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("[checkpoint] cannot create {}: {e}", dir.display());
                return None;
            }
            let ckpt = Checkpoint {
                id: checkpoint::fresh_id(),
                fingerprint: emit_fp.clone(),
                phase: snap.phase,
                counters: snap.counters,
                candidate: snap.candidate,
                frontier: snap.frontier,
                cache: snap.cache,
            };
            let path = dir.join(format!("ckpt-{}.tpack", ckpt.id));
            match ckpt.save(&path) {
                Ok(()) => Some((ckpt.id, path)),
                Err(e) => {
                    eprintln!("[checkpoint] failed to write {}: {e}", path.display());
                    None
                }
            }
        };
        let hooks = self.checkpoint_dir.is_some().then_some(CheckpointHooks {
            every: self.checkpoint_every,
            emit: &emit,
        });
        if let Some(probe) = &self.probe {
            probe.run_start(&RunInfo {
                algo: system.name().to_string(),
                model: model_tag(self.model).to_string(),
                mode: "exhaustive",
                threads: self.threads as u32,
                max_steps: config.max_steps as u64,
                max_transitions: Some(config.max_transitions),
            });
        }
        let start = Instant::now();
        let outcome = run_exhaustive(
            system,
            self.model,
            &self.invariants,
            &config,
            self.threads,
            self.probe.as_deref(),
            group.as_ref(),
            registry.as_deref(),
            seed,
            hooks.as_ref(),
        );
        let mut found = outcome.found;
        let stats = outcome.stats;
        let workers = outcome.workers;
        let checkpoint_written = outcome.checkpoint;
        // Graceful degradation: an expired deadline costs completeness,
        // but a short swarm pass can still hunt for violations in the
        // space the exhaustive search never reached. A violation found
        // this way is a real violation; finding nothing leaves the
        // verdict incomplete either way.
        let mut fallback_note = String::new();
        let mut fallback_schedules = 0;
        if self.fallback_schedules > 0
            && found.is_none()
            && matches!(stats.incomplete, Some(IncompleteReason::DeadlineExpired))
        {
            let fallback = SwarmConfig {
                schedules: self.fallback_schedules,
                max_steps: config.max_steps,
                seed: self.seed,
                max_crashes: self.max_crashes,
            };
            let outcome = run_swarm(
                system,
                self.model,
                &self.invariants,
                &fallback,
                self.threads,
                None,
                None,
                registry.as_deref(),
            );
            fallback_note = format!(
                "; fallback swarm ran {} schedules ({} transitions) without finding a violation",
                outcome.stats.schedules_run, outcome.stats.transitions
            );
            fallback_schedules = outcome.stats.schedules_run;
            found = outcome.found;
        }
        let wall = start.elapsed();
        if let Some(probe) = &self.probe {
            probe.run_finish(&RunSummary {
                algo: system.name().to_string(),
                mode: "exhaustive",
                passed: found.is_none() && stats.complete,
                complete: stats.complete,
                transitions: stats.transitions,
                unique_states: Some(stats.unique_states as u64),
                wall_us: wall.as_micros() as u64,
            });
        }
        if let Some(m) = &registry {
            record_vm(m, compiled.as_ref(), stats.transitions);
        }
        let verdict = if found.is_none() {
            match &stats.incomplete {
                Some(reason) => Verdict::Incomplete {
                    reason: format!(
                        "{reason} after {} transitions / {} unique states{fallback_note}",
                        stats.transitions, stats.unique_states
                    ),
                    checkpoint: checkpoint_written.as_ref().map(|(_, p)| p.clone()),
                },
                None => Verdict::Pass,
            }
        } else {
            condemn(
                system,
                self.model,
                &self.invariants,
                found,
                registry.as_deref(),
            )
        };
        let report = Report {
            algo: system.name().to_string(),
            model: self.model,
            mode: "exhaustive",
            threads: self.threads,
            symmetry: group.is_some(),
            vm: compiled.is_some(),
            fallback_schedules,
            wall,
            verdict,
            stats,
            workers,
        };
        self.record_run(
            &report,
            registry.as_deref(),
            config.max_steps,
            None,
            checkpoint_written.as_ref().map(|(id, _)| id.as_str()),
            resumed_from.as_deref(),
        );
        report
    }

    /// Runs `schedules` seeded biased random schedules, fanned across
    /// [`Checker::threads`] workers. The reported violation is the one
    /// with the lowest schedule index, so the witness is deterministic in
    /// the seed at any thread count. A schedule that panics (a buggy
    /// invariant or program) is contained by a per-schedule firewall and
    /// surfaces as [`Verdict::Incomplete`], never a process abort.
    ///
    /// # Panics
    ///
    /// When a checkpoint was loaded with [`Checker::resume`] /
    /// [`Checker::resume_from`]: checkpoints capture exhaustive searches,
    /// and silently dropping one to run random schedules instead would
    /// misreport the resumed lineage.
    pub fn swarm(self, schedules: usize) -> Report {
        assert!(
            self.resume.is_none(),
            "resume_from: checkpoints capture exhaustive searches; \
             resuming into swarm mode is not supported"
        );
        let config = SwarmConfig {
            schedules,
            max_steps: self.max_steps.unwrap_or(SwarmConfig::default().max_steps),
            seed: self.seed,
            max_crashes: self.max_crashes,
        };
        let native = self.system.get();
        let compiled = if self.features.execution == Execution::Compiled {
            native.compile_vm()
        } else {
            None
        };
        let system: &dyn System = match &compiled {
            Some(vm) => vm,
            None => native,
        };
        let registry = self.registry();
        if let Some(probe) = &self.probe {
            probe.run_start(&RunInfo {
                algo: system.name().to_string(),
                model: model_tag(self.model).to_string(),
                mode: "swarm",
                threads: self.threads as u32,
                max_steps: config.max_steps as u64,
                max_transitions: None,
            });
        }
        let start = Instant::now();
        let outcome = run_swarm(
            system,
            self.model,
            &self.invariants,
            &config,
            self.threads,
            self.deadline.map(|d| Instant::now() + d),
            self.probe.as_deref(),
            registry.as_deref(),
        );
        let stats = outcome.stats;
        let wall = start.elapsed();
        if let Some(probe) = &self.probe {
            probe.run_finish(&RunSummary {
                algo: system.name().to_string(),
                mode: "swarm",
                passed: outcome.found.is_none() && stats.incomplete.is_none(),
                complete: false,
                transitions: stats.transitions,
                unique_states: None,
                wall_us: wall.as_micros() as u64,
            });
        }
        if let Some(m) = &registry {
            record_vm(m, compiled.as_ref(), stats.transitions);
        }
        let verdict = match (outcome.found, &stats.incomplete) {
            (Some(found), _) => condemn(
                system,
                self.model,
                &self.invariants,
                Some(found),
                registry.as_deref(),
            ),
            (None, Some(reason)) => Verdict::Incomplete {
                reason: format!(
                    "{reason} after {} of {} schedules ({} transitions)",
                    stats.schedules_run, schedules, stats.transitions
                ),
                checkpoint: None,
            },
            (None, None) => Verdict::Pass,
        };
        let report = Report {
            algo: system.name().to_string(),
            model: self.model,
            mode: "swarm",
            threads: self.threads,
            symmetry: false,
            vm: compiled.is_some(),
            fallback_schedules: 0,
            wall,
            verdict,
            stats,
            workers: outcome.workers,
        };
        self.record_run(
            &report,
            registry.as_deref(),
            config.max_steps,
            Some(schedules),
            None,
            None,
        );
        report
    }

    /// The effective registry for this run: the attached one, or a fresh
    /// private one when only a ledger was requested (so the record still
    /// carries a metrics snapshot), or none.
    fn registry(&self) -> Option<Arc<Metrics>> {
        match (&self.metrics, &self.ledger) {
            (Some(m), _) => Some(m.clone()),
            (None, Some(_)) => Some(Arc::new(Metrics::new())),
            (None, None) => None,
        }
    }

    /// Appends this run to the ledger, if one was requested. Never fails
    /// the check: I/O errors are reported on stderr.
    fn record_run(
        &self,
        report: &Report,
        registry: Option<&Metrics>,
        max_steps: usize,
        swarm_schedules: Option<usize>,
        checkpoint: Option<&str>,
        resumed_from: Option<&str>,
    ) {
        let Some(dir) = &self.ledger else { return };
        let (kind, detail) = match &report.verdict {
            Verdict::Pass => ("pass", String::new()),
            Verdict::Incomplete { reason, .. } => ("incomplete", reason.clone()),
            Verdict::Violation {
                invariant, detail, ..
            } => ("violation", format!("{invariant}: {detail}")),
        };
        let mut features = BTreeMap::new();
        let mut feat = |k: &str, v: String| {
            features.insert(k.to_owned(), v);
        };
        feat(
            "execution",
            match self.features.execution {
                Execution::Native => "native",
                Execution::Compiled => "compiled",
            }
            .to_owned(),
        );
        feat(
            "keys",
            match self.features.keys {
                StateKeys::Concrete => "concrete",
                StateKeys::Canonical => "canonical",
            }
            .to_owned(),
        );
        // The *engaged* accelerators too: for a fixed scenario they are a
        // deterministic function of the requested features, so they never
        // break comparability — but a drift in them (a system gaining or
        // losing its compiler or its symmetry) should read as "different
        // check", not as a state-count regression.
        feat("vm", report.vm.to_string());
        feat("symmetry", report.symmetry.to_string());
        feat("max_steps", max_steps.to_string());
        feat("max_crashes", self.max_crashes.to_string());
        if let Some(n) = swarm_schedules {
            feat("schedules", n.to_string());
            feat("seed", self.seed.to_string());
        }
        let mut stats = BTreeMap::new();
        stats.insert("transitions".to_owned(), report.stats.transitions);
        stats.insert("pruned_sleep".to_owned(), report.stats.pruned_sleep);
        stats.insert("cache_skips".to_owned(), report.stats.cache_skips);
        stats.insert(
            "unique_states".to_owned(),
            report.stats.unique_states as u64,
        );
        stats.insert(
            "schedules_run".to_owned(),
            report.stats.schedules_run as u64,
        );
        // In *stats*, not features: whether the deadline fallback fired
        // (and how hard) is wall-clock-nondeterministic, and the features
        // map gates run comparability.
        stats.insert(
            "fallback_schedules".to_owned(),
            report.fallback_schedules as u64,
        );
        if let Verdict::Violation {
            found_len, shrunk, ..
        } = &report.verdict
        {
            stats.insert("found_len".to_owned(), *found_len as u64);
            stats.insert("shrunk_len".to_owned(), shrunk.len() as u64);
        }
        let mut record = RunRecord {
            scenario: self
                .scenario_id
                .clone()
                .unwrap_or_else(|| report.algo.clone()),
            algo: report.algo.clone(),
            model: model_tag(report.model).to_owned(),
            mode: report.mode.to_owned(),
            verdict: kind.to_owned(),
            verdict_detail: detail,
            features,
            stats,
            complete: report.stats.complete,
            wall_us: report.wall.as_micros() as u64,
            env: EnvFingerprint::capture(report.threads as u64),
            metrics: registry.map(Metrics::snapshot).unwrap_or_default(),
            checkpoint: checkpoint.unwrap_or_default().to_owned(),
            resumed_from: resumed_from.unwrap_or_default().to_owned(),
            ..RunRecord::default()
        };
        if let Err(e) = Ledger::open(dir).and_then(|l| l.append(&mut record)) {
            eprintln!("[ledger] failed to record run in {}: {e}", dir.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Violation;
    use tpa_tso::scripted::{Instr, ScriptSystem};
    use tpa_tso::Machine;

    fn store_buffer() -> ScriptSystem {
        ScriptSystem::new(2, 2, |pid| {
            let me = pid.0;
            vec![
                Instr::Write { var: me, value: 1 },
                Instr::Read {
                    var: 1 - me,
                    reg: 0,
                },
                Instr::Halt,
            ]
        })
    }

    struct BothReadZero;
    impl Invariant for BothReadZero {
        fn name(&self) -> &'static str {
            "both-read-zero"
        }
        fn check(&self, m: &Machine) -> Option<Violation> {
            let halted =
                |p: u32| m.peek_next(tpa_tso::ProcId(p)) == tpa_tso::machine::NextEvent::Halted;
            let r = |p: u32| m.program(tpa_tso::ProcId(p)).and_then(|pr| pr.register(0));
            (halted(0) && halted(1) && r(0) == Some(0) && r(1) == Some(0)).then(|| Violation {
                invariant: "both-read-zero",
                detail: "store-buffer reordering observed".into(),
            })
        }
    }

    #[test]
    fn custom_invariants_flow_through_the_builder() {
        let sys = store_buffer();
        let report = Checker::new(&sys)
            .invariants(vec![Box::new(BothReadZero)])
            .exhaustive();
        let Verdict::Violation {
            invariant, found, ..
        } = &report.verdict
        else {
            panic!("TSO must exhibit r0 = r1 = 0");
        };
        assert_eq!(*invariant, "both-read-zero");
        assert!(found.len() >= 4);
    }

    use crate::verdict::Verdict;

    #[test]
    fn thread_count_does_not_change_the_witness() {
        let sys = store_buffer();
        let one = Checker::new(&sys)
            .invariants(vec![Box::new(BothReadZero)])
            .threads(1)
            .exhaustive();
        let four = Checker::new(&sys)
            .invariants(vec![Box::new(BothReadZero)])
            .threads(4)
            .exhaustive();
        let (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) =
            (&one.verdict, &four.verdict)
        else {
            panic!("both runs must find the reordering");
        };
        assert_eq!(a, b, "parallel witness differs from sequential");
        assert_eq!(four.threads, 4);
    }
}
