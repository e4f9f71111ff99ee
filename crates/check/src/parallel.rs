//! The work-distributing exploration engine.
//!
//! An exhaustive search is an explicit frontier of nodes (machine fork +
//! sleep set + position), expanded depth-first by each worker over a
//! private stack, with a shared queue for distributing subtrees across
//! `std::thread` workers. It runs in up to two phases
//! ([`SearchPhase`]):
//!
//! * the **verdict search** decides whether any violation exists. Its
//!   state cache tests sleep sets and depth only — the classic sound
//!   combination of sleep sets and state caching for safety properties
//!   (Godefroid, LNCS 1032) — so no worker re-expands a state just
//!   because another reached it first from a later subtree, and every
//!   worker stops at the first violation. A search on more than one
//!   thread starts here, and a passing search ends here;
//! * the **witness search** names the violating schedule to report. It
//!   is the sequential search: one worker, and a cache with the rank
//!   test, which lets a recorded visit suppress only revisits at
//!   lexicographically greater-or-equal ranks. Violations are not
//!   returned at first sight: each is **offered** to a best-candidate
//!   slot keyed by rank, and exploration continues, but any subtree whose
//!   rank is already ≥ the best candidate is pruned. When the frontier
//!   drains, the best candidate is the least witness the rank test
//!   admits. A one-thread search is a witness search from the start; a
//!   multi-thread search runs one only after its verdict search found a
//!   violation, from the root with a fresh cache and what is left of the
//!   transition budget and the deadline.
//!
//! So every thread count reports the same verdict and the same witness.
//! With concrete keys it also reports the same `unique_states`: a pass's
//! state count is the set of states within the step bound, whatever
//! order workers reach them in, and a violation's comes from the
//! sequential witness search. With canonical keys only one thread and
//! violations give a stable count: two states of one symmetry orbit can
//! have different canonical keys when a renaming's validity depends on
//! the state, so a multi-thread pass records whichever keys its workers
//! reach first.
//!
//! Every node carries its **rank** (the path of sibling indices from the
//! root, as a compact byte string); ranks order nodes exactly as a
//! sequential DFS visits them.
//!
//! Workers donate the bottom half of their private stack (their
//! lexicographically *latest* work) to the shared queue whenever it runs
//! empty, so load balance never depends on the initial subtree split.
//!
//! Nodes and candidates carry no schedule. A rank names its path
//! completely, so the engine rebuilds the directives by replaying the
//! rank from the initial state, only for the two places that need them:
//! the reported witness and a checkpoint's frontier.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use tpa_obs::{Metrics, Probe, WorkerSnapshot};
use tpa_tso::{Directive, Machine, MemoryModel, StateKey, SymmetryGroup, System};

use crate::cache::{Rank, StateCache};
use crate::checkpoint::{CandidateData, Counters, FrontierNode};
use crate::explore::{
    enabled_all, panic_message, replay, ExploreConfig, FoundViolation, IncompleteReason,
};
use crate::invariant::{Invariant, Violation};
use crate::sleep::SleepSet;
use crate::verdict::EffortStats;

/// How many node expansions a worker performs between reports (probe
/// snapshot and registry write). Chosen so telemetry stays far off the
/// hot path (a report is one virtual call and, for a recording probe,
/// one formatted line, plus one name lookup per registry metric).
const SNAPSHOT_EVERY: u64 = 512;

/// The number of worker threads used when a caller does not choose:
/// whatever parallelism the host advertises.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which of an exhaustive search's two searches is running; see the
/// [module docs](crate::parallel). A checkpoint records it, so a resumed
/// search continues in the phase it was interrupted in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchPhase {
    /// The search that decides the verdict: no rank test, and every
    /// worker stops at the first violation. A resumed verdict search
    /// runs at the resuming checker's thread count.
    Verdict,
    /// The sequential search that names the least witness, with the
    /// cache's rank test. A resumed witness search runs on one thread.
    Witness,
}

/// The frozen image of a mid-flight search, handed to the checkpoint
/// emitter: the phase, cumulative counters (resume base included), the
/// best violation candidate, the explicit frontier and the full state
/// cache.
pub(crate) struct SnapshotData {
    pub phase: SearchPhase,
    pub counters: Counters,
    pub candidate: Option<CandidateData>,
    pub frontier: Vec<FrontierNode>,
    pub cache: Vec<(u64, Vec<crate::checkpoint::CacheEntryData>)>,
}

/// Checkpoint emission policy for one search. The engine freezes itself
/// (workers quiesced, frontier explicit) and calls `emit`; whether and
/// where bytes land is the caller's business — the closure returns the
/// `(checkpoint id, path)` it wrote, if any.
pub(crate) struct CheckpointHooks<'a> {
    /// Emit a checkpoint every this many node expansions (`None`: only
    /// on abort).
    pub every: Option<u64>,
    /// Writes the snapshot; called only from the thread that called
    /// [`run_exhaustive`], never from workers.
    #[allow(clippy::type_complexity)]
    pub emit: &'a dyn Fn(SnapshotData) -> Option<(String, PathBuf)>,
}

/// A decoded checkpoint readied for [`run_exhaustive`]: the phase to
/// continue, base counters to fold into reported stats, the candidate
/// and frontier to seed, and the cache image to import.
pub(crate) struct ResumeSeed {
    pub phase: SearchPhase,
    pub counters: Counters,
    pub candidate: Option<CandidateData>,
    pub frontier: Vec<FrontierNode>,
    pub cache: Vec<(u64, Vec<crate::checkpoint::CacheEntryData>)>,
}

/// A run's cumulative counters: the resume `base` plus every worker's.
fn cumulative(base: &Counters, workers: &[WorkerStats]) -> Counters {
    let sum = total(workers);
    Counters {
        transitions: base.transitions + sum.transitions,
        pruned_sleep: base.pruned_sleep + sum.sleep_prunes,
        cache_skips: base.cache_skips + sum.cache_hits,
        truncated_paths: base.truncated_paths + sum.truncated_paths,
    }
}

/// What [`run_exhaustive`] hands back.
pub(crate) struct ExhaustiveOutcome {
    /// The lexicographically least violation, if any.
    pub found: Option<FoundViolation>,
    /// Aggregate search counters over both phases (resume base
    /// included); `unique_states` and completeness are the last phase's.
    pub stats: EffortStats,
    /// Per-worker counters, one entry per worker index, each counting
    /// across checkpoint legs and phases.
    pub workers: Vec<WorkerStats>,
    /// The last checkpoint the emitter reported writing, if any.
    pub checkpoint: Option<(String, PathBuf)>,
}

/// A frontier node: a state plus everything needed to expand it. Its
/// schedule from the root is [`Engine::schedule`] of its rank.
struct Node {
    machine: Machine,
    sleep: SleepSet,
    depth: u32,
    rank: Rank,
}

/// A violation candidate, ordered by the rank of the node that exhibited
/// it.
struct Candidate {
    rank: Rank,
    violation: Violation,
}

struct WorkQueue {
    queue: VecDeque<Node>,
    /// Workers currently holding work. When a worker finds the queue
    /// empty *and* nobody is active, the search is over.
    active: usize,
}

/// Per-worker search counters, cumulative over the run: a worker index
/// keeps counting across checkpoint legs and into the witness search.
///
/// These are the only place search effort is counted. Everything else
/// is derived from them: [`crate::Report::stats`] and the checkpoint
/// counters are their sum (plus a resume base), and the probe's
/// [`WorkerSnapshot`]s and the metrics registry are written from them at
/// each report point. The per-worker split is what
/// [`crate::Report::workers`] exposes — it shows load balance, cache
/// contention and pruning behaviour that a single sum hides.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WorkerStats {
    /// Worker index (0-based, dense; assignment order is nondeterministic
    /// but the set of indices is always `0..threads`).
    pub worker: u32,
    /// Frontier nodes this worker expanded.
    pub nodes_expanded: u64,
    /// Machine transitions this worker executed.
    pub transitions: u64,
    /// Child visits suppressed by the state cache.
    pub cache_hits: u64,
    /// Child states this worker inserted into the cache first.
    pub cache_misses: u64,
    /// Directives skipped because they slept.
    pub sleep_prunes: u64,
    /// Nodes donated to the shared queue for load balancing.
    pub donated: u64,
    /// Nodes this worker took from the shared queue (its own root claim
    /// plus work stolen from other workers' donations).
    pub steals: u64,
    /// High-water mark of the private frontier stack.
    pub max_frontier: u32,
    /// New child states this worker did not expand because they sit at
    /// the step bound.
    pub truncated_paths: u64,
    /// Depth of the deepest node this worker expanded.
    pub max_depth: u32,
    /// Cache entries this worker's visits evicted by subsumption.
    pub cache_subsumed: u64,
    /// Cache lookups whose canonical key renamed the state (symmetry
    /// reduction engaged); the other lookups were already canonical.
    pub sym_renamed: u64,
}

/// Which search a worker ran: decides the registry names its counters
/// are published under.
#[derive(Clone, Copy)]
pub(crate) enum Search {
    /// Exhaustive search, with or without canonical state keys.
    Exhaustive { symmetry: bool },
    /// Swarm search: `nodes_expanded` counts schedules.
    Swarm,
}

/// Where workers report their counters: the probe (a [`WorkerSnapshot`])
/// and the metrics registry, written together at the same points.
#[derive(Clone, Copy)]
pub(crate) struct Telemetry<'a> {
    pub probe: Option<&'a dyn Probe>,
    pub metrics: Option<&'a Metrics>,
    pub search: Search,
}

impl Telemetry<'_> {
    /// Reports `ws`: a periodic snapshot, or the final one when `done`.
    /// `published` holds the counters already written to the registry.
    pub fn report(
        &self,
        ws: &WorkerStats,
        published: &mut WorkerStats,
        frontier_depth: u32,
        done: bool,
    ) {
        if let Some(probe) = self.probe {
            probe.worker(&ws.snapshot(frontier_depth, done));
        }
        if let Some(metrics) = self.metrics {
            ws.publish(published, metrics, self.search);
        }
    }
}

/// The sum of `workers`' counters (high-water marks take the maximum).
pub(crate) fn total(workers: &[WorkerStats]) -> WorkerStats {
    let mut sum = WorkerStats::default();
    for w in workers {
        sum.add(w);
    }
    sum
}

impl WorkerStats {
    /// Adds `other`'s counters to these; high-water marks take the
    /// maximum.
    fn add(&mut self, other: &WorkerStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.transitions += other.transitions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.sleep_prunes += other.sleep_prunes;
        self.donated += other.donated;
        self.steals += other.steals;
        self.max_frontier = self.max_frontier.max(other.max_frontier);
        self.truncated_paths += other.truncated_paths;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.cache_subsumed += other.cache_subsumed;
        self.sym_renamed += other.sym_renamed;
    }

    /// Writes the counters gained since `published` into `metrics` and
    /// records them as published. The registry is written only here.
    fn publish(&self, published: &mut WorkerStats, metrics: &Metrics, search: Search) {
        let d = |field: fn(&WorkerStats) -> u64| field(self) - field(published);
        let (expanded, renamed) = (d(|w| w.nodes_expanded), d(|w| w.sym_renamed));
        let (nodes, schedules, identity) = match search {
            Search::Exhaustive { symmetry: false } => (expanded, 0, 0),
            // Every cache lookup canonicalised its key first, either
            // renaming the state or finding it already canonical.
            Search::Exhaustive { symmetry: true } => {
                (expanded, 0, d(|w| w.cache_hits + w.cache_misses) - renamed)
            }
            Search::Swarm => (0, expanded, 0),
        };
        for (name, n) in [
            ("search.transitions", d(|w| w.transitions)),
            ("search.nodes_expanded", nodes),
            ("search.cache_hits", d(|w| w.cache_hits)),
            ("search.cache_misses", d(|w| w.cache_misses)),
            ("cache.subsumed", d(|w| w.cache_subsumed)),
            ("search.sleep_prunes", d(|w| w.sleep_prunes)),
            ("search.steals", d(|w| w.steals)),
            ("search.donated", d(|w| w.donated)),
            ("sym.canonical_identity", identity),
            ("sym.canonical_renamed", renamed),
            ("swarm.schedules", schedules),
        ] {
            metrics.counter(name).add(n);
        }
        let hwm = |name, v: u32| metrics.gauge(name).max(v as u64);
        hwm("search.frontier_hwm", self.max_frontier);
        hwm("search.depth_hwm", self.max_depth);
        *published = *self;
    }

    fn snapshot(&self, frontier_depth: u32, done: bool) -> WorkerSnapshot {
        WorkerSnapshot {
            worker: self.worker,
            done,
            transitions: self.transitions,
            nodes_expanded: self.nodes_expanded,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            sleep_prunes: self.sleep_prunes,
            donated: self.donated,
            frontier_depth,
            max_frontier: self.max_frontier,
        }
    }
}

struct Engine<'a> {
    /// The system and model searched: [`Engine::schedule`] replays ranks
    /// against them.
    system: &'a dyn System,
    model: MemoryModel,
    invariants: &'a [Box<dyn Invariant>],
    /// This phase's bounds: a witness search that follows a verdict
    /// search gets what is left of the transition budget.
    config: &'a ExploreConfig,
    phase: SearchPhase,
    threads: usize,
    /// Ranked exactly in the witness phase.
    cache: StateCache,
    /// Transition claims across this phase — the budget clock. A
    /// refused claim is counted too, so this is not the number of
    /// transitions executed (that is the workers' sum) and is never
    /// reported.
    budget_clock: AtomicU64,
    /// Some abort condition hit (budget, deadline, worker panic): stop
    /// everything, report incomplete.
    aborted: AtomicBool,
    /// The first abort condition observed; later ones are ignored.
    abort_reason: Mutex<Option<IncompleteReason>>,
    /// Nodes expanded across this phase — the periodic-checkpoint clock
    /// (the trip point must be global). Never reported.
    checkpoint_clock: AtomicU64,
    /// The `checkpoint_clock` value whose expansion requests a pause
    /// (`u64::MAX`: periodic checkpoints disabled). Only rewritten
    /// between legs, while workers are joined.
    checkpoint_at: AtomicU64,
    /// Freeze request: workers wind down exactly as on abort, but the
    /// run loop snapshots the frontier and starts a new leg instead of
    /// returning.
    pause: AtomicBool,
    /// Whether winding-down workers must park their private frontiers in
    /// `suspended` (checkpointing on) rather than dropping them
    /// (checkpointing off — the pre-checkpoint behaviour).
    capture: bool,
    /// Frontier nodes parked by wound-down workers, collected by the run
    /// loop once the thread scope joins.
    suspended: Mutex<Vec<Node>>,
    /// Fast path for the best-candidate check (avoids the mutex while no
    /// violation has been found, i.e. almost always). In the verdict
    /// phase it is also the stop signal.
    found_any: AtomicBool,
    best: Mutex<Option<Candidate>>,
    work: Mutex<WorkQueue>,
    available: Condvar,
    /// Dense worker-index allocator (workers self-assign on start).
    next_worker: AtomicUsize,
    /// Each worker index's counters so far, one entry per index: a
    /// worker starts from its index's entry and writes it back when it
    /// retires. Seeded with the verdict phase's entries in a witness
    /// search that follows one.
    worker_stats: Mutex<Vec<WorkerStats>>,
    /// Where workers report their counters, periodically and on
    /// retirement.
    telemetry: Telemetry<'a>,
    /// When present, states are cached under their canonical (orbit-
    /// minimal) key and sleep sets are relabeled to match; ranks and the
    /// frontier stay concrete, so the reported witness is still the
    /// lexicographically least *un-renamed* schedule.
    symmetry: Option<&'a SymmetryGroup>,
}

/// The cache coordinates of a state: its canonical key plus, when the
/// canonicalising permutation is not the identity, the sleep set
/// relabeled into the same coordinates (a sleep set names directives,
/// and cache subsumption compares sleep sets of states stored under one
/// key — they must all speak the key's renaming).
fn cache_coords(
    machine: &Machine,
    sleep: &SleepSet,
    symmetry: Option<&SymmetryGroup>,
) -> (StateKey, Option<SleepSet>) {
    match symmetry {
        None => (machine.state_key(), None),
        Some(group) => {
            let (key, idx) = machine.canonical_state_key(group);
            if idx == 0 {
                (key, None)
            } else {
                let mut renamed = SleepSet::empty();
                for d in sleep.iter() {
                    renamed.insert(group.rename_directive(idx, d));
                }
                (key, Some(renamed))
            }
        }
    }
}

/// Explores every schedule of `system` up to `config.max_steps` steps
/// across `threads` workers, returning the lexicographically least
/// violation found (if any) and the search counters.
///
/// `threads == 1` runs the witness search alone, on the calling thread.
/// More threads run the verdict search and, only if it finds a
/// violation, the witness search after it (see the
/// [module docs](crate::parallel)). Any thread count yields the same
/// verdict and the same witness schedule, and with concrete keys the
/// same `unique_states` (with canonical keys, a pass's count is stable
/// only on one thread); `transitions` and the pruning counters may
/// differ, since workers race to states that then need no re-expansion.
///
/// `probe` (if any) receives periodic and final [`WorkerSnapshot`]s, and
/// `metrics` (if any) gets each worker's counters at the same points;
/// neither influences the search — the differential suites pin them on
/// and off to identical witnesses and state counts. The returned
/// [`WorkerStats`] are each worker's final counters, in worker order.
///
/// `resume` seeds the search from a decoded checkpoint instead of the
/// root, in the checkpoint's phase: the cache image is re-imported, the
/// candidate re-offered, and the frontier machines rebuilt by replaying
/// their ranks. A witness-phase checkpoint resumes on one thread.
/// `checkpoints` arms snapshotting: periodically every
/// `hooks.every` node expansions, and unconditionally when an abort
/// (deadline, budget, worker panic) fires. Both together make
/// interrupt-then-resume indistinguishable — verdict, witness and state
/// counts — from a run that was never interrupted; transition and
/// pruning counters may drift, exactly as they already do across thread
/// counts. Note the transition budget and deadline are *per leg*: a
/// resumed run brings fresh ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_exhaustive(
    system: &dyn System,
    model: MemoryModel,
    invariants: &[Box<dyn Invariant>],
    config: &ExploreConfig,
    threads: usize,
    probe: Option<&dyn Probe>,
    symmetry: Option<&SymmetryGroup>,
    metrics: Option<&Metrics>,
    resume: Option<ResumeSeed>,
    checkpoints: Option<&CheckpointHooks>,
) -> ExhaustiveOutcome {
    let threads = threads.max(1);
    let root = || {
        let mut root = Machine::with_model(system, model);
        root.set_crash_budget(config.max_crashes);
        root
    };
    // Base counters from the checkpointed leg(s); folded into reported
    // stats but *not* into the budget clock, so `max_transitions` keeps
    // budgeting each leg rather than instantly re-aborting a resume.
    let (phase, base, start) = match resume {
        Some(seed) => (seed.phase, seed.counters.clone(), Start::Resume(seed)),
        None => {
            // The initial state itself may violate (e.g. an empty program
            // that is terminal but not quiescent). A resumed search
            // already passed these root checks in its first leg.
            let root = root();
            let found = invariants.iter().find_map(|inv| inv.check(&root));
            if found.is_some() || config.max_steps == 0 {
                return ExhaustiveOutcome {
                    found: found.map(|violation| FoundViolation {
                        violation,
                        schedule: Vec::new(),
                    }),
                    stats: EffortStats {
                        unique_states: 1,
                        complete: true,
                        ..EffortStats::default()
                    },
                    workers: Vec::new(),
                    checkpoint: None,
                };
            }
            let phase = if threads == 1 {
                SearchPhase::Witness
            } else {
                SearchPhase::Verdict
            };
            (phase, Counters::default(), Start::Root(root))
        }
    };

    let telemetry = Telemetry {
        probe,
        metrics,
        search: Search::Exhaustive {
            symmetry: symmetry.is_some(),
        },
    };
    let engine = |phase, config, threads, workers| Engine {
        system,
        model,
        invariants,
        config,
        phase,
        threads,
        cache: StateCache::new(
            if threads == 1 { 1 } else { threads * 8 },
            phase == SearchPhase::Witness,
        ),
        budget_clock: AtomicU64::new(0),
        aborted: AtomicBool::new(false),
        abort_reason: Mutex::new(None),
        checkpoint_clock: AtomicU64::new(0),
        checkpoint_at: AtomicU64::new(
            checkpoints
                .and_then(|h| h.every)
                .filter(|&e| e > 0)
                .unwrap_or(u64::MAX),
        ),
        pause: AtomicBool::new(false),
        capture: checkpoints.is_some(),
        suspended: Mutex::new(Vec::new()),
        found_any: AtomicBool::new(false),
        best: Mutex::new(None),
        work: Mutex::new(WorkQueue {
            queue: VecDeque::new(),
            active: threads,
        }),
        available: Condvar::new(),
        next_worker: AtomicUsize::new(0),
        worker_stats: Mutex::new(workers),
        telemetry,
        symmetry,
    };

    if phase == SearchPhase::Witness {
        return engine(phase, config, 1, Vec::new())
            .run(start, &base, checkpoints)
            .outcome(&base);
    }
    let mut verdict = engine(phase, config, threads, Vec::new()).run(start, &base, checkpoints);
    let Some(violation) = verdict.found.take() else {
        return verdict.outcome(&base);
    };
    // The verdict search stopped at the first violation it saw, which
    // need not be the least. Name the witness the way one thread does.
    let spent = total(&verdict.workers).transitions;
    let rest = ExploreConfig {
        max_transitions: config.max_transitions.saturating_sub(spent),
        ..config.clone()
    };
    let mut witness = engine(SearchPhase::Witness, &rest, 1, verdict.workers).run(
        Start::Root(root()),
        &base,
        checkpoints,
    );
    // An interrupted witness search never reports a pass: holding no
    // candidate, it reports the verdict search's violation unless it
    // wrote a checkpoint to resume from.
    if witness.found.is_none() && !(witness.incomplete.is_some() && witness.checkpoint.is_some()) {
        witness.found = Some(violation);
    }
    witness.checkpoint = witness.checkpoint.or(verdict.checkpoint);
    witness.outcome(&base)
}

/// Where a phase starts: the initial state, or a decoded checkpoint.
enum Start {
    Root(Machine),
    Resume(ResumeSeed),
}

/// What one phase's engine leaves behind.
struct PhaseEnd {
    /// The best candidate, with its schedule; `None` when there was none
    /// or it was provisional (a checkpoint holds a subtree that may still
    /// beat it).
    found: Option<FoundViolation>,
    unique_states: usize,
    complete: bool,
    incomplete: Option<IncompleteReason>,
    /// Every worker's counters over the run so far, in worker order.
    workers: Vec<WorkerStats>,
    /// The last checkpoint this phase wrote.
    checkpoint: Option<(String, PathBuf)>,
}

impl PhaseEnd {
    /// The run's outcome when this is its last phase.
    fn outcome(self, base: &Counters) -> ExhaustiveOutcome {
        let counters = cumulative(base, &self.workers);
        ExhaustiveOutcome {
            found: self.found,
            stats: EffortStats {
                transitions: counters.transitions,
                pruned_sleep: counters.pruned_sleep,
                cache_skips: counters.cache_skips,
                unique_states: self.unique_states,
                complete: self.complete,
                incomplete: self.incomplete,
                ..EffortStats::default()
            },
            workers: self.workers,
            checkpoint: self.checkpoint,
        }
    }
}

impl Engine<'_> {
    /// Runs this phase from `start` until its frontier drains, an abort
    /// fires, or (verdict phase) a violation is found. `base` is the
    /// resume base, folded into checkpoint counters.
    fn run(self, start: Start, base: &Counters, checkpoints: Option<&CheckpointHooks>) -> PhaseEnd {
        match start {
            Start::Root(root) => {
                let root_rank = Rank::from_indices(&[]);
                let (root_key, _) = cache_coords(&root, &SleepSet::empty(), self.symmetry);
                self.cache
                    .try_visit(root_key, &SleepSet::empty(), 0, &root_rank);
                self.work
                    .lock()
                    .expect("work queue poisoned")
                    .queue
                    .push_back(Node {
                        machine: root,
                        sleep: SleepSet::empty(),
                        depth: 0,
                        rank: root_rank,
                    });
            }
            Start::Resume(seed) => self.seed_resume(seed),
        }

        // The run loop: each iteration is one "leg" — spawn workers, let
        // them run until the frontier drains, an abort fires, or a
        // periodic pause trips, then join. With workers joined the search
        // is trivially quiescent: the frontier is exactly `suspended` +
        // the shared queue, which is what makes the snapshot sound
        // without any in-band synchronisation barrier.
        let threads = self.threads;
        let mut emitted: Option<(String, PathBuf)> = None;
        let mut provisional = false;
        loop {
            if threads == 1 {
                self.worker_caught();
            } else {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| self.worker_caught());
                    }
                });
            }
            if self.phase == SearchPhase::Verdict && self.found_any.load(Ordering::Acquire) {
                break; // a violation exists: the witness search takes over
            }
            let paused = self.pause.load(Ordering::Relaxed);
            let aborted = self.aborted.load(Ordering::Relaxed);
            if !paused && !aborted {
                break; // frontier drained: the search is complete
            }
            let Some(hooks) = checkpoints else {
                break; // aborted, checkpointing off: report incomplete as ever
            };
            let mut nodes = {
                let mut suspended = self
                    .suspended
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                std::mem::take(&mut *suspended)
            };
            {
                let mut st = self.work.lock().expect("work queue poisoned");
                nodes.extend(st.queue.drain(..));
            }
            let written = (hooks.emit)(self.snapshot(base, &nodes));
            // A witness search aborted holding a candidate while its
            // frontier still holds a lexicographically smaller subtree
            // has not yet found the least witness: the candidate stays in
            // the checkpoint for the resumed search to settle, and this
            // leg reports incomplete.
            provisional =
                aborted && written.is_some() && nodes.iter().any(|n| self.still_viable(&n.rank));
            emitted = written.or(emitted);
            if aborted {
                break;
            }
            // Periodic pause: thaw and run the next leg on the same engine.
            {
                let mut st = self.work.lock().expect("work queue poisoned");
                st.queue.extend(nodes);
                st.active = threads;
            }
            self.next_worker.store(0, Ordering::Relaxed);
            let expanded = self.checkpoint_clock.load(Ordering::Relaxed);
            self.checkpoint_at.store(
                expanded.saturating_add(hooks.every.unwrap_or(u64::MAX)),
                Ordering::Relaxed,
            );
            self.pause.store(false, Ordering::Relaxed);
        }

        let found = self
            .best
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .filter(|_| !provisional)
            .map(|c| FoundViolation {
                schedule: self.schedule(&c.rank),
                violation: c.violation,
            });
        let incomplete = self
            .abort_reason
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A panicked worker may have poisoned this while dying; the
        // surviving workers' data inside is still sound, so recover it
        // rather than cascading the panic into the caller.
        let mut workers = self
            .worker_stats
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        workers.sort_by_key(|w| w.worker);
        PhaseEnd {
            found,
            unique_states: self.cache.unique_states(),
            complete: !self.aborted.load(Ordering::Relaxed) && incomplete.is_none(),
            incomplete,
            workers,
            checkpoint: emitted,
        }
    }

    /// Seeds the engine from a decoded checkpoint: re-imports the cache
    /// image, re-offers the violation candidate, and rebuilds each
    /// frontier machine by replaying its rank from the initial state
    /// (checkpoints store positions, not machine guts — the machine's own
    /// `step` is the deserialiser, so a checkpoint can never smuggle in a
    /// state the system cannot actually reach).
    ///
    /// Panics if the checkpoint disagrees with the system (a rank fails
    /// to replay, or the candidate names an unknown invariant);
    /// [`crate::Checker::resume_from`] replays every rank and resolves
    /// the candidate first, so reaching either panic means the caller
    /// bypassed it.
    fn seed_resume(&self, seed: ResumeSeed) {
        for (key, entries) in &seed.cache {
            for e in entries {
                let mut sleep = SleepSet::empty();
                for &d in &e.sleep {
                    sleep.insert(d);
                }
                // Imports are always accepted (live entries are pairwise
                // non-subsuming), and crucially the key is recorded even
                // if one were not — `unique_states` survives the round
                // trip exactly.
                self.cache.try_visit(
                    StateKey(*key),
                    &sleep,
                    e.depth,
                    &Rank::from_indices(&e.rank),
                );
            }
        }
        if let Some(c) = &seed.candidate {
            let invariant = self
                .invariants
                .iter()
                .map(|i| i.name())
                .find(|n| *n == c.invariant)
                .unwrap_or_else(|| {
                    panic!(
                        "resume: checkpoint candidate names invariant {:?}, \
                         which is not in this run's battery",
                        c.invariant
                    )
                });
            self.offer(Candidate {
                rank: Rank::from_indices(&c.rank),
                violation: Violation {
                    invariant,
                    detail: c.detail.clone(),
                },
            });
        }
        let mut st = self.work.lock().expect("work queue poisoned");
        for node in &seed.frontier {
            let (machine, _) = replay(
                self.system,
                self.model,
                self.config.max_crashes,
                node.rank.iter().copied(),
            )
            .expect("resume_from replayed every frontier rank");
            let mut sleep = SleepSet::empty();
            for &d in &node.sleep {
                sleep.insert(d);
            }
            st.queue.push_back(Node {
                machine,
                sleep,
                depth: node.rank.len() as u32,
                rank: Rank::from_indices(&node.rank),
            });
        }
    }

    /// The schedule from the root to the node at `rank`, rebuilt by
    /// replaying the rank from the initial state.
    fn schedule(&self, rank: &Rank) -> Vec<Directive> {
        replay(
            self.system,
            self.model,
            self.config.max_crashes,
            rank.indices(),
        )
        .expect("a rank the search reached replays")
        .1
    }

    /// The frozen search as checkpoint data. Callable only while workers
    /// are joined (`nodes` is the drained frontier); `base` is the resume
    /// base folded into the cumulative counters.
    fn snapshot(&self, base: &Counters, nodes: &[Node]) -> SnapshotData {
        let mut frontier: Vec<FrontierNode> = nodes
            .iter()
            .map(|n| FrontierNode {
                rank: n.rank.indices().collect(),
                sleep: n.sleep.iter().collect(),
                path: self.schedule(&n.rank),
            })
            .collect();
        // Sort by rank so checkpoint bytes do not depend on which worker
        // parked which subtree.
        frontier.sort_by(|a, b| a.rank.cmp(&b.rank));
        let candidate = self
            .best
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
            .map(|c| CandidateData {
                rank: c.rank.indices().collect(),
                invariant: c.violation.invariant.to_owned(),
                detail: c.violation.detail.clone(),
                schedule: self.schedule(&c.rank),
            });
        let workers = self
            .worker_stats
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        SnapshotData {
            phase: self.phase,
            counters: cumulative(base, &workers),
            candidate,
            frontier,
            cache: self.cache.export(),
        }
    }

    /// Records the first abort condition and wakes everyone so the search
    /// can wind down. Later reasons are ignored: the first one is what the
    /// verdict reports.
    fn abort(&self, reason: IncompleteReason) {
        let mut slot = self
            .abort_reason
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        slot.get_or_insert(reason);
        drop(slot);
        self.aborted.store(true, Ordering::Relaxed);
        self.wake_all();
    }

    /// Wakes every worker blocked in [`Engine::take`] after a stop flag
    /// was raised. Taking the queue lock first means no worker is between
    /// its check of the flags and its wait, so no wake-up is lost.
    fn wake_all(&self) {
        drop(
            self.work
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        self.available.notify_all();
    }

    /// Whether workers must wind down: an abort, a pause request, or —
    /// in the verdict phase — a violation found.
    fn halted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
            || self.pause.load(Ordering::Relaxed)
            || (self.phase == SearchPhase::Verdict && self.found_any.load(Ordering::Acquire))
    }

    /// Runs a worker with a panic firewall. A panic — from a buggy
    /// invariant, a program's `apply`, or the engine itself — kills only
    /// this worker's subtree: the search aborts as *incomplete* (never a
    /// false pass) and the surviving workers' results are kept.
    ///
    /// The private frontier lives out here, beyond the unwind boundary,
    /// so that when checkpointing is on a panicked worker's unexpanded
    /// work — its stack *and* the node it was expanding — is parked in
    /// `suspended` rather than lost. That is what makes even a
    /// panic-triggered checkpoint resumable without a false pass: every
    /// state the dying worker had marked visited-but-unexpanded is still
    /// on the frontier. The worker's counters live out here too, so a
    /// panicked worker still retires them: its effort stays in the
    /// report, the final snapshot and the registry.
    fn worker_caught(&self) {
        let index = self.next_worker.fetch_add(1, Ordering::Relaxed) as u32;
        // Continue the index's counters from earlier legs and phases:
        // they are already published, and snapshots never go backwards.
        let mut ws = self
            .worker_stats
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|w| w.worker == index)
            .copied()
            .unwrap_or(WorkerStats {
                worker: index,
                ..WorkerStats::default()
            });
        let mut published = ws;
        let mut local: Vec<Node> = Vec::new();
        let mut in_flight: Option<Node> = None;
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.worker(&mut ws, &mut published, &mut local, &mut in_flight)
        })) {
            self.abort(IncompleteReason::WorkerPanic {
                message: panic_message(payload.as_ref()),
            });
        }
        if self.capture && (in_flight.is_some() || !local.is_empty()) {
            let mut suspended = self
                .suspended
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            suspended.extend(in_flight.take());
            suspended.append(&mut local);
        }
        self.telemetry.report(&ws, &mut published, 0, true);
        let mut workers = self
            .worker_stats
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match workers.iter_mut().find(|w| w.worker == index) {
            Some(slot) => *slot = ws,
            None => workers.push(ws),
        }
    }

    fn worker(
        &self,
        ws: &mut WorkerStats,
        published: &mut WorkerStats,
        local: &mut Vec<Node>,
        in_flight: &mut Option<Node>,
    ) {
        loop {
            if self.halted() {
                if self.capture {
                    break; // keep `local`: worker_caught parks it
                }
                local.clear();
            }
            let node = match local.pop() {
                Some(n) => n,
                None => match self.take() {
                    Some(n) => {
                        ws.steals += 1;
                        n
                    }
                    None => break,
                },
            };
            *in_flight = Some(node);
            let expanded = ws.nodes_expanded;
            let keep = self.expand(in_flight.as_ref().expect("just parked"), local, ws);
            let node = in_flight.take().expect("just parked");
            if keep {
                // Interrupted mid-expansion: the node goes back on the
                // frontier. Re-expansion is sound and cheap — children it
                // already visited sit in the cache at their own ranks and
                // suppress themselves.
                local.push(node);
            }
            ws.max_frontier = ws.max_frontier.max(local.len() as u32);
            if ws.nodes_expanded != expanded && ws.nodes_expanded.is_multiple_of(SNAPSHOT_EVERY) {
                self.telemetry
                    .report(ws, published, local.len() as u32, false);
            }
            self.donate(local, ws);
        }
    }

    /// Blocks until shared work arrives or the search is over.
    fn take(&self) -> Option<Node> {
        let mut st = self.work.lock().expect("work queue poisoned");
        st.active -= 1;
        loop {
            if self.halted() {
                self.available.notify_all();
                return None;
            }
            if let Some(n) = st.queue.pop_front() {
                st.active += 1;
                return Some(n);
            }
            if st.active == 0 {
                self.available.notify_all();
                return None;
            }
            st = self
                .available
                .wait(st)
                .expect("work queue poisoned while waiting");
        }
    }

    /// Moves the bottom half of the private stack — the subtrees this
    /// worker would reach last — onto the shared queue if it ran dry.
    fn donate(&self, local: &mut Vec<Node>, ws: &mut WorkerStats) {
        if self.threads == 1 || local.len() < 2 {
            return;
        }
        let mut st = self.work.lock().expect("work queue poisoned");
        if st.queue.is_empty() {
            let give = local.len() / 2;
            st.queue.extend(local.drain(..give));
            drop(st);
            ws.donated += give as u64;
            self.available.notify_all();
        }
    }

    /// Whether `rank` can still beat the best violation found so far.
    /// Subtrees that cannot are abandoned — this is how a found violation
    /// cooperatively cancels the rest of the search without giving up
    /// witness determinism. In the verdict phase any violation ends the
    /// search, so nothing is viable after one.
    fn still_viable(&self, rank: &Rank) -> bool {
        if !self.found_any.load(Ordering::Acquire) {
            return true;
        }
        if self.phase == SearchPhase::Verdict {
            return false;
        }
        match &*self.best.lock().expect("best-candidate slot poisoned") {
            Some(c) => *rank < c.rank,
            None => true,
        }
    }

    fn offer(&self, cand: Candidate) {
        let mut best = self.best.lock().expect("best-candidate slot poisoned");
        match &*best {
            Some(c) if c.rank <= cand.rank => {}
            _ => *best = Some(cand),
        }
        drop(best);
        self.found_any.store(true, Ordering::Release);
        if self.phase == SearchPhase::Verdict {
            self.wake_all();
        }
    }

    /// Expands `node`, pushing its unexplored children onto `local` (in
    /// reverse sibling order, so the lexicographically least pops
    /// first). Returns `true` when the expansion was interrupted — by a
    /// pause request, the deadline, or the transition budget — and the
    /// node must therefore stay on the frontier; `false` when the node
    /// is spent (fully expanded, pruned as non-viable, or retired by
    /// offering a violation candidate that later siblings cannot beat).
    fn expand(&self, node: &Node, local: &mut Vec<Node>, ws: &mut WorkerStats) -> bool {
        if !self.still_viable(&node.rank) {
            return false;
        }
        if self.halted() {
            return true; // frozen before any work on this node
        }
        if let Some(deadline) = self.config.deadline {
            if std::time::Instant::now() >= deadline {
                self.abort(IncompleteReason::DeadlineExpired);
                return true;
            }
        }
        let expanded = self.checkpoint_clock.fetch_add(1, Ordering::Relaxed) + 1;
        if expanded == self.checkpoint_at.load(Ordering::Relaxed) {
            // This expansion crossed the periodic-checkpoint line.
            // `fetch_add` hands out each value exactly once and the
            // threshold only moves between legs, so exactly one worker
            // requests the pause.
            self.pause.store(true, Ordering::Relaxed);
            self.wake_all();
        }
        ws.nodes_expanded += 1;
        ws.max_depth = ws.max_depth.max(node.depth);
        let mut done = SleepSet::empty();
        // Children are appended to `local` as they are visited (not
        // batched) so an interrupt — including a panic unwinding through
        // this frame — can never lose a child that is already marked
        // visited in the cache; that pairing is what keeps resumed
        // searches sound.
        let start = local.len();
        for (i, d) in enabled_all(&node.machine).into_iter().enumerate() {
            if node.sleep.contains(d) {
                ws.sleep_prunes += 1;
                continue;
            }
            if self.budget_clock.fetch_add(1, Ordering::Relaxed) >= self.config.max_transitions {
                self.abort(IncompleteReason::BudgetExhausted);
                local[start..].reverse();
                return true;
            }
            ws.transitions += 1;
            let mut child = node.machine.fork_for_search();
            child
                .step(d)
                .unwrap_or_else(|e| panic!("explorer: enabled directive {d:?} failed: {e:?}"));

            let child_rank = node.rank.child(i as u32);
            if let Some(violation) = self.invariants.iter().find_map(|inv| inv.check(&child)) {
                self.offer(Candidate {
                    rank: child_rank,
                    violation,
                });
                // Later siblings and their subtrees all have greater
                // ranks — none can improve on this candidate.
                break;
            }

            // `d`'s siblings-already-done and inherited sleepers stay
            // asleep in the child exactly if they commute with `d`
            // (independence evaluated in the *parent* state, as usual for
            // sleep sets).
            let mut child_sleep = SleepSet::empty();
            for other in node.sleep.iter().chain(done.iter()) {
                if node.machine.independent(d, other) {
                    child_sleep.insert(other);
                }
            }
            done.insert(d);

            let child_depth = node.depth + 1;
            let (child_key, renamed_sleep) = cache_coords(&child, &child_sleep, self.symmetry);
            // `cache_coords` returns a renamed sleep set exactly when
            // canonicalisation applied a non-identity permutation.
            ws.sym_renamed += renamed_sleep.is_some() as u64;
            let cache_sleep = renamed_sleep.as_ref().unwrap_or(&child_sleep);
            let Some(evicted) =
                self.cache
                    .try_visit(child_key, cache_sleep, child_depth, &child_rank)
            else {
                ws.cache_hits += 1;
                continue;
            };
            ws.cache_misses += 1;
            ws.cache_subsumed += evicted;
            if child_depth as usize >= self.config.max_steps {
                ws.truncated_paths += 1;
                continue;
            }
            local.push(Node {
                machine: child,
                sleep: child_sleep,
                depth: child_depth,
                rank: child_rank,
            });
        }
        // Reverse this node's children so the lexicographically least is
        // popped (and thus expanded) first — workers chase the same
        // frontier order a sequential DFS would.
        local[start..].reverse();
        false
    }
}
