//! The operational TSO machine.
//!
//! A [`Machine`] instantiates a [`System`] and executes scheduling
//! [`Directive`]s, one event per step, exactly as in the paper's model
//! (Section 2): the scheduling adversary picks a process and decides
//! whether it executes its next program event or commits the oldest write
//! in its write buffer. Fences are split into `BeginFence`/`EndFence`
//! events with the buffer drained in between; a process that is executing
//! a fence is in *write mode* and can only commit.
//!
//! A full machine ([`Machine::new`], [`Machine::with_model`],
//! [`Machine::fork`]) simultaneously maintains all the bookkeeping the
//! lower bound is stated in: RMR counters for DSM / CC-write-through /
//! CC-write-back, critical events, awareness sets, per-variable
//! `writer(v, E)` and `Accessed(v, E)`, and per-passage statistics. A
//! [`Machine::fork_for_search`] copy (or the same copy written into a
//! machine the caller is done with, by [`Machine::fork_for_search_into`])
//! carries only what the schedule explorer reads — the state
//! [`Machine::state_hash`] covers, the last event, and the crash
//! counters — and its accounting accessors
//! ([`Machine::metrics`], [`Machine::accessed`], [`Machine::awareness`],
//! [`Machine::fences_completed`], [`Machine::criticals`]) panic.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use crate::awareness::AwSet;
use crate::buffer::WriteBuffer;
use crate::cache::CacheDir;
use crate::event::{Event, EventKind, ReadSource, SpecialKind};
use crate::fxhash::FxHasher;
use crate::ids::{ProcId, Value, VarId};
use crate::metrics::{Counters, Metrics, SpanKind};
use crate::op::{Op, Outcome};
use crate::perm::{Permutation, SymmetryGroup};
use crate::program::{Program, System};
use crate::vars::{PidEncoding, VarSpec, VarTable};
use crate::vm::VmProgram;

/// The store-ordering discipline the machine enforces.
///
/// The paper's model (and all of its results) is [`MemoryModel::Tso`]:
/// writes commit in issue order. [`MemoryModel::Pso`] is the weaker
/// partial-store-ordering model its Section 6 discusses (older SPARC):
/// writes to *different* variables may commit in any order, so the
/// adversary gains the [`Directive::CommitVar`] move. Attiya, Hendler and
/// Woelfel (PODC 2015) prove TSO and PSO are separated: the constant-fence
/// algorithms this repository studies are TSO-correct but need extra
/// fences under PSO — see the `pso` integration tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MemoryModel {
    /// Total store ordering (the paper's model): FIFO commits.
    #[default]
    Tso,
    /// Partial store ordering: per-variable order only.
    Pso,
}

/// One scheduling decision of the adversary.
///
/// The `Ord` impl is an arbitrary but stable total order (variant, then
/// process, then variable) used by the explorer's sorted sleep sets; it
/// carries no scheduling meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Directive {
    /// Let the process execute its next event. If the process is executing
    /// a fence, this commits the oldest buffered write (or executes
    /// `EndFence` when the buffer is empty).
    Issue(ProcId),
    /// Commit the oldest write in the process' write buffer.
    Commit(ProcId),
    /// Commit the pending write to a specific variable — only legal under
    /// [`MemoryModel::Pso`] unless it happens to be the oldest write.
    CommitVar(ProcId, VarId),
    /// Crash the process: its write buffer is atomically discarded (under
    /// PSO this covers every per-variable pending write — the buffer is
    /// shared), its program resets to its recovery section (or
    /// crash-stops if [`Program::recover`] declines), and its section
    /// returns to ncs. Enumerated by the explorer only while the
    /// machine's crash budget ([`Machine::set_crash_budget`]) is
    /// positive; executing the directive directly (replay, shrinking) is
    /// always legal. Kept the *last* variant so the sleep sets' stable
    /// `Ord` over the pre-existing directives is unchanged.
    Crash(ProcId),
}

impl Directive {
    /// The process this directive schedules.
    pub fn pid(self) -> ProcId {
        match self {
            Directive::Issue(p)
            | Directive::Commit(p)
            | Directive::CommitVar(p, _)
            | Directive::Crash(p) => p,
        }
    }
}

/// Crash-recovery status of a process (the Chan–Woelfel recoverable
/// model: a crash wipes local state — registers, buffered writes — while
/// committed shared memory persists).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CrashState {
    /// Executing normally.
    #[default]
    Running,
    /// Crashed with a recovery section: the next issue executes
    /// [`EventKind::Recover`] and resumes at the recovery section.
    Down,
    /// Crashed with no recovery section: never schedulable again.
    Stopped,
}

/// Whether a process is between fences (`Read`) or executing one (`Write`).
///
/// This is `mode(p, E)` from the paper: in write mode the only shared-memory
/// events performed on the process' behalf are write commits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Between fences: writes are delayed, reads execute.
    Read,
    /// Executing a fence: draining the write buffer.
    Write,
}

/// Mutual-exclusion section of a process (`section_p` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Non-critical section.
    Ncs,
    /// Entry section (trying to reach the critical section). Object
    /// programs are in this section while an operation is in progress.
    Entry,
    /// Exit section (critical section was executed; passage not complete).
    Exit,
}

/// Errors returned by [`Machine::step`] and the run helpers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepError {
    /// The scheduled process has halted (its program returned [`Op::Halt`]).
    Halted(ProcId),
    /// A `Commit` directive was issued for a process with an empty buffer.
    EmptyBuffer(ProcId),
    /// A transition operation was attempted from the wrong section.
    BadTransition {
        /// Offending process.
        pid: ProcId,
        /// The transition it attempted.
        op: Op,
        /// The section it was in.
        section: Section,
    },
    /// A `CommitVar` directive would reorder writes under TSO, or names a
    /// variable with no pending write.
    BadCommit {
        /// Offending process.
        pid: ProcId,
        /// The variable named by the directive.
        var: VarId,
    },
    /// [`Machine::run_until_special`] exceeded its step budget, indicating
    /// a livelock (a violation of weak obstruction-freedom in context).
    NonTermination {
        /// Offending process.
        pid: ProcId,
        /// Budget that was exhausted.
        steps: usize,
    },
    /// An in-place erasure violated Lemma 1's invisibility precondition.
    InvalidErasure(String),
    /// No process supplied to a helper that needs one.
    NothingToSchedule,
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Halted(p) => write!(f, "process {p} has halted"),
            StepError::EmptyBuffer(p) => write!(f, "commit scheduled for {p} with empty buffer"),
            StepError::BadCommit { pid, var } => {
                write!(
                    f,
                    "{pid} cannot commit {var}: not pending, or reordering under TSO"
                )
            }
            StepError::BadTransition { pid, op, section } => {
                write!(f, "{pid} attempted {op:?} while in section {section:?}")
            }
            StepError::NonTermination { pid, steps } => {
                write!(
                    f,
                    "{pid} ran {steps} steps without reaching a special event"
                )
            }
            StepError::InvalidErasure(why) => write!(f, "invalid in-place erasure: {why}"),
            StepError::NothingToSchedule => write!(f, "no process to schedule"),
        }
    }
}

impl std::error::Error for StepError {}

/// Description of the event a process would execute if issued now, used by
/// the adversary to steer the construction without executing anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NextEvent {
    /// The program has halted.
    Halted,
    /// In a fence (or stalled CAS) with a non-empty buffer: the next event
    /// commits the oldest buffered write.
    CommitNext {
        /// Variable the pending write targets.
        var: VarId,
        /// Whether the commit would be critical.
        critical: bool,
    },
    /// In a fence with an empty buffer: the next event is `EndFence`.
    EndFence,
    /// A read.
    Read {
        /// Variable to read.
        var: VarId,
        /// Whether it would be served from the process' own buffer.
        from_buffer: bool,
        /// Whether it would be a critical read.
        critical: bool,
    },
    /// A write issue (always non-special).
    IssueWrite {
        /// Variable to write.
        var: VarId,
    },
    /// The next event is `BeginFence`.
    BeginFence,
    /// The next event executes a CAS (buffer already empty).
    Cas {
        /// Variable operated on.
        var: VarId,
        /// Whether it would be critical.
        critical: bool,
    },
    /// A transition (`Enter`/`Cs`/`Exit`) or object marker.
    Transition(Op),
    /// Crashed with a recovery section: the next event is
    /// [`EventKind::Recover`].
    Recover,
}

impl NextEvent {
    /// Whether the next event would be special (Definition 3), and how.
    pub fn special_kind(&self) -> Option<SpecialKind> {
        match self {
            NextEvent::Halted => None,
            NextEvent::CommitNext { critical, .. } => critical.then_some(SpecialKind::Critical),
            NextEvent::EndFence | NextEvent::BeginFence => Some(SpecialKind::Fence),
            NextEvent::Read { critical, .. } => critical.then_some(SpecialKind::Critical),
            NextEvent::IssueWrite { .. } => None,
            NextEvent::Cas { .. } => Some(SpecialKind::Fence),
            NextEvent::Transition(_) | NextEvent::Recover => Some(SpecialKind::Transition),
        }
    }
}

/// The program half of a process entry. Native programs live behind the
/// usual trait object; compiled [`VmProgram`]s (see
/// [`System::vm_program`]) are stored *inline*, so their peek/apply/hash
/// calls are monomorphic. Both kinds fork in place into a recycled
/// entry of the same kind (`clone_from`).
enum ProcProgram {
    /// A hand-written program behind a trait object.
    Native(Box<dyn Program>),
    /// A compiled bytecode program, stored inline.
    Vm(VmProgram),
}

impl ProcProgram {
    #[inline]
    fn peek(&self) -> Op {
        match self {
            ProcProgram::Native(p) => p.peek(),
            ProcProgram::Vm(v) => v.peek_op(),
        }
    }

    #[inline]
    fn apply(&mut self, outcome: Outcome) {
        match self {
            ProcProgram::Native(p) => p.apply(outcome),
            ProcProgram::Vm(v) => v.apply_outcome(outcome),
        }
    }

    #[inline]
    fn recover(&mut self) -> bool {
        match self {
            ProcProgram::Native(p) => p.recover(),
            ProcProgram::Vm(v) => v.do_recover(),
        }
    }

    #[inline]
    fn state_hash(&self, h: &mut FxHasher) {
        match self {
            ProcProgram::Native(p) => p.state_hash(h),
            ProcProgram::Vm(v) => v.hash_state(h),
        }
    }

    #[inline]
    fn state_hash_permuted(&self, perm: &Permutation, h: &mut FxHasher) -> bool {
        match self {
            ProcProgram::Native(p) => p.state_hash_permuted(perm, h),
            ProcProgram::Vm(v) => v.hash_state_permuted(perm, h),
        }
    }

    fn as_dyn(&self) -> &dyn Program {
        match self {
            ProcProgram::Native(p) => &**p,
            ProcProgram::Vm(v) => v,
        }
    }
}

impl Clone for ProcProgram {
    fn clone(&self) -> Self {
        match self {
            ProcProgram::Native(p) => ProcProgram::Native(p.fork()),
            ProcProgram::Vm(v) => ProcProgram::Vm(v.clone()),
        }
    }

    /// Forks `src` into `self`'s box or register file when both hold the
    /// same kind of program ([`crate::ForkProgram::fork_into`]).
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (ProcProgram::Native(dst), ProcProgram::Native(p)) => p.fork_into(dst),
            (ProcProgram::Vm(dst), ProcProgram::Vm(v)) => dst.clone_from(v),
            (dst, src) => *dst = src.clone(),
        }
    }
}

struct ProcEntry {
    program: ProcProgram,
    buffer: WriteBuffer,
    in_fence: bool,
    section: Section,
    /// `AW(p, E)`; frozen on a search fork, which does not propagate it.
    aw: AwSet,
    /// Variables this process has remotely read (for critical-read
    /// detection). Kept sorted: membership is a binary search, the state
    /// hash consumes it without re-sorting, and forks clone a flat vector
    /// instead of rebuilding a hash table.
    remote_reads: Vec<VarId>,
    passages_completed: usize,
    /// Crash-recovery status (the fault model; [`CrashState::Running`]
    /// unless a [`Directive::Crash`] hit this process).
    crash: CrashState,
    /// Tombstone set by [`Machine::erase_in_place`]: the process' events
    /// were removed from the execution and it may not be scheduled again.
    erased: bool,
}

impl Clone for ProcEntry {
    fn clone(&self) -> Self {
        ProcEntry {
            program: self.program.clone(),
            buffer: self.buffer.clone(),
            in_fence: self.in_fence,
            section: self.section,
            aw: self.aw.clone(),
            remote_reads: self.remote_reads.clone(),
            passages_completed: self.passages_completed,
            crash: self.crash,
            erased: self.erased,
        }
    }

    /// Copies in place, reusing `self`'s program box, buffer and
    /// remote-read list.
    fn clone_from(&mut self, src: &Self) {
        self.program.clone_from(&src.program);
        self.buffer.clone_from(&src.buffer);
        self.in_fence = src.in_fence;
        self.section = src.section;
        self.aw.clone_from(&src.aw);
        self.remote_reads.clone_from(&src.remote_reads);
        self.passages_completed = src.passages_completed;
        self.crash = src.crash;
        self.erased = src.erased;
    }
}

fn remote_reads_contains(reads: &[VarId], v: VarId) -> bool {
    reads.binary_search(&v).is_ok()
}

fn remote_reads_insert(reads: &mut Vec<VarId>, v: VarId) {
    if let Err(i) = reads.binary_search(&v) {
        reads.insert(i, v);
    }
}

/// How many renamed remote reads [`Machine::canonical_state_key`] sorts on
/// the stack; a process with more spills to the heap.
const REMOTE_READS_INLINE: usize = 32;

/// The 64-bit behavioural-state fingerprint of a [`Machine`], as
/// maintained incrementally by [`Machine::step`] (see
/// [`Machine::state_hash`] for exactly what it covers). A dedicated type
/// rather than a bare `u64` so cache keys cannot be confused with other
/// integers; hash it with [`crate::fxhash::FxBuildHasher`] to avoid
/// re-SipHashing an already-uniform key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StateKey(pub u64);

/// The lower bound's measurement data, which no search reads: the CC
/// coherence directories, `Accessed(v, E)`, and the per-process event,
/// RMR, critical-event, fence and per-passage counters. Full machines
/// keep it; [`Machine::fork_for_search`] copies have none.
#[derive(Clone)]
struct Accounting {
    cache: CacheDir,
    accessed: Vec<HashSet<ProcId>>,
    metrics: Metrics,
}

impl Accounting {
    fn new(n: usize, vars: usize) -> Self {
        Accounting {
            cache: CacheDir::new(vars),
            accessed: vec![HashSet::new(); vars],
            metrics: Metrics::new(n),
        }
    }

    /// Counts one event of `p` and returns `p`'s running totals.
    fn event(&mut self, p: ProcId) -> &mut Counters {
        let totals = self.metrics.proc_mut(p);
        totals.events += 1;
        totals
    }

    /// Counts an event of `p` that accesses `v` in memory: a read, or a
    /// `write` (a commit, or a CAS — even a failed one takes the line
    /// exclusively, like the LOCK prefix). Charges its DSM RMR when `v`
    /// is `remote`, its CC RMRs per the directories, and `critical`.
    fn access(
        &mut self,
        p: ProcId,
        v: VarId,
        write: bool,
        remote: bool,
        critical: bool,
    ) -> &mut Counters {
        let cc = if write {
            self.cache.write(p, v)
        } else {
            self.cache.read(p, v)
        };
        self.accessed[v.index()].insert(p);
        let totals = self.event(p);
        totals.rmr_dsm += remote as u64;
        totals.rmr_wt += cc.wt_rmr as u64;
        totals.rmr_wb += cc.wb_rmr as u64;
        totals.critical += critical as u64;
        totals
    }

    /// Forgets the processes in `erased`: their accesses, cached copies
    /// and counters.
    fn erase(&mut self, erased: &BTreeSet<ProcId>) {
        for set in &mut self.accessed {
            set.retain(|p| !erased.contains(p));
        }
        self.cache.purge(erased);
        for &p in erased {
            self.metrics.reset_proc(p);
        }
    }
}

/// What an accounting accessor says when asked on a search fork.
const NO_ACCOUNTING: &str = "a Machine::fork_for_search copy keeps no metrics, \
     Accessed(v, E) sets or awareness; ask a full machine (new, with_model or fork)";

/// The TSO machine: system state plus the recorded execution.
///
/// `Debug` prints a summary (model, process count, log length, active and
/// finished sets) rather than the full state — programs are opaque trait
/// objects.
pub struct Machine {
    model: MemoryModel,
    spec: Arc<VarSpec>,
    vars: VarTable,
    procs: Vec<ProcEntry>,
    /// The executed events. A search fork keeps only the last one.
    log: Vec<Event>,
    /// The executed directives. A search fork records none.
    schedule: Vec<Directive>,
    /// `None` exactly on a [`Machine::fork_for_search`] copy, which also
    /// skips awareness propagation and commit histories: no search reads
    /// them, and in-place erasure (which rewinds through the histories)
    /// refuses such a copy.
    accounting: Option<Accounting>,
    /// Per-variable and per-process components of the rolling state hash;
    /// `hash` is the xor of all components plus a model constant. `step`
    /// refreshes exactly the components it touches — see
    /// [`Machine::state_hash`] for the maintenance contract.
    var_hash: Vec<u64>,
    proc_hash: Vec<u64>,
    hash: u64,
    /// Remaining crash budget: how many more [`Directive::Crash`] moves
    /// the explorer may *enumerate*. Part of the state hash (it changes
    /// the enabled-directive sets), decremented by each crash. Executing
    /// a crash directive directly never requires budget, so replays and
    /// shrinking work on fresh zero-budget machines.
    crash_budget: u32,
    /// Crashes executed so far (replay or search), for invariants that
    /// only fire on crash-bearing executions. Not hashed: in any search
    /// it is determined by the budget spent.
    crashes_executed: u32,
    /// Buffered stores discarded by crashes so far. Hashed (via the
    /// global component): invariants read it, so two states may only
    /// share a cache entry if they agree on it. In zero-budget runs it is
    /// constantly 0 and existing state spaces are unchanged.
    writes_lost: u32,
    /// Telemetry sink ([`Machine::attach_probe`]). `None` — the default —
    /// costs one branch per step. Deliberately *excluded* from
    /// [`Machine::state_hash`] and from behavioural equality: a probe
    /// observes the execution, it is not part of it (pinned by the
    /// differential suite in `tpa-check`).
    probe: Option<Arc<dyn tpa_obs::Probe>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("model", &self.model)
            .field("n", &self.procs.len())
            .field("events", &self.log.len())
            .field("act", &self.act())
            .field("fin", &self.fin())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Instantiates a TSO machine for the given system: fresh programs,
    /// empty buffers, all variables at their initial values.
    pub fn new<S: System + ?Sized>(system: &S) -> Self {
        Self::with_model(system, MemoryModel::Tso)
    }

    /// Instantiates a machine with an explicit store-ordering model.
    pub fn with_model<S: System + ?Sized>(system: &S, model: MemoryModel) -> Self {
        let n = system.n();
        let mut machine = Machine::blank(model, Arc::new(system.vars()));
        machine.vars = VarTable::new(&machine.spec);
        machine.accounting = Some(Accounting::new(n, machine.spec.count()));
        machine.procs = (0..n)
            .map(|i| {
                let pid = ProcId(i as u32);
                let program = match system.vm_program(pid) {
                    Some(vm) => ProcProgram::Vm(vm),
                    None => ProcProgram::Native(system.program(pid)),
                };
                ProcEntry {
                    program,
                    buffer: WriteBuffer::new(),
                    in_fence: false,
                    section: Section::Ncs,
                    aw: AwSet::singleton(pid),
                    remote_reads: Vec::new(),
                    passages_completed: 0,
                    crash: CrashState::Running,
                    erased: false,
                }
            })
            .collect();
        machine.rebuild_state_hash();
        machine
    }

    /// A machine with no variables, processes, history or accounting:
    /// the shell that [`Machine::with_model`] fills in and that
    /// [`Machine::fork_for_search`] forks into.
    fn blank(model: MemoryModel, spec: Arc<VarSpec>) -> Self {
        Machine {
            model,
            spec,
            vars: VarTable::default(),
            procs: Vec::new(),
            log: Vec::new(),
            schedule: Vec::new(),
            accounting: None,
            var_hash: Vec::new(),
            proc_hash: Vec::new(),
            hash: 0,
            crash_budget: 0,
            crashes_executed: 0,
            writes_lost: 0,
            probe: None,
        }
    }

    /// Attaches a telemetry probe: every subsequent [`Machine::step`]
    /// emits a [`tpa_obs::SimStep`] into it. [`Machine::fork`] keeps the
    /// attachment (shared `Arc`); [`Machine::fork_for_search`] drops it —
    /// search forks are throwaway exploration copies and the checker
    /// reports aggregate worker counters instead of per-step events.
    pub fn attach_probe(&mut self, probe: Arc<dyn tpa_obs::Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches the telemetry probe, if any, returning it.
    pub fn detach_probe(&mut self) -> Option<Arc<dyn tpa_obs::Probe>> {
        self.probe.take()
    }

    /// The attached telemetry probe, if any.
    pub fn probe(&self) -> Option<&Arc<dyn tpa_obs::Probe>> {
        self.probe.as_ref()
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// The store-ordering model this machine enforces.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Variables with pending (uncommitted) writes in `p`'s buffer, in
    /// issue order — the commit choices a PSO adversary has.
    pub fn pending_vars(&self, p: ProcId) -> Vec<VarId> {
        self.procs[p.index()].buffer.iter().map(|w| w.var).collect()
    }

    /// The executed event log (the execution `E`). On a
    /// [`Machine::fork_for_search`] copy, only the last event.
    pub fn log(&self) -> &[Event] {
        &self.log
    }

    /// The directives executed so far (the schedule that produced the
    /// log). Empty on a [`Machine::fork_for_search`] copy.
    pub fn schedule(&self) -> &[Directive] {
        &self.schedule
    }

    fn accounting(&self) -> &Accounting {
        self.accounting.as_ref().expect(NO_ACCOUNTING)
    }

    /// The complexity metrics accumulated so far.
    ///
    /// # Panics
    ///
    /// On a [`Machine::fork_for_search`] copy, which keeps no metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.accounting().metrics
    }

    /// The variable layout.
    pub fn spec(&self) -> &VarSpec {
        &self.spec
    }

    /// `mode(p, E)`: write mode iff `p` is executing a fence.
    pub fn mode(&self, p: ProcId) -> Mode {
        if self.procs[p.index()].in_fence {
            Mode::Write
        } else {
            Mode::Read
        }
    }

    /// `status(p, E)`: which section `p` is in.
    pub fn section(&self, p: ProcId) -> Section {
        self.procs[p.index()].section
    }

    /// `Act(E)`: processes that started a passage and are yet to complete
    /// it, in increasing ID order.
    pub fn act(&self) -> Vec<ProcId> {
        (0..self.n())
            .map(|i| ProcId(i as u32))
            .filter(|p| self.procs[p.index()].section != Section::Ncs)
            .collect()
    }

    /// `Fin(E)`: processes that completed at least one passage.
    pub fn fin(&self) -> Vec<ProcId> {
        (0..self.n())
            .map(|i| ProcId(i as u32))
            .filter(|p| self.procs[p.index()].passages_completed > 0)
            .collect()
    }

    /// Number of passages `p` has completed.
    pub fn passages_completed(&self, p: ProcId) -> usize {
        self.procs[p.index()].passages_completed
    }

    /// `writer(v, E)`: the last process to commit a write to `v`.
    pub fn writer(&self, v: VarId) -> Option<ProcId> {
        self.vars.get(v).writer
    }

    /// The current committed value of `v`.
    pub fn value(&self, v: VarId) -> Value {
        self.vars.get(v).value
    }

    /// `owner(v)`: the process `v` is local to, if any.
    pub fn owner(&self, v: VarId) -> Option<ProcId> {
        self.spec.owner(v)
    }

    /// `AW(p, E)`: the awareness set of `p`.
    ///
    /// # Panics
    ///
    /// On a [`Machine::fork_for_search`] copy, which does not propagate
    /// awareness.
    pub fn awareness(&self, p: ProcId) -> &AwSet {
        assert!(self.accounting.is_some(), "{NO_ACCOUNTING}");
        &self.procs[p.index()].aw
    }

    /// `Accessed(v, E)`: processes that accessed `v`.
    ///
    /// # Panics
    ///
    /// On a [`Machine::fork_for_search`] copy, which keeps no access sets.
    pub fn accessed(&self, v: VarId) -> &HashSet<ProcId> {
        &self.accounting().accessed[v.index()]
    }

    /// Read-only view of `p`'s program (for litmus-test assertions).
    pub fn program(&self, p: ProcId) -> Option<&dyn Program> {
        self.procs.get(p.index()).map(|e| e.program.as_dyn())
    }

    /// Whether `p`'s write buffer is empty.
    pub fn buffer_empty(&self, p: ProcId) -> bool {
        self.procs[p.index()].buffer.is_empty()
    }

    /// Number of pending writes in `p`'s buffer.
    pub fn buffer_len(&self, p: ProcId) -> usize {
        self.procs[p.index()].buffer.len()
    }

    /// Whether `v` is remote with respect to `p`.
    pub fn is_remote(&self, p: ProcId, v: VarId) -> bool {
        self.spec.owner(v) != Some(p)
    }

    /// Whether `p` has already performed a remote read of `v`.
    pub fn has_remote_read(&self, p: ProcId, v: VarId) -> bool {
        remote_reads_contains(&self.procs[p.index()].remote_reads, v)
    }

    /// Describes the event `Issue(p)` would execute, without executing it.
    pub fn peek_next(&self, p: ProcId) -> NextEvent {
        let entry = &self.procs[p.index()];
        if entry.erased {
            return NextEvent::Halted;
        }
        match entry.crash {
            CrashState::Stopped => return NextEvent::Halted,
            CrashState::Down => return NextEvent::Recover,
            CrashState::Running => {}
        }
        if entry.in_fence {
            return match entry.buffer.peek_oldest() {
                Some(w) => NextEvent::CommitNext {
                    var: w.var,
                    critical: self.commit_would_be_critical(p, w.var),
                },
                None => NextEvent::EndFence,
            };
        }
        match entry.program.peek() {
            Op::Halt => NextEvent::Halted,
            Op::Read(v) => {
                if entry.buffer.contains(v) {
                    NextEvent::Read {
                        var: v,
                        from_buffer: true,
                        critical: false,
                    }
                } else {
                    let critical =
                        self.is_remote(p, v) && !remote_reads_contains(&entry.remote_reads, v);
                    NextEvent::Read {
                        var: v,
                        from_buffer: false,
                        critical,
                    }
                }
            }
            Op::Write(v, _) => NextEvent::IssueWrite { var: v },
            Op::Fence => NextEvent::BeginFence,
            Op::Cas { var, .. } => {
                if let Some(w) = entry.buffer.peek_oldest() {
                    // CAS stalls until the buffer drains; the next event
                    // commits the oldest write.
                    NextEvent::CommitNext {
                        var: w.var,
                        critical: self.commit_would_be_critical(p, w.var),
                    }
                } else {
                    NextEvent::Cas {
                        var,
                        critical: self.cas_would_be_critical(p, var),
                    }
                }
            }
            op @ (Op::Enter | Op::Cs | Op::Exit | Op::Invoke { .. } | Op::Return(_)) => {
                NextEvent::Transition(op)
            }
        }
    }

    fn commit_would_be_critical(&self, p: ProcId, v: VarId) -> bool {
        self.is_remote(p, v) && self.vars.get(v).writer != Some(p)
    }

    fn cas_would_be_critical(&self, p: ProcId, v: VarId) -> bool {
        self.is_remote(p, v)
            && (!remote_reads_contains(&self.procs[p.index()].remote_reads, v)
                || self.vars.get(v).writer != Some(p))
    }

    /// Executes one scheduling directive and returns the resulting event.
    ///
    /// # Errors
    ///
    /// * [`StepError::Halted`] if the process' program has halted;
    /// * [`StepError::EmptyBuffer`] for a `Commit` with nothing to commit;
    /// * [`StepError::BadTransition`] if the program attempts a transition
    ///   from the wrong section (an algorithm bug).
    pub fn step(&mut self, d: Directive) -> Result<Event, StepError> {
        if self.procs[d.pid().index()].erased {
            return Err(StepError::Halted(d.pid()));
        }
        let event = match d {
            Directive::Commit(p) => self.do_commit(p)?,
            Directive::CommitVar(p, v) => self.do_commit_var(p, v)?,
            Directive::Issue(p) => self.do_issue(p)?,
            Directive::Crash(p) => self.do_crash(p)?,
        };
        // A search fork records no schedule and keeps only the last event.
        if self.accounting.is_some() {
            self.schedule.push(d);
        } else {
            self.log.clear();
        }
        self.log.push(event);
        // Every mutation a directive makes to hashed per-process state
        // (program counter, buffer, fence flag, section, passage count,
        // remote reads) belongs to the scheduled process; committed
        // variables were refreshed inside `apply_commit`/`do_cas`.
        self.refresh_proc_hash(d.pid());
        if let Some(probe) = &self.probe {
            let depth = self.procs[d.pid().index()].buffer.len() as u32;
            probe.sim_step(&event.probe_step(depth));
        }
        Ok(event)
    }

    /// The next event's position in the execution. Read off the last
    /// event rather than the log's length, which a search fork truncates.
    fn next_seq(&self) -> usize {
        self.log.last().map_or(0, |e| e.seq + 1)
    }

    /// `p`'s running totals after counting one more event, or `None` on
    /// a search fork.
    fn count_event(&mut self, p: ProcId) -> Option<&mut Counters> {
        self.accounting.as_mut().map(|a| a.event(p))
    }

    /// Definition 1: reading `v` makes `p` aware of its last writer and of
    /// everything that writer was aware of when it issued the write.
    /// Search forks skip it, since nothing they answer reads awareness.
    fn learn_from_read(&mut self, p: ProcId, v: VarId) {
        if self.accounting.is_none() {
            return;
        }
        let state = self.vars.get(v);
        if let Some(q) = state.writer {
            let aw = &mut self.procs[p.index()].aw;
            aw.insert(q);
            aw.union_with(&state.writer_aw);
        }
    }

    fn do_commit(&mut self, p: ProcId) -> Result<Event, StepError> {
        let entry = &mut self.procs[p.index()];
        let w = entry.buffer.pop_oldest().ok_or(StepError::EmptyBuffer(p))?;
        self.apply_commit(p, w)
    }

    fn do_commit_var(&mut self, p: ProcId, v: VarId) -> Result<Event, StepError> {
        let entry = &mut self.procs[p.index()];
        if self.model == MemoryModel::Tso && entry.buffer.peek_oldest().map(|w| w.var) != Some(v) {
            // TSO forbids reordering commits; only the oldest may go.
            return Err(StepError::BadCommit { pid: p, var: v });
        }
        let w = entry
            .buffer
            .pop_var(v)
            .ok_or(StepError::BadCommit { pid: p, var: v })?;
        self.apply_commit(p, w)
    }

    fn apply_commit(
        &mut self,
        p: ProcId,
        w: crate::buffer::PendingWrite,
    ) -> Result<Event, StepError> {
        let critical = self.commit_would_be_critical(p, w.var);
        let remote = self.is_remote(p, w.var);
        let record = self.accounting.is_some();
        self.vars.commit(w.var, w.value, p, w.aw_snapshot, record);
        self.refresh_var_hash(w.var);
        if let Some(acc) = &mut self.accounting {
            acc.access(p, w.var, true, remote, critical);
        }

        Ok(Event {
            seq: self.next_seq(),
            pid: p,
            kind: EventKind::CommitWrite {
                var: w.var,
                value: w.value,
            },
            critical,
        })
    }

    fn do_issue(&mut self, p: ProcId) -> Result<Event, StepError> {
        match self.procs[p.index()].crash {
            CrashState::Stopped => return Err(StepError::Halted(p)),
            CrashState::Down => {
                // The recovery event: the process resumes at the recovery
                // section its program jumped to when it crashed.
                self.procs[p.index()].crash = CrashState::Running;
                self.count_event(p);
                return Ok(Event {
                    seq: self.next_seq(),
                    pid: p,
                    kind: EventKind::Recover,
                    critical: false,
                });
            }
            CrashState::Running => {}
        }
        if self.procs[p.index()].in_fence {
            if !self.procs[p.index()].buffer.is_empty() {
                return self.do_commit(p);
            }
            // EndFence.
            let entry = &mut self.procs[p.index()];
            entry.in_fence = false;
            entry.program.apply(Outcome::FenceDone);
            if let Some(totals) = self.count_event(p) {
                totals.fences += 1;
            }
            return Ok(Event {
                seq: self.next_seq(),
                pid: p,
                kind: EventKind::EndFence,
                critical: false,
            });
        }

        let op = self.procs[p.index()].program.peek();
        match op {
            Op::Halt => Err(StepError::Halted(p)),
            Op::Read(v) => Ok(self.do_read(p, v)),
            Op::Write(v, value) => {
                let entry = &mut self.procs[p.index()];
                let snapshot = entry.aw.snapshot();
                entry.buffer.issue(v, value, snapshot);
                entry.program.apply(Outcome::WriteIssued);
                self.count_event(p);
                Ok(Event {
                    seq: self.next_seq(),
                    pid: p,
                    kind: EventKind::IssueWrite { var: v, value },
                    critical: false,
                })
            }
            Op::Fence => {
                self.procs[p.index()].in_fence = true;
                // The program is not advanced until EndFence.
                self.count_event(p);
                Ok(Event {
                    seq: self.next_seq(),
                    pid: p,
                    kind: EventKind::BeginFence,
                    critical: false,
                })
            }
            Op::Cas { var, expected, new } => {
                if !self.procs[p.index()].buffer.is_empty() {
                    // CAS drains the buffer first (fence semantics).
                    return self.do_commit(p);
                }
                Ok(self.do_cas(p, var, expected, new))
            }
            Op::Enter | Op::Cs | Op::Exit | Op::Invoke { .. } | Op::Return(_) => {
                self.do_transition(p, op)
            }
        }
    }

    fn do_read(&mut self, p: ProcId, v: VarId) -> Event {
        let entry = &mut self.procs[p.index()];
        if let Some(value) = entry.buffer.pending_value(v) {
            entry.program.apply(Outcome::ReadValue(value));
            self.count_event(p);
            return Event {
                seq: self.next_seq(),
                pid: p,
                kind: EventKind::Read {
                    var: v,
                    value,
                    source: ReadSource::Buffer,
                },
                critical: false,
            };
        }

        let value = self.vars.get(v).value;
        self.learn_from_read(p, v);

        let remote = self.is_remote(p, v);
        let entry = &mut self.procs[p.index()];
        let critical = remote && !remote_reads_contains(&entry.remote_reads, v);
        if remote {
            remote_reads_insert(&mut entry.remote_reads, v);
        }
        entry.program.apply(Outcome::ReadValue(value));
        if let Some(acc) = &mut self.accounting {
            acc.access(p, v, false, remote, critical);
        }

        Event {
            seq: self.next_seq(),
            pid: p,
            kind: EventKind::Read {
                var: v,
                value,
                source: ReadSource::Memory,
            },
            critical,
        }
    }

    fn do_cas(&mut self, p: ProcId, var: VarId, expected: Value, new: Value) -> Event {
        let critical = self.cas_would_be_critical(p, var);
        let observed = self.vars.get(var).value;
        let success = observed == expected;

        // Awareness from the read half.
        self.learn_from_read(p, var);

        let remote = self.is_remote(p, var);
        if remote {
            remote_reads_insert(&mut self.procs[p.index()].remote_reads, var);
        }
        if success {
            let snapshot = self.procs[p.index()].aw.snapshot();
            let record = self.accounting.is_some();
            self.vars.commit(var, new, p, snapshot, record);
            self.refresh_var_hash(var);
        }
        if let Some(acc) = &mut self.accounting {
            acc.access(p, var, true, remote, critical).fences += 1;
        }

        self.procs[p.index()]
            .program
            .apply(Outcome::CasResult { success, observed });

        Event {
            seq: self.next_seq(),
            pid: p,
            kind: EventKind::Cas {
                var,
                expected,
                new,
                success,
                observed,
            },
            critical,
        }
    }

    fn do_transition(&mut self, p: ProcId, op: Op) -> Result<Event, StepError> {
        let section = self.procs[p.index()].section;
        let (kind, new_section) = match (op, section) {
            (Op::Enter, Section::Ncs) => (EventKind::Enter, Section::Entry),
            (Op::Cs, Section::Entry) => (EventKind::Cs, Section::Exit),
            (Op::Exit, Section::Exit) => (EventKind::Exit, Section::Ncs),
            (Op::Invoke { op, arg }, Section::Ncs) => {
                (EventKind::Invoke { op, arg }, Section::Entry)
            }
            (Op::Return(value), Section::Entry) => (EventKind::Return { value }, Section::Ncs),
            (op, section) => {
                return Err(StepError::BadTransition {
                    pid: p,
                    op,
                    section,
                })
            }
        };

        let completes = matches!(kind, EventKind::Exit | EventKind::Return { .. });
        if let Some(acc) = &mut self.accounting {
            match kind {
                EventKind::Enter => acc.metrics.open_span(p, SpanKind::Passage),
                EventKind::Invoke { op, .. } => acc.metrics.open_span(p, SpanKind::Operation(op)),
                _ => {}
            }
            acc.event(p);
            if completes {
                acc.metrics.close_span(p);
            }
        }

        let entry = &mut self.procs[p.index()];
        entry.passages_completed += completes as usize;
        entry.section = new_section;
        entry.program.apply(Outcome::Progressed);

        Ok(Event {
            seq: self.next_seq(),
            pid: p,
            kind,
            critical: false,
        })
    }

    fn do_crash(&mut self, p: ProcId) -> Result<Event, StepError> {
        let entry = &mut self.procs[p.index()];
        if entry.crash != CrashState::Running {
            return Err(StepError::Halted(p));
        }
        // The crash atomically discards everything process-local: the
        // write buffer (under PSO the same buffer holds every pending
        // per-variable write, so all of them die), fence progress,
        // awareness, remote-read history, and — via Program::recover —
        // the program's registers and control location. Committed shared
        // memory persists, possibly stale.
        let lost = entry.buffer.len() as u32;
        entry.buffer = WriteBuffer::new();
        entry.in_fence = false;
        entry.section = Section::Ncs;
        entry.aw = AwSet::singleton(p);
        entry.remote_reads.clear();
        entry.crash = if entry.program.recover() {
            CrashState::Down
        } else {
            CrashState::Stopped
        };
        // A crash mid-passage abandons the open accounting span — the
        // passage never completes — and drops the process' cached copies.
        if let Some(acc) = &mut self.accounting {
            acc.metrics.abort_span(p);
            acc.event(p);
            acc.cache.purge(&BTreeSet::from([p]));
        }
        let old = self.global_component();
        self.crashes_executed += 1;
        self.writes_lost += lost;
        if self.crash_budget > 0 {
            self.crash_budget -= 1;
        }
        self.hash ^= old ^ self.global_component();
        Ok(Event {
            seq: self.next_seq(),
            pid: p,
            kind: EventKind::Crash { lost },
            critical: false,
        })
    }

    /// Sets the crash budget: how many [`Directive::Crash`] moves
    /// [`Machine::enabled_directives`] will still offer. The default 0
    /// disables crash enumeration entirely (existing state spaces are
    /// unchanged); executing crash directives directly never consumes
    /// budget, so shrink/replay runs work on fresh machines.
    pub fn set_crash_budget(&mut self, budget: u32) {
        let old = self.global_component();
        self.crash_budget = budget;
        self.hash ^= old ^ self.global_component();
    }

    /// The remaining crash budget.
    pub fn crash_budget(&self) -> u32 {
        self.crash_budget
    }

    /// Crashes executed in this execution so far.
    pub fn crashes_executed(&self) -> u32 {
        self.crashes_executed
    }

    /// Buffered stores discarded by crashes in this execution so far —
    /// the TSO-specific crash damage. A crash of a process with an empty
    /// buffer loses nothing and leaves this unchanged.
    pub fn writes_lost(&self) -> u32 {
        self.writes_lost
    }

    /// Crash-recovery status of `p`.
    pub fn crash_state(&self, p: ProcId) -> CrashState {
        self.procs[p.index()].crash
    }

    /// Whether `p` was erased in place.
    pub fn is_erased(&self, p: ProcId) -> bool {
        self.procs[p.index()].erased
    }

    /// Erases a set of processes **in place** — the fast alternative to
    /// filtered replay ([`crate::erase::erase`]).
    ///
    /// Requires (and checks) the Lemma 1 precondition: no surviving process
    /// may be aware of an erased one, and erased processes must not have
    /// completed a passage. The erased processes' events are removed from
    /// the log and schedule, every variable they are visible on is rewound
    /// to its latest surviving commit, their cached copies are dropped, and
    /// they are tombstoned (never schedulable again — unlike replay
    /// erasure, which leaves them fresh).
    ///
    /// Equivalence contract with replay erasure: identical event log,
    /// variable state, writers, awareness, criticality and future
    /// behaviour; only the CC RMR counters of *future* survivor accesses
    /// may differ, because cache occupancy is history-dependent (see
    /// [`crate::cache::CacheDir::purge`]).
    ///
    /// # Errors
    ///
    /// [`StepError::InvalidErasure`] if a survivor is aware of an erased
    /// process, an erased process already finished a passage, or this
    /// machine is a [`Machine::fork_for_search`] copy (whose dropped
    /// commit history the rewind would need).
    pub fn erase_in_place(&mut self, erased: &BTreeSet<ProcId>) -> Result<(), StepError> {
        if erased.is_empty() {
            return Ok(());
        }
        if self.accounting.is_none() {
            return Err(StepError::InvalidErasure(
                "search forks drop the commit history erasure rewinds through".into(),
            ));
        }
        // Preconditions.
        for i in 0..self.n() {
            let p = ProcId(i as u32);
            if erased.contains(&p) {
                if self.procs[p.index()].passages_completed > 0 {
                    return Err(StepError::InvalidErasure(format!(
                        "{p} already completed a passage"
                    )));
                }
                continue;
            }
            if !self.procs[p.index()].aw.intersects_only_self(p, erased) {
                return Err(StepError::InvalidErasure(format!(
                    "{p} is aware of an erased process"
                )));
            }
        }

        // Log and schedule surgery.
        let mut log = Vec::with_capacity(self.log.len());
        let mut schedule = Vec::with_capacity(self.schedule.len());
        for (event, directive) in self.log.iter().zip(&self.schedule) {
            if erased.contains(&event.pid) {
                // Erasing a crashed process erases its crash damage too —
                // the counters must match what a fresh replay of the
                // surviving schedule would accumulate.
                if let EventKind::Crash { lost } = event.kind {
                    self.crashes_executed -= 1;
                    self.writes_lost -= lost;
                }
                continue;
            }
            let mut e = *event;
            e.seq = log.len();
            log.push(e);
            schedule.push(*directive);
        }
        self.log = log;
        self.schedule = schedule;

        // Shared memory rewind.
        for v in 0..self.vars.count() {
            self.vars.revert_erased(VarId(v as u32), erased);
        }
        if let Some(acc) = &mut self.accounting {
            acc.erase(erased);
        }

        // Tombstone the processes.
        for &p in erased {
            let entry = &mut self.procs[p.index()];
            entry.erased = true;
            entry.crash = CrashState::Running;
            entry.in_fence = false;
            entry.section = Section::Ncs;
            entry.buffer = WriteBuffer::new();
            entry.aw = AwSet::singleton(p);
            entry.remote_reads.clear();
        }
        // Erasure rewrites variables and processes wholesale; recompute the
        // rolling hash from scratch rather than tracking each rewind.
        self.rebuild_state_hash();
        Ok(())
    }

    /// Issues events for `p` until its next event would be special
    /// (Definition 3), without executing that special event. Returns the
    /// pending special event description.
    ///
    /// # Errors
    ///
    /// [`StepError::NonTermination`] if `max_steps` events execute without
    /// reaching a special event — in the construction's context this is a
    /// weak-obstruction-freedom violation by the algorithm under test.
    pub fn run_until_special(
        &mut self,
        p: ProcId,
        max_steps: usize,
    ) -> Result<NextEvent, StepError> {
        for _ in 0..max_steps {
            let next = self.peek_next(p);
            if next == NextEvent::Halted {
                return Ok(next);
            }
            if next.special_kind().is_some() {
                return Ok(next);
            }
            self.step(Directive::Issue(p))?;
        }
        Err(StepError::NonTermination {
            pid: p,
            steps: max_steps,
        })
    }

    /// Runs `p` solo until it completes `passages` full passages (or
    /// operations), committing writes eagerly. Used for progress tests and
    /// the regularization phase.
    ///
    /// # Errors
    ///
    /// [`StepError::NonTermination`] if the budget is exhausted first, plus
    /// any error surfaced by [`Machine::step`].
    pub fn run_solo(
        &mut self,
        p: ProcId,
        passages: usize,
        max_steps: usize,
    ) -> Result<(), StepError> {
        let target = self.procs[p.index()].passages_completed + passages;
        for _ in 0..max_steps {
            if self.procs[p.index()].passages_completed >= target {
                return Ok(());
            }
            if self.peek_next(p) == NextEvent::Halted {
                return Err(StepError::Halted(p));
            }
            self.step(Directive::Issue(p))?;
        }
        if self.procs[p.index()].passages_completed >= target {
            Ok(())
        } else {
            Err(StepError::NonTermination {
                pid: p,
                steps: max_steps,
            })
        }
    }

    /// Convenience: fences completed by `p` (EndFence events plus CAS
    /// operations).
    ///
    /// # Panics
    ///
    /// On a [`Machine::fork_for_search`] copy, which keeps no metrics.
    pub fn fences_completed(&self, p: ProcId) -> u64 {
        self.metrics().proc(p).totals.fences
    }

    /// Convenience: critical events executed by `p`.
    ///
    /// # Panics
    ///
    /// On a [`Machine::fork_for_search`] copy, which keeps no metrics.
    pub fn criticals(&self, p: ProcId) -> u64 {
        self.metrics().proc(p).totals.critical
    }

    /// Snapshots the machine: a behaviourally identical copy sharing
    /// nothing with `self`, with all of its bookkeeping. (The schedule
    /// explorer branches with [`Machine::fork_for_search_into`] instead.)
    pub fn fork(&self) -> Machine {
        Machine {
            model: self.model,
            spec: self.spec.clone(),
            vars: self.vars.clone(),
            procs: self.procs.clone(),
            log: self.log.clone(),
            schedule: self.schedule.clone(),
            accounting: self.accounting.clone(),
            var_hash: self.var_hash.clone(),
            proc_hash: self.proc_hash.clone(),
            hash: self.hash,
            crash_budget: self.crash_budget,
            crashes_executed: self.crashes_executed,
            writes_lost: self.writes_lost,
            probe: self.probe.clone(),
        }
    }

    /// A fork specialised for the schedule explorer: behaviourally
    /// identical (same [`Machine::state_hash`], same enabled directives,
    /// same events — `seq` included — and same invariant verdicts), but it
    /// carries and updates only what a search reads: the state
    /// [`Machine::state_hash`] covers, the last event (the store-buffer
    /// laws inspect it) and the crash counters [`Machine::crashes_executed`]
    /// and [`Machine::writes_lost`].
    ///
    /// Everything else is dropped, on the copy and on every step it
    /// takes: the event log keeps only its last entry, the schedule stays
    /// empty (the explorer tracks its own path), variable commit
    /// histories are dropped (so [`Machine::erase_in_place`] errors on the
    /// copy), and the RMR, access, passage and awareness bookkeeping is
    /// gone — [`Machine::metrics`], [`Machine::accessed`],
    /// [`Machine::awareness`], [`Machine::fences_completed`] and
    /// [`Machine::criticals`] panic on it. A fork of a search fork is
    /// again a search fork. This turns forking from O(executed events)
    /// into O(state size), with no per-variable sets to copy.
    ///
    /// This allocates a new machine; the explorer's workers recycle
    /// machines they have finished with through
    /// [`Machine::fork_for_search_into`] instead.
    pub fn fork_for_search(&self) -> Machine {
        let mut fork = Machine::blank(self.model, Arc::clone(&self.spec));
        self.fork_for_search_into(&mut fork);
        fork
    }

    /// Overwrites `dst` with exactly what [`Machine::fork_for_search`]
    /// returns, reusing `dst`'s storage: its variable, process and hash
    /// tables, write buffers, remote-read lists and — when the program
    /// types match — native program boxes. A shared `Arc` (the variable
    /// spec, compiled code, awareness sets) is re-cloned only where `dst`'s
    /// points elsewhere. `dst` may be any machine: a search fork of
    /// another state, a full machine, or a machine of another system.
    /// Forking into a search fork of the same system allocates only when
    /// the copy needs more room than `dst` had, or where a program's own
    /// `clone_from` allocates.
    pub fn fork_for_search_into(&self, dst: &mut Machine) {
        dst.model = self.model;
        if !Arc::ptr_eq(&dst.spec, &self.spec) {
            dst.spec = Arc::clone(&self.spec);
        }
        self.vars.fork_for_search_into(&mut dst.vars);
        dst.procs.clone_from(&self.procs);
        dst.log.clear();
        dst.log.extend(self.log.last().copied());
        dst.schedule.clear();
        dst.accounting = None;
        dst.var_hash.clone_from(&self.var_hash);
        dst.proc_hash.clone_from(&self.proc_hash);
        dst.hash = self.hash;
        dst.crash_budget = self.crash_budget;
        dst.crashes_executed = self.crashes_executed;
        dst.writes_lost = self.writes_lost;
        dst.probe = None;
    }

    /// The machine's *behavioural*-state fingerprint: everything that can
    /// influence future events or invariant verdicts, and nothing that
    /// cannot.
    ///
    /// Included: memory model; per-variable committed value and writer;
    /// per-process erased/fence flags, section, passage count, buffered
    /// writes in issue order, remote-read history (it decides criticality),
    /// and the program's own [`Program::state_hash`]. Excluded: the event
    /// log, awareness sets, RMR metrics and cache occupancy — two states
    /// agreeing on everything hashed here generate identical future event
    /// sequences for every schedule, so the explorer may treat them as one.
    /// The exclusions are also what a [`Machine::fork_for_search`] copy
    /// drops (it keeps the last event and the crash counters besides the
    /// hashed state), and its accounting accessors panic.
    ///
    /// The value is maintained *incrementally* as the xor of independently
    /// seeded per-variable and per-process [`FxHasher`] components, so this
    /// call is O(1). The maintenance contract, for anyone extending
    /// [`Machine::step`]: every mutation of hashed per-process state
    /// belongs to the scheduled process `d.pid()` (whose component `step`
    /// refreshes after the event), every committed-variable mutation goes
    /// through `apply_commit`/`do_cas` (which refresh that variable's
    /// component), errors mutate nothing, and bulk rewrites
    /// ([`Machine::erase_in_place`]) rebuild from scratch. Any new hashed
    /// state must keep one of those hooks in sync or extend
    /// `recompute_state_hash`'s differential test coverage.
    pub fn state_hash(&self) -> u64 {
        self.hash
    }

    /// [`Machine::state_hash`] wrapped in the explorer's cache-key type.
    pub fn state_key(&self) -> StateKey {
        StateKey(self.hash)
    }

    /// Recomputes the behavioural-state fingerprint from scratch, ignoring
    /// the incrementally maintained value. Always equals
    /// [`Machine::state_hash`]; exposed so tests can assert exactly that
    /// after arbitrary schedules.
    pub fn recompute_state_hash(&self) -> u64 {
        let mut hash = self.global_component();
        for (i, _) in self.var_hash.iter().enumerate() {
            hash ^= self.var_component(i);
        }
        for (i, _) in self.proc_hash.iter().enumerate() {
            hash ^= self.proc_component(i);
        }
        hash
    }

    /// Seed tags keeping variable and process component streams disjoint.
    const VAR_TAG: u64 = 0x5641_5200; // "VAR\0"
    const PROC_TAG: u64 = 0x5052_4f43; // "PROC"

    /// The machine-global hash component: memory model, remaining crash
    /// budget (the budget gates which directives are enabled, so two
    /// states differing only in budget must not be cache-merged) and
    /// stores lost to crashes (invariants read it, so it is behavioural
    /// state).
    fn global_component(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = FxHasher::with_seed(0x4d4f_4445_4c00); // "MODEL\0"
        h.write_u8((self.model == MemoryModel::Pso) as u8);
        h.write_u32(self.crash_budget);
        h.write_u32(self.writes_lost);
        h.finish()
    }

    fn var_component(&self, i: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::with_seed(Self::VAR_TAG ^ ((i as u64) << 16));
        let state = self.vars.get(VarId(i as u32));
        state.value.hash(&mut h);
        state.writer.hash(&mut h);
        h.finish()
    }

    fn proc_component(&self, i: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::with_seed(Self::PROC_TAG ^ ((i as u64) << 16));
        let entry = &self.procs[i];
        entry.erased.hash(&mut h);
        (entry.crash as u8).hash(&mut h);
        entry.in_fence.hash(&mut h);
        (entry.section as u8).hash(&mut h);
        entry.passages_completed.hash(&mut h);
        entry.buffer.len().hash(&mut h);
        for w in entry.buffer.iter() {
            w.var.hash(&mut h);
            w.value.hash(&mut h);
        }
        entry.remote_reads.hash(&mut h);
        entry.program.state_hash(&mut h);
        h.finish()
    }

    /// Maps a value stored in (or buffered for) `v` under `perm`,
    /// following the variable's declared [`PidEncoding`]. `None` when the
    /// value cannot be a pid (out of range) — the permutation is invalid
    /// for the state.
    fn map_value(&self, v: VarId, value: Value, perm: &Permutation) -> Option<Value> {
        match self.spec.pid_encoding(v) {
            PidEncoding::None => Some(value),
            PidEncoding::ZeroBased => perm.map_value_zero_based(value),
            PidEncoding::OneBased => perm.map_value_one_based(value),
        }
    }

    /// [`Machine::var_component`] of the π-renamed state: variable `i`
    /// lands at `var_map[i]` (so the seed changes), its value is mapped
    /// per the declared encoding, and its writer is renamed. `None` when
    /// the state is not expressible under `perm` — in particular an
    /// *unwritten* pid-valued variable whose initial value `perm` moves:
    /// the renamed execution's variable would hold the same initial, so a
    /// renaming that reinterprets it (dijkstra's `turn = 0` meaning
    /// "process 0 holds the turn") is not an automorphism.
    fn var_component_permuted(&self, i: usize, perm: &Permutation, var_map: &[u32]) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::with_seed(Self::VAR_TAG ^ ((var_map[i] as u64) << 16));
        let state = self.vars.get(VarId(i as u32));
        let mapped = self.map_value(VarId(i as u32), state.value, perm)?;
        if state.writer.is_none() && mapped != state.value {
            return None;
        }
        mapped.hash(&mut h);
        state.writer.map(|p| perm.apply(p)).hash(&mut h);
        Some(h.finish())
    }

    /// [`Machine::proc_component`] of the π-renamed state: process `i`
    /// lands at `perm(i)` (seed change), buffered writes keep their issue
    /// order but are relabeled (variable through `var_map`, value through
    /// the encoding), the remote-read history is relabeled and re-sorted,
    /// and the program hashes its own renamed local state. `None` when
    /// any piece is not expressible under `perm`.
    fn proc_component_permuted(
        &self,
        i: usize,
        perm: &Permutation,
        var_map: &[u32],
    ) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let image = perm.apply(ProcId(i as u32));
        let mut h = FxHasher::with_seed(Self::PROC_TAG ^ ((image.index() as u64) << 16));
        let entry = &self.procs[i];
        entry.erased.hash(&mut h);
        (entry.crash as u8).hash(&mut h);
        entry.in_fence.hash(&mut h);
        (entry.section as u8).hash(&mut h);
        entry.passages_completed.hash(&mut h);
        entry.buffer.len().hash(&mut h);
        for w in entry.buffer.iter() {
            VarId(var_map[w.var.index()]).hash(&mut h);
            self.map_value(w.var, w.value, perm)?.hash(&mut h);
        }
        // Rename and re-sort the remote reads on the stack; hashing the
        // slice feeds the same bytes as hashing a `Vec`.
        let mut inline = [VarId(0); REMOTE_READS_INLINE];
        let mut spilled = Vec::new();
        let remote = match inline.get_mut(..entry.remote_reads.len()) {
            Some(slots) => slots,
            None => {
                spilled.resize(entry.remote_reads.len(), VarId(0));
                &mut spilled[..]
            }
        };
        for (slot, v) in remote.iter_mut().zip(&entry.remote_reads) {
            *slot = VarId(var_map[v.index()]);
        }
        remote.sort_unstable();
        remote.hash(&mut h);
        if !entry.program.state_hash_permuted(perm, &mut h) {
            return None;
        }
        Some(h.finish())
    }

    /// The fingerprint the π-renamed state would have, or `None` when
    /// this state is not expressible under `perm` (see
    /// [`Program::state_hash_permuted`]). A `None` in some states does
    /// not make the reduction sound: a renaming valid in one state need
    /// not commute with the transitions out of it, and under canonical
    /// keys `splitter`, `filter` and `dijkstra` can report `Pass` on an
    /// orbit that concrete keys report as a `Violation` (ROADMAP item 1).
    /// The global component is permutation-invariant, so only the
    /// per-variable and per-process components are recomputed — over
    /// current values only, no walk of histories or logs.
    pub fn state_hash_permuted(&self, perm: &Permutation, var_map: &[u32]) -> Option<u64> {
        match self.renamed_from_scratch(perm, var_map) {
            Renamed::Valid(x) => Some(self.global_component() ^ x),
            Renamed::Invalid(_) => None,
        }
    }

    /// The xor of every permuted variable and process component under
    /// `perm`, or the first component (variables first, then processes)
    /// that `perm` cannot express — where [`Machine::state_hash_permuted`]
    /// stops.
    fn renamed_from_scratch(&self, perm: &Permutation, var_map: &[u32]) -> Renamed {
        let vars = self.var_hash.len();
        let mut x = 0;
        for i in 0..vars {
            match self.var_component_permuted(i, perm, var_map) {
                Some(h) => x ^= h,
                None => return Renamed::Invalid(i as u32),
            }
        }
        for i in 0..self.proc_hash.len() {
            match self.proc_component_permuted(i, perm, var_map) {
                Some(h) => x ^= h,
                None => return Renamed::Invalid((vars + i) as u32),
            }
        }
        Renamed::Valid(x)
    }

    /// The canonical cache key under `group`: the minimum of
    /// [`Machine::state_hash`] over every valid renaming, plus the index
    /// of the permutation achieving it (ties break toward the lowest
    /// index; index 0 — the identity — is always valid, so the result is
    /// never worse than the concrete key). All members of an orbit share
    /// one canonical key, which is what lets the explorer's cache
    /// collapse the orbit to a single entry.
    pub fn canonical_state_key(&self, group: &SymmetryGroup) -> (StateKey, usize) {
        let mut best = self.hash;
        let mut best_idx = 0;
        for idx in 1..group.len() {
            if let Some(h) = self.state_hash_permuted(group.perm(idx), group.var_map(idx)) {
                if h < best {
                    best = h;
                    best_idx = idx;
                }
            }
        }
        (StateKey(best), best_idx)
    }

    fn rebuild_state_hash(&mut self) {
        self.var_hash = vec![0; self.vars.count()];
        self.proc_hash = vec![0; self.procs.len()];
        for i in 0..self.var_hash.len() {
            self.var_hash[i] = self.var_component(i);
        }
        for i in 0..self.proc_hash.len() {
            self.proc_hash[i] = self.proc_component(i);
        }
        self.hash = self.global_component()
            ^ self.var_hash.iter().fold(0, |a, h| a ^ h)
            ^ self.proc_hash.iter().fold(0, |a, h| a ^ h);
    }

    fn refresh_var_hash(&mut self, v: VarId) {
        let new = self.var_component(v.index());
        self.hash ^= self.var_hash[v.index()] ^ new;
        self.var_hash[v.index()] = new;
    }

    fn refresh_proc_hash(&mut self, p: ProcId) {
        let new = self.proc_component(p.index());
        self.hash ^= self.proc_hash[p.index()] ^ new;
        self.proc_hash[p.index()] = new;
    }

    /// The scheduling moves with pairwise-distinct effects available to
    /// the adversary for process `p` in the current state.
    ///
    /// Redundant directives are canonicalised away so the explorer never
    /// branches on two names for the same transition:
    ///
    /// * while `p` drains a fence (or stalls on a CAS) with a non-empty
    ///   buffer, `Issue(p)` already commits the oldest write, so no
    ///   separate `Commit(p)` is offered;
    /// * under TSO, `CommitVar` can only name the oldest write — identical
    ///   to `Commit` — so it is never offered; under PSO it is offered for
    ///   each *non-oldest* pending variable.
    pub fn enabled_directives(&self, p: ProcId) -> Vec<Directive> {
        let mut out = Vec::new();
        self.enabled_directives_into(p, &mut out);
        out
    }

    /// Appends [`Machine::enabled_directives`]`(p)` to `out`, so a caller
    /// that gathers every process' moves can reuse one buffer.
    pub fn enabled_directives_into(&self, p: ProcId, out: &mut Vec<Directive>) {
        let entry = &self.procs[p.index()];
        if entry.erased {
            return;
        }
        match entry.crash {
            // Crash-stopped: nothing, ever.
            CrashState::Stopped => return,
            // Down: the only move is the recovery event. Its buffer is
            // empty (the crash discarded it), so no crash is offered
            // either — crashing an empty-buffered process loses nothing.
            CrashState::Down => {
                out.push(Directive::Issue(p));
                return;
            }
            CrashState::Running => {}
        }
        let halted = !entry.in_fence && matches!(entry.program.peek(), Op::Halt);
        if !halted {
            out.push(Directive::Issue(p));
        }
        let issue_commits = !entry.buffer.is_empty()
            && (entry.in_fence || (!halted && matches!(entry.program.peek(), Op::Cas { .. })));
        if !entry.buffer.is_empty() && !issue_commits {
            out.push(Directive::Commit(p));
        }
        if self.model == MemoryModel::Pso {
            for w in entry.buffer.iter().skip(1) {
                out.push(Directive::CommitVar(p, w.var));
            }
        }
        // The fault model: while budget remains, the adversary may crash
        // any process with a non-empty write buffer. The gate keeps the
        // budgeted search on the TSO-interesting crash points — a crash
        // with nothing buffered is indistinguishable from one delayed to
        // the process' next issue.
        if self.crash_budget > 0 && !entry.buffer.is_empty() {
            out.push(Directive::Crash(p));
        }
    }

    /// Whether no process has an enabled directive, i.e. every
    /// [`Machine::enabled_directives`] is empty. Allocates nothing, for
    /// the invariants that ask it after every step.
    ///
    /// A running process has a move exactly when it has not halted or
    /// still buffers a write: an unhalted one can issue, and a halted one
    /// (never mid-fence) can commit. Erased and crash-stopped processes
    /// have none; a process that is down can recover.
    pub fn is_terminal(&self) -> bool {
        self.procs.iter().all(|entry| {
            entry.erased
                || match entry.crash {
                    CrashState::Stopped => true,
                    CrashState::Down => false,
                    CrashState::Running => {
                        entry.buffer.is_empty()
                            && !entry.in_fence
                            && matches!(entry.program.peek(), Op::Halt)
                    }
                }
        })
    }

    /// The shared-memory footprint `d` would have if executed now.
    ///
    /// Returns `None` if `d` is not executable in the current state.
    pub fn footprint(&self, d: Directive) -> Option<Footprint> {
        let p = d.pid();
        let entry = &self.procs[p.index()];
        if entry.erased {
            return None;
        }
        let commit_of = |var: VarId| Footprint {
            pid: p,
            read: None,
            write: Some(var),
        };
        match d {
            // A crash touches no shared variable: the buffered writes it
            // discards were never visible.
            Directive::Crash(_) => (entry.crash == CrashState::Running).then_some(Footprint {
                pid: p,
                read: None,
                write: None,
            }),
            Directive::Commit(_) => entry.buffer.peek_oldest().map(|w| commit_of(w.var)),
            Directive::CommitVar(_, v) => entry
                .buffer
                .iter()
                .any(|w| w.var == v)
                .then(|| commit_of(v)),
            Directive::Issue(_) => match self.peek_next(p) {
                NextEvent::Halted => None,
                NextEvent::CommitNext { var, .. } => Some(commit_of(var)),
                NextEvent::Read {
                    var, from_buffer, ..
                } => Some(Footprint {
                    pid: p,
                    read: (!from_buffer).then_some(var),
                    write: None,
                }),
                NextEvent::Cas { var, .. } => Some(Footprint {
                    pid: p,
                    read: Some(var),
                    write: Some(var),
                }),
                // Issued writes go to the private buffer; fence brackets,
                // transitions and recovery touch no shared variable.
                NextEvent::IssueWrite { .. }
                | NextEvent::BeginFence
                | NextEvent::EndFence
                | NextEvent::Transition(_)
                | NextEvent::Recover => Some(Footprint {
                    pid: p,
                    read: None,
                    write: None,
                }),
            },
        }
    }

    /// Whether `a` and `b`, both executable now, commute: executing them
    /// in either order reaches the same state and neither disables the
    /// other.
    ///
    /// Same-process directives never commute (program order). Distinct
    /// processes conflict only through shared memory: a write to `v`
    /// conflicts with any access of `v`. A process' own moves never change
    /// which directives *another* process has enabled, nor that process'
    /// footprint, so footprint disjointness at the current state is
    /// sufficient — this is the independence relation the explorer's
    /// sleep sets are built on.
    pub fn independent(&self, a: Directive, b: Directive) -> bool {
        if a.pid() == b.pid() {
            return false;
        }
        // Two crashes are never independent: both draw on the same global
        // crash budget, so one can disable the other's enumeration.
        if matches!(a, Directive::Crash(_)) && matches!(b, Directive::Crash(_)) {
            return false;
        }
        let (Some(fa), Some(fb)) = (self.footprint(a), self.footprint(b)) else {
            return false;
        };
        let conflicts = |w: Option<VarId>, other: &Footprint| {
            w.is_some() && (w == other.read || w == other.write)
        };
        !conflicts(fa.write, &fb) && !conflicts(fb.write, &fa)
    }
}

/// The shared-memory variables a directive would touch, used for the
/// commutativity analysis in [`Machine::independent`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Footprint {
    /// The process the directive schedules.
    pub pid: ProcId,
    /// Shared variable read from memory, if any.
    pub read: Option<VarId>,
    /// Shared variable written (committed or CAS-ed), if any.
    pub write: Option<VarId>,
}

/// One renaming's entry in a [`RenamedHashes`] table. A component is
/// named by its index: variable `i` is `i`, process `i` is the variable
/// count plus `i`.
#[derive(Clone, Copy, Debug)]
enum Renamed {
    /// The xor of the renaming's permuted variable and process
    /// components: its [`Machine::state_hash_permuted`] without the
    /// global component.
    Valid(u64),
    /// A component the renaming cannot express in this state, its
    /// invalidity witness. The renaming stays invalid while no step
    /// touches that component.
    Invalid(u32),
}

/// Every non-identity renaming of a [`SymmetryGroup`], evaluated on one
/// machine state: the renaming's permuted fingerprint, or a component
/// it cannot express there. A search node carries its state's table, so
/// that a child's canonical key rehashes only what its step touched
/// instead of every component under every renaming.
///
/// **Exactness.** For a table built from a machine `m` — from scratch by
/// [`RenamedHashes::rebuild`], or from its parent's table by
/// [`RenamedHashes::rebuild_after_step`] — and every renaming index
/// `idx` of the group, [`RenamedHashes::permuted_hash`]`(m, idx)` equals
/// [`Machine::state_hash_permuted`]`(group.perm(idx), group.var_map(idx))`:
/// the same validity and, when valid, the same hash. So
/// [`RenamedHashes::canonical_key`] equals
/// [`Machine::canonical_state_key`] bit for bit, index included. Which
/// component an invalid entry names may differ between the two
/// constructors.
///
/// The after-step constructor rests on the hash-maintenance contract of
/// [`Machine::state_hash`]: a step changes the scheduled process's
/// component, the component of the variable it commits or CASes, and the
/// global one, which no renaming moves. A permuted component depends
/// only on its own variable or process, so every other component keeps
/// its parent's value.
#[derive(Clone, Debug, Default)]
pub struct RenamedHashes {
    /// Entry `k` is the group's renaming `k + 1`; the identity needs no
    /// entry, since its fingerprint is [`Machine::state_hash`].
    entries: Vec<Renamed>,
}

impl RenamedHashes {
    /// An empty table. It allocates nothing until it is rebuilt.
    pub const fn new() -> Self {
        RenamedHashes {
            entries: Vec::new(),
        }
    }

    /// Overwrites `self` with `machine`'s table under `group`, computed
    /// from scratch as [`Machine::state_hash_permuted`] computes each
    /// renaming, reusing `self`'s storage.
    pub fn rebuild(&mut self, machine: &Machine, group: &SymmetryGroup) {
        self.entries.clear();
        self.entries.extend(
            (1..group.len())
                .map(|idx| machine.renamed_from_scratch(group.perm(idx), group.var_map(idx))),
        );
    }

    /// Overwrites `self` with the table of `child`, the state that
    /// `parent` reaches by executing `d`, given `parent`'s table
    /// `parent_table`; reuses `self`'s storage. Per renaming:
    ///
    /// * an invalid entry whose witness the step did not touch stays
    ///   invalid, at no cost;
    /// * a valid entry swaps the parent's permuted components of the
    ///   scheduled process and of the variable `d` commits or CASes (the
    ///   `write` of `parent.footprint(d)`) for the child's;
    /// * any other entry is recomputed from scratch.
    pub fn rebuild_after_step(
        &mut self,
        parent_table: &RenamedHashes,
        parent: &Machine,
        d: Directive,
        child: &Machine,
        group: &SymmetryGroup,
    ) {
        let vars = child.var_hash.len();
        let proc = d.pid().index();
        let proc_slot = (vars + proc) as u32;
        let var = parent.footprint(d).and_then(|f| f.write).map(VarId::index);
        let var_slot = var.map(|v| v as u32);
        self.entries.clear();
        self.entries
            .extend(parent_table.entries.iter().enumerate().map(|(k, &entry)| {
                let (perm, var_map) = (group.perm(k + 1), group.var_map(k + 1));
                match entry {
                    Renamed::Invalid(w) if w != proc_slot && Some(w) != var_slot => entry,
                    Renamed::Invalid(_) => child.renamed_from_scratch(perm, var_map),
                    Renamed::Valid(mut x) => {
                        const VALID: &str = "a valid renaming expresses every component";
                        if let Some(v) = var {
                            x ^= parent
                                .var_component_permuted(v, perm, var_map)
                                .expect(VALID);
                            match child.var_component_permuted(v, perm, var_map) {
                                Some(h) => x ^= h,
                                None => return Renamed::Invalid(v as u32),
                            }
                        }
                        x ^= parent
                            .proc_component_permuted(proc, perm, var_map)
                            .expect(VALID);
                        match child.proc_component_permuted(proc, perm, var_map) {
                            Some(h) => Renamed::Valid(x ^ h),
                            None => Renamed::Invalid(proc_slot),
                        }
                    }
                }
            }));
    }

    /// The fingerprint of `machine` renamed by the group's renaming
    /// `idx`, or `None` when the renaming cannot express the state:
    /// [`Machine::state_hash_permuted`] as this table carries it.
    /// `machine` must be the state the table was built for.
    pub fn permuted_hash(&self, machine: &Machine, idx: usize) -> Option<u64> {
        if idx == 0 {
            return Some(machine.hash);
        }
        match self.entries[idx - 1] {
            Renamed::Valid(x) => Some(machine.global_component() ^ x),
            Renamed::Invalid(_) => None,
        }
    }

    /// [`Machine::canonical_state_key`] of the state this table was built
    /// for: the least fingerprint over the valid renamings, with ties
    /// broken toward the lowest index. The global component is added
    /// here, since a crash changes it.
    pub fn canonical_key(&self, machine: &Machine) -> (StateKey, usize) {
        let global = machine.global_component();
        let mut best = machine.hash;
        let mut best_idx = 0;
        for (k, entry) in self.entries.iter().enumerate() {
            if let Renamed::Valid(x) = *entry {
                let h = global ^ x;
                if h < best {
                    best = h;
                    best_idx = k + 1;
                }
            }
        }
        (StateKey(best), best_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::{Instr, ScriptSystem};

    /// p0: write v0:=1; read v1. p1: write v1:=1; read v0.
    fn store_buffer_litmus() -> ScriptSystem {
        ScriptSystem::new(2, 2, |pid| {
            let me = pid.0;
            let other = 1 - me;
            vec![
                Instr::Write { var: me, value: 1 },
                Instr::Read { var: other, reg: 0 },
                Instr::Halt,
            ]
        })
    }

    #[test]
    fn tso_allows_both_reads_to_miss_the_writes() {
        let sys = store_buffer_litmus();
        let mut m = Machine::new(&sys);
        // Issue both writes (buffered), then both reads.
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(1))).unwrap();
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(1))).unwrap();
        assert_eq!(m.program(ProcId(0)).unwrap().register(0), Some(0));
        assert_eq!(m.program(ProcId(1)).unwrap().register(0), Some(0));
    }

    #[test]
    fn sequential_schedule_sees_committed_values() {
        let sys = store_buffer_litmus();
        let mut m = Machine::new(&sys);
        // p0 writes and commits, then p1 runs.
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Commit(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(1))).unwrap();
        m.step(Directive::Commit(ProcId(1))).unwrap();
        m.step(Directive::Issue(ProcId(1))).unwrap(); // p1 reads v0 = 1
        assert_eq!(m.program(ProcId(1)).unwrap().register(0), Some(1));
    }

    #[test]
    fn read_own_buffered_write() {
        let sys = ScriptSystem::new(1, 1, |_| {
            vec![
                Instr::Write { var: 0, value: 7 },
                Instr::Read { var: 0, reg: 0 },
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        let e = m.step(Directive::Issue(ProcId(0))).unwrap();
        assert_eq!(
            e.kind,
            EventKind::Read {
                var: VarId(0),
                value: 7,
                source: ReadSource::Buffer
            }
        );
        assert!(!e.is_access(), "buffer reads do not access the variable");
        assert_eq!(m.value(VarId(0)), 0, "memory unchanged until commit");
    }

    #[test]
    fn fence_drains_buffer_in_issue_order() {
        let sys = ScriptSystem::new(1, 3, |_| {
            vec![
                Instr::Write { var: 0, value: 1 },
                Instr::Write { var: 1, value: 2 },
                Instr::Write { var: 2, value: 3 },
                Instr::Fence,
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        for _ in 0..3 {
            m.step(Directive::Issue(p)).unwrap();
        }
        let e = m.step(Directive::Issue(p)).unwrap();
        assert_eq!(e.kind, EventKind::BeginFence);
        assert_eq!(m.mode(p), Mode::Write);
        let e = m.step(Directive::Issue(p)).unwrap();
        assert_eq!(
            e.kind,
            EventKind::CommitWrite {
                var: VarId(0),
                value: 1
            }
        );
        let e = m.step(Directive::Issue(p)).unwrap();
        assert_eq!(
            e.kind,
            EventKind::CommitWrite {
                var: VarId(1),
                value: 2
            }
        );
        let e = m.step(Directive::Issue(p)).unwrap();
        assert_eq!(
            e.kind,
            EventKind::CommitWrite {
                var: VarId(2),
                value: 3
            }
        );
        let e = m.step(Directive::Issue(p)).unwrap();
        assert_eq!(e.kind, EventKind::EndFence);
        assert_eq!(m.mode(p), Mode::Read);
        assert_eq!(m.fences_completed(p), 1);
        assert_eq!(m.value(VarId(2)), 3);
    }

    #[test]
    fn critical_events_first_remote_read_and_foreign_overwrite() {
        let sys = ScriptSystem::new(2, 1, |pid| {
            if pid.0 == 0 {
                vec![
                    Instr::Read { var: 0, reg: 0 },
                    Instr::Read { var: 0, reg: 1 },
                    Instr::Write { var: 0, value: 5 },
                    Instr::Fence,
                    Instr::Write { var: 0, value: 6 },
                    Instr::Fence,
                    Instr::Halt,
                ]
            } else {
                vec![Instr::Write { var: 0, value: 9 }, Instr::Fence, Instr::Halt]
            }
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        let e = m.step(Directive::Issue(p)).unwrap();
        assert!(e.critical, "first remote read is critical");
        let e = m.step(Directive::Issue(p)).unwrap();
        assert!(!e.critical, "second remote read is not critical");
        m.step(Directive::Issue(p)).unwrap(); // issue write (non-critical)
        m.step(Directive::Issue(p)).unwrap(); // BeginFence
        let e = m.step(Directive::Issue(p)).unwrap(); // commit write
        assert!(e.critical, "first commit overwrites initial (writer != p)");
        m.step(Directive::Issue(p)).unwrap(); // EndFence
        m.step(Directive::Issue(p)).unwrap(); // issue write 6
        m.step(Directive::Issue(p)).unwrap(); // BeginFence
        let e = m.step(Directive::Issue(p)).unwrap(); // commit write 6
        assert!(!e.critical, "overwriting own value is not critical");
        // Now p1 overwrites p0's value: critical.
        let q = ProcId(1);
        m.step(Directive::Issue(q)).unwrap();
        m.step(Directive::Issue(q)).unwrap();
        let e = m.step(Directive::Issue(q)).unwrap();
        assert!(e.critical, "overwriting another process' value is critical");
        assert_eq!(m.criticals(p), 2);
        assert_eq!(m.criticals(q), 1);
    }

    #[test]
    fn awareness_flows_through_committed_writes_only() {
        let sys = ScriptSystem::new(3, 2, |pid| match pid.0 {
            0 => vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt],
            1 => vec![
                Instr::Read { var: 0, reg: 0 },
                Instr::Write { var: 1, value: 2 },
                Instr::Fence,
                Instr::Halt,
            ],
            _ => vec![Instr::Read { var: 1, reg: 0 }, Instr::Halt],
        });
        let mut m = Machine::new(&sys);
        let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
        // p1 reads v0 before p0 commits: no awareness.
        // (First schedule p0's issue so the write exists but is buffered.)
        m.step(Directive::Issue(p0)).unwrap();
        m.step(Directive::Issue(p1)).unwrap();
        assert!(
            !m.awareness(p1).contains(p0),
            "buffered writes are invisible"
        );
        // p0 commits via its fence; p2 reads v1 after p1 commits: p2 learns
        // of p1 but NOT of p0 (p1 issued its write before reading v0? No —
        // p1 read v0 first, then issued; but the read saw the OLD value, so
        // p1 was not aware of p0 at issue time).
        m.step(Directive::Issue(p0)).unwrap(); // BeginFence
        m.step(Directive::Issue(p0)).unwrap(); // commit v0:=1
        m.step(Directive::Issue(p0)).unwrap(); // EndFence
        m.step(Directive::Issue(p1)).unwrap(); // issue write v1:=2
        m.step(Directive::Issue(p1)).unwrap(); // BeginFence
        m.step(Directive::Issue(p1)).unwrap(); // commit v1:=2
        m.step(Directive::Issue(p1)).unwrap(); // EndFence
        m.step(Directive::Issue(p2)).unwrap(); // p2 reads v1
        assert!(m.awareness(p2).contains(p1));
        assert!(
            !m.awareness(p2).contains(p0),
            "issue-time snapshot: p1 did not know p0 when it issued"
        );
    }

    #[test]
    fn awareness_snapshot_is_issue_time_not_commit_time() {
        // p1 issues its write to v1 BEFORE reading v0; then reads v0 = 1
        // (committed by p0), then fences. p2 reading v1 must NOT become
        // aware of p0, because at issue time p1 was unaware.
        let sys = ScriptSystem::new(3, 2, |pid| match pid.0 {
            0 => vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt],
            1 => vec![
                Instr::Write { var: 1, value: 2 },
                Instr::Read { var: 0, reg: 0 },
                Instr::Fence,
                Instr::Halt,
            ],
            _ => vec![Instr::Read { var: 1, reg: 0 }, Instr::Halt],
        });
        let mut m = Machine::new(&sys);
        let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
        // p0 writes and commits v0 = 1.
        m.step(Directive::Issue(p0)).unwrap();
        m.step(Directive::Issue(p0)).unwrap();
        m.step(Directive::Issue(p0)).unwrap();
        m.step(Directive::Issue(p0)).unwrap();
        // p1 issues v1:=2 first, then reads v0 = 1 (becomes aware of p0).
        m.step(Directive::Issue(p1)).unwrap();
        m.step(Directive::Issue(p1)).unwrap();
        assert!(m.awareness(p1).contains(p0));
        // p1 commits v1 via fence; the commit carries the ISSUE-time snapshot.
        m.step(Directive::Issue(p1)).unwrap();
        m.step(Directive::Issue(p1)).unwrap();
        m.step(Directive::Issue(p1)).unwrap();
        // p2 reads v1: aware of p1 only.
        m.step(Directive::Issue(p2)).unwrap();
        assert!(m.awareness(p2).contains(p1));
        assert!(!m.awareness(p2).contains(p0));
    }

    #[test]
    fn transitions_enforce_section_protocol() {
        let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Cs, Instr::Halt]);
        let mut m = Machine::new(&sys);
        let err = m.step(Directive::Issue(ProcId(0))).unwrap_err();
        assert!(matches!(err, StepError::BadTransition { .. }));
    }

    #[test]
    fn passage_accounting() {
        let sys = ScriptSystem::new(1, 1, |_| {
            vec![
                Instr::Enter,
                Instr::Read { var: 0, reg: 0 },
                Instr::Cs,
                Instr::Write { var: 0, value: 1 },
                Instr::Fence,
                Instr::Exit,
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        assert_eq!(m.act(), Vec::<ProcId>::new());
        m.step(Directive::Issue(p)).unwrap(); // Enter
        assert_eq!(m.act(), vec![p]);
        assert_eq!(m.section(p), Section::Entry);
        m.run_solo(p, 1, 100).unwrap();
        assert_eq!(m.act(), Vec::<ProcId>::new());
        assert_eq!(m.fin(), vec![p]);
        let stats = &m.metrics().proc(p).completed[0];
        assert_eq!(stats.counters.fences, 1);
        assert_eq!(stats.counters.critical, 2); // remote read + foreign overwrite
        assert_eq!(m.passages_completed(p), 1);
    }

    #[test]
    fn cas_semantics_success_and_failure() {
        let sys = ScriptSystem::new(2, 1, |_| {
            vec![
                Instr::Cas {
                    var: 0,
                    expected: 0,
                    new: 1,
                    success_reg: 0,
                },
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let e = m.step(Directive::Issue(ProcId(0))).unwrap();
        assert!(matches!(
            e.kind,
            EventKind::Cas {
                success: true,
                observed: 0,
                ..
            }
        ));
        let e = m.step(Directive::Issue(ProcId(1))).unwrap();
        assert!(matches!(
            e.kind,
            EventKind::Cas {
                success: false,
                observed: 1,
                ..
            }
        ));
        assert_eq!(m.value(VarId(0)), 1);
        assert_eq!(m.program(ProcId(0)).unwrap().register(0), Some(1));
        assert_eq!(m.program(ProcId(1)).unwrap().register(0), Some(0));
        assert_eq!(m.fences_completed(ProcId(0)), 1, "CAS counts as a fence");
        // The failed CASer becomes aware of the successful one (it read its
        // write).
        assert!(m.awareness(ProcId(1)).contains(ProcId(0)));
    }

    #[test]
    fn cas_stalls_until_buffer_drained() {
        let sys = ScriptSystem::new(1, 2, |_| {
            vec![
                Instr::Write { var: 1, value: 9 },
                Instr::Cas {
                    var: 0,
                    expected: 0,
                    new: 1,
                    success_reg: 0,
                },
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        m.step(Directive::Issue(p)).unwrap(); // buffered write to v1
        assert!(matches!(
            m.peek_next(p),
            NextEvent::CommitNext { var: VarId(1), .. }
        ));
        let e = m.step(Directive::Issue(p)).unwrap(); // drains buffer first
        assert!(matches!(
            e.kind,
            EventKind::CommitWrite { var: VarId(1), .. }
        ));
        let e = m.step(Directive::Issue(p)).unwrap(); // now the CAS
        assert!(matches!(e.kind, EventKind::Cas { success: true, .. }));
    }

    #[test]
    fn run_until_special_stops_before_specials() {
        let sys = ScriptSystem::new(1, 2, |_| {
            vec![
                Instr::Enter,
                Instr::Write { var: 0, value: 1 }, // non-special
                Instr::Write { var: 1, value: 2 }, // non-special
                Instr::Read { var: 0, reg: 0 },    // buffer read: non-special
                Instr::Read { var: 1, reg: 1 },    // buffer read: non-special
                Instr::Fence,                      // special
                Instr::Cs,
                Instr::Exit,
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        let next = m.run_until_special(p, 100).unwrap();
        assert_eq!(next, NextEvent::Transition(Op::Enter));
        m.step(Directive::Issue(p)).unwrap();
        let next = m.run_until_special(p, 100).unwrap();
        assert_eq!(next, NextEvent::BeginFence);
        assert_eq!(m.metrics().proc(p).totals.events, 5); // Enter + 2 writes + 2 buffer reads
    }

    #[test]
    fn run_until_special_detects_livelock() {
        // An (incorrect) program that spins on a cached read forever: after
        // the first remote read the re-reads are non-special.
        let sys = ScriptSystem::new(1, 1, |_| {
            vec![
                Instr::Read { var: 0, reg: 0 },
                // Loop to self while v0 == 0 (it always is).
                Instr::JumpIfZero { reg: 0, target: 0 },
                Instr::Halt,
            ]
        });
        let mut m = Machine::new(&sys);
        let p = ProcId(0);
        // First step: the critical read is special, execute it manually.
        assert!(matches!(
            m.peek_next(p),
            NextEvent::Read { critical: true, .. }
        ));
        m.step(Directive::Issue(p)).unwrap();
        let err = m.run_until_special(p, 50).unwrap_err();
        assert!(matches!(err, StepError::NonTermination { .. }));
    }

    #[test]
    fn commit_on_empty_buffer_errors() {
        let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Halt]);
        let mut m = Machine::new(&sys);
        assert_eq!(
            m.step(Directive::Commit(ProcId(0))).unwrap_err(),
            StepError::EmptyBuffer(ProcId(0))
        );
    }

    #[test]
    fn halted_process_cannot_be_issued() {
        let sys = ScriptSystem::new(1, 1, |_| vec![Instr::Halt]);
        let mut m = Machine::new(&sys);
        assert_eq!(m.peek_next(ProcId(0)), NextEvent::Halted);
        assert_eq!(
            m.step(Directive::Issue(ProcId(0))).unwrap_err(),
            StepError::Halted(ProcId(0))
        );
    }

    #[test]
    fn dsm_ownership_makes_local_accesses_free() {
        use crate::program::System;
        use crate::vars::VarSpec;

        struct LocalSpin;
        impl System for LocalSpin {
            fn n(&self) -> usize {
                1
            }
            fn vars(&self) -> VarSpec {
                let mut b = VarSpec::builder();
                b.var("mine", 0, Some(ProcId(0)));
                b.var("theirs", 0, Some(ProcId(1)));
                b.build()
            }
            fn program(&self, _pid: ProcId) -> Box<dyn Program> {
                crate::scripted::script(vec![
                    Instr::Read { var: 0, reg: 0 }, // local
                    Instr::Read { var: 1, reg: 1 }, // remote
                    Instr::Halt,
                ])
            }
        }
        let mut m = Machine::new(&LocalSpin);
        let e = m.step(Directive::Issue(ProcId(0))).unwrap();
        assert!(!e.critical, "local reads are never critical");
        let e = m.step(Directive::Issue(ProcId(0))).unwrap();
        assert!(e.critical);
        assert_eq!(m.metrics().proc(ProcId(0)).totals.rmr_dsm, 1);
    }
}

#[cfg(test)]
mod pso_tests {
    use super::*;
    use crate::scripted::{Instr, ScriptSystem};

    fn two_writes() -> ScriptSystem {
        ScriptSystem::new(1, 2, |_| {
            vec![
                Instr::Write { var: 0, value: 1 },
                Instr::Write { var: 1, value: 2 },
                Instr::Fence,
                Instr::Halt,
            ]
        })
    }

    #[test]
    fn pending_vars_lists_buffer_in_issue_order() {
        let sys = two_writes();
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(0))).unwrap();
        assert_eq!(m.pending_vars(ProcId(0)), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn pso_commit_var_reorders_and_tso_rejects() {
        let sys = two_writes();
        let mut m = Machine::with_model(&sys, MemoryModel::Pso);
        assert_eq!(m.model(), MemoryModel::Pso);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::CommitVar(ProcId(0), VarId(1))).unwrap();
        assert_eq!(m.value(VarId(1)), 2);
        assert_eq!(m.value(VarId(0)), 0, "older write still buffered");
        // The per-variable order is still enforced (no double commit).
        assert!(matches!(
            m.step(Directive::CommitVar(ProcId(0), VarId(1))),
            Err(StepError::BadCommit { .. })
        ));

        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(0))).unwrap();
        assert!(matches!(
            m.step(Directive::CommitVar(ProcId(0), VarId(1))),
            Err(StepError::BadCommit { .. })
        ));
    }

    #[test]
    fn pso_fence_still_drains_everything() {
        let sys = two_writes();
        let mut m = Machine::with_model(&sys, MemoryModel::Pso);
        let p = ProcId(0);
        m.step(Directive::Issue(p)).unwrap();
        m.step(Directive::Issue(p)).unwrap();
        m.step(Directive::Issue(p)).unwrap(); // BeginFence
        while m.mode(p) == Mode::Write {
            m.step(Directive::Issue(p)).unwrap();
        }
        assert!(m.buffer_empty(p));
        assert_eq!(m.value(VarId(0)), 1);
        assert_eq!(m.value(VarId(1)), 2);
        assert_eq!(m.fences_completed(p), 1);
    }

    #[test]
    fn pso_commit_var_criticality_matches_commit_semantics() {
        let sys = ScriptSystem::new(2, 2, |pid| {
            vec![
                Instr::Write {
                    var: pid.0,
                    value: 5,
                },
                Instr::Write {
                    var: 1 - pid.0,
                    value: 6,
                },
                Instr::Fence,
                Instr::Halt,
            ]
        });
        let mut m = Machine::with_model(&sys, MemoryModel::Pso);
        m.step(Directive::Issue(ProcId(0))).unwrap();
        m.step(Directive::Issue(ProcId(0))).unwrap();
        // Out-of-order commit of v1 (first commit to v1 ever): critical.
        let e = m.step(Directive::CommitVar(ProcId(0), VarId(1))).unwrap();
        assert!(e.critical);
        // In-order commit of v0: also critical (writer was nobody).
        let e = m.step(Directive::CommitVar(ProcId(0), VarId(0))).unwrap();
        assert!(e.critical);
    }
}
