//! Replays of the checker's two search modes through the layers' public
//! functions, so each layer can be timed from outside the program.
//!
//! [`dfs`] mirrors the engine's single-thread exhaustive search
//! (`Engine::expand` in `tpa_check::parallel`) step for step, and [`walk`]
//! mirrors one swarm worker (`run_one` in `tpa_check::swarm`). Where the
//! engine uses crate-private code (`StateCache`, `SleepSet`, the swarm's
//! bias picker) the replay carries a stand-in with the same behaviour. A
//! replay is only trusted when it reproduces the engine's counters
//! exactly; the caller checks that.
//!
//! Every call into a layer goes through a [`Clock`]: [`Untraced`] compiles
//! to the bare call, [`Tracer`] wraps it in a span.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tpa_check::{enabled_all, Bias, Invariant};
use tpa_tso::sched::XorShift;
use tpa_tso::{
    Directive, FxBuildHasher, Machine, MemoryModel, Mode, ProcId, StateKey, SymmetryGroup, System,
};

/// A layer of the checker, as the trace attributes time to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Fork,
    Step,
    Enabled,
    Independent,
    StateKey,
    CanonicalKey,
    Battery,
    CacheAdmit,
    SleepUpdate,
    Child,
    Drop,
    SwarmChoose,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Fork,
        Layer::Step,
        Layer::Enabled,
        Layer::Independent,
        Layer::StateKey,
        Layer::CanonicalKey,
        Layer::Battery,
        Layer::CacheAdmit,
        Layer::SleepUpdate,
        Layer::Child,
        Layer::Drop,
        Layer::SwarmChoose,
    ];

    /// The metric prefix: crate, module, function.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fork => "tso.machine.fork",
            Layer::Step => "tso.machine.step",
            Layer::Enabled => "tso.machine.enabled",
            Layer::Independent => "tso.machine.independent",
            Layer::StateKey => "tso.machine.state_key",
            Layer::CanonicalKey => "tso.perm.canonical_key",
            Layer::Battery => "check.invariant.battery",
            Layer::CacheAdmit => "check.cache.admit",
            Layer::SleepUpdate => "check.sleep.update",
            Layer::Child => "check.parallel.child",
            Layer::Drop => "check.parallel.drop",
            Layer::SwarmChoose => "check.swarm.choose",
        }
    }
}

/// Where a replay sends each layer call.
pub trait Clock {
    /// Runs `f`, the work of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;

    /// Marks the start of one node expansion (one step, for a walk).
    fn expansion(&mut self) {}
}

/// No timing: the replay runs at full speed.
pub struct Untraced;

impl Clock for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Every this many expansions, the spans of one are kept for the
/// trace-event file.
const SAMPLE_EVERY: u64 = 256;
/// Upper bound on kept spans, so the trace-event file stays small.
const MAX_EVENTS: usize = 50_000;

struct Event {
    layer: Layer,
    expansion: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Aggregates spans per layer in memory; keeps the spans of every
/// [`SAMPLE_EVERY`]th expansion for a Perfetto-readable file.
pub struct Tracer {
    pub calls: [u64; Layer::ALL.len()],
    pub ns: [u64; Layer::ALL.len()],
    epoch: Instant,
    expansions: u64,
    sampling: bool,
    events: Vec<Event>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            calls: [0; Layer::ALL.len()],
            ns: [0; Layer::ALL.len()],
            epoch: Instant::now(),
            expansions: 0,
            sampling: false,
            events: Vec::new(),
        }
    }

    /// Renders the kept spans as Chrome trace events: one `expand` slice
    /// per sampled expansion with its layer spans nested inside.
    pub fn trace_events(&self, label: &str) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            tpa_obs::json::escape(label)
        );
        let slice = |out: &mut String, name: &str, start: u64, dur: u64| {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{name}\",\"cat\":\"replay\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                us(start),
                us(dur)
            );
        };
        for group in self.events.chunk_by(|a, b| a.expansion == b.expansion) {
            let first = group.first().expect("chunks are never empty");
            let end = group
                .iter()
                .map(|e| e.start_ns + e.dur_ns)
                .max()
                .unwrap_or(first.start_ns);
            slice(&mut out, "expand", first.start_ns, end - first.start_ns);
            for e in group {
                slice(&mut out, e.layer.name(), e.start_ns, e.dur_ns);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

impl Clock for Tracer {
    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        self.ns[layer as usize] += dur;
        if self.sampling {
            self.events.push(Event {
                layer,
                expansion: self.expansions,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                dur_ns: dur,
            });
        }
        r
    }

    fn expansion(&mut self) {
        self.expansions += 1;
        self.sampling =
            self.expansions.is_multiple_of(SAMPLE_EVERY) && self.events.len() < MAX_EVENTS;
    }
}

/// The measured duration of an empty span, in ns: what each span adds
/// to the time it reports. The median of several batches.
pub fn calibrate() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut t = Tracer::new();
            for _ in 0..100_000 {
                t.span(Layer::Step, || black_box(()));
            }
            t.ns[Layer::Step as usize] as f64 / t.calls[Layer::Step as usize] as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Stand-in for the engine's sorted small-vector sleep set.
#[derive(Clone, Default)]
struct Sleep(Vec<Directive>);

impl Sleep {
    fn contains(&self, d: Directive) -> bool {
        self.0.binary_search(&d).is_ok()
    }

    fn insert(&mut self, d: Directive) {
        if let Err(i) = self.0.binary_search(&d) {
            self.0.insert(i, d);
        }
    }

    /// A merge walk over the two sorted vectors.
    fn is_subset(&self, other: &Sleep) -> bool {
        let mut theirs = other.0.iter();
        'mine: for d in &self.0 {
            for t in theirs.by_ref() {
                match t.cmp(d) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'mine,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

type Rank = Arc<[u32]>;

struct Entry {
    sleep: Sleep,
    depth: u32,
    rank: Rank,
}

/// Stand-in for the engine's single-shard state cache: same key type,
/// same hasher, same subsumption rule, no lock.
#[derive(Default)]
struct Cache(HashMap<StateKey, Vec<Entry>, FxBuildHasher>);

impl Cache {
    /// Records a visit unless an earlier one subsumes it; `true` means
    /// the node must be expanded.
    fn admit(&mut self, key: StateKey, sleep: &Sleep, depth: u32, rank: &Rank) -> bool {
        let entries = self.0.entry(key).or_default();
        if entries
            .iter()
            .any(|e| e.depth <= depth && e.rank <= *rank && e.sleep.is_subset(sleep))
        {
            return false;
        }
        entries.retain(|e| !(depth <= e.depth && *rank <= e.rank && sleep.is_subset(&e.sleep)));
        entries.push(Entry {
            sleep: sleep.clone(),
            depth,
            rank: rank.clone(),
        });
        true
    }
}

struct Node {
    machine: Machine,
    sleep: Sleep,
    depth: u32,
    rank: Rank,
    path: Vec<Directive>,
}

/// One exhaustive check, as the engine would run it on one thread.
pub struct Search<'a> {
    pub system: &'a dyn System,
    pub model: MemoryModel,
    pub invariants: &'a [Box<dyn Invariant>],
    pub max_steps: usize,
    pub max_transitions: u64,
    pub max_crashes: u32,
    /// The validated symmetry group, when the engine keyed canonically.
    pub symmetry: Option<&'a SymmetryGroup>,
}

/// What a replay did, in the engine's own counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    pub transitions: u64,
    pub pruned_sleep: u64,
    pub cache_skips: u64,
    pub unique_states: usize,
    pub schedules_run: usize,
    pub complete: bool,
    pub violation: bool,
}

/// Replays the single-thread exhaustive search. Also returns how many
/// canonical keys renamed the state (not an engine counter).
pub fn dfs<C: Clock>(s: &Search, clock: &mut C) -> (Counts, u64) {
    let mut counts = Counts::default();
    let mut renamed_keys = 0;
    let mut root = Machine::with_model(s.system, s.model);
    root.set_crash_budget(s.max_crashes);
    let root_violates = s.invariants.iter().any(|inv| inv.check(&root).is_some());
    if root_violates || s.max_steps == 0 {
        counts.unique_states = 1;
        counts.complete = true;
        counts.violation = root_violates;
        return (counts, 0);
    }
    let mut cache = Cache::default();
    let root_rank: Rank = Arc::from(&[] as &[u32]);
    let root_key = match s.symmetry {
        None => root.state_key(),
        Some(g) => root.canonical_state_key(g).0,
    };
    cache.admit(root_key, &Sleep::default(), 0, &root_rank);
    let mut stack = vec![Node {
        machine: root,
        sleep: Sleep::default(),
        depth: 0,
        rank: root_rank,
        path: Vec::new(),
    }];
    // Rank of the least violating child found so far: no node at a
    // greater rank can improve on it.
    let mut best: Option<Rank> = None;
    let mut aborted = false;
    while let Some(node) = stack.pop() {
        if best.as_ref().is_some_and(|b| node.rank >= *b) {
            clock.span(Layer::Drop, || drop(node));
            continue;
        }
        clock.expansion();
        let mut done = Sleep::default();
        let start = stack.len();
        let enabled = clock.span(Layer::Enabled, || enabled_all(&node.machine));
        for (i, d) in enabled.into_iter().enumerate() {
            if clock.span(Layer::SleepUpdate, || node.sleep.contains(d)) {
                counts.pruned_sleep += 1;
                continue;
            }
            counts.transitions += 1;
            if counts.transitions > s.max_transitions {
                aborted = true;
                break;
            }
            let mut child = clock.span(Layer::Fork, || node.machine.fork_for_search());
            clock
                .span(Layer::Step, || child.step(d))
                .unwrap_or_else(|e| panic!("replay: enabled directive {d:?} failed: {e:?}"));
            let child_rank: Rank = clock.span(Layer::Child, || {
                let mut r = Vec::with_capacity(node.rank.len() + 1);
                r.extend_from_slice(&node.rank);
                r.push(i as u32);
                Arc::from(r)
            });
            let violated = clock.span(Layer::Battery, || {
                s.invariants.iter().any(|inv| inv.check(&child).is_some())
            });
            if violated {
                counts.violation = true;
                if best.as_ref().is_none_or(|b| child_rank < *b) {
                    best = Some(child_rank);
                }
                clock.span(Layer::Drop, || drop(child));
                break;
            }
            let mut child_sleep = Sleep::default();
            for other in node.sleep.0.iter().chain(&done.0) {
                if clock.span(Layer::Independent, || node.machine.independent(d, *other)) {
                    clock.span(Layer::SleepUpdate, || child_sleep.insert(*other));
                }
            }
            clock.span(Layer::SleepUpdate, || done.insert(d));
            let child_depth = node.depth + 1;
            let (key, renamed) = match s.symmetry {
                None => (clock.span(Layer::StateKey, || child.state_key()), None),
                Some(g) => {
                    let (key, idx) =
                        clock.span(Layer::CanonicalKey, || child.canonical_state_key(g));
                    let renamed = (idx != 0).then(|| {
                        renamed_keys += 1;
                        clock.span(Layer::SleepUpdate, || {
                            let mut r = Sleep::default();
                            for d in &child_sleep.0 {
                                r.insert(g.rename_directive(idx, *d));
                            }
                            r
                        })
                    });
                    (key, renamed)
                }
            };
            let cache_sleep = renamed.as_ref().unwrap_or(&child_sleep);
            if !clock.span(Layer::CacheAdmit, || {
                cache.admit(key, cache_sleep, child_depth, &child_rank)
            }) {
                counts.cache_skips += 1;
                clock.span(Layer::Drop, || drop((child, child_sleep, child_rank)));
                continue;
            }
            if child_depth as usize >= s.max_steps {
                clock.span(Layer::Drop, || drop((child, child_sleep, child_rank)));
                continue;
            }
            let path = clock.span(Layer::Child, || {
                let mut p = Vec::with_capacity(node.path.len() + 1);
                p.extend_from_slice(&node.path);
                p.push(d);
                p
            });
            stack.push(Node {
                machine: child,
                sleep: child_sleep,
                depth: child_depth,
                rank: child_rank,
                path,
            });
        }
        if aborted {
            break;
        }
        // Least sibling on top, as in the engine.
        stack[start..].reverse();
        clock.span(Layer::Drop, || drop(node));
    }
    counts.unique_states = cache.0.len();
    counts.complete = !aborted;
    (counts, renamed_keys)
}

/// One swarm check, as a single swarm worker would run it.
pub struct Walk<'a> {
    pub system: &'a dyn System,
    pub model: MemoryModel,
    pub invariants: &'a [Box<dyn Invariant>],
    pub schedules: usize,
    pub max_steps: usize,
    pub seed: u64,
}

/// Replays the swarm's biased random schedules in index order, stopping
/// after the first violating one as a single worker does.
pub fn walk<C: Clock>(w: &Walk, clock: &mut C) -> Counts {
    const BIASES: [Bias; 3] = [Bias::CommitStarved, Bias::FenceStalled, Bias::Bursty];
    let mut counts = Counts::default();
    for i in 0..w.schedules {
        let seed = w
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            | 1;
        let bias = BIASES[i % BIASES.len()];
        let mut machine = Machine::with_model(w.system, w.model);
        machine.set_crash_budget(0);
        let mut rng = XorShift::new(seed);
        let mut burst = None;
        for _ in 0..w.max_steps {
            clock.expansion();
            let enabled = clock.span(Layer::Enabled, || enabled_all(&machine));
            if enabled.is_empty() {
                break;
            }
            let d = clock.span(Layer::SwarmChoose, || {
                choose(&machine, &enabled, bias, &mut rng, &mut burst)
            });
            clock
                .span(Layer::Step, || machine.step(d))
                .unwrap_or_else(|e| panic!("replay: enabled directive {d:?} failed: {e:?}"));
            counts.transitions += 1;
            if clock.span(Layer::Battery, || {
                w.invariants.iter().any(|inv| inv.check(&machine).is_some())
            }) {
                counts.violation = true;
                break;
            }
        }
        counts.schedules_run += 1;
        clock.span(Layer::Drop, || drop(machine));
        if counts.violation {
            break;
        }
    }
    counts
}

/// Stand-in for the swarm's private bias picker (`swarm::choose`); it
/// must draw from `rng` exactly as the original does.
fn choose(
    machine: &Machine,
    enabled: &[Directive],
    bias: Bias,
    rng: &mut XorShift,
    burst: &mut Option<(ProcId, usize)>,
) -> Directive {
    let pick = |rng: &mut XorShift, pool: &[Directive]| pool[rng.below(pool.len())];
    let preferred: Vec<Directive> = match bias {
        Bias::CommitStarved => enabled
            .iter()
            .copied()
            .filter(|d| matches!(d, Directive::Issue(_)))
            .collect(),
        Bias::FenceStalled => enabled
            .iter()
            .copied()
            .filter(|d| machine.mode(d.pid()) == Mode::Read)
            .collect(),
        Bias::Bursty => {
            if let Some((p, left)) = *burst {
                let mine: Vec<Directive> =
                    enabled.iter().copied().filter(|d| d.pid() == p).collect();
                if left > 0 && !mine.is_empty() {
                    *burst = Some((p, left - 1));
                    return pick(rng, &mine);
                }
            }
            let d = pick(rng, enabled);
            *burst = Some((d.pid(), 1 + rng.below(12)));
            return d;
        }
    };
    if !preferred.is_empty() && rng.chance(224) {
        pick(rng, &preferred)
    } else {
        pick(rng, enabled)
    }
}
