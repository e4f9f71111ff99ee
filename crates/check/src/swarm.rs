//! Swarm testing: seeded *biased* random schedules.
//!
//! Where [`crate::explore`] is exhaustive up to a bound, swarm mode trades
//! completeness for reach: many independent random schedules, each drawn
//! from a deliberately skewed distribution. Uniform random scheduling
//! almost never lingers in the adversarial corners of the TSO state space
//! — a violation that needs a write to stay buffered for thirty steps has
//! vanishing probability under a fair coin. Each swarm schedule therefore
//! commits to one [`Bias`] for its whole run (the "swarm testing" idea of
//! Groce et al.: feature-biased configurations find more bugs than any
//! single fair distribution).
//!
//! The runtime discipline matches the exhaustive engine's: schedules fan
//! out across a worker pool, every schedule runs inside a panic firewall,
//! and an expired deadline stops the swarm with a truthful incomplete
//! reason instead of an overrun. Determinism across thread counts comes
//! from the *reporting* rule, not the execution order: schedule `i`'s run
//! depends only on `(seed, i)`, workers claim indices from a shared
//! counter, an index is skipped only when a violation at a *lower* index
//! is already recorded, and the violation reported is the one with the
//! lowest schedule index — the same one a sequential sweep finds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tpa_obs::{Metrics, Probe};
use tpa_tso::sched::XorShift;
use tpa_tso::{Directive, Machine, MemoryModel, Mode, ProcId, System};

use crate::explore::{enabled_all, FoundViolation, IncompleteReason};
use crate::invariant::Invariant;
use crate::parallel::{total, Search, Telemetry, WorkerStats};
use crate::verdict::EffortStats;

/// How many schedules a swarm worker completes between reports (probe
/// snapshot and registry write). Schedules are coarse units — hundreds
/// to thousands of transitions — so this is far rarer than the
/// exhaustive engine's per-expansion cadence.
const SNAPSHOT_EVERY_SCHEDULES: u64 = 16;

/// Swarm search bounds.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Number of independent schedules to run.
    pub schedules: usize,
    /// Step bound per schedule.
    pub max_steps: usize,
    /// Base seed; schedule `i` derives its generator from `(seed, i)`.
    pub seed: u64,
    /// Crash budget per schedule: how many crash directives the random
    /// scheduler may pick in one run. 0 (the default) disables the fault
    /// model entirely.
    pub max_crashes: u32,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            schedules: 96,
            max_steps: 4096,
            seed: 0x0070_6170_6572,
            max_crashes: 0,
        }
    }
}

/// Everything a swarm run produced: the lowest-schedule-index violation,
/// the aggregate counters — schedules run (skipped ones, indices above
/// an already recorded violation, are not counted), transitions, and the
/// first abort condition (worker panic, expired deadline) if any run hit
/// one — and the per-worker counters they sum.
pub(crate) struct SwarmOutcome {
    pub found: Option<FoundViolation>,
    pub stats: EffortStats,
    pub workers: Vec<WorkerStats>,
}

/// The per-schedule scheduling bias.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bias {
    /// Starve commits: keep issuing, letting write buffers grow stale —
    /// maximises the window in which other processes read old values.
    CommitStarved,
    /// Stall fencing processes: prefer steps of processes *not* inside a
    /// fence, so a mid-drain process sits half-committed while the rest
    /// of the system runs over it.
    FenceStalled,
    /// Single-process bursts: run one process for a random burst length
    /// before switching — produces the sequential-ish prefixes that
    /// doorway-style protocols are sensitive to.
    Bursty,
}

const BIASES: [Bias; 3] = [Bias::CommitStarved, Bias::FenceStalled, Bias::Bursty];

struct Pool<'a> {
    system: &'a dyn System,
    model: MemoryModel,
    invariants: &'a [Box<dyn Invariant>],
    config: &'a SwarmConfig,
    deadline: Option<Instant>,
    /// Next unclaimed schedule index.
    next: AtomicUsize,
    /// Lowest violating schedule index recorded so far (`usize::MAX`
    /// while none): the skip threshold. Indices *below* it always run,
    /// which is what makes the lowest-index report deterministic.
    best_index: AtomicUsize,
    best: Mutex<Option<(usize, FoundViolation)>>,
    incomplete: Mutex<Option<IncompleteReason>>,
    next_worker: AtomicUsize,
    worker_stats: Mutex<Vec<WorkerStats>>,
    telemetry: Telemetry<'a>,
}

/// Runs biased random schedules across `threads` workers until every
/// schedule has run, a recorded violation makes the rest unreportable, or
/// the deadline expires. Panics inside a schedule (a buggy invariant or
/// program) are confined to that schedule and surface as
/// [`IncompleteReason::WorkerPanic`] — never a process abort, never a
/// false pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_swarm(
    system: &dyn System,
    model: MemoryModel,
    invariants: &[Box<dyn Invariant>],
    config: &SwarmConfig,
    threads: usize,
    deadline: Option<Instant>,
    probe: Option<&dyn Probe>,
    metrics: Option<&Metrics>,
) -> SwarmOutcome {
    let threads = threads.max(1).min(config.schedules.max(1));
    let pool = Pool {
        system,
        model,
        invariants,
        config,
        deadline,
        next: AtomicUsize::new(0),
        best_index: AtomicUsize::new(usize::MAX),
        best: Mutex::new(None),
        incomplete: Mutex::new(None),
        next_worker: AtomicUsize::new(0),
        worker_stats: Mutex::new(Vec::with_capacity(threads)),
        telemetry: Telemetry {
            probe,
            metrics,
            search: Search::Swarm,
        },
    };
    if threads == 1 {
        pool.worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| pool.worker());
            }
        });
    }
    let mut workers = pool
        .worker_stats
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    workers.sort_by_key(|w| w.worker);
    let sum = total(&workers);
    SwarmOutcome {
        found: pool
            .best
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .map(|(_, f)| f),
        stats: EffortStats {
            transitions: sum.transitions,
            schedules_run: sum.nodes_expanded as usize,
            // Kept even when a violation surfaced: the effort stats must
            // say the run was cut short.
            incomplete: pool
                .incomplete
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
            ..EffortStats::default()
        },
        workers,
    }
}

impl Pool<'_> {
    fn worker(&self) {
        let mut ws = WorkerStats {
            worker: self.next_worker.fetch_add(1, Ordering::Relaxed) as u32,
            ..WorkerStats::default()
        };
        let mut published = WorkerStats::default();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.config.schedules {
                break;
            }
            // A violation at a lower index is already recorded: nothing
            // at `i` can be reported, so don't burn time running it.
            // Indices below the recorded one are never skipped.
            if i > self.best_index.load(Ordering::Acquire) {
                continue;
            }
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.record_incomplete(IncompleteReason::DeadlineExpired);
                    break;
                }
            }
            let seed = self
                .config
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                | 1;
            let bias = BIASES[i % BIASES.len()];
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_one(
                    self.system,
                    self.model,
                    self.invariants,
                    bias,
                    seed,
                    self.config,
                    &mut ws.transitions,
                )
            }));
            ws.nodes_expanded += 1; // one schedule = one unit of work
            match result {
                Ok(Some(found)) => self.offer(i, found),
                Ok(None) => {}
                Err(payload) => self.record_incomplete(IncompleteReason::WorkerPanic {
                    message: crate::explore::panic_message(payload.as_ref()),
                }),
            }
            if ws.nodes_expanded.is_multiple_of(SNAPSHOT_EVERY_SCHEDULES) {
                self.telemetry.report(&ws, &mut published, 0, false);
            }
        }
        self.telemetry.report(&ws, &mut published, 0, true);
        self.worker_stats
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(ws);
    }

    /// Keeps the lowest-schedule-index violation.
    fn offer(&self, index: usize, found: FoundViolation) {
        let mut best = self
            .best
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match &*best {
            Some((recorded, _)) if *recorded <= index => {}
            _ => *best = Some((index, found)),
        }
        drop(best);
        self.best_index.fetch_min(index, Ordering::AcqRel);
    }

    /// Records the first abort condition; later ones are ignored.
    fn record_incomplete(&self, reason: IncompleteReason) {
        self.incomplete
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get_or_insert(reason);
    }
}

fn run_one(
    system: &dyn System,
    model: MemoryModel,
    invariants: &[Box<dyn Invariant>],
    bias: Bias,
    seed: u64,
    config: &SwarmConfig,
    transitions: &mut u64,
) -> Option<FoundViolation> {
    let mut machine = Machine::with_model(system, model);
    machine.set_crash_budget(config.max_crashes);
    let mut rng = XorShift::new(seed);
    // Bursty state: the process currently being run, and steps remaining.
    let mut burst: Option<(ProcId, usize)> = None;
    for _ in 0..config.max_steps {
        let enabled = enabled_all(&machine);
        if enabled.is_empty() {
            break;
        }
        let d = choose(&machine, &enabled, bias, &mut rng, &mut burst);
        machine
            .step(d)
            .unwrap_or_else(|e| panic!("swarm: enabled directive {d:?} failed: {e:?}"));
        *transitions += 1;
        for inv in invariants {
            if let Some(v) = inv.check(&machine) {
                return Some(FoundViolation {
                    violation: v,
                    schedule: machine.schedule().to_vec(),
                });
            }
        }
    }
    None
}

fn pick(rng: &mut XorShift, pool: &[Directive]) -> Directive {
    pool[rng.below(pool.len())]
}

fn choose(
    machine: &Machine,
    enabled: &[Directive],
    bias: Bias,
    rng: &mut XorShift,
    burst: &mut Option<(ProcId, usize)>,
) -> Directive {
    match bias {
        Bias::CommitStarved => {
            let issues: Vec<Directive> = enabled
                .iter()
                .copied()
                .filter(|d| matches!(d, Directive::Issue(_)))
                .collect();
            // 7-in-8 chance to keep buffers full.
            if !issues.is_empty() && rng.chance(224) {
                pick(rng, &issues)
            } else {
                pick(rng, enabled)
            }
        }
        Bias::FenceStalled => {
            let unfenced: Vec<Directive> = enabled
                .iter()
                .copied()
                .filter(|d| machine.mode(d.pid()) == Mode::Read)
                .collect();
            if !unfenced.is_empty() && rng.chance(224) {
                pick(rng, &unfenced)
            } else {
                pick(rng, enabled)
            }
        }
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
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::standard_invariants;
    use tpa_tso::scripted::{Instr, ScriptSystem};

    fn two_writers() -> ScriptSystem {
        ScriptSystem::new(3, 2, |pid| {
            vec![
                Instr::Write {
                    var: pid.0 % 2,
                    value: pid.0 as u64 + 1,
                },
                Instr::Read {
                    var: (pid.0 + 1) % 2,
                    reg: 0,
                },
                Instr::Fence,
                Instr::Halt,
            ]
        })
    }

    #[test]
    fn clean_system_passes_all_biases() {
        let sys = two_writers();
        let invs = standard_invariants();
        let cfg = SwarmConfig {
            schedules: 9,
            max_steps: 512,
            seed: 1,
            ..SwarmConfig::default()
        };
        let out = run_swarm(&sys, MemoryModel::Tso, &invs, &cfg, 1, None, None, None);
        assert!(out.found.is_none(), "{:?}", out.found);
        assert!(out.stats.incomplete.is_none());
        assert_eq!(out.stats.schedules_run, 9);
        assert!(out.stats.transitions > 0);
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].nodes_expanded, 9);
    }

    #[test]
    fn swarm_is_deterministic_in_the_seed() {
        let sys = two_writers();
        let invs = standard_invariants();
        let cfg = SwarmConfig {
            schedules: 6,
            max_steps: 256,
            seed: 42,
            ..SwarmConfig::default()
        };
        let a = run_swarm(&sys, MemoryModel::Tso, &invs, &cfg, 1, None, None, None);
        let b = run_swarm(&sys, MemoryModel::Tso, &invs, &cfg, 1, None, None, None);
        assert_eq!(a.stats.transitions, b.stats.transitions);
    }

    #[test]
    fn worker_counters_sum_to_the_pool_counters() {
        let sys = two_writers();
        let invs = standard_invariants();
        let cfg = SwarmConfig {
            schedules: 12,
            max_steps: 256,
            seed: 7,
            ..SwarmConfig::default()
        };
        let metrics = Metrics::new();
        let out = run_swarm(
            &sys,
            MemoryModel::Tso,
            &invs,
            &cfg,
            4,
            None,
            None,
            Some(&metrics),
        );
        let t: u64 = out.workers.iter().map(|w| w.transitions).sum();
        let n: u64 = out.workers.iter().map(|w| w.nodes_expanded).sum();
        assert_eq!(t, out.stats.transitions);
        assert_eq!(n, out.stats.schedules_run as u64);
        assert_eq!(n, 12);
        // Every schedule depends only on (seed, index): one worker runs
        // the same transitions four do.
        let one = run_swarm(&sys, MemoryModel::Tso, &invs, &cfg, 1, None, None, None);
        assert_eq!(one.stats.transitions, t);
        // The registry is written from the same worker counters.
        assert_eq!(metrics.counter_value("search.transitions"), Some(t));
        assert_eq!(metrics.counter_value("swarm.schedules"), Some(n));
        assert_eq!(metrics.counter_value("search.nodes_expanded"), Some(0));
    }

    #[test]
    fn an_already_expired_deadline_stops_the_swarm_truthfully() {
        let sys = two_writers();
        let invs = standard_invariants();
        let cfg = SwarmConfig {
            schedules: 50,
            max_steps: 256,
            seed: 3,
            ..SwarmConfig::default()
        };
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let out = run_swarm(
            &sys,
            MemoryModel::Tso,
            &invs,
            &cfg,
            2,
            Some(past),
            None,
            None,
        );
        assert!(out.found.is_none());
        assert_eq!(
            out.stats.incomplete,
            Some(IncompleteReason::DeadlineExpired)
        );
        assert_eq!(out.stats.schedules_run, 0, "no schedule should start");
    }
}
