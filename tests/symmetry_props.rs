//! Machine-level properties of the symmetry machinery: the permuted
//! fingerprint, the canonical cache key, and the symmetry group itself,
//! checked along random walks of real portfolio locks.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tpa::check::enabled_all;
use tpa::prelude::*;
use tpa::tso::sched::XorShift;
use tpa::tso::{RenamedHashes, SymmetryGroup};

/// Walks `steps` random enabled directives, calling `at` on the machine
/// after every step.
fn random_walk(sys: &dyn System, seed: u64, steps: usize, mut at: impl FnMut(&Machine)) {
    let mut m = Machine::new(sys);
    let mut rng = XorShift::new(seed | 1);
    for _ in 0..steps {
        let enabled = enabled_all(&m);
        if enabled.is_empty() {
            break;
        }
        m.step(enabled[rng.below(enabled.len())]).unwrap();
        at(&m);
    }
}

/// How often a renaming changed validity across one step, per system.
#[derive(Default)]
struct Flips {
    /// Renamings the parent could not express and the child can.
    to_valid: usize,
    /// Renamings the parent could express and the child cannot.
    to_invalid: usize,
}

/// Walks `walks` random schedules of `steps` directives through search
/// forks, as the exhaustive engine does: each child is forked into the
/// one machine the walk has finished with, and each child's renaming
/// table is rebuilt from its parent's into the table that machine
/// carried. At every step the carried table must agree with one built
/// from scratch, and with [`Machine::state_hash_permuted`], on every
/// renaming's validity and hash, and its canonical key must be
/// [`Machine::canonical_state_key`]'s, index included. Counts validity
/// flips into `flips`.
fn walk_carried_tables(
    sys: &dyn System,
    model: MemoryModel,
    crashes: u32,
    walks: u64,
    steps: usize,
    flips: &mut Flips,
) {
    let label = format!(
        "{} (n = {}, {model:?}, crashes {crashes})",
        sys.name(),
        sys.n()
    );
    let group = SymmetryGroup::for_spec(&sys.vars(), sys.n());
    assert!(group.len() > 1, "{label}: no renaming kept");
    let mut root = Machine::with_model(sys, model);
    root.set_crash_budget(crashes);
    let mut fresh = RenamedHashes::new();
    for walk in 0..walks {
        let mut parent = root.fork_for_search();
        let mut spare = root.fork_for_search();
        let mut parent_table = RenamedHashes::new();
        parent_table.rebuild(&parent, &group);
        let mut child_table = RenamedHashes::new();
        let mut rng = XorShift::new(0x7AB1E ^ (walk << 8) | 1);
        for step in 0..steps {
            let enabled = enabled_all(&parent);
            if enabled.is_empty() {
                break;
            }
            let d = enabled[rng.below(enabled.len())];
            parent.fork_for_search_into(&mut spare);
            spare.step(d).unwrap();
            child_table.rebuild_after_step(&parent_table, &parent, d, &spare, &group);
            fresh.rebuild(&spare, &group);
            for idx in 0..group.len() {
                let carried = child_table.permuted_hash(&spare, idx);
                assert_eq!(
                    carried,
                    fresh.permuted_hash(&spare, idx),
                    "{label}, walk {walk}, step {step} ({d:?}): renaming {idx} \
                     carried differs from scratch"
                );
                assert_eq!(
                    carried,
                    spare.state_hash_permuted(group.perm(idx), group.var_map(idx)),
                    "{label}, walk {walk}, step {step} ({d:?}): renaming {idx}"
                );
                match (parent_table.permuted_hash(&parent, idx), carried) {
                    (None, Some(_)) => flips.to_valid += 1,
                    (Some(_), None) => flips.to_invalid += 1,
                    _ => {}
                }
            }
            assert_eq!(
                child_table.canonical_key(&spare),
                spare.canonical_state_key(&group),
                "{label}, walk {walk}, step {step} ({d:?}): canonical key"
            );
            std::mem::swap(&mut parent, &mut spare);
            std::mem::swap(&mut parent_table, &mut child_table);
        }
    }
}

/// A search node's renaming table, carried from its parent's through
/// each step, equals the one computed from scratch: along random walks
/// of every declared-symmetric lock at n = 3 and 4, native and compiled,
/// under TSO and PSO, with crash budgets 0 and 1, and of every
/// `symmetric` corpus scenario. On `filter`, `dijkstra` and `splitter`,
/// where renamings are valid only in some states, the walks must see
/// renamings become valid and become invalid, so the carried invalidity
/// witnesses are exercised.
#[test]
fn carried_renaming_tables_equal_tables_from_scratch() {
    let mut flips: BTreeMap<String, Flips> = BTreeMap::new();
    let configs = [MemoryModel::Tso, MemoryModel::Pso]
        .into_iter()
        .flat_map(|model| [0, 1].map(|crashes| (model, crashes)));
    for (model, crashes) in configs {
        for n in [3, 4] {
            for lock in all_locks(n, 1).into_iter().filter(|l| l.symmetric()) {
                let name = lock.name().to_owned();
                let tally = flips.entry(name.clone()).or_default();
                walk_carried_tables(lock.as_ref(), model, crashes, 3, 120, tally);
                let vm = lock
                    .compile_vm()
                    .unwrap_or_else(|| panic!("{name}: no bytecode compiler"));
                walk_carried_tables(&vm, model, crashes, 3, 120, tally);
            }
        }
        let mut scenarios = 0;
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        for sub in ["litmus", "locks", "crash"] {
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(sub))
                .expect("read scenarios directory")
                .map(|e| e.expect("directory entry").path())
                .filter(|p| p.extension().is_some_and(|e| e == "tpa"))
                .collect();
            files.sort();
            for path in files {
                let src = std::fs::read_to_string(&path).expect("read scenario");
                let scenario = tpa::dsl::compile_named(&src, &path.display().to_string())
                    .unwrap_or_else(|rendered| panic!("{rendered}"));
                if scenario.symmetric {
                    scenarios += 1;
                    let tally = flips.entry(scenario.name.clone()).or_default();
                    walk_carried_tables(&scenario.system, model, crashes, 3, 120, tally);
                }
            }
        }
        assert_eq!(scenarios, 5, "the corpus's symmetric scenarios");
    }
    for name in ["filter", "dijkstra", "splitter"] {
        let tally = &flips[name];
        assert!(
            tally.to_valid > 0 && tally.to_invalid > 0,
            "{name}: walks saw {} invalid→valid and {} valid→invalid renamings",
            tally.to_valid,
            tally.to_invalid
        );
    }
}

/// The identity permutation is always valid and reproduces the concrete
/// fingerprint exactly — along deep random walks of every lock that
/// declares symmetry.
#[test]
fn identity_permutation_reproduces_the_concrete_hash() {
    for lock in all_locks(3, 2) {
        if !lock.symmetric() {
            continue;
        }
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        assert!(group.perm(0).is_identity());
        random_walk(lock.as_ref(), 0xA11CE, 200, |m| {
            let under_id = m.state_hash_permuted(group.perm(0), group.var_map(0));
            assert_eq!(
                under_id,
                Some(m.state_key().0),
                "{}: identity renaming altered the fingerprint",
                lock.name()
            );
        });
    }
}

/// The canonical key is a *minimum over renamings that includes the
/// identity*: it never exceeds the concrete key, and asking twice gives
/// the same answer (the underlying permuted hashes are pure).
#[test]
fn canonical_key_is_a_stable_lower_bound() {
    for name in ["ticketq", "mcs", "splitter"] {
        let lock = lock_by_name(name, 3, 1).unwrap();
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        assert!(group.len() > 1, "{name}: no permutations kept");
        random_walk(lock.as_ref(), 0xBEE5, 150, |m| {
            let (key, idx) = m.canonical_state_key(&group);
            assert!(
                key.0 <= m.state_key().0,
                "{name}: canonical key above concrete"
            );
            if idx == 0 {
                assert_eq!(key, m.state_key());
            }
            assert_eq!(
                (key, idx),
                m.canonical_state_key(&group),
                "{name}: unstable"
            );
        });
    }
}

/// Orbit invariance, the property the cache rests on: running a schedule
/// and its π-renamed image lands the two machines on the same canonical
/// key at every step. Pinned on locks whose renamings are valid in every
/// state (no scans, no raw-pid-valued variables), where the lockstep
/// comparison can never be vacuous.
#[test]
fn renamed_schedules_share_canonical_keys_at_every_step() {
    for name in ["tas", "ttas", "ticketq"] {
        let lock = lock_by_name(name, 3, 1).unwrap();
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let idx = group
                .find_transposition(a, b)
                .unwrap_or_else(|| panic!("{name}: ({a} {b}) not kept"));
            let mut orig = Machine::new(lock.as_ref());
            let mut renamed = Machine::new(lock.as_ref());
            let mut rng = XorShift::new(0xD1CE ^ ((a as u64) << 8) ^ b as u64 | 1);
            for step in 0..200 {
                let enabled = enabled_all(&orig);
                if enabled.is_empty() {
                    break;
                }
                let d = enabled[rng.below(enabled.len())];
                orig.step(d).unwrap();
                renamed
                    .step(group.rename_directive(idx, d))
                    .unwrap_or_else(|e| {
                        panic!("{name}: renamed directive rejected at step {step}: {e}")
                    });
                assert_eq!(
                    orig.canonical_state_key(&group).0,
                    renamed.canonical_state_key(&group).0,
                    "{name}: orbit split at step {step} under ({a} {b})"
                );
            }
        }
    }
}

/// The kept group of every declared-symmetric portfolio lock is the full
/// symmetric group (validity is judged per state, not per spec), and the
/// genuinely asymmetric locks never claim otherwise.
#[test]
fn portfolio_symmetry_declarations_match_their_groups() {
    for (n, full) in [(2usize, 2usize), (3, 6)] {
        for lock in all_locks(n, 1) {
            let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
            if lock.symmetric() {
                assert_eq!(
                    group.len(),
                    full,
                    "{} at n={n}: spec rejects permutations",
                    lock.name()
                );
            }
        }
    }
}
