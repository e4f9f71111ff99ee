//! Durable, resumable search snapshots.
//!
//! A checkpoint freezes an exhaustive search mid-flight: which of its
//! two searches was running ([`SearchPhase`]), the explicit frontier
//! (each node's rank, sleep set and schedule prefix — machines are
//! rebuilt on resume by replaying the rank, which must reproduce the
//! stored prefix), the sharded visited-state cache with its rank tags,
//! the effort counters, the best violation candidate found so far, and a
//! fingerprint of everything that determines the shape of the state
//! space. Restoring all six reproduces the search's exact position:
//! resuming an interrupted run yields the same verdict, the same
//! lexicographically least witness and the same unique/canonical state
//! counts as the run that was never interrupted (pinned by the
//! `checkpoint_resume` differential suite). A verdict-phase checkpoint
//! resumes as a verdict search at any thread count; a witness-phase one
//! resumes as the sequential witness search. Cache entries keep their
//! real ranks in both, so one entry layout serves both phases.
//!
//! The wire format has a magic/version header, explicit little-endian
//! integers, and a decoder that fails with a byte offset and section
//! context — never a panic — on malformed input. On top of
//! that, durability demands more than structure checks: the header
//! carries the payload length and an FNV-1a checksum of the payload, so
//! a short write, a torn write or a flipped bit is *detected*, not
//! silently resumed into an unsound search. (FNV-1a's per-byte round
//! `h = (h ^ b) * p` is a bijection in `h`, so any single corrupted byte
//! provably changes the final checksum.)
//!
//! Files are written through [`FailpointWriter`] — temp file, `fsync`,
//! rename, the run-ledger discipline — which doubles as the fault-
//! injection layer: tests save through a writer armed with a
//! [`WriteFault`] and prove the loader rejects every corruption class
//! with a truthful diagnostic.

use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use tpa_tso::{Directive, MemoryModel, ProcId, System, VarId};

use crate::explore::replay;
use crate::parallel::SearchPhase;

/// File magic: `TPACKPT` plus a format generation digit.
const MAGIC: &[u8; 8] = b"TPACKPT1";

/// Wire-format version; bump on breaking layout changes so old files
/// fail with "unsupported version", not garbage. Version 2 added the
/// phase byte.
const VERSION: u32 = 2;

/// Header size: magic (8) + version (4) + payload length (8) +
/// payload checksum (8).
const HEADER_LEN: usize = 28;

/// FNV-1a over `bytes` — the payload checksum. Each round is a bijection
/// in the accumulator, so one corrupted byte always changes the result.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh checkpoint id, in the run ledger's id style
/// (`{unix_micros:016x}-{pid}-{seq:04}`): lexicographic order is
/// creation order and concurrent processes cannot collide.
pub(crate) fn fresh_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64);
    format!(
        "{now:016x}-{}-{:04}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Which part of a checkpoint a [`CheckpointError`] was found in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// The magic/version/length/checksum header.
    Header,
    /// The checkpoint id string.
    Id,
    /// The search fingerprint.
    Fingerprint,
    /// The search phase byte.
    Phase,
    /// The effort counters.
    Counters,
    /// The best violation candidate.
    Candidate,
    /// The frontier node list.
    Frontier,
    /// The visited-state cache entries.
    Cache,
    /// Bytes past the end of the encoding.
    Trailer,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Header => write!(f, "header"),
            Section::Id => write!(f, "checkpoint id"),
            Section::Fingerprint => write!(f, "fingerprint"),
            Section::Phase => write!(f, "search phase"),
            Section::Counters => write!(f, "counters"),
            Section::Candidate => write!(f, "candidate"),
            Section::Frontier => write!(f, "frontier"),
            Section::Cache => write!(f, "state cache"),
            Section::Trailer => write!(f, "trailer"),
        }
    }
}

/// Why a checkpoint could not be loaded, saved or resumed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// The file could not be read or written at all.
    Io(String),
    /// The bytes are not a valid checkpoint: truncation, bit rot, a torn
    /// write, or plain not-a-checkpoint. Carries where the corruption was
    /// detected.
    Corrupt {
        /// Byte offset into the file where the problem was found.
        offset: usize,
        /// The checkpoint section being decoded.
        section: Section,
        /// What was malformed ("truncated", "checksum mismatch …", …).
        detail: String,
    },
    /// The checkpoint is intact but belongs to a different search —
    /// another system, model, bound, battery, or a stale build of the
    /// same scenario. Resuming it would be unsound, so the loader
    /// refuses with the first mismatching fingerprint field.
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "{msg}"),
            CheckpointError::Corrupt {
                offset,
                section,
                detail,
            } => write!(
                f,
                "corrupt checkpoint: {detail} at byte {offset} while reading {section}"
            ),
            CheckpointError::Incompatible(msg) => {
                write!(f, "checkpoint does not match this search: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything that determines the *shape* of the search space, pinned so
/// a checkpoint can only resume the search it was taken from. Interrupt
/// knobs (transition budget, deadline) are deliberately absent: they
/// decide when a run stops, not which states exist, so each resumed leg
/// brings its own.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Fingerprint {
    /// The (native) system's name.
    pub system: String,
    /// Process count.
    pub n: u32,
    /// Store-ordering model.
    pub model: MemoryModel,
    /// Whether [`crate::Execution::Compiled`] was requested.
    pub execution_compiled: bool,
    /// Whether [`crate::StateKeys::Canonical`] was requested.
    pub keys_canonical: bool,
    /// Schedule-length bound.
    pub max_steps: u64,
    /// Crash budget.
    pub max_crashes: u32,
    /// Names of the invariant battery, in battery order.
    pub invariants: Vec<String>,
    /// What deriving the search decided.
    pub derived: Derived,
}

/// The [`Fingerprint`] fields that deriving the search decides, not the
/// checker's configuration. Only `Search::pin` (in `checker.rs`) and
/// [`Checkpoint::decode`] build one, so no fingerprint can be written
/// without them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Derived {
    /// Whether the VM actually engaged (the system had a compiler).
    pub vm_engaged: bool,
    /// Whether symmetry reduction actually engaged (non-trivial group
    /// that survived validation).
    pub symmetry_engaged: bool,
    /// [`tpa_tso::Machine::state_hash`] of the initial state (with the
    /// crash budget applied) — catches a scenario whose programs changed
    /// since the checkpoint was written.
    pub init_state_hash: u64,
    /// FNV-1a over every process's encoded bytecode, taken from a VM
    /// compile of the system whether or not the run executes on the VM —
    /// the initial-state hash cannot see program text, so this is what
    /// flags a program edited since the snapshot. 0 when the system does
    /// not compile.
    pub code_hash: u64,
}

impl Fingerprint {
    /// The first field on which `self` (the resuming run) and `other`
    /// (the checkpoint) disagree, as a human-readable diagnostic: the
    /// fields the checker configures come first, then the [`Derived`]
    /// ones. `None` exactly when the two are equal.
    pub fn mismatch(&self, other: &Fingerprint) -> Option<String> {
        let field = |name: &str, a: &dyn fmt::Debug, b: &dyn fmt::Debug| {
            format!("{name} is {b:?} in the checkpoint but {a:?} here")
        };
        if self.system != other.system {
            return Some(field("system", &self.system, &other.system));
        }
        if self.n != other.n {
            return Some(field("process count", &self.n, &other.n));
        }
        if self.model != other.model {
            return Some(field("memory model", &self.model, &other.model));
        }
        if self.execution_compiled != other.execution_compiled {
            return Some(field(
                "execution",
                &self.execution_compiled,
                &other.execution_compiled,
            ));
        }
        if self.keys_canonical != other.keys_canonical {
            return Some(field(
                "state keys",
                &self.keys_canonical,
                &other.keys_canonical,
            ));
        }
        if self.max_steps != other.max_steps {
            return Some(field("max_steps", &self.max_steps, &other.max_steps));
        }
        if self.max_crashes != other.max_crashes {
            return Some(field("max_crashes", &self.max_crashes, &other.max_crashes));
        }
        if self.invariants != other.invariants {
            return Some(field(
                "invariant battery",
                &self.invariants,
                &other.invariants,
            ));
        }
        let (ours, theirs) = (&self.derived, &other.derived);
        if ours.vm_engaged != theirs.vm_engaged {
            return Some(field("vm engagement", &ours.vm_engaged, &theirs.vm_engaged));
        }
        if ours.symmetry_engaged != theirs.symmetry_engaged {
            return Some(field(
                "symmetry engagement",
                &ours.symmetry_engaged,
                &theirs.symmetry_engaged,
            ));
        }
        if ours.init_state_hash != theirs.init_state_hash {
            return Some(
                "the initial state hash differs — the scenario's programs or variables \
                 changed since the checkpoint was written (stale checkpoint)"
                    .to_owned(),
            );
        }
        if ours.code_hash != theirs.code_hash {
            return Some(
                "the compiled bytecode hash differs — the scenario was recompiled \
                 since the checkpoint was written (stale checkpoint)"
                    .to_owned(),
            );
        }
        None
    }
}

/// Cumulative effort counters carried across resume legs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct Counters {
    /// Machine transitions executed.
    pub transitions: u64,
    /// Sleep-set prunes.
    pub pruned_sleep: u64,
    /// State-cache skips.
    pub cache_skips: u64,
    /// Depth-bound truncations.
    pub truncated_paths: u64,
}

/// The best (lex-least-rank) violation found before the checkpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct CandidateData {
    /// Rank of the violating node.
    pub rank: Vec<u32>,
    /// Name of the invariant that fired (resolved back to the battery's
    /// `&'static str` on resume).
    pub invariant: String,
    /// Diagnosis from the violating state.
    pub detail: String,
    /// The violating schedule from the root.
    pub schedule: Vec<Directive>,
}

/// One frontier node, machine omitted: on resume the machine is rebuilt
/// by replaying `rank` from the initial state, and the replay must take
/// exactly `path`. (`path`, `rank` and the node's depth all grow by one
/// per tree edge, so depth is `path.len()`.)
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct FrontierNode {
    /// Sibling-index path from the root.
    pub rank: Vec<u32>,
    /// Directives asleep at this node.
    pub sleep: Vec<Directive>,
    /// The schedule from the root (the witness prefix).
    pub path: Vec<Directive>,
}

/// One visited-state cache entry, exactly as
/// [`crate::cache::StateCache`] holds it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct CacheEntryData {
    /// Sleep set of the recorded visit (already canonical-renamed when
    /// symmetry was engaged).
    pub sleep: Vec<Directive>,
    /// Depth of the recorded visit.
    pub depth: u32,
    /// Rank of the recorded visit.
    pub rank: Vec<u32>,
}

/// A search frozen mid-flight: the phase, the cumulative counters
/// (resume base included), the best violation candidate, the explicit
/// frontier and the full state cache. The engine snapshots into one and
/// resumes from one; a [`Checkpoint`] is one with an id and a
/// fingerprint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct SearchImage {
    pub phase: SearchPhase,
    pub counters: Counters,
    pub candidate: Option<CandidateData>,
    pub frontier: Vec<FrontierNode>,
    pub cache: Vec<(u64, Vec<CacheEntryData>)>,
}

/// A frozen exhaustive search: load with [`Checkpoint::load`], hand to
/// [`crate::Checker::resume_from`] to continue it. See the
/// [module docs](crate::checkpoint) for the format and its guarantees.
#[derive(Clone, PartialEq, Debug)]
pub struct Checkpoint {
    /// Unique id, assigned at write time; the run ledger's
    /// `checkpoint` / `resumed_from` lineage fields speak these ids.
    pub(crate) id: String,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) image: SearchImage,
}

impl Checkpoint {
    /// The checkpoint's unique id (ledger lineage speaks these).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Which search was interrupted, and so which one a resume continues.
    pub fn phase(&self) -> SearchPhase {
        self.image.phase
    }

    /// Machine transitions executed before the checkpoint.
    pub fn transitions(&self) -> u64 {
        self.image.counters.transitions
    }

    /// Whether a violation candidate was pending when the checkpoint was
    /// written.
    pub fn has_candidate(&self) -> bool {
        self.image.candidate.is_some()
    }

    /// The first stored position that does not belong to `system` (the
    /// system this checkpoint's fingerprint matched), as a diagnostic:
    /// a frontier node or candidate whose rank names no enabled
    /// directive or replays to a schedule other than the stored one, a
    /// frontier sleep set naming a process or variable `system` lacks,
    /// or a candidate naming an invariant outside the battery. Resuming
    /// any of these would panic or search states the system cannot
    /// reach.
    pub(crate) fn replay_mismatch(&self, system: &dyn System) -> Option<String> {
        let f = &self.fingerprint;
        let replays = |rank: &[u32], stored: &[Directive]| {
            replay(system, f.model, f.max_crashes, rank.iter().copied())
                .is_some_and(|(_, schedule)| schedule == stored)
        };
        let vars = system.vars().count();
        let known = |d: &Directive| {
            d.pid().index() < system.n()
                && match d {
                    Directive::CommitVar(_, v) => v.index() < vars,
                    _ => true,
                }
        };
        for (i, node) in self.image.frontier.iter().enumerate() {
            if !replays(&node.rank, &node.path) {
                return Some(format!(
                    "frontier node {i}: rank {:?} does not replay to its stored path {:?}",
                    node.rank, node.path
                ));
            }
            if let Some(d) = node.sleep.iter().find(|d| !known(d)) {
                return Some(format!(
                    "frontier node {i}: its sleep set names {d:?}, which this system lacks"
                ));
            }
        }
        let c = self.image.candidate.as_ref()?;
        if !replays(&c.rank, &c.schedule) {
            return Some(format!(
                "candidate: rank {:?} does not replay to its stored schedule {:?}",
                c.rank, c.schedule
            ));
        }
        if !f.invariants.contains(&c.invariant) {
            return Some(format!(
                "candidate: invariant {:?} is not in the battery",
                c.invariant
            ));
        }
        None
    }

    /// A human-readable multi-line summary (`obs_validate --checkpoint`
    /// prints this).
    pub fn describe(&self) -> String {
        let f = &self.fingerprint;
        format!(
            "checkpoint {id}\n  system: {sys} (n = {n}, {model:?})\n  \
             features: execution={exec} keys={keys} vm={vm} symmetry={sym}\n  \
             bounds: max_steps={steps} max_crashes={crashes}\n  \
             battery: {battery}\n  \
             phase: {phase}\n  \
             progress: {tr} transitions, {states} cached states, \
             {front} frontier nodes, candidate: {cand}",
            id = self.id,
            sys = f.system,
            n = f.n,
            model = f.model,
            exec = if f.execution_compiled {
                "compiled"
            } else {
                "native"
            },
            keys = if f.keys_canonical {
                "canonical"
            } else {
                "concrete"
            },
            vm = f.derived.vm_engaged,
            sym = f.derived.symmetry_engaged,
            steps = f.max_steps,
            crashes = f.max_crashes,
            battery = f.invariants.join(", "),
            phase = match self.image.phase {
                SearchPhase::Verdict => "verdict (resumes at any thread count)",
                SearchPhase::Witness => "witness (resumes on one thread)",
            },
            tr = self.image.counters.transitions,
            states = self.image.cache.len(),
            front = self.image.frontier.len(),
            cand = match &self.image.candidate {
                Some(c) => c.invariant.as_str(),
                None => "none",
            },
        )
    }

    /// Serialises the checkpoint to its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        enc_str(&mut p, &self.id);
        let f = &self.fingerprint;
        enc_str(&mut p, &f.system);
        enc_u32(&mut p, f.n);
        p.push(match f.model {
            MemoryModel::Tso => 0,
            MemoryModel::Pso => 1,
        });
        p.push(f.execution_compiled as u8);
        p.push(f.keys_canonical as u8);
        p.push(f.derived.vm_engaged as u8);
        p.push(f.derived.symmetry_engaged as u8);
        enc_u64(&mut p, f.max_steps);
        enc_u32(&mut p, f.max_crashes);
        enc_u64(&mut p, f.derived.init_state_hash);
        enc_u64(&mut p, f.derived.code_hash);
        enc_u32(&mut p, f.invariants.len() as u32);
        for name in &f.invariants {
            enc_str(&mut p, name);
        }
        p.push(match self.image.phase {
            SearchPhase::Verdict => 0,
            SearchPhase::Witness => 1,
        });
        enc_u64(&mut p, self.image.counters.transitions);
        enc_u64(&mut p, self.image.counters.pruned_sleep);
        enc_u64(&mut p, self.image.counters.cache_skips);
        enc_u64(&mut p, self.image.counters.truncated_paths);
        match &self.image.candidate {
            None => p.push(0),
            Some(c) => {
                p.push(1);
                enc_ranks(&mut p, &c.rank);
                enc_str(&mut p, &c.invariant);
                enc_str(&mut p, &c.detail);
                enc_directives(&mut p, &c.schedule);
            }
        }
        enc_u32(&mut p, self.image.frontier.len() as u32);
        for node in &self.image.frontier {
            enc_ranks(&mut p, &node.rank);
            enc_directives(&mut p, &node.sleep);
            enc_directives(&mut p, &node.path);
        }
        enc_u64(&mut p, self.image.cache.len() as u64);
        for (key, entries) in &self.image.cache {
            enc_u64(&mut p, *key);
            enc_u32(&mut p, entries.len() as u32);
            for e in entries {
                enc_directives(&mut p, &e.sleep);
                enc_u32(&mut p, e.depth);
                enc_ranks(&mut p, &e.rank);
            }
        }
        let mut out = Vec::with_capacity(HEADER_LEN + p.len());
        out.extend_from_slice(MAGIC);
        enc_u32(&mut out, VERSION);
        enc_u64(&mut out, p.len() as u64);
        enc_u64(&mut out, fnv1a(&p));
        out.extend_from_slice(&p);
        out
    }

    /// Parses a checkpoint from its on-disk byte form.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] with the byte offset and section of
    /// the first problem: bad magic, unsupported version, a length that
    /// disagrees with the bytes present (short/torn write), a checksum
    /// mismatch (bit rot), or malformed structure. Never panics, never
    /// silently accepts damaged input.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let corrupt = |offset: usize, detail: &str| CheckpointError::Corrupt {
            offset,
            section: Section::Header,
            detail: detail.to_owned(),
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(bytes.len(), "truncated header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt(0, "bad magic (not a checkpoint file)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(CheckpointError::Corrupt {
                offset: 8,
                section: Section::Header,
                detail: format!(
                    "unsupported checkpoint version {version} (this build reads {VERSION})"
                ),
            });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let actual = (bytes.len() - HEADER_LEN) as u64;
        if payload_len != actual {
            return Err(CheckpointError::Corrupt {
                offset: 12,
                section: Section::Header,
                detail: format!(
                    "payload length says {payload_len} bytes but {actual} are present \
                     (short or torn write)"
                ),
            });
        }
        let stored = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let computed = fnv1a(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(CheckpointError::Corrupt {
                offset: 20,
                section: Section::Header,
                detail: format!(
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
                     (the payload is corrupted)"
                ),
            });
        }

        let mut r = Reader {
            bytes,
            at: HEADER_LEN,
            section: Section::Id,
        };
        let id = r.str()?;
        r.section = Section::Fingerprint;
        let system = r.str()?;
        let n = r.u32()?;
        let model = match r.u8()? {
            0 => MemoryModel::Tso,
            1 => MemoryModel::Pso,
            t => return Err(r.fail_at(r.at - 1, format!("bad memory-model tag {t}"))),
        };
        let execution_compiled = r.bool()?;
        let keys_canonical = r.bool()?;
        let vm_engaged = r.bool()?;
        let symmetry_engaged = r.bool()?;
        let max_steps = r.u64()?;
        let max_crashes = r.u32()?;
        let init_state_hash = r.u64()?;
        let code_hash = r.u64()?;
        let inv_count = r.count_u32(4)?; // each name costs at least its length field
        let mut invariants = Vec::with_capacity(inv_count);
        for _ in 0..inv_count {
            invariants.push(r.str()?);
        }
        r.section = Section::Phase;
        let phase = match r.u8()? {
            0 => SearchPhase::Verdict,
            1 => SearchPhase::Witness,
            t => return Err(r.fail_at(r.at - 1, format!("bad search-phase tag {t}"))),
        };
        r.section = Section::Counters;
        let counters = Counters {
            transitions: r.u64()?,
            pruned_sleep: r.u64()?,
            cache_skips: r.u64()?,
            truncated_paths: r.u64()?,
        };
        r.section = Section::Candidate;
        let candidate = match r.u8()? {
            0 => None,
            1 => Some(CandidateData {
                rank: r.ranks()?,
                invariant: r.str()?,
                detail: r.str()?,
                schedule: r.directives()?,
            }),
            t => return Err(r.fail_at(r.at - 1, format!("bad candidate tag {t}"))),
        };
        r.section = Section::Frontier;
        let node_count = r.count_u32(12)?; // rank + sleep + path length fields
        let mut frontier = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let at = r.at;
            let node = FrontierNode {
                rank: r.ranks()?,
                sleep: r.directives()?,
                path: r.directives()?,
            };
            if node.rank.len() != node.path.len() {
                return Err(r.fail_at(
                    at,
                    format!(
                        "frontier node rank has {} indices but its path {} directives",
                        node.rank.len(),
                        node.path.len()
                    ),
                ));
            }
            frontier.push(node);
        }
        r.section = Section::Cache;
        let key_count = r.count_u64(12)?; // key + entry-count fields
        let mut cache = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            let key = r.u64()?;
            let entry_count = r.count_u32(12)?;
            let mut entries = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                let at = r.at;
                let entry = CacheEntryData {
                    sleep: r.directives()?,
                    depth: r.u32()?,
                    rank: r.ranks()?,
                };
                if entry.rank.len() != entry.depth as usize {
                    return Err(r.fail_at(
                        at,
                        format!(
                            "cache entry rank has {} indices but depth {}",
                            entry.rank.len(),
                            entry.depth
                        ),
                    ));
                }
                entries.push(entry);
            }
            cache.push((key, entries));
        }
        r.section = Section::Trailer;
        if r.at != bytes.len() {
            return Err(r.fail_at(
                r.at,
                format!("{} trailing bytes past the encoding", bytes.len() - r.at),
            ));
        }
        Ok(Checkpoint {
            id,
            fingerprint: Fingerprint {
                system,
                n,
                model,
                execution_compiled,
                keys_canonical,
                max_steps,
                max_crashes,
                invariants,
                derived: Derived {
                    vm_engaged,
                    symmetry_engaged,
                    init_state_hash,
                    code_hash,
                },
            },
            image: SearchImage {
                phase,
                counters,
                candidate,
                frontier,
                cache,
            },
        })
    }

    /// Reads and decodes the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Corrupt`] for anything [`Checkpoint::decode`]
    /// rejects.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("cannot read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }

    /// Writes the checkpoint to `path` durably: temp file in the same
    /// directory, `fsync`, rename — a crashed writer never leaves a
    /// half-checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(path, &FailpointWriter::default())
    }

    /// [`Checkpoint::save`] through an explicit [`FailpointWriter`] —
    /// the fault-injection seam the durability tests use.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save_with(&self, path: &Path, writer: &FailpointWriter) -> Result<(), CheckpointError> {
        writer.write(path, &self.encode())
    }
}

/// A corruption to inject into a checkpoint write — the fault classes a
/// real filesystem can inflict on a file between write and read.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WriteFault {
    /// Persist only the first `n` bytes (a short write / power cut).
    Truncate(usize),
    /// Zero `len` bytes starting at `offset` (a torn write: a page that
    /// never made it to disk).
    Zero {
        /// First byte of the hole.
        offset: usize,
        /// Length of the hole.
        len: usize,
    },
    /// Flip bit `bit` of the byte at `offset` (media bit rot). Both are
    /// taken modulo the encoding's size, so any values address a real
    /// bit.
    BitFlip {
        /// Byte to damage (modulo file length).
        offset: usize,
        /// Bit within the byte (modulo 8).
        bit: u8,
    },
}

/// The single seam all checkpoint bytes pass through on their way to
/// disk: temp file, `fsync`, rename. A writer armed with a
/// [`WriteFault`] damages the bytes first — that is how the durability
/// suite proves [`Checkpoint::load`] rejects every corruption class
/// instead of resuming an unsound search.
#[derive(Clone, Default, Debug)]
pub struct FailpointWriter {
    fault: Option<WriteFault>,
}

impl FailpointWriter {
    /// A writer that injects `fault` into everything it writes.
    pub fn faulty(fault: WriteFault) -> Self {
        FailpointWriter { fault: Some(fault) }
    }

    /// Writes `bytes` (after fault injection, if armed) to `path` via
    /// temp + `fsync` + rename.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut bytes = bytes.to_vec();
        match &self.fault {
            None => {}
            Some(WriteFault::Truncate(n)) => bytes.truncate(*n),
            Some(WriteFault::Zero { offset, len }) => {
                let start = (*offset).min(bytes.len());
                let end = offset.saturating_add(*len).min(bytes.len());
                for b in &mut bytes[start..end] {
                    *b = 0;
                }
            }
            Some(WriteFault::BitFlip { offset, bit }) if !bytes.is_empty() => {
                let at = offset % bytes.len();
                bytes[at] ^= 1 << (bit % 8);
            }
            Some(WriteFault::BitFlip { .. }) => {}
        }
        let io_err = |what: &str, e: std::io::Error| {
            CheckpointError::Io(format!("{what} {}: {e}", path.display()))
        };
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("checkpoint");
        let tmp = path.with_file_name(format!(".{file_name}.tmp"));
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("cannot create", e))?;
            f.write_all(&bytes).map_err(|e| io_err("cannot write", e))?;
            f.sync_all().map_err(|e| io_err("cannot sync", e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err("cannot finalise", e))
    }
}

fn enc_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_str(out: &mut Vec<u8>, s: &str) {
    enc_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn enc_ranks(out: &mut Vec<u8>, rank: &[u32]) {
    enc_u32(out, rank.len() as u32);
    for &r in rank {
        enc_u32(out, r);
    }
}

fn enc_directives(out: &mut Vec<u8>, ds: &[Directive]) {
    enc_u32(out, ds.len() as u32);
    for d in ds {
        match *d {
            Directive::Issue(p) => {
                out.push(0);
                enc_u32(out, p.0);
            }
            Directive::Commit(p) => {
                out.push(1);
                enc_u32(out, p.0);
            }
            Directive::CommitVar(p, v) => {
                out.push(2);
                enc_u32(out, p.0);
                enc_u32(out, v.0);
            }
            Directive::Crash(p) => {
                out.push(3);
                enc_u32(out, p.0);
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    section: Section,
}

impl<'a> Reader<'a> {
    fn fail_at(&self, at: usize, detail: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt {
            offset: at,
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.at + n > self.bytes.len() {
            return Err(self.fail_at(self.at, "truncated"));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(self.fail_at(self.at - 1, format!("bad boolean {t}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u32 element count, bounded by the bytes actually remaining
    /// (`min_elem` bytes per element): a corrupted count cannot drive a
    /// multi-gigabyte allocation before the per-element reads fail.
    fn count_u32(&mut self, min_elem: usize) -> Result<usize, CheckpointError> {
        let at = self.at;
        let count = self.u32()? as usize;
        let remaining = self.bytes.len() - self.at;
        if count.saturating_mul(min_elem) > remaining {
            return Err(self.fail_at(
                at,
                format!("implausible element count {count} ({remaining} bytes remain)"),
            ));
        }
        Ok(count)
    }

    /// [`Reader::count_u32`] for u64-typed counts.
    fn count_u64(&mut self, min_elem: usize) -> Result<usize, CheckpointError> {
        let at = self.at;
        let count = self.u64()?;
        let remaining = (self.bytes.len() - self.at) as u64;
        if count.saturating_mul(min_elem as u64) > remaining {
            return Err(self.fail_at(
                at,
                format!("implausible element count {count} ({remaining} bytes remain)"),
            ));
        }
        Ok(count as usize)
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.count_u32(1)?;
        let at = self.at;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail_at(at, "string is not UTF-8"))
    }

    fn ranks(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let len = self.count_u32(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn directives(&mut self) -> Result<Vec<Directive>, CheckpointError> {
        let len = self.count_u32(5)?; // tag + pid
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let at = self.at;
            let tag = self.u8()?;
            let pid = ProcId(self.u32()?);
            out.push(match tag {
                0 => Directive::Issue(pid),
                1 => Directive::Commit(pid),
                2 => Directive::CommitVar(pid, VarId(self.u32()?)),
                3 => Directive::Crash(pid),
                t => return Err(self.fail_at(at, format!("bad directive tag {t}"))),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            id: "00aa-1-0001".into(),
            fingerprint: Fingerprint {
                system: "tas".into(),
                n: 2,
                model: MemoryModel::Pso,
                execution_compiled: true,
                keys_canonical: false,
                max_steps: 40,
                max_crashes: 1,
                invariants: vec!["mutual-exclusion".into(), "terminal-quiescence".into()],
                derived: Derived {
                    vm_engaged: true,
                    symmetry_engaged: false,
                    init_state_hash: 0xdead_beef,
                    code_hash: 0x1234,
                },
            },
            image: SearchImage {
                phase: SearchPhase::Witness,
                counters: Counters {
                    transitions: 1000,
                    pruned_sleep: 10,
                    cache_skips: 20,
                    truncated_paths: 3,
                },
                candidate: Some(CandidateData {
                    rank: vec![0, 2, 1],
                    invariant: "mutual-exclusion".into(),
                    detail: "two processes in cs".into(),
                    schedule: vec![
                        Directive::Issue(ProcId(0)),
                        Directive::CommitVar(ProcId(1), VarId(3)),
                        Directive::Crash(ProcId(1)),
                    ],
                }),
                frontier: vec![FrontierNode {
                    rank: vec![1],
                    sleep: vec![Directive::Commit(ProcId(0))],
                    path: vec![Directive::Issue(ProcId(1))],
                }],
                cache: vec![(
                    7,
                    vec![CacheEntryData {
                        sleep: vec![],
                        depth: 1,
                        rank: vec![1],
                    }],
                )],
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample();
        let back = Checkpoint::decode(&ckpt.encode()).expect("round trip");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&bad).is_err(),
                    "flip of bit {bit} at byte {at} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes was silently accepted"
            );
        }
    }

    #[test]
    fn header_diagnostics_are_truthful() {
        let bytes = sample().encode();
        let CheckpointError::Corrupt { offset, detail, .. } =
            Checkpoint::decode(b"definitely not a checkpoint file at all").unwrap_err()
        else {
            panic!("expected Corrupt");
        };
        assert_eq!(offset, 0);
        assert!(detail.contains("bad magic"), "{detail}");

        let mut wrong_version = bytes.clone();
        wrong_version[8] = 9;
        let err = Checkpoint::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");

        let mut rotten = bytes.clone();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x40;
        let err = Checkpoint::decode(&rotten).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let err = Checkpoint::decode(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(err.to_string().contains("short or torn write"), "{err}");
    }

    /// A version-1 file (no phase byte) is refused with a diagnostic
    /// naming its version, whether or not its length and checksum are
    /// intact.
    #[test]
    fn version_1_files_are_refused_by_name() {
        let v2 = sample().encode();
        // The same image as version 1 wrote it: the payload without the
        // phase byte (the only payload byte the phase changes),
        // re-lengthed and re-checksummed.
        let mut other = sample();
        other.image.phase = SearchPhase::Verdict;
        let other = other.encode();
        let phase_at = (HEADER_LEN..v2.len())
            .find(|&i| v2[i] != other[i])
            .expect("the phase byte differs");
        let mut payload = v2[HEADER_LEN..].to_vec();
        payload.remove(phase_at - HEADER_LEN);
        let mut v1 = MAGIC.to_vec();
        enc_u32(&mut v1, 1);
        enc_u64(&mut v1, payload.len() as u64);
        enc_u64(&mut v1, fnv1a(&payload));
        v1.extend_from_slice(&payload);
        match Checkpoint::decode(&v1) {
            Err(CheckpointError::Corrupt {
                offset: 8,
                section: Section::Header,
                detail,
            }) => assert!(
                detail.contains("unsupported checkpoint version 1")
                    && detail.contains("this build reads 2"),
                "{detail}"
            ),
            other => panic!("a version-1 file was not refused by version: {other:?}"),
        }
    }

    #[test]
    fn phase_round_trips_and_is_described() {
        for (phase, name) in [
            (SearchPhase::Verdict, "phase: verdict"),
            (SearchPhase::Witness, "phase: witness"),
        ] {
            let mut ckpt = sample();
            ckpt.image.phase = phase;
            let back = Checkpoint::decode(&ckpt.encode()).expect("round trip");
            assert_eq!(back.phase(), phase);
            assert!(back.describe().contains(name), "{}", back.describe());
        }
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let a = sample().fingerprint;
        let mut b = a.clone();
        b.model = MemoryModel::Tso;
        let msg = a.mismatch(&b).expect("models differ");
        assert!(msg.contains("memory model"), "{msg}");
        let mut c = a.clone();
        c.derived.init_state_hash ^= 1;
        let msg = a.mismatch(&c).expect("hashes differ");
        assert!(msg.contains("stale"), "{msg}");
        assert_eq!(a.mismatch(&a.clone()), None);
    }

    #[test]
    fn rank_lengths_that_disagree_are_corrupt() {
        let mut long_path = sample();
        long_path.image.frontier[0]
            .path
            .push(Directive::Issue(ProcId(0)));
        let mut deep_entry = sample();
        deep_entry.image.cache[0].1[0].depth = 2;
        for (bad, section) in [(long_path, Section::Frontier), (deep_entry, Section::Cache)] {
            match Checkpoint::decode(&bad.encode()) {
                Err(CheckpointError::Corrupt { section: s, .. }) => assert_eq!(s, section),
                other => panic!("{section} length mismatch: {other:?}"),
            }
        }
    }

    /// Well-formed, correctly checksummed checkpoints whose stored
    /// positions do not belong to the system must be refused by
    /// `resume_from`, not accepted and left to panic inside the search.
    #[test]
    fn positions_that_do_not_replay_are_incompatible() {
        use crate::{Checker, Verdict};
        use tpa_tso::scripted::{Instr, ScriptSystem};
        let sys = ScriptSystem::new(2, 2, |pid| {
            vec![
                Instr::Write {
                    var: pid.0,
                    value: 1,
                },
                Instr::Read {
                    var: 1 - pid.0,
                    reg: 0,
                },
                Instr::Halt,
            ]
        });
        let dir = std::env::temp_dir().join(format!("tpa-ckpt-replay-{}", std::process::id()));
        let report = Checker::new(&sys)
            .max_steps(24)
            .max_transitions(3)
            .checkpoint_dir(&dir)
            .exhaustive();
        let Verdict::Incomplete {
            checkpoint: Some(path),
            ..
        } = &report.verdict
        else {
            panic!("a 3-transition budget must interrupt and checkpoint");
        };
        let real = Checkpoint::load(path).expect("load");
        let _ = std::fs::remove_dir_all(&dir);
        let resume = |ckpt: &Checkpoint| Checker::new(&sys).max_steps(24).resume_from(ckpt);
        assert!(resume(&real).is_ok());

        let issue = |p| Directive::Issue(ProcId(p));
        let node = |rank: Vec<u32>, sleep, path| FrontierNode { rank, sleep, path };
        let with_frontier = |frontier| {
            let mut ckpt = real.clone();
            ckpt.image.frontier = vec![frontier];
            ckpt
        };
        let with_candidate = |rank, invariant: &str, schedule| {
            let mut ckpt = real.clone();
            ckpt.image.candidate = Some(CandidateData {
                rank,
                invariant: invariant.to_owned(),
                detail: String::new(),
                schedule,
            });
            ckpt
        };
        let battery = real.fingerprint.invariants[0].as_str();
        let crafted = [
            (
                "a commit from an empty buffer",
                with_frontier(node(vec![1], vec![], vec![Directive::Commit(ProcId(1))])),
            ),
            (
                "an index out of range",
                with_frontier(node(vec![7], vec![], vec![issue(1)])),
            ),
            (
                "a sleeping process the system lacks",
                with_frontier(node(vec![0], vec![issue(5)], vec![issue(0)])),
            ),
            (
                "a sleeping variable the system lacks",
                with_frontier(node(
                    vec![0],
                    vec![Directive::CommitVar(ProcId(1), VarId(9))],
                    vec![issue(0)],
                )),
            ),
            (
                "a candidate schedule its rank does not replay to",
                with_candidate(vec![0, 0], battery, vec![issue(1), issue(1)]),
            ),
            (
                "a candidate invariant outside the battery",
                with_candidate(vec![0], "no-such-invariant", vec![issue(0)]),
            ),
        ];
        for (what, ckpt) in crafted {
            let decoded = Checkpoint::decode(&ckpt.encode()).expect("well-formed");
            match resume(&decoded) {
                // Refused on the stored positions, not on the fingerprint.
                Err(CheckpointError::Incompatible(msg)) => assert!(
                    msg.starts_with("frontier node") || msg.starts_with("candidate"),
                    "{what}: {msg}"
                ),
                Err(other) => panic!("{what}: wrong error class: {other}"),
                Ok(_) => panic!("{what}: resume_from accepted it"),
            }
        }
    }

    #[test]
    fn failpoint_writer_faults_are_caught_by_load() {
        let dir = std::env::temp_dir().join(format!("tpa-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = sample();
        let clean = dir.join("clean.tpack");
        ckpt.save(&clean).expect("save");
        assert_eq!(Checkpoint::load(&clean).expect("load"), ckpt);
        let faults = [
            WriteFault::Truncate(10),
            WriteFault::Truncate(0),
            WriteFault::Zero { offset: 40, len: 8 },
            WriteFault::BitFlip { offset: 77, bit: 3 },
        ];
        for (i, fault) in faults.into_iter().enumerate() {
            let path = dir.join(format!("faulty-{i}.tpack"));
            ckpt.save_with(&path, &FailpointWriter::faulty(fault.clone()))
                .expect("faulty save still writes");
            assert!(
                Checkpoint::load(&path).is_err(),
                "fault {fault:?} was silently accepted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
