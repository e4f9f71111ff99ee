//! The persistent run ledger: one JSON [`RunRecord`] per checker run,
//! appended into a directory with an index, so runs survive their
//! process and can be listed, inspected and diffed later (`tpa_runs`).
//!
//! Layout of a ledger directory:
//!
//! ```text
//! <dir>/index.jsonl      one line per run: {v, id, t, scenario, algo,
//!                        model, mode, verdict, path} plus, when the run
//!                        wrote or consumed a search checkpoint, the
//!                        lineage keys {ckpt, resumed}
//! <dir>/runs/<id>.json   the full RunRecord
//! ```
//!
//! Records are written temp-file-then-rename so a crashed writer never
//! leaves a half-record behind; index lines are appended with
//! `O_APPEND` semantics so concurrent writers interleave whole lines.
//! Run ids are `{unix_micros:016x}-{pid}-{seq:04}`, and an id is
//! *claimed* by creating `runs/<id>.json` with `create_new` before
//! anything is written: two `Ledger` handles (same pid, seq restarting
//! at 0, same microsecond) that mint the same candidate id race on the
//! exclusive create, and the loser retries with the next sequence
//! number — a collision can slow an append down, never silently
//! overwrite a record.
//!
//! In memory the ledger is one `Mutex` around a `BTreeMap` keyed by
//! `(created_us, seq, id)` and the replay cursor over `index.jsonl`: the
//! durable index is replayed into the map on open and incrementally on
//! every read (so appends from other handles and processes surface),
//! and [`Ledger::append`] inserts its own entry under the same lock.
//! Reads ([`Ledger::read_index`], `tpa_runs list|show|diff`) copy the
//! entries into an owned `Vec` while holding the lock, so no concurrent
//! writer can tear them. The map is only a cache over the on-disk
//! format: ledger directories written by earlier builds (lineage keys
//! included) load unchanged.
//!
//! This crate sits below `tpa-check` in the workspace graph, so the
//! record speaks in plain strings and counter maps; the checker's
//! `Report` → `RunRecord` translation lives in
//! `crates/check/src/checker.rs`.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{parse, Json};
use crate::metrics::MetricsSnapshot;

/// The current `RunRecord` envelope version; bump on breaking shape
/// changes so old ledgers stay readable by version sniffing.
pub const RUN_RECORD_VERSION: u64 = 1;

/// Env vars excluded from the fingerprint: they name *output* paths and
/// cadences, which vary per invocation without affecting any result. A
/// scratch-dir change must not read as an environment difference.
const FINGERPRINT_EXCLUDED: [&str; 6] = [
    "TPA_OBS_JSONL",
    "TPA_OBS_TRACE",
    "TPA_OBS_METRICS",
    "TPA_OBS_LEDGER",
    "TPA_OBS_HEARTBEAT_MS",
    "TPA_BENCH_JSON",
];

/// Where and how a run happened: enough to explain a result drift that
/// is *not* a code regression (different machine, build, thread count,
/// or `TPA_*` knobs).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism (0 when unknown).
    pub nproc: u64,
    /// `"debug"` or `"release"`.
    pub build: String,
    /// Checker worker threads the run was configured with.
    pub threads: u64,
    /// Result-affecting `TPA_*` environment variables (output-path and
    /// cadence vars are excluded, see module docs).
    pub vars: BTreeMap<String, String>,
}

impl EnvFingerprint {
    /// Captures the current process environment for a run using
    /// `threads` checker workers.
    pub fn capture(threads: u64) -> Self {
        let vars = std::env::vars()
            .filter(|(k, _)| k.starts_with("TPA_") && !FINGERPRINT_EXCLUDED.contains(&k.as_str()))
            .collect();
        EnvFingerprint {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            build: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
            threads,
            vars,
        }
    }

    /// The fields (as `name: value` strings) on which `self` and `other`
    /// disagree — what `tpa_runs diff` prints as `env:` lines.
    pub fn differences(&self, other: &EnvFingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, a: &str, b: &str| {
            if a != b {
                out.push(format!("{name}: {a} -> {b}"));
            }
        };
        field("os", &self.os, &other.os);
        field("arch", &self.arch, &other.arch);
        field("nproc", &self.nproc.to_string(), &other.nproc.to_string());
        field("build", &self.build, &other.build);
        field(
            "threads",
            &self.threads.to_string(),
            &other.threads.to_string(),
        );
        let keys: std::collections::BTreeSet<&String> =
            self.vars.keys().chain(other.vars.keys()).collect();
        for k in keys {
            let a = self.vars.get(k).map_or("(unset)", String::as_str);
            let b = other.vars.get(k).map_or("(unset)", String::as_str);
            if a != b {
                out.push(format!("{k}: {a} -> {b}"));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("os".to_owned(), Json::Str(self.os.clone()));
        obj.insert("arch".to_owned(), Json::Str(self.arch.clone()));
        obj.insert("nproc".to_owned(), Json::Num(self.nproc as f64));
        obj.insert("build".to_owned(), Json::Str(self.build.clone()));
        obj.insert("threads".to_owned(), Json::Num(self.threads as f64));
        obj.insert(
            "vars".to_owned(),
            Json::Obj(
                self.vars
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
        Json::Obj(obj)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("env missing string `{name}`"))
        };
        let num_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("env missing numeric `{name}`"))
        };
        let vars = match v.get("vars") {
            None => BTreeMap::new(),
            Some(j) => j
                .as_obj()
                .ok_or("env `vars` is not an object")?
                .iter()
                .map(|(k, s)| {
                    s.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or(format!("env var `{k}` is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(EnvFingerprint {
            os: str_field("os")?,
            arch: str_field("arch")?,
            nproc: num_field("nproc")?,
            build: str_field("build")?,
            threads: num_field("threads")?,
            vars,
        })
    }
}

/// One persisted checker run: everything needed to re-identify the run
/// (scenario + features + env) and to compare it against another
/// (verdict + stats + metrics + wall time).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct RunRecord {
    /// Ledger-assigned run id (empty until [`Ledger::append`]).
    pub id: String,
    /// Creation time, microseconds since the Unix epoch (assigned by
    /// [`Ledger::append`]).
    pub created_us: u64,
    /// Scenario identity — a `.tpa` path, a lock name, or whatever the
    /// caller uses to name "the same check" across runs.
    pub scenario: String,
    /// System/algorithm name (e.g. `"tas"`, `"scenario:peterson"`).
    pub algo: String,
    /// Memory model (`"tso"` / `"pso"`).
    pub model: String,
    /// Search mode (`"exhaustive"` / `"swarm"`).
    pub mode: String,
    /// Verdict kind: `"pass"`, `"violation"`, or `"incomplete"`.
    pub verdict: String,
    /// Verdict detail: violated invariant, incompleteness reason, or
    /// empty for a pass.
    pub verdict_detail: String,
    /// Feature flags that select the engine configuration
    /// (`execution`, `keys`, `vm`, `symmetry`, …), as strings.
    pub features: BTreeMap<String, String>,
    /// Effort counters (`transitions`, `unique_states`, `pruned_sleep`,
    /// `cache_skips`, `schedules_run`, witness lengths, …).
    pub stats: BTreeMap<String, u64>,
    /// Whether the search exhausted its space within budget.
    pub complete: bool,
    /// Wall-clock time of the run in microseconds.
    pub wall_us: u64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Metrics registry snapshot taken at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Id of the last search checkpoint this run wrote, or empty. Pairs
    /// with `resumed_from` to reconstruct resume lineage across runs.
    pub checkpoint: String,
    /// Id of the checkpoint this run resumed from, or empty for a run
    /// that started from the initial state. A resumed run supersedes the
    /// interrupted run that wrote the checkpoint: comparisons (`tpa_runs
    /// diff`) treat the chain as one logical check.
    pub resumed_from: String,
}

impl RunRecord {
    /// Renders the record as its versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("v".to_owned(), Json::Num(RUN_RECORD_VERSION as f64));
        obj.insert("id".to_owned(), Json::Str(self.id.clone()));
        obj.insert("created_us".to_owned(), Json::Num(self.created_us as f64));
        obj.insert("scenario".to_owned(), Json::Str(self.scenario.clone()));
        obj.insert("algo".to_owned(), Json::Str(self.algo.clone()));
        obj.insert("model".to_owned(), Json::Str(self.model.clone()));
        obj.insert("mode".to_owned(), Json::Str(self.mode.clone()));
        let mut verdict = BTreeMap::new();
        verdict.insert("kind".to_owned(), Json::Str(self.verdict.clone()));
        verdict.insert("detail".to_owned(), Json::Str(self.verdict_detail.clone()));
        obj.insert("verdict".to_owned(), Json::Obj(verdict));
        obj.insert(
            "features".to_owned(),
            Json::Obj(
                self.features
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
        let mut stats: BTreeMap<String, Json> = self
            .stats
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        stats.insert("complete".to_owned(), Json::Bool(self.complete));
        obj.insert("stats".to_owned(), Json::Obj(stats));
        obj.insert("wall_us".to_owned(), Json::Num(self.wall_us as f64));
        obj.insert("env".to_owned(), self.env.to_json());
        obj.insert("metrics".to_owned(), self.metrics.to_json());
        // Lineage keys are omitted when empty so documents written by
        // older builds (which never had them) still compare equal after a
        // round trip.
        if !self.checkpoint.is_empty() {
            obj.insert("checkpoint".to_owned(), Json::Str(self.checkpoint.clone()));
        }
        if !self.resumed_from.is_empty() {
            obj.insert(
                "resumed_from".to_owned(),
                Json::Str(self.resumed_from.clone()),
            );
        }
        Json::Obj(obj)
    }

    /// Parses a record back from its [`RunRecord::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem,
    /// including an unsupported version number.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("run record missing numeric `v`")?;
        if version != RUN_RECORD_VERSION {
            return Err(format!(
                "unsupported run record version {version} (this build reads {RUN_RECORD_VERSION})"
            ));
        }
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("run record missing string `{name}`"))
        };
        let verdict = v.get("verdict").ok_or("run record missing `verdict`")?;
        let stats_obj = v
            .get("stats")
            .and_then(Json::as_obj)
            .ok_or("run record missing `stats` object")?;
        let mut stats = BTreeMap::new();
        let mut complete = false;
        for (k, s) in stats_obj {
            if k == "complete" {
                complete = s.as_bool().ok_or("stats `complete` is not a bool")?;
            } else {
                stats.insert(
                    k.clone(),
                    s.as_u64()
                        .ok_or(format!("stats `{k}` is not a non-negative integer"))?,
                );
            }
        }
        let features = match v.get("features") {
            None => BTreeMap::new(),
            Some(j) => j
                .as_obj()
                .ok_or("run record `features` is not an object")?
                .iter()
                .map(|(k, s)| {
                    s.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or(format!("feature `{k}` is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(RunRecord {
            id: str_field("id")?,
            created_us: v
                .get("created_us")
                .and_then(Json::as_u64)
                .ok_or("run record missing numeric `created_us`")?,
            scenario: str_field("scenario")?,
            algo: str_field("algo")?,
            model: str_field("model")?,
            mode: str_field("mode")?,
            verdict: verdict
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("verdict missing string `kind`")?
                .to_owned(),
            verdict_detail: verdict
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            features,
            stats,
            complete,
            wall_us: v
                .get("wall_us")
                .and_then(Json::as_u64)
                .ok_or("run record missing numeric `wall_us`")?,
            env: EnvFingerprint::from_json(v.get("env").ok_or("run record missing `env`")?)?,
            metrics: MetricsSnapshot::from_json(
                v.get("metrics").ok_or("run record missing `metrics`")?,
            )?,
            checkpoint: v
                .get("checkpoint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            resumed_from: v
                .get("resumed_from")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
        })
    }

    /// Whether two records describe *the same check* — same scenario,
    /// model, mode and features — so their results are comparable.
    pub fn comparable_to(&self, other: &RunRecord) -> bool {
        self.scenario == other.scenario
            && self.model == other.model
            && self.mode == other.mode
            && self.features == other.features
    }
}

/// One line of the ledger index: enough to list and filter runs without
/// opening every record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    /// Run id.
    pub id: String,
    /// Creation time (µs since the Unix epoch).
    pub created_us: u64,
    /// Scenario identity.
    pub scenario: String,
    /// Algorithm name.
    pub algo: String,
    /// Memory model.
    pub model: String,
    /// Search mode.
    pub mode: String,
    /// Verdict kind.
    pub verdict: String,
    /// Id of the last checkpoint the run wrote (empty: none).
    pub checkpoint: String,
    /// Id of the checkpoint the run resumed from (empty: a fresh run).
    pub resumed_from: String,
    /// Record path, relative to the ledger directory.
    pub path: String,
}

/// What [`Ledger::read_index_with_health`] had to skip or repair while
/// assembling the index view: lines it could not parse (torn concurrent
/// writes, hand-editing damage) and ids that appeared more than once
/// (ledgers written before the `create_new` id claim, or hand-merged
/// ones). `tpa_runs list` surfaces these instead of silently hiding
/// them.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IndexHealth {
    /// Index lines that failed to parse or lacked the `id`/`path` fields.
    pub torn_lines: u64,
    /// Extra index lines whose run id was already taken by another line
    /// (each duplicate counts once; the surviving entry is the one whose
    /// record file exists).
    pub duplicate_ids: u64,
}

impl IndexHealth {
    /// Whether anything was skipped at all.
    pub fn is_clean(&self) -> bool {
        self.torn_lines == 0 && self.duplicate_ids == 0
    }
}

/// The index key for one entry: creation order made explicit.
/// Ordering by `(created_us, seq, id)` — timestamp, then the minting
/// handle's sequence number, then the full id as an unambiguous
/// tie-break — is what `tpa_runs diff` means by "latest": it does not
/// assume `SystemTime` never steps backwards between appends, and two
/// same-microsecond appends from one process still order by `seq`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct RunKey {
    created_us: u64,
    seq: u64,
    id: String,
}

impl RunKey {
    fn of(entry: &IndexEntry) -> Self {
        RunKey {
            created_us: entry.created_us,
            seq: id_seq(&entry.id),
            id: entry.id.clone(),
        }
    }
}

/// The `{seq:04}` suffix of a run id, or 0 for foreign/hand-made ids.
fn id_seq(id: &str) -> u64 {
    id.rsplit('-')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Parses one index line into an [`IndexEntry`]; `None` for lines that
/// don't parse or lack the mandatory `id`/`path` fields (torn writes,
/// hand-editing damage) — the caller counts those.
fn parse_index_line(line: &str) -> Option<IndexEntry> {
    let v = parse(line).ok()?;
    let str_of = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
    let (id, path) = (str_of("id")?, str_of("path")?);
    Some(IndexEntry {
        id,
        created_us: v.get("t").and_then(Json::as_u64).unwrap_or(0),
        scenario: str_of("scenario").unwrap_or_default(),
        algo: str_of("algo").unwrap_or_default(),
        model: str_of("model").unwrap_or_default(),
        mode: str_of("mode").unwrap_or_default(),
        verdict: str_of("verdict").unwrap_or_default(),
        checkpoint: str_of("ckpt").unwrap_or_default(),
        resumed_from: str_of("resumed").unwrap_or_default(),
        path,
    })
}

/// Incremental-replay cursor over `index.jsonl`.
#[derive(Default)]
struct ReplayState {
    /// Byte offset up to which the index has been replayed into the
    /// map. Only ever advanced past *complete* (newline-terminated)
    /// lines, so a torn in-progress write is re-examined next time.
    offset: u64,
    /// Complete lines that failed to parse — counted once, when first
    /// replayed.
    torn: u64,
    /// Same-key index lines that disagreed with an already-replayed
    /// entry (duplicate ids from pre-`create_new` ledgers).
    dups: u64,
}

/// The in-memory index: every replayed entry in creation order, and the
/// cursor saying how far `index.jsonl` has been replayed into it.
#[derive(Default)]
struct Index {
    replay: ReplayState,
    entries: BTreeMap<RunKey, IndexEntry>,
}

impl Index {
    /// Replays the lines appended to `<dir>/index.jsonl` since the last
    /// replay. If the file shrank — someone rewrote it by hand — the map
    /// is rebuilt from scratch.
    fn refresh(&mut self, dir: &Path) -> io::Result<()> {
        let mut file = match File::open(dir.join("index.jsonl")) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.replay.offset {
            // The file shrank under us: replay everything again.
            *self = Index::default();
        }
        if len == self.replay.offset {
            return Ok(());
        }
        file.seek(SeekFrom::Start(self.replay.offset))?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        // Only newline-terminated lines are consumed; a trailing partial
        // line is an append still in flight and is left for next time.
        let complete = text.rfind('\n').map_or(0, |i| i + 1);
        for line in text[..complete].lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(entry) = parse_index_line(line) else {
                self.replay.torn += 1;
                continue;
            };
            let key = RunKey::of(&entry);
            match self.entries.get(&key) {
                // Same line replayed twice (e.g. our own append): no-op.
                Some(prev) if *prev == entry => {}
                // A different line under the same key: keep the one
                // whose record file exists, and count the duplicate
                // (read_index applies the same rule across keys).
                Some(prev) => {
                    let prev_exists = dir.join(&prev.path).is_file();
                    let new_exists = dir.join(&entry.path).is_file();
                    if new_exists && !prev_exists {
                        self.entries.insert(key, entry);
                    }
                    self.replay.dups += 1;
                }
                None => {
                    self.entries.insert(key, entry);
                }
            }
        }
        self.replay.offset += complete as u64;
        Ok(())
    }
}

/// A ledger directory handle. Creating one creates the directory (and
/// `runs/`) if missing; appending assigns ids and timestamps.
///
/// The in-memory index sits behind one mutex, and every operation
/// on it — replaying `index.jsonl`, inserting an append, copying a read
/// out — takes that lock once. A reader racing a writer therefore sees
/// either all of an append or none of it, and the entries and
/// [`IndexHealth`] a read returns always come from the same replay
/// point. Appends made by other handles or other processes surface on
/// the next read.
pub struct Ledger {
    dir: PathBuf,
    seq: AtomicU64,
    index: Mutex<Index>,
}

impl Ledger {
    /// Opens (creating if needed) the ledger at `dir` and replays any
    /// existing `index.jsonl` into memory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or an existing index
    /// cannot be read (unparseable *lines* are skipped and counted, but
    /// an unreadable *file* is an error).
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir.join("runs"))?;
        let mut index = Index::default();
        index.refresh(dir)?;
        Ok(Ledger {
            dir: dir.to_path_buf(),
            seq: AtomicU64::new(0),
            index: Mutex::new(index),
        })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Locks the index. A panic mid-update leaves it usable (at worst a
    /// few lines are replayed again), so a poisoned lock is recovered.
    fn lock(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `record` to the ledger: claims an id (see module docs),
    /// writes `runs/<id>.json` (temp + rename over the claimed file),
    /// appends the index line, and inserts the entry into the in-memory
    /// index. Returns the assigned id.
    ///
    /// # Errors
    ///
    /// Fails if the record or index cannot be written; the ledger is
    /// never left with an index line pointing at a missing record.
    pub fn append(&self, record: &mut RunRecord) -> io::Result<String> {
        // Mint candidate ids until `create_new` wins the exclusive
        // claim on runs/<id>.json. Two handles in one process share a
        // pid and each start `seq` at 0, so same-microsecond appends
        // *will* collide on the first candidate — the create_new race
        // decides a winner and the loser retries with a fresh seq;
        // overwriting another handle's record is structurally
        // impossible. The loop terminates: seq strictly increases.
        let (id, now, seq) = loop {
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let id = format!("{now:016x}-{}-{seq:04}", std::process::id());
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(self.dir.join(format!("runs/{id}.json")))
            {
                Ok(_claim) => break (id, now, seq),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        record.id = id.clone();
        record.created_us = now;

        let rel = format!("runs/{id}.json");
        let final_path = self.dir.join(&rel);
        // The id is claimed, so the tmp name derived from it is ours
        // alone; the rename replaces our empty claim file atomically.
        let tmp_path = self.dir.join(format!("runs/.{id}.tmp"));
        let doc = record.to_json().render();
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(doc.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;

        let mut line = BTreeMap::new();
        line.insert("v".to_owned(), Json::Num(RUN_RECORD_VERSION as f64));
        line.insert("id".to_owned(), Json::Str(id.clone()));
        line.insert("t".to_owned(), Json::Num(now as f64));
        line.insert("scenario".to_owned(), Json::Str(record.scenario.clone()));
        line.insert("algo".to_owned(), Json::Str(record.algo.clone()));
        line.insert("model".to_owned(), Json::Str(record.model.clone()));
        line.insert("mode".to_owned(), Json::Str(record.mode.clone()));
        line.insert("verdict".to_owned(), Json::Str(record.verdict.clone()));
        if !record.checkpoint.is_empty() {
            line.insert("ckpt".to_owned(), Json::Str(record.checkpoint.clone()));
        }
        if !record.resumed_from.is_empty() {
            line.insert("resumed".to_owned(), Json::Str(record.resumed_from.clone()));
        }
        line.insert("path".to_owned(), Json::Str(rel.clone()));
        let mut index = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("index.jsonl"))?;
        // One write_all of line + newline: `writeln!` may split them
        // into separate writes, and under O_APPEND a second process
        // could land its line in between, corrupting both.
        let mut text = Json::Obj(line).render();
        text.push('\n');
        index.write_all(text.as_bytes())?;

        // Insert the entry into the in-memory index so this handle's
        // reads see the append immediately; the replay cursor will later
        // walk over our own index line and no-op on the equal entry.
        let entry = IndexEntry {
            id: id.clone(),
            created_us: now,
            scenario: record.scenario.clone(),
            algo: record.algo.clone(),
            model: record.model.clone(),
            mode: record.mode.clone(),
            verdict: record.verdict.clone(),
            checkpoint: record.checkpoint.clone(),
            resumed_from: record.resumed_from.clone(),
            path: rel,
        };
        self.lock().entries.insert(
            RunKey {
                created_us: now,
                seq,
                id: id.clone(),
            },
            entry,
        );
        Ok(id)
    }

    /// Reads the index, oldest first — explicitly ordered by
    /// `(created_us, seq, id)`, *not* by file position, so concurrent
    /// writers interleaving their lines (or a clock stepping backwards
    /// between appends) cannot scramble what "latest" means. Torn lines
    /// are skipped and duplicate ids deduplicated; use
    /// [`Ledger::read_index_with_health`] to see how many of each.
    ///
    /// # Errors
    ///
    /// Fails only if the index file exists but cannot be read; a missing
    /// index is an empty ledger.
    pub fn read_index(&self) -> io::Result<Vec<IndexEntry>> {
        Ok(self.read_index_with_health()?.0)
    }

    /// [`Ledger::read_index`], plus the [`IndexHealth`] counters saying
    /// how many torn lines were skipped and duplicate ids collapsed.
    ///
    /// The index is refreshed from disk first (so other handles' and
    /// processes' appends are included) and copied out under the same
    /// lock: a concurrent append is either entirely visible or entirely
    /// absent, and the health counts describe exactly the entries
    /// returned. When one id appears under several entries, the entry
    /// whose record file exists wins — the id collision this repairs
    /// used to leave exactly one file behind.
    ///
    /// # Errors
    ///
    /// Fails only if the index file exists but cannot be read.
    pub fn read_index_with_health(&self) -> io::Result<(Vec<IndexEntry>, IndexHealth)> {
        let mut index = self.lock();
        index.refresh(&self.dir)?;
        let mut out: Vec<IndexEntry> = Vec::with_capacity(index.entries.len());
        let mut by_id: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut duplicates = index.replay.dups;
        for entry in index.entries.values() {
            match by_id.get(&entry.id) {
                Some(&i) => {
                    duplicates += 1;
                    let kept_exists = self.dir.join(&out[i].path).is_file();
                    let new_exists = self.dir.join(&entry.path).is_file();
                    if new_exists && !kept_exists {
                        out[i] = entry.clone();
                    }
                }
                None => {
                    by_id.insert(entry.id.clone(), out.len());
                    out.push(entry.clone());
                }
            }
        }
        Ok((
            out,
            IndexHealth {
                torn_lines: index.replay.torn,
                duplicate_ids: duplicates,
            },
        ))
    }

    /// Loads the full record of run `id`. Accepts unique id prefixes.
    ///
    /// # Errors
    ///
    /// Fails on an unknown or ambiguous id, or an unreadable record.
    pub fn load(&self, id: &str) -> io::Result<RunRecord> {
        let index = self.read_index()?;
        let matches: Vec<&IndexEntry> = index.iter().filter(|e| e.id.starts_with(id)).collect();
        let entry = match matches.as_slice() {
            [one] => one,
            [] => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no run with id `{id}` in {}", self.dir.display()),
                ))
            }
            many => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("id `{id}` is ambiguous ({} matches)", many.len()),
                ))
            }
        };
        let text = fs::read_to_string(self.dir.join(&entry.path))?;
        let v = parse(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", entry.path))
        })?;
        RunRecord::from_json(&v)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", entry.path)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample_record(scenario: &str) -> RunRecord {
        let m = Metrics::new();
        m.counter("search.transitions").add(100);
        m.counter("search.cache_hits").add(20);
        m.counter("search.cache_misses").add(60);
        let mut stats = BTreeMap::new();
        stats.insert("transitions".to_owned(), 100);
        stats.insert("unique_states".to_owned(), 60);
        RunRecord {
            scenario: scenario.to_owned(),
            algo: "tas".to_owned(),
            model: "tso".to_owned(),
            mode: "exhaustive".to_owned(),
            verdict: "pass".to_owned(),
            features: [("keys".to_owned(), "concrete".to_owned())].into(),
            stats,
            complete: true,
            wall_us: 1234,
            env: EnvFingerprint::capture(2),
            metrics: m.snapshot(),
            ..RunRecord::default()
        }
    }

    #[test]
    fn record_json_round_trips() {
        let rec = sample_record("scenarios/sb.tpa");
        let doc = rec.to_json().render();
        let back = RunRecord::from_json(&parse(&doc).expect("valid")).expect("parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_clear_message() {
        let mut rec = sample_record("x");
        rec.id = "deadbeef".into();
        let doc = rec.to_json().render().replace("\"v\":1", "\"v\":99");
        let err = RunRecord::from_json(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn append_list_load_cycle() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir).expect("open");
        let mut a = sample_record("scenarios/sb.tpa");
        let mut b = sample_record("scenarios/peterson.tpa");
        b.verdict = "violation".into();
        let id_a = ledger.append(&mut a).expect("append a");
        let id_b = ledger.append(&mut b).expect("append b");
        assert_ne!(id_a, id_b);

        let index = ledger.read_index().expect("index");
        assert_eq!(index.len(), 2);
        assert_eq!(index[0].id, id_a);
        assert_eq!(index[1].verdict, "violation");
        assert!(index[0].created_us <= index[1].created_us);

        let loaded = ledger.load(&id_a).expect("load");
        assert_eq!(loaded, a);
        // Prefix lookup works while unambiguous.
        assert!(ledger.load(&id_a[..id_a.len() - 1]).is_ok());
        assert!(ledger.load("zzz-no-such-run").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparability_requires_same_scenario_and_features() {
        let a = sample_record("scenarios/sb.tpa");
        let mut b = a.clone();
        assert!(a.comparable_to(&b));
        b.features.insert("keys".into(), "canonical".into());
        assert!(!a.comparable_to(&b));
        let mut c = a.clone();
        c.env.threads = 99; // env may differ, runs stay comparable
        assert!(a.comparable_to(&c));
    }

    /// Regression for the run-id collision: two `Ledger` handles share
    /// the pid and each restart `seq` at 0, so same-microsecond appends
    /// used to mint identical ids and the second rename silently
    /// clobbered the first record. The `create_new` claim makes the
    /// loser retry: every append keeps its own record.
    #[test]
    fn two_handles_appending_in_a_tight_loop_never_collide() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-collide-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        const PER_HANDLE: usize = 40;
        let ids = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let dir = dir.clone();
                    s.spawn(move || {
                        let ledger = Ledger::open(&dir).expect("open");
                        (0..PER_HANDLE)
                            .map(|i| {
                                let mut rec = sample_record(&format!("s{i}"));
                                ledger.append(&mut rec).expect("append")
                            })
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("no panic"))
                .collect::<Vec<String>>()
        });
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), 2 * PER_HANDLE, "colliding run ids minted");
        for id in &ids {
            assert!(
                dir.join(format!("runs/{id}.json")).is_file(),
                "record {id} clobbered"
            );
        }
        let fresh = Ledger::open(&dir).expect("reopen");
        let (index, health) = fresh.read_index_with_health().expect("index");
        assert_eq!(index.len(), 2 * PER_HANDLE);
        assert!(health.is_clean(), "{health:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Duplicate ids (possible in ledgers written before the
    /// `create_new` claim, or hand-merged ones) are collapsed keeping
    /// the entry whose record file exists, and both torn lines and
    /// duplicates are counted rather than hidden.
    #[test]
    fn read_index_dedupes_duplicate_ids_and_counts_damage() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-dedupe-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir).expect("open");
        let mut rec = sample_record("scenarios/sb.tpa");
        let id = ledger.append(&mut rec).expect("append");
        // Simulate the old bug: a second index line reuses the id but
        // points at a record the colliding writer lost; plus one torn
        // line from a crashed writer.
        let mut index = OpenOptions::new()
            .append(true)
            .open(dir.join("index.jsonl"))
            .expect("index");
        writeln!(
            index,
            "{{\"id\":\"{id}\",\"t\":{t},\"scenario\":\"ghost\",\"verdict\":\"violation\",\
             \"path\":\"runs/lost-{id}.json\"}}",
            t = rec.created_us
        )
        .expect("dup line");
        writeln!(index, "{{\"id\":\"truncated-by-a-crash…").expect("torn line");
        drop(index);

        let fresh = Ledger::open(&dir).expect("reopen");
        let (entries, health) = fresh.read_index_with_health().expect("read");
        assert_eq!(entries.len(), 1, "duplicate id must collapse to one entry");
        assert_eq!(
            entries[0].scenario, "scenarios/sb.tpa",
            "must keep the entry whose record file exists"
        );
        assert_eq!(health.duplicate_ids, 1);
        assert_eq!(health.torn_lines, 1);
        // The surviving entry still loads.
        assert!(fresh.load(&id).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `SystemTime` step backwards between appends (or concurrent
    /// writers interleaving index lines) must not scramble what
    /// "latest" means: the index is ordered by `(created_us, seq, id)`,
    /// not by file position.
    #[test]
    fn index_order_is_creation_order_not_file_order() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-order-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("runs")).expect("mkdir");
        // Hand-written index: file order deliberately scrambled, with a
        // clock step backwards (t=50 appended after t=100) and a
        // same-microsecond pair distinguished only by seq.
        let lines = [
            (100u64, "0000000000000064-1-0002", "c"),
            (50u64, "0000000000000032-1-0003", "d"),
            (7u64, "0000000000000007-1-0000", "a"),
            (7u64, "0000000000000007-1-0001", "b"),
        ];
        let mut index = File::create(dir.join("index.jsonl")).expect("index");
        for (t, id, scenario) in &lines {
            // Record files exist so dedupe/health see a clean ledger.
            File::create(dir.join(format!("runs/{id}.json"))).expect("record");
            writeln!(
                index,
                "{{\"id\":\"{id}\",\"t\":{t},\"scenario\":\"{scenario}\",\
                 \"verdict\":\"pass\",\"path\":\"runs/{id}.json\"}}"
            )
            .expect("line");
        }
        drop(index);
        let ledger = Ledger::open(&dir).expect("open");
        let (entries, health) = ledger.read_index_with_health().expect("read");
        assert!(health.is_clean(), "{health:?}");
        let order: Vec<&str> = entries.iter().map(|e| e.scenario.as_str()).collect();
        assert_eq!(
            order,
            ["a", "b", "d", "c"],
            "must order by (created_us, seq, id): same-µs pair by seq, \
             clock-stepped t=50 before t=100"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A read taken from one handle while another handle appends is an
    /// owned copy: it keeps what it saw, and a re-read sees everything.
    #[test]
    fn reads_are_snapshots_and_new_reads_see_new_appends() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let writer = Ledger::open(&dir).expect("open writer");
        let reader = Ledger::open(&dir).expect("open reader");
        let mut a = sample_record("one");
        writer.append(&mut a).expect("append one");
        let first = reader.read_index().expect("read");
        assert_eq!(first.len(), 1);
        let mut b = sample_record("two");
        writer.append(&mut b).expect("append two");
        // The earlier Vec is untouched by definition; a fresh read from
        // the same handle surfaces the cross-handle append.
        assert_eq!(first.len(), 1);
        let second = reader.read_index().expect("re-read");
        assert_eq!(second.len(), 2);
        assert_eq!(second[1].scenario, "two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_differences_name_the_fields() {
        let a = EnvFingerprint::capture(1);
        let mut b = a.clone();
        b.threads = 4;
        b.vars.insert("TPA_FOO".into(), "1".into());
        let diffs = a.differences(&b);
        assert!(
            diffs.iter().any(|d| d.starts_with("threads: 1 -> 4")),
            "{diffs:?}"
        );
        assert!(diffs.iter().any(|d| d.contains("TPA_FOO")), "{diffs:?}");
        assert!(a.differences(&a).is_empty());
    }
}
