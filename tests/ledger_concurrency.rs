//! Concurrency guarantees of the run ledger (`tpa::obs::Ledger`):
//! appenders on two handles race readers on a shared handle, and every
//! read must be a whole, ordered, deduplicated view whose records load.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use tpa::obs::{EnvFingerprint, Ledger, RunRecord};

const APPENDERS: usize = 4;
const READERS: usize = 4;
const PER_APPENDER: usize = 50;

/// The `(created_us, seq, id)` key the ledger orders by; `seq` is the
/// id's last `-`-separated field.
fn order_key(id: &str, created_us: u64) -> (u64, u64, String) {
    let seq = id
        .rsplit('-')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (created_us, seq, id.to_owned())
}

/// Four appender threads over two `Ledger` handles race four reader
/// threads looping `read_index_with_health` on a shared handle. Every
/// read is strictly ordered by `(created_us, seq, id)`, has no duplicate
/// ids and clean health, lists only records that exist and load, and
/// never loses an entry an earlier read of the same reader listed.
#[test]
fn appenders_racing_readers_never_show_a_torn_index() {
    let dir = std::env::temp_dir().join(format!("tpa-ledger-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handles = [
        Ledger::open(&dir).expect("open a"),
        Ledger::open(&dir).expect("open b"),
    ];
    let shared = &handles[0];
    let running = AtomicUsize::new(APPENDERS);
    // Every thread starts at once, so reads overlap the first appends.
    let start = Barrier::new(APPENDERS + READERS);

    let appended: BTreeSet<String> = std::thread::scope(|s| {
        let appenders: Vec<_> = (0..APPENDERS)
            .map(|t| {
                let (ledger, running, start) = (&handles[t % 2], &running, &start);
                s.spawn(move || {
                    start.wait();
                    let ids: Vec<String> = (0..PER_APPENDER)
                        .map(|i| {
                            let mut rec = RunRecord {
                                scenario: format!("t{t}-{i}"),
                                verdict: "pass".to_owned(),
                                env: EnvFingerprint::capture(1),
                                ..RunRecord::default()
                            };
                            ledger.append(&mut rec).expect("append")
                        })
                        .collect();
                    running.fetch_sub(1, Ordering::SeqCst);
                    ids
                })
            })
            .collect();
        for _ in 0..READERS {
            s.spawn(|| {
                start.wait();
                let mut seen: BTreeSet<String> = BTreeSet::new();
                loop {
                    let done = running.load(Ordering::SeqCst) == 0;
                    let (entries, health) = shared.read_index_with_health().expect("read");
                    assert!(health.is_clean(), "{health:?}");
                    for pair in entries.windows(2) {
                        assert!(
                            order_key(&pair[0].id, pair[0].created_us)
                                < order_key(&pair[1].id, pair[1].created_us),
                            "out of order: {} then {}",
                            pair[0].id,
                            pair[1].id
                        );
                    }
                    let ids: BTreeSet<String> = entries.iter().map(|e| e.id.clone()).collect();
                    assert_eq!(ids.len(), entries.len(), "duplicate ids in one read");
                    assert!(ids.is_superset(&seen), "a later read lost entries");
                    for e in &entries {
                        assert!(
                            dir.join(&e.path).is_file(),
                            "{} listed, not on disk",
                            e.path
                        );
                        assert_eq!(shared.load(&e.id).expect("listed record loads").id, e.id);
                    }
                    seen = ids;
                    if done {
                        break;
                    }
                }
            });
        }
        appenders
            .into_iter()
            .flat_map(|a| a.join().expect("appender panicked"))
            .collect()
    });

    assert_eq!(appended.len(), APPENDERS * PER_APPENDER);
    let (entries, health) = shared.read_index_with_health().expect("final read");
    assert!(health.is_clean(), "{health:?}");
    let listed: BTreeSet<String> = entries.into_iter().map(|e| e.id).collect();
    assert_eq!(listed, appended);
    let _ = std::fs::remove_dir_all(&dir);
}
