//! Concurrency guarantees of the run ledger (`tpa::obs::Ledger`):
//! appenders on two handles race readers on a shared handle, and every
//! read must be a whole, ordered, duplicate-free view whose records load.

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
/// threads looping `Ledger::runs` on a shared handle. Every read is
/// strictly ordered by `(created_us, seq, id)`, has no duplicate ids,
/// counts no unreadable record, lists only records that load as listed,
/// and never loses a record an earlier read of the same reader listed.
#[test]
fn appenders_racing_readers_never_show_a_torn_ledger() {
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
                    let (runs, unreadable) = shared.runs().expect("read");
                    assert_eq!(unreadable, 0, "a read saw a record being written");
                    for pair in runs.windows(2) {
                        assert!(
                            order_key(&pair[0].id, pair[0].created_us)
                                < order_key(&pair[1].id, pair[1].created_us),
                            "out of order: {} then {}",
                            pair[0].id,
                            pair[1].id
                        );
                    }
                    let ids: BTreeSet<String> = runs.iter().map(|r| r.id.clone()).collect();
                    assert_eq!(ids.len(), runs.len(), "duplicate ids in one read");
                    assert!(ids.is_superset(&seen), "a later read lost records");
                    for r in &runs {
                        assert_eq!(&shared.load(&r.id).expect("listed record loads"), r);
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
    let (runs, unreadable) = shared.runs().expect("final read");
    assert_eq!(unreadable, 0);
    let listed: BTreeSet<String> = runs.into_iter().map(|r| r.id).collect();
    assert_eq!(listed, appended);
    let _ = std::fs::remove_dir_all(&dir);
}
