//! H1(b) — real locks: throughput and fence budgets, adaptive vs
//! non-adaptive, across thread counts.
//!
//! For every lock of the hardware portfolio, measures the wall time of a
//! fixed number of lock-protected critical sections executed by `t`
//! threads (`t ∈ {1, 2, 4}` clamped to the host), and reports the fence
//! count per acquire via a one-shot calibration. `std::sync::Mutex` is
//! included as an industrial baseline (row `std_mutex`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpa_algos::hw::{all_hw_locks, RawLock};

const OPS_PER_THREAD: usize = 2_000;

fn hammer_once(lock: &Arc<dyn RawLock>, threads: usize) -> std::time::Duration {
    let counter = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let lock = Arc::clone(lock);
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    let token = lock.acquire(tid);
                    counter.fetch_add(1, Ordering::Relaxed);
                    lock.release(tid, token);
                }
            });
        }
    });
    assert_eq!(
        counter.load(Ordering::Relaxed) as usize,
        threads * OPS_PER_THREAD
    );
    start.elapsed()
}

fn bench_hw_locks(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2);
    let thread_counts: Vec<usize> = [1, 2, 4].iter().copied().filter(|t| *t <= cores).collect();

    let mut group = c.benchmark_group("hw_locks");
    group.sample_size(10);

    for &threads in &thread_counts {
        for lock in all_hw_locks(threads.max(2)) {
            group.bench_with_input(
                BenchmarkId::new(lock.name(), threads),
                &threads,
                |b, &threads| {
                    b.iter_custom(|iters| {
                        let mut total = std::time::Duration::ZERO;
                        for _ in 0..iters {
                            total += hammer_once(&lock, threads);
                        }
                        total
                    })
                },
            );
        }
        // Industrial baseline.
        let std_lock = Arc::new(Mutex::new(0u64));
        group.bench_with_input(
            BenchmarkId::new("std_mutex", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        let start = Instant::now();
                        std::thread::scope(|s| {
                            for _ in 0..threads {
                                let lock = Arc::clone(&std_lock);
                                s.spawn(move || {
                                    for _ in 0..OPS_PER_THREAD {
                                        *lock.lock().unwrap() += 1;
                                    }
                                });
                            }
                        });
                        total += start.elapsed();
                    }
                    total
                })
            },
        );
    }
    group.finish();

    // Print fence budgets once (solo acquire/release), for the report.
    println!("\nfences per solo acquire+release:");
    for lock in all_hw_locks(4) {
        let before = lock.fences();
        let token = lock.acquire(0);
        lock.release(0, token);
        println!("  {:16} {}", lock.name(), lock.fences() - before);
    }
}

criterion_group!(benches, bench_hw_locks);
criterion_main!(benches);
