//! The price, on silicon: fence budgets and wall-clock costs of real
//! atomics-based locks.
//!
//! ```sh
//! cargo run --release --example hardware_price -- [threads] [ops]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tpa::algos::hw::all_hw_locks;

fn main() {
    let mut args = std::env::args().skip(1);
    let max_threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get().min(8))
            .unwrap_or(4)
    });
    let ops: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50_000);

    println!("lock-protected counter increments, {ops} per thread\n");
    println!(
        "{:<16} {:>8} {:>12} {:>16} {:>14}",
        "lock", "threads", "total ms", "fences/acquire", "ns/acquire"
    );

    let mut threads = 1;
    while threads <= max_threads {
        for lock in all_hw_locks(max_threads.max(2)) {
            let counter = Arc::new(AtomicU64::new(0));
            let fences_before = lock.fences();
            let start = Instant::now();
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let lock = Arc::clone(&lock);
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        for _ in 0..ops {
                            let token = lock.acquire(tid);
                            counter.fetch_add(1, Ordering::Relaxed);
                            lock.release(tid, token);
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let total_ops = (threads * ops) as u64;
            assert_eq!(counter.load(Ordering::Relaxed), total_ops);
            let fences = lock.fences() - fences_before;
            println!(
                "{:<16} {:>8} {:>12.2} {:>16.2} {:>14.1}",
                lock.name(),
                threads,
                elapsed.as_secs_f64() * 1e3,
                fences as f64 / total_ops as f64,
                elapsed.as_nanos() as f64 / total_ops as f64,
            );
        }
        println!();
        threads *= 2;
    }
    println!(
        "note: fences/acquire of hw-tree grows with log2(threads capacity); ticket and\n\
         anderson stay at 2 thanks to fetch&add — a primitive outside the paper's model;\n\
         hw-fastpath is adaptive: ~3 solo, growing under contention."
    );
}
