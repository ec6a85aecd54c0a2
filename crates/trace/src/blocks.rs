//! Per-user record-block sources, shard partitioning and the one parallel
//! map every multi-threaded path runs on.
//!
//! The analysis pipeline consumes a trace as a sequence of per-user record
//! blocks. [`BlockSource`] abstracts over where those blocks come from — a
//! live [`TraceGenerator`](crate::TraceGenerator) that materialises each
//! user on demand, or blocks already resident in memory — and exposes them
//! by index so parallel consumers can partition users into contiguous
//! shards. Contiguity is what makes sharded processing deterministic:
//! concatenating per-shard results in shard-index order reproduces the
//! exact sequential block order for *any* shard count. [`fan_out`] runs
//! those shards, or any other list of independent jobs, on scoped worker
//! threads and hands the results back in item order.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::thread;

use crate::record::LogRecord;

/// An indexable source of per-user record blocks.
///
/// Implementations must be cheap to share across threads (`Sync`) and
/// `block(i)` must be a pure function of `i`: calling it in any order, from
/// any thread, any number of times, yields the same records.
pub trait BlockSource: Sync {
    /// Number of user blocks.
    fn len(&self) -> usize;

    /// True when the source holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th user's records, time-ordered.
    fn block(&self, idx: usize) -> Vec<LogRecord>;
}

impl BlockSource for [Vec<LogRecord>] {
    fn len(&self) -> usize {
        <[Vec<LogRecord>]>::len(self)
    }

    fn block(&self, idx: usize) -> Vec<LogRecord> {
        self[idx].clone()
    }
}

impl BlockSource for Vec<Vec<LogRecord>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn block(&self, idx: usize) -> Vec<LogRecord> {
        self[idx].clone()
    }
}

impl<B: BlockSource + ?Sized> BlockSource for &B {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn block(&self, idx: usize) -> Vec<LogRecord> {
        (**self).block(idx)
    }
}

/// Resolves a `threads` knob: `0` means one worker per available core.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `n` items into at most `shards` contiguous, near-equal ranges
/// covering `0..n` in order. Fewer ranges come back when `n < shards`;
/// zero shards are treated as one.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` on every item and returns the results in item order, or the
/// first error in item order.
///
/// `min(threads, items.len())` scoped workers take the next unclaimed item
/// from a shared cursor until none is left, so items of uneven cost keep
/// every worker busy; with at most one worker the items run inline, in
/// order, and the first error stops the run. Each result is filed under
/// its item's index, so which worker ran an item never shows in the
/// output.
pub fn fan_out<T: Send, R: Send, E: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Only `next` runs under the lock, and it cannot panic, so the lock
    // never poisons; taking the guard out of a `PoisonError` keeps the
    // cursor total without a panic path.
    let queue = Mutex::new(items.into_iter().enumerate());
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, Result<R, E>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((i, item)) = next() {
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        // A join fails only if its worker panicked: continue that panic,
        // payload and message intact.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_contiguous_and_cover_all_items() {
        for n in [0usize, 1, 2, 7, 16, 100, 101] {
            for shards in [1usize, 2, 3, 4, 7, 8, 64] {
                let ranges = shard_ranges(n, shards);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "gap at n={n} shards={shards}");
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, n, "coverage at n={n} shards={shards}");
                assert!(ranges.len() <= shards);
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        let ranges = shard_ranges(10, 4);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn fan_out_keeps_item_order_and_the_first_error() {
        // More items than workers, so every worker takes several; the
        // result never depends on which one did.
        let items: Vec<u64> = (0..50).collect();
        let square = |x: u64| Ok::<u64, u64>(x * x);
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(fan_out(items.clone(), threads, square), Ok(want.clone()));
            // Several items fail; the lowest index wins whoever ran first.
            let failing = |x: u64| if x % 13 == 7 { Err(x) } else { Ok(x) };
            assert_eq!(
                fan_out(items.clone(), threads, failing),
                Err(7),
                "threads {threads}"
            );
            let none: Result<Vec<u64>, u64> = fan_out(Vec::new(), threads, square);
            assert_eq!(none, Ok(Vec::new()));
            assert_eq!(fan_out(vec![5], threads, square), Ok(vec![25]));
        }
    }

    #[test]
    #[should_panic(expected = "item 1 is out of disk")]
    fn fan_out_re_raises_a_worker_panic_with_its_message() {
        let _ = fan_out(vec![0u8, 1], 2, |x| {
            assert!(x != 1, "item {x} is out of disk");
            Ok::<u8, ()>(x)
        });
    }

    #[test]
    fn fan_out_runs_items_concurrently() {
        // Two items that each wait for the other finish only if two
        // workers run them at the same time.
        let barrier = std::sync::Barrier::new(2);
        let got = fan_out(vec![1u8, 2], 2, |x| {
            barrier.wait();
            Ok::<u8, ()>(x)
        });
        assert_eq!(got, Ok(vec![1, 2]));
    }

    #[test]
    fn vec_source_round_trips() {
        let blocks: Vec<Vec<LogRecord>> = vec![Vec::new(), Vec::new()];
        assert_eq!(BlockSource::len(&blocks), 2);
        assert!(BlockSource::block(&blocks, 1).is_empty());
        let by_ref = &blocks;
        assert_eq!(BlockSource::len(&by_ref), 2);
        assert!(!BlockSource::is_empty(&by_ref));
    }
}
