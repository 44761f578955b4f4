//! The work-stealing fork/join executor and the contiguous-run chunk
//! helper. See the crate docs for the determinism contract.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::workers::workers;

/// Lock a deque, ignoring poisoning: the queues hold plain index ranges,
/// which cannot be left in a broken state by a panicking worker (the
/// panic itself is propagated separately after join).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Steal one block from the back of a sibling's deque. The probe order
/// (`me+1`, `me+2`, …) is deterministic; victim choice affects only
/// scheduling, never results, so no randomness is needed here.
fn steal(queues: &[Mutex<VecDeque<Range<usize>>>], me: usize) -> Option<Range<usize>> {
    for k in 1..queues.len() {
        let victim = (me + k) % queues.len();
        if let Some(block) = lock(&queues[victim]).pop_back() {
            return Some(block);
        }
    }
    None
}

/// Parallel indexed map with ordered reduction: returns
/// `(0..n).map(|i| body(i))` collected **in index order**, evaluated on
/// a work-stealing pool of [`workers()`] threads.
///
/// Index blocks are dealt contiguously to per-worker deques; each worker
/// pops its own front and steals from a sibling's back when idle.
/// Results are carried back tagged with their index and merged by index,
/// so the output is bit-identical for any worker count and any steal
/// interleaving, provided `body` is deterministic per index.
///
/// A panic in `body` is re-raised on the caller after every worker has
/// been joined (first panic wins); remaining work may be skipped.
pub fn map_collect<R, F>(n: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = workers().min(n);
    if threads <= 1 {
        return (0..n).map(body).collect();
    }
    // Grain: aim for ~8 blocks per worker, so thieves can find work
    // without turning every index into a synchronization point.
    let grain = (n / (threads * 8)).max(1);
    let queues: Vec<Mutex<VecDeque<Range<usize>>>> = (0..threads)
        .map(|w| {
            let lo = w * n / threads;
            let hi = (w + 1) * n / threads;
            let mut q = VecDeque::new();
            let mut start = lo;
            while start < hi {
                let end = (start + grain).min(hi);
                q.push_back(start..end);
                start = end;
            }
            Mutex::new(q)
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let queues = &queues;
                let body = &body;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Pop in its own statement so the guard on our
                        // deque drops before stealing or running the
                        // body: a `while let` scrutinee would keep the
                        // lock alive for the whole iteration, making
                        // two idle workers that probe each other a
                        // lock-order deadlock.
                        let own = lock(&queues[w]).pop_front();
                        let Some(block) = own.or_else(|| steal(queues, w)) else {
                            break;
                        };
                        for i in block {
                            local.push((i, body(i)));
                        }
                    }
                    local
                })
            })
            .collect();

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        let out: Vec<R> = slots.into_iter().flatten().collect();
        assert_eq!(out.len(), n, "work-stealing executor lost results");
        out
    })
}

/// Apply `body(chunk_index, chunk)` to every `chunk_size`-sized chunk of
/// `data` (last chunk may be short), in parallel across **contiguous
/// runs** of chunks — one run per worker, no stealing. Equivalent to
/// `data.chunks_mut(chunk_size).enumerate().for_each(..)` but
/// multi-threaded; the buffer's final contents are identical either way
/// because chunk `i` always receives the same `(index, data)` pair and
/// chunks never overlap (see the crate-level determinism contract).
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_size: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert!(chunk_size > 0, "chunk_size must be nonzero");
    let n_chunks = data.len().div_ceil(chunk_size.max(1));
    let threads = workers().min(n_chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_size.max(1)).enumerate() {
            body(i, chunk);
        }
        return;
    }
    // Contiguous runs of whole chunks per worker.
    let chunks_per_worker = n_chunks.div_ceil(threads);
    let run_len = chunks_per_worker * chunk_size;
    std::thread::scope(|scope| {
        for (w, run) in data.chunks_mut(run_len).enumerate() {
            let body = &body;
            scope.spawn(move || {
                let base = w * chunks_per_worker;
                for (j, chunk) in run.chunks_mut(chunk_size).enumerate() {
                    body(base + j, chunk);
                }
            });
        }
    });
}

/// Serialize tests that mutate the process-wide worker override.
/// Poisoning is ignored: `should_panic` tests hold this lock while
/// panicking by design.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workers::set_workers_for_test;

    /// Run `f` under each forced worker count, restoring the default.
    fn with_counts(counts: &[usize], f: impl Fn()) {
        let _guard = test_lock();
        for &c in counts {
            set_workers_for_test(c);
            f();
        }
        set_workers_for_test(0);
    }

    #[test]
    fn map_collect_ordered_across_worker_counts() {
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        with_counts(&[1, 2, 3, 8], || {
            assert_eq!(map_collect(1000, |i| i * i), want);
        });
    }

    #[test]
    fn map_collect_empty_and_tiny() {
        assert!(map_collect(0, |i| i).is_empty());
        assert_eq!(map_collect(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn map_collect_more_workers_than_items() {
        with_counts(&[16], || {
            assert_eq!(map_collect(3, |i| i * 10), vec![0, 10, 20]);
        });
    }

    #[test]
    #[should_panic(expected = "task 37 exploded")]
    fn panics_propagate_to_caller() {
        let _guard = test_lock();
        set_workers_for_test(4);
        // The executor must re-raise the worker's panic on the caller
        // thread after joining everyone — not deadlock, not abort.
        let _ = map_collect(100, |i| {
            assert!(i != 37, "task {i} exploded");
            i
        });
    }

    #[test]
    fn chunked_matches_serial() {
        let mut a: Vec<u64> = (0..1000).collect();
        let mut b = a.clone();
        {
            let _guard = test_lock();
            set_workers_for_test(4);
            for_each_chunk_mut(&mut a, 7, |i, c| {
                for v in c.iter_mut() {
                    *v = v.wrapping_mul(31).wrapping_add(i as u64);
                }
            });
            set_workers_for_test(0);
        }
        b.chunks_mut(7).enumerate().for_each(|(i, c)| {
            for v in c.iter_mut() {
                *v = v.wrapping_mul(31).wrapping_add(i as u64);
            }
        });
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_empty_input() {
        let mut empty: Vec<u8> = vec![];
        for_each_chunk_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn idle_workers_do_not_deadlock() {
        // Regression: workers used to hold their own deque's lock while
        // probing victims (a `while let` scrutinee keeps the guard
        // alive), so two simultaneously-idle workers could cycle-wait
        // forever. Many tiny rounds make the all-idle shutdown race
        // overwhelmingly likely to occur at least once.
        with_counts(&[4, 8], || {
            for round in 0..200usize {
                let got = map_collect(6, move |i| i + round);
                let want: Vec<usize> = (0..6).map(|i| i + round).collect();
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn stealing_actually_happens_under_skew() {
        // One pathologically slow early block forces later blocks of the
        // same worker's span to be stolen; ordered reduction must still
        // hold.
        with_counts(&[4], || {
            let got = map_collect(256, |i| {
                if i == 0 {
                    // Busy work, no wall-clock: deterministic spin.
                    let mut acc = 0u64;
                    for k in 0..2_000_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    assert!(acc != 1);
                }
                i as u64
            });
            let want: Vec<u64> = (0..256).collect();
            assert_eq!(got, want);
        });
    }
}
