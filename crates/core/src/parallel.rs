//! Batch fan-out for sketch construction.
//!
//! A query runs on the thread of the server worker that took it; the
//! only work split across threads is batch sketching (import, recovery,
//! retune, `insert_batch`), where nothing else runs. This module holds
//! the one work-stealing chunked map that does it, built on
//! [`std::thread::scope`] so borrowed data crosses into workers without
//! `Arc` plumbing.
//!
//! # Determinism contract
//!
//! [`try_map_chunked`] produces results *bit-identical* to a serial
//! left-to-right map, for any thread count:
//!
//! - outputs are reassembled by item index;
//! - when several items fail, the error reported is the one at the
//!   lowest item index, matching what a serial loop surfaces.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::Result;

/// Items per claim of the work-stealing queue in [`try_map_chunked`].
///
/// Small enough that an expensive straggler (one many-segment object)
/// cannot leave other workers idle for long, large enough that the
/// atomic claim is amortized over real work.
pub(crate) const DEFAULT_CHUNK: usize = 8;

/// Applies a fallible `work(index, &item)` to every item of `items` on
/// `threads` scoped workers, returning outputs in item order.
///
/// Workers claim fixed-size index chunks from a shared atomic counter
/// (a work-stealing queue degenerated to a ticket counter), so uneven
/// per-item cost — sketching time grows with an object's segment count
/// — balances automatically. If any item fails, the error at the
/// **lowest item index** is returned, matching the serial left-to-right
/// loop. Worker panics propagate to the caller.
pub(crate) fn try_map_chunked<T, U, F>(
    threads: usize,
    chunk_size: usize,
    items: &[T],
    work: F,
) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    let chunk_size = chunk_size.max(1);
    if threads <= 1 || items.len() <= chunk_size {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| work(i, item))
            .collect();
    }
    let num_chunks = items.len().div_ceil(chunk_size);
    let next_chunk = AtomicUsize::new(0);
    let worker = |_w: usize| {
        let mut produced: Vec<(usize, U)> = Vec::new();
        let mut failure: Option<(usize, crate::error::CoreError)> = None;
        'claim: loop {
            // ordering: Relaxed; fetch_add is the sole synchronization point and only uniqueness of the claimed index matters
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                break;
            }
            let start = c * chunk_size;
            let end = (start + chunk_size).min(items.len());
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                match work(i, item) {
                    Ok(u) => produced.push((i, u)),
                    Err(e) => {
                        failure = Some((i, e));
                        break 'claim;
                    }
                }
            }
        }
        (produced, failure)
    };
    let per_worker = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(num_chunks))
            .map(|w| {
                let worker = &worker;
                scope.spawn(move || worker(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });

    // Chunks are claimed in increasing index order, and each worker stops
    // at its first failure, so the worker owning the chunk of the
    // globally-lowest failing index reports exactly that failure.
    let mut first_failure: Option<(usize, crate::error::CoreError)> = None;
    let mut produced: Vec<(usize, U)> = Vec::with_capacity(items.len());
    for (outputs, failure) in per_worker {
        if let Some((i, e)) = failure {
            if first_failure.as_ref().is_none_or(|(fi, _)| i < *fi) {
                first_failure = Some((i, e));
            }
        }
        produced.extend(outputs);
    }
    if let Some((_, e)) = first_failure {
        return Err(e);
    }
    produced.sort_unstable_by_key(|&(i, _)| i);
    Ok(produced.into_iter().map(|(_, u)| u).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    #[test]
    fn try_map_chunked_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1usize, 2, 5] {
            let out = try_map_chunked(threads, 3, &items, |i, &x| {
                assert_eq!(i, x);
                Ok(x * 2)
            })
            .unwrap();
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_chunked_reports_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 2, 7] {
            let err = try_map_chunked(threads, 4, &items, |_, &x| {
                if x == 17 || x == 41 {
                    Err(CoreError::UnknownObject(x as u64))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert!(
                matches!(err, CoreError::UnknownObject(17)),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn try_map_chunked_handles_empty() {
        let out: Vec<usize> = try_map_chunked(4, 8, &[] as &[usize], |_, &x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }
}
