//! Parallel execution layer for the query path.
//!
//! The paper positions Ferret as a *toolkit*: the same filtering and
//! ranking units must serve interactive single queries and bulk
//! evaluation runs. This module provides the shared threading machinery
//! both use — a [`Parallelism`] knob resolved to a concrete thread
//! count and a work-stealing chunked map for irregular per-item work
//! (EMD ranking, sketch construction), built on
//! [`std::thread::scope`] so borrowed data crosses into workers without
//! `Arc` plumbing.
//!
//! # Determinism contract
//!
//! Every parallel entry point in this crate produces results
//! *bit-identical* to its serial counterpart, for any thread count:
//!
//! - chunked maps reassemble outputs by item index before any
//!   order-sensitive step (sorting, truncation) runs;
//! - when several items fail, the error reported is the one at the
//!   lowest item index, matching what a serial left-to-right loop
//!   surfaces.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::Result;

/// How much parallelism the query path may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded execution on the calling thread.
    Serial,
    /// Exactly this many worker threads (values below 1 behave as 1).
    Threads(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete thread count (always at least 1).
    pub fn resolve(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Thread count for a workload of `items` independent pieces: never
    /// more threads than items, never fewer than 1.
    pub fn threads_for(&self, items: usize) -> usize {
        self.resolve().min(items).max(1)
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Threads(n) => write!(f, "threads({n})"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

impl std::str::FromStr for Parallelism {
    type Err = crate::error::CoreError;

    /// Parses `serial`, `auto`, a bare thread count `N`, or the
    /// [`Display`](std::fmt::Display) form `threads(N)`, so every value
    /// round-trips through its own string representation.
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::Auto),
            other => {
                let digits = other
                    .strip_prefix("threads(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .unwrap_or(other);
                match digits.parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(Parallelism::Threads(n)),
                    _ => Err(crate::error::CoreError::InvalidQuery(format!(
                        "unknown parallelism {other:?} (expected serial, auto, N, or threads(N))"
                    ))),
                }
            }
        }
    }
}

/// Items per claim of the work-stealing queue in [`try_map_chunked`].
///
/// Small enough that an expensive straggler (one hard EMD instance)
/// cannot leave other workers idle for long, large enough that the
/// atomic claim is amortized over real work.
pub const DEFAULT_CHUNK: usize = 8;

/// Applies a fallible `work(index, &item)` to every item of `items` on
/// `threads` scoped workers, returning outputs in item order.
///
/// Workers claim fixed-size index chunks from a shared atomic counter
/// (a work-stealing queue degenerated to a ticket counter), so uneven
/// per-item cost — the norm for EMD, whose solver time depends on the
/// segment counts of both objects — balances automatically. If any item
/// fails, the error at the **lowest item index** is returned, matching
/// the serial left-to-right loop. Worker panics propagate to the caller.
pub fn try_map_chunked<T, U, F>(
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
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (produced, failure) in per_worker {
        if let Some((i, e)) = failure {
            if first_failure.as_ref().is_none_or(|(fi, _)| i < *fi) {
                first_failure = Some((i, e));
            }
        }
        for (i, u) in produced {
            slots[i] = Some(u);
        }
    }
    if let Some((_, e)) = first_failure {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("no failure implies every index produced"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    #[test]
    fn parallelism_resolves() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(4).resolve(), 4);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(Parallelism::Threads(8).threads_for(3), 3);
        assert_eq!(Parallelism::Threads(2).threads_for(0), 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn parallelism_displays() {
        assert_eq!(Parallelism::Serial.to_string(), "serial");
        assert_eq!(Parallelism::Threads(3).to_string(), "threads(3)");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }

    #[test]
    fn parallelism_parse_roundtrip() {
        for p in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(1),
            Parallelism::Threads(7),
        ] {
            assert_eq!(p.to_string().parse::<Parallelism>().unwrap(), p);
        }
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::Threads(4));
        for bad in ["", "0", "threads(0)", "threads(", "fast", "-1"] {
            assert!(
                matches!(bad.parse::<Parallelism>(), Err(CoreError::InvalidQuery(_))),
                "{bad:?} should be rejected"
            );
        }
    }

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
