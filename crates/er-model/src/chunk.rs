//! Contiguous range chunking for the deterministic parallel sweeps.
//!
//! The entity-index shard builder, `mb-core`'s graph sweeps and the batch
//! scorer all split `0..n` into near-equal contiguous ranges and run one
//! worker per range; this is the one shared implementation of both steps
//! (DESIGN.md §8 — chunk boundaries are part of the deterministic
//! execution model, so every parallel stage must chunk identically).

use std::ops::Range;

/// Splits `0..n` into at most `threads` contiguous chunks of near-equal
/// size, none smaller than `floor` (except the only chunk of a small input).
///
/// Guarantees: chunks are non-empty, adjacent (each starts where the
/// previous ended) and cover `0..n` exactly; the result is a pure function
/// of `(n, threads, floor)`, never of the machine.
pub fn chunk_ranges(n: usize, threads: usize, floor: usize) -> Vec<Range<usize>> {
    let max_useful = n.div_ceil(floor.max(1)).max(1);
    let threads = threads.max(1).min(max_useful);
    let per = n.div_ceil(threads).max(1);
    (0..threads)
        .map(|t| (t * per).min(n)..((t + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `f` once per [`chunk_ranges`]`(n, threads, floor)` chunk and
/// returns the results in chunk order (see [`map_jobs`]).
pub fn map_chunks<T, F>(n: usize, threads: usize, floor: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_jobs(chunk_ranges(n, threads, floor), f)
}

/// Runs `f` once per job and returns the results in job order.
///
/// A single job runs inline on the calling thread, so a one-worker sweep
/// spawns nothing; more jobs run on scoped threads, and a worker's panic
/// is re-raised on the caller once every worker has been joined.
pub fn map_jobs<J, T, F>(jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(move || f(job))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_range_contiguously() {
        for n in [0usize, 1, 255, 256, 257, 10_000] {
            for t in [1usize, 2, 8, 64] {
                for floor in [1usize, 256, 1024] {
                    let cs = chunk_ranges(n, t, floor);
                    let total: usize = cs.iter().map(|r| r.end - r.start).sum();
                    assert_eq!(total, n, "n={n} t={t} floor={floor}");
                    for w in cs.windows(2) {
                        assert_eq!(w[0].end, w[1].start);
                    }
                    assert!(cs.iter().all(|r| !r.is_empty()));
                }
            }
        }
    }

    #[test]
    fn floors_small_inputs_to_one_chunk() {
        assert_eq!(chunk_ranges(256, 16, 256).len(), 1);
        assert_eq!(chunk_ranges(512, 16, 256).len(), 2);
        assert_eq!(chunk_ranges(2, 16, 256), vec![0..2]);
        assert_eq!(chunk_ranges(257, 100, 256).len(), 2);
    }

    #[test]
    fn respects_thread_cap() {
        assert_eq!(chunk_ranges(8_000, 8, 1).len(), 8);
        assert_eq!(chunk_ranges(256 * 8, 8, 256).len(), 8);
        assert_eq!(chunk_ranges(10, 3, 1).len(), 3);
    }

    #[test]
    fn zero_inputs_are_empty() {
        assert!(chunk_ranges(0, 4, 256).is_empty());
        assert!(map_chunks(0, 4, 256, |r| r.len()).is_empty());
    }

    #[test]
    fn map_chunks_returns_results_in_chunk_order() {
        for threads in [1usize, 2, 3, 8] {
            let got = map_chunks(1000, threads, 100, |r| (r.start, r.end));
            let want: Vec<_> =
                chunk_ranges(1000, threads, 100).into_iter().map(|r| (r.start, r.end)).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_runs_a_single_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let got = map_chunks(10, 8, 256, |r| (r, std::thread::current().id()));
        assert_eq!(got, vec![(0..10, caller)]);
    }

    #[test]
    #[should_panic(expected = "worker failed")]
    fn map_chunks_re_raises_a_worker_panic() {
        map_chunks(1000, 4, 1, |r| {
            assert!(r.start == 0, "worker failed");
        });
    }
}
