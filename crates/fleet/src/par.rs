//! Thread-parallel map: the one parallel primitive the crates need, an
//! ordered map over `std::thread::scope` (the workspace builds offline,
//! without rayon; `par_map_slice` ≈ `par_iter().map().collect()`), and
//! the worker-count bound every thread pool here shares.

/// How many worker threads to start for `items` items when `requested`
/// were asked for: `min(requested, items, available cores)`, at least
/// one, so no caller value asks for more threads than the host has cores.
pub(crate) fn worker_count(requested: usize, items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    requested.min(items).min(cores).max(1)
}

/// Ordered parallel map over a slice of `Copy` items: applies `f` to
/// every item on a pool of `threads` OS threads (capped by the item
/// count and the host's cores), preserving input order in the output.
/// The caller keeps ownership of `items`, so an iterated search can
/// refill one warm buffer per batch instead of building a fresh `Vec`
/// every time.
pub fn par_map_slice<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Copy + Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = worker_count(threads, n);
    if threads <= 1 {
        return items.iter().map(|&item| f(item)).collect();
    }

    // Static round-robin sharding (no stealing): item i is owned by
    // worker i % threads. Good enough for seed sweeps and grid blocks,
    // where per-item cost is roughly uniform.
    let f = &f;
    let mut dealt: Vec<std::vec::IntoIter<U>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let mine: Vec<T> = items.iter().skip(w).step_by(threads).copied().collect();
                scope.spawn(move || mine.into_iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        // a worker's panic re-raises here, as the scope would
        (workers.into_iter())
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .map(Vec::into_iter)
            .collect()
    });
    // Worker w returned items w, w + threads, … in order: dealing them
    // back out restores the input order.
    (0..n).filter_map(|i| dealt[i % threads].next()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..100).collect();
        let out = par_map_slice(&items, 8, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_fallback() {
        let out = par_map_slice(&[1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_count_is_bounded_by_items_and_cores() {
        // A 1 024-cell plan asked for 1 024 shards and threads gets one
        // worker per core, not 1 024 OS threads; nothing is spawned here.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let (shards, threads, cells) = (1024, 1024, 1024);
        assert_eq!(worker_count(shards.min(threads), cells), cores.min(1024));
        assert_eq!(worker_count(8, 3), 3.min(cores));
        assert_eq!(worker_count(0, 5), 1);
        assert_eq!(worker_count(4, 0), 1);
    }
}
