//! Thread-parallel map: the one parallel primitive the crates need, an
//! ordered map over `std::thread::scope` (the workspace builds offline,
//! without rayon; `par_map_slice` ≈ `par_iter().map().collect()`), and
//! the thread-count bounds every thread pool here shares.

/// The host's cores (1 when the count cannot be read), read once per
/// process: a read takes tens of µs (it consults the cgroup CPU quota),
/// and every run asks.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// How many threads work on `items` items when `requested` were asked
/// for, the calling thread included when it works too (a sharded run
/// spawns one fewer): `min(requested, items, available cores)`, at least
/// one, so no caller value asks for more threads than the host has cores.
pub(crate) fn worker_count(requested: usize, items: usize) -> usize {
    worker_count_on(requested, items, host_cores())
}

/// [`worker_count`] on a host with `cores` cores.
fn worker_count_on(requested: usize, items: usize, cores: usize) -> usize {
    requested.min(items).min(cores).max(1)
}

/// Whether a run of `cells` plan cells, allowed `threads` threads, has one
/// to spare for drawing its arrival stream (`engine::shard`'s producer):
/// only a lone cell does, and only when both `threads` and the host's
/// cores reach two. `usize::MAX` threads means "the host's cores". A lone
/// cell takes each arrival as it is drawn, so the draws overlap its
/// work; several cells (on one worker or many) batch arrivals into
/// per-cell chunks, which a producer cannot keep up with while they fill
/// and sits idle beside while they drain.
pub(crate) fn spare_thread(threads: usize, cells: usize) -> bool {
    spare_thread_on(threads, cells, host_cores())
}

/// [`spare_thread`] on a host with `cores` cores.
fn spare_thread_on(threads: usize, cells: usize, cores: usize) -> bool {
    cells == 1 && threads.min(cores) >= 2
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
        let cores = host_cores();
        let (shards, threads, cells) = (1024, 1024, 1024);
        assert_eq!(worker_count(shards.min(threads), cells), cores.min(1024));
        assert_eq!(worker_count(8, 3), 3.min(cores));
        assert_eq!(worker_count(0, 5), 1);
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn sharded_runs_spawn_all_but_the_calling_thread() {
        // Decided without spawning: a 16-cell run works on
        // `worker_count` threads, the calling thread one of them, so it
        // spawns one fewer: none at threads = 1 or on a one-core host,
        // and cores − 1 when asked for every core.
        let spawned = |threads, cores| worker_count_on(threads, 16, cores) - 1;
        assert_eq!(spawned(1, 8), 0, "threads = 1 stays serial");
        assert_eq!(spawned(0, 8), 0);
        assert_eq!(spawned(usize::MAX, 1), 0, "one-core host");
        assert_eq!(spawned(usize::MAX, 2), 1, "the host's cores");
        assert_eq!(spawned(usize::MAX, 8), 7);
        assert_eq!(spawned(2, 8), 1);
        assert_eq!(spawned(usize::MAX, 64), 15, "no more threads than cells");
        assert_eq!(worker_count(usize::MAX, 16) - 1, host_cores().min(16) - 1);
    }

    #[test]
    fn spare_thread_needs_one_cell_two_threads_and_two_cores() {
        // Decided without spawning: a strictly serial run, a one-core
        // host and a multi-cell plan (on one worker or several) draw
        // arrivals on the calling thread; a lone cell with a second
        // thread and core does not.
        assert!(!spare_thread_on(1, 1, 8), "threads = 1 stays serial");
        assert!(!spare_thread_on(0, 1, 8));
        assert!(!spare_thread_on(8, 2, 8), "two cells");
        assert!(!spare_thread_on(8, 16, 8));
        assert!(!spare_thread_on(usize::MAX, 1, 1), "one-core host");
        assert!(spare_thread_on(2, 1, 2));
        assert!(spare_thread_on(usize::MAX, 1, 2), "the host's cores");
        assert_eq!(spare_thread(2, 1), host_cores() >= 2);
        assert!(!spare_thread(1, 1), "threads = 1 stays serial");
        assert!(!spare_thread(usize::MAX, 16), "more than one cell");
    }
}
