//! Host-parallel loops: the one place the workspace starts host threads,
//! one per core of the host's available parallelism (read once). The CPU
//! R-tree, the oracle and the host plan steps map per query with
//! [`par_map`]; the simulated GPU runs its warps with [`par_ordered`],
//! whose in-order epilogues keep a launch's cursor bumps, and every counter
//! after them, independent of host scheduling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// Most indices a worker claims at a time. Bodies differ in cost by orders
/// of magnitude (a tile of a dense query against one of a sparse one), so
/// workers claim small blocks as they go and finish together.
pub const MAX_BLOCK: usize = 64;

/// `turn` value once a worker has panicked: nobody waits for a turn again.
const POISONED: usize = usize::MAX;

/// Apply `f` to every index in `0..n` on the host's cores; the results come
/// back in index order.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_ordered(n, |_: &mut (), i| f(i), |t| t)
}

/// Run `body(scratch, i)` for every index in `0..n` on host workers, in no
/// particular order, then `epilogue` on what each body returned, one at a
/// time and **in ascending index order**; the epilogues' results come back
/// in index order. Each worker reuses one `W::default()` scratch. What an
/// item does to state shared across items belongs in the epilogue. A panic
/// in a body or an epilogue propagates to the caller.
///
/// Workers claim blocks of at most [`MAX_BLOCK`] consecutive indices in
/// ascending order and run their bodies. A block's epilogues run once every
/// earlier block's are done, on the worker that ran its bodies (so nothing
/// staged is freed across threads); until then that worker claims further
/// blocks rather than waiting.
pub fn par_ordered<W, S, T, B, E>(n: usize, body: B, epilogue: E) -> Vec<T>
where
    W: Default,
    T: Send,
    B: Fn(&mut W, usize) -> S + Sync,
    E: Fn(S) -> T + Sync,
{
    let workers = host_threads().min(n).max(1);
    // About eight blocks per worker on small inputs, so a few heavy items
    // still spread over every worker.
    let block = (n / (workers * 8)).clamp(1, MAX_BLOCK);
    let blocks = n.div_ceil(block);
    // The next block to claim. A claim publishes nothing: what one block's
    // epilogues see of another's is ordered by `turn`'s mutex.
    let next = AtomicUsize::new(0);
    // The block whose epilogues run next. Every store leaves a valid count,
    // so a lock poisoned by a panicking worker is recovered, not refused.
    let turn = (Mutex::new(0usize), Condvar::new());

    let work = || {
        let _poison = PoisonOnPanic(&turn);
        let (lock, cv) = &turn;
        let mut scratch = W::default();
        let mut done: Vec<(usize, Vec<T>)> = Vec::new();
        // Blocks whose bodies ran here and whose turn has not come yet.
        let mut pending: VecDeque<(usize, Vec<S>)> = VecDeque::new();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            let claimed = b < blocks;
            if claimed {
                let staged =
                    (b * block..((b + 1) * block).min(n)).map(|i| body(&mut scratch, i)).collect();
                pending.push_back((b, staged));
            }
            // Run the epilogues of every pending block whose turn it is. A
            // worker with blocks left to claim never waits for a turn; one
            // without waits until its pending blocks are done.
            while let Some(front) = pending.front().map(|(b, _)| *b) {
                let current = lock.lock().unwrap_or_else(PoisonError::into_inner);
                if *current != front {
                    if *current == POISONED {
                        return done;
                    }
                    if claimed {
                        break;
                    }
                    drop(cv.wait(current).unwrap_or_else(PoisonError::into_inner));
                    continue;
                }
                drop(current);
                let (b, staged) = pending.pop_front().expect("a pending block");
                done.push((b, staged.into_iter().map(&epilogue).collect()));
                *lock.lock().unwrap_or_else(PoisonError::into_inner) = b + 1;
                cv.notify_all();
            }
            if !claimed {
                return done;
            }
        }
    };

    let mut parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // The calling thread is a worker too.
        let mut parts = work();
        for handle in handles {
            parts.extend(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        parts
    });
    parts.sort_unstable_by_key(|(b, _)| *b);
    parts.into_iter().flat_map(|(_, results)| results).collect()
}

/// The host's parallelism, read once: on Linux each query reads cgroup
/// files, a cost on the order of the scoped spawn it sizes.
fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Releases every worker waiting for a turn when the worker holding this
/// unwinds, so a panicking body or epilogue surfaces instead of hanging
/// the loop.
struct PoisonOnPanic<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (lock, cv) = self.0;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = POISONED;
            cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let v = par_map(10_000, |i| i * 2);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn flattening_preserves_order() {
        let v: Vec<usize> =
            par_map(100, |i| (0..3).map(move |j| i * 10 + j)).into_iter().flatten().collect();
        assert_eq!(v.len(), 300);
        assert_eq!(&v[..4], &[0, 1, 2, 10]);
        assert_eq!(&v[297..], &[990, 991, 992]);
    }

    #[test]
    fn worker_panic_propagates() {
        for bad in [0, 4_999, 9_999] {
            let result = std::panic::catch_unwind(|| {
                par_map(10_000, |i| {
                    assert_ne!(i, bad, "boom");
                    i
                })
            });
            assert!(result.is_err(), "item {bad}");
        }
    }

    #[test]
    fn skewed_costs_keep_index_order() {
        // Item 0 finishes only once the last item has run, so its worker
        // falls behind while the others run ahead through every later block.
        let n = 20 * MAX_BLOCK + 3;
        let rendezvous = std::sync::Barrier::new(2);
        let skewed = |i: usize| {
            if host_threads() > 1 && (i == 0 || i == n - 1) {
                rendezvous.wait();
            }
            i
        };
        assert_eq!(par_map(n, skewed), (0..n).collect::<Vec<_>>());
        let order = Mutex::new(Vec::new());
        let out = par_ordered(
            n,
            |_: &mut (), i| skewed(i),
            |i| {
                order.lock().unwrap().push(i);
                i * 2
            },
        );
        assert_eq!(order.into_inner().unwrap(), (0..n).collect::<Vec<_>>());
        assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_scratch_per_worker() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        struct Scratch(Vec<usize>);
        impl Default for Scratch {
            fn default() -> Self {
                CREATED.fetch_add(1, Ordering::Relaxed);
                Scratch(Vec::new())
            }
        }
        let n = 10 * MAX_BLOCK;
        let out = par_ordered(
            n,
            |scratch: &mut Scratch, i| {
                scratch.0.push(i);
                scratch.0.len()
            },
            |seen| seen,
        );
        let created = CREATED.load(Ordering::Relaxed);
        assert!((1..=host_threads().min(n)).contains(&created), "{created} scratches");
        // A scratch is kept across its worker's items: only the first item
        // of each finds it empty.
        assert_eq!(out.len(), n);
        let fresh = out.iter().filter(|&&seen| seen == 1).count();
        assert!((1..=created).contains(&fresh), "{fresh} fresh of {created}");
    }
}
