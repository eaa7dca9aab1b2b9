//! Offline stand-in for `rayon`: the parallel-iterator and parallel-sort
//! surface this workspace uses, implemented with real OS threads via
//! `std::thread::scope` (no thread pool — threads are spawned per
//! operation, which is fine at this workspace's granularity: operations
//! are kernel launches, oracle sweeps, and large sorts).
//!
//! Semantics preserved from rayon:
//! * `collect()` keeps input order;
//! * panics in worker closures propagate to the caller.

use std::cmp::Ordering;

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Number of worker threads for a work size of `n` items. The host's
/// parallelism is read once: on Linux each query reads cgroup files.
fn threads_for(n: usize) -> usize {
    static HOST_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let host =
        *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |t| t.get()));
    host.min(n).max(1)
}

/// Parallel ordered map: apply `f` to every item, preserving order.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let n = items.len();
    let threads = threads_for(n);
    if threads <= 1 || n < 2 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|part| s.spawn(move || part.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("rayon shim worker panicked"));
        }
        out
    })
}

/// A parallel iterator: adapters compose lazily, evaluation happens in
/// `drive()` (called by `collect`), which fans work out across
/// threads and returns results in input order.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Evaluate in parallel into an ordered `Vec`.
    fn drive(self) -> Vec<Self::Item>;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn flat_map_iter<F, I>(self, f: F) -> FlatMapIter<Self, F>
    where
        F: Fn(Self::Item) -> I + Sync + Send,
        I: IntoIterator,
        I::Item: Send,
    {
        FlatMapIter { base: self, f }
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.drive().into_iter().collect()
    }
}

/// Leaf iterator over materialized items.
pub struct IndexedParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IndexedParIter<T> {
    type Item = T;
    fn drive(self) -> Vec<T> {
        self.items
    }
}

pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    fn drive(self) -> Vec<R> {
        par_map_vec(self.base.drive(), &self.f)
    }
}

pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, F, I> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> I + Sync + Send,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn drive(self) -> Vec<I::Item> {
        let f = &self.f;
        let nested =
            par_map_vec(self.base.drive(), &|item| f(item).into_iter().collect::<Vec<_>>());
        nested.into_iter().flatten().collect()
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> IndexedParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> IndexedParIter<usize> {
        IndexedParIter { items: self.collect() }
    }
}

/// `par_iter()` on references, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> IndexedParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> IndexedParIter<&'a T> {
        IndexedParIter { items: self.iter().collect() }
    }
}

/// Parallel sort. Strategy: sort contiguous chunks on worker threads,
/// then run the std stable sort over the whole slice — timsort detects the
/// pre-sorted runs and performs only the O(n log k) merge work, so the
/// comparison-heavy O(n log n) phase is what parallelizes. The result is
/// stable, which satisfies the unstable contract.
pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        let slice = self.as_parallel_slice_mut();
        let n = slice.len();
        let threads = threads_for(n);
        if threads <= 1 || n < 4096 {
            slice.sort_by(|a, b| cmp(a, b));
            return;
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|s| {
            for part in slice.chunks_mut(chunk) {
                let cmp = &cmp;
                s.spawn(move || part.sort_by(|a, b| cmp(a, b)));
            }
        });
        // Merge the sorted runs (run-adaptive stable sort).
        slice.sort_by(|a, b| cmp(a, b));
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let v: Vec<usize> = (0..100usize)
            .into_par_iter()
            .flat_map_iter(|i| (0..3).map(move |j| i * 10 + j))
            .collect();
        assert_eq!(v.len(), 300);
        assert_eq!(&v[..4], &[0, 1, 2, 10]);
    }

    #[test]
    fn par_sort_sorts() {
        // Keys with many duplicates; payload records original position.
        let mut v: Vec<(u32, usize)> = (0..50_000).map(|i| ((i * 7919 % 100) as u32, i)).collect();
        v.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
        // The merge pass is stable: equal keys keep their original order.
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0 || w[0].1 < w[1].1));
    }

    #[test]
    fn worker_panic_propagates() {
        // The panic payload differs between the serial fallback ("boom")
        // and the threaded path (the join message); only propagation is
        // guaranteed.
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..10_000usize)
                .into_par_iter()
                .map(|i| {
                    if i == 9_999 {
                        panic!("boom");
                    }
                    i
                })
                .collect();
        });
        assert!(result.is_err());
    }
}
