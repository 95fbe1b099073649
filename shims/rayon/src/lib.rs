//! Offline shim of `rayon`'s parallel-iterator surface used by this
//! workspace. Work is fanned over `std::thread::scope` with one chunk per
//! available core, and `collect` stitches results back **in input order**,
//! so a computation's output is bit-identical no matter how many threads
//! the machine has — exactly the property the loadgen sweep tests assert.

/// Number of worker threads the shim fans out to. Honors
/// `RAYON_NUM_THREADS` (like upstream rayon's default pool), falling back
/// to the machine's available parallelism.
///
/// The variable is read on every call, so a process can change widths
/// between calls. The fallback is read once per process: the standard
/// library reads the cgroup CPU-quota files for it, which allocates.
pub fn current_num_threads() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// This thread's index among the workers of the parallel call it
    /// serves; `None` on every other thread.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The calling thread's index among the shim's workers, or `None` when
/// called from outside one, mirroring upstream rayon. Code that would
/// start threads of its own can check it so that work already fanned out
/// one item per worker does not multiply its thread count.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|index| index.get())
}

pub mod iter {
    //! Parallel iterator traits.

    /// Types convertible into a parallel iterator.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;
        /// The iterator produced.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Converts `self`.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// A parallel pipeline over an ordered set of items.
    pub trait ParallelIterator: Sized {
        /// Element type.
        type Item: Send;

        /// Materializes the pipeline, preserving input order.
        fn run(self) -> Vec<Self::Item>;

        /// Maps each element through `f` in parallel.
        fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }

        /// Collects results in input order.
        fn collect<C: From<Vec<Self::Item>>>(self) -> C {
            C::from(self.run())
        }
    }

    /// Base parallel iterator over an owned `Vec`.
    pub struct VecParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParallelIterator for VecParIter<T> {
        type Item = T;
        fn run(self) -> Vec<T> {
            self.items
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = VecParIter<T>;
        fn into_par_iter(self) -> VecParIter<T> {
            VecParIter { items: self }
        }
    }

    impl<T: Send> IntoParallelIterator for std::ops::Range<T>
    where
        std::ops::Range<T>: Iterator<Item = T>,
    {
        type Item = T;
        type Iter = VecParIter<T>;
        fn into_par_iter(self) -> VecParIter<T> {
            VecParIter {
                items: self.collect(),
            }
        }
    }

    /// Parallel map stage.
    pub struct Map<I, F> {
        inner: I,
        f: F,
    }

    impl<I, U, F> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        U: Send,
        F: Fn(I::Item) -> U + Sync,
    {
        type Item = U;

        fn run(self) -> Vec<U> {
            let items = self.inner.run();
            let n = items.len();
            if n == 0 {
                return Vec::new();
            }
            let threads = super::current_num_threads().min(n);
            let chunk = n.div_ceil(threads);
            let f = &self.f;
            // Wrap items so each thread takes ownership of its chunk while
            // results are stitched back by chunk index (order-preserving).
            let mut slots: Vec<Option<Vec<U>>> = (0..threads).map(|_| None).collect();
            let mut chunks: Vec<Vec<I::Item>> = Vec::with_capacity(threads);
            let mut items = items.into_iter();
            for _ in 0..threads {
                chunks.push(items.by_ref().take(chunk).collect());
            }
            std::thread::scope(|scope| {
                for (index, (slot, chunk_items)) in slots.iter_mut().zip(chunks).enumerate() {
                    scope.spawn(move || {
                        super::WORKER_INDEX.with(|cell| cell.set(Some(index)));
                        *slot = Some(chunk_items.into_iter().map(f).collect());
                    });
                }
            });
            slots
                .into_iter()
                .flat_map(|s| s.expect("worker thread completed"))
                .collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `rayon::prelude`.
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(ys, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chained_maps_and_empty_input() {
        let ys: Vec<String> = Vec::<u32>::new()
            .into_par_iter()
            .map(|x| x.to_string())
            .collect();
        assert!(ys.is_empty());
        let zs: Vec<u32> = (0u32..7)
            .into_par_iter()
            .map(|x| x + 1)
            .map(|x| x * 3)
            .collect();
        assert_eq!(zs, vec![3, 6, 9, 12, 15, 18, 21]);
    }

    #[test]
    fn thread_index_is_set_inside_workers_only() {
        assert_eq!(crate::current_thread_index(), None);
        let n = crate::current_num_threads().min(4);
        let indices: Vec<Option<usize>> = (0..n)
            .into_par_iter()
            .map(|_| crate::current_thread_index())
            .collect();
        // One item per worker: item i runs on worker i.
        assert_eq!(indices, (0..n).map(Some).collect::<Vec<_>>());
        assert_eq!(crate::current_thread_index(), None);
    }
}
