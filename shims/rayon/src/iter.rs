//! Index-addressed parallel iterators: a [`ParallelIterator`] produces
//! `len()` items by index, and `map`, `zip`, `enumerate` and
//! `with_min_len` compose that index function into one [`Par`] closure.
//! `collect` hands task `t` the `t`-th `chunks_mut` slice of the output
//! (chunks sized by `pool::chunk_len`), so results land in input
//! order whichever thread runs which chunk. The one by-value source,
//! `Vec<T>`, moves each item out of a `Mutex<Option<T>>`. If a task
//! panics, items already collected leak (never drop twice) and the panic
//! is re-thrown on the caller.

use crate::pool;
use std::sync::Mutex;

/// Items `0..len()` fetched by index from any thread, in rayon's call
/// shapes. The driver fetches each index at most once.
#[allow(clippy::len_without_is_empty)]
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;
    fn len(&self) -> usize;
    fn fetch(&self, i: usize) -> Self::Item;
    /// Smallest number of items one task should process; adaptors keep
    /// the largest hint in the chain.
    fn min_len(&self) -> usize {
        1
    }

    fn map<R: Send>(
        self,
        f: impl Fn(Self::Item) -> R + Sync + Send,
    ) -> Par<impl Fn(usize) -> R + Sync + Send> {
        par(self.len(), self.min_len(), move |i| f(self.fetch(i)))
    }

    /// Truncates to the shorter side, like rayon.
    fn zip<Z: IntoParallelIterator>(
        self,
        other: Z,
    ) -> Par<impl Fn(usize) -> (Self::Item, Z::Item) + Sync + Send> {
        let b = other.into_par_iter();
        let (len, min_len) = (self.len().min(b.len()), self.min_len().max(b.min_len()));
        par(len, min_len, move |i| (self.fetch(i), b.fetch(i)))
    }

    fn enumerate(self) -> Par<impl Fn(usize) -> (usize, Self::Item) + Sync + Send> {
        par(self.len(), self.min_len(), move |i| (i, self.fetch(i)))
    }

    /// Lower bound on items per task, so cheap per-element work runs as
    /// chunked index ranges rather than tiny tasks.
    fn with_min_len(self, min_len: usize) -> Par<impl Fn(usize) -> Self::Item + Sync + Send> {
        par(self.len(), self.min_len().max(min_len), move |i| {
            self.fetch(i)
        })
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// The one iterator type: item `i` is `f(i)`; sources and adaptors differ
/// only in `f`.
pub struct Par<F> {
    len: usize,
    min_len: usize,
    f: F,
}

fn par<T, F: Fn(usize) -> T>(len: usize, min_len: usize, f: F) -> Par<F> {
    Par { len, min_len, f }
}

impl<T: Send, F: Fn(usize) -> T + Sync + Send> ParallelIterator for Par<F> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn fetch(&self, i: usize) -> T {
        (self.f)(i)
    }
    fn min_len(&self) -> usize {
        self.min_len
    }
}

/// Collection types buildable from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(src: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(src: I) -> Vec<T> {
        let n = src.len();
        let chunk = pool::chunk_len(n, src.min_len());
        let mut out: Vec<T> = Vec::with_capacity(n);
        let chunks: Vec<_> = out.spare_capacity_mut()[..n].chunks_mut(chunk).collect();
        let tasks = chunks.len();
        let chunks = chunks.into_par_iter();
        pool::parallel_for(tasks, &|t| {
            for (i, slot) in (t * chunk..).zip(chunks.fetch(t)) {
                slot.write(src.fetch(i));
            }
        });
        drop(chunks);
        // SAFETY: the `tasks` chunks of `chunks_mut(chunk)` cover slots
        // `0..n`, and `parallel_for` returned without re-throwing a panic,
        // so every task ran to the end of its chunk: every slot is written.
        #[allow(unsafe_code)]
        unsafe {
            out.set_len(n);
        }
        out
    }
}

/// `.par_iter()` on slices (and, via deref, `Vec`s).
pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> Par<impl Fn(usize) -> &'a Self::Item + Sync + Send>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> Par<impl Fn(usize) -> &'a T + Sync + Send> {
        par(self.len(), 1, move |i| &self[i])
    }
}

/// `.into_par_iter()` on `Vec`s and `usize` ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> Par<impl Fn(usize) -> Self::Item + Sync + Send>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> Par<impl Fn(usize) -> T + Sync + Send> {
        let items: Vec<Mutex<Option<T>>> = self.into_iter().map(|x| Mutex::new(Some(x))).collect();
        par(items.len(), 1, move |i| {
            let mut slot = items[i].lock().unwrap_or_else(|e| e.into_inner());
            slot.take().expect("each index is fetched once")
        })
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> Par<impl Fn(usize) -> usize + Sync + Send> {
        par(self.len(), 1, move |i| self.start + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{set_num_threads, test_pool};

    #[test]
    fn map_collect_preserves_order() {
        let _g = test_pool(4);
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 3).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn range_enumerate_zip() {
        let _g = test_pool(3);
        let doubled: Vec<usize> = (0..257).into_par_iter().map(|i| i * 2).collect();
        assert_eq!((doubled.len(), doubled[256]), (257, 512));

        let names: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let pairs: Vec<(usize, String)> = names
            .par_iter()
            .enumerate()
            .map(|(i, s)| (i, s.clone()))
            .collect();
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, (j, s))| i == *j && *s == format!("s{i}")));

        // zip with a by-value Vec moves items out without dropping twice.
        let owned: Vec<Box<usize>> = (0..500).map(Box::new).collect();
        let zipped: Vec<usize> = (0..500)
            .into_par_iter()
            .zip(owned)
            .map(|(i, b)| i + *b)
            .collect();
        assert!(zipped.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn with_min_len_still_covers_all() {
        let _g = test_pool(4);
        let out: Vec<usize> = (0..5000)
            .into_par_iter()
            .with_min_len(256)
            .map(|i| i + 1)
            .collect();
        assert_eq!((out.len(), out[4999]), (5000, 5000));
    }

    #[test]
    fn collect_matches_at_any_thread_count() {
        let _g = test_pool(4);
        let run = |t| {
            set_num_threads(t);
            (0..40_000)
                .into_par_iter()
                .map(|i| i * i % 97)
                .collect::<Vec<usize>>()
        };
        let seq = run(1);
        for t in [2, 5, 8] {
            assert_eq!(run(t), seq, "thread count {t} changed collect output");
        }
    }
}
