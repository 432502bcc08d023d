//! The MapReduce task contract: map, partition, sort, group, reduce.

use crate::counters::Counters;
use std::cmp::Ordering;
use std::iter::Peekable;
use std::vec::IntoIter;

/// A complete MapReduce job description.
///
/// This bundles what Hadoop spreads over four classes: the `Mapper`, the
/// custom `Partitioner` (Section 2.1 of the paper), the sort `Comparator`
/// over the composite key and the grouping comparator, and the `Reducer`.
///
/// The composite-key idiom works exactly like Hadoop's secondary sort:
/// [`partition`](MapReduceTask::partition) and
/// [`group_eq`](MapReduceTask::group_eq) look only at the *natural* part of
/// the key (for SPQ: the grid cell id), while
/// [`sort_cmp`](MapReduceTask::sort_cmp) orders the *full* key, so the
/// values of one group arrive at the reducer in a deliberate order (tag,
/// keyword length, or score).
///
/// ## Sort-free grouping (sub-buckets)
///
/// A task whose sort order has a cheap, low-cardinality primary component
/// can opt out of the full reducer-side comparison sort: override
/// [`num_subbuckets`](MapReduceTask::num_subbuckets) and
/// [`subbucket`](MapReduceTask::subbucket) so the map side buckets each
/// record into its *sort run* directly. The shuffle concatenates the runs
/// in sub-bucket order (map-task order within a run), and the reducer
/// sorts only the runs for which
/// [`subbucket_needs_sort`](MapReduceTask::subbucket_needs_sort) still
/// returns `true` — shrinking the sorted range from "all records" to one
/// run, or to nothing.
///
/// Contract: for any two keys `a`, `b` routed to the *same reducer*,
/// `subbucket(a) < subbucket(b)` must imply `sort_cmp(a, b) == Less`. The
/// SPQ tasks satisfy this trivially — with one reducer per grid cell, all
/// keys of a reducer share the cell and the sub-bucket is exactly the
/// data-before-features tag.
pub trait MapReduceTask: Sync {
    /// One input record (the paper's data or feature object).
    type Input: Sync;
    /// The composite key emitted by the map function.
    type Key: Send + Clone;
    /// The value emitted by the map function.
    type Value: Send;
    /// One output record of the reduce function.
    type Output: Send;

    /// Number of reduce tasks `R` (one per grid cell in the paper).
    fn num_reducers(&self) -> usize;

    /// The map function, called once per input record.
    fn map(&self, record: &Self::Input, ctx: &mut MapContext<'_, Self>);

    /// Routes a key to a reducer in `0..num_reducers()`; must depend only
    /// on the natural key so that all records of a group meet at one
    /// reducer.
    fn partition(&self, key: &Self::Key) -> usize;

    /// Total order used to sort each reducer's input (the customized
    /// Comparator of the paper).
    fn sort_cmp(&self, a: &Self::Key, b: &Self::Key) -> Ordering;

    /// Grouping comparator: records whose keys compare equal here form one
    /// reduce group. Defaults to "sorts equal".
    fn group_eq(&self, a: &Self::Key, b: &Self::Key) -> bool {
        self.sort_cmp(a, b) == Ordering::Equal
    }

    /// Number of pre-grouped sort runs per reducer. The default (1) keeps
    /// the classic behaviour: one run per reducer, fully sorted.
    fn num_subbuckets(&self) -> usize {
        1
    }

    /// The sort run a key belongs to, in `0..num_subbuckets()`. Within one
    /// reducer, run index must be consistent with `sort_cmp` (see the
    /// trait-level contract).
    fn subbucket(&self, _key: &Self::Key) -> usize {
        0
    }

    /// Whether the concatenated run `sub` still needs the reducer-side
    /// sort. Return `false` when any map-task-ordered concatenation of the
    /// run is acceptable to [`reduce`](MapReduceTask::reduce) — the run is
    /// then handed over exactly as shuffled, comparison-free.
    fn subbucket_needs_sort(&self, _sub: usize) -> bool {
        true
    }

    /// The reduce function, called once per group with the values in
    /// sort order. Returning before `values` is exhausted is the early
    /// termination of Section 5 — the runtime drains and counts the
    /// skipped records (counter `reduce.records_skipped`).
    fn reduce(
        &self,
        group: &Self::Key,
        values: &mut GroupValues<'_, Self>,
        ctx: &mut ReduceContext<'_, Self::Output>,
    );
}

/// Map-side emit context: partitions records into per-reducer, per-run
/// buckets as they are emitted and carries the task-local counters.
///
/// Buckets are laid out flat as `reducer * num_subbuckets + subbucket`.
pub struct MapContext<'a, T: MapReduceTask + ?Sized> {
    pub(crate) buckets: &'a mut Vec<Vec<(T::Key, T::Value)>>,
    pub(crate) num_subbuckets: usize,
    pub(crate) counters: &'a mut Counters,
    pub(crate) records_out: &'a mut u64,
}

impl<T: MapReduceTask + ?Sized> MapContext<'_, T> {
    /// Emits one key/value pair (the paper's `output ⟨key, value⟩`).
    #[inline]
    pub fn emit(&mut self, task: &T, key: T::Key, value: T::Value) {
        let r = task.partition(&key);
        let sub = task.subbucket(&key);
        debug_assert!(sub < self.num_subbuckets, "subbucket {} out of range", sub);
        let slot = r * self.num_subbuckets + sub;
        debug_assert!(slot < self.buckets.len(), "partition {} out of range", r);
        self.buckets[slot].push((key, value));
        *self.records_out += 1;
    }

    /// Task-local counters.
    #[inline]
    pub fn counters(&mut self) -> &mut Counters {
        self.counters
    }
}

/// Reduce-side output context.
pub struct ReduceContext<'a, O> {
    pub(crate) out: &'a mut Vec<O>,
    pub(crate) counters: &'a mut Counters,
}

impl<O> ReduceContext<'_, O> {
    /// Emits one output record.
    #[inline]
    pub fn emit(&mut self, record: O) {
        self.out.push(record);
    }

    /// Task-local counters.
    #[inline]
    pub fn counters(&mut self) -> &mut Counters {
        self.counters
    }
}

/// Streaming iterator over the `(key, value)` pairs of one reduce group,
/// in sort order.
///
/// Yields owned pairs (each record carries its own composite key, exactly
/// like Hadoop where the current key mutates as the value iterator
/// advances). The reducer may stop consuming at any point — the runtime
/// drains the rest of the group and accounts it as skipped.
pub struct GroupValues<'a, T: MapReduceTask + ?Sized> {
    task: &'a T,
    group_key: &'a T::Key,
    source: &'a mut Peekable<IntoIter<(T::Key, T::Value)>>,
    skipped: u64,
}

impl<'a, T: MapReduceTask + ?Sized> GroupValues<'a, T> {
    pub(crate) fn new(
        task: &'a T,
        group_key: &'a T::Key,
        source: &'a mut Peekable<IntoIter<(T::Key, T::Value)>>,
    ) -> Self {
        Self {
            task,
            group_key,
            source,
            skipped: 0,
        }
    }

    /// Consumes whatever the reducer did not, counting skipped records.
    pub(crate) fn drain_remaining(&mut self) -> u64 {
        while self.next().is_some() {
            self.skipped += 1;
        }
        self.skipped
    }
}

impl<T: MapReduceTask + ?Sized> Iterator for GroupValues<'_, T> {
    type Item = (T::Key, T::Value);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.source.peek() {
            Some((k, _)) if self.task.group_eq(k, self.group_key) => self.source.next(),
            _ => None,
        }
    }
}
