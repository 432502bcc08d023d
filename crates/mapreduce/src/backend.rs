//! [`LocalPool`]: the bounded in-process worker pool that runs a job.
//!
//! A job is one [`MapReduceTask`] over horizontally partitioned input:
//! every split becomes a map task and each of the task's `num_reducers()`
//! partitions a reduce task. Records move between them the way Hadoop
//! moves them:
//!
//! * **Spill.** A map task appends every record it emits to one buffer,
//!   tagged with its *slot* — `reducer * num_subbuckets + sub`, so one
//!   reducer's sort runs are adjacent. When the task ends it
//!   counting-sorts the buffer's indices by slot (stably, so emission
//!   order survives within a slot) and keeps the slot boundaries: its
//!   output is one partition-indexed buffer, as a Hadoop map task's is.
//! * **Hand-off.** Between the phases the submitting thread only merges
//!   counters and task statistics; it touches no record.
//! * **Fetch.** Reduce task `r` sizes its input exactly from the slot
//!   boundaries, then copies, for each of its sub-buckets in order and
//!   each map task in order within it, that task's run for the slot.
//!   Its input is thus sub-bucket order, map-task order within a run,
//!   emission order within a task — fixed by the data, not by which
//!   worker ran what. It sorts only the runs the task asks for
//!   ([`MapReduceTask::subbucket_needs_sort`]), groups, and reduces.
//!
//! There is one place a job runs — this pool, in this process. Jobs run
//! where the paper runs them, one per query (`spq-core`'s
//! `SpqExecutor::run_dataset`), and beside a traced request; no serving
//! path runs one, since `spq-core`'s engines (local, sharded and remote)
//! answer every query with their kernel.
//!
//! ```
//! use spq_mapreduce::backend::LocalPool;
//! use spq_mapreduce::{ClusterConfig, GroupValues, JobContext, MapContext, MapReduceTask,
//!     ReduceContext};
//! use std::cmp::Ordering;
//!
//! struct CharCount;
//! impl MapReduceTask for CharCount {
//!     type Input = String;
//!     type Key = char;
//!     type Value = u64;
//!     type Output = (char, u64);
//!     fn num_reducers(&self) -> usize { 2 }
//!     fn map(&self, line: &String, ctx: &mut MapContext<'_, Self>) {
//!         for c in line.chars() { ctx.emit(self, c, 1); }
//!     }
//!     fn partition(&self, key: &char) -> usize { *key as usize % 2 }
//!     fn sort_cmp(&self, a: &char, b: &char) -> Ordering { a.cmp(b) }
//!     fn reduce(&self, c: &char, values: &mut GroupValues<'_, Self>,
//!               ctx: &mut ReduceContext<'_, (char, u64)>) {
//!         ctx.emit((*c, values.map(|(_, n)| n).sum()));
//!     }
//! }
//!
//! let pool = LocalPool::new(ClusterConfig::with_workers(2));
//! let splits = [vec!["abba".to_owned()]];
//!
//! // One-shot:
//! let out = pool.run(&CharCount, &splits).unwrap();
//! assert_eq!(out.len(), 2); // 'a' and 'b'
//!
//! // A stream of jobs recycles its per-task scratch through one context.
//! let ctx = JobContext::new();
//! for _ in 0..3 {
//!     assert_eq!(pool.execute(&ctx, &CharCount, &splits).unwrap().len(), 2);
//! }
//! ```

use crate::cluster::ClusterConfig;
use crate::counters::Counters;
use crate::job::{JobContext, JobError, JobOutput, COUNTER_REDUCE_GROUPS, COUNTER_REDUCE_SKIPPED};
use crate::pool::run_tasks;
use crate::stats::{JobStats, Phase, TaskStats};
use crate::task::{GroupValues, MapContext, MapReduceTask, ReduceContext, Slotted};
use std::time::Instant;

/// The in-process thread pool every job runs on.
///
/// Map tasks run on at most [`ClusterConfig::workers`] threads, each
/// spilling one slot-sorted buffer; reduce tasks run on the pool again,
/// each fetching its own runs out of every map task's spill (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalPool {
    config: ClusterConfig,
}

/// One map task's output: every record it emitted, in emission order and
/// tagged with its slot, plus a stable counting sort of the records by
/// slot — `order[starts[s]..starts[s + 1]]` indexes slot `s`'s records,
/// in emission order.
struct MapSpill<K, V> {
    records: Vec<Slotted<K, V>>,
    order: Vec<u32>,
    starts: Vec<usize>,
}

impl<K, V> MapSpill<K, V> {
    /// Sorts `records` by slot. A record with a slot outside
    /// `0..num_slots` (a partition out of range) fails the map task here.
    fn sort(records: Vec<Slotted<K, V>>, num_slots: usize) -> Self {
        // Count each slot into the entry after it, so the prefix sum
        // leaves `starts[s]` at slot `s`'s first position.
        let mut starts = vec![0usize; num_slots + 1];
        for &(slot, _) in &records {
            starts[slot + 1] += 1;
        }
        for s in 1..=num_slots {
            starts[s] += starts[s - 1];
        }
        // Place each index at its slot's cursor. Afterwards `starts[s]`
        // has advanced to slot `s + 1`'s first position, so shifting the
        // table one entry right restores it. A map task emits fewer than
        // 2³² records: its buffer alone would be over 32 GiB.
        let mut order = vec![0u32; records.len()];
        for (i, &(slot, _)) in records.iter().enumerate() {
            order[starts[slot]] = i as u32;
            starts[slot] += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Self {
            records,
            order,
            starts,
        }
    }
}

impl LocalPool {
    /// Creates a pool over the given cluster configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Self { config }
    }

    /// [`execute`](Self::execute) over a fresh [`JobContext`] — the
    /// one-shot form, for a caller that runs a single job.
    pub fn run<T: MapReduceTask>(
        &self,
        task: &T,
        splits: &[Vec<T::Input>],
    ) -> Result<JobOutput<T::Output>, JobError> {
        self.execute(&JobContext::new(), task, splits)
    }

    /// Runs one job: each element of `splits` becomes a map task, each of
    /// the task's `num_reducers()` partitions a reduce task; per-task
    /// scratch state is recycled through `ctx` (see [`JobContext`]).
    ///
    /// What `spq-core`'s byte-identity guarantees rest on:
    ///
    /// * **Determinism** — for a fixed task and input, the returned records
    ///   and counters are identical across calls and worker counts; only
    ///   measured durations differ.
    /// * **Output order** — [`JobOutput`] holds outputs in reducer order,
    ///   with each reducer's records in its emission order.
    /// * **Failure** — a panicking task surfaces as
    ///   [`JobError::TaskPanicked`] with the phase and task index; it never
    ///   tears down the caller.
    ///
    /// # Panics
    ///
    /// Panics if the task declares zero reducers or zero sub-buckets.
    pub fn execute<T: MapReduceTask>(
        &self,
        ctx: &JobContext,
        task: &T,
        splits: &[Vec<T::Input>],
    ) -> Result<JobOutput<T::Output>, JobError> {
        let num_reducers = task.num_reducers();
        assert!(num_reducers > 0, "job needs at least one reducer");
        let num_subs = task.num_subbuckets();
        assert!(num_subs > 0, "job needs at least one subbucket");
        let job_start = Instant::now();

        // ---- Map phase: each task spills one slot-sorted buffer --------
        // The spill's counting sort is part of the map task, as Hadoop's
        // sort-and-spill is.
        let map_start = Instant::now();
        let map_results = run_tasks(self.config.workers, splits.len(), |i| {
            let t0 = Instant::now();
            let mut records = Vec::with_capacity(splits[i].len());
            let mut counters = ctx.checkout_counters();
            let mut ctx = MapContext {
                records: &mut records,
                num_subbuckets: num_subs,
                counters: &mut counters,
            };
            for record in &splits[i] {
                task.map(record, &mut ctx);
            }
            let spill = MapSpill::sort(records, num_reducers * num_subs);
            let stats = TaskStats {
                duration: t0.elapsed(),
                records_in: splits[i].len() as u64,
                records_out: spill.records.len() as u64,
            };
            (spill, stats, counters)
        })
        .map_err(|p| JobError::TaskPanicked {
            phase: Phase::Map,
            task_index: p.task_index,
            message: p.message,
        })?;
        let map_wall = map_start.elapsed();

        // ---- Hand-off: counters and statistics only ---------------------
        let shuffle_start = Instant::now();
        let mut counters = Counters::new();
        let mut map_tasks = Vec::with_capacity(map_results.len());
        let mut spills = Vec::with_capacity(map_results.len());
        let mut shuffle_records = 0u64;
        for (spill, stats, task_counters) in map_results {
            counters.merge(&task_counters);
            ctx.recycle_counters(task_counters);
            shuffle_records += stats.records_out;
            map_tasks.push(stats);
            spills.push(spill);
        }
        let shuffle_wall = shuffle_start.elapsed();

        // ---- Reduce phase: fetch, sort, group, reduce -------------------
        // The fetch and the reducer-side sort (Hadoop's copy and merge)
        // are attributed to the reduce task's duration, as in Hadoop.
        // Only runs the task did not pre-group on the map side are sorted
        // — for a fully sub-bucketed task this phase is comparison-free.
        let reduce_start = Instant::now();
        let reduce_results = run_tasks(self.config.workers, num_reducers, |r| {
            let t0 = Instant::now();
            let (lo, hi) = (r * num_subs, (r + 1) * num_subs);
            let total = spills.iter().map(|m| m.starts[hi] - m.starts[lo]).sum();
            let mut buffer: Vec<(T::Key, T::Value)> = Vec::with_capacity(total);
            let mut run_starts = Vec::with_capacity(num_subs + 1);
            for slot in lo..hi {
                run_starts.push(buffer.len());
                for m in &spills {
                    let run = &m.order[m.starts[slot]..m.starts[slot + 1]];
                    buffer.extend(run.iter().map(|&i| m.records[i as usize].1.clone()));
                }
            }
            run_starts.push(buffer.len());
            let records_in = buffer.len() as u64;
            // Unstable sort: Hadoop's merge likewise leaves the order
            // of equal composite keys unspecified; pdqsort is
            // deterministic for a given input order, which the fetch
            // order above fixes.
            for sub in 0..num_subs {
                if task.subbucket_needs_sort(sub) {
                    buffer[run_starts[sub]..run_starts[sub + 1]]
                        .sort_unstable_by(|a, b| task.sort_cmp(&a.0, &b.0));
                }
            }
            // Canary for the sub-bucket contract (task.rs): sort
            // order must never go backwards across a run boundary,
            // or grouping would split a group across runs and
            // reduce() would run on partial values. (Order *inside*
            // a run the task declared unsorted is the task's own
            // responsibility — it promised order-insensitivity.)
            #[cfg(debug_assertions)]
            for &b in run_starts.iter().take(num_subs).skip(1) {
                if b > 0 && b < buffer.len() {
                    debug_assert!(
                        task.sort_cmp(&buffer[b - 1].0, &buffer[b].0)
                            != std::cmp::Ordering::Greater,
                        "sub-bucket contract violated: subbucket() disagrees with \
                             sort_cmp() for keys routed to reducer {r}"
                    );
                }
            }

            let mut out = Vec::new();
            let mut task_counters = ctx.checkout_counters();
            let mut source = buffer.into_iter().peekable();
            while let Some((group_key, _)) = source.peek() {
                let group_key = group_key.clone();
                let mut values = GroupValues::new(task, &group_key, &mut source);
                let mut ctx = ReduceContext {
                    out: &mut out,
                    counters: &mut task_counters,
                };
                task.reduce(&group_key, &mut values, &mut ctx);
                let skipped = values.drain_remaining();
                task_counters.add(COUNTER_REDUCE_SKIPPED, skipped);
                task_counters.inc(COUNTER_REDUCE_GROUPS);
            }
            let stats = TaskStats {
                duration: t0.elapsed(),
                records_in,
                records_out: out.len() as u64,
            };
            (out, stats, task_counters)
        })
        .map_err(|p| JobError::TaskPanicked {
            phase: Phase::Reduce,
            task_index: p.task_index,
            message: p.message,
        })?;
        let reduce_wall = reduce_start.elapsed();

        let mut per_reducer = Vec::with_capacity(num_reducers);
        let mut reduce_tasks = Vec::with_capacity(num_reducers);
        for (out, stats, task_counters) in reduce_results {
            counters.merge(&task_counters);
            ctx.recycle_counters(task_counters);
            reduce_tasks.push(stats);
            per_reducer.push(out);
        }

        Ok(JobOutput::from_parts(
            per_reducer,
            JobStats {
                map_tasks,
                reduce_tasks,
                map_wall,
                shuffle_wall,
                reduce_wall,
                total_wall: job_start.elapsed(),
                shuffle_records,
                counters,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    struct Sum;
    impl MapReduceTask for Sum {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        type Output = (u64, u64);
        fn num_reducers(&self) -> usize {
            3
        }
        fn map(&self, n: &u64, ctx: &mut MapContext<'_, Self>) {
            ctx.emit(self, n % 3, *n);
        }
        fn partition(&self, key: &u64) -> usize {
            *key as usize
        }
        fn sort_cmp(&self, a: &u64, b: &u64) -> Ordering {
            a.cmp(b)
        }
        fn reduce(
            &self,
            key: &u64,
            values: &mut GroupValues<'_, Self>,
            ctx: &mut ReduceContext<'_, (u64, u64)>,
        ) {
            ctx.emit((*key, values.map(|(_, v)| v).sum()));
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let splits: Vec<Vec<u64>> = (0..6).map(|s| (s * 10..s * 10 + 7).collect()).collect();
        let ctx = JobContext::new();
        let base = LocalPool::new(ClusterConfig::sequential())
            .execute(&ctx, &Sum, &splits)
            .unwrap();
        for workers in [2, 4, 8] {
            let out = LocalPool::new(ClusterConfig::with_workers(workers))
                .execute(&ctx, &Sum, &splits)
                .unwrap();
            assert_eq!(out.per_reducer(), base.per_reducer(), "workers={workers}");
        }
    }
}
