//! [`LocalPool`]: the bounded in-process worker pool that runs a job.
//!
//! A job is one [`MapReduceTask`] over horizontally partitioned input:
//! every split becomes a map task, the shuffle regroups map output by the
//! task's partitioner (concatenating pre-grouped sub-bucket runs, sorting
//! only the runs the task asks for), and each of the task's
//! `num_reducers()` partitions becomes a reduce task. There is one place a
//! job runs — this pool, in this process. Distribution happens one layer
//! up and by *partition*, not by job: `spq-core`'s sharded and remote
//! engines keep data shards on long-lived workers, and each shard runs
//! its own jobs on its own pool.
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
use crate::task::{GroupValues, MapContext, MapReduceTask, ReduceContext};
use parking_lot::Mutex;
use std::time::Instant;

/// The in-process thread pool every job runs on.
///
/// Map tasks run on at most [`ClusterConfig::workers`] threads, the
/// shuffle concatenates pre-grouped sub-bucket runs into exactly-sized
/// buffers on the submitting thread, and reduce tasks run on the pool
/// again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalPool {
    config: ClusterConfig,
}

type MapTaskResult<T> = (
    Vec<Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>>,
    TaskStats,
    Counters,
);

/// One reducer's shuffled input — the concatenated records plus the start
/// offset of each sort run — handed off to its reduce task exactly once
/// (the task takes it, leaving an empty input behind).
type ReduceInput<T> = (
    Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>,
    Vec<usize>,
);

/// See [`ReduceInput`].
type ReduceSlot<T> = Mutex<ReduceInput<T>>;

/// One map task's emitted buckets, indexed `reducer * num_subs + sub`.
type MapBuckets<T> = Vec<Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>>;

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

        // ---- Map phase -------------------------------------------------
        let map_start = Instant::now();
        let map_results: Vec<MapTaskResult<T>> =
            run_tasks(self.config.workers, splits.len(), |i| {
                let t0 = Instant::now();
                let mut buckets: Vec<Vec<(T::Key, T::Value)>> =
                    (0..num_reducers * num_subs).map(|_| Vec::new()).collect();
                let mut counters = ctx.checkout_counters();
                let mut records_out = 0u64;
                let mut ctx = MapContext {
                    buckets: &mut buckets,
                    num_subbuckets: num_subs,
                    counters: &mut counters,
                    records_out: &mut records_out,
                };
                for record in &splits[i] {
                    task.map(record, &mut ctx);
                }
                let stats = TaskStats {
                    duration: t0.elapsed(),
                    records_in: splits[i].len() as u64,
                    records_out,
                };
                (buckets, stats, counters)
            })
            .map_err(|p| JobError::TaskPanicked {
                phase: Phase::Map,
                task_index: p.task_index,
                message: p.message,
            })?;
        let map_wall = map_start.elapsed();

        // ---- Shuffle: regroup map buckets by reducer --------------------
        // Each reducer's input is assembled run by run (sub-bucket order,
        // map-task order within a run) into one exactly-sized buffer, so
        // the runs arrive pre-grouped and nothing is re-allocated mid-way.
        // The deterministic concatenation order, together with the
        // deterministic per-run sort, makes the job deterministic under
        // any worker count.
        let shuffle_start = Instant::now();
        let mut counters = Counters::new();
        let mut map_tasks = Vec::with_capacity(map_results.len());
        let mut all_buckets: Vec<MapBuckets<T>> = Vec::with_capacity(map_results.len());
        let mut shuffle_records = 0u64;
        for (buckets, stats, task_counters) in map_results {
            counters.merge(&task_counters);
            ctx.recycle_counters(task_counters);
            shuffle_records += stats.records_out;
            map_tasks.push(stats);
            all_buckets.push(buckets);
        }
        let mut reducer_inputs: Vec<ReduceInput<T>> = Vec::with_capacity(num_reducers);
        for r in 0..num_reducers {
            let total: usize = all_buckets
                .iter()
                .map(|b| {
                    (0..num_subs)
                        .map(|s| b[r * num_subs + s].len())
                        .sum::<usize>()
                })
                .sum();
            let mut input = Vec::with_capacity(total);
            let mut run_starts = Vec::with_capacity(num_subs + 1);
            for sub in 0..num_subs {
                run_starts.push(input.len());
                for buckets in &mut all_buckets {
                    input.append(&mut buckets[r * num_subs + sub]);
                }
            }
            run_starts.push(input.len());
            reducer_inputs.push((input, run_starts));
        }
        let shuffle_wall = shuffle_start.elapsed();

        // ---- Reduce phase ----------------------------------------------
        // The reducer-side sort (Hadoop's merge) is attributed to the
        // reduce task's duration, as in Hadoop. Only runs the task did not
        // pre-group on the map side are sorted — for a fully sub-bucketed
        // task this phase is comparison-free.
        let reduce_start = Instant::now();
        let slots: Vec<ReduceSlot<T>> = reducer_inputs.into_iter().map(Mutex::new).collect();
        let reduce_results: Vec<(Vec<T::Output>, TaskStats, Counters)> =
            run_tasks(self.config.workers, num_reducers, |r| {
                let t0 = Instant::now();
                let (mut buffer, run_starts) = std::mem::take(&mut *slots[r].lock());
                let records_in = buffer.len() as u64;
                // Unstable sort: Hadoop's merge likewise leaves the order
                // of equal composite keys unspecified; pdqsort is
                // deterministic for a given input order, which the
                // map-task-ordered concatenation above fixes.
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
