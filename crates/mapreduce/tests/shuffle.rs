//! The shuffle against a naive reference.
//!
//! Each case runs one job over random splits (empty ones included) with a
//! random reducer count (most reducers often receive nothing), sub-bucket
//! count, per-run `subbucket_needs_sort` choice and worker count. The
//! reference collects every emission with its (reducer, sub-bucket, map
//! task, emission index), stable-sorts on that, sorts the runs the task
//! asks for, groups consecutive records and reduces them the way the task
//! does. The job's `per_reducer()` output — which lists every value each
//! group saw, in the order it saw them — and its merged counters must
//! equal the reference's.

use proptest::prelude::*;
use spq_mapreduce::job::{COUNTER_REDUCE_GROUPS, COUNTER_REDUCE_SKIPPED};
use spq_mapreduce::{
    ClusterConfig, Counters, GroupValues, JobContext, LocalPool, MapContext, MapReduceTask,
    ReduceContext,
};
use std::cmp::Ordering;

const COUNTER_RECORDS: &str = "test.map_records";
const COUNTER_EMITTED: &str = "test.map_emitted";
const COUNTER_TAKEN: &str = "test.reduce_taken";

/// One input record: its id, natural key, sub-bucket (reduced modulo the
/// case's count), sort key and how many copies the map emits.
type Record = (u32, u32, usize, u32, u32);

/// `(sub, group, sort, uid)`: ordered by sub-bucket first, so the
/// sub-bucket contract holds for any partition; the emission's unique id
/// makes the order total, so a sorted run has one correct order.
type Key = (usize, u32, u32, u32);

/// A group's natural key and the value ids it consumed, in order.
type Output = (u32, Vec<u32>);

struct Shuffle {
    reducers: usize,
    needs_sort: Vec<bool>,
    /// Values a reducer consumes per group before stopping early.
    take: usize,
}

impl Shuffle {
    /// The keys `record` emits, in emission order.
    fn emissions(&self, &(id, group, sub, sort, copies): &Record) -> impl Iterator<Item = Key> {
        let sub = sub % self.needs_sort.len();
        (0..copies).map(move |c| (sub, group, sort, id * 4 + c))
    }
}

impl MapReduceTask for Shuffle {
    type Input = Record;
    type Key = Key;
    type Value = u32;
    type Output = Output;

    fn num_reducers(&self) -> usize {
        self.reducers
    }

    fn map(&self, record: &Record, ctx: &mut MapContext<'_, Self>) {
        ctx.counters().inc(COUNTER_RECORDS);
        for key in self.emissions(record) {
            ctx.counters().inc(COUNTER_EMITTED);
            ctx.emit(self, key, key.3);
        }
    }

    fn partition(&self, key: &Key) -> usize {
        key.1 as usize % self.reducers
    }

    fn sort_cmp(&self, a: &Key, b: &Key) -> Ordering {
        a.cmp(b)
    }

    // A group spans run boundaries when consecutive records agree.
    fn group_eq(&self, a: &Key, b: &Key) -> bool {
        a.1 == b.1
    }

    fn num_subbuckets(&self) -> usize {
        self.needs_sort.len()
    }

    fn subbucket(&self, key: &Key) -> usize {
        key.0
    }

    fn subbucket_needs_sort(&self, sub: usize) -> bool {
        self.needs_sort[sub]
    }

    fn reduce(
        &self,
        group: &Key,
        values: &mut GroupValues<'_, Self>,
        ctx: &mut ReduceContext<'_, Output>,
    ) {
        let seen: Vec<u32> = values.take(self.take).map(|(_, v)| v).collect();
        ctx.counters().add(COUNTER_TAKEN, seen.len() as u64);
        ctx.emit((group.1, seen));
    }
}

/// The naive shuffle and reduce: what the job must return.
fn reference(task: &Shuffle, splits: &[Vec<Record>]) -> (Vec<Vec<Output>>, Counters) {
    let mut counters = Counters::new();
    // (reducer, sub, map task, emission index, key)
    let mut tagged = Vec::new();
    for (m, split) in splits.iter().enumerate() {
        let mut emitted = 0usize;
        for record in split {
            counters.inc(COUNTER_RECORDS);
            for key in task.emissions(record) {
                counters.inc(COUNTER_EMITTED);
                tagged.push((task.partition(&key), key.0, m, emitted, key));
                emitted += 1;
            }
        }
    }
    tagged.sort_by_key(|&(r, sub, m, e, _)| (r, sub, m, e));

    let mut per_reducer = Vec::with_capacity(task.reducers);
    for r in 0..task.reducers {
        let mut input: Vec<Key> = Vec::new();
        for (sub, &needs_sort) in task.needs_sort.iter().enumerate() {
            let mut run: Vec<Key> = tagged
                .iter()
                .filter(|t| t.0 == r && t.1 == sub)
                .map(|t| t.4)
                .collect();
            if needs_sort {
                run.sort_by(|a, b| task.sort_cmp(a, b));
            }
            input.extend(run);
        }
        let mut out = Vec::new();
        for group in input.chunk_by(|a, b| task.group_eq(a, b)) {
            let taken = group.len().min(task.take);
            out.push((group[0].1, group[..taken].iter().map(|k| k.3).collect()));
            counters.add(COUNTER_TAKEN, taken as u64);
            counters.add(COUNTER_REDUCE_SKIPPED, (group.len() - taken) as u64);
            counters.inc(COUNTER_REDUCE_GROUPS);
        }
        per_reducer.push(out);
    }
    (per_reducer, counters)
}

/// Random splits of random records; record ids are unique across splits.
fn splits() -> impl Strategy<Value = Vec<Vec<Record>>> {
    let record = (0u32..24, 0usize..3, 0u32..4, 0u32..3);
    proptest::collection::vec(proptest::collection::vec(record, 0..12), 0..6).prop_map(|splits| {
        let mut id = 0u32;
        splits
            .into_iter()
            .map(|split| {
                split
                    .into_iter()
                    .map(|(group, sub, sort, copies)| {
                        id += 1;
                        (id, group, sub, sort, copies)
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reducer's output and the merged counters equal the naive
    /// reference, at any worker count.
    #[test]
    fn shuffle_matches_naive_reference(
        splits in splits(),
        reducers in 1usize..=16,
        needs_sort in proptest::collection::vec(0u8..2, 1..4),
        take in 1usize..=4,
        workers in 1usize..=4,
    ) {
        let task = Shuffle {
            reducers,
            needs_sort: needs_sort.iter().map(|&b| b == 1).collect(),
            take,
        };
        let (expect, counters) = reference(&task, &splits);
        let out = LocalPool::new(ClusterConfig::with_workers(workers))
            .execute(&JobContext::new(), &task, &splits)
            .unwrap();
        prop_assert_eq!(out.per_reducer(), &expect[..]);
        prop_assert_eq!(&out.stats.counters, &counters);
        let emitted = counters.get(COUNTER_EMITTED);
        prop_assert_eq!(out.stats.shuffle_records, emitted);
        let fetched: u64 = out.stats.reduce_tasks.iter().map(|t| t.records_in).sum();
        prop_assert_eq!(fetched, emitted);
    }
}
