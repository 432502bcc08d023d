//! eSPQlen — early termination by increasing keyword length
//! (Section 5.1, Algorithms 3 and 4).
//!
//! The composite key's secondary part is `|f.W|` (0 for data objects), so
//! reducers see features with few keywords first — the ones that can still
//! reach high Jaccard scores. Once the threshold `τ` of the running top-k
//! list reaches the Equation-1 bound `w̄(f, q)` of the *current* feature,
//! no unseen feature (which has at least as many keywords) can beat it and
//! the reducer stops (Lemma 2).
//!
//! Shuffle records are 24-byte `⟨(cell, |f.W|), handle⟩` pairs: the
//! feature's score is computed once per feature on the map side and rides
//! in the handle, keywords never travel. Data and feature records are
//! pre-grouped into separate shuffle runs; only the feature run is sorted
//! (by the keyword length already present in the key).

use crate::algo::ObjectHandle;
use crate::model::RankedObject;
use crate::partitioning::{
    route_data, route_scored_feature, COUNTER_MAP_DATA, COUNTER_MAP_DUPLICATES,
    COUNTER_MAP_FEATURES, COUNTER_MAP_PRUNED, COUNTER_REDUCE_DISTANCE_CHECKS,
    COUNTER_REDUCE_EARLY_TERMINATIONS, COUNTER_REDUCE_FEATURES_EXAMINED,
};
use crate::query::SpqQuery;
use crate::store::{ObjectRef, SharedDataset};
use crate::topk::TopKList;
use spq_mapreduce::{GroupValues, MapContext, MapReduceTask, ReduceContext};
use spq_spatial::{CellId, Point, SpacePartition};
use spq_text::Score;
use std::cmp::Ordering;

/// The composite key of Algorithm 3: cell id plus the keyword length
/// (0 for data objects, `|f.W|` for features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenKey {
    /// The grid cell (natural key).
    pub cell: u32,
    /// 0 for data objects; `|f.W|` for feature objects (secondary sort,
    /// increasing).
    pub len: u32,
}

/// The eSPQlen MapReduce task.
#[derive(Debug)]
pub struct ESpqLenTask<'a> {
    dataset: &'a SharedDataset,
    grid: &'a SpacePartition,
    query: &'a SpqQuery,
    prune: bool,
}

impl<'a> ESpqLenTask<'a> {
    /// Creates the task for one query over one query-time partition of a
    /// shared dataset.
    pub fn new(dataset: &'a SharedDataset, grid: &'a SpacePartition, query: &'a SpqQuery) -> Self {
        Self {
            dataset,
            grid,
            query,
            prune: true,
        }
    }

    /// Disables the map-side keyword pruning rule (ablation; results are
    /// unchanged, the shuffle just carries every feature object).
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }
}

impl MapReduceTask for ESpqLenTask<'_> {
    type Input = ObjectRef;
    type Key = LenKey;
    type Value = ObjectHandle;
    type Output = RankedObject;

    fn num_reducers(&self) -> usize {
        self.grid.num_cells()
    }

    // Algorithm 3.
    fn map(&self, record: &ObjectRef, ctx: &mut MapContext<'_, Self>) {
        match *record {
            ObjectRef::Data(i) => {
                ctx.counters().inc(COUNTER_MAP_DATA);
                let cell = route_data(self.grid, &self.dataset.data()[i as usize].location);
                ctx.emit(
                    self,
                    LenKey {
                        cell: cell.0,
                        len: 0,
                    },
                    ObjectHandle::Data(i),
                );
            }
            ObjectRef::Feature(i) => {
                let f = &self.dataset.features()[i as usize];
                // A matching feature has >= 1 keyword, so len >= 1 never
                // collides with the data-object marker 0.
                let len = f.keywords.len() as u32;
                // Scored once per feature; every routed copy reuses it.
                let emit = |c: CellId, w: Score| {
                    ctx.emit(self, LenKey { cell: c.0, len }, ObjectHandle::Feature(i, w));
                };
                match route_scored_feature(self.grid, self.query, f, self.prune, emit) {
                    Some(copies) => {
                        ctx.counters().inc(COUNTER_MAP_FEATURES);
                        ctx.counters().add(COUNTER_MAP_DUPLICATES, copies - 1);
                    }
                    None => ctx.counters().inc(COUNTER_MAP_PRUNED),
                }
            }
        }
    }

    fn partition(&self, key: &LenKey) -> usize {
        key.cell as usize
    }

    fn sort_cmp(&self, a: &LenKey, b: &LenKey) -> Ordering {
        a.cell.cmp(&b.cell).then(a.len.cmp(&b.len))
    }

    fn group_eq(&self, a: &LenKey, b: &LenKey) -> bool {
        a.cell == b.cell
    }

    fn num_subbuckets(&self) -> usize {
        2
    }

    fn subbucket(&self, key: &LenKey) -> usize {
        (key.len != 0) as usize
    }

    // Only the feature run carries a secondary order; the data run is
    // taken as shuffled.
    fn subbucket_needs_sort(&self, sub: usize) -> bool {
        sub == 1
    }

    // Algorithm 4.
    fn reduce(
        &self,
        _group: &LenKey,
        values: &mut GroupValues<'_, Self>,
        ctx: &mut ReduceContext<'_, RankedObject>,
    ) {
        let r_sq = self.query.radius * self.query.radius;
        let mut objects: Vec<(u64, Point)> = Vec::new();
        let mut scores: Vec<Score> = Vec::new();
        let mut topk = TopKList::new(self.query.k);
        let mut features_examined = 0u64;
        let mut distance_checks = 0u64;

        for (key, value) in values.by_ref() {
            match value {
                ObjectHandle::Data(i) => {
                    let o = &self.dataset.data()[i as usize];
                    objects.push((o.id, o.location));
                    scores.push(Score::ZERO);
                }
                ObjectHandle::Feature(i, w) => {
                    // A cell without data objects can never produce a
                    // result: stop before examining any feature. (Lemma 2
                    // with an unreachable k; duplicated features routinely
                    // land in such cells.)
                    if objects.is_empty() {
                        ctx.counters().inc(COUNTER_REDUCE_EARLY_TERMINATIONS);
                        break;
                    }
                    // Lines 9-11: the termination test uses only the
                    // keyword length carried in the composite key. The
                    // paper terminates at τ >= w̄; we require τ > w̄ (and
                    // below admit w == τ) so that boundary-tied features
                    // can still swap smaller-id objects into Lk — the
                    // cell's output is then the *canonical* top-k, a pure
                    // function of (dataset, query), which keeps sharded
                    // backends byte-identical to the single-store engine.
                    let bound = self.query.upper_bound(key.len as usize);
                    if topk.tau() > bound {
                        ctx.counters().inc(COUNTER_REDUCE_EARLY_TERMINATIONS);
                        break;
                    }
                    features_examined += 1;
                    if !w.is_zero() && w >= topk.tau() {
                        let f_loc = self.dataset.features()[i as usize].location;
                        distance_checks += objects.len() as u64;
                        for (j, &(id, location)) in objects.iter().enumerate() {
                            if location.dist_sq(&f_loc) <= r_sq && w > scores[j] {
                                scores[j] = w;
                                topk.update(id, location, w);
                            }
                        }
                    }
                }
            }
        }

        ctx.counters()
            .add(COUNTER_REDUCE_FEATURES_EXAMINED, features_examined);
        ctx.counters()
            .add(COUNTER_REDUCE_DISTANCE_CHECKS, distance_checks);
        for entry in topk.into_vec() {
            ctx.emit(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DataObject, FeatureObject, SpqObject};
    use spq_mapreduce::{ClusterConfig, JobStats, LocalPool};
    use spq_spatial::Rect;
    use spq_text::KeywordSet;

    fn run(query: &SpqQuery, objects: Vec<SpqObject>) -> (Vec<RankedObject>, JobStats) {
        let grid: SpacePartition =
            spq_spatial::Grid::square(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4).into();
        let (dataset, splits) = SharedDataset::from_splits(&[objects]);
        let task = ESpqLenTask::new(&dataset, &grid, query);
        let runner = LocalPool::new(ClusterConfig::with_workers(2));
        let out = runner.run(&task, &splits).unwrap();
        let stats = out.stats.clone();
        let mut flat = out.into_flat();
        flat.sort_by(RankedObject::canonical_cmp);
        (flat, stats)
    }

    #[test]
    fn finds_the_same_winners_as_pspq_semantics() {
        let q = SpqQuery::new(2, 1.0, KeywordSet::from_ids([0, 1]));
        let objects = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            DataObject::new(2, Point::new(2.0, 1.0)).into(),
            FeatureObject::new(10, Point::new(1.0, 1.5), KeywordSet::from_ids([0])).into(),
            FeatureObject::new(11, Point::new(2.0, 0.5), KeywordSet::from_ids([0, 1])).into(),
        ];
        let (out, _) = run(&q, objects);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].object, out[0].score), (2, Score::ONE));
        assert_eq!((out[1].object, out[1].score), (1, Score::ratio(1, 2)));
    }

    // The counter-asserting tests below place everything deep inside one
    // cell (4x4 over [0,10]² -> cell 5 spans [2.5,5.0]²) with a radius
    // small enough that Lemma-1 duplication never fires, so the expected
    // counts are exact.

    #[test]
    fn terminates_before_long_features() {
        // k=1, |q.W|=1. A 1-keyword exact match scores 1.0 and τ=1 >= any
        // later bound (features sorted by length), so the bulky features
        // must never be examined.
        let q = SpqQuery::new(1, 0.5, KeywordSet::from_ids([0]));
        let mut objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(3.75, 3.75)).into(),
            FeatureObject::new(10, Point::new(3.75, 3.95), KeywordSet::from_ids([0])).into(),
        ];
        // 50 features with 5 keywords each (bound 1/5), all in range.
        for i in 0..50 {
            objects.push(
                FeatureObject::new(
                    100 + i,
                    Point::new(3.85, 3.85),
                    KeywordSet::from_ids([0, 1, 2, 3, 4]),
                )
                .into(),
            );
        }
        let (out, stats) = run(&q, objects);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, Score::ONE);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 1);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_EARLY_TERMINATIONS), 1);
        // The break consumed one record to read its bound; the runtime
        // drained the remaining 49.
        assert_eq!(stats.counters.get("reduce.records_skipped"), 49);
    }

    #[test]
    fn short_features_cannot_trigger_termination() {
        // While |f.W| < |q.W| the bound is 1 and τ < 1 keeps scanning.
        let q = SpqQuery::new(1, 0.5, KeywordSet::from_ids([0, 1, 2]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(3.75, 3.75)).into(),
            // Scores 1/3 each; bounds stay 1 while len < 3.
            FeatureObject::new(10, Point::new(3.85, 3.75), KeywordSet::from_ids([0])).into(),
            FeatureObject::new(11, Point::new(3.95, 3.75), KeywordSet::from_ids([1])).into(),
            // len 3: exact match scores 1.0.
            FeatureObject::new(12, Point::new(4.05, 3.75), KeywordSet::from_ids([0, 1, 2])).into(),
        ];
        let (out, stats) = run(&q, objects);
        assert_eq!(out[0].score, Score::ONE);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 3);
    }

    #[test]
    fn termination_respects_score_correctness() {
        // τ = 1/3 from a len-2 feature; a len-4 feature still has bound
        // 1/2 > τ and must be examined. The result score must be exact.
        let q = SpqQuery::new(1, 0.5, KeywordSet::from_ids([0, 1]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(3.75, 3.75)).into(),
            FeatureObject::new(10, Point::new(3.85, 3.75), KeywordSet::from_ids([0, 7])).into(),
            FeatureObject::new(
                11,
                Point::new(3.95, 3.75),
                KeywordSet::from_ids([0, 5, 6, 7]),
            )
            .into(),
        ];
        let (out, stats) = run(&q, objects);
        assert_eq!(out[0].score, Score::ratio(1, 3)); // {0,1} vs {0,7}
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 2);
    }

    #[test]
    fn dataless_cells_stop_at_first_feature() {
        // One data object far away; the feature's cell has no data, so its
        // reducer terminates without examining anything.
        let q = SpqQuery::new(1, 0.5, KeywordSet::from_ids([0]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(8.75, 8.75)).into(),
            FeatureObject::new(10, Point::new(3.75, 3.75), KeywordSet::from_ids([0])).into(),
        ];
        let (out, stats) = run(&q, objects);
        assert!(out.is_empty());
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 0);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_EARLY_TERMINATIONS), 1);
    }
}
