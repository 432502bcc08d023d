//! pSPQ — the parallel grid-based algorithm without early termination
//! (Section 4, Algorithms 1 and 2).
//!
//! Map emits `⟨(cell, tag), handle⟩` with tag 0 for data and 1 for feature
//! objects, so each reducer sees all of its cell's data objects before any
//! feature object. The handle carries an index into the shared dataset
//! store plus the feature's score, computed exactly once per feature on
//! the map side — Lemma-1 boundary duplication copies 16 bytes, not a
//! keyword list. Because the tag *is* the sub-bucket, the shuffle delivers
//! both runs pre-grouped and the reducer never sorts anything.
//!
//! The reducer loads the data objects into memory, then for every feature
//! whose score beats the current threshold `τ` scans them for
//! `d(p, f) <= r` matches, maintaining the top-k list `Lk`. Every feature
//! of the cell is examined — the limitation (Section 4.2.3) that motivates
//! the early-termination variants.

use crate::algo::ObjectHandle;
use crate::model::RankedObject;
use crate::partitioning::{
    route_data, route_scored_feature, CellRouting, COUNTER_MAP_DATA, COUNTER_MAP_DUPLICATES,
    COUNTER_MAP_FEATURES, COUNTER_MAP_PRUNED, COUNTER_REDUCE_DISTANCE_CHECKS,
    COUNTER_REDUCE_FEATURES_EXAMINED,
};
use crate::query::SpqQuery;
use crate::store::{ObjectRef, SharedDataset};
use crate::topk::TopKList;
use spq_mapreduce::{GroupValues, MapContext, MapReduceTask, ReduceContext};
use spq_spatial::{CellId, Point, SpacePartition};
use spq_text::Score;
use std::cmp::Ordering;

/// The composite key of Algorithm 1: cell id plus a tag ordering data
/// objects (0) before feature objects (1) within the cell's reduce group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PSpqKey {
    /// The grid cell (natural key: partitioning and grouping).
    pub cell: u32,
    /// 0 for data objects, 1 for feature objects (doubles as the
    /// sub-bucket, so the shuffle pre-groups the two runs).
    pub tag: u8,
}

/// The pSPQ MapReduce task.
#[derive(Debug)]
pub struct PSpqTask<'a> {
    dataset: &'a SharedDataset,
    grid: &'a SpacePartition,
    query: &'a SpqQuery,
    prune: bool,
    routing: Option<&'a CellRouting>,
}

impl<'a> PSpqTask<'a> {
    /// Creates the task for one query over one query-time partition of a
    /// shared dataset.
    pub fn new(dataset: &'a SharedDataset, grid: &'a SpacePartition, query: &'a SpqQuery) -> Self {
        Self {
            dataset,
            grid,
            query,
            prune: true,
            routing: None,
        }
    }

    /// Disables the map-side keyword pruning rule (ablation; results are
    /// unchanged, the shuffle just carries every feature object).
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Routes through prebuilt [`CellRouting`] tables (built for this
    /// query's radius over `grid`) instead of walking the partition per
    /// record — the engine's build-once path. Results are byte-identical.
    pub fn with_routing(mut self, routing: &'a CellRouting) -> Self {
        debug_assert_eq!(routing.radius().to_bits(), self.query.radius.to_bits());
        self.routing = Some(routing);
        self
    }
}

impl MapReduceTask for PSpqTask<'_> {
    type Input = ObjectRef;
    type Key = PSpqKey;
    type Value = ObjectHandle;
    type Output = RankedObject;

    fn num_reducers(&self) -> usize {
        self.grid.num_cells()
    }

    // Algorithm 1.
    fn map(&self, record: &ObjectRef, ctx: &mut MapContext<'_, Self>) {
        match *record {
            ObjectRef::Data(i) => {
                ctx.counters().inc(COUNTER_MAP_DATA);
                let cell = match self.routing {
                    Some(rt) => rt.data_cell(i),
                    None => route_data(self.grid, &self.dataset.data()[i as usize].location),
                };
                ctx.emit(
                    self,
                    PSpqKey {
                        cell: cell.0,
                        tag: 0,
                    },
                    ObjectHandle::Data(i),
                );
            }
            ObjectRef::Feature(i) => {
                let f = &self.dataset.features()[i as usize];
                // Scored once per feature; every routed copy reuses it.
                let mut emit = |c: CellId, w: Score| {
                    ctx.emit(
                        self,
                        PSpqKey { cell: c.0, tag: 1 },
                        ObjectHandle::Feature(i, w),
                    );
                };
                let routed = match self.routing {
                    Some(rt) => rt.route_scored_feature(self.query, f, i, self.prune, &mut emit),
                    None => route_scored_feature(self.grid, self.query, f, self.prune, &mut emit),
                };
                match routed {
                    Some(copies) => {
                        ctx.counters().inc(COUNTER_MAP_FEATURES);
                        ctx.counters().add(COUNTER_MAP_DUPLICATES, copies - 1);
                    }
                    None => ctx.counters().inc(COUNTER_MAP_PRUNED),
                }
            }
        }
    }

    fn partition(&self, key: &PSpqKey) -> usize {
        key.cell as usize
    }

    fn sort_cmp(&self, a: &PSpqKey, b: &PSpqKey) -> Ordering {
        a.cell.cmp(&b.cell).then(a.tag.cmp(&b.tag))
    }

    fn group_eq(&self, a: &PSpqKey, b: &PSpqKey) -> bool {
        a.cell == b.cell
    }

    fn num_subbuckets(&self) -> usize {
        2
    }

    fn subbucket(&self, key: &PSpqKey) -> usize {
        key.tag as usize
    }

    // Data-before-features is delivered by the run order and the reducer
    // accepts features in any order: pSPQ is fully sort-free.
    fn subbucket_needs_sort(&self, _sub: usize) -> bool {
        false
    }

    // Algorithm 2.
    fn reduce(
        &self,
        _group: &PSpqKey,
        values: &mut GroupValues<'_, Self>,
        ctx: &mut ReduceContext<'_, RankedObject>,
    ) {
        let r_sq = self.query.radius * self.query.radius;
        let mut objects: Vec<(u64, Point)> = Vec::new();
        let mut scores: Vec<Score> = Vec::new();
        let mut topk = TopKList::new(self.query.k);
        let mut features_examined = 0u64;
        let mut distance_checks = 0u64;

        for (_key, value) in values.by_ref() {
            match value {
                ObjectHandle::Data(i) => {
                    let o = &self.dataset.data()[i as usize];
                    objects.push((o.id, o.location));
                    scores.push(Score::ZERO); // line 7: initial score 0
                }
                ObjectHandle::Feature(i, w) => {
                    features_examined += 1;
                    // Line 9 of Algorithm 2 skips features with w <= τ.
                    // We keep w == τ (and only drop w < τ or w == 0):
                    // under a k-boundary score tie, a feature at exactly
                    // τ can still swap a smaller-id object into Lk, and
                    // admitting it makes the cell's output the *canonical*
                    // top-k — a pure function of (dataset, query), which
                    // is what lets sharded scatter/gather backends stay
                    // byte-identical to the single-store engine.
                    if !w.is_zero() && w >= topk.tau() {
                        let f_loc = self.dataset.features()[i as usize].location;
                        distance_checks += objects.len() as u64;
                        for (j, &(id, location)) in objects.iter().enumerate() {
                            if location.dist_sq(&f_loc) <= r_sq && w > scores[j] {
                                scores[j] = w; // line 12: running max
                                topk.update(id, location, w); // line 13
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
            ctx.emit(entry); // line 20: score(p) = τ(p) at this point
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DataObject, FeatureObject, SpqObject};
    use spq_mapreduce::{ClusterConfig, LocalPool};
    use spq_spatial::Rect;
    use spq_text::KeywordSet;

    fn run(query: &SpqQuery, objects: Vec<SpqObject>) -> Vec<RankedObject> {
        let grid: SpacePartition =
            spq_spatial::Grid::square(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4).into();
        let (dataset, splits) = SharedDataset::from_splits(&[objects]);
        let task = PSpqTask::new(&dataset, &grid, query);
        let runner = LocalPool::new(ClusterConfig::with_workers(2));
        let mut out = runner.run(&task, &splits).unwrap().into_flat();
        out.sort_by(RankedObject::canonical_cmp);
        out
    }

    #[test]
    fn scores_single_cell() {
        let q = SpqQuery::new(2, 1.0, KeywordSet::from_ids([0, 1]));
        let objects = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            DataObject::new(2, Point::new(2.0, 1.0)).into(),
            // Within 1.0 of p1 only; Jaccard {0,1} vs {0} = 1/2.
            FeatureObject::new(10, Point::new(1.0, 1.5), KeywordSet::from_ids([0])).into(),
            // Within 1.0 of p2 only; Jaccard {0,1} vs {0,1} = 1.
            FeatureObject::new(11, Point::new(2.0, 0.5), KeywordSet::from_ids([0, 1])).into(),
        ];
        let out = run(&q, objects);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].object, 2);
        assert_eq!(out[0].score, Score::ONE);
        assert_eq!(out[1].object, 1);
        assert_eq!(out[1].score, Score::ratio(1, 2));
    }

    #[test]
    fn feature_across_cell_boundary_scores_neighbor() {
        // Data object near a cell border; its scoring feature sits in the
        // next cell. Lemma-1 duplication must carry it over.
        let q = SpqQuery::new(1, 1.0, KeywordSet::from_ids([0]));
        let objects = vec![
            DataObject::new(1, Point::new(2.4, 1.0)).into(), // cell 0
            FeatureObject::new(10, Point::new(2.6, 1.0), KeywordSet::from_ids([0])).into(), // cell 1
        ];
        let out = run(&q, objects);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].object, 1);
        assert_eq!(out[0].score, Score::ONE);
    }

    #[test]
    fn non_matching_features_are_pruned_and_score_nothing() {
        let q = SpqQuery::new(1, 5.0, KeywordSet::from_ids([0]));
        let objects = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            FeatureObject::new(10, Point::new(1.0, 1.2), KeywordSet::from_ids([7, 8])).into(),
        ];
        assert!(run(&q, objects).is_empty());
    }

    #[test]
    fn objects_out_of_range_are_not_reported() {
        let q = SpqQuery::new(5, 0.5, KeywordSet::from_ids([0]));
        let objects = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            FeatureObject::new(10, Point::new(1.0, 2.0), KeywordSet::from_ids([0])).into(),
        ];
        assert!(run(&q, objects).is_empty());
    }

    #[test]
    fn returns_fewer_than_k_when_few_qualify() {
        let q = SpqQuery::new(10, 1.0, KeywordSet::from_ids([0]));
        let objects = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            FeatureObject::new(10, Point::new(1.0, 1.2), KeywordSet::from_ids([0])).into(),
        ];
        let out = run(&q, objects);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn counters_track_map_side_work() {
        let grid: SpacePartition =
            spq_spatial::Grid::square(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4).into();
        let q = SpqQuery::new(1, 1.5, KeywordSet::from_ids([0]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            // On a border: duplicated at least once.
            FeatureObject::new(10, Point::new(2.4, 1.0), KeywordSet::from_ids([0])).into(),
            // Pruned.
            FeatureObject::new(11, Point::new(1.0, 1.0), KeywordSet::from_ids([9])).into(),
        ];
        let (dataset, splits) = SharedDataset::from_splits(&[objects]);
        let task = PSpqTask::new(&dataset, &grid, &q);
        let out = LocalPool::new(ClusterConfig::sequential())
            .run(&task, &splits)
            .unwrap();
        let c = &out.stats.counters;
        assert_eq!(c.get(COUNTER_MAP_DATA), 1);
        assert_eq!(c.get(COUNTER_MAP_FEATURES), 1);
        assert_eq!(c.get(COUNTER_MAP_PRUNED), 1);
        assert!(c.get(COUNTER_MAP_DUPLICATES) >= 1);
        assert!(c.get(COUNTER_REDUCE_FEATURES_EXAMINED) >= 1);
    }
}
