//! eSPQsco — early termination by decreasing score
//! (Section 5.2, Algorithms 5 and 6).
//!
//! The Jaccard score `w(f, q)` is computed **in the Map phase** — exactly
//! once per feature, shared by all Lemma-1 routed copies — and used as the
//! secondary sort key, descending; data objects carry the sentinel 2
//! (> any Jaccard value) so they still precede all features. The reducer
//! then reports any unreported data object within `r` of the current
//! feature immediately — its score is final, because every remaining
//! feature scores no higher — and stops after `k` reports (Lemma 3).
//!
//! Implementation notes beyond the paper's pseudocode:
//!
//! * The shuffle value is an 8-byte index into the shared dataset store
//!   (the key carries the score, the store carries the locations), so
//!   eSPQsco ships strictly smaller records than the other two
//!   algorithms. Data and feature records travel as pre-grouped shuffle
//!   runs; only the feature run is sorted, by descending key score.
//! * Reports are buffered per *run of equal scores* and flushed in id
//!   order when the score strictly drops. This makes the per-cell output
//!   canonical under score ties (the paper's pseudocode implicitly
//!   assumes distinct scores); the extra work is bounded by one score run.

use crate::model::RankedObject;
use crate::partitioning::{
    route_data, route_scored_feature, COUNTER_MAP_DATA, COUNTER_MAP_DUPLICATES,
    COUNTER_MAP_FEATURES, COUNTER_MAP_PRUNED, COUNTER_REDUCE_DISTANCE_CHECKS,
    COUNTER_REDUCE_EARLY_TERMINATIONS, COUNTER_REDUCE_FEATURES_EXAMINED,
};
use crate::query::SpqQuery;
use crate::store::{ObjectRef, SharedDataset};
use spq_mapreduce::{GroupValues, MapContext, MapReduceTask, ReduceContext};
use spq_spatial::{CellId, Point, SpacePartition};
use spq_text::Score;
use std::cmp::Ordering;

/// The composite key of Algorithm 5: cell id plus the map-side score
/// (2 for data objects — strictly above any Jaccard value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoKey {
    /// The grid cell (natural key).
    pub cell: u32,
    /// `Score::DATA_SENTINEL` for data objects; `w(f, q)` for features.
    /// Sorted descending within a cell.
    pub score: Score,
}

/// The eSPQsco MapReduce task.
#[derive(Debug)]
pub struct ESpqScoTask<'a> {
    dataset: &'a SharedDataset,
    grid: &'a SpacePartition,
    query: &'a SpqQuery,
    prune: bool,
}

impl<'a> ESpqScoTask<'a> {
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

impl MapReduceTask for ESpqScoTask<'_> {
    type Input = ObjectRef;
    type Key = ScoKey;
    // The score rides in the key, so the value is a bare 8-byte store
    // reference — the smallest record of the three algorithms.
    type Value = ObjectRef;
    type Output = RankedObject;

    fn num_reducers(&self) -> usize {
        self.grid.num_cells()
    }

    // Algorithm 5 — note the score computation on the map side.
    fn map(&self, record: &ObjectRef, ctx: &mut MapContext<'_, Self>) {
        match *record {
            ObjectRef::Data(i) => {
                ctx.counters().inc(COUNTER_MAP_DATA);
                let cell = route_data(self.grid, &self.dataset.data()[i as usize].location);
                ctx.emit(
                    self,
                    ScoKey {
                        cell: cell.0,
                        score: Score::DATA_SENTINEL,
                    },
                    ObjectRef::Data(i),
                );
            }
            ObjectRef::Feature(i) => {
                let f = &self.dataset.features()[i as usize];
                // With pruning enabled, routed features always share a
                // keyword and the score is positive; without it,
                // zero-score features travel too and the reducer stops
                // at them (they sort last). Scored once per feature;
                // every routed copy reuses it.
                let prune = self.prune;
                let emit = |c: CellId, w: Score| {
                    debug_assert!(!prune || !w.is_zero());
                    ctx.emit(
                        self,
                        ScoKey {
                            cell: c.0,
                            score: w,
                        },
                        ObjectRef::Feature(i),
                    );
                };
                match route_scored_feature(self.grid, self.query, f, prune, emit) {
                    Some(copies) => {
                        ctx.counters().inc(COUNTER_MAP_FEATURES);
                        ctx.counters().add(COUNTER_MAP_DUPLICATES, copies - 1);
                    }
                    None => ctx.counters().inc(COUNTER_MAP_PRUNED),
                }
            }
        }
    }

    fn partition(&self, key: &ScoKey) -> usize {
        key.cell as usize
    }

    fn sort_cmp(&self, a: &ScoKey, b: &ScoKey) -> Ordering {
        // Cell ascending, then score DESCENDING — the customized
        // Comparator of Section 5.2.
        a.cell.cmp(&b.cell).then(b.score.cmp(&a.score))
    }

    fn group_eq(&self, a: &ScoKey, b: &ScoKey) -> bool {
        a.cell == b.cell
    }

    fn num_subbuckets(&self) -> usize {
        2
    }

    fn subbucket(&self, key: &ScoKey) -> usize {
        (key.score != Score::DATA_SENTINEL) as usize
    }

    // Only the feature run needs its descending-score order; the data run
    // is taken as shuffled.
    fn subbucket_needs_sort(&self, sub: usize) -> bool {
        sub == 1
    }

    // Algorithm 6.
    fn reduce(
        &self,
        _group: &ScoKey,
        values: &mut GroupValues<'_, Self>,
        ctx: &mut ReduceContext<'_, RankedObject>,
    ) {
        let r_sq = self.query.radius * self.query.radius;
        let k = self.query.k;
        let mut objects: Vec<(u64, Point)> = Vec::new();
        let mut reported: Vec<bool> = Vec::new();
        let mut emitted = 0usize;
        let mut run_score: Option<Score> = None;
        let mut run_buf: Vec<RankedObject> = Vec::new();
        let mut features_examined = 0u64;
        let mut distance_checks = 0u64;
        let mut terminated_early = false;

        // Flushes one equal-score run in id order, up to k total reports.
        let flush = |run_buf: &mut Vec<RankedObject>,
                     emitted: &mut usize,
                     ctx: &mut ReduceContext<'_, RankedObject>| {
            run_buf.sort_by_key(|e| e.object);
            for entry in run_buf.drain(..) {
                if *emitted == k {
                    break;
                }
                ctx.emit(entry); // here: w(x, q) = τ(p)
                *emitted += 1;
            }
        };

        for (key, value) in values.by_ref() {
            match value {
                ObjectRef::Data(i) => {
                    let o = &self.dataset.data()[i as usize];
                    objects.push((o.id, o.location));
                    reported.push(false);
                }
                ObjectRef::Feature(i) => {
                    // A cell without data objects can never report
                    // anything (Lemma 3 with an unreachable k); duplicated
                    // features routinely land in such cells.
                    if objects.is_empty() {
                        terminated_early = true;
                        break;
                    }
                    let w = key.score;
                    // Zero-score features (possible only with keyword
                    // pruning disabled) sort last and cannot rank anything.
                    if w.is_zero() {
                        flush(&mut run_buf, &mut emitted, ctx);
                        terminated_early = true;
                        break;
                    }
                    if run_score != Some(w) {
                        // Score strictly dropped: the previous run's
                        // reports are final.
                        flush(&mut run_buf, &mut emitted, ctx);
                        if emitted == k {
                            terminated_early = true;
                            break; // lines 10-12: k objects reported
                        }
                        run_score = Some(w);
                    }
                    features_examined += 1;
                    distance_checks += objects.len() as u64;
                    let f_loc = self.dataset.features()[i as usize].location;
                    for (j, &(id, location)) in objects.iter().enumerate() {
                        // Line 7: any unreported object in range gets its
                        // final score now.
                        if !reported[j] && location.dist_sq(&f_loc) <= r_sq {
                            reported[j] = true;
                            run_buf.push(RankedObject::new(id, location, w));
                        }
                    }
                    // Every object of the cell already has its final
                    // score: nothing left to find. Flush and stop.
                    if run_buf.len() + emitted == objects.len() {
                        flush(&mut run_buf, &mut emitted, ctx);
                        terminated_early = true;
                        break;
                    }
                }
            }
        }
        if !terminated_early {
            flush(&mut run_buf, &mut emitted, ctx);
        }

        ctx.counters()
            .add(COUNTER_REDUCE_FEATURES_EXAMINED, features_examined);
        ctx.counters()
            .add(COUNTER_REDUCE_DISTANCE_CHECKS, distance_checks);
        if terminated_early {
            ctx.counters().inc(COUNTER_REDUCE_EARLY_TERMINATIONS);
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
        let task = ESpqScoTask::new(&dataset, &grid, query);
        let runner = LocalPool::new(ClusterConfig::with_workers(2));
        let out = runner.run(&task, &splits).unwrap();
        let stats = out.stats.clone();
        let mut flat = out.into_flat();
        flat.sort_by(RankedObject::canonical_cmp);
        (flat, stats)
    }

    #[test]
    fn reports_scores_in_descending_order() {
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
    fn stops_after_k_reports() {
        // The top-scoring feature matches the single requested object; the
        // scan must ignore every weaker feature.
        let q = SpqQuery::new(1, 0.5, KeywordSet::from_ids([0]));
        let mut objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(3.75, 3.75)).into(),
            FeatureObject::new(10, Point::new(3.75, 3.95), KeywordSet::from_ids([0])).into(),
        ];
        for i in 0..80 {
            objects.push(
                FeatureObject::new(
                    100 + i,
                    Point::new(3.85, 3.85),
                    KeywordSet::from_ids([0, 1]),
                )
                .into(),
            );
        }
        let (out, stats) = run(&q, objects);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, Score::ONE);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 1);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_EARLY_TERMINATIONS), 1);
        assert_eq!(stats.counters.get("reduce.records_skipped"), 80);
    }

    #[test]
    fn equal_score_run_prefers_smaller_ids() {
        // Three objects each reachable only from its own feature; all
        // features score 1/2. k=2 must pick ids 1 and 2 (not arrival
        // order). Everything sits in one cell, spaced > r apart.
        let q = SpqQuery::new(2, 0.15, KeywordSet::from_ids([0]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(3, Point::new(3.75, 4.4)).into(),
            DataObject::new(1, Point::new(3.75, 3.6)).into(),
            DataObject::new(2, Point::new(3.75, 4.0)).into(),
            FeatureObject::new(13, Point::new(3.85, 4.4), KeywordSet::from_ids([0, 5])).into(),
            FeatureObject::new(11, Point::new(3.85, 3.6), KeywordSet::from_ids([0, 6])).into(),
            FeatureObject::new(12, Point::new(3.85, 4.0), KeywordSet::from_ids([0, 7])).into(),
        ];
        let (out, _) = run(&q, objects);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].object, 1);
        assert_eq!(out[1].object, 2);
        assert_eq!(out[0].score, Score::ratio(1, 2));
    }

    #[test]
    fn dataless_cells_stop_at_first_feature() {
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

    #[test]
    fn all_objects_reported_stops_the_scan() {
        // Two objects, both matched by the two best features; the 40 weak
        // features are never examined even though k is larger.
        let q = SpqQuery::new(10, 0.5, KeywordSet::from_ids([0]));
        let mut objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(3.75, 3.75)).into(),
            DataObject::new(2, Point::new(4.3, 4.3)).into(),
            FeatureObject::new(10, Point::new(3.75, 3.95), KeywordSet::from_ids([0])).into(),
            FeatureObject::new(11, Point::new(4.3, 4.45), KeywordSet::from_ids([0])).into(),
        ];
        for i in 0..40 {
            objects.push(
                FeatureObject::new(
                    100 + i,
                    Point::new(3.85, 3.85),
                    KeywordSet::from_ids([0, 1]),
                )
                .into(),
            );
        }
        let (out, stats) = run(&q, objects);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED), 2);
        assert_eq!(stats.counters.get("reduce.records_skipped"), 40);
    }

    #[test]
    fn object_scored_by_first_matching_feature_only() {
        // p is in range of a 1.0 feature and a 0.5 feature: reported once,
        // with 1.0.
        let q = SpqQuery::new(5, 2.0, KeywordSet::from_ids([0]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            FeatureObject::new(10, Point::new(1.2, 1.0), KeywordSet::from_ids([0])).into(),
            FeatureObject::new(11, Point::new(1.4, 1.0), KeywordSet::from_ids([0, 9])).into(),
        ];
        let (out, _) = run(&q, objects);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, Score::ONE);
    }

    #[test]
    fn empty_cells_produce_nothing() {
        let q = SpqQuery::new(3, 1.0, KeywordSet::from_ids([0]));
        let objects: Vec<SpqObject> = vec![
            DataObject::new(1, Point::new(1.0, 1.0)).into(),
            // Feature too far to matter.
            FeatureObject::new(10, Point::new(9.0, 9.0), KeywordSet::from_ids([0])).into(),
        ];
        let (out, _) = run(&q, objects);
        assert!(out.is_empty());
    }
}
