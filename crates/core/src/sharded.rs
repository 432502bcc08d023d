//! Shard-per-node serving: scatter a query to per-shard engines, gather
//! serialized top-k records, merge.
//!
//! The paper's cells are independent work units *within* one job; this
//! module lifts the same idea one level up, to the shape a cluster
//! deployment would take (cf. Tornado's separation of query routing from
//! placement, PAPERS.md): the data objects are sliced into `N` per-shard
//! [`SharedDataset`]s at build time — features are **broadcast** to every
//! shard by cloning the `Arc`, never the array — and each shard runs its
//! own build-once [`QueryEngine`] (the data grid over the shard's slice is
//! local to the shard; the keyword index, a function of the broadcast
//! features alone, is built once and shared by all of them).
//!
//! A query then runs the one scatter/gather of the distribution layer
//! (`Layout::scatter_gather` — [`crate::remote`] runs the same function
//! with each shard asked over a socket instead of by a call):
//!
//! 1. **probes** the keyword index once — if no feature carries any query
//!    keyword, no object can score and the query touches zero shards;
//! 2. **scatters** to every relevant shard (shards holding data), each
//!    evaluating the query against its slice at worker budget 1
//!    (`Shard::answer`, the step a remote worker runs too) —
//!    inter-shard concurrency is the parallelism, exactly the
//!    shard-per-node serving shape;
//! 3. **gathers** each shard's local top-k as *serialized wire records* —
//!    [`wire::RECORD_BYTES`]-byte `(data index, score bits)` pairs, the
//!    cross-shard counterpart of the 8–16-byte handles that cross the
//!    in-process shuffle — and re-resolves them against the global store;
//! 4. **merges** with the same [`merge_top_k`] the single-store engine
//!    uses.
//!
//! Because data objects are never duplicated across shards (the paper's
//! Section 4.2 invariant, applied at shard granularity) and every shard
//! sees the complete feature set, each shard's `τ` values are exact and
//! the gathered merge is **byte-identical** to the single-store engine —
//! results, scores and order (`tests/backend_equivalence.rs` proptests
//! this across shard counts, algorithms and partitionings).
//!
//! A shard answers with the kernel only, traced request or not. A trace is
//! the paper's job for the query, and the job is cut by grid cell, not by
//! shard: a traced request runs one [`SpqExecutor::run_dataset`] job over
//! the whole global store, on the manager, at the request's worker budget,
//! beside the unchanged scatter. Its [`JobStats`] are the trace's one
//! entry, exactly as on the local backend.

use crate::engine::{KeywordIndex, MetricsSnapshot, QueryEngine};
use crate::executor::{SpqError, SpqExecutor};
use crate::merge::merge_top_k;
use crate::model::{DataObject, ObjectId, RankedObject};
use crate::query::SpqQuery;
use crate::service::{QueryExecutor, QueryOptions, QueryResponse, QueryStats};
use crate::store::SharedDataset;
use spq_mapreduce::pool::run_tasks;
#[cfg(doc)]
use spq_mapreduce::JobStats;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The cross-shard wire format: what a shard's gather response looks like
/// as bytes.
///
/// Each record is a little-endian `(u32 global data index, u64 score
/// bits)` pair — 12 bytes, in the same 8–16-byte class as the in-process
/// shuffle handles, and resolved the same way: against the shared store,
/// never by shipping objects. Encoding and decoding are exact (`f64`
/// bits round-trip), which is what lets the gathered merge stay
/// byte-identical to the single-store engine.
pub mod wire {
    use super::*;
    use spq_text::Score;

    /// Serialized size of one gather record.
    pub const RECORD_BYTES: usize = 12;

    /// The global data index a record names.
    pub(crate) fn record_index(record: &[u8]) -> usize {
        u32::from_le_bytes([record[0], record[1], record[2], record[3]]) as usize
    }

    /// The score a record carries.
    pub(crate) fn record_score(record: &[u8]) -> f64 {
        let bits = [4, 5, 6, 7, 8, 9, 10, 11].map(|i| record[i]);
        f64::from_bits(u64::from_le_bytes(bits))
    }

    /// A result names a data object the id → store-index map does not
    /// hold, so it has no wire record.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct UnknownObject(pub ObjectId);

    impl std::fmt::Display for UnknownObject {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "data object {} is not in the id map", self.0)
        }
    }

    /// [`encode_results`], failing on the first result `id_to_index` does
    /// not hold instead of leaving it out.
    pub(crate) fn try_encode_results(
        results: &[RankedObject],
        id_to_index: &HashMap<ObjectId, u32>,
    ) -> Result<Vec<u8>, UnknownObject> {
        match results
            .iter()
            .find(|r| !id_to_index.contains_key(&r.object))
        {
            Some(r) => Err(UnknownObject(r.object)),
            None => Ok(encode_results(results, id_to_index)),
        }
    }

    /// Serializes a shard's local top-k into wire records. `id_to_index`
    /// maps data-object ids to indices in the *global* store (built once
    /// at engine construction), so the receiver resolves records without
    /// any per-shard coordinate space. A result whose id `id_to_index`
    /// does not hold is left out; a shard's own answer is checked for
    /// that first and fails instead.
    pub fn encode_results(
        results: &[RankedObject],
        id_to_index: &HashMap<ObjectId, u32>,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(results.len() * RECORD_BYTES);
        for r in results {
            if let Some(index) = id_to_index.get(&r.object) {
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(&r.score.value().to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Deserializes wire records, resolving each index against the global
    /// data store.
    ///
    /// # Panics
    ///
    /// Panics on a malformed buffer (length not a multiple of
    /// [`RECORD_BYTES`], index out of range, a negative or non-finite
    /// score) — a bug canary, not an I/O error path: the in-process
    /// transport cannot truncate, and records that came off a socket are
    /// checked (whole records, every index inside the answering shard's
    /// slice, every score finite and ≥ 0) before they get here.
    pub fn decode_results(bytes: &[u8], data: &[DataObject]) -> Vec<RankedObject> {
        assert!(
            bytes.len().is_multiple_of(RECORD_BYTES),
            "wire buffer of {} bytes is not a whole number of records",
            bytes.len()
        );
        bytes
            .chunks_exact(RECORD_BYTES)
            .map(|chunk| {
                let object = &data[record_index(chunk)];
                RankedObject::new(
                    object.id,
                    object.location,
                    Score::from_f64(record_score(chunk)),
                )
            })
            .collect()
    }
}

/// Maps each `(id, global store index)` pair, or returns the first id that
/// occurs twice — gather records resolve by id, so ids must be unique.
pub(crate) fn index_by_id(
    pairs: impl ExactSizeIterator<Item = (ObjectId, u32)>,
) -> Result<HashMap<ObjectId, u32>, ObjectId> {
    let mut id_to_index = HashMap::with_capacity(pairs.len());
    for (id, index) in pairs {
        if id_to_index.insert(id, index).is_some() {
            return Err(id);
        }
    }
    Ok(id_to_index)
}

/// One shard, wherever it lives — inside a [`ShardedEngine`] or behind a
/// worker's socket ([`crate::remote::ShardHost`]): a build-once engine
/// over the shard's data slice, plus the id → global-store-index map its
/// gather records are written with.
#[derive(Debug)]
pub(crate) struct Shard {
    pub engine: QueryEngine,
    pub id_to_index: Arc<HashMap<ObjectId, u32>>,
}

impl Shard {
    /// Answers `query` with the kernel over the shard's slice and
    /// serializes the local top-k as [`wire`] records.
    ///
    /// # Errors
    ///
    /// [`SpqError::InvalidConfig`] when a result is not in the shard's id
    /// map — a shard built over a slice its map does not cover.
    pub(crate) fn answer(&self, query: &SpqQuery) -> Result<Vec<u8>, SpqError> {
        let top_k = self.engine.run(query);
        wire::try_encode_results(&top_k, &self.id_to_index)
            .map_err(|e| SpqError::invalid_config(format!("shard gather: {e}")))
    }
}

/// The recovery work one scatter leg took (remote workers only; an
/// in-process shard never needs any).
#[derive(Default)]
pub(crate) struct Recovery {
    pub retries: u64,
    pub warm_failovers: u64,
    pub cold_reprovisions: u64,
}

/// What both scatter/gather engines know about how the store is cut: the
/// global store the gather resolves against, the executor every shard was
/// built with, and each shard's contiguous `[start, end)` data slice.
#[derive(Debug)]
pub(crate) struct Layout {
    pub dataset: SharedDataset,
    pub exec: SpqExecutor,
    pub slices: Vec<Range<usize>>,
}

impl Layout {
    /// Cuts `dataset`'s data objects into `num_shards` contiguous slices
    /// (features are broadcast, never sliced). Also returns the id →
    /// store-index map the uniqueness check builds.
    ///
    /// # Errors
    ///
    /// [`SpqError::InvalidConfig`] when `num_shards == 0` or two data
    /// objects share an id.
    pub(crate) fn new(
        exec: SpqExecutor,
        dataset: SharedDataset,
        num_shards: usize,
    ) -> Result<(Self, HashMap<ObjectId, u32>), SpqError> {
        if num_shards == 0 {
            return Err(SpqError::invalid_config(
                "a scatter/gather backend needs at least one shard",
            ));
        }
        let data = dataset.data();
        let ids = data.iter().enumerate().map(|(i, o)| (o.id, i as u32));
        let id_to_index = index_by_id(ids).map_err(|id| {
            SpqError::invalid_config(format!(
                "duplicate data object id {id} — gather records resolve by id"
            ))
        })?;
        let slices = (0..num_shards)
            .map(|s| s * data.len() / num_shards..(s + 1) * data.len() / num_shards)
            .collect();
        let layout = Self {
            dataset,
            exec,
            slices,
        };
        Ok((layout, id_to_index))
    }

    /// The one scatter/gather lifecycle (see the [module docs](self)).
    /// `keywords` is the caller's `(probed, matched)` keyword probe: with
    /// no match no object can score, and no shard is asked. Otherwise
    /// `ask` is called once per shard holding data, on up to
    /// [`QueryOptions::workers`] threads (results are width-invariant),
    /// and returns the shard's [`wire`] records; each reply is checked
    /// against the answering shard's slice, resolved against the global
    /// store and merged. A traced request also runs the query's one job.
    pub(crate) fn scatter_gather(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
        keywords: (usize, usize),
        ask: impl Fn(usize) -> Result<(Vec<u8>, Recovery), SpqError> + Sync,
    ) -> Result<QueryResponse, SpqError> {
        let started = Instant::now();
        let relevant: Vec<usize> = (0..self.slices.len())
            .filter(|&s| keywords.1 > 0 && !self.slices[s].is_empty())
            .collect();
        let mut stats = QueryStats {
            algorithm: self.exec.algorithm_choice(),
            shards_touched: relevant.len(),
            shuffle_records: 0,
            shuffle_bytes: 0,
            wall_micros: 0,
            keyword_terms_probed: keywords.0,
            keyword_terms_matched: keywords.1,
            retries: 0,
            warm_failovers: 0,
            cold_reprovisions: 0,
        };
        let mut flat = Vec::new();
        if !relevant.is_empty() {
            let width = options
                .workers
                .unwrap_or(self.exec.cluster_config().workers)
                .clamp(1, relevant.len());
            let outcomes = run_tasks(width, relevant.len(), |i| ask(relevant[i])).map_err(|p| {
                SpqError::Worker {
                    message: format!("shard {}: {}", relevant[p.task_index], p.message),
                }
            })?;
            for (&s, outcome) in relevant.iter().zip(outcomes) {
                let (records, recovery) = outcome?;
                // The records may have come off a socket: an index outside
                // the answering shard's slice, or a score no similarity
                // yields, is a lie, never resolved.
                let slice = &self.slices[s];
                let lie = records.chunks_exact(wire::RECORD_BYTES).find_map(|record| {
                    let (index, score) = (wire::record_index(record), wire::record_score(record));
                    if !slice.contains(&index) {
                        Some(format!("data index {index}, outside its slice {slice:?}"))
                    } else if !(score.is_finite() && score >= 0.0) {
                        Some(format!("score {score} for data index {index}"))
                    } else {
                        None
                    }
                });
                if let Some(lie) = lie {
                    return Err(SpqError::remote(format!("shard {s} answered with {lie}")));
                }
                stats.shuffle_records += (records.len() / wire::RECORD_BYTES) as u64;
                stats.shuffle_bytes += records.len() as u64;
                stats.retries += recovery.retries;
                stats.warm_failovers += recovery.warm_failovers;
                stats.cold_reprovisions += recovery.cold_reprovisions;
                flat.extend(wire::decode_results(&records, self.dataset.data()));
            }
        }
        let trace = self
            .exec
            .trace_job(&self.dataset, query, options)?
            .map(|job| vec![job.stats]);
        let results = merge_top_k(flat, query.k);
        stats.wall_micros = started.elapsed().as_micros() as u64;
        Ok(QueryResponse {
            results,
            stats,
            trace,
        })
    }
}

/// Cumulative per-shard traffic counters.
#[derive(Debug, Default)]
struct ShardCounters {
    queries: AtomicU64,
    records_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
}

/// A point-in-time view of one shard, for monitoring and the
/// `sharded_serve` example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Data objects this shard owns.
    pub data_objects: usize,
    /// Feature objects visible to the shard (the broadcast set — equal
    /// across shards).
    pub feature_objects: usize,
    /// Queries this shard has served.
    pub queries: u64,
    /// Top-k records the shard has shipped through the gather.
    pub records_shipped: u64,
    /// Wire bytes behind [`records_shipped`](Self::records_shipped).
    pub bytes_shipped: u64,
}

/// The scatter/gather engine behind [`crate::service::Backend::Sharded`].
///
/// See the [module docs](self) for the lifecycle and the byte-identity
/// argument. Build once with [`new`](Self::new), then serve typed
/// requests through the [`QueryExecutor`] surface
/// ([`execute`](QueryExecutor::execute) /
/// [`execute_batch`](QueryExecutor::execute_batch) /
/// [`serve_requests`](QueryExecutor::serve_requests)).
#[derive(Debug)]
pub struct ShardedEngine {
    layout: Layout,
    shards: Vec<(Shard, ShardCounters)>,
}

impl ShardedEngine {
    /// Slices `dataset` into `num_shards` contiguous data chunks (features
    /// broadcast by `Arc`) and builds one engine per shard.
    ///
    /// # Errors
    ///
    /// [`SpqError::InvalidConfig`] when `num_shards == 0`, or when the
    /// data objects carry duplicate ids — the wire format resolves shard
    /// results by id, so ids must be unique (the ingest pipeline already
    /// enforces this for loaded dumps).
    pub fn new(
        executor: SpqExecutor,
        dataset: SharedDataset,
        num_shards: usize,
    ) -> Result<Self, SpqError> {
        let (layout, id_to_index) = Layout::new(executor, dataset, num_shards)?;
        let id_to_index = Arc::new(id_to_index);
        // Features are broadcast, so one index speaks for every shard.
        let keyword_index = Arc::new(KeywordIndex::build(layout.dataset.features()));
        let shards = layout
            .slices
            .iter()
            .map(|slice| {
                let data = SharedDataset::with_shared_features(
                    layout.dataset.data()[slice.clone()].to_vec(),
                    layout.dataset.features_arc(),
                );
                let engine = QueryEngine::with_shared_index(
                    layout.exec.clone(),
                    data,
                    Arc::clone(&keyword_index),
                );
                let shard = Shard {
                    engine,
                    id_to_index: Arc::clone(&id_to_index),
                };
                (shard, ShardCounters::default())
            })
            .collect();
        Ok(Self { layout, shards })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global (unsharded) store the gather resolves against.
    pub fn dataset(&self) -> &SharedDataset {
        &self.layout.dataset
    }

    /// The executor configuration every shard engine was built from.
    pub fn executor(&self) -> &SpqExecutor {
        &self.layout.exec
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, (shard, counters))| ShardStats {
                shard: i,
                data_objects: shard.engine.dataset().data().len(),
                feature_objects: shard.engine.dataset().features().len(),
                queries: counters.queries.load(Ordering::Relaxed),
                records_shipped: counters.records_shipped.load(Ordering::Relaxed),
                bytes_shipped: counters.bytes_shipped.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Cumulative engine counters aggregated over all shard engines.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shards
            .iter()
            .map(|(shard, _)| shard.engine.metrics())
            .fold(MetricsSnapshot::default(), MetricsSnapshot::merged)
    }
}

impl QueryExecutor for ShardedEngine {
    /// Probe once — features are broadcast, so shard 0's index speaks for
    /// all — then `Layout::scatter_gather` with every shard asked
    /// in-process. The ship is a real encode/decode round-trip, so the
    /// wire format is exercised on every query.
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        let keywords = self.shards[0].0.engine.keyword_stats(&query.keywords);
        self.layout.scatter_gather(query, options, keywords, |s| {
            let (shard, counters) = &self.shards[s];
            let records = shard.answer(query)?;
            counters.queries.fetch_add(1, Ordering::Relaxed);
            counters.records_shipped.fetch_add(
                (records.len() / wire::RECORD_BYTES) as u64,
                Ordering::Relaxed,
            );
            counters
                .bytes_shipped
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            Ok((records, Recovery::default()))
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FeatureObject;
    use crate::service::QueryRequest;
    use spq_spatial::{Point, Rect};
    use spq_text::{KeywordSet, Score};

    fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
        FeatureObject::new(
            id,
            Point::new(x, y),
            KeywordSet::from_ids(kw.iter().copied()),
        )
    }

    fn paper_dataset() -> SharedDataset {
        SharedDataset::new(
            vec![
                DataObject::new(1, Point::new(4.6, 4.8)),
                DataObject::new(2, Point::new(7.5, 1.7)),
                DataObject::new(3, Point::new(8.9, 5.2)),
                DataObject::new(4, Point::new(1.8, 1.8)),
                DataObject::new(5, Point::new(1.9, 9.0)),
            ],
            vec![
                feature(1, 2.8, 1.2, &[0, 1]),
                feature(2, 5.0, 3.8, &[2, 3]),
                feature(3, 8.7, 1.9, &[4, 5]),
                feature(4, 3.8, 5.5, &[0]),
                feature(5, 5.2, 5.1, &[6, 7]),
                feature(6, 7.4, 5.4, &[8, 9]),
                feature(7, 3.0, 8.1, &[0, 10]),
                feature(8, 9.5, 7.0, &[11]),
            ],
        )
    }

    fn executor() -> SpqExecutor {
        SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4)
    }

    fn request(k: usize, r: f64, kw: &[u32]) -> QueryRequest {
        QueryRequest::new(SpqQuery::new(
            k,
            r,
            KeywordSet::from_ids(kw.iter().copied()),
        ))
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let ds = paper_dataset();
        let id_to_index: HashMap<ObjectId, u32> = ds
            .data()
            .iter()
            .enumerate()
            .map(|(i, o)| (o.id, i as u32))
            .collect();
        let results = vec![
            RankedObject::new(1, Point::new(4.6, 4.8), Score::ONE),
            RankedObject::new(4, Point::new(1.8, 1.8), Score::ratio(1, 3)),
        ];
        let bytes = wire::encode_results(&results, &id_to_index);
        assert_eq!(bytes.len(), 2 * wire::RECORD_BYTES);
        assert_eq!(wire::decode_results(&bytes, ds.data()), results);
        assert!(wire::decode_results(&[], ds.data()).is_empty());
    }

    #[test]
    fn a_result_outside_the_id_map_is_a_typed_error() {
        let ds = paper_dataset();
        // Object 4 (store index 3) is missing from the map.
        let id_to_index: HashMap<ObjectId, u32> = [(1, 0), (2, 1), (3, 2), (5, 4)].into();
        let results = vec![
            RankedObject::new(1, Point::new(4.6, 4.8), Score::ONE),
            RankedObject::new(4, Point::new(1.8, 1.8), Score::ratio(1, 3)),
        ];
        assert_eq!(
            wire::try_encode_results(&results, &id_to_index),
            Err(wire::UnknownObject(4))
        );
        let kept = wire::encode_results(&results, &id_to_index);
        assert_eq!(wire::decode_results(&kept, ds.data()), results[..1]);

        let shard = Shard {
            engine: QueryEngine::new(executor(), ds),
            id_to_index: Arc::new(id_to_index),
        };
        // Object 4 is the only data object within 1.5 of feature 1.
        let err = shard.answer(&request(1, 1.5, &[0, 1]).query).unwrap_err();
        assert!(matches!(err, SpqError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("data object 4"), "{err}");
    }

    #[test]
    #[should_panic]
    fn wire_rejects_torn_buffers() {
        let _ = wire::decode_results(&[0u8; 7], paper_dataset().data());
    }

    #[test]
    fn matches_single_store_engine_for_every_shard_count() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        for shards in [1, 2, 3, 5, 8] {
            let sharded = ShardedEngine::new(executor(), paper_dataset(), shards).unwrap();
            for req in [
                request(1, 1.5, &[0]),
                request(3, 1.5, &[0]),
                request(5, 2.5, &[0, 4, 11]),
            ] {
                let expect = engine.execute(&req).unwrap();
                let got = sharded.execute(&req).unwrap();
                assert_eq!(got.results, expect.results, "shards={shards}");
            }
        }
    }

    #[test]
    fn shards_share_one_feature_array_and_one_keyword_index() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 4).unwrap();
        let first = &sharded.shards[0].0.engine;
        for (shard, _) in &sharded.shards[1..] {
            assert!(std::ptr::eq(
                first.keyword_index(),
                shard.engine.keyword_index()
            ));
            assert!(Arc::ptr_eq(
                &first.dataset().features_arc(),
                &shard.engine.dataset().features_arc()
            ));
        }
    }

    #[test]
    fn unmatched_keywords_touch_no_shard() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 3).unwrap();
        let response = sharded.execute(&request(3, 1.5, &[77])).unwrap();
        assert!(response.results.is_empty());
        assert_eq!(response.stats.shards_touched, 0);
        assert_eq!(response.stats.keyword_terms_matched, 0);
        assert_eq!(response.stats.shuffle_bytes, 0);
        assert!(sharded.shard_stats().iter().all(|s| s.queries == 0));
    }

    #[test]
    fn shard_stats_track_gather_traffic() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 2).unwrap();
        let response = sharded.execute(&request(3, 1.5, &[0])).unwrap();
        assert_eq!(response.stats.shards_touched, 2);
        assert_eq!(
            response.stats.shuffle_bytes,
            response.stats.shuffle_records * wire::RECORD_BYTES as u64
        );
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.data_objects).sum::<usize>(), 5);
        assert!(stats.iter().all(|s| s.feature_objects == 8));
        assert!(stats.iter().all(|s| s.queries == 1));
        assert_eq!(
            stats.iter().map(|s| s.bytes_shipped).sum::<u64>(),
            response.stats.shuffle_bytes
        );
        // Aggregated metrics counted the scatter: 2 shard queries + the
        // probe on shard 0.
        let metrics = sharded.metrics();
        assert_eq!(metrics.queries, 2);
        assert_eq!(metrics.keyword_probes, 1);
    }

    #[test]
    fn more_shards_than_data_objects() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 16).unwrap();
        let engine = QueryEngine::new(executor(), paper_dataset());
        let req = request(5, 1.5, &[0]);
        let got = sharded.execute(&req).unwrap();
        assert_eq!(got.results, engine.execute(&req).unwrap().results);
        // Only shards that own data are touched.
        assert_eq!(got.stats.shards_touched, 5);
    }

    #[test]
    fn serve_and_batch_match_execute() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 3).unwrap();
        let requests: Vec<QueryRequest> = (1..=4).map(|k| request(k, 1.5, &[0])).collect();
        let expect: Vec<_> = requests
            .iter()
            .map(|r| sharded.execute(r).unwrap().results)
            .collect();
        let batch = sharded.execute_batch(&requests).unwrap();
        assert_eq!(
            batch.iter().map(|r| &r.results).collect::<Vec<_>>(),
            expect.iter().collect::<Vec<_>>()
        );
        for workers in [1, 2, 8] {
            let served = sharded.serve_requests(&requests, workers).unwrap();
            let got: Vec<_> = served.into_iter().map(|r| r.results).collect();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn build_rejects_bad_configs() {
        assert!(matches!(
            ShardedEngine::new(executor(), paper_dataset(), 0),
            Err(SpqError::InvalidConfig { .. })
        ));
        let dup = SharedDataset::new(
            vec![
                DataObject::new(7, Point::new(1.0, 1.0)),
                DataObject::new(7, Point::new(2.0, 2.0)),
            ],
            vec![],
        );
        let err = ShardedEngine::new(executor(), dup, 2).unwrap_err();
        assert!(matches!(err, SpqError::InvalidConfig { .. }), "{err}");
        assert!(!err.is_retryable(), "bad datasets must not be retried");
        // The offending id is part of the message contract.
        assert!(err.to_string().contains("duplicate data object id 7"));
    }

    /// A trace is the query's one job, run over the whole store — not one
    /// job per touched shard — and equals a fresh `run_dataset` job.
    #[test]
    fn trace_carries_one_job_stats_per_touched_shard() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 2).unwrap();
        let req = request(2, 1.5, &[0]).with_trace();
        let response = sharded.execute(&req).unwrap();
        assert_eq!(response.stats.shards_touched, 2);
        let trace = response.trace.expect("trace requested");
        let fresh = executor()
            .run_dataset(&paper_dataset(), &req.query)
            .unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].shuffle_records, fresh.stats.shuffle_records);
        assert_eq!(
            trace[0].map_input_records(),
            fresh.stats.map_input_records()
        );
        assert_eq!(trace[0].counters, fresh.stats.counters);
        assert_eq!(response.results, fresh.top_k);
        // Untraced requests don't pay for it.
        assert!(sharded
            .execute(&request(2, 1.5, &[0]))
            .unwrap()
            .trace
            .is_none());
    }

    /// The job a trace runs is planned by the executor on the manager, not
    /// by a shard's `QueryEngine`: no shard engine ever plans, traced
    /// request or not.
    #[test]
    fn every_traced_request_plans_once_per_touched_shard() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 2).unwrap();
        let req = request(3, 1.5, &[0]);
        let plain = sharded.execute(&req).unwrap();
        for round in 1..=3 {
            let traced = sharded.execute(&req.clone().with_trace()).unwrap();
            assert_eq!(traced.results, plain.results);
            assert_eq!(traced.trace.map(|t| t.len()), Some(1));
            let m = sharded.metrics();
            assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0));
            // Each shard still answers every request with its kernel.
            assert_eq!(m.queries, 2 * (round + 1));
        }
    }
}
