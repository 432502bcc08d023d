//! Shard-per-node serving: scatter a query to per-shard kernels, gather
//! serialized top-k records, combine, merge.
//!
//! The paper's first contribution is re-partitioning the input so that
//! each server does part of the work; this module applies it one level
//! up, to the shape a cluster deployment would take (cf. Tornado's
//! separation of query routing from placement, PAPERS.md): the **feature
//! objects** are cut into `N` contiguous store-order slices at build time
//! (the block rule of [`SharedDataset::ref_splits`]), and each shard holds
//! only the kernel state of its slice — the slice's keyword index and
//! feature locations — beside one data side shared by every shard of the
//! process: all of `O` on the kernel's grid and the id → store-index map
//! its gather records are written with. A shard holds no feature object,
//! executor or engine.
//!
//! A query then runs the one scatter/gather of the distribution layer
//! (`Layout::scatter_gather` — [`crate::remote`] runs the same function
//! with each shard asked over a socket instead of by a call):
//!
//! 1. **probes** whether each query keyword is carried by some slice —
//!    in process by the shards' own keyword indexes, on a remote manager
//!    by one term bitmap per slice — which together cover all of `F`: if
//!    no feature carries any query keyword, no object can score and the
//!    query touches zero shards;
//! 2. **scatters** to every shard whose slice is non-empty, each ranking
//!    every data object against its own slice with the kernel
//!    (`Shard::answer`, the step a remote worker runs too) —
//!    inter-shard concurrency is the parallelism, exactly the
//!    shard-per-node serving shape. In process the shards are CPU work,
//!    run on up to [`QueryOptions::workers`] threads; a remote scatter is
//!    frame-pipelined on the calling thread instead — every shard's query
//!    frame is written before any reply is read, so every remote shard is
//!    in flight at once whatever the worker budget, and no thread is
//!    spawned for it;
//! 3. **gathers** each shard's local top-k as *serialized wire records* —
//!    [`wire::RECORD_BYTES`]-byte `(data index, score bits)` pairs, the
//!    cross-shard counterpart of the 8–16-byte handles that cross the
//!    in-process shuffle — and re-resolves them against the global store;
//! 4. **combines** the records naming one object into its best partial
//!    score and **merges** with the same [`merge_top_k`] the single-store
//!    engine uses.
//!
//! ## Why the combined merge is the canonical top-k
//!
//! An object's score `τ(p)` is a *max* over the features within `r`, so
//! over a partition of `F` it is the max of its per-slice partial scores,
//! and no partial score exceeds it. Take an object `p` of the global
//! top-k and the shard holding the feature that attains `τ(p)`: there `p`
//! scores exactly `τ(p)`, and every object ranked above it in that shard's
//! canonical order (score desc, id asc) ranks above it globally too,
//! since a partial score is a lower bound of the true one. Fewer than `k`
//! objects rank above `p` globally, so `p` is in that shard's top-k, with
//! its exact score. After the combine every global top-k object carries
//! `τ(p)`, and every other object a lower bound of a score that ranks
//! below all of them — the `k` best combined entries are exactly the
//! canonical top-k, for every radius, with no halo or radius bound. The
//! merge is **byte-identical** to the single-store engine — results,
//! scores and order (`tests/backend_equivalence.rs` proptests this across
//! shard counts, algorithms and partitionings). Keeping an object's
//! *first* partial score instead of its best would not be:
//! `prop_best_feature_in_another_slice` fails on it.
//!
//! A shard answers with the kernel only, traced request or not. A trace is
//! the paper's job for the query, and the job is cut by grid cell, not by
//! shard: a traced request runs one [`SpqExecutor::run_dataset`] job over
//! the whole global store, on the manager, at the request's worker budget,
//! beside the unchanged scatter. Its [`JobStats`] are the trace's one
//! entry, exactly as on the local backend.

use crate::engine::{bump, feature_side, probe, EngineMetrics, MetricsSnapshot};
use crate::executor::{SpqError, SpqExecutor};
use crate::kernel::{self, FeatureSide, KernelState, KernelWork};
use crate::merge::merge_top_k;
use crate::model::{DataObject, ObjectId, RankedObject};
use crate::query::SpqQuery;
use crate::service::{QueryExecutor, QueryOptions, QueryResponse, QueryStats};
use crate::store::{block, SharedDataset};
use spq_mapreduce::pool::run_tasks;
#[cfg(doc)]
use spq_mapreduce::JobStats;
use spq_spatial::{GridIndex, Rect};
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

    /// What is wrong with a shard's reply, if anything: more than `k`
    /// records, an index past the store's `objects`, one index twice, or a
    /// score no similarity takes (negative or not finite). The reply is a
    /// whole number of records.
    pub(crate) fn lie(records: &[u8], objects: usize, k: usize) -> Option<String> {
        let count = records.len() / RECORD_BYTES;
        if count > k {
            return Some(format!("{count} records for k = {k}"));
        }
        let mut indexes = Vec::with_capacity(count);
        for record in records.chunks_exact(RECORD_BYTES) {
            let (index, score) = (record_index(record), record_score(record));
            if index >= objects {
                return Some(format!(
                    "data index {index}, past the store's {objects} objects"
                ));
            }
            if !(score.is_finite() && score >= 0.0) {
                return Some(format!("score {score} for data index {index}"));
            }
            indexes.push(index);
        }
        indexes.sort_unstable();
        let twice = indexes.windows(2).find(|pair| pair[0] == pair[1]);
        twice.map(|pair| format!("data index {} twice", pair[0]))
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
    /// checked (whole records, at most `k` of them, every index inside the
    /// store and named once, every score finite and ≥ 0) before they get
    /// here.
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
/// [`unique_ids`] is the same check for a caller with no use for the map.
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

/// Refuses `data` when two of its objects share an id — the check
/// [`index_by_id`] makes, over a sorted copy of the ids instead of a map.
pub(crate) fn unique_ids(data: &[DataObject]) -> Result<(), SpqError> {
    let mut ids: Vec<ObjectId> = data.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|pair| pair[0] == pair[1]) {
        Some(pair) => Err(duplicate_id(pair[0])),
        None => Ok(()),
    }
}

/// What a scatter/gather engine answers a store whose data objects share
/// an id.
fn duplicate_id(id: ObjectId) -> SpqError {
    SpqError::invalid_config(format!(
        "duplicate data object id {id} — gather records resolve by id"
    ))
}

/// All of `O` as the shards of one process read it: bucketed on the
/// kernel's grid, and the id → global-store-index map their gather
/// records are written with. Built once per process and shared by every
/// shard in it.
#[derive(Debug, Clone)]
pub(crate) struct DataSide {
    pub grid: Arc<GridIndex<ObjectId>>,
    pub id_to_index: Arc<HashMap<ObjectId, u32>>,
}

impl DataSide {
    /// Buckets `data` on the kernel grid over `bounds`; `id_to_index`
    /// maps each of `data`'s ids to its position.
    pub(crate) fn new(
        bounds: Rect,
        data: &[DataObject],
        id_to_index: HashMap<ObjectId, u32>,
    ) -> Self {
        let items = data.iter().map(|o| (o.location, o.id));
        Self {
            grid: Arc::new(GridIndex::build(bounds, items)),
            id_to_index: Arc::new(id_to_index),
        }
    }
}

/// One shard, wherever it lives — inside a [`ShardedEngine`] or behind a
/// worker's socket ([`crate::remote::ShardHost`]): the kernel state of its
/// feature slice over the process's data side, plus the id →
/// global-store-index map its gather records are written with.
#[derive(Debug)]
pub(crate) struct Shard {
    pub kernel: KernelState,
    pub id_to_index: Arc<HashMap<ObjectId, u32>>,
}

impl Shard {
    /// A shard over `features`, ranking `data`'s objects.
    pub(crate) fn new(features: Arc<FeatureSide>, data: &DataSide) -> Self {
        Self {
            kernel: KernelState {
                features,
                grid: Arc::clone(&data.grid),
            },
            id_to_index: Arc::clone(&data.id_to_index),
        }
    }

    /// Answers `query` with the kernel over the shard's slice and
    /// serializes the local top-k as [`wire`] records.
    ///
    /// # Errors
    ///
    /// [`SpqError::InvalidConfig`] when a result is not in the shard's id
    /// map — a shard built over a grid its map does not cover.
    pub(crate) fn answer(&self, query: &SpqQuery) -> Result<(Vec<u8>, KernelWork), SpqError> {
        let answer = kernel::top_k(&self.kernel, query);
        let records = wire::try_encode_results(&answer.top_k, &self.id_to_index)
            .map_err(|e| SpqError::invalid_config(format!("shard gather: {e}")))?;
        Ok((records, answer.work))
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

/// One shard's answer to a scatter: its [`wire`] records and the recovery
/// they took.
pub(crate) type ShardOutcome = Result<(Vec<u8>, Recovery), SpqError>;

/// What both scatter/gather engines know about how the store is cut: the
/// global store the gather resolves against, the executor whose bounds
/// every shard's grid covers, and each shard's contiguous `[start, end)`
/// slice of the features.
#[derive(Debug)]
pub(crate) struct Layout {
    pub dataset: SharedDataset,
    pub exec: SpqExecutor,
    pub slices: Vec<Range<usize>>,
}

impl Layout {
    /// Cuts `dataset`'s features into `num_shards` contiguous slices (every
    /// shard ranks every data object) and builds each slice's kernel
    /// state, one task per slice, all at once; `keep` makes what the
    /// engine holds of a slice's state, on the slice's task, and the
    /// results come back in shard order. The data objects' ids are the
    /// caller's to check: an engine that builds the id → store-index map
    /// checks them as it builds it ([`index_by_id`]), one that does not
    /// calls [`unique_ids`].
    ///
    /// # Errors
    ///
    /// [`SpqError::InvalidConfig`] when `num_shards == 0`;
    /// [`SpqError::Worker`] when a slice's task panics.
    pub(crate) fn new<T: Send>(
        exec: SpqExecutor,
        dataset: SharedDataset,
        num_shards: usize,
        keep: impl Fn(FeatureSide) -> T + Sync,
    ) -> Result<(Self, Vec<T>), SpqError> {
        if num_shards == 0 {
            return Err(SpqError::invalid_config(
                "a scatter/gather backend needs at least one shard",
            ));
        }
        let features = dataset.features();
        let slices: Vec<Range<usize>> = (0..num_shards)
            .map(|s| block(s, features.len(), num_shards))
            .collect();
        let kept = run_tasks(num_shards, num_shards, |s| {
            keep(feature_side(&features[slices[s].clone()]))
        })
        .map_err(|p| SpqError::Worker {
            message: format!("building shard {}: {}", p.task_index, p.message),
        })?;
        let layout = Self {
            dataset,
            exec,
            slices,
        };
        Ok((layout, kept))
    }

    /// The one scatter/gather lifecycle (see the [module docs](self)).
    /// `keywords` is the caller's [`probe`]: with no match no
    /// object can score, and no shard is asked. Otherwise `ask` is called
    /// once with every shard whose feature slice is non-empty, ascending,
    /// and returns each one's outcome in that order — the engine decides
    /// how the shards are asked: [`ShardedEngine`] on threads, the remote
    /// engine by pipelined frames from the calling thread. Each reply is
    /// checked, resolved against the global store, combined by each
    /// object's best partial score and merged; the first failed shard, in
    /// shard order, fails the request. A traced request also runs the
    /// query's one job.
    pub(crate) fn scatter_gather(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
        keywords: (usize, usize),
        ask: impl FnOnce(&[usize]) -> Result<Vec<ShardOutcome>, SpqError>,
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
        let data = self.dataset.data();
        let mut partials = Vec::new();
        if !relevant.is_empty() {
            let outcomes = ask(&relevant)?;
            debug_assert_eq!(outcomes.len(), relevant.len());
            for (&s, outcome) in relevant.iter().zip(outcomes) {
                let (records, recovery) = outcome?;
                // The records may have come off a socket: a reply no
                // kernel writes is a lie, never resolved.
                if let Some(lie) = wire::lie(&records, data.len(), query.k) {
                    return Err(SpqError::remote(format!("shard {s} answered with {lie}")));
                }
                stats.shuffle_records += (records.len() / wire::RECORD_BYTES) as u64;
                stats.shuffle_bytes += records.len() as u64;
                stats.retries += recovery.retries;
                stats.warm_failovers += recovery.warm_failovers;
                stats.cold_reprovisions += recovery.cold_reprovisions;
                partials.extend(wire::decode_results(&records, data));
            }
        }
        let trace = self
            .exec
            .trace_job(&self.dataset, query, options)?
            .map(|job| vec![job.stats]);
        let results = merge_top_k(best_partials(partials), query.k);
        stats.wall_micros = started.elapsed().as_micros() as u64;
        Ok(QueryResponse {
            results,
            stats,
            trace,
        })
    }
}

/// Keeps, of the gathered records naming one object, the one with the
/// highest score: its best partial score over the slices, which is its
/// exact score if it belongs in the top-k (see the [module docs](self)).
fn best_partials(mut partials: Vec<RankedObject>) -> Vec<RankedObject> {
    partials.sort_unstable_by(|a, b| a.object.cmp(&b.object).then(b.score.cmp(&a.score)));
    partials.dedup_by_key(|r| r.object);
    partials
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
    /// Data objects this shard ranks: all of `O`, on every shard.
    pub data_objects: usize,
    /// Feature objects in this shard's slice of `F` (the slices are
    /// disjoint and cover `F`).
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
/// ([`execute`](QueryExecutor::execute)).
#[derive(Debug)]
pub struct ShardedEngine {
    layout: Layout,
    shards: Vec<(Shard, ShardCounters)>,
    metrics: EngineMetrics,
}

impl ShardedEngine {
    /// Cuts `dataset`'s features into `num_shards` contiguous slices and
    /// builds each shard's kernel state over its slice, one thread per
    /// slice, every shard sharing one grid over all data objects.
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
        let (layout, sides) = Layout::new(executor, dataset, num_shards, Arc::new)?;
        let ids = layout.dataset.data().iter().enumerate();
        let id_to_index = index_by_id(ids.map(|(i, o)| (o.id, i as u32))).map_err(duplicate_id)?;
        let data = DataSide::new(layout.exec.bounds(), layout.dataset.data(), id_to_index);
        let shards = sides
            .into_iter()
            .map(|side| (Shard::new(side, &data), ShardCounters::default()))
            .collect();
        Ok(Self {
            layout,
            shards,
            metrics: EngineMetrics::default(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global (unsharded) store the gather resolves against.
    pub fn dataset(&self) -> &SharedDataset {
        &self.layout.dataset
    }

    /// The executor configuration a traced request's job runs with (the
    /// shards' grids cover its bounds).
    pub fn executor(&self) -> &SpqExecutor {
        &self.layout.exec
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.layout.slices)
            .enumerate()
            .map(|(i, ((_, counters), slice))| ShardStats {
                shard: i,
                data_objects: self.layout.dataset.data().len(),
                feature_objects: slice.len(),
                queries: counters.queries.load(Ordering::Relaxed),
                records_shipped: counters.records_shipped.load(Ordering::Relaxed),
                bytes_shipped: counters.bytes_shipped.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Shard `s`'s answer to `query`, counted. The ship is a real
    /// encode/decode round-trip, so the wire format is exercised on every
    /// query.
    fn answer(&self, s: usize, query: &SpqQuery) -> ShardOutcome {
        let (shard, counters) = &self.shards[s];
        let (records, work) = shard.answer(query)?;
        self.metrics.kernel(work);
        bump(&counters.queries, 1);
        bump(
            &counters.records_shipped,
            (records.len() / wire::RECORD_BYTES) as u64,
        );
        bump(&counters.bytes_shipped, records.len() as u64);
        Ok((records, Recovery::default()))
    }
}

impl QueryExecutor for ShardedEngine {
    /// Probe the shards' keyword indexes, then `Layout::scatter_gather`
    /// with every shard asked in-process, on up to
    /// [`QueryOptions::workers`] threads (results are width-invariant).
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        let keywords = probe(&query.keywords, |t| {
            self.shards
                .iter()
                .any(|(shard, _)| shard.kernel.features.index.term_frequency(t) > 0)
        });
        self.metrics.request(keywords);
        self.layout
            .scatter_gather(query, options, keywords, |shards| {
                let width = options
                    .workers
                    .unwrap_or(self.layout.exec.cluster_config().workers)
                    .clamp(1, shards.len());
                run_tasks(width, shards.len(), |i| self.answer(shards[i], query)).map_err(|p| {
                    SpqError::Worker {
                        message: format!("shard {}: {}", shards[p.task_index], p.message),
                    }
                })
            })
    }

    /// Cumulative engine counters: one query and one keyword probe per
    /// request, and the kernel work summed over the shards.
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::brute_force;
    use crate::engine::QueryEngine;
    use crate::model::FeatureObject;
    use crate::service::QueryRequest;
    use proptest::prelude::*;
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

        let data = DataSide::new(executor().bounds(), ds.data(), id_to_index);
        let shard = Shard::new(Arc::new(feature_side(ds.features())), &data);
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

    /// The feature slices are the contiguous store-order blocks of
    /// `ref_splits`: disjoint, covering `F`, in shard order. Each shard
    /// indexes its own slice only, every shard ranks all of `O` over one
    /// shared grid and id map, and the shards' kernels together merge each
    /// candidate once — exactly the local engine's candidates.
    #[test]
    fn feature_slices_partition_f_over_one_shared_data_side() {
        let local = QueryEngine::new(executor(), paper_dataset());
        let req = request(3, 2.5, &[0, 4, 11]);
        local.execute(&req).unwrap();
        for n in 1..=10 {
            let sharded = ShardedEngine::new(executor(), paper_dataset(), n).unwrap();
            let slices = &sharded.layout.slices;
            assert_eq!(slices.len(), n);
            assert_eq!((slices[0].start, slices[n - 1].end), (0, 8));
            assert!(slices.windows(2).all(|w| w[0].end == w[1].start));
            let first = &sharded.shards[0].0;
            for ((shard, _), slice) in sharded.shards.iter().zip(slices) {
                assert_eq!(shard.kernel.features.locations.len(), slice.len());
                // Numbered by (|f.W|, store order): a stable sort by length.
                let mut numbered = paper_dataset().features()[slice.clone()].to_vec();
                numbered.sort_by_key(|f| f.keywords.len());
                let located: Vec<Point> = numbered.iter().map(|f| f.location).collect();
                assert_eq!(&shard.kernel.features.locations[..], &located[..]);
                assert!(Arc::ptr_eq(&first.kernel.grid, &shard.kernel.grid));
                assert!(Arc::ptr_eq(&first.id_to_index, &shard.id_to_index));
                assert_eq!(shard.kernel.grid.len(), 5);
            }
            sharded.execute(&req).unwrap();
            assert_eq!(
                sharded.metrics().kernel_candidates,
                local.metrics().kernel_candidates,
                "shards={n}"
            );
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
        // Every shard ranks all five data objects over its own half of
        // the eight features.
        assert!(stats.iter().all(|s| s.data_objects == 5));
        assert_eq!(
            stats.iter().map(|s| s.feature_objects).collect::<Vec<_>>(),
            [4, 4]
        );
        assert!(stats.iter().all(|s| s.queries == 1));
        assert_eq!(
            stats.iter().map(|s| s.bytes_shipped).sum::<u64>(),
            response.stats.shuffle_bytes
        );
        // The metrics count the request once, as the local engine does,
        // and sum the kernels' work: term 0 is on f1 and f4 (shard 0) and
        // f7 (shard 1), three candidates in all.
        let metrics = sharded.metrics();
        assert_eq!((metrics.queries, metrics.keyword_probes), (1, 1));
        assert_eq!(metrics.kernel_candidates, 3);
        let none = sharded.execute(&request(3, 1.5, &[77])).unwrap();
        assert_eq!(none.stats.shards_touched, 0);
        let metrics = sharded.metrics();
        assert_eq!((metrics.queries, metrics.keyword_hits), (2, 1));
        assert_eq!(metrics.kernel_candidates, 3);
    }

    #[test]
    fn more_shards_than_data_objects() {
        // Sixteen shards over five data objects and eight features: eight
        // slices are empty, and only the shards holding a feature are
        // asked.
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 16).unwrap();
        let engine = QueryEngine::new(executor(), paper_dataset());
        let req = request(5, 1.5, &[0]);
        let got = sharded.execute(&req).unwrap();
        assert_eq!(got.results, engine.execute(&req).unwrap().results);
        assert_eq!(got.stats.shards_touched, 8);
        for stats in sharded.shard_stats() {
            assert_eq!(stats.queries, stats.feature_objects as u64, "{stats:?}");
        }
        assert_eq!(
            sharded.metrics().kernel_candidates,
            engine.metrics().kernel_candidates
        );
    }

    /// A gathered object keeps its best partial score, not the first one
    /// a shard reported: object 1 sits within range of feature 0 (slice
    /// 0, score 1/3 against `{0}`) and feature 2 (slice 1, score 1), and
    /// object 2 only of feature 1 (slice 0, score 1/2). Shard 0 reports
    /// object 1 at 1/3, shard 1 at 1: only the max ranks it first.
    #[test]
    fn the_gather_keeps_each_objects_best_partial_score() {
        let dataset = SharedDataset::new(
            vec![
                DataObject::new(1, Point::new(1.0, 1.0)),
                DataObject::new(2, Point::new(8.0, 8.0)),
            ],
            vec![
                feature(10, 1.0, 1.5, &[0, 1, 2]),
                feature(11, 8.0, 8.5, &[0, 1]),
                feature(12, 1.5, 1.0, &[0]),
            ],
        );
        let local = QueryEngine::new(executor(), dataset.clone());
        let sharded = ShardedEngine::new(executor(), dataset.clone(), 2).unwrap();
        assert_eq!(sharded.layout.slices, [0..2, 2..3]);
        for k in [1, 2] {
            let req = request(k, 1.0, &[0]);
            let got = sharded.execute(&req).unwrap();
            assert_eq!(got.results, local.execute(&req).unwrap().results);
            assert_eq!(
                got.results,
                brute_force(dataset.data(), dataset.features(), &req.query)
            );
            assert_eq!(
                (got.results[0].object, got.results[0].score),
                (1, Score::ONE)
            );
        }
    }

    #[test]
    fn serve_and_batch_match_execute() {
        let sharded = ShardedEngine::new(executor(), paper_dataset(), 3).unwrap();
        let requests: Vec<QueryRequest> = (1..=4).map(|k| request(k, 1.5, &[0])).collect();
        let expect: Vec<_> = requests
            .iter()
            .map(|r| sharded.execute(r).unwrap().results)
            .collect();
        let sequential: Vec<_> = requests
            .iter()
            .map(|r| sharded.execute_sequential(r).unwrap().results)
            .collect();
        assert_eq!(sequential, expect);
        for workers in [1, 2, 8] {
            let got = run_tasks(workers, requests.len(), |i| {
                sharded.execute_sequential(&requests[i]).unwrap().results
            })
            .unwrap();
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

    /// The job a trace runs is planned by the executor on the manager; a
    /// shard holds only kernel state and never plans, traced request or
    /// not.
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
            // Every request counts once, and each shard still answers it
            // with its kernel.
            assert_eq!(m.queries, round + 1);
            assert!(sharded.shard_stats().iter().all(|s| s.queries == round + 1));
        }
    }

    /// Worlds on a coarse lattice over a three-term vocabulary, so scores
    /// tie at the k-th place and most data objects have features of
    /// different scores in range, spread over different slices.
    #[allow(clippy::type_complexity)]
    fn lattice_world() -> impl Strategy<Value = (Vec<(u8, u8)>, Vec<(u8, u8, u8)>, u8, usize, u8)> {
        (
            proptest::collection::vec((0u8..5, 0u8..5), 1..12),
            proptest::collection::vec((0u8..5, 0u8..5, 1u8..8), 1..24),
            1u8..8,
            1usize..6,
            0u8..4,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `sharded:N` == local == `brute_force` for N ∈ {1, 2, 3, 5, 8},
        /// N past |F| included, under k-boundary score ties and objects
        /// whose best feature lies in another slice than their others.
        #[test]
        fn prop_best_feature_in_another_slice(world in lattice_world()) {
            let (data, features, keywords, k, radius) = world;
            let at = |x: u8, y: u8| Point::new(2.0 * f64::from(x) + 0.5, 2.0 * f64::from(y) + 0.5);
            let bits = |mask: u8| (0..3u32).filter(move |b| mask >> b & 1 == 1);
            let dataset = SharedDataset::new(
                data.iter()
                    .enumerate()
                    .map(|(i, &(x, y))| DataObject::new(i as u64, at(x, y)))
                    .collect(),
                features
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y, mask))| {
                        FeatureObject::new(i as u64, at(x, y), KeywordSet::from_ids(bits(mask)))
                    })
                    .collect(),
            );
            let query = SpqQuery::new(
                k,
                [0.0, 2.0, 2.0 * std::f64::consts::SQRT_2, 4.0][radius as usize],
                KeywordSet::from_ids(bits(keywords)),
            );
            let expect = brute_force(dataset.data(), dataset.features(), &query);
            let req = QueryRequest::new(query);
            let local = QueryEngine::new(executor(), dataset.clone());
            prop_assert_eq!(&local.execute(&req).unwrap().results, &expect);
            for n in [1, 2, 3, 5, 8] {
                let sharded = ShardedEngine::new(executor(), dataset.clone(), n).unwrap();
                let got = sharded.execute(&req).unwrap();
                prop_assert_eq!(&got.results, &expect, "shards={}", n);
            }
        }
    }
}
