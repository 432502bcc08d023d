//! The persistent query engine: build indexes once, serve many queries.
//!
//! The paper evaluates one query per MapReduce job, and
//! [`SpqExecutor`] mirrors that lifecycle: every call re-plans the
//! partition, re-routes every object and (on the owned-input entry
//! points) re-copies the datasets. A serving system amortizes all of that
//! across the query stream. [`QueryEngine`] is that system:
//!
//! * **Build once** — construction pins the [`SharedDataset`], builds
//!   the [`KeywordIndex`] inverted index over the feature keywords and
//!   buckets the data objects, once, on one grid that does not depend on
//!   any radius ([`GridIndex`] over the executor's bounds, √|O| cells per
//!   axis, locations inline). Nothing a plain request needs is built per
//!   radius.
//! * **Serve many** — the engine speaks the typed [`QueryExecutor`]
//!   surface, and every entry point takes the **same path**
//!   (`QueryEngine::run`), which answers from that state with the direct
//!   kernel of `kernel.rs` — **no MapReduce job**: merge the query's
//!   posting lists into scored candidates (the map-side pruning rule of
//!   Algorithm 1 line 9, paid once at build time), visit them in
//!   descending score order, distance-check only the data objects of the
//!   grid cells within `r` of each candidate (Lemma 1's target set, on the
//!   build-once grid), and stop once one global top-k list is full and
//!   the next score is strictly below its `τ` — eSPQsco's early
//!   termination applied across cells instead of per reducer. The kernel
//!   is single-threaded whatever the worker budget;
//!   parallelism comes from **inter-query concurrency**
//!   ([`serve_requests`](crate::service::QueryExecutor::serve_requests),
//!   the admission queue) — the right shape for high-QPS traffic of many
//!   small queries.
//! * **A trace is the paper's job, beside the kernel** — a request with
//!   [`with_trace`](crate::service::QueryRequest::with_trace) is answered
//!   by the kernel like any other. Its trace is the [`JobStats`] of one
//!   [`SpqExecutor::run_dataset`] job over the engine's dataset, as the
//!   engine's executor configures it (its algorithm; its keyword pruning,
//!   whose absence is the shuffle ablation), at the request's worker
//!   budget ([`QueryOptions::workers`]):
//!   [`execute`](crate::service::QueryExecutor::execute) and
//!   [`execute_batch`](crate::service::QueryExecutor::execute_batch) on
//!   the executor's worker pool unless the request narrows it,
//!   [`execute_sequential`](crate::service::QueryExecutor::execute_sequential)
//!   and
//!   [`serve_requests`](crate::service::QueryExecutor::serve_requests)
//!   at budget 1, single-threaded. The sharded and remote backends trace
//!   the same way, so one rule holds on every backend: the kernel answers,
//!   and a trace is `run_dataset` at the request's width. The job pays for
//!   everything it needs and keeps nothing; it stays the paper-faithful
//!   reproduction, and an oracle the kernel does not share.
//!
//! Determinism holds throughout: for a fixed engine and query, every entry
//! point returns the same bytes — the kernel's, which equal a fresh job's
//! and [`brute_force`](crate::centralized::brute_force)'s
//! (`tests/kernel_ties.rs`, `tests/engine_reuse.rs`) — and a trace holds
//! exactly the statistics of a fresh `run_dataset` job, regardless of
//! worker counts.
//!
//! ```
//! use spq_core::{Algorithm, DataObject, FeatureObject, QueryEngine, SpqExecutor, SpqQuery};
//! use spq_core::{QueryExecutor, QueryRequest, SharedDataset};
//! use spq_spatial::{Point, Rect};
//! use spq_text::KeywordSet;
//!
//! let dataset = SharedDataset::new(
//!     vec![DataObject::new(1, Point::new(4.6, 4.8))],
//!     vec![FeatureObject::new(4, Point::new(3.8, 5.5), KeywordSet::from_ids([0]))],
//! );
//! let executor = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0))
//!     .algorithm(Algorithm::ESpqSco)
//!     .grid_size(4);
//!
//! // Build once…
//! let engine = QueryEngine::new(executor, dataset);
//!
//! // …then serve an arbitrary stream of requests against the same state.
//! let r1 = QueryRequest::new(SpqQuery::new(1, 1.5, KeywordSet::from_ids([0])));
//! let r2 = QueryRequest::new(SpqQuery::new(1, 2.5, KeywordSet::from_ids([0, 7])));
//! assert_eq!(engine.execute(&r1).unwrap().results[0].object, 1);
//!
//! let batch = engine.execute_batch(&[r1.clone(), r2.clone()]).unwrap();
//! assert_eq!(batch.len(), 2);
//!
//! let served = engine.serve_requests(&[r1.clone(), r2], 2).unwrap();
//! assert_eq!(served[0].results, batch[0].results);
//!
//! // A traced request is answered the same way; its trace is the paper's
//! // job for the query, run beside the kernel and kept by nobody.
//! let traced = engine.execute(&r1.with_trace()).unwrap();
//! assert_eq!(traced.results, served[0].results);
//! assert_eq!(traced.trace.map(|jobs| jobs.len()), Some(1));
//! assert_eq!(engine.metrics().queries, 6); // every request ran the kernel
//! ```

use crate::executor::{SpqError, SpqExecutor};
use crate::kernel;
use crate::model::{FeatureObject, ObjectId, RankedObject};
use crate::query::SpqQuery;
use crate::service::{QueryExecutor, QueryOptions, QueryResponse, QueryStats};
use crate::store::SharedDataset;
#[cfg(doc)]
use spq_mapreduce::JobStats;
use spq_spatial::GridIndex;
use spq_text::{KeywordSet, Term};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An inverted index from keyword to the feature objects carrying it.
///
/// Postings are CSR-packed (one flat, term-grouped slice of feature
/// indices plus a per-term offset table) and each term's posting list is
/// ascending, so merging a query's lists yields the candidate features in
/// store order — exactly the order the map phase would have visited them —
/// together with each candidate's `|q.W ∩ f.W|`. With the flat `|f.W|`
/// array beside the postings that is everything a score needs, so the
/// kernel scores candidates without touching a feature object.
/// This is the engine's build-once replacement for the per-query keyword
/// pruning scan: instead of testing `q.W ∩ f.W` for every feature on
/// every query, each query probes `|q.W|` posting lists.
#[derive(Debug, Clone)]
pub struct KeywordIndex {
    /// `postings[offsets[t]..offsets[t + 1]]` are the features carrying
    /// term `t`, ascending.
    offsets: Box<[usize]>,
    postings: Box<[u32]>,
    /// `|f.W|` per feature, so a score needs no feature object.
    feature_lens: Box<[u32]>,
}

impl KeywordIndex {
    /// Builds the index over a feature set (one pass to count, one pass
    /// to fill).
    pub fn build(features: &[FeatureObject]) -> Self {
        let num_terms = features
            .iter()
            .flat_map(|f| f.keywords.iter())
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0usize; num_terms + 1];
        for f in features {
            for t in f.keywords.iter() {
                offsets[t.index() + 1] += 1;
            }
        }
        for t in 0..num_terms {
            offsets[t + 1] += offsets[t];
        }
        let mut postings = vec![0u32; offsets[num_terms]];
        let mut cursor = offsets.clone();
        for (i, f) in features.iter().enumerate() {
            for t in f.keywords.iter() {
                postings[cursor[t.index()]] = i as u32;
                cursor[t.index()] += 1;
            }
        }
        Self {
            offsets: offsets.into_boxed_slice(),
            postings: postings.into_boxed_slice(),
            feature_lens: features.iter().map(|f| f.keywords.len() as u32).collect(),
        }
    }

    /// Number of distinct term slots (= highest indexed term id + 1).
    pub fn num_terms(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ascending feature indices carrying `term` (empty for terms no
    /// feature carries).
    pub fn postings(&self, term: Term) -> &[u32] {
        if term.index() + 1 >= self.offsets.len() {
            return &[];
        }
        &self.postings[self.offsets[term.index()]..self.offsets[term.index() + 1]]
    }

    /// Number of features carrying `term` (its document frequency) —
    /// zero for terms outside the indexed range.
    pub fn term_frequency(&self, term: Term) -> usize {
        self.postings(term).len()
    }

    /// The `n` most frequent terms, as `(term, frequency)` pairs sorted
    /// by frequency descending then term id ascending. This is the
    /// engine's "what is this dataset about" surface: after ingesting a
    /// real dump, callers author meaningful queries by picking from the
    /// head (frequent) or tail (selective) of this ranking instead of
    /// guessing term ids.
    pub fn top_terms(&self, n: usize) -> Vec<(Term, usize)> {
        let mut ranked: Vec<(Term, usize)> = (0..self.num_terms())
            .map(|t| (Term(t as u32), self.offsets[t + 1] - self.offsets[t]))
            .filter(|&(_, count)| count > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// The features sharing at least one keyword with `keywords` —
    /// exactly the set the map-side pruning rule of Algorithm 1 line 9
    /// would keep — ascending and deduplicated.
    pub fn candidates(&self, keywords: &KeywordSet) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        self.for_each_match(keywords, |feature, _| out.push(feature));
        out
    }

    /// Merges the posting lists of `keywords`, calling
    /// `emit(feature, |keywords ∩ f.W|)` once per feature sharing at least
    /// one keyword, in ascending feature order. A [`KeywordSet`] holds
    /// each term once, so the number of lists a feature heads is exactly
    /// its intersection size.
    // Inline: the serving kernel's per-query merge. Without the hint,
    // whether it is inlined into `kernel::top_k` depends on how rustc
    // splits this crate into codegen units, which any edit can move.
    #[inline]
    pub(crate) fn for_each_match(&self, keywords: &KeywordSet, mut emit: impl FnMut(u32, usize)) {
        let mut lists: Vec<&[u32]> = keywords.iter().map(|t| self.postings(t)).collect();
        while let Some(next) = lists.iter().filter_map(|l| l.first().copied()).min() {
            let mut inter = 0;
            for list in &mut lists {
                if list.first() == Some(&next) {
                    inter += 1;
                    *list = &list[1..];
                }
            }
            emit(next, inter);
        }
    }

    /// `|f.W|` of feature `i`.
    #[inline]
    pub(crate) fn feature_len(&self, i: u32) -> usize {
        self.feature_lens[i as usize] as usize
    }
}

/// Aggregate statistics of the dataset an engine serves — the surface a
/// caller needs to author queries against a freshly ingested dump whose
/// vocabulary and density it has never seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Data objects `|O|`.
    pub data_objects: usize,
    /// Feature objects `|F|`.
    pub feature_objects: usize,
    /// Term-id slots in the keyword index (highest indexed id + 1).
    pub term_slots: usize,
    /// Terms carried by at least one feature (≤ `term_slots`).
    pub distinct_terms: usize,
    /// Total keyword occurrences across all features.
    pub total_keywords: u64,
    /// Mean keywords per feature (0 for a feature-less dataset).
    pub mean_keywords: f64,
    /// Length of the longest posting list (0 if no keywords).
    pub max_posting: usize,
}

/// Cumulative engine counters (atomics — the engine is `Sync` and these
/// are bumped from concurrent serve workers).
#[derive(Debug, Default)]
struct EngineMetrics {
    queries: AtomicU64,
    keyword_probes: AtomicU64,
    keyword_hits: AtomicU64,
    kernel_candidates: AtomicU64,
    kernel_visited: AtomicU64,
    kernel_distance_checks: AtomicU64,
}

/// A point-in-time snapshot of an engine's cumulative counters — the
/// observability surface behind the ROADMAP's "engine observability"
/// item. Counters only ever grow — except
/// [`excluded_workers`](MetricsSnapshot::excluded_workers), which is a
/// gauge that falls back to zero as workers are re-admitted; diff the
/// others across two snapshots for a rate.
///
/// The remote fields are zero for the in-process backends; the remote
/// backend fills them from its membership layer (see
/// [`crate::remote::RemoteEngine::metrics`]) and leaves the engine-side
/// kernel counters at zero — those live in its workers' engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries executed through any entry point.
    pub queries: u64,
    /// Always 0: no engine caches a plan. Kept, with
    /// [`plan_cache_misses`](Self::plan_cache_misses), while the benchmark
    /// harness still reads a plan-cache hit rate.
    pub plan_cache_hits: u64,
    /// Always 0: no engine plans a partition. The kernel reads its
    /// build-once grid, and a trace's job plans its own partition inside
    /// [`SpqExecutor::run_dataset`], outside any engine. Kept, with
    /// [`plan_cache_hits`](Self::plan_cache_hits), while the benchmark
    /// harness still reads it.
    pub plan_cache_misses: u64,
    /// Query keywords probed against the inverted keyword index.
    pub keyword_probes: u64,
    /// Probed keywords that hit a non-empty posting list.
    pub keyword_hits: u64,
    /// Candidate features the serving kernel sorted into score classes
    /// (features sharing a keyword with the query), over all
    /// kernel-answered queries. The kernel scores one
    /// `(|q.W ∩ f.W|, |f.W|)` class at a time, not each candidate.
    pub kernel_candidates: u64,
    /// Of those, candidates the kernel visited — scanned the target cells
    /// of — before its global-τ stop, which it tests once per class.
    pub kernel_visited: u64,
    /// `d(p, f) <= r` evaluations the kernel made.
    pub kernel_distance_checks: u64,
    /// Shard re-dispatches after remote worker failures.
    pub remote_retries: u64,
    /// Remote workers currently out of rotation (a gauge, not a
    /// counter).
    pub excluded_workers: u64,
    /// Remote failovers served by flipping the shard's placement pointer
    /// to a warm replica (no provision round-trip).
    pub warm_failovers: u64,
    /// Remote failovers that re-shipped the shard's provision payload to
    /// a survivor.
    pub cold_reprovisions: u64,
    /// Remote workers re-admitted after probe hysteresis.
    pub readmissions: u64,
    /// Health probes the remote membership tick sent to excluded workers.
    pub health_probes: u64,
    /// Provision round-trips the remote rebalancer performed.
    pub rebalance_moves: u64,
    /// Shard installs attempted on remote workers (build, cold failover
    /// and rebalancing combined) — the counter that proves a warm
    /// failover shipped no data.
    pub provisions_sent: u64,
    /// Feature-set shipments to remote workers (all chunks of the set to
    /// one worker count once): one per worker at build, one more whenever
    /// an install finds a worker that does not hold the set — a restarted
    /// process, or one admitted later.
    pub feature_sets_sent: u64,
}

impl MetricsSnapshot {
    /// Every field, in declaration order. The destructuring is exhaustive
    /// on purpose: a counter added to the struct does not compile until
    /// it is listed here, so [`merged`](Self::merged) cannot drop it.
    pub(crate) fn fields_mut(&mut self) -> [&mut u64; 17] {
        let MetricsSnapshot {
            queries,
            plan_cache_hits,
            plan_cache_misses,
            keyword_probes,
            keyword_hits,
            kernel_candidates,
            kernel_visited,
            kernel_distance_checks,
            remote_retries,
            excluded_workers,
            warm_failovers,
            cold_reprovisions,
            readmissions,
            health_probes,
            rebalance_moves,
            provisions_sent,
            feature_sets_sent,
        } = self;
        [
            queries,
            plan_cache_hits,
            plan_cache_misses,
            keyword_probes,
            keyword_hits,
            kernel_candidates,
            kernel_visited,
            kernel_distance_checks,
            remote_retries,
            excluded_workers,
            warm_failovers,
            cold_reprovisions,
            readmissions,
            health_probes,
            rebalance_moves,
            provisions_sent,
            feature_sets_sent,
        ]
    }

    /// Merges two snapshots field by field (used by the sharded engine to
    /// aggregate its per-shard engines).
    pub fn merged(mut self, mut other: MetricsSnapshot) -> MetricsSnapshot {
        for (mine, theirs) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
        self
    }
}

/// A long-lived SPQ serving engine over one dataset.
///
/// See the [module docs](self) for the lifecycle. Construction builds
/// the keyword index (one pass over the feature keywords) and the data
/// grid (a counting sort of the data objects by cell); a request of any
/// radius reads only those, and a traced request's job is a fresh
/// [`SpqExecutor::run_dataset`] beside them.
///
/// The engine is `Sync`:
/// [`serve_requests`](crate::service::QueryExecutor::serve_requests)
/// shares it across the worker pool, and external callers may do the
/// same.
#[derive(Debug)]
pub struct QueryEngine {
    exec: SpqExecutor,
    dataset: SharedDataset,
    /// Behind an `Arc` because engines over slices of one dataset (the
    /// shards of a sharded engine, the shards a worker hosts) see the same
    /// broadcast feature array and share one index over it.
    keyword_index: Arc<KeywordIndex>,
    /// The data objects bucketed on one radius-independent grid — all the
    /// geometry the kernel reads.
    grid: GridIndex<ObjectId>,
    metrics: EngineMetrics,
}

impl QueryEngine {
    /// Builds an engine over `dataset`. `executor` supplies the full
    /// query configuration (bounds, algorithm, grid sizing, load
    /// balancing, pruning, cluster).
    pub fn new(executor: SpqExecutor, dataset: SharedDataset) -> Self {
        let keyword_index = Arc::new(KeywordIndex::build(dataset.features()));
        Self::with_shared_index(executor, dataset, keyword_index)
    }

    /// [`new`](Self::new) over an index some other engine already built
    /// for the **same feature array** — `N` shard engines then cost one
    /// index build and one index's memory instead of `N`.
    pub(crate) fn with_shared_index(
        executor: SpqExecutor,
        dataset: SharedDataset,
        keyword_index: Arc<KeywordIndex>,
    ) -> Self {
        debug_assert_eq!(
            keyword_index.feature_lens.len(),
            dataset.features().len(),
            "a shared keyword index must cover the dataset's feature array"
        );
        let data = dataset.data().iter().map(|o| (o.location, o.id));
        Self {
            grid: GridIndex::build(executor.bounds(), data),
            exec: executor,
            dataset,
            keyword_index,
            metrics: EngineMetrics::default(),
        }
    }

    /// Builds an engine directly over ingested object vectors (e.g. the
    /// `spq-data` TSV loader's output) — the loaded-dump counterpart of
    /// [`new`](Self::new), wrapping the vectors into the engine's
    /// [`SharedDataset`] without an intermediate copy. Pair it with
    /// [`dataset_stats`](Self::dataset_stats) and
    /// [`KeywordIndex::top_terms`] to author queries against the real
    /// vocabulary.
    pub fn from_ingested(
        executor: SpqExecutor,
        data: Vec<crate::model::DataObject>,
        features: Vec<FeatureObject>,
    ) -> Self {
        Self::new(executor, SharedDataset::new(data, features))
    }

    /// The shared dataset the engine serves.
    pub fn dataset(&self) -> &SharedDataset {
        &self.dataset
    }

    /// Aggregate statistics of the served dataset, computed from the
    /// build-once keyword index (no extra pass over the features).
    pub fn dataset_stats(&self) -> DatasetStats {
        let idx = &self.keyword_index;
        let total_keywords = idx.postings.len() as u64;
        let distinct_terms = (0..idx.num_terms())
            .filter(|&t| idx.offsets[t + 1] > idx.offsets[t])
            .count();
        let max_posting = (0..idx.num_terms())
            .map(|t| idx.offsets[t + 1] - idx.offsets[t])
            .max()
            .unwrap_or(0);
        let feature_objects = self.dataset.features().len();
        DatasetStats {
            data_objects: self.dataset.data().len(),
            feature_objects,
            term_slots: idx.num_terms(),
            distinct_terms,
            total_keywords,
            mean_keywords: if feature_objects == 0 {
                0.0
            } else {
                total_keywords as f64 / feature_objects as f64
            },
            max_posting,
        }
    }

    /// The executor configuration the engine was built from.
    pub fn executor(&self) -> &SpqExecutor {
        &self.exec
    }

    /// The build-once inverted keyword index.
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword_index
    }

    /// The one engine path (see the [module docs](self)): every local
    /// request, traced or not, every sharded scatter and every remote
    /// worker query is answered here, by the [kernel](crate::kernel) over
    /// the build-once grid, and its work is counted.
    pub(crate) fn run(&self, query: &SpqQuery) -> Vec<RankedObject> {
        let answer = kernel::top_k(&self.dataset, &self.keyword_index, &self.grid, query);
        let m = &self.metrics;
        m.queries.fetch_add(1, Ordering::Relaxed);
        m.kernel_candidates
            .fetch_add(answer.candidates, Ordering::Relaxed);
        m.kernel_visited
            .fetch_add(answer.visited, Ordering::Relaxed);
        m.kernel_distance_checks
            .fetch_add(answer.distance_checks, Ordering::Relaxed);
        answer.top_k
    }

    /// Probes each query keyword against the build-once keyword index,
    /// returning `(terms probed, terms matched)` and bumping the
    /// cumulative metrics. `matched == 0` proves the query cannot score
    /// any object.
    pub(crate) fn keyword_stats(&self, keywords: &KeywordSet) -> (usize, usize) {
        let probed = keywords.len();
        let matched = keywords
            .iter()
            .filter(|&t| self.keyword_index.term_frequency(t) > 0)
            .count();
        self.metrics
            .keyword_probes
            .fetch_add(probed as u64, Ordering::Relaxed);
        self.metrics
            .keyword_hits
            .fetch_add(matched as u64, Ordering::Relaxed);
        (probed, matched)
    }

    /// A snapshot of the engine's cumulative counters: queries served,
    /// keyword-index probe outcomes, kernel work.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.metrics.queries.load(Ordering::Relaxed),
            keyword_probes: self.metrics.keyword_probes.load(Ordering::Relaxed),
            keyword_hits: self.metrics.keyword_hits.load(Ordering::Relaxed),
            kernel_candidates: self.metrics.kernel_candidates.load(Ordering::Relaxed),
            kernel_visited: self.metrics.kernel_visited.load(Ordering::Relaxed),
            kernel_distance_checks: self.metrics.kernel_distance_checks.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        }
    }
}

impl QueryExecutor for QueryEngine {
    /// The single-store request lifecycle: probe the keyword index →
    /// answer with the one engine path → run the trace's job, if asked
    /// for, at the options' worker budget → wrap stats. Validation already
    /// happened on the trait's entry points.
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        let started = Instant::now();
        let (probed, matched) = self.keyword_stats(&query.keywords);
        let results = self.run(query);
        let job = self.exec.trace_job(&self.dataset, query, options)?;
        let stats = QueryStats {
            algorithm: self.exec.algorithm_choice(),
            shards_touched: 1,
            shuffle_records: job.as_ref().map_or(0, |job| job.stats.shuffle_records),
            shuffle_bytes: job.as_ref().map_or(0, |job| job.shuffle_bytes),
            wall_micros: started.elapsed().as_micros() as u64,
            keyword_terms_probed: probed,
            keyword_terms_matched: matched,
            retries: 0,
            warm_failovers: 0,
            cold_reprovisions: 0,
        };
        Ok(QueryResponse {
            results,
            stats,
            trace: job.map(|job| vec![job.stats]),
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        QueryEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algorithm;
    use crate::centralized::brute_force;
    use crate::executor::LoadBalancing;
    use crate::model::DataObject;
    use crate::partitioning::COUNTER_REDUCE_DISTANCE_CHECKS;
    use crate::service::QueryRequest;
    use spq_mapreduce::JobStats;
    use spq_spatial::{Point, Rect};

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

    /// The single traced job of a local response.
    fn traced_job(response: &QueryResponse) -> &JobStats {
        &response.trace.as_ref().expect("trace requested")[0]
    }

    #[test]
    fn keyword_index_posting_lists() {
        let ds = paper_dataset();
        let idx = KeywordIndex::build(ds.features());
        assert_eq!(idx.num_terms(), 12);
        // Term 0 appears on features f1, f4, f7 (indices 0, 3, 6).
        assert_eq!(idx.postings(Term(0)), &[0, 3, 6]);
        assert_eq!(idx.postings(Term(11)), &[7]);
        assert_eq!(idx.postings(Term(999)), &[] as &[u32]);
        assert_eq!(
            idx.candidates(&KeywordSet::from_ids([0, 11, 500])),
            vec![0, 3, 6, 7]
        );
        assert!(idx.candidates(&KeywordSet::from_ids([77])).is_empty());
    }

    #[test]
    fn term_frequencies_and_top_terms() {
        let ds = paper_dataset();
        let idx = KeywordIndex::build(ds.features());
        assert_eq!(idx.term_frequency(Term(0)), 3);
        assert_eq!(idx.term_frequency(Term(11)), 1);
        assert_eq!(idx.term_frequency(Term(999)), 0);
        let top = idx.top_terms(3);
        // Term 0 is on three features; every other term on exactly one,
        // so the remainder ranks by id.
        assert_eq!(top, vec![(Term(0), 3), (Term(1), 1), (Term(2), 1)]);
        assert_eq!(idx.top_terms(100).len(), 12);
        assert!(KeywordIndex::build(&[]).top_terms(5).is_empty());
    }

    #[test]
    fn from_ingested_and_dataset_stats() {
        let ds = paper_dataset();
        let engine =
            QueryEngine::from_ingested(executor(), ds.data().to_vec(), ds.features().to_vec());
        let stats = engine.dataset_stats();
        assert_eq!(stats.data_objects, 5);
        assert_eq!(stats.feature_objects, 8);
        assert_eq!(stats.term_slots, 12);
        assert_eq!(stats.distinct_terms, 12);
        assert_eq!(stats.total_keywords, 14);
        assert!((stats.mean_keywords - 14.0 / 8.0).abs() < 1e-12);
        assert_eq!(stats.max_posting, 3);
        // Same bytes as an engine built the usual way.
        let req = request(2, 1.5, &[0]);
        let other = QueryEngine::new(executor(), ds);
        assert_eq!(
            engine.execute(&req).unwrap().results,
            other.execute(&req).unwrap().results
        );
    }

    #[test]
    fn stats_on_empty_dataset() {
        let engine = QueryEngine::from_ingested(executor(), vec![], vec![]);
        let stats = engine.dataset_stats();
        assert_eq!(stats.feature_objects, 0);
        assert_eq!(stats.mean_keywords, 0.0);
        assert_eq!(stats.max_posting, 0);
    }

    #[test]
    fn keyword_index_on_empty_features() {
        let idx = KeywordIndex::build(&[]);
        assert_eq!(idx.num_terms(), 0);
        assert!(idx.candidates(&KeywordSet::from_ids([0])).is_empty());
    }

    #[test]
    fn engine_matches_fresh_executor_job() {
        let exec = executor();
        let dataset = paper_dataset();
        let engine = QueryEngine::new(exec.clone(), dataset.clone());
        let mut candidates = 0;
        for (k, r, kw) in [(1, 1.5, vec![0]), (3, 1.5, vec![0]), (2, 2.5, vec![0, 4])] {
            let req = request(k, r, &kw).with_trace();
            let fresh = exec.run_dataset(&dataset, &req.query).unwrap();
            let served = engine.execute(&req).unwrap();
            let job = traced_job(&served);
            assert_eq!(served.results, fresh.top_k);
            // The trace is the fresh job, input side included: the map
            // reads every data object and every feature.
            assert_eq!(job.counters, fresh.stats.counters);
            assert_eq!(job.shuffle_records, fresh.stats.shuffle_records);
            assert_eq!(job.map_input_records(), fresh.stats.map_input_records());
            assert_eq!(job.map_input_records(), dataset.total() as u64);
            // Replays are stable.
            assert_eq!(engine.execute(&req).unwrap().results, served.results);
            candidates += 2 * engine.keyword_index().candidates(&req.query.keywords).len();
        }
        // The kernel answered every traced request, and nothing planned.
        let m = engine.metrics();
        assert_eq!((m.queries, m.kernel_candidates), (6, candidates as u64));
        assert_eq!(m.plan_cache_misses, 0);
    }

    #[test]
    fn traced_job_puts_each_candidate_in_its_block() {
        // 40 features over 8 splits, one in five not a candidate. The
        // candidates' scores rise with their store index, so a pSPQ
        // reducer that reads them in store order raises τ at every
        // feature and checks distance for each; a split layout that
        // reorders them (e.g. index % 8) raises τ early and skips some.
        let data = vec![DataObject::new(1, Point::new(1.0, 1.0))];
        let features: Vec<FeatureObject> = (0..40u32)
            .map(|i| {
                let kw: Vec<u32> = if i % 5 == 4 {
                    vec![9]
                } else {
                    (0..=i / 10).collect()
                };
                feature(i.into(), 1.0 + 0.01 * f64::from(i), 1.2, &kw)
            })
            .collect();
        let dataset = SharedDataset::new(data, features);
        let req = request(1, 1.0, &[0, 1, 2, 3]).with_trace();
        for algo in Algorithm::ALL {
            let exec = executor().algorithm(algo);
            let engine = QueryEngine::new(exec.clone(), dataset.clone());
            let fresh = exec.run_dataset(&dataset, &req.query).unwrap();
            let served = engine.execute(&req).unwrap();
            let job = traced_job(&served);
            assert_eq!(served.results, fresh.top_k, "{algo:?}");
            assert_eq!(job.counters, fresh.stats.counters, "{algo:?}");
            if algo == Algorithm::PSpq {
                assert_eq!(job.counters.get(COUNTER_REDUCE_DISTANCE_CHECKS), 32);
            }
        }
    }

    #[test]
    fn batch_matches_single_requests() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let requests = [
            request(1, 1.5, &[0]),
            request(3, 1.5, &[0]),
            request(2, 2.0, &[4, 5]),
        ];
        let batch = engine.execute_batch(&requests).unwrap();
        for (req, b) in requests.iter().zip(&batch) {
            assert_eq!(b.results, engine.execute(req).unwrap().results);
        }
    }

    #[test]
    fn serve_preserves_request_order_for_any_worker_count() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let requests: Vec<QueryRequest> = (1..=5).map(|k| request(k, 1.5, &[0])).collect();
        let sequential: Vec<_> = requests
            .iter()
            .map(|r| engine.execute(r).unwrap().results)
            .collect();
        for workers in [1, 2, 8] {
            let served = engine.serve_requests(&requests, workers).unwrap();
            let got: Vec<_> = served.into_iter().map(|r| r.results).collect();
            assert_eq!(got, sequential, "workers={workers}");
        }
    }

    #[test]
    fn without_pruning_the_job_maps_over_full_splits() {
        let exec = executor().keyword_pruning(false);
        let dataset = paper_dataset();
        let engine = QueryEngine::new(exec.clone(), dataset.clone());
        let req = request(3, 1.5, &[0]);
        let fresh = exec.run_dataset(&dataset, &req.query).unwrap();
        let traced = req.clone().with_trace();
        for served in [
            engine.execute(&traced).unwrap(),
            engine.execute_sequential(&traced).unwrap(),
        ] {
            let job = traced_job(&served);
            assert_eq!(served.results, fresh.top_k);
            assert_eq!(job.counters, fresh.stats.counters);
            assert_eq!(job.map_input_records(), fresh.stats.map_input_records());
        }
        // Pruning steers only the job: both traced requests and a plain
        // one are the kernel's, and only the plain one has no shuffle and
        // no trace.
        assert_eq!(engine.metrics().kernel_candidates, 6);
        let plain = engine.execute(&req).unwrap();
        assert_eq!(plain.results, fresh.top_k);
        assert_eq!(plain.stats.shuffle_records, 0);
        assert!(plain.trace.is_none());
        assert_eq!(engine.metrics().kernel_candidates, 9);
    }

    #[test]
    fn plan_cache_is_bounded() {
        // The engine keeps no plans, so an adversarial stream of distinct
        // traced radii cannot grow it: no request plans anything in the
        // engine, nothing is ever a hit, and neither the traced answer nor
        // the radius in use between insertions drifts from its answer.
        let engine = QueryEngine::new(executor(), paper_dataset());
        let hot = request(1, 1.5, &[0]).with_trace();
        let expect = engine.execute(&hot).unwrap().results;
        let distinct = 84;
        for i in 0..distinct {
            let r = 1.0 + i as f64 * 1e-3;
            let job = engine.execute(&request(1, r, &[0]).with_trace()).unwrap();
            let plain = engine.execute(&request(1, r, &[0])).unwrap();
            assert_eq!(job.results, plain.results, "radius {r}");
            assert_eq!(engine.execute(&hot).unwrap().results, expect, "at {i}");
        }
        let m = engine.metrics();
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0));
        assert_eq!(m.queries, 1 + 3 * distinct);
    }

    #[test]
    fn plain_requests_plan_nothing_at_any_radius() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        for i in 0..1_000 {
            let r = 0.5 + i as f64 * 2e-3;
            let served = engine.execute(&request(3, r, &[0, 4])).unwrap();
            assert!(served.trace.is_none(), "radius {r} ran a job");
        }
        let m = engine.metrics();
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0));
        // A trace's job plans its radius inside `run_dataset`, every
        // time, and the engine counts no plan for it either.
        let traced = request(3, 1.5, &[0, 4]).with_trace();
        let job = engine.execute(&traced).unwrap();
        assert_eq!(job.results, engine.execute(&traced).unwrap().results);
        let m = engine.metrics();
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0));
    }

    #[test]
    fn adaptive_auto_sized_engine_answers_plainly_without_a_plan() {
        let dataset = paper_dataset();
        let exec = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0))
            .auto_grid(16)
            .load_balancing(LoadBalancing::AdaptiveQuadtree { sample_size: 4 });
        let engine = QueryEngine::new(exec, dataset.clone());
        for (k, r, kw) in [
            (1, 1.5, vec![0]),
            (3, 2.5, vec![0, 4]),
            (5, 9.0, vec![0, 6, 11]),
        ] {
            let req = request(k, r, &kw);
            let expect = brute_force(dataset.data(), dataset.features(), &req.query);
            assert_eq!(
                engine.execute(&req).unwrap().results,
                expect,
                "{}",
                req.query
            );
        }
        assert_eq!(engine.metrics().plan_cache_misses, 0);
    }

    #[test]
    fn unmatched_keywords_answer_empty_without_scoring() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let response = engine.execute(&request(3, 1.5, &[77])).unwrap();
        assert!(response.results.is_empty());
        assert_eq!(response.stats.keyword_terms_matched, 0);
        // The local engine always reports itself as the one shard.
        assert_eq!(response.stats.shards_touched, 1);
        assert_eq!(response.stats.shuffle_records, 0);
        let m = engine.metrics();
        assert_eq!(
            (
                m.queries,
                m.kernel_candidates,
                m.kernel_visited,
                m.kernel_distance_checks
            ),
            (1, 0, 0, 0)
        );
    }

    #[test]
    fn kernel_counters_accumulate_only_on_kernel_requests() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let req = request(1, 1.5, &[0]);
        // A traced request buys a job beside the kernel: the job's work is
        // in its trace, the kernel's in the counters. Term 0 is on f1, f4,
        // f7; f4 scores 1 and fills k = 1, so the two 0.5-scoring
        // candidates are never visited.
        let job = engine.execute(&req.clone().with_trace()).unwrap();
        assert!(job.stats.shuffle_records > 0);
        let m = engine.metrics();
        assert_eq!((m.kernel_candidates, m.kernel_visited), (3, 1));
        assert!(m.kernel_distance_checks > 0);
        // A plain request does the same kernel work and no job.
        let served = engine.execute(&req).unwrap();
        assert_eq!(served.results, job.results);
        let twice = engine.metrics();
        assert_eq!((twice.kernel_candidates, twice.kernel_visited), (6, 2));
        assert_eq!(twice.kernel_distance_checks, 2 * m.kernel_distance_checks);
        let merged = twice.merged(m);
        assert_eq!((merged.kernel_candidates, merged.kernel_visited), (9, 3));
    }
}
