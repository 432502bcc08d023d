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
//!   parallelism comes from **inter-query concurrency** (callers running
//!   [`execute`](crate::service::QueryExecutor::execute) on their own
//!   threads, or the admission queue) — the right shape for high-QPS
//!   traffic of many small queries.
//! * **A trace is the paper's job, beside the kernel** — a request with
//!   [`with_trace`](crate::service::QueryRequest::with_trace) is answered
//!   by the kernel like any other. Its trace is the [`JobStats`] of one
//!   [`SpqExecutor::run_dataset`] job over the engine's dataset, as the
//!   engine's executor configures it (its algorithm; its keyword pruning,
//!   whose absence is the shuffle ablation), at the request's worker
//!   budget ([`QueryOptions::workers`]):
//!   [`execute`](crate::service::QueryExecutor::execute) on the
//!   executor's worker pool unless the request narrows it,
//!   [`execute_sequential`](crate::service::QueryExecutor::execute_sequential)
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
//! let answers: Vec<_> = [&r1, &r2]
//!     .into_iter()
//!     .map(|request| engine.execute(request).unwrap())
//!     .collect();
//! assert_eq!(answers[0].results[0].object, 1);
//!
//! // Budget 1 runs the same path single-threaded: the same bytes.
//! let sequential = engine.execute_sequential(&r1).unwrap();
//! assert_eq!(sequential.results, answers[0].results);
//!
//! // A traced request is answered the same way; its trace is the paper's
//! // job for the query, run beside the kernel and kept by nobody.
//! let traced = engine.execute(&r1.with_trace()).unwrap();
//! assert_eq!(traced.results, answers[0].results);
//! assert_eq!(traced.trace.map(|jobs| jobs.len()), Some(1));
//! assert_eq!(engine.metrics().queries, 4); // every request ran the kernel
//! ```

use crate::executor::{SpqError, SpqExecutor};
use crate::kernel::{self, FeatureSide, KernelState, KernelWork};
use crate::model::{FeatureObject, RankedObject};
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
/// The index numbers its features by `(|f.W|, store order)`: feature `k`
/// of the index is the `k`-th shortest, ties kept in store order (the
/// length order of eSPQlen, §5.1). A run table holds one `(first
/// feature, |f.W|)` entry per distinct length, so a feature's length is
/// the run it falls in and every range of equal length is one run.
/// Postings are CSR-packed (one flat, term-grouped slice of feature
/// numbers plus a per-term offset table) and each term's posting list is
/// ascending, so merging a query's lists yields the candidate features by
/// ascending length, in store order within a length, together with each
/// candidate's `|q.W ∩ f.W|` — everything a score needs, without touching
/// a feature object.
/// This is the engine's build-once replacement for the per-query keyword
/// pruning scan: instead of testing `q.W ∩ f.W` for every feature on
/// every query, each query probes `|q.W|` posting lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordIndex {
    /// `postings[offsets[t]..offsets[t + 1]]` are the features carrying
    /// term `t`, ascending.
    offsets: Box<[usize]>,
    postings: Box<[u32]>,
    /// `[first feature, |f.W|]` per distinct length, both strictly
    /// ascending: a run lasts until the next one's first feature, the
    /// last one until `num_features`.
    runs: Box<[[u32; 2]]>,
    num_features: u32,
}

impl KeywordIndex {
    /// Builds the index over a feature set, numbering the features by
    /// `(|f.W|, store order)` (see the [type docs](Self)).
    pub fn build(features: &[FeatureObject]) -> Self {
        Self::numbered(features).0
    }

    /// [`build`](Self::build), returning beside the index its numbering:
    /// feature `k` of the index is `features[order[k]]`. One pass finds
    /// the term and length ranges and one counts terms and lengths, both
    /// in store order; the stable counting sort by length is O(|F|); one
    /// pass in index order fills the postings.
    pub(crate) fn numbered(features: &[FeatureObject]) -> (Self, Vec<u32>) {
        let lists = features.iter().map(|f| f.keywords.terms());
        let (num_terms, max_len) = lists.clone().fold((0, 0), |(terms, len), list| {
            let last = list.last().map_or(0, |t| t.index() + 1);
            (terms.max(last), len.max(list.len()))
        });
        let mut offsets = vec![0usize; num_terms + 1];
        // `starts[l + 1]` counts the features of length `l`, then
        // `starts[l]` becomes the first number of that length.
        let mut starts = vec![0u32; max_len + 2];
        for terms in lists.clone() {
            for t in terms {
                offsets[t.index() + 1] += 1;
            }
            starts[terms.len() + 1] += 1;
        }
        for t in 0..num_terms {
            offsets[t + 1] += offsets[t];
        }
        for l in 0..=max_len {
            starts[l + 1] += starts[l];
        }
        let runs = (0..=max_len)
            .filter(|&l| starts[l + 1] > starts[l])
            .map(|l| [starts[l], l as u32])
            .collect();
        // Each feature's keywords in index order, so that the fill reads
        // no feature object out of store order.
        let (mut order, mut sorted) = (vec![0u32; features.len()], vec![&[][..]; features.len()]);
        for (i, terms) in lists.enumerate() {
            let k = starts[terms.len()] as usize;
            (order[k], sorted[k]) = (i as u32, terms);
            starts[terms.len()] += 1;
        }
        let mut postings = vec![0u32; offsets[num_terms]];
        let mut cursor = offsets.clone();
        for (k, terms) in sorted.into_iter().enumerate() {
            for t in terms {
                postings[cursor[t.index()]] = k as u32;
                cursor[t.index()] += 1;
            }
        }
        let index = Self {
            offsets: offsets.into_boxed_slice(),
            postings: postings.into_boxed_slice(),
            runs,
            num_features: features.len() as u32,
        };
        (index, order)
    }

    /// An index of `num_features` features from its columns as
    /// [`columns`](Self::columns) returns them, checked to be one
    /// [`build`](Self::build) can make: the offsets run from 0 to the
    /// postings length without decreasing, each term's postings strictly
    /// increase (the kernel's merge relies on it) and name a feature
    /// below `num_features`; the runs are whole `[first feature, |f.W|]`
    /// pairs whose first features strictly increase from 0 (no run when
    /// there is no feature) and stay below `num_features`, whose lengths
    /// strictly increase, and each feature's number of postings is its
    /// run's length. The columns are kept as they are; only a per-feature
    /// count is allocated while they are checked.
    pub(crate) fn from_columns(
        offsets: Vec<usize>,
        postings: Vec<u32>,
        runs: Vec<u32>,
        num_features: usize,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) || offsets.last() != Some(&postings.len()) {
            return Err("the term offsets do not run from 0 to the postings length".to_owned());
        }
        let (runs, []) = runs.as_chunks::<2>() else {
            return Err("the runs are not (first feature, length) pairs".to_owned());
        };
        // Each run's first feature, then the feature count: strictly
        // increasing from 0 when the runs cut the features into ranges.
        let mut bounds: Vec<usize> = runs.iter().map(|run| run[0] as usize).collect();
        bounds.push(num_features);
        let lengths_rise = runs.is_sorted_by(|a, b| a[1] < b[1]);
        if bounds[0] != 0 || !bounds.is_sorted_by(|a, b| a < b) || !lengths_rise {
            return Err("the runs do not cut the features from 0 by rising length".to_owned());
        }
        let mut counts = vec![0u32; num_features];
        for (t, range) in offsets.windows(2).enumerate() {
            // `None` when the offsets decrease here or pass the postings.
            let Some(list) = postings.get(range[0]..range[1]) else {
                return Err(format!("term {t}'s offsets decrease"));
            };
            if !list.is_sorted_by(|a, b| a < b) {
                return Err(format!("term {t}'s postings do not strictly increase"));
            }
            if let Some(&last) = list.last().filter(|&&f| f as usize >= num_features) {
                return Err(format!("term {t} names feature {last} of {num_features}"));
            }
            for &f in list {
                counts[f as usize] += 1;
            }
        }
        for (&[_, len], range) in runs.iter().zip(bounds.windows(2)) {
            if counts[range[0]..range[1]].iter().any(|&c| c != len) {
                return Err(format!("postings disagree with the run of length {len}"));
            }
        }
        Ok(Self {
            offsets: offsets.into_boxed_slice(),
            postings: postings.into_boxed_slice(),
            runs: runs.into(),
            num_features: num_features as u32,
        })
    }

    /// The term offset table, the postings and the run table (flattened)
    /// — everything the index is but its feature count, as
    /// [`from_columns`](Self::from_columns) takes it back.
    pub(crate) fn columns(&self) -> (&[usize], &[u32], &[u32]) {
        (&self.offsets, &self.postings, self.runs.as_flattened())
    }

    /// Number of distinct term slots (= highest indexed term id + 1).
    pub fn num_terms(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The features carrying `term` (empty for terms no feature carries),
    /// as ascending index numbers — by `(|f.W|, store order)`, not store
    /// indices (see the [type docs](Self)).
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
    /// would keep — deduplicated, as ascending index numbers: by
    /// `(|f.W|, store order)`, not store indices (see the
    /// [type docs](Self)).
    pub fn candidates(&self, keywords: &KeywordSet) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        self.for_each_match(keywords, |feature, _| out.push(feature));
        out
    }

    /// Merges the posting lists of `keywords`, calling
    /// `emit(feature, |keywords ∩ f.W|)` once per feature sharing at least
    /// one keyword, in ascending index order (by length, then store
    /// order). A [`KeywordSet`] holds each term once, so the number of
    /// lists a feature heads is exactly its intersection size.
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

    /// The length run `feature` falls in: one past its last feature, and
    /// its `|f.W|`.
    #[inline]
    pub(crate) fn run_of(&self, feature: u32) -> (u32, usize) {
        let next = self.runs.partition_point(|run| run[0] <= feature);
        let end = self.runs.get(next).map_or(self.num_features, |run| run[0]);
        (end, self.runs[next - 1][1] as usize)
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

/// Cumulative engine counters (atomics — an engine is `Sync` and these
/// are bumped from concurrent serve workers): one request and its keyword
/// probe per request, and the kernel work of every kernel that answered
/// it — one on the local backend, one per touched shard on `sharded:N`.
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    queries: AtomicU64,
    keyword_probes: AtomicU64,
    keyword_hits: AtomicU64,
    kernel_candidates: AtomicU64,
    kernel_visited: AtomicU64,
    kernel_distance_checks: AtomicU64,
}

impl EngineMetrics {
    /// Counts one request whose keyword probe was `(probed, matched)`.
    pub(crate) fn request(&self, (probed, matched): (usize, usize)) {
        bump(&self.queries, 1);
        bump(&self.keyword_probes, probed as u64);
        bump(&self.keyword_hits, matched as u64);
    }

    /// Counts one kernel answer's work.
    pub(crate) fn kernel(&self, work: KernelWork) {
        bump(&self.kernel_candidates, work.candidates);
        bump(&self.kernel_visited, work.visited);
        bump(&self.kernel_distance_checks, work.distance_checks);
    }

    /// The counters, every other field zero.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            queries: load(&self.queries),
            keyword_probes: load(&self.keyword_probes),
            keyword_hits: load(&self.keyword_hits),
            kernel_candidates: load(&self.kernel_candidates),
            kernel_visited: load(&self.kernel_visited),
            kernel_distance_checks: load(&self.kernel_distance_checks),
            ..MetricsSnapshot::default()
        }
    }
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
/// [`crate::remote::RemoteEngine::metrics`]) and leaves the kernel
/// counters at zero — those kernels run in its workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests answered through any entry point: one per request on
    /// every backend, however many shards it touched.
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
    /// Candidate features the serving kernels bucketed into score classes
    /// (features sharing a keyword with the query), over all
    /// kernel-answered queries and, on `sharded:N`, summed over the
    /// shards, each of which holds a disjoint slice of the features. A
    /// kernel scores one `(|q.W ∩ f.W|, |f.W|)` class at a time, not each
    /// candidate.
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

/// A long-lived SPQ serving engine over one dataset.
///
/// See the [module docs](self) for the lifecycle. Construction builds
/// the keyword index (one pass over the feature keywords) and the data
/// grid (a counting sort of the data objects by cell); a request of any
/// radius reads only those, and a traced request's job is a fresh
/// [`SpqExecutor::run_dataset`] beside them.
///
/// The engine is `Sync`: callers may share it across threads and call
/// [`execute`](crate::service::QueryExecutor::execute) from each.
#[derive(Debug)]
pub struct QueryEngine {
    exec: SpqExecutor,
    /// Read by a traced request's job and by callers, never by the kernel.
    dataset: SharedDataset,
    /// All of `F` as the kernel reads it, and the data objects on one
    /// radius-independent grid — all the state a request is answered from.
    kernel: KernelState,
    metrics: EngineMetrics,
}

impl QueryEngine {
    /// Builds an engine over `dataset`. `executor` supplies the full
    /// query configuration (bounds, algorithm, grid sizing, load
    /// balancing, pruning, cluster).
    pub fn new(executor: SpqExecutor, dataset: SharedDataset) -> Self {
        let features = dataset.features();
        let data = dataset.data().iter().map(|o| (o.location, o.id));
        let kernel = KernelState {
            features: Arc::new(feature_side(features)),
            grid: Arc::new(GridIndex::build(executor.bounds(), data)),
        };
        Self {
            exec: executor,
            dataset,
            kernel,
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
        let idx = self.keyword_index();
        let total_keywords = idx.postings.len() as u64;
        let posting_lens = idx.offsets.windows(2).map(|range| range[1] - range[0]);
        let distinct_terms = posting_lens.clone().filter(|&len| len > 0).count();
        let max_posting = posting_lens.max().unwrap_or(0);
        let feature_objects = self.dataset.features().len();
        DatasetStats {
            data_objects: self.dataset.data().len(),
            feature_objects,
            term_slots: idx.num_terms(),
            distinct_terms,
            total_keywords,
            // With no feature there is no keyword: 0 / 1.
            mean_keywords: total_keywords as f64 / feature_objects.max(1) as f64,
            max_posting,
        }
    }

    /// The executor configuration the engine was built from.
    pub fn executor(&self) -> &SpqExecutor {
        &self.exec
    }

    /// The build-once inverted keyword index.
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.kernel.features.index
    }

    /// The one engine path (see the [module docs](self)): every local
    /// request, traced or not, is answered here, by the
    /// [kernel](crate::kernel) over the build-once state, and its work is
    /// counted.
    fn run(&self, query: &SpqQuery) -> Vec<RankedObject> {
        let answer = kernel::top_k(&self.kernel, query);
        self.metrics.kernel(answer.work);
        answer.top_k
    }
}

/// Adds `by` to a monotonic counter.
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// The keyword probe, `(terms probed, terms matched)` over all of `F`: a
/// term matches when `carried` says some slice of `F` gives it postings,
/// and `matched == 0` proves the query cannot score any object.
pub(crate) fn probe(keywords: &KeywordSet, carried: impl Fn(Term) -> bool) -> (usize, usize) {
    let matched = keywords.iter().filter(|&t| carried(t)).count();
    (keywords.len(), matched)
}

/// All of `features` as a kernel reads them: their keyword index and
/// their locations, both numbered by `(|f.W|, store order)` — location
/// `k` is the index's feature `k`. No feature object is cloned.
pub(crate) fn feature_side(features: &[FeatureObject]) -> FeatureSide {
    let (index, order) = KeywordIndex::numbered(features);
    let locations = order.iter().map(|&i| features[i as usize].location);
    FeatureSide {
        locations: locations.collect(),
        index,
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
        let index = self.keyword_index();
        let (probed, matched) = probe(&query.keywords, |t| index.term_frequency(t) > 0);
        self.metrics.request((probed, matched));
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

    /// A snapshot of the engine's cumulative counters: queries served,
    /// keyword-index probe outcomes, kernel work.
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
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
    use spq_mapreduce::pool::run_tasks;
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
        // Numbered by (|f.W|, store order): the one-keyword f4 and f8 are
        // features 0 and 1, then f1–f3 and f5–f7 are 2–7. Term 0 appears
        // on f1, f4 and f7; term 11 on f8.
        assert_eq!(idx.postings(Term(0)), &[0, 2, 7]);
        assert_eq!(idx.postings(Term(11)), &[1]);
        assert_eq!(idx.postings(Term(999)), &[] as &[u32]);
        assert_eq!(
            idx.candidates(&KeywordSet::from_ids([0, 11, 500])),
            vec![0, 1, 2, 7]
        );
        assert!(idx.candidates(&KeywordSet::from_ids([77])).is_empty());
    }

    /// `feature_side` numbers a slice's features by `(|f.W|, store
    /// order)` — a stable sort by length — and carries each feature's
    /// location with it; the index's runs and postings follow the same
    /// numbering.
    #[test]
    fn feature_side_numbers_features_by_length_then_store_order() {
        // Stored longest first, with ties at every length.
        let lens: [usize; 9] = [3, 0, 2, 3, 1, 0, 2, 1, 3];
        let features: Vec<FeatureObject> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let ids: Vec<u32> = (0..len as u32).map(|t| 10 * i as u32 + t).collect();
                feature(i as u64, i as f64, -(i as f64), &ids)
            })
            .collect();
        let side = feature_side(&features);
        let order = [1, 5, 4, 7, 2, 6, 0, 3, 8];
        let located: Vec<Point> = order.iter().map(|&i| features[i].location).collect();
        assert_eq!(&side.locations[..], &located[..]);
        let (_, _, runs) = side.index.columns();
        assert_eq!(runs, [0, 0, 2, 1, 4, 2, 6, 3]);
        for (k, &i) in order.iter().enumerate() {
            let (end, len) = side.index.run_of(k as u32);
            assert_eq!(len, lens[i], "feature {k}");
            assert_eq!(end, [2, 2, 4, 4, 6, 6, 9, 9, 9][k], "feature {k}");
            for &t in features[i].keywords.terms() {
                assert_eq!(side.index.postings(t), [k as u32], "term {t:?}");
            }
        }
        assert_eq!(side.index, KeywordIndex::build(&features));
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
        let batch: Vec<_> = requests
            .iter()
            .map(|r| engine.execute(r).unwrap())
            .collect();
        for (req, b) in requests.iter().zip(&batch) {
            assert_eq!(b.results, engine.execute_sequential(req).unwrap().results);
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
            let got = run_tasks(workers, requests.len(), |i| {
                engine.execute_sequential(&requests[i]).unwrap().results
            })
            .unwrap();
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
    }
}
