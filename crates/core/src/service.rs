//! The typed serving facade: requests in, responses with statistics out.
//!
//! The engines underneath speak `SpqQuery → SpqResult` — enough for the
//! paper's experiments, too little for a service: there is no per-query
//! observability and no way to choose the execution backend without
//! changing types. This module is the public serving API over all of
//! that:
//!
//! * [`QueryRequest`] — a query plus [`QueryOptions`]: a worker
//!   **budget** (all execution is worker-count-invariant, so budget knobs
//!   never change result bytes — there are no timeouts to race against)
//!   and a trace flag.
//! * [`QueryResponse`] — the ranked results plus per-query [`QueryStats`]
//!   (shards touched, shuffle records/bytes, wall micros, keyword-index
//!   probe outcome) and, when tracing, the query's one job's [`JobStats`].
//! * [`Backend`] — which engine serves: [`Backend::Local`] (one
//!   build-once [`QueryEngine`] on the in-process pool),
//!   [`Backend::Sharded`] (a scatter/gather
//!   [`ShardedEngine`] over per-shard
//!   dataset slices) or [`Backend::Remote`] (the same shard layout placed
//!   on worker *processes* behind TCP, see [`crate::remote`]). All return
//!   byte-identical results.
//! * [`SpqService`] — the backend-erased handle examples and benches
//!   serve through.
//!
//! All of it hangs off one trait: [`QueryExecutor`], whose single
//! required method ([`QueryExecutor::run_validated`]) is the only
//! engine-specific code — `execute`, `execute_sequential`,
//! `execute_batch` and `serve_requests` are provided once, on the trait,
//! so the four backends cannot drift apart. The [`crate::serve`]
//! admission front-end is generic over the same trait.
//!
//! Requests **validate before execution** ([`QueryRequest::validate`]):
//! a non-finite radius or a zero worker budget comes back as
//! [`SpqError::InvalidQuery`] instead of a panic deep inside routing.
//!
//! ```
//! use spq_core::service::{Backend, QueryExecutor, QueryRequest, SpqService};
//! use spq_core::{DataObject, FeatureObject, SharedDataset, SpqExecutor, SpqQuery};
//! use spq_spatial::{Point, Rect};
//! use spq_text::KeywordSet;
//!
//! let dataset = SharedDataset::new(
//!     vec![DataObject::new(1, Point::new(4.6, 4.8))],
//!     vec![FeatureObject::new(4, Point::new(3.8, 5.5), KeywordSet::from_ids([0]))],
//! );
//! let executor = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4);
//!
//! let service = SpqService::build(executor, dataset, Backend::Sharded { shards: 2 }).unwrap();
//! let request = QueryRequest::new(SpqQuery::new(1, 1.5, KeywordSet::from_ids([0])));
//! let response = service.execute(&request).unwrap();
//! assert_eq!(response.results[0].object, 1);
//! assert_eq!(response.stats.shards_touched, 1); // only one shard holds data
//! ```

use crate::algo::Algorithm;
use crate::engine::{MetricsSnapshot, QueryEngine};
use crate::executor::{SpqError, SpqExecutor};
use crate::model::RankedObject;
use crate::query::SpqQuery;
use crate::remote::{RemoteEngine, TickReport};
use crate::sharded::ShardedEngine;
use crate::store::SharedDataset;
use spq_mapreduce::pool::run_tasks;
use spq_mapreduce::JobStats;
use std::fmt;
use std::str::FromStr;

/// Which engine a [`SpqService`] serves through.
///
/// Every backend returns **byte-identical** results for the same request
/// (`tests/backend_equivalence.rs` proptests it); the choice trades
/// single-store simplicity against shard-per-node scale-out shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One build-once [`QueryEngine`] over the whole dataset: its direct
    /// kernel, or — for a traced request — a job on the
    /// in-process [`spq_mapreduce::LocalPool`].
    Local,
    /// A [`ShardedEngine`]: the data
    /// objects are sliced into `shards` per-shard stores (features are
    /// broadcast by `Arc`), each shard runs its own build-once engine,
    /// and queries scatter/gather with a top-k merge.
    Sharded {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// A [`RemoteEngine`]: the [`Backend::Sharded`] layout with one shard
    /// per worker *process*, reached over length-delimited TCP frames.
    /// Workers are either spawned in-process (the default) or external
    /// `spq-worker` processes named by the `SPQ_REMOTE_WORKERS`
    /// environment variable (see [`crate::remote::SPQ_REMOTE_WORKERS`]).
    Remote {
        /// Number of workers = number of shards (≥ 1).
        workers: usize,
    },
}

impl Backend {
    /// The backend's stable identifier (`"local"` / `"sharded"` /
    /// `"remote"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Local => "local",
            Backend::Sharded { .. } => "sharded",
            Backend::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Local => write!(f, "local"),
            Backend::Sharded { shards } => write!(f, "sharded:{shards}"),
            Backend::Remote { workers } => write!(f, "remote:{workers}"),
        }
    }
}

/// Default shard count for `"sharded"` given without an explicit count.
pub const DEFAULT_SHARDS: usize = 4;

impl FromStr for Backend {
    type Err = String;

    /// Parses `"local"`, `"sharded"` (= [`DEFAULT_SHARDS`] shards),
    /// `"sharded:N"` or `"remote:N"`. A bare `"remote"` is rejected: a
    /// worker count has no safe default when each worker is a process.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local" => Ok(Backend::Local),
            "sharded" => Ok(Backend::Sharded {
                shards: DEFAULT_SHARDS,
            }),
            other => {
                if let Some(n) = other.strip_prefix("sharded:") {
                    return match n.parse::<usize>() {
                        Ok(shards) if shards > 0 => Ok(Backend::Sharded { shards }),
                        _ => Err(format!("bad shard count {n:?} (want sharded:N, N >= 1)")),
                    };
                }
                if let Some(n) = other.strip_prefix("remote:") {
                    return match n.parse::<usize>() {
                        Ok(workers) if workers > 0 => Ok(Backend::Remote { workers }),
                        _ => Err(format!("bad worker count {n:?} (want remote:N, N >= 1)")),
                    };
                }
                Err(format!(
                    "unknown backend {other:?} (want local, sharded, sharded:N or remote:N)"
                ))
            }
        }
    }
}

/// Per-request execution options. Both are **result-invariant**: they
/// change how fast a query runs and what it reports, never what it
/// answers. The job a traced request runs is configured by the engine's
/// executor (its algorithm, its keyword pruning), never per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker budget for this request — the one width control there is:
    /// intra-job workers when the request runs a job (the kernel is
    /// single-threaded), and scatter width on the sharded and remote
    /// backends (each shard answers with its kernel; the scatter is the
    /// parallelism). `None` is the engine's configured
    /// cluster width; `Some(1)` is single-threaded end to end, which is
    /// all [`QueryExecutor::execute_sequential`] sets. Execution is
    /// worker-count-invariant, so this is a pure resource knob — the
    /// timeout-free way to bound a query's CPU appetite.
    pub workers: Option<usize>,
    /// Attach the query's [`JobStats`] to the response — one entry on
    /// every backend. A trace *is* the paper's job for the query, so a
    /// traced request runs the MapReduce job — same result bytes, a job's
    /// cost, at this request's worker budget. The local engine runs it
    /// instead of its kernel. The sharded and remote backends keep their
    /// kernel scatter and run the job beside it, on the manager, as one
    /// [`SpqExecutor::run_dataset`] over the whole store: the flag never
    /// reaches a shard or crosses the wire.
    pub trace: bool,
}

/// One typed query request: the query itself plus [`QueryOptions`] and
/// the admission-level fields the [`crate::serve`] front-end honours.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The spatial preference query.
    pub query: SpqQuery,
    /// Execution options (all result-invariant).
    pub options: QueryOptions,
    /// Admission deadline in ticks of the admission queue's manual clock
    /// ([`crate::serve::AdmissionQueue::now`]): if the clock has passed
    /// this tick when the request is dequeued, it is shed with
    /// [`SpqError::DeadlineExceeded`] instead of executed. `None` (the
    /// default) never sheds. Direct engine calls ignore it — deadlines
    /// are an admission concern, and execution never aborts mid-query.
    pub deadline: Option<u64>,
    /// Admission priority: higher-priority requests dequeue first;
    /// arrival order breaks ties, so equal-priority traffic stays FIFO.
    /// Priorities change *when* a request runs, never its result bytes.
    /// Default `0`. Ignored outside the admission queue.
    pub priority: u8,
}

impl QueryRequest {
    /// Wraps a query with default options, no deadline, priority 0.
    pub fn new(query: SpqQuery) -> Self {
        Self {
            query,
            options: QueryOptions::default(),
            deadline: None,
            priority: 0,
        }
    }

    /// Sets the admission deadline (a tick on the admission queue's
    /// manual clock; see [`Self::deadline`]).
    pub fn with_deadline(mut self, tick: u64) -> Self {
        self.deadline = Some(tick);
        self
    }

    /// Sets the admission priority (see [`Self::priority`]).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the worker budget for this request.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.options.workers = Some(workers);
        self
    }

    /// Requests a trace on the response: the statistics of the query's
    /// one job (see [`QueryOptions::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.options.trace = true;
        self
    }

    /// Checks the request before execution: rejects inputs that would
    /// either panic deep inside routing (a non-finite radius reaches an
    /// assert) or answer degenerately (`k == 0`).
    pub fn validate(&self) -> Result<(), SpqError> {
        if !self.query.radius.is_finite() || self.query.radius < 0.0 {
            return Err(SpqError::invalid_query(format!(
                "radius must be finite and non-negative, got {}",
                self.query.radius
            )));
        }
        if self.query.k == 0 {
            return Err(SpqError::invalid_query("k must be at least 1"));
        }
        if self.options.workers == Some(0) {
            return Err(SpqError::invalid_query(
                "worker budget must be at least 1 when set",
            ));
        }
        Ok(())
    }
}

impl From<SpqQuery> for QueryRequest {
    fn from(query: SpqQuery) -> Self {
        QueryRequest::new(query)
    }
}

/// Per-query execution statistics, reported on every [`QueryResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// The executor's configured algorithm: the one a traced request's
    /// job ran (a kernel answer runs none).
    pub algorithm: Algorithm,
    /// Shards the query scattered to. Always 1 on the local backend; on
    /// the sharded and remote backends, 0 when the keyword index proved
    /// no feature can match (or no shard holds data).
    pub shards_touched: usize,
    /// Records that crossed the data-movement boundary. Local backend:
    /// the in-process shuffle of the request's MapReduce job — non-zero
    /// only when the request was traced ([`QueryOptions::trace`]), `0`
    /// when the kernel answered. Sharded
    /// and remote backends: the serialized gather, whichever way the
    /// shards computed.
    pub shuffle_records: u64,
    /// Bytes behind [`shuffle_records`](Self::shuffle_records) — actual
    /// wire bytes for the sharded gather, `records × record size` for the
    /// in-process shuffle (`0` when the kernel answered).
    pub shuffle_bytes: u64,
    /// End-to-end wall time of the request, microseconds.
    pub wall_micros: u64,
    /// Query keywords probed against the build-once keyword index.
    pub keyword_terms_probed: usize,
    /// Probed keywords carried by at least one feature. `0` means the
    /// query cannot match anything: the scatter/gather backends
    /// short-circuit, the local kernel scores zero candidates.
    pub keyword_terms_matched: usize,
    /// Shard executions that were re-dispatched after a worker failure.
    /// Always `0` on the in-process backends; on [`Backend::Remote`] a
    /// non-zero count means a worker died (or missed its deadline) and
    /// the affected shards were recovered on survivors — the results are
    /// still byte-identical.
    pub retries: u64,
    /// Of the [`retries`](Self::retries), failovers this query served by
    /// flipping a shard's placement pointer to a warm replica — no
    /// provision payload crossed the wire. Always `0` on the in-process
    /// backends.
    pub warm_failovers: u64,
    /// Of the [`retries`](Self::retries), failovers this query served by
    /// re-shipping a shard's provision payload to a survivor (no warm
    /// replica was alive). Always `0` on the in-process backends.
    pub cold_reprovisions: u64,
}

/// The outcome of one executed [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The global top-k, canonical order (score desc, id asc) — the same
    /// bytes a fresh [`SpqExecutor::run_dataset`] job returns for the same
    /// query.
    pub results: Vec<RankedObject>,
    /// Per-query execution statistics.
    pub stats: QueryStats,
    /// The query's job statistics, present when the request set
    /// [`QueryOptions::trace`]: exactly one entry, on every backend.
    pub trace: Option<Vec<JobStats>>,
}

/// The one execute/batch/serve surface every engine speaks.
///
/// Implementations provide exactly one method — [`run_validated`]
/// (run_validated) — the engine-specific lifecycle for a request that
/// already passed [`QueryRequest::validate`]. Everything callers actually
/// invoke ([`execute`](Self::execute),
/// [`execute_sequential`](Self::execute_sequential),
/// [`execute_batch`](Self::execute_batch),
/// [`serve_requests`](Self::serve_requests)) is provided once here, so
/// validation, batching and the concurrent serve loop cannot drift
/// between backends. [`QueryEngine`], [`ShardedEngine`],
/// [`RemoteEngine`], [`SpqService`] and the
/// [`crate::serve::AdmissionQueue`] front-end all serve through this
/// trait.
///
/// [`run_validated`]: Self::run_validated
pub trait QueryExecutor: Sync {
    /// Executes one query **already checked** by
    /// [`QueryRequest::validate`] under `options` (the request's, or the
    /// entry point's variation of them). This is the only method a
    /// backend implements; callers should prefer the validating entry
    /// points below.
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError>;

    /// A snapshot of the engine's cumulative counters (see
    /// [`MetricsSnapshot`]); aggregated over shards on the scatter/gather
    /// backends.
    fn metrics(&self) -> MetricsSnapshot;

    /// Validates and executes one request at its own worker budget
    /// ([`QueryOptions::workers`]; the engine's configured width when
    /// unset).
    fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, SpqError> {
        request.validate()?;
        self.run_validated(&request.query, &request.options)
    }

    /// Validates and executes one request at worker budget 1, whatever
    /// budget it carries: a single-threaded job on the local backend, a
    /// width-1 scatter on the sharded and remote ones — same bytes as
    /// [`execute`](Self::execute); execution is worker-count-invariant.
    fn execute_sequential(&self, request: &QueryRequest) -> Result<QueryResponse, SpqError> {
        request.validate()?;
        let options = QueryOptions {
            workers: Some(1),
            ..request.options
        };
        self.run_validated(&request.query, &options)
    }

    /// Validates and executes a batch, responses in request order —
    /// [`execute`](Self::execute) one by one, stopping at the first
    /// error.
    fn execute_batch(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, SpqError> {
        requests
            .iter()
            .map(|request| self.execute(request))
            .collect()
    }

    /// Executes independent requests concurrently on `workers` threads,
    /// each as [`execute_sequential`](Self::execute_sequential) —
    /// inter-query concurrency, the high-QPS serving shape. Responses in
    /// request order, byte-identical to sequential
    /// [`execute`](Self::execute) calls for any worker count.
    fn serve_requests(
        &self,
        requests: &[QueryRequest],
        workers: usize,
    ) -> Result<Vec<QueryResponse>, SpqError> {
        let outcomes = run_tasks(workers.max(1), requests.len(), |i| {
            self.execute_sequential(&requests[i])
        })
        .map_err(|p| SpqError::Worker {
            message: format!("request {}: {}", p.task_index, p.message),
        })?;
        outcomes.into_iter().collect()
    }
}

/// References execute wherever the referent does — what lets the
/// [`crate::serve::AdmissionQueue`] borrow a long-lived service instead
/// of taking it over.
impl<E: QueryExecutor> QueryExecutor for &E {
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        (**self).run_validated(query, options)
    }

    fn metrics(&self) -> MetricsSnapshot {
        (**self).metrics()
    }
}

/// A backend-erased serving handle: one build step, then typed requests.
///
/// This is the type examples, benches and downstream callers hold; the
/// enum is public so callers that need backend-specific surface (per-shard
/// statistics, the raw engine) can match on it.
#[derive(Debug)]
// A service is built once and held for a process's lifetime, and callers
// build the variants from bare engines: boxing the larger ones buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum SpqService {
    /// Serving through one build-once [`QueryEngine`].
    Local(QueryEngine),
    /// Serving through a scatter/gather [`ShardedEngine`].
    Sharded(ShardedEngine),
    /// Serving through a [`RemoteEngine`] over TCP worker processes.
    Remote(RemoteEngine),
}

impl SpqService {
    /// Builds the engine for `backend` over `dataset`. `executor`
    /// supplies the query configuration (bounds, algorithm, grid sizing,
    /// load balancing, pruning, cluster), exactly as for
    /// [`QueryEngine::new`].
    pub fn build(
        executor: SpqExecutor,
        dataset: SharedDataset,
        backend: Backend,
    ) -> Result<Self, SpqError> {
        match backend {
            Backend::Local => Ok(SpqService::Local(QueryEngine::new(executor, dataset))),
            Backend::Sharded { shards } => Ok(SpqService::Sharded(ShardedEngine::new(
                executor, dataset, shards,
            )?)),
            Backend::Remote { workers } => Ok(SpqService::Remote(RemoteEngine::build(
                executor, dataset, workers,
            )?)),
        }
    }

    /// The backend this service was built with.
    pub fn backend(&self) -> Backend {
        match self {
            SpqService::Local(_) => Backend::Local,
            SpqService::Sharded(engine) => Backend::Sharded {
                shards: engine.num_shards(),
            },
            SpqService::Remote(engine) => Backend::Remote {
                workers: engine.num_workers(),
            },
        }
    }

    /// Cumulative TCP frame traffic (request plus response bytes, all
    /// workers) on the remote backend; `None` on in-process backends,
    /// which never cross a socket.
    pub fn remote_traffic_bytes(&self) -> Option<u64> {
        match self {
            SpqService::Remote(engine) => Some(engine.traffic_bytes()),
            _ => None,
        }
    }

    /// Cumulative re-asks the remote retry state machine performed over
    /// this service's lifetime; `None` on in-process backends.
    pub fn remote_retries(&self) -> Option<u64> {
        match self {
            SpqService::Remote(engine) => Some(engine.metrics().remote_retries),
            _ => None,
        }
    }

    /// Cumulative engine counters in one backend-independent snapshot:
    /// the per-engine counters every backend keeps, plus the remote
    /// membership counters (retries, exclusions, warm/cold failovers,
    /// re-admissions), which stay zero on in-process backends.
    pub fn metrics(&self) -> MetricsSnapshot {
        QueryExecutor::metrics(self)
    }

    /// Advances the remote membership layer one deterministic step —
    /// probe excluded workers, re-admit recovered ones, rebalance shard
    /// placement (see [`RemoteEngine::tick`]). The outcome is typed: an
    /// in-process backend reports
    /// [`TickOutcome::NotApplicable`] (there is no membership layer to
    /// advance), which callers can tell apart from an applicable tick
    /// that found nothing to do ([`TickOutcome::Applied`] with a
    /// quiescent report).
    pub fn tick(&self) -> TickOutcome {
        match self {
            SpqService::Remote(engine) => TickOutcome::Applied(engine.tick()),
            _ => TickOutcome::NotApplicable {
                backend: self.backend(),
            },
        }
    }
}

impl QueryExecutor for SpqService {
    /// The one backend dispatch of the typed surface: every provided
    /// entry point of [`QueryExecutor`] funnels through this match.
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        match self {
            SpqService::Local(engine) => engine.run_validated(query, options),
            SpqService::Sharded(engine) => engine.run_validated(query, options),
            SpqService::Remote(engine) => engine.run_validated(query, options),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            SpqService::Local(engine) => engine.metrics(),
            SpqService::Sharded(engine) => engine.metrics(),
            SpqService::Remote(engine) => engine.metrics(),
        }
    }
}

/// The typed outcome of [`SpqService::tick`]: a capability report that
/// distinguishes "this backend has no membership layer" from "the tick
/// ran and here is what it did" — previously both came back as a silent
/// no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TickOutcome {
    /// The backend is in-process: membership ticks are not applicable
    /// (as opposed to applicable-but-quiescent).
    NotApplicable {
        /// The backend that has no membership layer.
        backend: Backend,
    },
    /// The remote membership layer advanced one deterministic step.
    Applied(TickReport),
}

impl TickOutcome {
    /// The tick report, when the backend actually ticked.
    pub fn report(&self) -> Option<&TickReport> {
        match self {
            TickOutcome::Applied(report) => Some(report),
            TickOutcome::NotApplicable { .. } => None,
        }
    }

    /// Whether this service's backend has a membership layer to tick.
    pub fn applicable(&self) -> bool {
        matches!(self, TickOutcome::Applied(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_text::KeywordSet;

    fn q(k: usize, r: f64) -> SpqQuery {
        SpqQuery::new(k, r, KeywordSet::from_ids([0]))
    }

    #[test]
    fn backend_parsing_round_trips() {
        assert_eq!("local".parse::<Backend>().unwrap(), Backend::Local);
        assert_eq!(
            "sharded".parse::<Backend>().unwrap(),
            Backend::Sharded {
                shards: DEFAULT_SHARDS
            }
        );
        assert_eq!(
            "sharded:8".parse::<Backend>().unwrap(),
            Backend::Sharded { shards: 8 }
        );
        assert_eq!(
            "remote:2".parse::<Backend>().unwrap(),
            Backend::Remote { workers: 2 }
        );
        // Bare "remote" stays an error: no safe default worker count when
        // each worker is a process. Junk counts and junk ports too.
        for s in [
            "",
            "remote",
            "remote:",
            "remote:0",
            "remote:x",
            "remote:-1",
            "sharded:",
            "sharded:0",
            "sharded:x",
        ] {
            assert!(s.parse::<Backend>().is_err(), "{s:?}");
        }
        for b in [
            Backend::Local,
            Backend::Sharded { shards: 3 },
            Backend::Remote { workers: 4 },
        ] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(Backend::Local.name(), "local");
        assert_eq!(Backend::Sharded { shards: 9 }.name(), "sharded");
        assert_eq!(Backend::Remote { workers: 1 }.name(), "remote");
    }

    #[test]
    fn remote_parse_paths_compose() {
        // The two halves of the remote configuration parse independently:
        // `remote:N` fixes the process count (and is what SPQ_WORKERS —
        // the *thread* pool override — never influences), while the
        // SPQ_REMOTE_WORKERS address list is validated separately, junk
        // ports included, with typed config errors either way.
        let backend: Backend = "remote:2".parse().unwrap();
        assert_eq!(backend, Backend::Remote { workers: 2 });
        assert_eq!(
            crate::remote::parse_worker_addrs("127.0.0.1:7001, 127.0.0.1:7002").unwrap(),
            vec!["127.0.0.1:7001".to_owned(), "127.0.0.1:7002".to_owned()]
        );
        for junk in ["127.0.0.1:0", "127.0.0.1:70000", "host:notaport", "nohost"] {
            let err = crate::remote::parse_worker_addrs(junk).unwrap_err();
            assert!(matches!(err, SpqError::InvalidConfig { .. }), "{junk:?}");
        }
    }

    #[test]
    fn request_builders_set_options() {
        let r = QueryRequest::new(q(3, 1.0)).with_workers(2).with_trace();
        assert_eq!(r.options.workers, Some(2));
        assert!(r.options.trace);
        let plain: QueryRequest = q(3, 1.0).into();
        assert_eq!(plain.options, QueryOptions::default());
    }

    #[test]
    fn validation_rejects_degenerate_requests() {
        assert!(QueryRequest::new(q(1, 1.0)).validate().is_ok());
        // Radius 0 is allowed (a point query).
        assert!(QueryRequest::new(q(1, 0.0)).validate().is_ok());
        // `SpqQuery::new` asserts these invariants at construction, but
        // the fields are `pub` (requests may arrive deserialized); the
        // typed path turns corruption into errors instead of panics deep
        // inside routing.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut request = QueryRequest::new(q(1, 1.0));
            request.query.radius = bad;
            let err = request.validate().unwrap_err();
            assert!(matches!(err, SpqError::InvalidQuery { .. }), "{bad}");
        }
        let mut request = QueryRequest::new(q(1, 1.0));
        request.query.k = 0;
        let err = request.validate().unwrap_err();
        assert!(matches!(err, SpqError::InvalidQuery { .. }), "{err}");
        assert!(!err.is_retryable(), "malformed queries must not be retried");
        let err = QueryRequest::new(q(1, 1.0))
            .with_workers(0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SpqError::InvalidQuery { .. }), "{err}");
        assert!(
            !err.is_retryable(),
            "malformed requests must not be retried"
        );
    }
}
