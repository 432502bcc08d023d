//! The high-level query executor: grid planning, job execution, merge.

use crate::algo::espq_len::ESpqLenTask;
use crate::algo::espq_sco::ESpqScoTask;
use crate::algo::pspq::PSpqTask;
use crate::algo::Algorithm;
use crate::merge::merge_top_k;
use crate::model::{DataObject, FeatureObject, RankedObject};
use crate::query::SpqQuery;
use crate::store::{ObjectRef, SharedDataset};
use crate::theory::auto_grid_size;
use spq_mapreduce::{ClusterConfig, JobError, JobStats, LocalPool};
use spq_spatial::{AdaptiveGrid, Grid, Point, Rect, SpacePartition};
use std::fmt;

/// The contiguous-block split count (= map tasks) of a job over a shared
/// dataset: [`SpqExecutor::run_dataset`]'s, and a traced engine request's,
/// which is byte-identical to the fresh job only because both use it.
pub(crate) const JOB_SPLITS: usize = 8;

/// How the query-time grid of the paper's job is sized. It shapes only
/// the job's partition (a [`SpqExecutor`] run, or a traced engine
/// request); an engine's kernel reads its own build-once grid instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridSizing {
    /// A fixed `n × n` grid (the paper's experimental sweeps).
    Fixed(u32),
    /// Choose the grid from the query radius per Section 6.3: as fine as
    /// possible while keeping the cell side at least `r`, capped at
    /// `max_cells_per_axis`.
    Auto {
        /// Upper bound on cells per axis (reduce-task appetite).
        max_cells_per_axis: u32,
    },
}

impl Default for GridSizing {
    fn default() -> Self {
        GridSizing::Auto {
            max_cells_per_axis: 64,
        }
    }
}

/// How the job's cells are shaped over the data space. Like
/// [`GridSizing`], it shapes only the job's partition, never the kernel's
/// grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadBalancing {
    /// The paper's uniform grid — every cell the same size.
    #[default]
    UniformGrid,
    /// Extension: a quadtree partition built over a sample of the data
    /// object locations, so dense regions get more (smaller) cells. Uses
    /// the same total cell budget as the uniform grid would, and Lemma 1
    /// still guarantees correctness. Targets the reducer imbalance the
    /// paper observes on clustered data (Section 7.2.4).
    AdaptiveQuadtree {
        /// How many data locations to sample for the build.
        sample_size: usize,
    },
}

/// The error taxonomy of the serving API.
///
/// Every fallible entry point — the per-query [`SpqExecutor`], the
/// persistent engines, the typed [`crate::service`] facade and the
/// [`crate::serve`] admission front-end — reports through this enum, so
/// callers can route on *what kind* of failure occurred: a rejected
/// request ([`InvalidQuery`](Self::InvalidQuery)), a misconfigured engine
/// ([`InvalidConfig`](Self::InvalidConfig)), a runtime execution failure
/// ([`Job`](Self::Job) / [`Worker`](Self::Worker)), or an admission
/// outcome ([`Overloaded`](Self::Overloaded) /
/// [`DeadlineExceeded`](Self::DeadlineExceeded)).
///
/// ## Retryability contract
///
/// [`is_retryable`](Self::is_retryable) partitions the taxonomy into
/// errors a client may transparently retry (transient load or
/// infrastructure conditions: the request itself was well-formed and an
/// identical resubmission can succeed) and errors it must not (the
/// request or the deployment is wrong, and retrying would loop forever).
/// Tests route on the variants — never on error-message substrings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpqError {
    /// The underlying MapReduce job failed.
    Job(JobError),
    /// A worker thread of
    /// [`QueryExecutor::serve_requests`](crate::service::QueryExecutor::serve_requests)
    /// (or of a shard scatter) panicked outside any MapReduce phase.
    Worker {
        /// Human-readable description of the failed query task.
        message: String,
    },
    /// A request was rejected before execution (non-finite radius, `k` of
    /// zero, a zero worker budget, …) by
    /// [`QueryRequest::validate`](crate::service::QueryRequest::validate).
    InvalidQuery {
        /// What was wrong with the request.
        message: String,
    },
    /// An engine or backend was configured in a way that cannot serve
    /// (zero shards, duplicate data-object ids under a sharded wire
    /// format, …). Raised at build time; per query only by a shard whose
    /// id map does not cover its own data slice.
    InvalidConfig {
        /// What was wrong with the configuration.
        message: String,
    },
    /// A remote worker failed the query in a way that is not attributable
    /// to a single lost worker: a protocol violation, an undecodable
    /// response, or a typed error the worker itself reported.
    Remote {
        /// Human-readable description of the remote failure.
        message: String,
    },
    /// A remote worker process died (or missed its deadline) and its
    /// shards could not be recovered on any surviving worker.
    WorkerLost {
        /// Index of the last worker that was tried.
        worker: usize,
        /// The transport error observed on the final attempt.
        message: String,
    },
    /// The admission queue was at its bounded in-flight cap and its
    /// overflow policy rejects instead of blocking (see
    /// [`crate::serve::OverflowPolicy`]). The request was **not**
    /// enqueued; resubmitting once load drains is expected to succeed.
    Overloaded {
        /// The in-flight cap that was hit.
        capacity: usize,
    },
    /// The request's admission deadline passed before it was dequeued for
    /// execution — the queue shed it instead of running it late. The
    /// request never executed.
    DeadlineExceeded {
        /// The request's deadline, in admission-clock ticks.
        deadline: u64,
        /// The admission clock when the request was shed.
        now: u64,
    },
}

impl SpqError {
    /// Builds an [`InvalidQuery`](Self::InvalidQuery) error.
    pub fn invalid_query(message: impl Into<String>) -> Self {
        SpqError::InvalidQuery {
            message: message.into(),
        }
    }

    /// Builds an [`InvalidConfig`](Self::InvalidConfig) error.
    pub fn invalid_config(message: impl Into<String>) -> Self {
        SpqError::InvalidConfig {
            message: message.into(),
        }
    }

    /// Builds a [`Remote`](Self::Remote) error.
    pub fn remote(message: impl Into<String>) -> Self {
        SpqError::Remote {
            message: message.into(),
        }
    }

    /// Whether a client may transparently resubmit the identical request.
    ///
    /// `true` for transient load and infrastructure conditions —
    /// [`Overloaded`](Self::Overloaded) (the queue was full *now*),
    /// [`DeadlineExceeded`](Self::DeadlineExceeded) (shed before running;
    /// nothing executed, so a resubmission with a fresh deadline is
    /// safe), [`WorkerLost`](Self::WorkerLost) and
    /// [`Worker`](Self::Worker) (a process or thread died mid-flight).
    ///
    /// `false` for deterministic failures that would recur on every
    /// retry: [`InvalidQuery`](Self::InvalidQuery) and
    /// [`InvalidConfig`](Self::InvalidConfig) (the input is wrong),
    /// [`Job`](Self::Job) and [`Remote`](Self::Remote) (the execution
    /// layer itself reported a typed, non-transport failure).
    pub fn is_retryable(&self) -> bool {
        match self {
            SpqError::Overloaded { .. }
            | SpqError::DeadlineExceeded { .. }
            | SpqError::WorkerLost { .. }
            | SpqError::Worker { .. } => true,
            SpqError::Job(_)
            | SpqError::InvalidQuery { .. }
            | SpqError::InvalidConfig { .. }
            | SpqError::Remote { .. } => false,
        }
    }
}

impl fmt::Display for SpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpqError::Job(e) => write!(f, "mapreduce job failed: {e}"),
            SpqError::Worker { message } => write!(f, "query worker failed: {message}"),
            SpqError::InvalidQuery { message } => write!(f, "invalid query: {message}"),
            SpqError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            SpqError::Remote { message } => write!(f, "remote execution failed: {message}"),
            SpqError::WorkerLost { worker, message } => {
                write!(f, "remote worker {worker} lost: {message}")
            }
            SpqError::Overloaded { capacity } => {
                write!(f, "admission queue overloaded (in-flight cap {capacity})")
            }
            SpqError::DeadlineExceeded { deadline, now } => {
                write!(
                    f,
                    "deadline exceeded: due at tick {deadline}, shed at tick {now}"
                )
            }
        }
    }
}

impl std::error::Error for SpqError {}

impl From<JobError> for SpqError {
    fn from(e: JobError) -> Self {
        SpqError::Job(e)
    }
}

/// The outcome of one distributed SPQ evaluation.
#[derive(Debug, Clone)]
pub struct SpqResult {
    /// The global top-k, canonical order (score desc, id asc). May hold
    /// fewer than `k` entries when fewer data objects have `τ(p) > 0`.
    pub top_k: Vec<RankedObject>,
    /// Execution statistics of the MapReduce job (timings, counters,
    /// per-task durations for cluster simulation).
    pub stats: JobStats,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// The query-time space partition that was used.
    pub partition: SpacePartition,
    /// Bytes that crossed the in-process shuffle:
    /// `stats.shuffle_records × size_of::<(Key, Value)>()` of the
    /// algorithm's composite key and handle value — the same accounting
    /// the PR 2 trajectory bench uses, now surfaced per query so the
    /// service layer can report it.
    pub shuffle_bytes: u64,
}

/// Configures and runs distributed spatial preference queries.
///
/// ```
/// use spq_core::{Algorithm, DataObject, FeatureObject, SpqExecutor, SpqQuery};
/// use spq_spatial::{Point, Rect};
/// use spq_text::KeywordSet;
///
/// let data = vec![DataObject::new(1, Point::new(4.6, 4.8))];
/// let features = vec![FeatureObject::new(
///     4,
///     Point::new(3.8, 5.5),
///     KeywordSet::from_ids([0]),
/// )];
/// let query = SpqQuery::new(1, 1.5, KeywordSet::from_ids([0]));
///
/// let result = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0))
///     .algorithm(Algorithm::ESpqSco)
///     .grid_size(4)
///     .run(&[data], &[features], &query)
///     .unwrap();
/// assert_eq!(result.top_k[0].object, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpqExecutor {
    bounds: Rect,
    algorithm: Algorithm,
    sizing: GridSizing,
    cluster: ClusterConfig,
    keyword_pruning: bool,
    balancing: LoadBalancing,
}

impl SpqExecutor {
    /// Creates an executor for a data space, with the paper's best
    /// algorithm (eSPQsco), automatic grid sizing and all host cores.
    pub fn new(bounds: Rect) -> Self {
        Self {
            bounds,
            algorithm: Algorithm::default(),
            sizing: GridSizing::default(),
            cluster: ClusterConfig::auto(),
            keyword_pruning: true,
            balancing: LoadBalancing::default(),
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Uses a fixed `n × n` grid.
    pub fn grid_size(mut self, n: u32) -> Self {
        self.sizing = GridSizing::Fixed(n);
        self
    }

    /// Uses automatic grid sizing with the given cap.
    pub fn auto_grid(mut self, max_cells_per_axis: u32) -> Self {
        self.sizing = GridSizing::Auto { max_cells_per_axis };
        self
    }

    /// Sets the cluster configuration.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Enables/disables the map-side keyword pruning rule (Algorithm 1
    /// line 9). On by default; disabling it is an ablation that ships
    /// every feature object through the shuffle without changing results.
    /// Like the algorithm, it shapes only the job — a traced engine
    /// request's included; an engine's kernel reads neither.
    pub fn keyword_pruning(mut self, enabled: bool) -> Self {
        self.keyword_pruning = enabled;
        self
    }

    /// Selects the cell-shaping strategy (uniform grid per the paper, or
    /// the adaptive quadtree extension for skewed data).
    pub fn load_balancing(mut self, balancing: LoadBalancing) -> Self {
        self.balancing = balancing;
        self
    }

    /// Plans the query-time grid for a query (Section 4.1: the grid is
    /// defined after `r` is known).
    pub fn plan_grid(&self, query: &SpqQuery) -> Grid {
        let n = match self.sizing {
            GridSizing::Fixed(n) => n,
            GridSizing::Auto { max_cells_per_axis } => {
                let extent = self.bounds.width().max(self.bounds.height());
                auto_grid_size(extent, query.radius, max_cells_per_axis)
            }
        };
        Grid::square(self.bounds, n)
    }

    /// Plans the query-time space partition: the uniform grid, or — under
    /// [`LoadBalancing::AdaptiveQuadtree`] — a quadtree with the same cell
    /// budget built over a sample of the data object locations that
    /// `splits` reference in `dataset`.
    pub fn plan_partition_shared(
        &self,
        query: &SpqQuery,
        dataset: &SharedDataset,
        splits: &[Vec<ObjectRef>],
    ) -> SpacePartition {
        let grid = self.plan_grid(query);
        match self.balancing {
            LoadBalancing::UniformGrid => grid.into(),
            LoadBalancing::AdaptiveQuadtree { sample_size } => {
                let budget = grid.num_cells();
                let total: usize = splits.iter().map(Vec::len).sum();
                let stride = (total / sample_size.max(1)).max(1);
                let sample: Vec<Point> = splits
                    .iter()
                    .flatten()
                    .step_by(stride)
                    .filter(|r| r.is_data())
                    .map(|&r| dataset.location_of(r))
                    .take(sample_size)
                    .collect();
                AdaptiveGrid::build_with_min_cell(self.bounds, &sample, budget, query.radius).into()
            }
        }
    }

    /// Runs the query over horizontally partitioned inputs given as
    /// separate data and feature splits. The objects are copied **once**
    /// into a [`SharedDataset`] (as a Hadoop job reads its input from
    /// HDFS once); from there on only object handles move.
    pub fn run(
        &self,
        data_splits: &[Vec<DataObject>],
        feature_splits: &[Vec<FeatureObject>],
        query: &SpqQuery,
    ) -> Result<SpqResult, SpqError> {
        let mut data = Vec::with_capacity(data_splits.iter().map(Vec::len).sum());
        let mut features = Vec::with_capacity(feature_splits.iter().map(Vec::len).sum());
        let mut splits: Vec<Vec<ObjectRef>> =
            Vec::with_capacity(data_splits.len() + feature_splits.len());
        for s in data_splits {
            let start = data.len() as u32;
            data.extend_from_slice(s);
            splits.push((start..data.len() as u32).map(ObjectRef::Data).collect());
        }
        for s in feature_splits {
            let start = features.len() as u32;
            features.extend_from_slice(s);
            splits.push(
                (start..features.len() as u32)
                    .map(ObjectRef::Feature)
                    .collect(),
            );
        }
        let dataset = SharedDataset::new(data, features);
        self.run_shared(&dataset, &splits, query)
    }

    /// Runs the query over a shared dataset split automatically into 8
    /// contiguous store-order blocks ([`SharedDataset::ref_splits`]).
    pub fn run_dataset(
        &self,
        dataset: &SharedDataset,
        query: &SpqQuery,
    ) -> Result<SpqResult, SpqError> {
        self.run_shared(dataset, &dataset.ref_splits(JOB_SPLITS), query)
    }

    /// The zero-copy entry point: runs the query over reference splits
    /// into a shared dataset. No object is cloned anywhere in the
    /// pipeline — map tasks read through the store, the shuffle moves
    /// 8–16-byte handles, reducers resolve them back against the store.
    pub fn run_shared(
        &self,
        dataset: &SharedDataset,
        splits: &[Vec<ObjectRef>],
        query: &SpqQuery,
    ) -> Result<SpqResult, SpqError> {
        let grid = self.plan_partition_shared(query, dataset, splits);
        self.run_planned(dataset, splits, query, grid)
    }

    /// Runs the query over a partition planned beforehand — what a traced
    /// engine request does, since it plans over the full splits but maps
    /// over pruned ones.
    pub(crate) fn run_planned(
        &self,
        dataset: &SharedDataset,
        splits: &[Vec<ObjectRef>],
        query: &SpqQuery,
        partition: SpacePartition,
    ) -> Result<SpqResult, SpqError> {
        let pool = LocalPool::new(self.cluster);
        /// One shuffle record's in-memory wire size for byte accounting.
        fn record_bytes<T: spq_mapreduce::MapReduceTask>(_: &T) -> u64 {
            std::mem::size_of::<(T::Key, T::Value)>() as u64
        }
        macro_rules! run_task {
            ($task_type:ident) => {{
                let mut task = $task_type::new(dataset, &partition, query);
                if !self.keyword_pruning {
                    task = task.without_pruning();
                }
                let record_bytes = record_bytes(&task);
                let out = pool.run(&task, splits)?;
                let stats = out.stats.clone();
                let shuffle_bytes = stats.shuffle_records * record_bytes;
                (out.into_flat(), stats, shuffle_bytes)
            }};
        }
        let (flat, stats, shuffle_bytes) = match self.algorithm {
            Algorithm::PSpq => run_task!(PSpqTask),
            Algorithm::ESpqLen => run_task!(ESpqLenTask),
            Algorithm::ESpqSco => run_task!(ESpqScoTask),
        };
        Ok(SpqResult {
            top_k: merge_top_k(flat, query.k),
            stats,
            algorithm: self.algorithm,
            partition,
            shuffle_bytes,
        })
    }

    /// The configured algorithm.
    pub fn algorithm_choice(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured cluster.
    pub fn cluster_config(&self) -> ClusterConfig {
        self.cluster
    }

    /// Whether the map-side keyword pruning rule is enabled.
    pub fn keyword_pruning_enabled(&self) -> bool {
        self.keyword_pruning
    }

    /// The configured data-space bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The configured grid-sizing policy.
    pub fn grid_sizing(&self) -> GridSizing {
        self.sizing
    }

    /// The configured load-balancing (partition-shape) policy.
    pub fn load_balancing_choice(&self) -> LoadBalancing {
        self.balancing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::brute_force;
    use crate::validate::check_result;
    use spq_spatial::Point;
    use spq_text::{KeywordSet, Score};

    fn paper_setup() -> (Vec<DataObject>, Vec<FeatureObject>) {
        let data = vec![
            DataObject::new(1, Point::new(4.6, 4.8)),
            DataObject::new(2, Point::new(7.5, 1.7)),
            DataObject::new(3, Point::new(8.9, 5.2)),
            DataObject::new(4, Point::new(1.8, 1.8)),
            DataObject::new(5, Point::new(1.9, 9.0)),
        ];
        let f = |id, x, y, kw: &[u32]| {
            FeatureObject::new(
                id,
                Point::new(x, y),
                KeywordSet::from_ids(kw.iter().copied()),
            )
        };
        let features = vec![
            f(1, 2.8, 1.2, &[0, 1]),
            f(2, 5.0, 3.8, &[2, 3]),
            f(3, 8.7, 1.9, &[4, 5]),
            f(4, 3.8, 5.5, &[0]),
            f(5, 5.2, 5.1, &[6, 7]),
            f(6, 7.4, 5.4, &[8, 9]),
            f(7, 3.0, 8.1, &[0, 10]),
            f(8, 9.5, 7.0, &[11]),
        ];
        (data, features)
    }

    fn bounds() -> Rect {
        Rect::from_coords(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn paper_example_via_every_algorithm() {
        let (data, features) = paper_setup();
        for k in [1, 3, 5] {
            let query = SpqQuery::new(k, 1.5, KeywordSet::from_ids([0]));
            let baseline = brute_force(&data, &features, &query);
            for algo in Algorithm::ALL {
                let result = SpqExecutor::new(bounds())
                    .algorithm(algo)
                    .grid_size(4)
                    .cluster(ClusterConfig::with_workers(2))
                    .run(
                        std::slice::from_ref(&data),
                        std::slice::from_ref(&features),
                        &query,
                    )
                    .unwrap();
                check_result(&result.top_k, &baseline, &data, &features, &query)
                    .unwrap_or_else(|e| panic!("{algo} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn top1_is_p1_with_score_one() {
        let (data, features) = paper_setup();
        let query = SpqQuery::new(1, 1.5, KeywordSet::from_ids([0]));
        let result = SpqExecutor::new(bounds())
            .grid_size(4)
            .run(&[data], &[features], &query)
            .unwrap();
        assert_eq!(result.top_k.len(), 1);
        assert_eq!(result.top_k[0].object, 1);
        assert_eq!(result.top_k[0].score, Score::ONE);
        assert_eq!(result.algorithm, Algorithm::ESpqSco);
        assert_eq!(result.partition.num_cells(), 16);
    }

    #[test]
    fn result_invariant_across_grid_sizes() {
        let (data, features) = paper_setup();
        let query = SpqQuery::new(3, 1.5, KeywordSet::from_ids([0]));
        let baseline = brute_force(&data, &features, &query);
        for n in [1, 2, 4, 7, 10] {
            for algo in Algorithm::ALL {
                let result = SpqExecutor::new(bounds())
                    .algorithm(algo)
                    .grid_size(n)
                    .run(
                        std::slice::from_ref(&data),
                        std::slice::from_ref(&features),
                        &query,
                    )
                    .unwrap();
                check_result(&result.top_k, &baseline, &data, &features, &query)
                    .unwrap_or_else(|e| panic!("{algo} grid {n}: {e}"));
            }
        }
    }

    #[test]
    fn auto_grid_respects_radius() {
        let query = SpqQuery::new(1, 1.5, KeywordSet::from_ids([0]));
        let exec = SpqExecutor::new(bounds()).auto_grid(100);
        let grid = exec.plan_grid(&query);
        // extent 10, r 1.5 -> floor(10/1.5) = 6 cells per axis.
        assert_eq!(grid.nx(), 6);
        assert!(grid.cell_width() >= query.radius);
    }

    #[test]
    fn empty_features_give_empty_result() {
        let (data, _) = paper_setup();
        let query = SpqQuery::new(3, 1.5, KeywordSet::from_ids([0]));
        let result = SpqExecutor::new(bounds())
            .grid_size(4)
            .run(&[data], &[], &query)
            .unwrap();
        assert!(result.top_k.is_empty());
    }

    #[test]
    fn many_splits_same_result() {
        let (data, features) = paper_setup();
        let query = SpqQuery::new(3, 1.5, KeywordSet::from_ids([0]));
        // One object per split.
        let data_splits: Vec<Vec<DataObject>> = data.iter().map(|o| vec![*o]).collect();
        let feature_splits: Vec<Vec<FeatureObject>> =
            features.iter().map(|f| vec![f.clone()]).collect();
        let a = SpqExecutor::new(bounds())
            .grid_size(4)
            .run(&data_splits, &feature_splits, &query)
            .unwrap();
        let b = SpqExecutor::new(bounds())
            .grid_size(4)
            .run(&[data], &[features], &query)
            .unwrap();
        assert_eq!(a.top_k, b.top_k);
    }
}
