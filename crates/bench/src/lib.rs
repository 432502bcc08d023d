//! Benchmark harness reproducing the experimental study of the EDBT 2017
//! SPQ paper (Section 7).
//!
//! Every figure of the paper maps to a harness entry point:
//!
//! | Paper figure | Harness id | Sweep |
//! |---|---|---|
//! | Fig. 5(a–d) | `fig5`  | FL-like: grid, keywords, radius, k |
//! | Fig. 6(a–d) | `fig6`  | TW-like: grid, keywords, radius, k |
//! | Fig. 7(a–d) | `fig7`  | UN: grid, keywords, radius, k |
//! | Fig. 8      | `fig8`  | UN: dataset size 64→512 (scaled) |
//! | Fig. 9(a–d) | `fig9`  | CL: grid, keywords, radius, k (+ pSPQ blow-up panel) |
//! | §6.2 df     | `df`    | duplication factor, Monte Carlo vs closed form |
//! | §6.3        | `cellsize` | reducer cost vs the `df·a⁴` model |
//!
//! Datasets are scaled-down but shape-preserving versions of the paper's
//! (the cost model is `|O|·|F|·df/R²` per reducer, so relative orderings
//! survive linear rescaling); the `--scale` knob grows them back toward
//! paper sizes when time permits. Reported metrics: measured wall-clock of
//! the in-process job, plus the simulated makespan on a 128-slot virtual
//! cluster (the paper's 16 nodes × 8 cores).

pub mod cli;
pub mod figures;
pub mod matrix;
pub mod params;
pub mod report;

use spq_core::{Algorithm, ObjectRef, SharedDataset, SpqExecutor, SpqQuery};
use spq_mapreduce::SimulatedCluster;
use std::time::Duration;

/// Global harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Multiplier on every dataset size (1.0 = the harness defaults, which
    /// are themselves scaled-down paper sizes; see [`params`]).
    pub scale: f64,
    /// RNG seed for datasets and query workloads.
    pub seed: u64,
    /// Real worker threads executing map/reduce tasks.
    pub workers: usize,
    /// Random keyword sets averaged per plotted point.
    pub queries_per_point: usize,
    /// Virtual cluster slots for the simulated makespan.
    pub sim_slots: usize,
    /// Where CSVs are written (`None` = skip).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 2017,
            workers: std::thread::available_parallelism().map_or(8, |n| n.get()),
            queries_per_point: 3,
            sim_slots: 128,
            out_dir: Some(std::path::PathBuf::from("results")),
        }
    }
}

/// One measured execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Wall-clock of the in-process MapReduce job.
    pub measured: Duration,
    /// Simulated makespan on the virtual cluster.
    pub simulated: Duration,
    /// Features examined by reducers (early-termination effectiveness).
    pub features_examined: u64,
    /// Records that crossed the shuffle (duplication overhead).
    pub shuffle_records: u64,
    /// Busiest-reducer / mean-reducer input ratio.
    pub reduce_skew: f64,
    /// Number of results returned.
    pub results: usize,
}

impl Measurement {
    fn accumulate(&mut self, other: &Measurement) {
        self.measured += other.measured;
        self.simulated += other.simulated;
        self.features_examined += other.features_examined;
        self.shuffle_records += other.shuffle_records;
        self.reduce_skew += other.reduce_skew;
        self.results += other.results;
    }

    fn divide(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        self.measured /= n;
        self.simulated /= n;
        self.features_examined /= n as u64;
        self.shuffle_records /= n as u64;
        self.reduce_skew /= n as f64;
        self.results /= n as usize;
    }
}

/// Runs one job over a shared dataset (zero-copy path) and extracts the
/// measurement.
pub fn measure(
    executor: &SpqExecutor,
    dataset: &SharedDataset,
    splits: &[Vec<ObjectRef>],
    query: &SpqQuery,
    sim_slots: usize,
) -> Measurement {
    let result = executor
        .run_shared(dataset, splits, query)
        .expect("benchmark job must not fail");
    let stats = &result.stats;
    Measurement {
        measured: stats.total_wall,
        simulated: SimulatedCluster::new(sim_slots).job_makespan(stats),
        features_examined: stats
            .counters
            .get(spq_core::partitioning::COUNTER_REDUCE_FEATURES_EXAMINED),
        shuffle_records: stats.shuffle_records,
        reduce_skew: stats.reduce_skew(),
        results: result.top_k.len(),
    }
}

/// Averages the measurements of several queries for one configuration.
pub fn measure_avg(
    executor: &SpqExecutor,
    dataset: &SharedDataset,
    splits: &[Vec<ObjectRef>],
    queries: &[SpqQuery],
    sim_slots: usize,
) -> Measurement {
    let mut acc = Measurement::default();
    for q in queries {
        acc.accumulate(&measure(executor, dataset, splits, q, sim_slots));
    }
    acc.divide(queries.len() as u32);
    acc
}

/// One x-axis point of a panel: the x value plus one averaged measurement
/// per algorithm (in [`Panel::algorithms`] order).
#[derive(Debug, Clone)]
pub struct PanelRow {
    /// The x value as printed (grid size, keyword count, …).
    pub x: String,
    /// Averaged measurements, aligned with the panel's algorithm list.
    pub cells: Vec<Measurement>,
}

/// One chart of the paper, as a table of rows.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Harness id, e.g. `fig5a`.
    pub id: String,
    /// Human title, e.g. `Figure 5(a) — FL, varying grid size`.
    pub title: String,
    /// Label of the x column.
    pub x_label: String,
    /// Algorithms measured, in column order.
    pub algorithms: Vec<Algorithm>,
    /// The sweep.
    pub rows: Vec<PanelRow>,
}

/// Shared setup for the Criterion figure benches: a scaled-down dataset,
/// its splits, and a reproducible query batch.
pub mod criterion_support {
    use crate::params;
    use spq_core::SpqQuery;
    use spq_core::{ObjectRef, SharedDataset};
    use spq_data::{DatasetGenerator, KeywordSelection, QueryGenerator};

    /// Prepared inputs for one figure bench.
    pub struct FigureInputs {
        /// The shared object store (held once; queries shuffle handles).
        pub dataset: SharedDataset,
        /// Mixed reference splits into `dataset`.
        pub splits: Vec<Vec<ObjectRef>>,
        /// Vocabulary cardinality (for drawing more queries).
        pub vocab_size: usize,
        /// Default cell side of the figure's default grid.
        pub default_cell: f64,
        /// Keyword-selection strategy for query generation.
        pub selection: KeywordSelection,
    }

    /// Generates a dataset at `scale` × the harness default size and
    /// splits it across 8 map splits.
    pub fn setup(
        gen: &dyn DatasetGenerator,
        base_size: usize,
        scale: f64,
        default_grid: u32,
        seed: u64,
    ) -> FigureInputs {
        setup_with_selection(
            gen,
            base_size,
            scale,
            default_grid,
            seed,
            KeywordSelection::Random,
        )
    }

    /// [`setup`] with an explicit keyword-selection strategy (the
    /// Zipf-vocabulary figures use frequency-weighted terms; see
    /// `KeywordSelection::Weighted`).
    pub fn setup_with_selection(
        gen: &dyn DatasetGenerator,
        base_size: usize,
        scale: f64,
        default_grid: u32,
        seed: u64,
        selection: KeywordSelection,
    ) -> FigureInputs {
        let dataset = gen.generate(params::scaled(base_size, scale), seed);
        let (shared, splits) = dataset.to_shared_splits(8);
        FigureInputs {
            dataset: shared,
            splits,
            vocab_size: dataset.vocab_size,
            default_cell: 1.0 / default_grid as f64,
            selection,
        }
    }

    impl FigureInputs {
        /// Draws one deterministic query.
        pub fn query(&self, k: usize, radius_pct: f64, keywords: usize, seed: u64) -> SpqQuery {
            QueryGenerator::new(self.vocab_size, self.selection, seed).generate(
                k,
                self.default_cell * radius_pct / 100.0,
                keywords,
            )
        }
    }
}
