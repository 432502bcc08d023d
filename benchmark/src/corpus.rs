//! Seeded inputs: corpora, request streams, and the oracle that checks
//! every answer. The seed shapes only what is generated here; the
//! program under test never sees it.

use spq::core::centralized::{brute_force, grid_index_topk};
use spq::data::{Dataset, KeywordSelection, QueryGenerator};
use spq::prelude::*;
use std::time::Instant;

/// Grid cells per axis for every workload (the paper's synthetic
/// default, and `spq-bench matrix`'s).
pub const GRID: u32 = 15;
/// Results requested per query.
pub const K: usize = 10;
/// Objects in the `uniform-120k` corpus (half data, half features).
pub const UNIFORM_OBJECTS: usize = 120_000;
/// Objects in the `clustered-60k` corpus.
pub const CLUSTERED_OBJECTS: usize = 60_000;

/// A generated corpus plus what the report says about it.
#[derive(Debug)]
pub struct Corpus {
    /// `uniform-120k` or `clustered-60k` (the name keeps the nominal
    /// size even when the smoke test shrinks the corpus).
    pub name: &'static str,
    /// The generated objects.
    pub dataset: Dataset,
    /// The same objects behind `Arc`s, as every engine takes them.
    pub shared: SharedDataset,
    /// Seconds the generator took — outside every timed window.
    pub generate_s: f64,
}

impl Corpus {
    fn generate(
        name: &'static str,
        generator: &dyn DatasetGenerator,
        objects: usize,
        seed: u64,
    ) -> Self {
        let started = Instant::now();
        let dataset = generator.generate(objects, seed);
        let generate_s = started.elapsed().as_secs_f64();
        let shared = SharedDataset::new(dataset.data.clone(), dataset.features.clone());
        Self {
            name,
            dataset,
            shared,
            generate_s,
        }
    }

    /// The paper's UN dataset, `objects` objects.
    pub fn uniform(objects: usize, seed: u64) -> Self {
        Self::generate("uniform-120k", &UniformGen, objects, seed)
    }

    /// The paper's CL dataset (16 Gaussian clusters), `objects` objects.
    pub fn clustered(objects: usize, seed: u64) -> Self {
        Self::generate("clustered-60k", &ClusteredGen, objects, seed)
    }

    /// Name and actual size, for the result file.
    pub fn describe(&self) -> String {
        format!(
            "{} ({} data + {} feature objects)",
            self.name,
            self.dataset.data.len(),
            self.dataset.features.len()
        )
    }

    /// Side of one grid cell — radii are percentages of it (Table 3).
    pub fn cell_side(&self) -> f64 {
        let b = self.dataset.bounds;
        b.width().max(b.height()) / GRID as f64
    }

    /// The executor every workload derives from: grid 15, `eSPQsco`,
    /// `workers` threads per job.
    pub fn executor(&self, workers: usize) -> SpqExecutor {
        SpqExecutor::new(self.dataset.bounds)
            .algorithm(Algorithm::ESpqSco)
            .grid_size(GRID)
            .cluster(ClusterConfig::with_workers(workers))
    }
}

/// A finite prefix of a serving-shaped request stream.
#[derive(Debug)]
pub struct Requests {
    /// The requests, in stream order.
    pub list: Vec<QueryRequest>,
    /// Whether each request is one of the stream's recurring hotspots.
    pub hot: Vec<bool>,
    /// The distinct radii of the stream — one plan per class is warmed
    /// during set-up.
    pub radius_classes: Vec<f64>,
}

impl Requests {
    /// One request per radius class, for warming plans in set-up.
    pub fn warmers(&self) -> Vec<QueryRequest> {
        self.radius_classes
            .iter()
            .filter_map(|r| self.list.iter().find(|q| q.query.radius == *r).cloned())
            .collect()
    }
}

/// `n` requests from [`QueryStream`] defaults over `corpus`: 3 Zipf(1.0)
/// keywords, radius classes 5/10/25 % of a cell, half the traffic from
/// 16 hotspots.
pub fn serving_requests(corpus: &Corpus, seed: u64, n: usize) -> Requests {
    let vocab = corpus.dataset.vocab_size.max(1);
    let defaults = StreamConfig::default();
    let radius_classes: Vec<f64> = [5.0, 10.0, 25.0]
        .iter()
        .map(|pct| QueryGenerator::radius_from_cell_pct(corpus.cell_side(), *pct))
        .collect();
    let mut stream = QueryStream::new(
        vocab,
        StreamConfig {
            radius_classes: radius_classes.clone(),
            keywords_per_query: defaults.keywords_per_query.min(vocab),
            seed,
            ..defaults
        },
    );
    let hotspots = stream.hotspots().to_vec();
    let queries = stream.batch(n);
    let hot = queries.iter().map(|q| hotspots.contains(q)).collect();
    Requests {
        list: queries.into_iter().map(QueryRequest::new).collect(),
        hot,
        radius_classes,
    }
}

/// `n` paper-style queries (Section 7.1): uniformly random keywords,
/// radius 10 % of a cell, no recurring hotspots.
pub fn paper_queries(corpus: &Corpus, seed: u64, n: usize) -> Requests {
    let vocab = corpus.dataset.vocab_size.max(1);
    let radius = QueryGenerator::radius_from_cell_pct(corpus.cell_side(), 10.0);
    let queries = QueryGenerator::new(vocab, KeywordSelection::Random, seed).batch(
        n,
        K,
        radius,
        3.min(vocab),
    );
    Requests {
        list: queries.into_iter().map(QueryRequest::new).collect(),
        hot: vec![false; n],
        radius_classes: vec![radius],
    }
}

/// Whether two result lists agree on object id, score bits and order —
/// the byte-identity the whole stack promises.
pub fn same_results(a: &[RankedObject], b: &[RankedObject]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.object == y.object && x.score.value().to_bits() == y.score.value().to_bits()
        })
}

/// The oracle's answer for one query: the centralized grid-index scan.
pub fn oracle(corpus: &Corpus, query: &SpqQuery) -> Vec<RankedObject> {
    grid_index_topk(
        corpus.dataset.bounds,
        &corpus.dataset.data,
        &corpus.dataset.features,
        query,
    )
}

/// Checks the oracle itself: on a truncated corpus small enough for the
/// `O(|O|·|F|)` nested loop, the grid-index scan must equal brute force.
/// Returns the number of disagreeing queries.
pub fn oracle_self_check(corpus: &Corpus, requests: &[QueryRequest]) -> usize {
    let small = corpus.dataset.truncated(1_500, 1_500);
    requests
        .iter()
        .filter(|r| {
            !same_results(
                &grid_index_topk(small.bounds, &small.data, &small.features, &r.query),
                &brute_force(&small.data, &small.features, &r.query),
            )
        })
        .count()
}
