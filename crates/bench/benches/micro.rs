//! Microbenchmarks of the hot primitives: Jaccard scoring, grid routing
//! with Lemma-1 duplication, the top-k list, the fixed cost of one job
//! phase on the worker pool, one whole job per algorithm, one served
//! query on each matrix corpus, and the byte work of provisioning a
//! remote worker.
//!
//! `cargo bench --bench micro -- NAME` runs only the benchmarks whose
//! `group/id` contains `NAME` (e.g. `-- job`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spq_bench::matrix::{CorpusSpec, CORPORA};
use spq_core::remote::encode_feature_slice;
use spq_core::{Algorithm, QueryEngine, QueryExecutor, QueryRequest, SpqExecutor, TopKList};
use spq_data::{KeywordSelection, QueryGenerator};
use spq_mapreduce::pool::run_tasks;
use spq_mapreduce::remote::frame::{WordHasher, HEADER_LEN};
use spq_mapreduce::remote::{read_frame, write_frame, OP_FEATURES};
use spq_mapreduce::ClusterConfig;
use spq_spatial::{Grid, Point, Rect};
use spq_text::{KeywordSet, Score, SetSimilarity};
use std::hint::black_box;

fn bench_jaccard(c: &mut Criterion) {
    let mut group = c.benchmark_group("jaccard");
    // f{n} holds the first n multiples of 7 (f100: 0..=693).
    let feature_of = |flen: u32| KeywordSet::from_ids((0..flen).map(|i| i * 7 % 1000));
    let mut cases = Vec::new();
    // q3 shares no term with any f{n}: the all-miss cases.
    let query = KeywordSet::from_ids([3, 250, 777]);
    for flen in [5u32, 20, 100] {
        cases.push((format!("q3_f{flen}"), query.clone(), feature_of(flen)));
    }
    cases.extend([
        (
            "q1_f100".to_owned(),
            KeywordSet::from_ids([252]),
            feature_of(100),
        ),
        (
            "q5_f100".to_owned(),
            KeywordSet::from_ids([3, 252, 500, 602, 693]),
            feature_of(100),
        ),
        // Equal sizes, every other term shared.
        (
            "q50_f50".to_owned(),
            KeywordSet::from_ids((0..50).map(|i| i * 7 + i % 2)),
            feature_of(50),
        ),
    ]);
    for (name, q, f) in &cases {
        group.bench_function(name.as_str(), |b| {
            b.iter(|| SetSimilarity::Jaccard.score(black_box(q), black_box(f)))
        });
    }
    group.finish();
}

fn bench_grid_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    let grid = Grid::square(Rect::unit(), 50);
    let points: Vec<Point> = (0..10_000)
        .map(|i| {
            let t = i as f64 / 10_000.0;
            Point::new((t * 997.0).fract(), (t * 631.0).fract())
        })
        .collect();
    group.bench_function("cell_of_10k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in &points {
                acc = acc.wrapping_add(grid.cell_of(black_box(p)).0);
            }
            acc
        })
    });
    for pct in [10.0, 50.0] {
        let r = grid.cell_width() * pct / 100.0;
        group.bench_function(format!("duplication_targets_10k_r{pct}pct"), |b| {
            b.iter(|| {
                let mut count = 0usize;
                for p in &points {
                    grid.for_each_duplication_target(black_box(p), r, |_| count += 1);
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let offers: Vec<(u64, Score)> = (0..10_000u64)
        .map(|i| (i % 500, Score::ratio((i * 37 % 100) as usize + 1, 101)))
        .collect();
    c.bench_function("topk_update_10k_offers_k10", |b| {
        b.iter_batched(
            || TopKList::new(10),
            |mut list| {
                for &(id, s) in &offers {
                    list.update(id, Point::new(0.0, 0.0), s);
                }
                list
            },
            BatchSize::SmallInput,
        )
    });
}

/// One job phase's fixed cost: a job runs 8 map tasks (`JOB_SPLITS`) on
/// its pool, here with 2 workers and nothing to do in each task.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.bench_function("run_tasks_w2_t8_empty", |b| {
        b.iter(|| run_tasks(2, 8, black_box).map(|v| v.len()))
    });
    group.finish();
}

/// One whole job per iteration — `SpqExecutor::run_dataset`, the paper's
/// map → shuffle → reduce — for each algorithm, on the `clustered-60k`
/// matrix corpus (seed 2017, grid 15) with 2 workers, cycling through 64
/// paper-style queries (Section 7.1: 3 uniformly random keywords, k = 10,
/// radius 10 % of a cell). This is one step of `benchmark/run.sh`'s
/// `batch-job` workload.
fn bench_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("job");
    group.measurement_time(std::time::Duration::from_secs(2));
    let Some(spec) = CorpusSpec::by_name("clustered-60k") else {
        return;
    };
    let dataset = spec.generate(1.0, 2017);
    let bounds = dataset.bounds;
    let cell = bounds.width().max(bounds.height()) / spec.grid as f64;
    let queries = QueryGenerator::new(dataset.vocab_size.max(1), KeywordSelection::Random, 2017)
        .batch(
            64,
            10,
            QueryGenerator::radius_from_cell_pct(cell, 10.0),
            3.min(dataset.vocab_size.max(1)),
        );
    let shared = dataset.to_shared_splits(8).0;
    for algorithm in Algorithm::ALL {
        let exec = SpqExecutor::new(bounds)
            .algorithm(algorithm)
            .grid_size(spec.grid)
            .cluster(ClusterConfig::with_workers(2));
        let mut next = queries.iter().cycle();
        group.bench_function(format!("run_dataset_{algorithm}_{}", spec.name), |b| {
            b.iter(|| exec.run_dataset(&shared, black_box(next.next().unwrap())))
        });
    }
    group.finish();
}

/// One `QueryEngine::execute` (the serving kernel plus the request's
/// validation and response) per iteration, cycling through 512 queries of
/// the matrix stream, on each matrix corpus at its full (`--scale 1`)
/// size and the matrix's seed.
fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.measurement_time(std::time::Duration::from_secs(2));
    for spec in &CORPORA {
        let dataset = spec.generate(1.0, 2017);
        let requests: Vec<QueryRequest> = spec
            .query_stream(&dataset, 2017)
            .batch(512)
            .into_iter()
            .map(QueryRequest::new)
            .collect();
        let exec = SpqExecutor::new(dataset.bounds).grid_size(spec.grid);
        let engine = QueryEngine::new(exec, dataset.to_shared_splits(8).0);
        let mut next = requests.iter().cycle();
        group.bench_function(format!("execute_{}", spec.name), |b| {
            b.iter(|| engine.execute(black_box(next.next().unwrap())))
        });
    }
    group.finish();
}

/// The byte work of provisioning a remote worker, one step each: the
/// frame checksum over 1 MiB, one 1 MiB frame written and read back
/// through a `Vec` (checksummed on both sides), and the encoding of one
/// `remote:2` feature slice — the first half of `uniform-120k`'s features
/// at `--scale 1`, seed 2017 — into `OP_FEATURES` chunk payloads of
/// 1 MiB, the size the remote engine ships.
fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let payload: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    group.bench_function("word_hasher_1mib", |b| {
        b.iter(|| {
            let mut hasher = WordHasher::default();
            hasher.update(black_box(&payload));
            hasher.finish()
        })
    });
    let mut wire = Vec::with_capacity(HEADER_LEN + payload.len());
    group.bench_function("write_read_1mib", |b| {
        b.iter(|| {
            wire.clear();
            write_frame(&mut wire, OP_FEATURES, black_box(&payload))
                .and_then(|()| read_frame(&mut wire.as_slice()))
        })
    });
    let Some(spec) = CorpusSpec::by_name("uniform-120k") else {
        return;
    };
    let dataset = spec.generate(1.0, 2017);
    let slice = &dataset.features[..dataset.features.len() / 2];
    group.bench_function("encode_feature_slice_uniform-120k_half", |b| {
        b.iter(|| encode_feature_slice(black_box(slice), 1 << 20))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_jaccard,
    bench_grid_routing,
    bench_topk,
    bench_pool,
    bench_job,
    bench_kernel,
    bench_frame
);
criterion_main!(benches);
