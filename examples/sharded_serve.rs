//! Ingest a real-shaped dump, build a **sharded** engine and serve a
//! hotspot stream through the typed facade — the shard-per-node serving
//! shape end to end:
//!
//! 1. fabricate and ingest a Flickr-shaped TSV dump,
//! 2. build an `SpqService` on the `sharded` backend: the feature objects
//!    cut into per-shard slices, each shard holding its slice's kernel
//!    state over one grid of every data object shared by all shards,
//! 3. serve a hotspot query stream as typed `QueryRequest`s — every query
//!    scatters to the relevant shards and gathers serialized 12-byte wire
//!    records, keeps each object's best partial score and merges them into
//!    a top-k that is byte-identical to a single-store engine,
//! 4. print the per-query stats and the per-shard traffic counters.
//!
//! ```text
//! cargo run --release --example sharded_serve
//! ```

use spq::prelude::*;
use std::time::Instant;

const SHARDS: usize = 4;
const GRID: u32 = 32;

fn main() {
    // 1. Synthesize + ingest (see examples/ingest_serve.rs for the
    //    ingest path in detail).
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("spq-sharded-{}-data.tsv", std::process::id()));
    let features_path = dir.join(format!("spq-sharded-{}-features.tsv", std::process::id()));
    let cfg = DumpConfig {
        objects: 40_000,
        seed: 42,
    };
    println!("synthesizing a {}-object Flickr-shaped dump…", cfg.objects);
    synthesize_dump(&cfg, &data_path, &features_path).expect("write dump");
    let loaded: Ingested =
        ingest_files(&data_path, &features_path, &IngestOptions::default()).expect("ingest dump");
    println!(
        "ingested {} objects, {} distinct keywords",
        loaded.objects(),
        loaded.vocab.len()
    );

    // 2. Build the sharded service. The same `SpqExecutor` configuration
    //    drives every shard; swapping `Backend::Sharded` for
    //    `Backend::Local` changes placement, never answers.
    let bounds = loaded.dataset.bounds;
    let executor = SpqExecutor::new(bounds)
        .algorithm(Algorithm::ESpqSco)
        .grid_size(GRID);
    let dataset = SharedDataset::new(loaded.dataset.data, loaded.dataset.features);
    let t0 = Instant::now();
    let service = SpqService::build(executor, dataset, Backend::Sharded { shards: SHARDS })
        .expect("build sharded service");
    println!(
        "built {} in {:.0} ms",
        service.backend(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // 3. Author a hotspot-heavy stream against the ingested vocabulary
    //    and serve it as typed requests.
    let cell = bounds.width().max(bounds.height()) / GRID as f64;
    let defaults = StreamConfig::default();
    let mut stream = QueryStream::new(
        loaded.vocab.len(),
        StreamConfig {
            radius_classes: vec![cell * 0.1, cell * 0.25],
            hotspot_fraction: 0.7, // hotspot-heavy, like real traffic
            hotspots: 4,
            seed: 7,
            keywords_per_query: defaults.keywords_per_query.min(loaded.vocab.len().max(1)),
            ..defaults
        },
    );
    let requests: Vec<QueryRequest> = stream
        .batch(64)
        .into_iter()
        .map(QueryRequest::new)
        .collect();

    let t0 = Instant::now();
    let responses: Vec<_> = requests
        .iter()
        .map(|request| service.execute(request).expect("serve stream"))
        .collect();
    let wall = t0.elapsed();
    println!(
        "served {} requests in {:.0} ms ({:.0} q/s)",
        responses.len(),
        wall.as_secs_f64() * 1e3,
        responses.len() as f64 / wall.as_secs_f64(),
    );

    // 4. Per-query stats from the typed responses…
    let hits = responses.iter().filter(|r| !r.results.is_empty()).count();
    let wire_bytes: u64 = responses.iter().map(|r| r.stats.shuffle_bytes).sum();
    let mean_shards = responses
        .iter()
        .map(|r| r.stats.shards_touched as f64)
        .sum::<f64>()
        / responses.len() as f64;
    println!(
        "  {hits}/{} non-empty answers, {mean_shards:.1} shards/query, \
         {wire_bytes} gather wire bytes total",
        responses.len()
    );
    if let Some(response) = responses.iter().find(|r| !r.results.is_empty()) {
        let best = &response.results[0];
        println!(
            "  e.g. object {} at {} with score {} ({} µs, {} B gathered)",
            best.object,
            best.location,
            best.score,
            response.stats.wall_micros,
            response.stats.shuffle_bytes
        );
    }

    // …and the per-shard counters, the observability surface a
    // cluster-monitoring stack would scrape.
    if let SpqService::Sharded(engine) = &service {
        println!("per-shard stats:");
        for s in engine.shard_stats() {
            println!(
                "  shard {}: {} feature objects over {} data objects, {} queries served, \
                 {} records / {} B shipped",
                s.shard,
                s.feature_objects,
                s.data_objects,
                s.queries,
                s.records_shipped,
                s.bytes_shipped
            );
        }
        let m = engine.metrics();
        println!(
            "aggregate: {} queries, {}/{} keyword probes hit",
            m.queries, m.keyword_hits, m.keyword_probes
        );
        println!(
            "kernel: {} candidates scored, {} visited, {} distance checks",
            m.kernel_candidates, m.kernel_visited, m.kernel_distance_checks
        );
        // The same counters in the scrape-friendly text format — what an
        // HTTP /metrics endpoint would return verbatim.
        println!("--- /metrics ---");
        print!("{}", export_metrics(&m, &engine.shard_stats(), None, None));
    }

    for p in [&data_path, &features_path] {
        std::fs::remove_file(p).ok();
    }
}
