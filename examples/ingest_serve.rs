//! Ingest a real-shaped TSV dump and serve a query stream over it —
//! the full "zero to serving" path for external data:
//!
//! 1. fabricate a Flickr-shaped dump (`id<TAB>x<TAB>y<TAB>kw1,kw2,...`,
//!    the layout real photo/tweet dumps and streaming systems use),
//! 2. stream it through `spq_data::ingest` (keyword strings interned to
//!    dense term ids, CSR-packed keyword lists, malformed-line policy),
//! 3. build a persistent `QueryEngine` over the loaded objects and serve
//!    a stream of queries authored against the *ingested* vocabulary.
//!
//! ```text
//! cargo run --release --example ingest_serve
//! ```

use spq::prelude::*;
use std::time::Instant;

fn main() {
    // 1. Synthesize the dump (deterministic, seedable — a stand-in for
    //    downloading a real Flickr/Twitter extract).
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("spq-example-{}-data.tsv", std::process::id()));
    let features_path = dir.join(format!("spq-example-{}-features.tsv", std::process::id()));
    let cfg = DumpConfig {
        objects: 40_000,
        seed: 42,
    };
    println!("synthesizing a {}-object Flickr-shaped dump…", cfg.objects);
    let summary = synthesize_dump(&cfg, &data_path, &features_path).expect("write dump");
    println!(
        "  {} data + {} feature lines, {} keyword occurrences",
        summary.data_objects, summary.feature_objects, summary.keywords
    );

    // 2. Stream it back in. `IngestOptions::default()` fails on the first
    //    malformed line; `IngestOptions::lossy()` would skip and count.
    let t0 = Instant::now();
    let loaded: Ingested =
        ingest_files(&data_path, &features_path, &IngestOptions::default()).expect("ingest dump");
    let elapsed = t0.elapsed();
    println!(
        "ingested {} objects in {:.0} ms ({:.0} objects/s), {} distinct keywords",
        loaded.objects(),
        elapsed.as_secs_f64() * 1e3,
        loaded.objects() as f64 / elapsed.as_secs_f64(),
        loaded.vocab.len(),
    );

    // 3. Build the engine over the ingested objects and inspect the
    //    vocabulary through the dataset-stats surface.
    let bounds = loaded.dataset.bounds;
    let executor = SpqExecutor::new(bounds)
        .algorithm(Algorithm::ESpqSco)
        .grid_size(32);
    let engine = QueryEngine::from_ingested(executor, loaded.dataset.data, loaded.dataset.features);
    let stats = engine.dataset_stats();
    println!(
        "engine: {} data / {} features, {:.1} mean keywords, busiest posting {}",
        stats.data_objects, stats.feature_objects, stats.mean_keywords, stats.max_posting
    );
    print!("  most frequent keywords:");
    for (term, count) in engine.keyword_index().top_terms(5) {
        let word = loaded.vocab.name(term).unwrap_or("?");
        print!(" {word}×{count}");
    }
    println!();

    // 4. Serve a stream authored against the real vocabulary: Zipf-skewed
    //    keywords, radius classes scaled to the loaded bounds.
    let cell = bounds.width().max(bounds.height()) / 32.0;
    let defaults = StreamConfig::default();
    let mut stream = QueryStream::new(
        loaded.vocab.len(),
        StreamConfig {
            radius_classes: vec![cell * 0.1, cell * 0.25],
            hotspot_fraction: 0.5,
            hotspots: 4,
            seed: 7,
            // Tiny dumps can intern fewer words than the default
            // keywords-per-query; clamp to stay servable.
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
        .map(|request| engine.execute(request).expect("serve stream"))
        .collect();
    let wall = t0.elapsed();
    println!(
        "served {} queries in {:.0} ms ({:.0} q/s)",
        responses.len(),
        wall.as_secs_f64() * 1e3,
        responses.len() as f64 / wall.as_secs_f64(),
    );

    let hits = responses.iter().filter(|r| !r.results.is_empty()).count();
    println!("  {hits} queries returned results");
    if let Some(response) = responses.iter().find(|r| !r.results.is_empty()) {
        let best = &response.results[0];
        println!(
            "  e.g. object {} at {} with score {}",
            best.object, best.location, best.score
        );
    }

    for p in [&data_path, &features_path] {
        std::fs::remove_file(p).ok();
    }
}
