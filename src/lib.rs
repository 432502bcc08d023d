//! # spq — spatial preference queries using keywords, in parallel
//!
//! A Rust reproduction of *"Parallel and Distributed Processing of Spatial
//! Preference Queries using Keywords"* (Doulkeridis, Vlachou, Mpestas,
//! Mamoulis — EDBT 2017). Given a set of spatial **data objects**, a set of
//! spatio-textual **feature objects** and a query `q(k, r, W)`, the query
//! returns the top-`k` data objects ranked by the best textual relevance
//! (Jaccard similarity to `q.W`) of any feature object within distance `r`.
//!
//! The workspace implements the paper end to end:
//!
//! * [`mapreduce`] — an in-process MapReduce runtime (composite keys,
//!   custom partitioners, secondary sort, streaming reducers, counters and
//!   a simulated cluster scheduler).
//! * [`spatial`] — the query-time grid with Lemma-1 feature duplication.
//! * [`text`] — keyword sets, Jaccard scoring and the Equation-1 bound.
//! * [`core`] — the three algorithms (pSPQ, eSPQlen, eSPQsco), centralized
//!   baselines, the Section-6 cost theory, the persistent
//!   [`prelude::QueryEngine`] that builds the dataset store, partition
//!   routing and keyword index once and then serves an arbitrary query
//!   stream (single, batched, or concurrent), and the typed serving
//!   facade ([`prelude::SpqService`]: [`prelude::QueryRequest`] in,
//!   [`prelude::QueryResponse`] with per-query stats out) over pluggable
//!   execution backends — single-store or scatter/gather sharded.
//! * [`data`] — dataset generators (UN, CL, Flickr-like, Twitter-like) and
//!   query workloads.
//!
//! ## Quickstart
//!
//! ```
//! use spq::prelude::*;
//!
//! // Build a tiny dataset: hotels (data objects) and restaurants
//! // (feature objects annotated with keywords).
//! let mut vocab = Vocabulary::new();
//! let italian = vocab.intern("italian");
//! let sushi = vocab.intern("sushi");
//!
//! let hotels = vec![
//!     DataObject::new(0, Point::new(4.6, 4.8)),
//!     DataObject::new(1, Point::new(7.5, 1.7)),
//! ];
//! let restaurants = vec![
//!     FeatureObject::new(0, Point::new(3.8, 5.5), KeywordSet::new(vec![italian])),
//!     FeatureObject::new(1, Point::new(8.7, 1.9), KeywordSet::new(vec![sushi])),
//! ];
//!
//! let query = SpqQuery::new(1, 1.5, KeywordSet::new(vec![italian]));
//! let bounds = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
//!
//! let result = SpqExecutor::new(bounds)
//!     .algorithm(Algorithm::ESpqSco)
//!     .grid_size(4)
//!     .run(&[hotels], &[restaurants], &query)
//!     .unwrap();
//!
//! assert_eq!(result.top_k[0].object, 0); // the hotel near the italian place
//! ```

pub use spq_core as core;
pub use spq_data as data;
pub use spq_mapreduce as mapreduce;
pub use spq_spatial as spatial;
pub use spq_text as text;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use spq_core::{
        export_metrics, AdmissionConfig, AdmissionQueue, AdmissionSnapshot, Algorithm, Backend,
        DataObject, FeatureObject, HistogramSnapshot, LatencyHistogram, LoadBalancing,
        MembershipConfig, MembershipView, MetricsSnapshot, ObjectRef, OverflowPolicy, PumpReport,
        QueryEngine, QueryExecutor, QueryOptions, QueryRequest, QueryResponse, QueryStats,
        RankedObject, RemoteEngine, ShardHost, ShardStats, ShardedEngine, SharedDataset, SpqError,
        SpqExecutor, SpqQuery, SpqResult, SpqService, TickOutcome, TickReport, Ticket, WorkerState,
    };
    pub use spq_data::{
        ingest_files, synthesize_dump, ClusteredGen, DatasetGenerator, DumpConfig, FlickrLike,
        IngestOptions, Ingested, MalformedPolicy, QueryStream, StreamConfig, TwitterLike,
        UniformGen,
    };
    pub use spq_mapreduce::ClusterConfig;
    pub use spq_spatial::{Grid, Point, Rect};
    pub use spq_text::{KeywordSet, Score, Term, Vocabulary};
}
