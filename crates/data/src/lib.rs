//! Dataset generation, partitioning and workloads for SPQ experiments.
//!
//! The paper evaluates on four datasets (Section 7.1): two real ones
//! (Flickr — 40M images, avg 7.9 keywords, 34,716-term dictionary;
//! Twitter — 80M tweets, avg 9.8 keywords, 88,706 terms) and two synthetic
//! ones (UN — uniform, 10–100 keywords from a 1,000-term vocabulary;
//! CL — 16 random clusters, otherwise like UN). In every case half of the
//! objects act as data objects and half as feature objects.
//!
//! The real dumps are not redistributable, so this crate provides
//! generators that reproduce their *algorithm-relevant* statistics —
//! spatial density profile, keyword-count distribution, and term-frequency
//! skew — which is what the algorithms' relative costs depend on:
//!
//! * [`UniformGen`] — the paper's UN dataset, exactly as described.
//! * [`ClusteredGen`] — the paper's CL dataset (16 Gaussian clusters).
//! * [`FlickrLike`] / [`TwitterLike`] — hotspot-mixture spatial skew with
//!   shifted-Poisson keyword counts and Zipf term frequencies matching the
//!   reported dictionary sizes and means.
//!
//! [`Dataset::to_shared_splits`] produces the horizontally partitioned
//! input the distributed algorithms consume, [`tsv`] round-trips datasets
//! to disk, and [`QueryGenerator`] draws query keyword sets (random /
//! frequent / infrequent, footnote 2 of the paper).
//!
//! Real (or real-shaped) dumps enter through [`ingest`]: a streaming
//! `id<TAB>x<TAB>y<TAB>keywords` loader that interns keyword strings into
//! a [`vocab::Vocabulary`] and CSR-packs the keyword lists, with a
//! line-numbered malformed-line policy and a deterministic
//! [`ingest::synthesize_dump`] writer for tests and CI.

pub mod dataset;
pub mod distributions;
pub mod generators;
pub mod ingest;
pub mod tsv;
pub mod vocab;
pub mod workload;

pub use dataset::Dataset;
pub use generators::{ClusteredGen, DatasetGenerator, FlickrLike, TwitterLike, UniformGen};
pub use ingest::{
    ingest_combined, ingest_files, synthesize_dump, DumpConfig, IngestError, IngestOptions,
    Ingested, MalformedPolicy, SkipCounters,
};
pub use vocab::CsrKeywords;
pub use workload::{KeywordSelection, QueryGenerator, QueryStream, StreamConfig};
