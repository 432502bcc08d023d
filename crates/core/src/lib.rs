//! # spq-core — spatial preference queries using keywords
//!
//! The primary contribution of *"Parallel and Distributed Processing of
//! Spatial Preference Queries using Keywords"* (EDBT 2017), implemented
//! over the [`spq_mapreduce`] runtime.
//!
//! ## The query
//!
//! Given data objects `O`, spatio-textual feature objects `F` and a query
//! `q(k, r, W)`, the score of a data object `p` is
//!
//! ```text
//! τ(p) = max { w(f, q) : f ∈ F, d(p, f) <= r }        (Definition 2)
//! w(f, q) = |q.W ∩ f.W| / |q.W ∪ f.W|                  (Definition 1)
//! ```
//!
//! and the query returns the `k` data objects with the highest `τ`.
//! Every data object is a potential result — the spatial predicate bounds
//! the *scoring* neighbourhood, not the result set — which is what makes
//! the query expensive and interesting to distribute.
//!
//! ## The algorithms
//!
//! All three run as a single MapReduce job over a query-time grid whose
//! cells are independent work units (feature objects are duplicated into
//! neighbouring cells per Lemma 1, data objects never are):
//!
//! * [`algo::pspq`] — the baseline: reducers score every feature against
//!   every in-range data object (Section 4).
//! * [`algo::espq_len`] — features sorted by increasing keyword length;
//!   terminates once the Equation-1 bound of the next feature cannot beat
//!   the current top-k threshold (Section 5.1).
//! * [`algo::espq_sco`] — Jaccard scores computed map-side and used as the
//!   sort key (descending); the reducer reports data objects in score
//!   order and stops after `k` (Section 5.2).
//!
//! [`SpqExecutor`] is the high-level per-query entry point; [`engine`]
//! holds the persistent [`QueryEngine`] that builds the dataset store,
//! keyword index and data grid **once** and then serves an
//! arbitrary query stream (single, batched, or concurrent); [`store`]
//! holds the shared immutable dataset behind the zero-copy shuffle
//! (records travel as 8–16-byte handles, never as cloned objects);
//! [`centralized`] holds the exact baselines used as ground truth;
//! [`theory`] implements the Section-6 duplication-factor and cost
//! analysis.

#![warn(missing_docs)]

pub mod algo;
pub mod centralized;
mod checker;
pub mod engine;
pub mod executor;
mod kernel;
pub mod merge;
pub mod model;
pub mod partitioning;
mod prometheus;
pub mod query;
pub mod remote;
pub mod serve;
pub mod service;
pub mod sharded;
pub mod store;
pub mod theory;
pub mod topk;
pub mod validate;

pub use algo::Algorithm;
pub use engine::{DatasetStats, KeywordIndex, MetricsSnapshot, QueryEngine};
pub use executor::{GridSizing, LoadBalancing, SpqError, SpqExecutor, SpqResult};
pub use model::{DataObject, FeatureObject, ObjectId, RankedObject, SpqObject};
pub use partitioning::CellRouting;
pub use query::SpqQuery;
pub use remote::{
    MembershipConfig, MembershipView, RemoteEngine, ShardHost, TickReport, WorkerState,
    SPQ_REMOTE_WORKERS, SPQ_REPLICATION_FACTOR,
};
pub use serve::{
    export_metrics, AdmissionConfig, AdmissionQueue, AdmissionSnapshot, HistogramSnapshot,
    LatencyHistogram, OverflowPolicy, PumpReport, Ticket,
};
pub use service::{
    Backend, QueryExecutor, QueryOptions, QueryRequest, QueryResponse, QueryStats, SpqService,
    TickOutcome,
};
pub use sharded::{ShardStats, ShardedEngine};
pub use store::{ObjectRef, SharedDataset};
pub use topk::TopKList;
