//! An in-process MapReduce runtime modelled on Hadoop's execution contract.
//!
//! The EDBT 2017 SPQ paper implements its algorithms as single Hadoop
//! MapReduce jobs and leans on three Hadoop extension points (Section 2.1):
//!
//! 1. a custom **Partitioner** that routes map output to reducers by the
//!    *natural key* (the grid cell id) of a composite key,
//! 2. a custom **sort Comparator** over the full composite key, so values
//!    arrive at the reducer in a deliberate order (data objects before
//!    feature objects; features by increasing keyword length for eSPQlen or
//!    decreasing score for eSPQsco), and
//! 3. a **grouping comparator** that makes all records of one cell a single
//!    reduce group despite their differing composite keys.
//!
//! This crate reproduces that contract faithfully, in process, so the
//! paper's algorithms can be expressed exactly as their pseudocode:
//!
//! * [`MapReduceTask`] — one trait bundling map, partition, sort, group and
//!   reduce (the paper's Map/Partitioner/Comparator/Reduce quadruple).
//! * [`LocalPool`] — executes a task over horizontally partitioned input
//!   splits on a bounded worker pool, with a sort-based shuffle. It is the
//!   one place a job runs.
//! * [`remote`] — the framed TCP transport (backoff connect, per-call
//!   deadlines, deterministic fault injection) that `spq-core` ships
//!   *shards and queries* over; it carries no jobs.
//! * [`GroupValues`] — the streaming per-group value iterator handed to
//!   reducers; **early termination** is simply returning before the
//!   iterator is exhausted, and the runtime accounts skipped records.
//! * [`Counters`] — Hadoop-style named counters for instrumentation.
//! * [`SimulatedCluster`] — replays measured task durations onto a
//!   configurable number of virtual slots, to estimate the makespan on a
//!   cluster larger than the host machine (the paper used 16 nodes).
//!
//! The runtime is synchronous and in-memory: splits are `Vec`s, the shuffle
//! is a partitioned stable sort. That preserves what the paper measures —
//! per-reducer compute (`O(|Oi|·|Fi|)` worst case for pSPQ) and shuffle
//! volume (duplication factor) — while staying deterministic and
//! dependency-light.

pub mod backend;
pub mod cluster;
pub mod counters;
pub mod job;
pub mod pool;
pub mod remote;
pub mod stats;
pub mod task;

pub use backend::LocalPool;
pub use cluster::{ClusterConfig, SimulatedCluster, WorkersEnvError};
pub use counters::Counters;
pub use job::{JobContext, JobError, JobOutput};
pub use remote::{FaultPlan, WorkerServer};
pub use stats::{JobStats, Phase, TaskStats};
pub use task::{GroupValues, MapContext, MapReduceTask, ReduceContext};
