//! Remote serving: the sharded layout placed on worker **processes**
//! behind TCP, with fault recovery and dynamic membership.
//!
//! [`crate::sharded`] proves the scatter/gather shape inside one process;
//! this module moves each shard behind a socket. A [`RemoteEngine`] slices
//! the data objects exactly like [`crate::sharded::ShardedEngine`] — same
//! contiguous chunks, features broadcast to every shard — but instead of
//! building shard engines in-process it **provisions** each shard onto
//! [`MembershipConfig::replication_factor`] workers over the
//! [`spq_mapreduce::remote`] frame protocol (see *Provisioning* below).
//! Workers are either spawned
//! in-process (the default — real sockets, no extra processes) or
//! external `spq-worker` binaries named by [`SPQ_REMOTE_WORKERS`].
//!
//! A query then scatters [`OP_SHARD_QUERY`] frames to the workers holding
//! relevant shards and gathers [`OP_SHARD_RESULT`] frames carrying the
//! same 12-byte [`wire`] records the in-process gather uses, so the merged
//! top-k is **byte-identical** to every other backend
//! (`tests/backend_equivalence.rs` proptests it across worker counts).
//!
//! ## Provisioning
//!
//! The feature set crosses the wire **once per worker** and lives **once
//! per worker process**, however many shards the worker hosts:
//!
//! * The manager encodes `F` once into bounded [`OP_FEATURES`] chunk
//!   payloads (about 1 MiB of whole features each, so no frame grows with
//!   the corpus) named by the set's *fingerprint* — FNV-1a over the
//!   encoded features, a function of the content alone. The same buffers
//!   serve every worker and every later re-provision.
//! * A worker appends the chunks of a set, in order, into one feature
//!   vector; on the last chunk it builds one `Arc<[FeatureObject]>` and
//!   one `Arc<KeywordIndex>`. An [`OP_PROVISION`] then carries only the
//!   shard id, the executor, the shard's data slice and the fingerprint;
//!   the shard engine is built over clones of those two `Arc`s. A set is
//!   dropped when the last shard hosted over it is replaced.
//! * An [`OP_PROVISION`] naming a set the worker does not hold is refused
//!   with a typed "unknown feature set" error; the manager ships the set
//!   and retries the install once. Cold failover, rebalancing and the
//!   re-admission of a restarted (hence empty) process all take that one
//!   path. Only the initial build ships ahead of asking — to every worker
//!   at the same time, one thread per worker: the set, then the worker's
//!   shards in shard order.
//!
//! ## Membership
//!
//! Workers die, restart and join. Each worker moves through a managed
//! state machine (see `docs/ARCHITECTURE.md`, "Membership and
//! replication"):
//!
//! ```text
//!            transport failure        second failure
//!   Live ──────────────────► Suspect ───────────────► Excluded
//!    ▲  ◄──────────────────┘                             │
//!    │        success                  probe success     ▼
//!    └───────────────── Probing ◄──────────────────── (ticks)
//!      streak reaches                probe failure resets
//!      readmit_threshold             the streak to zero
//! ```
//!
//! * **Queries** drive `Live → Suspect → Excluded`: one transport failure
//!   (connect refused, deadline missed, torn or corrupt frame) marks a
//!   worker suspect and retries it once — the client reconnects under
//!   exponential backoff, which rides out a blip; a second failure
//!   excludes it and the shard **fails over**. With a warm replica alive
//!   the failover is a placement-pointer flip (no data crosses the wire);
//!   otherwise the shard's kept data slice is re-installed on a survivor
//!   (a *cold* re-provision; the survivor is sent the feature set first
//!   only if it does not already hold it). Both are visible per query in
//!   [`QueryStats::warm_failovers`] / [`QueryStats::cold_reprovisions`].
//! * **Ticks** drive the way back: [`RemoteEngine::tick`] probes every
//!   excluded worker with a ping frame and, after
//!   [`MembershipConfig::readmit_threshold`] *consecutive* successes
//!   (hysteresis — a flapping worker cannot thrash the placement),
//!   re-admits it: the worker reports which shards it still hosts
//!   ([`OP_SHARD_STATUS`]), warm copies re-enter the replica map for
//!   free, and the **rebalancer** migrates shards to restore the
//!   canonical layout under a [`MembershipConfig::max_moves_per_tick`]
//!   budget, so serving never stalls behind a bulk migration. The tick is
//!   deterministic — nothing probes or migrates unless the owner calls
//!   [`tick`](RemoteEngine::tick) — which is what makes every recovery
//!   path a unit-testable subject (`tests/remote_membership.rs`).
//! * **Joins** go through [`RemoteEngine::admit`]: a new address is
//!   pinged, enters as `Live` with no shards, and the rebalancer migrates
//!   load onto it over the following ticks.
//!
//! When every worker is excluded, a query fails with
//! [`SpqError::WorkerLost`]. Every re-ask increments
//! [`QueryStats::retries`]; recovery never changes result bytes, because
//! any worker computes the same answer for the same shard
//! (`tests/remote_faults.rs` and `tests/remote_membership.rs` proptest
//! this under injected [`FaultPlan`]s). A typed error *reported by* a
//! worker ([`OP_ERROR`], e.g. a panic inside the algorithm) is **not**
//! retried: it is deterministic and would fail identically everywhere, so
//! it surfaces directly as [`SpqError::Remote`], matching the local
//! backends' error-path behaviour.

use crate::engine::{KeywordIndex, MetricsSnapshot, QueryEngine};
use crate::executor::{GridSizing, LoadBalancing, SpqError, SpqExecutor};
use crate::merge::merge_top_k;
use crate::model::{DataObject, FeatureObject, ObjectId};
use crate::query::SpqQuery;
use crate::service::{
    ExecutionMode, QueryExecutor, QueryOptions, QueryRequest, QueryResponse, QueryStats,
};
use crate::sharded::wire;
use crate::store::SharedDataset;
use crate::Algorithm;
use parking_lot::Mutex;
use spq_mapreduce::pool::run_tasks;
use spq_mapreduce::remote::codec::{
    decode_job_stats, encode_job_stats, put_bytes, put_f64, put_u32, put_u64, put_u8,
};
use spq_mapreduce::remote::frame::{fnv1a_extend, FNV_OFFSET_BASIS};
use spq_mapreduce::remote::{
    decode_error_payload, ByteReader, ClientConfig, CodecError, FaultPlan, FrameHandler,
    RemoteError, WorkerClient, WorkerServer, OP_ERROR, OP_FAULT_OK, OP_FEATURES, OP_FEATURES_OK,
    OP_PROVISION, OP_PROVISION_OK, OP_SET_FAULT, OP_SHARD_QUERY, OP_SHARD_RESULT, OP_SHARD_STATUS,
    OP_SHARD_STATUS_OK,
};
use spq_mapreduce::{ClusterConfig, JobStats};
use spq_text::{KeywordSet, SetSimilarity};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Environment variable naming external worker processes for
/// [`crate::service::Backend::Remote`]: a comma-separated `host:port`
/// list, e.g. `SPQ_REMOTE_WORKERS=127.0.0.1:7001,127.0.0.1:7002`.
///
/// When set, `remote:N` requires **exactly `N` addresses** — a worker
/// count that disagrees with the deployment list is a configuration error,
/// not something to silently round. When unset, `remote:N` spawns `N`
/// in-process workers on ephemeral localhost ports. This is independent of
/// `SPQ_WORKERS` ([`spq_mapreduce::cluster::WORKERS_ENV`]), which sizes
/// the *thread* pool inside each process: `SPQ_REMOTE_WORKERS` places
/// shards across processes, `SPQ_WORKERS` sizes the scatter width and
/// per-job parallelism within one.
pub const SPQ_REMOTE_WORKERS: &str = "SPQ_REMOTE_WORKERS";

/// Environment variable overriding
/// [`MembershipConfig::replication_factor`] for engines built through
/// [`crate::service::SpqService::build`] / [`RemoteEngine::build`]:
/// `SPQ_REPLICATION_FACTOR=3` keeps every shard warm on three workers.
/// Must parse as a decimal integer ≥ 1.
pub const SPQ_REPLICATION_FACTOR: &str = "SPQ_REPLICATION_FACTOR";

/// Parses a [`SPQ_REMOTE_WORKERS`]-style list into validated
/// `host:port` addresses.
///
/// # Errors
///
/// [`SpqError::InvalidConfig`] on an empty list, an empty entry, a
/// missing `:port`, or a port that is not a decimal `u16` ≥ 1.
pub fn parse_worker_addrs(list: &str) -> Result<Vec<String>, SpqError> {
    let mut addrs = Vec::new();
    for raw in list.split(',') {
        let entry = raw.trim();
        if entry.is_empty() {
            return Err(SpqError::invalid_config(format!(
                "{SPQ_REMOTE_WORKERS}: empty worker address in {list:?}"
            )));
        }
        let Some((host, port)) = entry.rsplit_once(':') else {
            return Err(SpqError::invalid_config(format!(
                "{SPQ_REMOTE_WORKERS}: worker address {entry:?} has no :port"
            )));
        };
        if host.is_empty() {
            return Err(SpqError::invalid_config(format!(
                "{SPQ_REMOTE_WORKERS}: worker address {entry:?} has no host"
            )));
        }
        match port.parse::<u16>() {
            Ok(p) if p > 0 => addrs.push(entry.to_owned()),
            _ => {
                return Err(SpqError::invalid_config(format!(
                    "{SPQ_REMOTE_WORKERS}: bad port {port:?} in {entry:?} (want 1..=65535)"
                )))
            }
        }
    }
    Ok(addrs)
}

// ---------------------------------------------------------------------
// Payload codecs. All little-endian, layered on the mapreduce byte codec;
// round-tripped by proptests in `tests/remote_wire.rs`.
// ---------------------------------------------------------------------

fn algorithm_to_u8(a: Algorithm) -> u8 {
    match a {
        Algorithm::PSpq => 0,
        Algorithm::ESpqLen => 1,
        Algorithm::ESpqSco => 2,
    }
}

fn algorithm_from_u8(v: u8) -> Result<Algorithm, CodecError> {
    match v {
        0 => Ok(Algorithm::PSpq),
        1 => Ok(Algorithm::ESpqLen),
        2 => Ok(Algorithm::ESpqSco),
        other => Err(CodecError::invalid(format!(
            "unknown algorithm tag {other}"
        ))),
    }
}

fn similarity_to_u8(s: SetSimilarity) -> u8 {
    match s {
        SetSimilarity::Jaccard => 0,
        SetSimilarity::Dice => 1,
        SetSimilarity::Overlap => 2,
    }
}

fn similarity_from_u8(v: u8) -> Result<SetSimilarity, CodecError> {
    match v {
        0 => Ok(SetSimilarity::Jaccard),
        1 => Ok(SetSimilarity::Dice),
        2 => Ok(SetSimilarity::Overlap),
        other => Err(CodecError::invalid(format!(
            "unknown similarity tag {other}"
        ))),
    }
}

fn encode_executor(exec: &SpqExecutor, out: &mut Vec<u8>) {
    let bounds = exec.bounds();
    put_f64(out, bounds.min().x);
    put_f64(out, bounds.min().y);
    put_f64(out, bounds.max().x);
    put_f64(out, bounds.max().y);
    put_u8(out, algorithm_to_u8(exec.algorithm_choice()));
    match exec.grid_sizing() {
        GridSizing::Fixed(n) => {
            put_u8(out, 0);
            put_u32(out, n);
        }
        GridSizing::Auto { max_cells_per_axis } => {
            put_u8(out, 1);
            put_u32(out, max_cells_per_axis);
        }
    }
    match exec.load_balancing_choice() {
        LoadBalancing::UniformGrid => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
        LoadBalancing::AdaptiveQuadtree { sample_size } => {
            put_u8(out, 1);
            put_u64(out, sample_size as u64);
        }
    }
    put_u8(out, exec.keyword_pruning_enabled() as u8);
    put_u64(out, exec.cluster_config().workers as u64);
}

fn decode_executor(r: &mut ByteReader<'_>) -> Result<SpqExecutor, CodecError> {
    let (min_x, min_y, max_x, max_y) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
        return Err(CodecError::invalid("non-finite data-space bounds"));
    }
    if min_x > max_x || min_y > max_y {
        return Err(CodecError::invalid("inverted data-space bounds"));
    }
    let algorithm = algorithm_from_u8(r.u8()?)?;
    let sizing_tag = r.u8()?;
    let sizing_value = r.u32()?;
    let balancing_tag = r.u8()?;
    let balancing_value = r.u64()?;
    let keyword_pruning = r.u8()? != 0;
    let workers = r.u64()? as usize;
    let mut exec = SpqExecutor::new(spq_spatial::Rect::from_coords(min_x, min_y, max_x, max_y))
        .algorithm(algorithm)
        .keyword_pruning(keyword_pruning)
        .cluster(ClusterConfig::with_workers(workers.max(1)));
    exec = match sizing_tag {
        0 => exec.grid_size(sizing_value),
        1 => exec.auto_grid(sizing_value),
        other => {
            return Err(CodecError::invalid(format!(
                "unknown grid-sizing tag {other}"
            )))
        }
    };
    exec = match balancing_tag {
        0 => exec.load_balancing(LoadBalancing::UniformGrid),
        1 => exec.load_balancing(LoadBalancing::AdaptiveQuadtree {
            sample_size: balancing_value as usize,
        }),
        other => {
            return Err(CodecError::invalid(format!(
                "unknown load-balancing tag {other}"
            )))
        }
    };
    Ok(exec)
}

/// Encoded size of one data object in an [`OP_PROVISION`] payload.
const DATA_RECORD_BYTES: usize = 4 + 8 + 8 + 8;
/// Encoded size of a feature with no keywords — the floor a shipped
/// feature count is held to before anything is allocated for it.
const MIN_FEATURE_BYTES: usize = 8 + 8 + 8 + 4;
/// Encoded size of one keyword id.
const TERM_BYTES: usize = 4;
/// Fingerprint, chunk index, chunk total, feature count.
const CHUNK_HEADER_BYTES: usize = 8 + 4 + 4 + 4;

/// Feature bytes one [`OP_FEATURES`] chunk carries: whole features are
/// packed until the next one would cross it, so a chunk only exceeds it
/// when a single feature does. Small enough that neither side ever holds
/// a feature set as one buffer, far enough under
/// [`MAX_FRAME_LEN`](spq_mapreduce::remote::MAX_FRAME_LEN) that no corpus
/// size brings a provisioning frame near the cap.
const FEATURES_CHUNK_BYTES: usize = 1 << 20;

/// A feature set as it crosses the wire: its fingerprint and its
/// [`OP_FEATURES`] payloads, in the order they must be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureChunks {
    /// [`fnv1a`](spq_mapreduce::remote::frame::fnv1a) over the encoded
    /// features — a function of the content alone, whatever the chunking.
    pub fingerprint: u64,
    /// One payload per chunk; never empty (a feature-less set is one
    /// chunk of zero features).
    pub chunks: Vec<Vec<u8>>,
}

/// Encodes a feature set into [`OP_FEATURES`] chunk payloads of at most
/// `budget` feature bytes each (one feature per chunk when a feature is
/// larger than the budget).
pub fn encode_feature_chunks(features: &[FeatureObject], budget: usize) -> FeatureChunks {
    // Headers are patched at the end, once the fingerprint and the chunk
    // total are known.
    let mut sealed: Vec<(Vec<u8>, u32)> = Vec::new();
    let mut chunk = vec![0; CHUNK_HEADER_BYTES];
    let mut count = 0u32;
    for feature in features {
        let len = MIN_FEATURE_BYTES + TERM_BYTES * feature.keywords.len();
        if count > 0 && chunk.len() - CHUNK_HEADER_BYTES + len > budget {
            sealed.push((
                std::mem::replace(&mut chunk, vec![0; CHUNK_HEADER_BYTES]),
                count,
            ));
            count = 0;
        }
        put_u64(&mut chunk, feature.id);
        put_f64(&mut chunk, feature.location.x);
        put_f64(&mut chunk, feature.location.y);
        put_u32(&mut chunk, feature.keywords.len() as u32);
        for term in feature.keywords.iter() {
            put_u32(&mut chunk, term.0);
        }
        count += 1;
    }
    sealed.push((chunk, count));
    let fingerprint = sealed.iter().fold(FNV_OFFSET_BASIS, |hash, (chunk, _)| {
        fnv1a_extend(hash, &chunk[CHUNK_HEADER_BYTES..])
    });
    let total = sealed.len() as u32;
    let chunks = sealed
        .into_iter()
        .enumerate()
        .map(|(index, (mut chunk, count))| {
            let mut header = Vec::with_capacity(CHUNK_HEADER_BYTES);
            put_u64(&mut header, fingerprint);
            put_u32(&mut header, index as u32);
            put_u32(&mut header, total);
            put_u32(&mut header, count);
            chunk[..CHUNK_HEADER_BYTES].copy_from_slice(&header);
            // The chunks live as long as the engine; drop growth slack.
            chunk.shrink_to_fit();
            chunk
        })
        .collect();
    FeatureChunks {
        fingerprint,
        chunks,
    }
}

/// One decoded [`OP_FEATURES`] chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturesChunk {
    /// The set this chunk belongs to.
    pub fingerprint: u64,
    /// Position of this chunk in the set (`< total`).
    pub index: u32,
    /// Chunks in the set (≥ 1).
    pub total: u32,
    /// The chunk's features, in store order.
    pub features: Vec<FeatureObject>,
}

/// Decodes one [`OP_FEATURES`] payload. Every shipped count is checked
/// against the bytes that remain before it sizes an allocation.
pub fn decode_features_chunk(payload: &[u8]) -> Result<FeaturesChunk, CodecError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.u64()?;
    let index = r.u32()?;
    let total = r.u32()?;
    if index >= total {
        return Err(CodecError::invalid(format!(
            "feature chunk {index} of a set of {total}"
        )));
    }
    let num_features = r.count(MIN_FEATURE_BYTES)?;
    let mut features = Vec::with_capacity(num_features);
    for _ in 0..num_features {
        let id = r.u64()?;
        let (x, y) = (r.f64()?, r.f64()?);
        let num_terms = r.count(TERM_BYTES)?;
        let mut terms = Vec::with_capacity(num_terms);
        for _ in 0..num_terms {
            terms.push(r.u32()?);
        }
        features.push(FeatureObject::new(
            id,
            spq_spatial::Point::new(x, y),
            KeywordSet::from_ids(terms),
        ));
    }
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after feature chunk"));
    }
    Ok(FeaturesChunk {
        fingerprint,
        index,
        total,
        features,
    })
}

/// Encodes an [`OP_PROVISION`] payload: the shard id, the fingerprint of
/// the feature set the shard is evaluated against (shipped separately,
/// once per worker, as [`OP_FEATURES`] chunks), the executor configuration
/// and the shard's data slice — each object with its **global** store
/// index, so gather records resolve without any per-shard coordinate
/// space.
pub fn encode_provision(
    shard_id: u32,
    fingerprint: u64,
    exec: &SpqExecutor,
    first_global_index: u32,
    data: &[DataObject],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.len() * DATA_RECORD_BYTES);
    put_u32(&mut out, shard_id);
    put_u64(&mut out, fingerprint);
    encode_executor(exec, &mut out);
    put_u32(&mut out, data.len() as u32);
    for (i, object) in data.iter().enumerate() {
        put_u32(&mut out, first_global_index + i as u32);
        put_u64(&mut out, object.id);
        put_f64(&mut out, object.location.x);
        put_f64(&mut out, object.location.y);
    }
    out
}

/// One decoded [`OP_PROVISION`] payload.
#[derive(Debug)]
pub struct Provision {
    /// The shard to install.
    pub shard_id: u32,
    /// The feature set the shard belongs to.
    pub fingerprint: u64,
    /// The executor configuration the shard engine is built with.
    pub exec: SpqExecutor,
    /// Data-object id → index in the manager's global store.
    pub id_to_index: HashMap<ObjectId, u32>,
    /// The shard's data slice.
    pub data: Vec<DataObject>,
}

/// Decodes an [`OP_PROVISION`] payload. The shipped object count is
/// checked against the bytes that remain before it sizes an allocation.
pub fn decode_provision(payload: &[u8]) -> Result<Provision, CodecError> {
    let mut r = ByteReader::new(payload);
    let shard_id = r.u32()?;
    let fingerprint = r.u64()?;
    let exec = decode_executor(&mut r)?;
    let num_data = r.count(DATA_RECORD_BYTES)?;
    let mut id_to_index = HashMap::with_capacity(num_data);
    let mut data = Vec::with_capacity(num_data);
    for _ in 0..num_data {
        let global_index = r.u32()?;
        let id = r.u64()?;
        let (x, y) = (r.f64()?, r.f64()?);
        if id_to_index.insert(id, global_index).is_some() {
            return Err(CodecError::invalid(format!(
                "duplicate data object id {id} in provision"
            )));
        }
        data.push(DataObject::new(id, spq_spatial::Point::new(x, y)));
    }
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after provision"));
    }
    Ok(Provision {
        shard_id,
        fingerprint,
        exec,
        id_to_index,
        data,
    })
}

/// Encodes an [`OP_SHARD_QUERY`] payload: the shard id, the query and the
/// result-relevant per-request options, the trace flag included (a traced
/// request is answered by a job on the worker, and its [`JobStats`] come
/// back in the reply). The worker budget is **not** shipped — shard jobs
/// always run sequentially, exactly as the in-process scatter does (the
/// scatter width is the parallelism).
pub(crate) fn encode_shard_query(
    shard_id: u32,
    query: &SpqQuery,
    options: &QueryOptions,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, shard_id);
    put_u64(&mut out, query.k as u64);
    put_f64(&mut out, query.radius);
    put_u8(&mut out, similarity_to_u8(query.similarity));
    put_u32(&mut out, query.keywords.len() as u32);
    for term in query.keywords.iter() {
        put_u32(&mut out, term.0);
    }
    match options.algorithm {
        None => put_u8(&mut out, u8::MAX),
        Some(a) => put_u8(&mut out, algorithm_to_u8(a)),
    }
    match options.keyword_pruning {
        None => put_u8(&mut out, 2),
        Some(enabled) => put_u8(&mut out, enabled as u8),
    }
    put_u8(&mut out, options.trace as u8);
    out
}

pub(crate) fn decode_shard_query(
    payload: &[u8],
) -> Result<(u32, SpqQuery, QueryOptions), CodecError> {
    let mut r = ByteReader::new(payload);
    let shard_id = r.u32()?;
    let k = r.u64()? as usize;
    let radius = r.f64()?;
    if k == 0 || !radius.is_finite() || radius < 0.0 {
        return Err(CodecError::invalid(format!(
            "degenerate shard query (k={k}, r={radius})"
        )));
    }
    let similarity = similarity_from_u8(r.u8()?)?;
    let num_terms = r.count(TERM_BYTES)?;
    if num_terms == 0 {
        return Err(CodecError::invalid("shard query with no keywords"));
    }
    let mut terms = Vec::with_capacity(num_terms);
    for _ in 0..num_terms {
        terms.push(r.u32()?);
    }
    let algorithm = match r.u8()? {
        u8::MAX => None,
        tag => Some(algorithm_from_u8(tag)?),
    };
    let keyword_pruning = match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        2 => None,
        other => {
            return Err(CodecError::invalid(format!(
                "unknown keyword-pruning tag {other}"
            )))
        }
    };
    let trace = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(CodecError::invalid(format!("unknown trace tag {other}"))),
    };
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard query"));
    }
    let query = SpqQuery::with_similarity(k, radius, KeywordSet::from_ids(terms), similarity);
    let options = QueryOptions {
        algorithm,
        workers: None,
        keyword_pruning,
        trace,
    };
    Ok((shard_id, query, options))
}

/// Encodes an [`OP_SHARD_RESULT`] payload: the plan-cache outcome, the
/// gather records ([`wire::RECORD_BYTES`]-byte each, global indexes) and
/// the shard job's [`JobStats`].
pub(crate) fn encode_shard_result(plan_hit: bool, records: &[u8], stats: &JobStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() + 64);
    put_u8(&mut out, plan_hit as u8);
    put_bytes(&mut out, records);
    encode_job_stats(stats, &mut out);
    out
}

pub(crate) fn decode_shard_result(payload: &[u8]) -> Result<(bool, Vec<u8>, JobStats), CodecError> {
    let mut r = ByteReader::new(payload);
    let plan_hit = r.u8()? != 0;
    let records = r.bytes()?.to_vec();
    if !records.len().is_multiple_of(wire::RECORD_BYTES) {
        return Err(CodecError::invalid(format!(
            "gather buffer of {} bytes is not a whole number of records",
            records.len()
        )));
    }
    let stats = decode_job_stats(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard result"));
    }
    Ok((plan_hit, records, stats))
}

/// Encodes an [`OP_SHARD_STATUS_OK`] payload: the hosted shard ids,
/// ascending.
pub(crate) fn encode_shard_status(shard_ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + shard_ids.len() * 4);
    put_u32(&mut out, shard_ids.len() as u32);
    for &s in shard_ids {
        put_u32(&mut out, s);
    }
    out
}

pub(crate) fn decode_shard_status(payload: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut r = ByteReader::new(payload);
    let count = r.count(4)?;
    let mut shards = Vec::with_capacity(count);
    for _ in 0..count {
        shards.push(r.u32()?);
    }
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard status"));
    }
    Ok(shards)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct HostedShard {
    engine: QueryEngine,
    id_to_index: HashMap<ObjectId, u32>,
}

/// One assembled feature set: the array and the keyword index every
/// shard of the set hosted here shares.
struct FeatureSet {
    features: Arc<[FeatureObject]>,
    index: Arc<KeywordIndex>,
}

/// A feature set whose chunks are still arriving.
struct IncomingSet {
    fingerprint: u64,
    total: u32,
    /// Chunks appended so far (= the index of the chunk expected next).
    received: u32,
    features: Vec<FeatureObject>,
}

#[derive(Default)]
struct HostState {
    // BTreeMaps, not HashMaps: `status()` serializes the hosted shard
    // ids, and this module's wire output must never depend on hash order
    // (enforced by spq-lint's determinism/unordered-iter).
    shards: BTreeMap<u32, HostedShard>,
    /// Assembled sets by fingerprint. The engines of `shards` hold clones
    /// of a set's two `Arc`s, so a set whose index has no other holder
    /// serves no shard.
    sets: BTreeMap<u64, FeatureSet>,
    incoming: Option<IncomingSet>,
}

impl HostState {
    /// Drops every set no hosted engine holds a clone of.
    fn drop_unreferenced_sets(&mut self) {
        self.sets.retain(|_, set| Arc::strong_count(&set.index) > 1);
    }
}

/// What a worker answers to an [`OP_PROVISION`] naming a feature set it
/// does not hold; the manager recognizes it, ships the set and retries.
const UNKNOWN_FEATURE_SET: &str = "unknown feature set";

/// The worker-side shard host: a [`FrameHandler`] answering
/// [`OP_FEATURES`] (assemble a feature set from its chunk frames; on the
/// last chunk build the one feature array and the one keyword index every
/// shard of that set will share), [`OP_PROVISION`] (build a shard engine
/// from a shipped data slice over an assembled set), [`OP_SHARD_QUERY`]
/// (evaluate a query against a hosted shard and reply with gather
/// records) and [`OP_SHARD_STATUS`] (report which shards are hosted, so a
/// re-admitting manager knows which copies are still warm). This is what
/// the `spq-worker` binary and the in-process workers of
/// [`RemoteEngine::self_hosted`] serve.
#[derive(Default)]
pub struct ShardHost {
    state: Mutex<HostState>,
}

impl ShardHost {
    /// Creates an empty host; feature sets arrive via [`OP_FEATURES`]
    /// frames, shards via [`OP_PROVISION`] frames.
    pub fn new() -> Self {
        Self::default()
    }

    fn features(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let chunk =
            decode_features_chunk(payload).map_err(|e| format!("bad features payload: {e}"))?;
        if let Some(set) = self.append_chunk(chunk)? {
            // Last chunk: build the shared array and index outside the
            // lock, so shards already hosted keep answering meanwhile.
            let features: Arc<[FeatureObject]> = set.features.into();
            let index = Arc::new(KeywordIndex::build(&features));
            let mut state = self.state.lock();
            // At most one set waits for its first shard.
            state.drop_unreferenced_sets();
            state
                .sets
                .insert(set.fingerprint, FeatureSet { features, index });
        }
        Ok(Vec::new())
    }

    /// Appends `chunk` to the set being assembled and returns the set
    /// once its last chunk is in. Chunk 0 opens a set (abandoning one
    /// left half-shipped); any other chunk must be the next of the open
    /// set, or the assembly is abandoned with a typed error.
    fn append_chunk(&self, chunk: FeaturesChunk) -> Result<Option<IncomingSet>, String> {
        let mut state = self.state.lock();
        if chunk.index == 0 {
            state.incoming = Some(IncomingSet {
                fingerprint: chunk.fingerprint,
                total: chunk.total,
                received: 0,
                features: Vec::new(),
            });
        }
        let expected = state.incoming.as_mut().filter(|set| {
            (set.fingerprint, set.total, set.received)
                == (chunk.fingerprint, chunk.total, chunk.index)
        });
        let Some(set) = expected else {
            state.incoming = None;
            return Err(format!(
                "feature chunk {}/{} of set {:#018x} is out of sequence",
                chunk.index, chunk.total, chunk.fingerprint
            ));
        };
        set.features.extend(chunk.features);
        set.received += 1;
        Ok(if set.received == set.total {
            state.incoming.take()
        } else {
            None
        })
    }

    fn provision(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let p = decode_provision(payload).map_err(|e| format!("bad provision payload: {e}"))?;
        let (features, index) = {
            let state = self.state.lock();
            let set = state.sets.get(&p.fingerprint).ok_or_else(|| {
                format!(
                    "{UNKNOWN_FEATURE_SET} {:#018x} for shard {}",
                    p.fingerprint, p.shard_id
                )
            })?;
            (Arc::clone(&set.features), Arc::clone(&set.index))
        };
        let dataset = SharedDataset::with_shared_features(p.data, features);
        let engine = QueryEngine::with_shared_index(p.exec, dataset, index);
        let mut state = self.state.lock();
        state.shards.insert(
            p.shard_id,
            HostedShard {
                engine,
                id_to_index: p.id_to_index,
            },
        );
        // A set goes when the last shard hosted over it was just replaced.
        state.drop_unreferenced_sets();
        Ok(Vec::new())
    }

    fn query(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (shard_id, query, options) =
            decode_shard_query(payload).map_err(|e| format!("bad shard query payload: {e}"))?;
        let state = self.state.lock();
        let shard = state
            .shards
            .get(&shard_id)
            .ok_or_else(|| format!("shard {shard_id} is not provisioned on this worker"))?;
        let (result, plan_hit) = shard
            .engine
            .run(&query, &options, ExecutionMode::Sequential)
            .map_err(|e| format!("shard {shard_id} query failed: {e}"))?;
        let records = wire::encode_results(&result.top_k, &shard.id_to_index);
        Ok(encode_shard_result(plan_hit, &records, &result.stats))
    }

    fn status(&self) -> Vec<u8> {
        // BTreeMap keys are already ascending, the order the codec
        // documents.
        let hosted: Vec<u32> = self.state.lock().shards.keys().copied().collect();
        encode_shard_status(&hosted)
    }

    /// Number of shards currently hosted (for tests and diagnostics).
    pub fn hosted_shards(&self) -> usize {
        self.state.lock().shards.len()
    }

    /// Number of assembled feature sets currently held (for tests and
    /// diagnostics): one per distinct fingerprint among the hosted
    /// shards, plus at most one shipped ahead of its first shard.
    pub fn feature_sets(&self) -> usize {
        self.state.lock().sets.len()
    }
}

impl std::fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHost")
            .field("hosted_shards", &self.hosted_shards())
            .field("feature_sets", &self.feature_sets())
            .finish()
    }
}

impl FrameHandler for ShardHost {
    fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
        match opcode {
            OP_FEATURES => Ok(Some((OP_FEATURES_OK, self.features(payload)?))),
            OP_PROVISION => Ok(Some((OP_PROVISION_OK, self.provision(payload)?))),
            OP_SHARD_QUERY => Ok(Some((OP_SHARD_RESULT, self.query(payload)?))),
            OP_SHARD_STATUS => Ok(Some((OP_SHARD_STATUS_OK, self.status()))),
            _ => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------
// Manager side: membership
// ---------------------------------------------------------------------

/// Where one worker stands in the membership state machine (see the
/// [module docs](self) for the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// In rotation: serves the shards placed on it.
    Live,
    /// One transport failure seen; retried once before exclusion.
    Suspect,
    /// Out of rotation; the probe scheduler pings it every tick.
    Excluded,
    /// Excluded, but with a streak of successful probes building toward
    /// re-admission.
    Probing,
}

impl WorkerState {
    /// True when the worker may be asked to serve (live or suspect).
    pub fn is_available(self) -> bool {
        matches!(self, WorkerState::Live | WorkerState::Suspect)
    }
}

/// Tuning knobs for the membership layer. All defaults are safe for
/// production; tests tighten them for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// How many workers hold a warm copy of each shard (capped by the
    /// number of available workers). With ≥ 2, a worker death fails over
    /// by flipping the placement pointer instead of re-shipping the
    /// shard's dataset.
    pub replication_factor: usize,
    /// Probe excluded workers on every `n`-th [`RemoteEngine::tick`].
    pub probe_interval_ticks: u64,
    /// Consecutive successful probes an excluded worker needs before
    /// re-admission — the hysteresis that keeps a flapping worker from
    /// thrashing the placement.
    pub readmit_threshold: u32,
    /// Upper bound on provision round-trips the rebalancer performs per
    /// tick, so a bulk migration never stalls serving.
    pub max_moves_per_tick: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            replication_factor: 2,
            probe_interval_ticks: 1,
            readmit_threshold: 2,
            max_moves_per_tick: 2,
        }
    }
}

impl MembershipConfig {
    /// Applies the [`SPQ_REPLICATION_FACTOR`] environment override.
    fn from_env() -> Result<Self, SpqError> {
        let mut config = Self::default();
        if let Ok(raw) = std::env::var(SPQ_REPLICATION_FACTOR) {
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                config.replication_factor = match trimmed.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(SpqError::invalid_config(format!(
                            "{SPQ_REPLICATION_FACTOR}: bad replication factor {raw:?} (want an \
                             integer >= 1)"
                        )))
                    }
                };
            }
        }
        Ok(config)
    }
}

/// The placement and state book-keeping behind one mutex: worker states,
/// probe streaks, the per-shard primary pointer and the warm-replica map.
#[derive(Debug)]
struct Membership {
    states: Vec<WorkerState>,
    probe_streak: Vec<u32>,
    /// Which worker answers each shard's queries.
    primary: Vec<usize>,
    /// Workers believed to hold a warm, current copy of each shard
    /// (provision payloads are immutable, so any installed copy stays
    /// valid). Sorted, and pruned of a worker the moment it is excluded.
    replicas: Vec<Vec<usize>>,
    /// Ticks elapsed (drives the probe interval).
    ticks: u64,
}

impl Membership {
    fn available(&self, w: usize) -> bool {
        self.states[w].is_available()
    }

    fn available_workers(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&w| self.available(w))
            .collect()
    }

    /// The canonical layout: shard `s` belongs on the available workers
    /// `avail[(s + j) % avail.len()]` for `j in 0..r` — the PR 5
    /// placement generalized to replicas and to a worker set that grows
    /// and shrinks. `targets[0]` is the desired primary.
    fn targets(&self, shard: usize, replication_factor: usize) -> Vec<usize> {
        let avail = self.available_workers();
        if avail.is_empty() {
            return Vec::new();
        }
        let r = replication_factor.min(avail.len());
        (0..r).map(|j| avail[(shard + j) % avail.len()]).collect()
    }

    fn add_replica(&mut self, shard: usize, w: usize) {
        if let Err(at) = self.replicas[shard].binary_search(&w) {
            self.replicas[shard].insert(at, w);
        }
    }

    fn purge_worker(&mut self, w: usize) {
        for set in &mut self.replicas {
            set.retain(|&x| x != w);
        }
    }
}

/// A snapshot of the membership layer, for observability and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Per-worker state, worker order.
    pub states: Vec<WorkerState>,
    /// Per-shard primary worker.
    pub primaries: Vec<usize>,
    /// Per-shard warm-replica holders (sorted; includes the primary once
    /// placement has settled).
    pub replicas: Vec<Vec<usize>>,
    /// Ticks the engine has seen.
    pub ticks: u64,
}

/// What one [`RemoteEngine::tick`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Excluded workers probed this tick.
    pub probes: usize,
    /// Probes that came back healthy.
    pub probe_successes: usize,
    /// Workers re-admitted this tick (hysteresis satisfied).
    pub readmitted: Vec<usize>,
    /// Provision round-trips the rebalancer performed (≤ the budget).
    pub provisions: usize,
    /// Primary pointers flipped to restore the canonical layout.
    pub primary_flips: usize,
}

impl TickReport {
    /// True when the tick had nothing to do: no excluded workers to
    /// probe and a placement already matching the canonical layout.
    pub fn quiescent(&self) -> bool {
        self.probes == 0
            && self.probe_successes == 0
            && self.readmitted.is_empty()
            && self.provisions == 0
            && self.primary_flips == 0
    }
}

struct WorkerSlot {
    addr: String,
    client: Mutex<WorkerClient>,
}

impl WorkerSlot {
    fn new(addr: String, config: ClientConfig) -> Self {
        Self {
            client: Mutex::new(WorkerClient::new(addr.clone(), config)),
            addr,
        }
    }
}

impl std::fmt::Debug for WorkerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSlot")
            .field("addr", &self.addr)
            .finish()
    }
}

/// How one attempt at a worker failed, from the retry loop's viewpoint.
enum AttemptError {
    /// The transport failed — the worker may be dead; retrying elsewhere
    /// can recover.
    Transport(String),
    /// The worker reported a typed, deterministic failure — retrying would
    /// fail identically everywhere.
    Fatal(SpqError),
}

/// Cumulative membership/recovery counters (all monotone).
#[derive(Debug, Default)]
struct RemoteCounters {
    queries: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    keyword_probes: AtomicU64,
    keyword_hits: AtomicU64,
    retries: AtomicU64,
    warm_failovers: AtomicU64,
    cold_reprovisions: AtomicU64,
    readmissions: AtomicU64,
    health_probes: AtomicU64,
    rebalance_moves: AtomicU64,
    provisions_sent: AtomicU64,
    feature_sets_sent: AtomicU64,
}

/// Per-shard recovery outcome of one scatter leg.
#[derive(Default)]
struct ShardRecovery {
    retries: u64,
    warm: u64,
    cold: u64,
}

/// The engine behind [`crate::service::Backend::Remote`]: the sharded
/// scatter/gather with every shard behind a TCP worker, plus the
/// membership layer described in the [module docs](self) — retry and
/// warm/cold failover on the query path, probe-driven re-admission and
/// budgeted rebalancing on the [`tick`](Self::tick) path.
///
/// Build with [`build`](Self::build) (environment-driven),
/// [`self_hosted`](Self::self_hosted) (in-process workers) or
/// [`connect`](Self::connect) (external workers), then serve typed
/// requests exactly like the other engines.
#[derive(Debug)]
pub struct RemoteEngine {
    dataset: SharedDataset,
    exec: SpqExecutor,
    config: MembershipConfig,
    client_config: ClientConfig,
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
    /// The feature set, encoded once: every worker — and every later cold
    /// re-provision — is sent these same chunk buffers.
    features: FeatureChunks,
    /// Per-shard [`OP_PROVISION`] payload (the shard's data slice; no
    /// features), kept for failover re-provisioning.
    shard_payloads: Vec<Vec<u8>>,
    membership: Mutex<Membership>,
    /// Whether each shard owns any data objects.
    shard_nonempty: Vec<bool>,
    /// Terms carried by at least one feature (the manager-side keyword
    /// probe — same semantics as the engines' build-once keyword index).
    term_index: HashSet<u32>,
    counters: RemoteCounters,
    scatter_workers: usize,
    /// In-process worker servers under [`self_hosted`](Self::self_hosted);
    /// empty when workers are external. Held so they serve for the
    /// engine's lifetime and shut down on drop.
    hosts: Vec<WorkerServer>,
}

impl RemoteEngine {
    /// Builds the engine the way [`crate::service::SpqService::build`]
    /// does for `remote:N`: external workers when [`SPQ_REMOTE_WORKERS`]
    /// is set (the list length must equal `workers`), in-process workers
    /// otherwise. [`SPQ_REPLICATION_FACTOR`] overrides the default
    /// replication factor either way.
    pub fn build(
        executor: SpqExecutor,
        dataset: SharedDataset,
        workers: usize,
    ) -> Result<Self, SpqError> {
        let config = MembershipConfig::from_env()?;
        match std::env::var(SPQ_REMOTE_WORKERS) {
            Ok(list) if !list.trim().is_empty() => {
                let addrs = parse_worker_addrs(&list)?;
                if addrs.len() != workers {
                    return Err(SpqError::invalid_config(format!(
                        "remote:{workers} needs {workers} workers but {SPQ_REMOTE_WORKERS} \
                         names {} ({list:?})",
                        addrs.len()
                    )));
                }
                Self::connect_with(executor, dataset, &addrs, config)
            }
            _ => Self::self_hosted_with(executor, dataset, workers, config),
        }
    }

    /// [`self_hosted`](Self::self_hosted) with default membership tuning.
    pub fn self_hosted(
        executor: SpqExecutor,
        dataset: SharedDataset,
        workers: usize,
    ) -> Result<Self, SpqError> {
        Self::self_hosted_with(executor, dataset, workers, MembershipConfig::default())
    }

    /// Spawns `workers` in-process [`WorkerServer`]s (real localhost
    /// sockets, ephemeral ports, non-fatal fault plans) and provisions the
    /// shards onto them under `config`.
    pub fn self_hosted_with(
        executor: SpqExecutor,
        dataset: SharedDataset,
        workers: usize,
        config: MembershipConfig,
    ) -> Result<Self, SpqError> {
        if workers == 0 {
            return Err(SpqError::invalid_config(
                "remote backend needs at least one worker",
            ));
        }
        let mut hosts = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let host =
                WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false)
                    .map_err(|e| SpqError::remote(format!("cannot bind in-process worker: {e}")))?;
            addrs.push(host.addr().to_string());
            hosts.push(host);
        }
        Self::with_workers(
            executor,
            dataset,
            &addrs,
            hosts,
            ClientConfig::fast(),
            config,
        )
    }

    /// [`connect_with`](Self::connect_with) with default membership
    /// tuning.
    pub fn connect(
        executor: SpqExecutor,
        dataset: SharedDataset,
        addrs: &[String],
    ) -> Result<Self, SpqError> {
        Self::connect_with(executor, dataset, addrs, MembershipConfig::default())
    }

    /// Connects to external workers (e.g. `spq-worker` processes), one
    /// shard per address, and provisions the shards (plus replicas) onto
    /// them under `config`.
    pub fn connect_with(
        executor: SpqExecutor,
        dataset: SharedDataset,
        addrs: &[String],
        config: MembershipConfig,
    ) -> Result<Self, SpqError> {
        Self::with_workers(
            executor,
            dataset,
            addrs,
            Vec::new(),
            ClientConfig::default(),
            config,
        )
    }

    fn with_workers(
        executor: SpqExecutor,
        dataset: SharedDataset,
        addrs: &[String],
        hosts: Vec<WorkerServer>,
        client_config: ClientConfig,
        config: MembershipConfig,
    ) -> Result<Self, SpqError> {
        if addrs.is_empty() {
            return Err(SpqError::invalid_config(
                "remote backend needs at least one worker",
            ));
        }
        if config.replication_factor == 0 {
            return Err(SpqError::invalid_config(
                "replication factor must be at least 1",
            ));
        }
        let data = dataset.data();
        let mut seen = HashMap::with_capacity(data.len());
        for (i, object) in data.iter().enumerate() {
            if seen.insert(object.id, i).is_some() {
                return Err(SpqError::invalid_config(format!(
                    "duplicate data object id {} — the remote wire format resolves by id",
                    object.id
                )));
            }
        }
        let num_shards = addrs.len();
        let num_workers = addrs.len();
        let features = encode_feature_chunks(dataset.features(), FEATURES_CHUNK_BYTES);
        let mut shard_payloads = Vec::with_capacity(num_shards);
        let mut shard_nonempty = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let start = s * data.len() / num_shards;
            let end = (s + 1) * data.len() / num_shards;
            shard_payloads.push(encode_provision(
                s as u32,
                features.fingerprint,
                &executor,
                start as u32,
                &data[start..end],
            ));
            shard_nonempty.push(end > start);
        }
        let term_index = dataset
            .features()
            .iter()
            .flat_map(|f| f.keywords.iter().map(|t| t.0))
            .collect();
        let workers: Vec<Arc<WorkerSlot>> = addrs
            .iter()
            .map(|a| Arc::new(WorkerSlot::new(a.clone(), client_config)))
            .collect();
        let scatter_workers = executor.cluster_config().workers.max(1);
        let engine = Self {
            dataset,
            exec: executor,
            config,
            client_config,
            workers: Mutex::new(workers),
            features,
            shard_payloads,
            membership: Mutex::new(Membership {
                states: vec![WorkerState::Live; num_workers],
                probe_streak: vec![0; num_workers],
                primary: (0..num_shards).map(|s| s % num_workers).collect(),
                replicas: vec![Vec::new(); num_shards],
                ticks: 0,
            }),
            shard_nonempty,
            term_index,
            counters: RemoteCounters::default(),
            scatter_workers,
            hosts,
        };
        // Initial placement: shard s primary on worker s, warm replicas
        // on the next replication_factor − 1 workers. Every worker is
        // provisioned at the same time, on a thread of its own: the
        // feature set once, then the shards it hosts, in shard order.
        // Build is strict — a worker that cannot be provisioned fails the
        // build instead of starting life on the exclusion list.
        let replicas_per_shard = engine.config.replication_factor.min(num_workers);
        let mut hosted = vec![Vec::new(); num_workers];
        for s in 0..num_shards {
            for j in 0..replicas_per_shard {
                hosted[(s + j) % num_workers].push(s);
            }
        }
        run_tasks(num_workers, num_workers, |w| {
            engine
                .ship_features(w)
                .and_then(|()| hosted[w].iter().try_for_each(|&s| engine.install(s, w)))
                .map_err(|e| match e {
                    AttemptError::Transport(message) => SpqError::WorkerLost { worker: w, message },
                    AttemptError::Fatal(e) => e,
                })
        })
        .map_err(|p| SpqError::Worker {
            message: format!("provisioning worker {}: {}", p.task_index, p.message),
        })?
        .into_iter()
        .collect::<Result<(), SpqError>>()?;
        Ok(engine)
    }

    /// Number of registered workers (excluded ones included; initially
    /// = number of shards, grows with [`admit`](Self::admit)).
    pub fn num_workers(&self) -> usize {
        self.workers.lock().len()
    }

    /// Number of shards (fixed at build time).
    pub fn num_shards(&self) -> usize {
        self.shard_payloads.len()
    }

    /// The global store the gather resolves against.
    pub fn dataset(&self) -> &SharedDataset {
        &self.dataset
    }

    /// The executor configuration the shards were provisioned with.
    pub fn executor(&self) -> &SpqExecutor {
        &self.exec
    }

    /// The membership tuning this engine runs under.
    pub fn membership_config(&self) -> MembershipConfig {
        self.config
    }

    /// The worker addresses, in worker order.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.lock().iter().map(|w| w.addr.clone()).collect()
    }

    /// True when the workers are in-process servers spawned by
    /// [`self_hosted`](Self::self_hosted) (as opposed to external
    /// processes named by [`SPQ_REMOTE_WORKERS`]).
    pub fn is_self_hosted(&self) -> bool {
        !self.hosts.is_empty()
    }

    /// Cumulative shard re-dispatches after worker failures, across all
    /// queries served so far.
    pub fn retries(&self) -> u64 {
        self.counters.retries.load(Ordering::Relaxed)
    }

    /// Workers currently out of rotation (state `Excluded` or `Probing`).
    pub fn excluded_workers(&self) -> usize {
        let m = self.membership.lock();
        (0..m.states.len()).filter(|&w| !m.available(w)).count()
    }

    /// Cumulative shard failovers served by flipping the placement
    /// pointer to a warm replica (no provision round-trip).
    pub fn warm_failovers(&self) -> u64 {
        self.counters.warm_failovers.load(Ordering::Relaxed)
    }

    /// Cumulative shard failovers that had to re-ship the provision
    /// payload to a survivor.
    pub fn cold_reprovisions(&self) -> u64 {
        self.counters.cold_reprovisions.load(Ordering::Relaxed)
    }

    /// Cumulative workers re-admitted after probe hysteresis.
    pub fn readmissions(&self) -> u64 {
        self.counters.readmissions.load(Ordering::Relaxed)
    }

    /// Cumulative health probes sent by [`tick`](Self::tick).
    pub fn health_probes(&self) -> u64 {
        self.counters.health_probes.load(Ordering::Relaxed)
    }

    /// Cumulative provision round-trips the rebalancer performed.
    pub fn rebalance_moves(&self) -> u64 {
        self.counters.rebalance_moves.load(Ordering::Relaxed)
    }

    /// Cumulative [`OP_PROVISION`] round-trips attempted (build,
    /// query-path cold failover and rebalancing combined) — the counter
    /// that proves a warm failover shipped no data.
    pub fn provisions_sent(&self) -> u64 {
        self.counters.provisions_sent.load(Ordering::Relaxed)
    }

    /// Cumulative feature-set shipments (every [`OP_FEATURES`] chunk of
    /// the set to one worker counts once): one per worker at build, one
    /// more whenever an install finds a worker that does not hold the
    /// set — a restarted process, or one admitted later.
    pub fn feature_sets_sent(&self) -> u64 {
        self.counters.feature_sets_sent.load(Ordering::Relaxed)
    }

    /// Total frame bytes exchanged with workers (both directions, headers
    /// included), across provisioning, probes and queries.
    pub fn traffic_bytes(&self) -> u64 {
        let slots: Vec<Arc<WorkerSlot>> = self.workers.lock().clone();
        slots
            .iter()
            .map(|w| {
                let c = w.client.lock();
                c.bytes_sent() + c.bytes_received()
            })
            .sum()
    }

    /// A point-in-time view of the membership layer: worker states,
    /// per-shard primaries and warm-replica holders.
    pub fn membership(&self) -> MembershipView {
        let m = self.membership.lock();
        MembershipView {
            states: m.states.clone(),
            primaries: m.primary.clone(),
            replicas: m.replicas.clone(),
            ticks: m.ticks,
        }
    }

    /// Engine-level cumulative counters in the facade's
    /// [`MetricsSnapshot`] shape, remote membership counters included.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.counters.queries.load(Ordering::Relaxed),
            plan_cache_hits: self.counters.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.counters.plan_cache_misses.load(Ordering::Relaxed),
            keyword_probes: self.counters.keyword_probes.load(Ordering::Relaxed),
            keyword_hits: self.counters.keyword_hits.load(Ordering::Relaxed),
            remote_retries: self.retries(),
            excluded_workers: self.excluded_workers() as u64,
            warm_failovers: self.warm_failovers(),
            cold_reprovisions: self.cold_reprovisions(),
            readmissions: self.readmissions(),
            // Evictions and kernel work happen in the workers' engines.
            ..MetricsSnapshot::default()
        }
    }

    /// Checks the replica-placement invariant the membership layer
    /// converges to: every shard tracked on at least
    /// `min(replication_factor, available_workers)` available workers,
    /// with an available primary that holds a warm copy. Holds whenever
    /// the placement has settled (a [`tick`](Self::tick) reported
    /// [`quiescent`](TickReport::quiescent)); transiently violated
    /// mid-recovery, which is exactly what the rebalancer repairs.
    pub fn check_replication(&self) -> Result<(), String> {
        let m = self.membership.lock();
        let avail = m.available_workers();
        if avail.is_empty() {
            return Err("no available workers".to_owned());
        }
        let want = self.config.replication_factor.min(avail.len());
        for s in 0..m.primary.len() {
            let holders = m.replicas[s].iter().filter(|&&w| m.available(w)).count();
            if holders < want {
                return Err(format!(
                    "shard {s} warm on {holders} available workers, want >= {want}"
                ));
            }
            let p = m.primary[s];
            if !m.available(p) {
                return Err(format!("shard {s} primary {p} is not available"));
            }
            if !m.replicas[s].contains(&p) {
                return Err(format!("shard {s} primary {p} holds no warm copy"));
            }
        }
        Ok(())
    }

    /// Installs a [`FaultPlan`] on worker `worker` (the fault-injection
    /// seam `tests/remote_faults.rs` drives). The plan arms on the
    /// worker's *next* responses; installing resets its response counter.
    pub fn inject_fault(&self, worker: usize, plan: &FaultPlan) -> Result<(), SpqError> {
        let mut payload = Vec::new();
        plan.encode(&mut payload);
        let slot = self.slot(worker);
        let mut client = slot.client.lock();
        match client.call(OP_SET_FAULT, &payload) {
            Ok((OP_FAULT_OK, _)) => Ok(()),
            Ok((op, _)) => Err(SpqError::remote(format!(
                "worker {worker} answered opcode {op} to a fault installation"
            ))),
            Err(e) => Err(SpqError::remote(format!(
                "cannot install fault on worker {worker}: {e}"
            ))),
        }
    }

    fn slot(&self, w: usize) -> Arc<WorkerSlot> {
        Arc::clone(&self.workers.lock()[w])
    }

    /// One framed call to worker `w`; see [`classify_reply`](Self::classify_reply).
    fn call_worker(
        &self,
        w: usize,
        opcode: u16,
        payload: &[u8],
        ok_opcode: u16,
    ) -> Result<Vec<u8>, AttemptError> {
        let slot = self.slot(w);
        let reply = slot.client.lock().call(opcode, payload);
        Self::classify_reply(w, reply, ok_opcode)
    }

    /// Maps worker `w`'s reply to the retry loop's vocabulary: `Fatal`
    /// for typed worker-reported errors (never retried), `Transport` for
    /// anything that smells like a dead worker.
    fn classify_reply(
        w: usize,
        reply: Result<(u16, Vec<u8>), RemoteError>,
        ok_opcode: u16,
    ) -> Result<Vec<u8>, AttemptError> {
        match reply {
            Ok((op, resp)) if op == ok_opcode => Ok(resp),
            Ok((OP_ERROR, resp)) => Err(AttemptError::Fatal(SpqError::remote(format!(
                "worker {w}: {}",
                decode_error_payload(&resp)
            )))),
            Ok((op, _)) => Err(AttemptError::Transport(format!(
                "worker {w} answered unexpected opcode {op}"
            ))),
            Err(e) => Err(AttemptError::Transport(format!("worker {w}: {e}"))),
        }
    }

    /// Ships the feature set to worker `w`, chunk by chunk. The worker's
    /// connection is held for the whole sequence, so two shipments to one
    /// worker cannot interleave their chunks.
    fn ship_features(&self, w: usize) -> Result<(), AttemptError> {
        self.counters
            .feature_sets_sent
            .fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(w);
        let mut client = slot.client.lock();
        for chunk in &self.features.chunks {
            Self::classify_reply(w, client.call(OP_FEATURES, chunk), OP_FEATURES_OK)?;
        }
        Ok(())
    }

    /// Installs shard `shard` on worker `w` and records the warm copy. A
    /// worker that does not hold the shard's feature set says so; it is
    /// sent the set and asked once more — the one path by which a
    /// survivor of a failover, a rebalance target and a restarted or
    /// newly admitted process all come to hold it. Does **not** move the
    /// primary pointer — callers decide that.
    fn install(&self, shard: usize, w: usize) -> Result<(), AttemptError> {
        self.counters
            .provisions_sent
            .fetch_add(1, Ordering::Relaxed);
        let payload = &self.shard_payloads[shard];
        let mut reply = self.call_worker(w, OP_PROVISION, payload, OP_PROVISION_OK);
        if matches!(&reply, Err(AttemptError::Fatal(e)) if e.to_string().contains(UNKNOWN_FEATURE_SET))
        {
            self.ship_features(w)?;
            reply = self.call_worker(w, OP_PROVISION, payload, OP_PROVISION_OK);
        }
        reply?;
        let mut m = self.membership.lock();
        // The worker may have been excluded by a concurrent query while
        // the provision round-trip was in flight; recording the copy then
        // would leave a replica entry that survives exclusion (entries
        // are purged *at* exclusion) and could go stale across a restart.
        if m.available(w) {
            m.add_replica(shard, w);
        }
        Ok(())
    }

    fn shard_status(&self, w: usize) -> Result<Vec<u32>, AttemptError> {
        let resp = self.call_worker(w, OP_SHARD_STATUS, &[], OP_SHARD_STATUS_OK)?;
        decode_shard_status(&resp)
            .map_err(|e| AttemptError::Transport(format!("worker {w} sent bad shard status: {e}")))
    }

    /// Records a successful call: a suspect worker is vindicated.
    fn note_success(&self, w: usize) {
        let mut m = self.membership.lock();
        if m.states[w] == WorkerState::Suspect {
            m.states[w] = WorkerState::Live;
        }
    }

    /// Records a transport failure. Returns `true` when the worker is now
    /// excluded (second strike, or it already was).
    fn note_failure(&self, w: usize) -> bool {
        let mut m = self.membership.lock();
        match m.states[w] {
            WorkerState::Live => {
                m.states[w] = WorkerState::Suspect;
                false
            }
            WorkerState::Suspect => {
                m.states[w] = WorkerState::Excluded;
                m.probe_streak[w] = 0;
                m.purge_worker(w);
                true
            }
            WorkerState::Excluded | WorkerState::Probing => true,
        }
    }

    /// Excludes a worker outright (a failed failover provision gets no
    /// suspect leniency: the shard needs a host *now*).
    fn note_failure_hard(&self, w: usize) {
        let mut m = self.membership.lock();
        m.states[w] = WorkerState::Excluded;
        m.probe_streak[w] = 0;
        m.purge_worker(w);
    }

    /// The per-shard retry/failover state machine (see the
    /// [module docs](self)). Returns the decoded shard result plus the
    /// recovery work it took.
    fn query_shard(
        &self,
        shard: usize,
        payload: &[u8],
    ) -> Result<(bool, Vec<u8>, JobStats, ShardRecovery), SpqError> {
        let mut recovery = ShardRecovery::default();
        let mut last_failure: Option<(usize, String)> = None;
        loop {
            let primary = {
                let m = self.membership.lock();
                let w = m.primary[shard];
                m.available(w).then_some(w)
            };
            if let Some(w) = primary {
                loop {
                    match self.call_worker(w, OP_SHARD_QUERY, payload, OP_SHARD_RESULT) {
                        Ok(resp) => {
                            self.note_success(w);
                            self.counters
                                .retries
                                .fetch_add(recovery.retries, Ordering::Relaxed);
                            let decoded = decode_shard_result(&resp).map_err(|e| {
                                SpqError::remote(format!("worker {w} sent a bad shard result: {e}"))
                            })?;
                            return Ok((decoded.0, decoded.1, decoded.2, recovery));
                        }
                        Err(AttemptError::Fatal(e)) => {
                            let message = e.to_string();
                            if !message.contains("is not provisioned") {
                                return Err(e);
                            }
                            // Placement healing: a *healthy* worker
                            // reporting it does not host the shard means
                            // the replica entry is stale (the process
                            // restarted empty and was re-admitted before
                            // the loss was observed). That is a placement
                            // error, not a query error — drop the stale
                            // entry and fail over; the cold path may ship
                            // the payload straight back to this worker.
                            self.membership.lock().replicas[shard].retain(|&x| x != w);
                            last_failure = Some((w, message));
                            break;
                        }
                        Err(AttemptError::Transport(message)) => {
                            let excluded = self.note_failure(w);
                            last_failure = Some((w, message));
                            if excluded {
                                break;
                            }
                            // Suspect: one more try on the same worker —
                            // the client reconnects under backoff, which
                            // rides out a restart. `retries` counts
                            // re-asks, so it bumps here (and on each
                            // failover), not per failure.
                            recovery.retries += 1;
                        }
                    }
                }
            }
            // Failover. Prefer a live warm replica (pointer flip, no data
            // shipped); fall back to re-provisioning onto a survivor.
            enum Failover {
                Warm,
                Cold(usize),
            }
            let plan = {
                let mut m = self.membership.lock();
                let from = m.primary[shard];
                let warm = m.replicas[shard]
                    .iter()
                    .copied()
                    .find(|&x| x != from && m.available(x));
                match warm {
                    Some(r) => {
                        m.primary[shard] = r;
                        Some(Failover::Warm)
                    }
                    None => {
                        let n = m.states.len();
                        (0..n)
                            .map(|i| (from + 1 + i) % n)
                            .find(|&x| m.available(x))
                            .map(Failover::Cold)
                    }
                }
            };
            match plan {
                None => {
                    let (worker, message) = last_failure
                        .unwrap_or((0, "every worker is on the exclusion list".to_owned()));
                    self.counters
                        .retries
                        .fetch_add(recovery.retries, Ordering::Relaxed);
                    return Err(SpqError::WorkerLost { worker, message });
                }
                Some(Failover::Warm) => {
                    recovery.retries += 1;
                    recovery.warm += 1;
                    self.counters.warm_failovers.fetch_add(1, Ordering::Relaxed);
                }
                Some(Failover::Cold(next)) => match self.install(shard, next) {
                    Ok(()) => {
                        recovery.retries += 1;
                        recovery.cold += 1;
                        self.counters
                            .cold_reprovisions
                            .fetch_add(1, Ordering::Relaxed);
                        self.membership.lock().primary[shard] = next;
                    }
                    Err(AttemptError::Fatal(e)) => return Err(e),
                    Err(AttemptError::Transport(message)) => {
                        self.note_failure_hard(next);
                        last_failure = Some((next, message));
                    }
                },
            }
        }
    }

    // -----------------------------------------------------------------
    // The tick path: probe, re-admit, rebalance
    // -----------------------------------------------------------------

    /// Advances the membership layer by one deterministic step: probe
    /// excluded workers (every [`MembershipConfig::probe_interval_ticks`]
    /// ticks), re-admit those whose probe streak satisfies the
    /// hysteresis, and migrate up to
    /// [`MembershipConfig::max_moves_per_tick`] shard copies toward the
    /// canonical layout. Nothing in the engine probes or migrates outside
    /// this call, so tests drive every recovery path without wall-clock
    /// scheduling; production callers invoke it from whatever cadence
    /// they like (e.g. once per serving batch, or a timer thread).
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let probe_now = {
            let mut m = self.membership.lock();
            m.ticks += 1;
            self.config.probe_interval_ticks <= 1
                || m.ticks.is_multiple_of(self.config.probe_interval_ticks)
        };
        if probe_now {
            self.probe_excluded(&mut report);
        }
        self.rebalance(&mut report);
        report
    }

    /// Pings every excluded worker once; a streak of
    /// [`MembershipConfig::readmit_threshold`] successes re-admits it.
    fn probe_excluded(&self, report: &mut TickReport) {
        let targets: Vec<usize> = {
            let m = self.membership.lock();
            (0..m.states.len()).filter(|&w| !m.available(w)).collect()
        };
        for w in targets {
            report.probes += 1;
            self.counters.health_probes.fetch_add(1, Ordering::Relaxed);
            let healthy = {
                let slot = self.slot(w);
                let mut client = slot.client.lock();
                client.ping(b"spq-health-probe").is_ok()
            };
            if !healthy {
                let mut m = self.membership.lock();
                m.states[w] = WorkerState::Excluded;
                m.probe_streak[w] = 0;
                continue;
            }
            report.probe_successes += 1;
            let ready = {
                let mut m = self.membership.lock();
                m.states[w] = WorkerState::Probing;
                m.probe_streak[w] += 1;
                m.probe_streak[w] >= self.config.readmit_threshold
            };
            if !ready {
                continue;
            }
            // Hysteresis satisfied: ask the worker what it still hosts —
            // a worker that only lost its network keeps every shard warm;
            // a restarted process reports none and gets re-provisioned by
            // the rebalancer.
            match self.shard_status(w) {
                Ok(hosted) => {
                    let mut m = self.membership.lock();
                    m.states[w] = WorkerState::Live;
                    m.probe_streak[w] = 0;
                    for s in hosted {
                        if (s as usize) < m.replicas.len() {
                            m.add_replica(s as usize, w);
                        }
                    }
                    drop(m);
                    report.readmitted.push(w);
                    self.counters.readmissions.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // The status call failed right after a healthy ping:
                    // still flapping. Reset the streak — that is the
                    // hysteresis doing its job.
                    let mut m = self.membership.lock();
                    m.states[w] = WorkerState::Excluded;
                    m.probe_streak[w] = 0;
                }
            }
        }
    }

    /// Migrates shard copies toward the canonical layout, bounded by the
    /// per-tick move budget, then restores primary pointers (pointer
    /// flips are free and unbudgeted).
    fn rebalance(&self, report: &mut TickReport) {
        let planned: Vec<(usize, usize)> = {
            let m = self.membership.lock();
            let mut moves = Vec::new();
            'shards: for s in 0..m.primary.len() {
                for t in m.targets(s, self.config.replication_factor) {
                    if !m.replicas[s].contains(&t) {
                        moves.push((s, t));
                        if moves.len() >= self.config.max_moves_per_tick {
                            break 'shards;
                        }
                    }
                }
            }
            moves
        };
        for (s, t) in planned {
            match self.install(s, t) {
                Ok(()) => {
                    report.provisions += 1;
                    self.counters
                        .rebalance_moves
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(AttemptError::Transport(_)) => self.note_failure_hard(t),
                // A typed refusal of a known-good payload is not a health
                // signal; leave the worker in rotation and move on.
                Err(AttemptError::Fatal(_)) => {}
            }
        }
        let mut m = self.membership.lock();
        for s in 0..m.primary.len() {
            let targets = m.targets(s, self.config.replication_factor);
            let Some(&want) = targets.first() else {
                continue;
            };
            let current = m.primary[s];
            let current_ok = m.available(current) && m.replicas[s].contains(&current);
            if current != want && m.replicas[s].contains(&want) {
                // Canonical primary is warm: restore the layout.
                m.primary[s] = want;
                report.primary_flips += 1;
            } else if !current_ok {
                // Canonical primary not warm yet; point at any warm
                // available holder so queries stay on the fast path.
                let fallback = m.replicas[s].iter().copied().find(|&x| m.available(x));
                if let Some(r) = fallback {
                    if r != current {
                        m.primary[s] = r;
                        report.primary_flips += 1;
                    }
                }
            }
        }
    }

    /// Registers a new worker address into the rotation. The worker is
    /// pinged first (a join must start from a reachable process), enters
    /// as `Live` with no shards, and the rebalancer migrates load onto it
    /// over the following [`tick`](Self::tick)s — bounded by the move
    /// budget, so a join never stalls serving. Returns the worker index.
    pub fn admit(&self, addr: &str) -> Result<usize, SpqError> {
        let parsed = parse_worker_addrs(addr)?;
        let [addr] = parsed.as_slice() else {
            return Err(SpqError::invalid_config(format!(
                "admit takes exactly one worker address, got {addr:?}"
            )));
        };
        if self.worker_addrs().iter().any(|a| a == addr) {
            return Err(SpqError::invalid_config(format!(
                "worker {addr} is already registered"
            )));
        }
        let slot = Arc::new(WorkerSlot::new(addr.clone(), self.client_config));
        {
            let mut client = slot.client.lock();
            client
                .ping(b"spq-admit")
                .map_err(|e| SpqError::remote(format!("cannot admit worker {addr}: {e}")))?;
        }
        let index = {
            let mut workers = self.workers.lock();
            workers.push(slot);
            workers.len() - 1
        };
        let mut m = self.membership.lock();
        m.states.push(WorkerState::Live);
        m.probe_streak.push(0);
        Ok(index)
    }
}

impl QueryExecutor for RemoteEngine {
    /// The remote lifecycle: probe the manager-side term index, scatter
    /// framed shard queries over TCP (width 1 for
    /// [`ExecutionMode::Sequential`]), gather wire records with
    /// failover/retry, merge.
    fn run_validated(
        &self,
        request: &QueryRequest,
        mode: ExecutionMode,
    ) -> Result<QueryResponse, SpqError> {
        let started = Instant::now();
        let query = &request.query;
        let options = &request.options;
        let algorithm = options.algorithm.unwrap_or(self.exec.algorithm_choice());
        self.counters.queries.fetch_add(1, Ordering::Relaxed);

        // Probe the manager-side term index (features are broadcast, so
        // one set speaks for every shard): a query whose keywords no
        // feature carries cannot score any object on any worker.
        let probed = query.keywords.len();
        let matched = query
            .keywords
            .iter()
            .filter(|t| self.term_index.contains(&t.0))
            .count();
        self.counters
            .keyword_probes
            .fetch_add(probed as u64, Ordering::Relaxed);
        self.counters
            .keyword_hits
            .fetch_add(matched as u64, Ordering::Relaxed);
        let relevant: Vec<usize> = if matched == 0 {
            Vec::new()
        } else {
            (0..self.shard_payloads.len())
                .filter(|&s| self.shard_nonempty[s])
                .collect()
        };
        if relevant.is_empty() {
            return Ok(QueryResponse {
                results: Vec::new(),
                stats: QueryStats {
                    algorithm,
                    plan_cache_hit: false,
                    shards_touched: 0,
                    shuffle_records: 0,
                    shuffle_bytes: 0,
                    wall_micros: started.elapsed().as_micros() as u64,
                    keyword_terms_probed: probed,
                    keyword_terms_matched: matched,
                    retries: 0,
                    warm_failovers: 0,
                    cold_reprovisions: 0,
                },
                trace: options.trace.then(Vec::new),
            });
        }

        // Scatter: one framed call per relevant shard; the request's
        // worker budget bounds the scatter width (results are
        // width-invariant), exactly as in the in-process engine.
        let scatter = match mode {
            ExecutionMode::Sequential => 1,
            ExecutionMode::Parallel => options.workers.unwrap_or(self.scatter_workers),
        }
        .clamp(1, relevant.len());
        let outcomes = run_tasks(scatter, relevant.len(), |i| {
            let shard = relevant[i];
            let payload = encode_shard_query(shard as u32, query, options);
            self.query_shard(shard, &payload)
        })
        .map_err(|p| SpqError::Worker {
            message: format!("shard {}: {}", relevant[p.task_index], p.message),
        })?;

        // Gather: the wire bytes come straight off the socket; resolve
        // them against the global store and merge, exactly as in-process.
        let mut flat = Vec::new();
        let mut plan_cache_hit = true;
        let mut shuffle_records = 0u64;
        let mut shuffle_bytes = 0u64;
        let mut retries = 0u64;
        let mut warm_failovers = 0u64;
        let mut cold_reprovisions = 0u64;
        let mut trace = options.trace.then(Vec::new);
        for outcome in outcomes {
            let (hit, records, stats, recovery) = outcome?;
            plan_cache_hit &= hit;
            if hit {
                self.counters
                    .plan_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters
                    .plan_cache_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
            shuffle_records += (records.len() / wire::RECORD_BYTES) as u64;
            shuffle_bytes += records.len() as u64;
            retries += recovery.retries;
            warm_failovers += recovery.warm;
            cold_reprovisions += recovery.cold;
            flat.extend(wire::decode_results(&records, self.dataset.data()));
            if let Some(t) = &mut trace {
                t.push(stats);
            }
        }
        let results = merge_top_k(flat, query.k);

        Ok(QueryResponse {
            results,
            stats: QueryStats {
                algorithm,
                plan_cache_hit,
                shards_touched: relevant.len(),
                shuffle_records,
                shuffle_bytes,
                wall_micros: started.elapsed().as_micros() as u64,
                keyword_terms_probed: probed,
                keyword_terms_matched: matched,
                retries,
                warm_failovers,
                cold_reprovisions,
            },
            trace,
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        RemoteEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DataObject, FeatureObject};
    use spq_spatial::{Point, Rect};

    fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
        FeatureObject::new(
            id,
            Point::new(x, y),
            KeywordSet::from_ids(kw.iter().copied()),
        )
    }

    fn paper_dataset() -> SharedDataset {
        SharedDataset::new(
            vec![
                DataObject::new(1, Point::new(4.6, 4.8)),
                DataObject::new(2, Point::new(7.5, 1.7)),
                DataObject::new(3, Point::new(8.9, 5.2)),
                DataObject::new(4, Point::new(1.8, 1.8)),
                DataObject::new(5, Point::new(1.9, 9.0)),
            ],
            vec![
                feature(1, 2.8, 1.2, &[0, 1]),
                feature(2, 5.0, 3.8, &[2, 3]),
                feature(3, 8.7, 1.9, &[4, 5]),
                feature(4, 3.8, 5.5, &[0]),
                feature(5, 5.2, 5.1, &[6, 7]),
                feature(6, 7.4, 5.4, &[8, 9]),
                feature(7, 3.0, 8.1, &[0, 10]),
                feature(8, 9.5, 7.0, &[11]),
            ],
        )
    }

    fn executor() -> SpqExecutor {
        SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4)
    }

    fn request(k: usize, r: f64, kw: &[u32]) -> QueryRequest {
        QueryRequest::new(SpqQuery::new(
            k,
            r,
            KeywordSet::from_ids(kw.iter().copied()),
        ))
    }

    #[test]
    fn executor_config_round_trips() {
        for exec in [
            executor(),
            executor()
                .algorithm(Algorithm::PSpq)
                .keyword_pruning(false)
                .cluster(ClusterConfig::with_workers(3)),
            SpqExecutor::new(Rect::from_coords(-1.0, -2.0, 3.0, 4.0))
                .auto_grid(32)
                .algorithm(Algorithm::ESpqLen)
                .load_balancing(LoadBalancing::AdaptiveQuadtree { sample_size: 100 }),
        ] {
            let mut bytes = Vec::new();
            encode_executor(&exec, &mut bytes);
            let decoded = decode_executor(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(decoded.bounds(), exec.bounds());
            assert_eq!(decoded.algorithm_choice(), exec.algorithm_choice());
            assert_eq!(decoded.grid_sizing(), exec.grid_sizing());
            assert_eq!(
                decoded.load_balancing_choice(),
                exec.load_balancing_choice()
            );
            assert_eq!(
                decoded.keyword_pruning_enabled(),
                exec.keyword_pruning_enabled()
            );
            assert_eq!(decoded.cluster_config(), exec.cluster_config());
        }
        // Inverted bounds are a typed error, not `Rect`'s constructor
        // panic: min.x written past max.x.
        let mut bytes = Vec::new();
        encode_executor(&executor(), &mut bytes);
        bytes[..8].copy_from_slice(&11.0f64.to_le_bytes());
        assert!(decode_executor(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn worker_addr_parsing() {
        assert_eq!(
            parse_worker_addrs("127.0.0.1:7001, localhost:7002").unwrap(),
            vec!["127.0.0.1:7001".to_owned(), "localhost:7002".to_owned()]
        );
        for bad in [
            "",
            " , ",
            "127.0.0.1",
            ":7001",
            "127.0.0.1:0",
            "127.0.0.1:x",
            "127.0.0.1:99999",
            "127.0.0.1:-1",
        ] {
            let err = parse_worker_addrs(bad).unwrap_err();
            assert!(matches!(err, SpqError::InvalidConfig { .. }), "{bad:?}");
            assert!(err.to_string().contains(SPQ_REMOTE_WORKERS), "{bad:?}");
        }
    }

    #[test]
    fn shard_status_round_trips() {
        for shards in [vec![], vec![0u32], vec![0, 3, 7, 42]] {
            let bytes = encode_shard_status(&shards);
            assert_eq!(decode_shard_status(&bytes).unwrap(), shards);
        }
        let good = encode_shard_status(&[1, 2, 3]);
        for cut in 0..good.len() {
            assert!(decode_shard_status(&good[..cut]).is_err(), "cut={cut}");
        }
        let mut long = good.clone();
        long.push(0);
        assert!(decode_shard_status(&long).is_err());
    }

    #[test]
    fn matches_in_process_engines_for_every_worker_count() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        for workers in [1, 2, 3, 5] {
            let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), workers).unwrap();
            for req in [
                request(1, 1.5, &[0]),
                request(3, 1.5, &[0]),
                request(5, 2.5, &[0, 4, 11]),
            ] {
                let expect = engine.execute(&req).unwrap();
                let got = remote.execute(&req).unwrap();
                assert_eq!(got.results, expect.results, "workers={workers}");
                assert_eq!(got.stats.retries, 0);
            }
            assert_eq!(remote.retries(), 0);
            assert!(remote.traffic_bytes() > 0);
            // Build leaves the canonical layout in place: every shard on
            // min(replication_factor, workers) workers, primary = shard
            // index, nothing for a tick to do.
            remote.check_replication().unwrap();
            assert!(remote.tick().quiescent());
        }
    }

    #[test]
    fn build_installs_warm_replicas() {
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 3).unwrap();
        let view = remote.membership();
        assert_eq!(view.states, vec![WorkerState::Live; 3]);
        assert_eq!(view.primaries, vec![0, 1, 2]);
        assert_eq!(view.replicas, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        // 3 shards × replication factor 2.
        assert_eq!(remote.provisions_sent(), 6);
    }

    /// A feature-heavy world: the provisioning traffic is the features'.
    fn feature_heavy_dataset() -> SharedDataset {
        SharedDataset::new(
            (0..50)
                .map(|i| DataObject::new(i, Point::new((i % 10) as f64, (i / 10) as f64)))
                .collect(),
            (0..2000u64)
                .map(|i| {
                    let (x, y) = ((i % 97) as f64 / 9.7, (i % 89) as f64 / 8.9);
                    feature(i, x, y, &[(i % 13) as u32, 13 + (i % 7) as u32, 20, 21])
                })
                .collect(),
        )
    }

    #[test]
    fn build_ships_the_feature_set_once_per_worker() {
        let dataset = feature_heavy_dataset();
        let remote = RemoteEngine::self_hosted(executor(), dataset.clone(), 2).unwrap();
        assert_eq!(remote.provisions_sent(), 4); // 2 shards × replication 2
        assert_eq!(remote.feature_sets_sent(), 2);
        // What one payload per install — features and data slice together,
        // the scheme this replaced — would have put on the wire.
        let features: usize = remote
            .features
            .chunks
            .iter()
            .map(|chunk| chunk.len() - CHUNK_HEADER_BYTES)
            .sum();
        let slices: usize = remote.shard_payloads.iter().map(Vec::len).sum();
        let per_install = 2 * (2 * features + slices);
        let sent = remote.traffic_bytes() as usize;
        assert!(sent >= 2 * features + 2 * slices);
        assert!(
            sent * 100 <= per_install * 55,
            "build sent {sent} B, one payload per install would send {per_install} B"
        );
        // And what was provisioned answers like the single-store engine.
        let engine = QueryEngine::new(executor(), dataset);
        let req = request(5, 1.5, &[3, 20]);
        assert_eq!(
            remote.execute(&req).unwrap().results,
            engine.execute(&req).unwrap().results
        );
    }

    /// Sends `payloads` to `host` as frames of `opcode`, all of which
    /// must be accepted.
    fn accept_all(host: &ShardHost, opcode: u16, payloads: &[Vec<u8>]) {
        for payload in payloads {
            assert!(host.handle(opcode, payload).unwrap().is_some());
        }
    }

    #[test]
    fn hosted_shards_share_one_feature_array_and_one_index() {
        let dataset = paper_dataset();
        let host = ShardHost::new();
        let set = encode_feature_chunks(dataset.features(), 64);
        assert!(set.chunks.len() > 1);
        accept_all(&host, OP_FEATURES, &set.chunks);
        let data = dataset.data();
        let provisions = |fingerprint| {
            vec![
                encode_provision(0, fingerprint, &executor(), 0, &data[..2]),
                encode_provision(1, fingerprint, &executor(), 2, &data[2..]),
            ]
        };
        accept_all(&host, OP_PROVISION, &provisions(set.fingerprint));
        assert_eq!((host.hosted_shards(), host.feature_sets()), (2, 1));
        let first_set = {
            let state = host.state.lock();
            let (a, b) = (&state.shards[&0].engine, &state.shards[&1].engine);
            let features = a.dataset().features_arc();
            assert!(Arc::ptr_eq(&features, &b.dataset().features_arc()));
            assert!(std::ptr::eq(a.keyword_index(), b.keyword_index()));
            assert_eq!(&features[..], dataset.features());
            Arc::downgrade(&features)
        };

        // Replacing one shard with one over a different set keeps the
        // first set alive for the other; replacing both frees it.
        let other = encode_feature_chunks(&dataset.features()[..5], usize::MAX);
        assert_ne!(other.fingerprint, set.fingerprint);
        accept_all(&host, OP_FEATURES, &other.chunks);
        let replacements = provisions(other.fingerprint);
        accept_all(&host, OP_PROVISION, &replacements[..1]);
        assert_eq!(host.feature_sets(), 2);
        assert!(first_set.upgrade().is_some());
        accept_all(&host, OP_PROVISION, &replacements[1..]);
        assert_eq!((host.hosted_shards(), host.feature_sets()), (2, 1));
        assert!(first_set.upgrade().is_none());
    }

    /// A feature set too large for one frame's budget crosses a real
    /// socket as many bounded frames and is served exactly like the
    /// single-store engine serves the same dataset.
    #[test]
    fn multi_chunk_set_provisions_through_a_worker_server() {
        let dataset = feature_heavy_dataset();
        let budget = 4096;
        let set = encode_feature_chunks(dataset.features(), budget);
        assert!(set.chunks.len() > 10);
        let largest_feature = MIN_FEATURE_BYTES + 4 * TERM_BYTES;
        for chunk in &set.chunks {
            assert!(chunk.len() <= CHUNK_HEADER_BYTES + budget + largest_feature);
        }
        let server =
            WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
        let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
        for chunk in &set.chunks {
            assert_eq!(client.call(OP_FEATURES, chunk).unwrap().0, OP_FEATURES_OK);
        }
        let provision = encode_provision(0, set.fingerprint, &executor(), 0, dataset.data());
        assert_eq!(
            client.call(OP_PROVISION, &provision).unwrap().0,
            OP_PROVISION_OK
        );
        let engine = QueryEngine::new(executor(), dataset.clone());
        for req in [request(5, 1.5, &[3, 20]), request(3, 0.7, &[14])] {
            let query = encode_shard_query(0, &req.query, &req.options);
            let (op, reply) = client.call(OP_SHARD_QUERY, &query).unwrap();
            assert_eq!(op, OP_SHARD_RESULT);
            let (_, records, _) = decode_shard_result(&reply).unwrap();
            assert_eq!(
                wire::decode_results(&records, dataset.data()),
                engine.execute(&req).unwrap().results
            );
        }
    }

    #[test]
    fn unmatched_keywords_touch_no_worker() {
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 2).unwrap();
        let before = remote.traffic_bytes();
        let response = remote.execute(&request(3, 1.5, &[77])).unwrap();
        assert!(response.results.is_empty());
        assert_eq!(response.stats.shards_touched, 0);
        assert_eq!(response.stats.keyword_terms_matched, 0);
        // The short-circuit never crossed the wire.
        assert_eq!(remote.traffic_bytes(), before);
    }

    #[test]
    fn killed_worker_fails_over_warm_without_reprovision() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 3).unwrap();
        let provisions_after_build = remote.provisions_sent();
        let req = request(4, 1.5, &[0]);
        // Kill worker 0 on its next response; the first shard query it
        // receives takes it down mid-batch.
        remote
            .inject_fault(
                0,
                &FaultPlan {
                    kill_after_responses: Some(0),
                    ..FaultPlan::none()
                },
            )
            .unwrap();
        let got = remote.execute(&req).unwrap();
        assert_eq!(got.results, engine.execute(&req).unwrap().results);
        assert!(got.stats.retries >= 1, "stats: {:?}", got.stats);
        // Worker 1 held shard 0 warm: the failover was a pointer flip,
        // not a provision round-trip.
        assert!(got.stats.warm_failovers >= 1, "stats: {:?}", got.stats);
        assert_eq!(got.stats.cold_reprovisions, 0);
        assert_eq!(remote.provisions_sent(), provisions_after_build);
        assert!(remote.retries() >= 1);
        assert_eq!(remote.excluded_workers(), 1);
        assert_eq!(remote.membership().primaries[0], 1);
        // Later queries keep working on the survivors, without new
        // retries for the already-moved shard.
        let again = remote.execute(&req).unwrap();
        assert_eq!(again.results, engine.execute(&req).unwrap().results);
        assert_eq!(again.stats.retries, 0);
    }

    #[test]
    fn cold_reprovision_when_no_replica_survives() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let remote = RemoteEngine::self_hosted_with(
            executor(),
            paper_dataset(),
            2,
            MembershipConfig {
                replication_factor: 1,
                ..MembershipConfig::default()
            },
        )
        .unwrap();
        // Replication factor 1: each shard lives on exactly one worker,
        // so losing it forces the payload back over the wire.
        let provisions_after_build = remote.provisions_sent();
        assert_eq!(provisions_after_build, 2);
        remote
            .inject_fault(
                0,
                &FaultPlan {
                    kill_after_responses: Some(0),
                    ..FaultPlan::none()
                },
            )
            .unwrap();
        let req = request(4, 1.5, &[0]);
        let got = remote.execute(&req).unwrap();
        assert_eq!(got.results, engine.execute(&req).unwrap().results);
        assert!(got.stats.cold_reprovisions >= 1, "stats: {:?}", got.stats);
        assert_eq!(got.stats.warm_failovers, 0);
        assert!(remote.provisions_sent() > provisions_after_build);
    }

    #[test]
    fn losing_every_worker_is_worker_lost() {
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 2).unwrap();
        for w in 0..2 {
            remote
                .inject_fault(
                    w,
                    &FaultPlan {
                        kill_after_responses: Some(0),
                        ..FaultPlan::none()
                    },
                )
                .unwrap();
        }
        let err = remote.execute(&request(3, 1.5, &[0])).unwrap_err();
        assert!(matches!(err, SpqError::WorkerLost { .. }), "{err:?}");
        assert_eq!(remote.excluded_workers(), 2);
    }

    #[test]
    fn build_rejects_bad_configs() {
        assert!(matches!(
            RemoteEngine::self_hosted(executor(), paper_dataset(), 0),
            Err(SpqError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RemoteEngine::self_hosted_with(
                executor(),
                paper_dataset(),
                2,
                MembershipConfig {
                    replication_factor: 0,
                    ..MembershipConfig::default()
                },
            ),
            Err(SpqError::InvalidConfig { .. })
        ));
        let dup = SharedDataset::new(
            vec![
                DataObject::new(7, Point::new(1.0, 1.0)),
                DataObject::new(7, Point::new(2.0, 2.0)),
            ],
            vec![],
        );
        let err = RemoteEngine::self_hosted(executor(), dup, 2).unwrap_err();
        assert!(matches!(err, SpqError::InvalidConfig { .. }), "{err}");
        assert!(!err.is_retryable(), "bad datasets must not be retried");
        // The offending id is part of the message contract.
        assert!(err.to_string().contains("duplicate data object id 7"));
    }

    #[test]
    fn shard_query_decode_rejects_garbage() {
        let good = encode_shard_query(0, &request(3, 1.5, &[0, 2]).query, &QueryOptions::default());
        assert!(decode_shard_query(&good).is_ok());
        // Truncations of a valid payload never panic, they error.
        for cut in 0..good.len() {
            assert!(decode_shard_query(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_shard_query(&long).is_err());
        // The trace flag crosses the wire; an unknown tag is rejected
        // like an unknown pruning tag.
        let options = QueryOptions {
            trace: true,
            ..QueryOptions::default()
        };
        let traced = encode_shard_query(0, &request(3, 1.5, &[0]).query, &options);
        assert!(decode_shard_query(&traced).unwrap().2.trace);
        assert!(!decode_shard_query(&good).unwrap().2.trace);
        let mut bad_tag = traced.clone();
        *bad_tag.last_mut().unwrap() = 2;
        assert!(decode_shard_query(&bad_tag).is_err());
    }
}
