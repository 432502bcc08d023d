//! Remote serving: the sharded layout placed on worker **processes**
//! behind TCP, with fault recovery and dynamic membership.
//!
//! [`crate::sharded`] proves the scatter/gather shape inside one process;
//! this module moves each shard behind a socket. A [`RemoteEngine`] slices
//! the data objects exactly like [`crate::sharded::ShardedEngine`] — same
//! contiguous chunks, features broadcast to every shard — but instead of
//! building shard engines in-process it **provisions** each shard onto
//! [`MembershipConfig::replication_factor`] workers over the
//! [`spq_mapreduce::remote`] frame protocol. Workers are either spawned
//! in-process (the default — real sockets, no extra processes) or
//! external `spq-worker` binaries named by [`SPQ_REMOTE_WORKERS`].
//!
//! A query then scatters [`OP_SHARD_QUERY`] frames to the workers holding
//! relevant shards and gathers [`OP_SHARD_RESULT`] frames carrying the
//! same 12-byte [`wire`] records the in-process gather uses, so the merged
//! top-k is **byte-identical** to every other backend
//! (`tests/backend_equivalence.rs` proptests it across worker counts).
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
//!   otherwise the kept provision payload is re-provisioned onto a
//!   survivor (a *cold* re-provision). Both are visible per query in
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

use crate::engine::{MetricsSnapshot, QueryEngine};
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
use spq_mapreduce::remote::{
    decode_error_payload, ByteReader, ClientConfig, CodecError, FaultPlan, FrameHandler,
    WorkerClient, WorkerServer, OP_ERROR, OP_FAULT_OK, OP_PROVISION, OP_PROVISION_OK, OP_SET_FAULT,
    OP_SHARD_QUERY, OP_SHARD_RESULT, OP_SHARD_STATUS, OP_SHARD_STATUS_OK,
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

/// Encodes an [`OP_PROVISION`] payload: the shard id, the executor
/// configuration, the shard's data slice (each object with its **global**
/// store index, so gather records resolve without any per-shard coordinate
/// space) and the broadcast feature set.
pub(crate) fn encode_provision(
    shard_id: u32,
    exec: &SpqExecutor,
    first_global_index: u32,
    data: &[DataObject],
    features: &[FeatureObject],
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, shard_id);
    encode_executor(exec, &mut out);
    put_u32(&mut out, data.len() as u32);
    for (i, object) in data.iter().enumerate() {
        put_u32(&mut out, first_global_index + i as u32);
        put_u64(&mut out, object.id);
        put_f64(&mut out, object.location.x);
        put_f64(&mut out, object.location.y);
    }
    put_u32(&mut out, features.len() as u32);
    for feature in features {
        put_u64(&mut out, feature.id);
        put_f64(&mut out, feature.location.x);
        put_f64(&mut out, feature.location.y);
        put_u32(&mut out, feature.keywords.len() as u32);
        for term in feature.keywords.iter() {
            put_u32(&mut out, term.0);
        }
    }
    out
}

pub(crate) struct Provision {
    pub shard_id: u32,
    pub exec: SpqExecutor,
    pub id_to_index: HashMap<ObjectId, u32>,
    pub data: Vec<DataObject>,
    pub features: Vec<FeatureObject>,
}

pub(crate) fn decode_provision(payload: &[u8]) -> Result<Provision, CodecError> {
    let mut r = ByteReader::new(payload);
    let shard_id = r.u32()?;
    let exec = decode_executor(&mut r)?;
    let num_data = r.u32()? as usize;
    let mut id_to_index = HashMap::with_capacity(num_data);
    let mut data = Vec::with_capacity(num_data.min(1 << 16));
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
    let num_features = r.u32()? as usize;
    let mut features = Vec::with_capacity(num_features.min(1 << 16));
    for _ in 0..num_features {
        let id = r.u64()?;
        let (x, y) = (r.f64()?, r.f64()?);
        let num_terms = r.u32()? as usize;
        let mut terms = Vec::with_capacity(num_terms.min(1 << 12));
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
        return Err(CodecError::invalid("trailing bytes after provision"));
    }
    Ok(Provision {
        shard_id,
        exec,
        id_to_index,
        data,
        features,
    })
}

/// Encodes an [`OP_SHARD_QUERY`] payload: the shard id, the query and the
/// result-relevant per-request options. The worker budget is **not**
/// shipped — shard jobs always run sequentially, exactly as the
/// in-process scatter does (the scatter width is the parallelism).
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
    let num_terms = r.u32()? as usize;
    if num_terms == 0 {
        return Err(CodecError::invalid("shard query with no keywords"));
    }
    let mut terms = Vec::with_capacity(num_terms.min(1 << 12));
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
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard query"));
    }
    let query = SpqQuery::with_similarity(k, radius, KeywordSet::from_ids(terms), similarity);
    let options = QueryOptions {
        algorithm,
        workers: None,
        keyword_pruning,
        trace: false,
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
    let count = r.u32()? as usize;
    let mut shards = Vec::with_capacity(count.min(1 << 16));
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

/// The worker-side shard host: a [`FrameHandler`] answering
/// [`OP_PROVISION`] (build a shard engine from a shipped dataset slice),
/// [`OP_SHARD_QUERY`] (evaluate a query against a hosted shard and reply
/// with gather records) and [`OP_SHARD_STATUS`] (report which shards are
/// hosted, so a re-admitting manager knows which copies are still warm).
/// This is what the `spq-worker` binary and the in-process workers of
/// [`RemoteEngine::self_hosted`] serve.
#[derive(Default)]
pub struct ShardHost {
    // BTreeMap, not HashMap: `status()` serializes the hosted shard ids,
    // and this module's wire output must never depend on hash order
    // (enforced by spq-lint's determinism/unordered-iter).
    shards: Mutex<BTreeMap<u32, HostedShard>>,
}

impl ShardHost {
    /// Creates an empty host; shards arrive via [`OP_PROVISION`] frames.
    pub fn new() -> Self {
        Self::default()
    }

    fn provision(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let p = decode_provision(payload).map_err(|e| format!("bad provision payload: {e}"))?;
        let dataset = SharedDataset::new(p.data, p.features);
        let engine = QueryEngine::new(p.exec, dataset);
        self.shards.lock().insert(
            p.shard_id,
            HostedShard {
                engine,
                id_to_index: p.id_to_index,
            },
        );
        Ok(Vec::new())
    }

    fn query(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (shard_id, query, options) =
            decode_shard_query(payload).map_err(|e| format!("bad shard query payload: {e}"))?;
        let shards = self.shards.lock();
        let shard = shards
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
        let hosted: Vec<u32> = self.shards.lock().keys().copied().collect();
        encode_shard_status(&hosted)
    }

    /// Number of shards currently hosted (for tests and diagnostics).
    pub fn hosted_shards(&self) -> usize {
        self.shards.lock().len()
    }
}

impl std::fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHost")
            .field("hosted_shards", &self.hosted_shards())
            .finish()
    }
}

impl FrameHandler for ShardHost {
    fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
        match opcode {
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
    /// Per-shard provision payload, kept for failover re-provisioning.
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
        let features = dataset.features();
        let mut shard_payloads = Vec::with_capacity(num_shards);
        let mut shard_nonempty = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let start = s * data.len() / num_shards;
            let end = (s + 1) * data.len() / num_shards;
            shard_payloads.push(encode_provision(
                s as u32,
                &executor,
                start as u32,
                &data[start..end],
                features,
            ));
            shard_nonempty.push(end > start);
        }
        let term_index = features
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
        // on the next replication_factor − 1 workers. Build is strict — a
        // worker that cannot be provisioned fails the build instead of
        // starting life on the exclusion list.
        let replicas_per_shard = engine.config.replication_factor.min(num_workers);
        for s in 0..engine.shard_payloads.len() {
            for j in 0..replicas_per_shard {
                let w = (s + j) % num_workers;
                engine.install(s, w).map_err(|e| match e {
                    AttemptError::Transport(message) => SpqError::WorkerLost { worker: w, message },
                    AttemptError::Fatal(e) => e,
                })?;
            }
        }
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

    /// One framed call to worker `w`, mapping the reply to the retry
    /// loop's vocabulary: `Fatal` for typed worker-reported errors (never
    /// retried), `Transport` for anything that smells like a dead worker.
    fn call_worker(
        &self,
        w: usize,
        opcode: u16,
        payload: &[u8],
        ok_opcode: u16,
    ) -> Result<Vec<u8>, AttemptError> {
        let slot = self.slot(w);
        let mut client = slot.client.lock();
        match client.call(opcode, payload) {
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

    /// Ships shard `shard`'s provision payload to worker `w` and records
    /// the warm copy. Does **not** move the primary pointer — callers
    /// decide that.
    fn install(&self, shard: usize, w: usize) -> Result<(), AttemptError> {
        self.counters
            .provisions_sent
            .fetch_add(1, Ordering::Relaxed);
        self.call_worker(
            w,
            OP_PROVISION,
            &self.shard_payloads[shard],
            OP_PROVISION_OK,
        )?;
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
    }
}
