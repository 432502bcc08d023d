//! Payload codecs of the shard protocol. All little-endian, layered on
//! the mapreduce byte codec; round-tripped and fed hostile bytes by the
//! proptests in `tests/remote_wire.rs`.

use crate::executor::{GridSizing, LoadBalancing, SpqExecutor};
use crate::model::{DataObject, FeatureObject, ObjectId};
use crate::query::SpqQuery;
use crate::service::QueryOptions;
use crate::sharded::{index_by_id, wire, ShardAnswer};
use crate::Algorithm;
use spq_mapreduce::remote::codec::{
    decode_job_stats, encode_job_stats, put_bytes, put_f64, put_u32, put_u32s, put_u64, put_u8,
};
use spq_mapreduce::remote::frame::WordHasher;
use spq_mapreduce::remote::{ByteReader, CodecError};
use spq_mapreduce::ClusterConfig;
use spq_text::{KeywordSet, SetSimilarity, Term};
use std::collections::HashMap;

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

pub(super) fn encode_executor(exec: &SpqExecutor, out: &mut Vec<u8>) {
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

pub(super) fn decode_executor(r: &mut ByteReader<'_>) -> Result<SpqExecutor, CodecError> {
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

/// Encoded size of one data object in an `OP_PROVISION` payload.
const DATA_RECORD_BYTES: usize = 4 + 8 + 8 + 8;
/// Encoded size of a feature with no keywords — the floor a shipped
/// feature count is held to before anything is allocated for it.
pub(super) const MIN_FEATURE_BYTES: usize = 8 + 8 + 8 + 4;
/// Encoded size of one keyword id.
pub(super) const TERM_BYTES: usize = 4;
/// Fingerprint, chunk index, chunk total, feature count.
pub(super) const CHUNK_HEADER_BYTES: usize = 8 + 4 + 4 + 4;

/// One past the largest keyword id a shipped feature set may carry. A
/// worker's `KeywordIndex::build` sizes its offset table by the largest
/// id it holds, so this bounds the table at 2²² + 1 `usize` offsets —
/// 32 MiB, plus as much again for the fill cursor while it is built —
/// where one id of `u32::MAX` would ask for 32 GiB. It sits 47× above the
/// largest vocabulary the generators produce (88,706 terms).
pub(super) const TERM_ID_LIMIT: u32 = 1 << 22;

/// Feature bytes one `OP_FEATURES` chunk carries: whole features are
/// packed until the next one would cross it, so a chunk only exceeds it
/// when a single feature does. Small enough that neither side ever holds
/// a feature set as one buffer, far enough under
/// [`MAX_FRAME_LEN`](spq_mapreduce::remote::MAX_FRAME_LEN) that no corpus
/// size brings a provisioning frame near the cap.
pub(super) const FEATURES_CHUNK_BYTES: usize = 1 << 20;

/// A feature set as it crosses the wire: its fingerprint and its
/// `OP_FEATURES` payloads, in the order they must be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureChunks {
    /// [`WordHasher`] over the encoded features — a function of the
    /// content alone, whatever the chunking.
    pub fingerprint: u64,
    /// One payload per chunk; never empty (a feature-less set is one
    /// chunk of zero features).
    pub chunks: Vec<Vec<u8>>,
}

/// Encodes a feature set into `OP_FEATURES` chunk payloads of at most
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
        put_keywords(&mut chunk, &feature.keywords);
        count += 1;
    }
    sealed.push((chunk, count));
    let mut hasher = WordHasher::default();
    for (chunk, _) in &sealed {
        hasher.update(&chunk[CHUNK_HEADER_BYTES..]);
    }
    let fingerprint = hasher.finish();
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

/// One decoded `OP_FEATURES` chunk.
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

/// Appends a keyword set as a `u32` count and its ids, in one extend.
fn put_keywords(out: &mut Vec<u8>, keywords: &KeywordSet) {
    put_u32s(out, keywords.terms().iter().map(|t| t.0));
}

/// Reads what [`put_keywords`] wrote: the count is checked against the
/// bytes that remain, the ids are converted in one pass and kept as they
/// are when strictly increasing (what every encoder writes); otherwise
/// they are normalised exactly as [`KeywordSet::from_ids`] does.
fn read_keywords(r: &mut ByteReader<'_>) -> Result<KeywordSet, CodecError> {
    let terms: Vec<Term> = r.u32s()?.map(Term).collect();
    Ok(if terms.is_sorted_by(|a, b| a < b) {
        KeywordSet::from_sorted(terms)
    } else {
        KeywordSet::new(terms)
    })
}

/// Decodes one `OP_FEATURES` payload. Every shipped count is checked
/// against the bytes that remain before it sizes an allocation, and a
/// keyword id of 2²² or more (past the wire's term-id limit) is rejected
/// before the worker sizes anything from it.
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
        let keywords = read_keywords(&mut r)?;
        // Sorted now: the largest id is the last.
        if let Some(t) = keywords.terms().last().filter(|t| t.0 >= TERM_ID_LIMIT) {
            return Err(CodecError::invalid(format!(
                "keyword id {} of feature {id} is past the {TERM_ID_LIMIT}-term limit",
                t.0
            )));
        }
        features.push(FeatureObject::new(
            id,
            spq_spatial::Point::new(x, y),
            keywords,
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

/// Encodes an `OP_PROVISION` payload: the shard id, the fingerprint of
/// the feature set the shard is evaluated against (shipped separately,
/// once per worker, as `OP_FEATURES` chunks), the executor configuration
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

/// One decoded `OP_PROVISION` payload.
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

/// Decodes an `OP_PROVISION` payload. The shipped object count is
/// checked against the bytes that remain before it sizes an allocation.
pub fn decode_provision(payload: &[u8]) -> Result<Provision, CodecError> {
    let mut r = ByteReader::new(payload);
    let shard_id = r.u32()?;
    let fingerprint = r.u64()?;
    let exec = decode_executor(&mut r)?;
    let num_data = r.count(DATA_RECORD_BYTES)?;
    let mut indexes = Vec::with_capacity(num_data);
    let mut data = Vec::with_capacity(num_data);
    for _ in 0..num_data {
        indexes.push(r.u32()?);
        let id = r.u64()?;
        let (x, y) = (r.f64()?, r.f64()?);
        data.push(DataObject::new(id, spq_spatial::Point::new(x, y)));
    }
    let id_to_index = index_by_id(data.iter().map(|o| o.id).zip(indexes))
        .map_err(|id| CodecError::invalid(format!("duplicate data object id {id} in provision")))?;
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

/// Encodes an `OP_SHARD_QUERY` payload: the shard id, the query and the
/// trace flag (a traced request is answered by a job on the worker, and
/// its [`JobStats`](spq_mapreduce::JobStats) come back in the reply). The
/// worker budget is **not** shipped — shard jobs always run sequentially,
/// exactly as the in-process scatter does (the scatter width is the
/// parallelism).
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
    put_keywords(&mut out, &query.keywords);
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
    let keywords = read_keywords(&mut r)?;
    if keywords.is_empty() {
        return Err(CodecError::invalid("shard query with no keywords"));
    }
    let trace = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(CodecError::invalid(format!("unknown trace tag {other}"))),
    };
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard query"));
    }
    let query = SpqQuery::with_similarity(k, radius, keywords, similarity);
    let options = QueryOptions {
        workers: None,
        trace,
    };
    Ok((shard_id, query, options))
}

/// Encodes an `OP_SHARD_RESULT` payload: the gather records
/// ([`wire::RECORD_BYTES`]-byte each, global indexes) and the shard job's
/// [`JobStats`](spq_mapreduce::JobStats).
pub(crate) fn encode_shard_result(answer: &ShardAnswer) -> Vec<u8> {
    let mut out = Vec::with_capacity(answer.records.len() + 64);
    put_bytes(&mut out, &answer.records);
    encode_job_stats(&answer.stats, &mut out);
    out
}

/// Decodes an `OP_SHARD_RESULT` payload. Only the framing is checked here
/// — a whole number of records; whether each record's index is one the
/// answering shard may name is the gather's check
/// (`sharded::Layout::scatter_gather`).
pub(crate) fn decode_shard_result(payload: &[u8]) -> Result<ShardAnswer, CodecError> {
    let mut r = ByteReader::new(payload);
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
    Ok(ShardAnswer { records, stats })
}

/// Encodes an `OP_SHARD_STATUS_OK` payload: the hosted shard ids,
/// ascending.
pub(crate) fn encode_shard_status(shard_ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + shard_ids.len() * 4);
    put_u32s(&mut out, shard_ids.iter().copied());
    out
}

pub(crate) fn decode_shard_status(payload: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut r = ByteReader::new(payload);
    let shards = r.u32s()?.collect();
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard status"));
    }
    Ok(shards)
}
