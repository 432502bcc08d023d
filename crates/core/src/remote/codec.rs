//! Payload codecs of the shard protocol. All little-endian, layered on
//! the mapreduce byte codec; round-tripped and fed hostile bytes by the
//! proptests in `tests/remote_wire.rs`.

use crate::engine::{feature_side, KeywordIndex};
use crate::kernel::FeatureSide;
use crate::model::{DataObject, FeatureObject};
use crate::query::SpqQuery;
use crate::sharded::wire;
use spq_mapreduce::remote::codec::{put_f64, put_u32, put_u32s, put_u64, put_u8};
use spq_mapreduce::remote::frame::WordHasher;
use spq_mapreduce::remote::{ByteReader, CodecError};
use spq_spatial::{Point, Rect};
use spq_text::{KeywordSet, SetSimilarity, Term};

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

/// Appends the data-space bounds a shard's kernel grid covers — the one
/// executor setting a worker needs.
pub(super) fn put_bounds(out: &mut Vec<u8>, bounds: Rect) {
    put_f64(out, bounds.min().x);
    put_f64(out, bounds.min().y);
    put_f64(out, bounds.max().x);
    put_f64(out, bounds.max().y);
}

/// Reads what [`put_bounds`] wrote. Non-finite or inverted bounds are a
/// typed error, not `Rect`'s constructor panic.
pub(super) fn read_bounds(r: &mut ByteReader<'_>) -> Result<Rect, CodecError> {
    let (min_x, min_y, max_x, max_y) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
        return Err(CodecError::invalid("non-finite data-space bounds"));
    }
    if min_x > max_x || min_y > max_y {
        return Err(CodecError::invalid("inverted data-space bounds"));
    }
    Ok(Rect::from_coords(min_x, min_y, max_x, max_y))
}

/// Encoded size of one data object in an `OP_PROVISION` payload.
const DATA_RECORD_BYTES: usize = 8 + 8 + 8;
/// Encoded size of the data-space bounds: four `f64`s.
const BOUNDS_BYTES: usize = 4 * 8;
/// Shard id and feature-set fingerprint: what precedes an
/// `OP_PROVISION`'s data block.
const PROVISION_HEADER_BYTES: usize = 4 + 8;
/// Fingerprint, chunk index, chunk total.
pub(super) const CHUNK_HEADER_BYTES: usize = 8 + 4 + 4;

/// One past the largest keyword id a shipped feature set may carry, and
/// so the bound on a shipped term offset table's length (one entry per
/// term id, plus one). A worker holds that table as `usize` offsets, so
/// this bounds it at 32 MiB, where one id of `u32::MAX` would ask for
/// 32 GiB. It sits 47× above the largest vocabulary the generators
/// produce (88,706 terms).
pub(super) const TERM_ID_LIMIT: u32 = 1 << 22;

/// Column bytes one `OP_FEATURES` chunk carries: the columns are cut
/// between elements, each chunk as full as this allows (and never empty
/// of elements). Small enough that neither side ever holds a feature
/// set as one buffer, far enough under
/// [`MAX_FRAME_LEN`](spq_mapreduce::remote::MAX_FRAME_LEN) that no corpus
/// size brings a provisioning frame near the cap.
pub(super) const FEATURES_CHUNK_BYTES: usize = 1 << 20;

/// A feature set as it crosses the wire: its fingerprint and its
/// `OP_FEATURES` payloads, in the order they must be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureChunks {
    /// [`WordHasher`] over the four columns' word counts (`u64` each) and
    /// then their bytes — a function of the content alone, whatever the
    /// chunking.
    pub fingerprint: u64,
    /// One payload per chunk; never empty (a feature-less set is one
    /// chunk carrying a one-entry term offset table).
    pub chunks: Vec<Vec<u8>>,
}

/// Encodes `features` as the manager ships it: the slice's kernel state,
/// built exactly as an in-process shard builds it, cut into
/// `OP_FEATURES` chunk payloads of at most `budget` column bytes each.
pub fn encode_feature_slice(features: &[FeatureObject], budget: usize) -> FeatureChunks {
    encode_feature_side(&feature_side(features), budget)
}

/// Encodes a slice's kernel state into `OP_FEATURES` chunk payloads. Each
/// payload is the chunk header — fingerprint `u64`, chunk index `u32`,
/// chunk total `u32` — then one run per column, in wire order: the term
/// offset table, the postings, the length-run table and the locations,
/// each run a `u32` word count and the words. A length run is two words,
/// its first feature and its `|f.W|`; a location is four words, the
/// little-endian bytes of its two `f64`s, and the locations give the
/// feature count. Every column is in the index's numbering, by
/// `(|f.W|, store order)`. The columns are cut between elements (a length
/// run never splits) into chunks of at most `budget` column bytes (at
/// least one element each); a column starts only once the one before it
/// is complete. No feature id and no keyword list is shipped.
pub(crate) fn encode_feature_side(side: &FeatureSide, budget: usize) -> FeatureChunks {
    let (offsets, postings, runs) = side.index.columns();
    // An offset is at most the postings length, which is far below 2³²
    // for any slice that fits in memory on both sides.
    let offsets: Vec<u32> = offsets.iter().map(|&o| o as u32).collect();
    let mut locations = Vec::with_capacity(4 * side.locations.len());
    for p in &side.locations {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            locations.extend([bits as u32, (bits >> 32) as u32]);
        }
    }
    // Each column with its element width in words.
    let columns = [
        (&offsets[..], 1),
        (postings, 1),
        (runs, 2),
        (&locations[..], 4),
    ];
    let mut hasher = WordHasher::default();
    for (words, _) in columns {
        hasher.update(&(words.len() as u64).to_le_bytes());
    }
    // Headers are patched at the end, once the fingerprint and the chunk
    // total are known.
    let mut chunks = Vec::new();
    let mut next = [0usize; 4];
    loop {
        // How many words of each column the chunk takes: a column starts
        // only once the one before it is complete, and there is room for
        // one location at least, so every chunk moves on.
        let mut takes = [0usize; 4];
        let mut room = budget.max(16) / 4;
        for (((words, width), &next), take) in columns.iter().zip(&next).zip(&mut takes) {
            *take = (words.len() - next).min(room / width * width);
            room = if next + *take == words.len() {
                room - *take
            } else {
                0
            };
        }
        // The chunk is sized before it is written: it lives as long as
        // the engine, with no growth slack and no copy to shed it.
        let runs_bytes: usize = takes.iter().map(|take| 4 + 4 * take).sum();
        let mut chunk = Vec::with_capacity(CHUNK_HEADER_BYTES + runs_bytes);
        chunk.resize(CHUNK_HEADER_BYTES, 0);
        for (((words, _), next), take) in columns.into_iter().zip(&mut next).zip(takes) {
            let at = chunk.len() + 4;
            put_u32s(&mut chunk, words[*next..*next + take].iter().copied());
            hasher.update(&chunk[at..]);
            *next += take;
        }
        chunks.push(chunk);
        if columns
            .iter()
            .zip(next)
            .all(|((words, _), n)| n == words.len())
        {
            break;
        }
    }
    let fingerprint = hasher.finish();
    let total = chunks.len() as u32;
    for (index, chunk) in chunks.iter_mut().enumerate() {
        chunk[..8].copy_from_slice(&fingerprint.to_le_bytes());
        chunk[8..12].copy_from_slice(&(index as u32).to_le_bytes());
        chunk[12..16].copy_from_slice(&total.to_le_bytes());
    }
    FeatureChunks {
        fingerprint,
        chunks,
    }
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

/// A feature slice's columns as a worker assembles them from its chunks,
/// each run appended as it arrives (the length runs and the locations as
/// their words);
/// [`install`](Self::install) checks them and makes them kernel state.
#[derive(Debug, Default)]
pub(crate) struct FeatureColumns {
    offsets: Vec<usize>,
    postings: Vec<u32>,
    runs: Vec<u32>,
    locations: Vec<u32>,
}

impl FeatureColumns {
    /// Checks the assembled columns (whole locations, one per feature;
    /// the rest as [`KeywordIndex::from_columns`] does) and keeps them as
    /// the slice's kernel state: nothing is built per term.
    pub(crate) fn install(self) -> Result<FeatureSide, CodecError> {
        let (words, []) = self.locations.as_chunks::<4>() else {
            return Err(CodecError::invalid("a location is not four words"));
        };
        let f64_at = |lo: u32, hi: u32| f64::from_bits(lo as u64 | (hi as u64) << 32);
        let locations = words
            .iter()
            .map(|&[x_lo, x_hi, y_lo, y_hi]| Point::new(f64_at(x_lo, x_hi), f64_at(y_lo, y_hi)))
            .collect();
        let index = KeywordIndex::from_columns(self.offsets, self.postings, self.runs, words.len())
            .map_err(CodecError::invalid)?;
        Ok(FeatureSide { locations, index })
    }
}

/// An `OP_FEATURES` payload whose header has been read: which chunk of
/// which set it is. [`read_into`](Self::read_into) then appends its runs
/// to the slice being assembled.
pub(crate) struct FeaturesChunkReader<'a> {
    /// The set this chunk belongs to.
    pub(crate) fingerprint: u64,
    /// Position of this chunk in the set (`< total`).
    pub(crate) index: u32,
    /// Chunks in the set (≥ 1).
    pub(crate) total: u32,
    r: ByteReader<'a>,
}

impl<'a> FeaturesChunkReader<'a> {
    /// Reads the header of one `OP_FEATURES` payload.
    pub(crate) fn new(payload: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        let fingerprint = r.u64()?;
        let index = r.u32()?;
        let total = r.u32()?;
        if index >= total {
            return Err(CodecError::invalid(format!(
                "feature chunk {index} of a set of {total}"
            )));
        }
        Ok(Self {
            fingerprint,
            index,
            total,
            r,
        })
    }

    /// Appends the chunk's four runs to `columns` by bulk copy. Every run
    /// count is checked against the bytes that remain before anything is
    /// reserved for it, and a term offset table growing past
    /// [`TERM_ID_LIMIT`]` + 1` entries is refused before it is extended.
    /// On an error, `columns` may hold part of the chunk.
    pub(crate) fn read_into(mut self, columns: &mut FeatureColumns) -> Result<(), CodecError> {
        let r = &mut self.r;
        let offsets = r.u32s()?;
        if columns.offsets.len() + offsets.len() > TERM_ID_LIMIT as usize + 1 {
            return Err(CodecError::invalid(format!(
                "a term offset table past the {TERM_ID_LIMIT}-term limit"
            )));
        }
        columns.offsets.extend(offsets.map(|o| o as usize));
        columns.postings.extend(r.u32s()?);
        columns.runs.extend(r.u32s()?);
        columns.locations.extend(r.u32s()?);
        if !r.is_empty() {
            return Err(CodecError::invalid("trailing bytes after feature chunk"));
        }
        Ok(())
    }
}

/// Encodes an `OP_PROVISION` payload: a 12-byte header — the shard id
/// and the fingerprint of the shard's feature slice (shipped separately
/// as `OP_FEATURES` chunks) — then the data block: the data-space bounds
/// the kernel grid covers, a `u32` count and **all** of `O` in store
/// order as 24-byte records (id `u64`, then `x` and `y` as `f64` bits),
/// so a record's position is the global store index gather records name.
/// No job setting is shipped: a worker never runs a job. A manager sends
/// header and data block as the two parts of one frame, the data block
/// encoded once for every install.
pub fn encode_provision(
    shard_id: u32,
    fingerprint: u64,
    bounds: Rect,
    data: &[DataObject],
) -> Vec<u8> {
    [
        &provision_header(shard_id, fingerprint)[..],
        &encode_data_block(bounds, data),
    ]
    .concat()
}

/// An [`encode_provision`] payload's header.
pub(super) fn provision_header(shard_id: u32, fingerprint: u64) -> [u8; PROVISION_HEADER_BYTES] {
    let mut header = [0; PROVISION_HEADER_BYTES];
    header[..4].copy_from_slice(&shard_id.to_le_bytes());
    header[4..].copy_from_slice(&fingerprint.to_le_bytes());
    header
}

/// An [`encode_provision`] payload's data block.
pub(super) fn encode_data_block(bounds: Rect, data: &[DataObject]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BOUNDS_BYTES + 4 + data.len() * DATA_RECORD_BYTES);
    put_bounds(&mut out, bounds);
    put_u32(&mut out, data.len() as u32);
    for object in data {
        put_u64(&mut out, object.id);
        put_f64(&mut out, object.location.x);
        put_f64(&mut out, object.location.y);
    }
    out
}

/// One checked `OP_PROVISION` payload, its data records not yet decoded.
#[derive(Debug)]
pub struct Provision<'a> {
    /// The shard to install.
    pub shard_id: u32,
    /// The feature slice the shard is evaluated against.
    pub fingerprint: u64,
    /// [`WordHasher`] over the data block as shipped (bounds, count and
    /// data objects) — a function of the content alone, so every shard of
    /// one store names the same data side.
    pub data_fingerprint: u64,
    /// The data-space bounds the kernel grid covers.
    pub bounds: Rect,
    /// The data records, 24 bytes each.
    records: &'a [u8],
}

impl Provision<'_> {
    /// The data objects, in the manager's store order. Every record
    /// decodes: the payload's length was checked against their count.
    pub fn data(&self) -> Vec<DataObject> {
        let (words, _) = self.records.as_chunks::<8>();
        let (records, _) = words.as_chunks::<3>();
        records
            .iter()
            .map(|&[id, x, y]| {
                let (x, y) = (f64::from_le_bytes(x), f64::from_le_bytes(y));
                DataObject::new(u64::from_le_bytes(id), Point::new(x, y))
            })
            .collect()
    }
}

/// Checks an `OP_PROVISION` payload and fingerprints its data block,
/// decoding only the header and the bounds: the length must be exactly
/// the header, the bounds and the count's 24-byte records (a count the
/// payload cannot hold is [`CodecError::Truncated`], bytes past the
/// records are invalid). [`Provision::data`] decodes the records — which
/// a worker that already holds the data side never does.
pub fn decode_provision(payload: &[u8]) -> Result<Provision<'_>, CodecError> {
    let mut r = ByteReader::new(payload);
    let shard_id = r.u32()?;
    let fingerprint = r.u64()?;
    let bounds = read_bounds(&mut r)?;
    let num_data = r.count(DATA_RECORD_BYTES)?;
    if r.remaining() != num_data * DATA_RECORD_BYTES {
        return Err(CodecError::invalid("trailing bytes after provision"));
    }
    let mut hasher = WordHasher::default();
    hasher.update(&payload[PROVISION_HEADER_BYTES..]);
    Ok(Provision {
        shard_id,
        fingerprint,
        data_fingerprint: hasher.finish(),
        bounds,
        records: &payload[payload.len() - r.remaining()..],
    })
}

/// Encodes an `OP_SHARD_QUERY` payload: the shard id and the query.
/// Nothing else is shipped — a shard answers every request with its
/// kernel, traced or not, and a trace's job runs on the manager.
pub(crate) fn encode_shard_query(shard_id: u32, query: &SpqQuery) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, shard_id);
    put_u64(&mut out, query.k as u64);
    put_f64(&mut out, query.radius);
    put_u8(&mut out, similarity_to_u8(query.similarity));
    put_keywords(&mut out, &query.keywords);
    out
}

pub(crate) fn decode_shard_query(payload: &[u8]) -> Result<(u32, SpqQuery), CodecError> {
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
    if !r.is_empty() {
        return Err(CodecError::invalid("trailing bytes after shard query"));
    }
    let query = SpqQuery::with_similarity(k, radius, keywords, similarity);
    Ok((shard_id, query))
}

/// Decodes an `OP_SHARD_RESULT` payload, which is the shard's gather
/// records alone ([`wire::RECORD_BYTES`] bytes each, global indexes —
/// exactly what `sharded::wire::encode_results` wrote). Only the framing
/// is checked here: a whole number of records. Whether the records are
/// ones a kernel writes — at most `k`, each index inside the store and
/// named once, each score one a similarity can take — is the gather's
/// check (`sharded::Layout::scatter_gather`).
pub(crate) fn decode_shard_result(payload: Vec<u8>) -> Result<Vec<u8>, CodecError> {
    if !payload.len().is_multiple_of(wire::RECORD_BYTES) {
        return Err(CodecError::invalid(format!(
            "gather buffer of {} bytes is not a whole number of records",
            payload.len()
        )));
    }
    Ok(payload)
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
