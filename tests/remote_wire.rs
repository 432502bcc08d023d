//! Round-trip properties of the remote frame and shard codecs, what the
//! provisioning and shard-result decoders do with hostile bytes, the order
//! a worker answers pipelined frames in, and the counters a traced
//! response carries on every backend.
//!
//! The remote engine's correctness argument leans on exact
//! serialization: what is shipped to a worker and what is shipped back
//! must decode to precisely what was encoded, for any content —
//! including empty payloads and payloads near the frame-size cap. These
//! tests mirror the `sharded::wire` round-trip style one layer down, at
//! the frame and codec layer (`spq::mapreduce::remote`) the TCP transport
//! actually speaks.

use proptest::prelude::*;
use spq::core::merge::merge_top_k;
use spq::core::remote::{decode_provision, encode_feature_slice, encode_provision};
use spq::core::sharded::wire;
use spq::mapreduce::remote::codec::put_u32s;
use spq::mapreduce::remote::frame::{WordHasher, MAGIC};
use spq::mapreduce::remote::{
    read_frame, write_frame, ByteReader, ClientConfig, FrameError, FrameHandler, WorkerClient,
    WorkerServer, OP_ERROR, OP_FEATURES, OP_FEATURES_OK, OP_PING, OP_PONG, OP_PROVISION,
    OP_PROVISION_OK, OP_SHARD_QUERY, OP_SHARD_RESULT,
};
use spq::prelude::*;
use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frame written through a stream reads back with the same opcode
    /// and payload, for any opcode and any payload bytes.
    #[test]
    fn prop_frame_round_trips(
        opcode in 0u16..=u16::MAX,
        payload in proptest::collection::vec(0u8..=u8::MAX, 0..2048),
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, opcode, &payload).unwrap();
        let (got_op, got_payload) = read_frame(&mut Cursor::new(&stream)).unwrap();
        prop_assert_eq!(got_op, opcode);
        prop_assert_eq!(got_payload, payload);
    }

    /// Changing any payload byte by any mask is always detected by the
    /// checksum — in a full word or in the sub-word tail — a torn magic
    /// is always detected, and every strict prefix of a frame reads as
    /// truncated: corruption never decodes as a valid frame.
    #[test]
    fn prop_frame_corruption_is_detected(
        opcode in 0u16..=u16::MAX,
        payload in proptest::collection::vec(0u8..=u8::MAX, 1..512),
        position in 0usize..4096,
        mask in 1u8..=u8::MAX,
        in_tail in 0u8..2,
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, opcode, &payload).unwrap();
        let header_len = stream.len() - payload.len();

        // Corrupt one payload byte; half the cases pick a byte past the
        // last full word when there is one.
        let tail = payload.len() % 8;
        let offset = if in_tail == 1 && tail > 0 {
            payload.len() - 1 - position % tail
        } else {
            position % payload.len()
        };
        let mut corrupted = stream.clone();
        corrupted[header_len + offset] ^= mask;
        prop_assert!(matches!(
            read_frame(&mut Cursor::new(&corrupted)),
            Err(FrameError::Corrupt { .. })
        ));

        // Corrupt the magic.
        let mut bad_magic = stream.clone();
        bad_magic[0] ^= 0xFF;
        match read_frame(&mut Cursor::new(&bad_magic)) {
            Err(FrameError::BadMagic { found }) => prop_assert!(found != MAGIC),
            other => prop_assert!(false, "expected BadMagic, got {:?}", other),
        }

        // Every strict prefix is an error, not a wild read.
        let cut = position % stream.len();
        prop_assert!(read_frame(&mut Cursor::new(&stream[..cut])).is_err());
    }

    /// The checksum and fingerprint hasher folds any split of a buffer —
    /// pieces that end mid-word included — to the one-shot hash.
    #[test]
    fn prop_word_hash_is_split_independent(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        let mut whole = WordHasher::default();
        whole.update(&bytes);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut pieces = WordHasher::default();
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            pieces.update(&bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(pieces.finish(), whole.finish());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A traced response's counters are its job's, on every backend: each
    /// trace equals a fresh `run_dataset` job's exactly, with keyword
    /// pruning on or off.
    #[test]
    fn prop_counters_round_trip(
        data in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..20),
        features in proptest::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, proptest::collection::vec(0u32..8, 1..4)),
            0..30,
        ),
        keywords in proptest::collection::vec(0u32..8, 1..3),
        radius in 0.5f64..3.0,
        k in 1usize..5,
    ) {
        let dataset = SharedDataset::new(
            data.iter()
                .enumerate()
                .map(|(i, &(x, y))| DataObject::new(i as u64, Point::new(x, y)))
                .collect(),
            features
                .iter()
                .enumerate()
                .map(|(i, (x, y, kw))| {
                    let keywords = KeywordSet::from_ids(kw.iter().copied());
                    FeatureObject::new(i as u64, Point::new(*x, *y), keywords)
                })
                .collect(),
        );
        let query = SpqQuery::new(k, radius, KeywordSet::from_ids(keywords));
        let request = QueryRequest::new(query).with_trace();
        for pruning in [true, false] {
            let exec = unit_executor().keyword_pruning(pruning);
            let fresh = exec.run_dataset(&dataset, &request.query).unwrap().stats;
            for backend in [
                Backend::Local,
                Backend::Sharded { shards: 3 },
                Backend::Remote { workers: 2 },
            ] {
                let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
                let trace = service.execute(&request).unwrap().trace.unwrap();
                prop_assert_eq!(trace.len(), 1, "{}", backend);
                prop_assert_eq!(
                    &trace[0].counters, &fresh.counters,
                    "{} pruning={}", backend, pruning
                );
            }
        }
    }
}

/// A payload at the upper end of what one frame carries in practice (a
/// few MiB, under the 64 MiB cap) crosses a stream byte-for-byte.
#[test]
fn max_size_records_round_trip() {
    let payload: Vec<u8> = (0..(4usize << 20) + 17).map(|i| (i % 251) as u8).collect();
    let mut stream = Vec::new();
    write_frame(&mut stream, OP_FEATURES, &payload).unwrap();
    let (op, got) = read_frame(&mut Cursor::new(&stream)).unwrap();
    assert_eq!(op, OP_FEATURES);
    assert_eq!(got, payload);
}

// ---------------------------------------------------------------------
// Provisioning: feature-set chunk frames and the shard install
// ---------------------------------------------------------------------

/// `n` features of three keywords each; from the fourth on, term 16 +
/// i mod 3 is shared with an earlier feature.
fn uniform_features(n: u64) -> Vec<FeatureObject> {
    (0..n)
        .map(|i| {
            let terms = [i as u32 % 11, 11 + i as u32 % 5, 16 + i as u32 % 3];
            FeatureObject::new(
                i,
                Point::new(i as f64 * 0.25, 10.0 - i as f64 * 0.125),
                KeywordSet::from_ids(terms),
            )
        })
        .collect()
}

fn unit_executor() -> SpqExecutor {
    SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4)
}

/// Bytes per element of the four shipped columns, in wire order: term
/// offsets and postings (one `u32` word each), length runs (two words:
/// first feature and `|f.W|`) and locations (four words: two `f64`s).
const WIDTHS: [usize; 4] = [4, 4, 8, 16];

/// A feature slice's shipped columns, as bytes.
type Columns = [Vec<u8>; 4];

/// Reads a chunk sequence back into its four columns, checking the chunk
/// headers and the run framing on the way: a chunk is its fingerprint,
/// index and total, then one word-count-prefixed run per column.
fn reassemble(chunks: &[Vec<u8>], fingerprint: u64) -> Columns {
    let mut columns = Columns::default();
    for (i, payload) in chunks.iter().enumerate() {
        let mut r = ByteReader::new(payload);
        assert_eq!(r.u64().unwrap(), fingerprint);
        assert_eq!(
            (r.u32().unwrap(), r.u32().unwrap()),
            (i as u32, chunks.len() as u32)
        );
        for column in &mut columns {
            column.extend(r.u32s().unwrap().flat_map(u32::to_le_bytes));
        }
        assert!(r.is_empty());
    }
    columns
}

/// What a set's fingerprint is: [`WordHasher`] over the four columns'
/// word counts and then their bytes.
fn content_hash(columns: &Columns) -> u64 {
    let mut hasher = WordHasher::default();
    for column in columns {
        hasher.update(&((column.len() / 4) as u64).to_le_bytes());
    }
    for column in columns {
        hasher.update(column);
    }
    hasher.finish()
}

/// A column's elements as `u32`s.
fn u32s(column: &[u8]) -> Vec<u32> {
    let (words, _) = column.as_chunks::<4>();
    words.iter().map(|&w| u32::from_le_bytes(w)).collect()
}

/// A one-chunk `OP_FEATURES` payload of set 1 carrying the given columns,
/// written by hand as the wire lays them out — so it can say anything.
fn column_chunk(offsets: &[u32], postings: &[u32], runs: &[u32], locations: &[u8]) -> Vec<u8> {
    let mut out = 1u64.to_le_bytes().to_vec();
    out.extend([0u32, 1].iter().flat_map(|v| v.to_le_bytes()));
    for column in [offsets, postings, runs, &u32s(locations)] {
        put_u32s(&mut out, column.iter().copied());
    }
    out
}

/// A well-formed slice of two features at (0, 0) and (1, 1), both
/// carrying term 0 — one run, of length 1 from feature 0 — in the layout
/// [`column_chunk`] writes.
fn two_feature_slice() -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u8>) {
    let locations = [0.0f64, 0.0, 1.0, 1.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    (vec![0, 2], vec![0, 1], vec![0, 1], locations)
}

/// Where the chunk boundaries fall changes neither the columns that come
/// out nor the set's fingerprint, which is the hash of the content and of
/// nothing else. No chunk carries more than its budget of column bytes,
/// and every chunk carries at least one element.
#[test]
fn feature_chunking_is_boundary_independent() {
    let features = uniform_features(23);
    let whole = encode_feature_slice(&features, usize::MAX);
    assert_eq!(whole.chunks.len(), 1);
    let columns = reassemble(&whole.chunks, whole.fingerprint);
    assert_eq!(whole.fingerprint, content_hash(&columns));
    // Terms 0..=18: 20 offsets; 69 postings; one run, every feature
    // carrying three keywords; 23 locations — 364 bytes of one- and
    // two-word elements, then 368 of locations.
    let elements: Vec<usize> = columns
        .iter()
        .zip(WIDTHS)
        .map(|(c, w)| c.len() / w)
        .collect();
    assert_eq!(elements, [20, 69, 1, 23]);
    // A budget below one location still moves on, one location (or four
    // u32s) per chunk. 20 bytes leave 8 of them unused before the first
    // location: 5 u32s a chunk — the run pair never splits, so it rides
    // in a chunk of its own — then one location a chunk.
    for (budget, chunks) in [(1, 46), (16, 46), (20, 19 + 23), (112, 7), (usize::MAX, 1)] {
        let set = encode_feature_slice(&features, budget);
        assert_eq!(set.chunks.len(), chunks, "budget {budget}");
        assert_eq!(set.fingerprint, whole.fingerprint, "budget {budget}");
        assert_eq!(reassemble(&set.chunks, set.fingerprint), columns);
        for chunk in &set.chunks {
            let column_bytes = chunk.len() - 16 - 4 * 4;
            assert!(
                (1..=budget.max(16)).contains(&column_bytes),
                "budget {budget}"
            );
        }
    }
    // A feature-less set is one chunk with a one-entry offset table: the
    // set exists.
    let empty = encode_feature_slice(&[], 16);
    assert_eq!(empty.chunks.len(), 1);
    let nothing = reassemble(&empty.chunks, empty.fingerprint);
    assert_eq!(u32s(&nothing[0]), [0]);
    assert!(nothing[1..].iter().all(Vec::is_empty));
    assert_eq!(empty.fingerprint, content_hash(&nothing));
    // Different content, different name.
    assert_ne!(
        encode_feature_slice(&features[..22], usize::MAX).fingerprint,
        whole.fingerprint
    );
}

/// Features with no keyword and with one keyword cross the wire beside
/// ones with several: numbered by `(|f.W|, store order)`, a run each for
/// lengths 0, 1 and 3, postings only where there are keywords, every
/// location bit for bit in that numbering — and a worker installs the
/// slice and answers over it.
#[test]
fn features_with_zero_and_one_keywords_round_trip() {
    let features: Vec<FeatureObject> = [&[][..], &[7], &[], &[0], &[2, 9, 40]]
        .iter()
        .enumerate()
        .map(|(i, ids)| {
            let at = Point::new(i as f64, -(i as f64));
            FeatureObject::new(i as u64, at, KeywordSet::from_ids(ids.iter().copied()))
        })
        .collect();
    for budget in [1, usize::MAX] {
        let set = encode_feature_slice(&features, budget);
        let [offsets, postings, runs, locations] = reassemble(&set.chunks, set.fingerprint);
        assert_eq!(u32s(&offsets).len(), 42);
        // Stored features 0, 2, 1, 3, 4 are numbered 0–4: term 0 is on
        // feature 3, terms 2, 9 and 40 on 4, term 7 on 2.
        assert_eq!(u32s(&postings), [3, 4, 2, 4, 4]);
        assert_eq!(u32s(&runs), [0, 0, 2, 1, 4, 3]);
        let shipped: Vec<u8> = [0, 2, 1, 3, 4]
            .iter()
            .map(|&i| &features[i])
            .flat_map(|f| [f.location.x, f.location.y])
            .flat_map(f64::to_le_bytes)
            .collect();
        assert_eq!(locations, shipped);

        let host = ShardHost::new();
        for chunk in &set.chunks {
            host.handle(OP_FEATURES, chunk).unwrap();
        }
        let data = [DataObject::new(9, Point::new(4.0, -4.0))];
        let install = encode_provision(0, set.fingerprint, unit_executor().bounds(), &data);
        host.handle(OP_PROVISION, &install).unwrap();
        let (op, reply) = host
            .handle(OP_SHARD_QUERY, &shard_query(0, 1, 0.5, &[40]))
            .unwrap()
            .unwrap();
        assert_eq!((op, reply.len()), (OP_SHARD_RESULT, wire::RECORD_BYTES));
    }
}

/// Each term's postings must strictly increase — the kernel's merge
/// relies on it. A term listing a feature twice, or two features in
/// descending order, is refused even when the runs agree with the
/// postings (the last pair cannot: feature 0 would be the longer), and
/// the host holds no set; the ordered slice installs.
#[test]
fn unsorted_or_repeated_postings_are_refused() {
    let (offsets, _, _, locations) = two_feature_slice();
    for (postings, runs) in [
        ([1, 0], &[0, 1][..]),
        ([1, 1], &[0, 0, 1, 2]),
        ([0, 0], &[0, 1]),
    ] {
        let host = ShardHost::new();
        let chunk = column_chunk(&offsets, &postings, runs, &locations);
        let refused = host.handle(OP_FEATURES, &chunk).unwrap_err();
        assert!(
            refused.contains("strictly increase"),
            "{postings:?}: {refused}"
        );
        assert_eq!(host.feature_sets(), 0);
        let (offsets, postings, runs, locations) = two_feature_slice();
        host.handle(
            OP_FEATURES,
            &column_chunk(&offsets, &postings, &runs, &locations),
        )
        .unwrap();
        assert_eq!(host.feature_sets(), 1);
    }
}

/// The host takes a set's chunks in order, once: anything else is a
/// typed error — and so is an install that names a set the host does not
/// hold, which must never become a silently empty shard.
#[test]
fn shard_host_rejects_out_of_sequence_chunks_and_unknown_sets() {
    let features = uniform_features(12);
    let set = encode_feature_slice(&features, 160);
    assert_eq!(set.chunks.len(), 3);
    let foreign = encode_feature_slice(&features[..8], 160);
    assert!(foreign.chunks.len() > 1);
    let refused = |host: &ShardHost, payload: &[u8]| host.handle(OP_FEATURES, payload).unwrap_err();

    // Out of order: chunk 1 before chunk 0, and chunk 2 right after 0.
    let host = ShardHost::new();
    assert!(refused(&host, &set.chunks[1]).contains("out of sequence"));
    host.handle(OP_FEATURES, &set.chunks[0]).unwrap();
    assert!(refused(&host, &set.chunks[2]).contains("out of sequence"));

    // Duplicated: chunk 1 twice.
    let host = ShardHost::new();
    host.handle(OP_FEATURES, &set.chunks[0]).unwrap();
    host.handle(OP_FEATURES, &set.chunks[1]).unwrap();
    assert!(refused(&host, &set.chunks[1]).contains("out of sequence"));

    // Foreign fingerprint: another set's chunk 1 in the middle of this one.
    let host = ShardHost::new();
    host.handle(OP_FEATURES, &set.chunks[0]).unwrap();
    assert!(refused(&host, &foreign.chunks[1]).contains("out of sequence"));
    assert_eq!(host.feature_sets(), 0);

    // A refused sequence is abandoned; shipping again from chunk 0 works.
    for chunk in &set.chunks {
        host.handle(OP_FEATURES, chunk).unwrap();
    }
    assert_eq!(host.feature_sets(), 1);

    // Well-framed chunks whose columns lie are refused on the last chunk,
    // and the set they would have made is not held; the set already held
    // stays.
    let (offsets, postings, runs, locations) = two_feature_slice();
    for bad in [
        column_chunk(&[0, 2, 1, 2], &postings, &runs, &locations),
        column_chunk(&[0, 1], &postings, &runs, &locations),
        column_chunk(&offsets, &[0, 2], &runs, &locations),
        column_chunk(&offsets, &[1, 0], &runs, &locations),
        column_chunk(&offsets, &postings, &runs, &locations[..16]),
        column_chunk(&offsets, &postings, &runs, &locations[..20]),
    ] {
        assert!(refused(&host, &bad).contains("bad features payload"));
        assert_eq!(host.feature_sets(), 1);
    }
    // Run tables that lie, each refused by the check it breaks: lengths
    // that descend or repeat, a run past the feature count, a gap at
    // feature 0 (or no run at all), runs that disagree with the posting
    // counts, half a run.
    for (bad_runs, why) in [
        (
            &[0, 1, 1, 0][..],
            "do not cut the features from 0 by rising length",
        ),
        (
            &[0, 1, 1, 1],
            "do not cut the features from 0 by rising length",
        ),
        (
            &[0, 1, 2, 2],
            "do not cut the features from 0 by rising length",
        ),
        (&[1, 1], "do not cut the features from 0 by rising length"),
        (&[], "do not cut the features from 0 by rising length"),
        (&[0, 0, 1, 1], "disagree with the run of length 0"),
        (&[0, 2], "disagree with the run of length 2"),
        (&[0], "pairs"),
    ] {
        let refusal = refused(
            &host,
            &column_chunk(&offsets, &postings, bad_runs, &locations),
        );
        assert!(
            refusal.contains("bad features payload") && refusal.contains(why),
            "{bad_runs:?}: {refusal}"
        );
        assert_eq!(host.feature_sets(), 1);
    }

    // An install over that set is accepted, one over an unknown set is
    // refused by name and hosts nothing.
    let data = [DataObject::new(7, Point::new(1.0, 1.0))];
    let unknown = encode_provision(1, foreign.fingerprint, unit_executor().bounds(), &data);
    let error = host.handle(OP_PROVISION, &unknown).unwrap_err();
    assert!(error.contains("unknown feature set"), "{error}");
    assert_eq!(host.hosted_shards(), 0);
    let known = encode_provision(1, set.fingerprint, unit_executor().bounds(), &data);
    host.handle(OP_PROVISION, &known).unwrap();
    assert_eq!(host.hosted_shards(), 1);
}

/// An `OP_SHARD_QUERY` payload as the manager writes it: shard id, `k`,
/// radius, similarity tag (0 = Jaccard) and the keyword ids.
fn shard_query(shard: u32, k: u64, radius: f64, ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend(shard.to_le_bytes());
    out.extend(k.to_le_bytes());
    out.extend(radius.to_bits().to_le_bytes());
    out.push(0);
    out.extend((ids.len() as u32).to_le_bytes());
    out.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
    out
}

/// A worker answers the frames of one connection one at a time, in the
/// order they were sent — the contract a pipelined scatter rests on, since
/// an `OP_SHARD_RESULT` names no shard. Pings with distinct tokens and
/// queries for two hosted shards go out back to back, in one write; the
/// replies come back in the same order, each what the frame gets alone.
/// The client's split `send`/`receive` sees the same.
#[test]
fn a_worker_answers_back_to_back_frames_in_order() {
    let features = uniform_features(12);
    // Term 16 is carried by features 0 and 3 (shard 0) and 6 and 9
    // (shard 1); each shard has one data object within 1 of one of them.
    let data = [
        DataObject::new(1, Point::new(0.5, 9.8)),
        DataObject::new(2, Point::new(2.0, 9.0)),
    ];
    let server =
        WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
    let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
    for (shard, slice) in [&features[..6], &features[6..]].into_iter().enumerate() {
        let set = encode_feature_slice(slice, usize::MAX);
        for chunk in &set.chunks {
            assert_eq!(client.call(OP_FEATURES, chunk).unwrap().0, OP_FEATURES_OK);
        }
        let bounds = unit_executor().bounds();
        let install = encode_provision(shard as u32, set.fingerprint, bounds, &data);
        assert_eq!(
            client.call(OP_PROVISION, &install).unwrap().0,
            OP_PROVISION_OK
        );
    }
    let frames = [
        (OP_PING, b"first".to_vec()),
        (OP_SHARD_QUERY, shard_query(0, 2, 1.0, &[16])),
        (OP_PING, b"second".to_vec()),
        (OP_SHARD_QUERY, shard_query(1, 2, 1.0, &[16])),
        (OP_PING, b"third".to_vec()),
    ];
    let alone: Vec<(u16, Vec<u8>)> = frames
        .iter()
        .map(|(opcode, payload)| client.call(*opcode, payload).unwrap())
        .collect();
    assert_eq!(alone[0], (OP_PONG, b"first".to_vec()));
    assert_eq!(alone[1].0, OP_SHARD_RESULT);
    assert_eq!(alone[1].1.len(), wire::RECORD_BYTES);
    assert_eq!(alone[3].0, OP_SHARD_RESULT);
    assert_ne!(alone[1], alone[3], "the two shards must answer differently");

    let mut bytes = Vec::new();
    for (opcode, payload) in &frames {
        write_frame(&mut bytes, *opcode, payload).unwrap();
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&bytes).unwrap();
    let replies: Vec<(u16, Vec<u8>)> = frames
        .iter()
        .map(|_| read_frame(&mut stream).unwrap())
        .collect();
    assert_eq!(replies, alone);

    for (opcode, payload) in &frames {
        client.send(*opcode, payload).unwrap();
    }
    let replies: Vec<(u16, Vec<u8>)> = frames.iter().map(|_| client.receive().unwrap()).collect();
    assert_eq!(replies, alone);
}

/// A worker keys a provision's data block by content: a second install
/// carrying the block it already holds shares that data side, decoding
/// nothing, and the shard it installs answers byte-identically to the
/// same shard on a host that decoded the block for it. A provision whose
/// block length disagrees with its record count is refused before that
/// lookup, with the installed shards left as they were; through a worker
/// the refusal is an `OP_ERROR`, and the next connection is served.
#[test]
fn a_held_data_side_serves_a_second_shard_and_a_lying_block_is_refused() {
    let features = uniform_features(12);
    let data: Vec<DataObject> = (0..20)
        .map(|i| DataObject::new(i, Point::new(i as f64 * 0.5, 10.0 - i as f64 * 0.375)))
        .collect();
    let bounds = unit_executor().bounds();
    let sets = [&features[..6], &features[6..]].map(|slice| encode_feature_slice(slice, 160));
    let installs: Vec<Vec<u8>> = sets
        .iter()
        .enumerate()
        .map(|(shard, set)| encode_provision(shard as u32, set.fingerprint, bounds, &data))
        .collect();
    let query = shard_query(1, 5, 3.0, &[16, 17]);
    let ship = |host: &ShardHost, shard: usize| {
        for chunk in &sets[shard].chunks {
            host.handle(OP_FEATURES, chunk).unwrap();
        }
        host.handle(OP_PROVISION, &installs[shard]).unwrap();
    };

    // Shard 1 alone: its host decodes the data block.
    let alone = ShardHost::new();
    ship(&alone, 1);
    let expected = alone.handle(OP_SHARD_QUERY, &query).unwrap().unwrap();
    assert_eq!(expected.0, OP_SHARD_RESULT);
    assert_eq!(expected.1.len(), 5 * wire::RECORD_BYTES);

    // Shard 1 after shard 0: one data side serves both.
    let host = ShardHost::new();
    ship(&host, 0);
    ship(&host, 1);
    assert_eq!((host.hosted_shards(), host.data_sides()), (2, 1));
    assert_eq!(
        host.handle(OP_SHARD_QUERY, &query).unwrap().unwrap(),
        expected
    );

    // The data count sits after the 12-byte header and the 32-byte bounds.
    let count_at = 12 + 32;
    let lies = {
        let mut lies = Vec::new();
        for count in [data.len() + 1, data.len() - 1, 0] {
            let mut lie = installs[1].clone();
            patch_u32(&mut lie, count_at, count as u32);
            lies.push(lie);
        }
        let mut longer = installs[1].clone();
        longer.push(0);
        lies.push(longer);
        lies.push(installs[1][..installs[1].len() - 1].to_vec());
        lies
    };
    for lie in &lies {
        let error = host.handle(OP_PROVISION, lie).unwrap_err();
        assert!(error.contains("bad provision payload"), "{error}");
        assert_eq!((host.hosted_shards(), host.data_sides()), (2, 1));
    }
    assert_eq!(
        host.handle(OP_SHARD_QUERY, &query).unwrap().unwrap(),
        expected
    );

    let server =
        WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
    let addr = server.addr().to_string();
    let mut client = WorkerClient::new(addr.clone(), ClientConfig::fast());
    for shard in 0..2 {
        for chunk in &sets[shard].chunks {
            assert_eq!(client.call(OP_FEATURES, chunk).unwrap().0, OP_FEATURES_OK);
        }
        let (op, _) = client.call(OP_PROVISION, &installs[shard]).unwrap();
        assert_eq!(op, OP_PROVISION_OK);
    }
    for lie in &lies {
        assert_eq!(client.call(OP_PROVISION, lie).unwrap().0, OP_ERROR);
    }
    let mut fresh = WorkerClient::new(addr, ClientConfig::fast());
    assert!(fresh.ping(b"still here").is_ok());
    assert_eq!(fresh.call(OP_SHARD_QUERY, &query).unwrap(), expected);
    server.shutdown();
}

/// Overwrites the little-endian `u32` at `at` with `value`.
fn patch_u32(payload: &mut [u8], at: usize, value: u32) {
    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, well-formed payloads whose run or data-object
    /// count was overwritten with a lie, and well-framed feature chunks
    /// whose columns lie are refused with a typed error — never a panic,
    /// never an allocation sized by the lie (every count is held to what
    /// the remaining bytes can carry before anything is reserved for it).
    /// The column lies: offsets that decrease, or do not end at the
    /// postings length; a posting naming a feature past the count; a term
    /// listing a feature twice, or two in descending order; length runs
    /// that descend, repeat a length, start past the feature count, leave
    /// a gap at feature 0 or disagree with the posting counts; a location
    /// missing. A worker's host refuses each such chunk, holds no set
    /// after it, and still assembles and installs a well-formed slice
    /// afterwards; a worker that was sent such a frame says so with a
    /// typed error and serves the next connection.
    #[test]
    fn prop_provisioning_decoders_survive_hostile_input(
        noise in proptest::collection::vec(0u8..=u8::MAX, 0..256),
        num_features in 4u64..12,
        lie in (u32::MAX - 2)..=u32::MAX,
        near_lie in 0u32..4,
    ) {
        // Arbitrary bytes.
        let _ = ShardHost::new().handle(OP_FEATURES, &noise);
        let _ = decode_provision(&noise);

        let features = uniform_features(num_features);
        let set = encode_feature_slice(&features, usize::MAX);
        let chunk = set.chunks[0].clone();
        let data: Vec<DataObject> = (0..num_features)
            .map(|i| DataObject::new(i, Point::new(i as f64, 1.0)))
            .collect();
        let provision = encode_provision(0, 1, unit_executor().bounds(), &data);
        prop_assert!(decode_provision(&provision).is_ok());

        // Lying counts: absurd ones, and ones just past the truth. Each
        // column's run count follows the 16-byte header and the runs before
        // it; the data count is the last field before the 24-byte data
        // records.
        let columns = reassemble(&set.chunks, set.fingerprint);
        let mut hostile = Vec::new();
        let mut run_at = 16;
        for column in &columns {
            let truth = (column.len() / 4) as u32;
            for count in [lie, truth + 1 + near_lie] {
                let mut bad = chunk.clone();
                patch_u32(&mut bad, run_at, count);
                hostile.push((OP_FEATURES, bad));
            }
            run_at += 4 + column.len();
        }
        let data_count_at = provision.len() - 24 * data.len() - 4;
        for count in [lie, num_features as u32 + 1 + near_lie] {
            let mut bad = provision.clone();
            patch_u32(&mut bad, data_count_at, count);
            prop_assert!(decode_provision(&bad).is_err());
            hostile.push((OP_PROVISION, bad));
        }

        // Well-framed lies about the columns, each one change to the true
        // columns. Term 16 is carried by features 0 and 3 at least.
        // Every feature carries three keywords: one run, `[0, 3]`.
        let [offsets, postings, runs, locations] = columns.clone();
        let (offsets, postings, runs) = (u32s(&offsets), u32s(&postings), u32s(&runs));
        let shared = offsets[16] as usize;
        prop_assert_eq!(&postings[shared..shared + 2], &[0, 3]);
        prop_assert_eq!(&runs, &[0, 3]);
        let lies = |change: &dyn Fn(&mut [Vec<u32>; 3])| {
            let mut lie = [offsets.clone(), postings.clone(), runs.clone()];
            change(&mut lie);
            column_chunk(&lie[0], &lie[1], &lie[2], &locations)
        };
        let past = num_features as u32 + near_lie;
        let inside = 1 + near_lie;
        for bad in [
            lies(&|[o, _, _]| o[16] = o[17] + 1),
            lies(&|[o, _, _]| *o.last_mut().unwrap() += 1 + near_lie),
            lies(&|[_, p, _]| p.push(0)),
            lies(&|[_, p, _]| p[shared + 1] = past),
            lies(&|[_, p, _]| p[shared + 1] = 0),
            lies(&|[_, p, _]| p.swap(shared, shared + 1)),
            lies(&|[_, _, r]| r.extend([inside, 2])),
            lies(&|[_, _, r]| r.extend([inside, 3])),
            lies(&|[_, _, r]| r.extend([past, 4])),
            lies(&|[_, _, r]| r[0] = inside),
            lies(&|[_, _, r]| r.clear()),
            lies(&|[_, _, r]| r.extend([inside, 4])),
            lies(&|[_, _, r]| r[1] += 1 + near_lie),
            lies(&|[_, _, r]| r.push(inside)),
            column_chunk(&offsets, &postings, &runs, &locations[16..]),
            column_chunk(&offsets, &postings, &runs, &locations[4..]),
        ] {
            hostile.push((OP_FEATURES, bad));
        }
        // Truncations anywhere are errors too.
        let cut = noise.len() % chunk.len();
        hostile.push((OP_FEATURES, chunk[..cut].to_vec()));
        let cut = noise.len() % provision.len();
        prop_assert!(decode_provision(&provision[..cut]).is_err());
        hostile.push((OP_FEATURES, noise.clone()));
        hostile.push((OP_PROVISION, noise.clone()));

        // In process: a host refuses each hostile chunk and holds no set
        // after it, and still assembles a well-formed slice afterwards.
        let host = ShardHost::new();
        for (opcode, payload) in &hostile {
            if opcode == &OP_FEATURES && payload != &noise {
                prop_assert!(host.handle(OP_FEATURES, payload).is_err());
                prop_assert_eq!(host.feature_sets(), 0);
            }
        }
        prop_assert!(host.handle(OP_FEATURES, &chunk).is_ok());
        prop_assert_eq!(host.feature_sets(), 1);
        let install = encode_provision(0, set.fingerprint, unit_executor().bounds(), &data);
        prop_assert!(host.handle(OP_PROVISION, &install).is_ok());
        prop_assert_eq!(host.hosted_shards(), 1);

        // Through a real worker: each hostile frame is answered with a
        // typed error, and a new connection is served afterwards.
        let server =
            WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
        let addr = server.addr().to_string();
        let mut client = WorkerClient::new(addr.clone(), ClientConfig::fast());
        for (opcode, payload) in &hostile {
            let outcome = client.call(*opcode, payload);
            if payload == &noise && ShardHost::new().handle(*opcode, payload).is_ok() {
                continue; // noise that happens to parse
            }
            let (op, _) = outcome.unwrap();
            prop_assert_eq!(op, OP_ERROR);
        }
        let mut fresh = WorkerClient::new(addr, ClientConfig::fast());
        prop_assert!(fresh.ping(b"still here").is_ok());
        prop_assert!(fresh.call(OP_FEATURES, &chunk).is_ok());
    }

    /// An `OP_SHARD_RESULT` comes off a worker's socket and is the
    /// shard's 12-byte records alone. Whatever bytes a worker sends, the
    /// manager does not panic: they decode iff their length is a multiple
    /// of 12, and decoded records are served only if there are at most k
    /// of them and each names a distinct data index of the store with a
    /// finite, non-negative score — then the answer is exactly their
    /// merge.
    #[test]
    fn prop_job_stats_decoder_survives_hostile_input(
        records in proptest::collection::vec(
            (0u32..12, 0u8..4, 0.0f64..1.0, 0u64..=u64::MAX).prop_map(|(index, kind, unit, bits)| {
                let special = [f64::NAN, f64::INFINITY, -1.0, -0.0];
                let score = match kind {
                    0 | 1 => unit,
                    2 => f64::from_bits(bits),
                    _ => special[bits as usize % special.len()],
                };
                (index, score)
            }),
            0..5,
        ),
        tail in proptest::collection::vec(0u8..=u8::MAX, 0..12),
        k in 1usize..6,
    ) {
        let mut reply: Vec<u8> = records
            .iter()
            .flat_map(|&(index, score)| {
                index.to_le_bytes().into_iter().chain(score.to_bits().to_le_bytes())
            })
            .collect();
        reply.extend(&tail);
        let data: Vec<DataObject> = (0..8)
            .map(|i| DataObject::new(100 + i, Point::new(i as f64, 1.0)))
            .collect();
        let dataset = SharedDataset::new(
            data.clone(),
            vec![FeatureObject::new(1, Point::new(1.0, 1.0), KeywordSet::from_ids([3]))],
        );
        let forger = Forger { host: ShardHost::new(), reply: reply.clone() };
        let server = WorkerServer::bind("127.0.0.1:0", vec![Box::new(forger)], false).unwrap();
        let remote =
            RemoteEngine::connect(unit_executor(), dataset, &[server.addr().to_string()]).unwrap();
        let request = QueryRequest::new(SpqQuery::new(k, 1.0, KeywordSet::from_ids([3])));
        let whole = reply.len().is_multiple_of(wire::RECORD_BYTES);
        let mut indexes: Vec<u32> = records.iter().map(|&(index, _)| index).collect();
        indexes.sort_unstable();
        indexes.dedup();
        let honest = records.len() <= k
            && indexes.len() == records.len()
            && records
                .iter()
                .all(|&(index, score)| index < 8 && score.is_finite() && score >= 0.0);
        match remote.execute(&request) {
            Ok(response) => {
                prop_assert!(whole && honest);
                prop_assert_eq!(
                    response.results,
                    merge_top_k(wire::decode_results(&reply, &data), k)
                );
            }
            Err(err) => {
                prop_assert!(matches!(err, SpqError::Remote { .. }), "{:?}", err);
                let undecoded = err.to_string().contains("bad shard result");
                prop_assert_eq!(undecoded, !whole, "{}", err);
                prop_assert!(!(whole && honest), "{}", err);
            }
        }
    }
}

/// A worker that serves like a [`ShardHost`] but answers every shard
/// query with the forged payload `reply`.
struct Forger {
    host: ShardHost,
    reply: Vec<u8>,
}

impl FrameHandler for Forger {
    fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
        if opcode == OP_SHARD_QUERY {
            return Ok(Some((OP_SHARD_RESULT, self.reply.clone())));
        }
        self.host.handle(opcode, payload)
    }
}
