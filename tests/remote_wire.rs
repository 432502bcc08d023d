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
use spq::core::remote::{
    decode_features_chunk, decode_provision, encode_feature_chunks, encode_provision,
};
use spq::core::sharded::wire;
use spq::mapreduce::remote::frame::{WordHasher, MAGIC};
use spq::mapreduce::remote::{
    read_frame, write_frame, ClientConfig, FrameError, FrameHandler, WorkerClient, WorkerServer,
    OP_ERROR, OP_FEATURES, OP_FEATURES_OK, OP_PING, OP_PONG, OP_PROVISION, OP_PROVISION_OK,
    OP_SHARD_QUERY, OP_SHARD_RESULT,
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

/// Encoded size of a feature carrying `terms` keywords.
fn feature_bytes(terms: usize) -> usize {
    8 + 8 + 8 + 4 + 4 * terms
}

/// `n` features of three keywords each — one encoded size, so a chunk
/// budget can be stated in features.
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

/// Decodes a chunk sequence back into one feature vector, checking the
/// chunk headers on the way.
fn reassemble(chunks: &[Vec<u8>], fingerprint: u64) -> Vec<FeatureObject> {
    let mut features = Vec::new();
    for (i, payload) in chunks.iter().enumerate() {
        let chunk = decode_features_chunk(payload).unwrap();
        assert_eq!(chunk.fingerprint, fingerprint);
        assert_eq!((chunk.index, chunk.total), (i as u32, chunks.len() as u32));
        features.extend(chunk.features);
    }
    features
}

/// Where the chunk boundaries fall changes neither the features that
/// come out nor the set's fingerprint, which is the [`WordHasher`] hash of
/// the encoded features and of nothing else. A 124-byte feature leaves
/// most chunk boundaries mid-word.
#[test]
fn feature_chunking_is_boundary_independent() {
    let features = uniform_features(23);
    let one = feature_bytes(3);
    let whole = encode_feature_chunks(&features, usize::MAX);
    assert_eq!(whole.chunks.len(), 1);
    let mut hasher = WordHasher::default();
    hasher.update(&whole.chunks[0][20..]);
    assert_eq!(whole.fingerprint, hasher.finish());
    for (budget, chunks) in [(one, 23), (7 * one, 4), (usize::MAX, 1)] {
        let set = encode_feature_chunks(&features, budget);
        assert_eq!(set.chunks.len(), chunks, "budget {budget}");
        assert_eq!(set.fingerprint, whole.fingerprint, "budget {budget}");
        assert_eq!(reassemble(&set.chunks, set.fingerprint), features);
        // No chunk carries more than its budget of whole features.
        for chunk in &set.chunks {
            assert!(chunk.len() - 20 <= budget);
        }
    }
    // A budget below one feature still makes progress, one per chunk.
    assert_eq!(encode_feature_chunks(&features, 1).chunks.len(), 23);
    // A feature-less set is one empty chunk: the set exists.
    let empty = encode_feature_chunks(&[], one);
    assert_eq!(empty.chunks.len(), 1);
    assert!(reassemble(&empty.chunks, empty.fingerprint).is_empty());
    // Different content, different name.
    assert_ne!(
        encode_feature_chunks(&features[..22], usize::MAX).fingerprint,
        whole.fingerprint
    );
}

/// Features with no keyword and with one keyword round-trip, beside ones
/// with several.
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
        let set = encode_feature_chunks(&features, budget);
        assert_eq!(reassemble(&set.chunks, set.fingerprint), features);
    }
}

/// A chunk whose ids are not strictly increasing — written by hand, since
/// no encoder writes one — decodes to exactly what
/// [`KeywordSet::from_ids`] makes of the same ids.
#[test]
fn unsorted_or_repeated_ids_decode_like_from_ids() {
    for ids in [&[5u32, 1, 3][..], &[2, 2, 7], &[9, 4, 4, 1, 9], &[3, 3]] {
        let mut chunk = encode_feature_chunks(&uniform_features(1), usize::MAX)
            .chunks
            .remove(0);
        // Replace the one feature's three terms (from byte 44) by `ids`.
        chunk.truncate(20 + 24);
        chunk.extend((ids.len() as u32).to_le_bytes());
        chunk.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
        let decoded = decode_features_chunk(&chunk).unwrap();
        assert_eq!(
            decoded.features[0].keywords,
            KeywordSet::from_ids(ids.iter().copied()),
            "{ids:?}"
        );
    }
}

/// The host takes a set's chunks in order, once: anything else is a
/// typed error — and so is an install that names a set the host does not
/// hold, which must never become a silently empty shard.
#[test]
fn shard_host_rejects_out_of_sequence_chunks_and_unknown_sets() {
    let features = uniform_features(12);
    let set = encode_feature_chunks(&features, 4 * feature_bytes(3));
    assert_eq!(set.chunks.len(), 3);
    let foreign = encode_feature_chunks(&features[..8], 4 * feature_bytes(3));
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
        let set = encode_feature_chunks(slice, usize::MAX);
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

/// Overwrites the little-endian `u32` at `at` with `value`.
fn patch_u32(payload: &mut [u8], at: usize, value: u32) {
    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, and well-formed payloads whose feature, term or
    /// data-object count was overwritten with a lie, decode to a typed
    /// error or a valid value — never a panic, never an allocation sized
    /// by the lie (every count is held to what the remaining bytes can
    /// carry before anything is reserved for it). A worker's host, which
    /// decodes a chunk straight into the slice it assembles, refuses each
    /// such chunk and still assembles a well-formed slice afterwards; a
    /// worker that was sent such a frame says so with a typed error and
    /// serves the next connection.
    #[test]
    fn prop_provisioning_decoders_survive_hostile_input(
        noise in proptest::collection::vec(0u8..=u8::MAX, 0..256),
        num_features in 1u64..12,
        lie in (u32::MAX - 2)..=u32::MAX,
        near_lie in 0u32..4,
    ) {
        // Arbitrary bytes.
        let _ = decode_features_chunk(&noise);
        let _ = decode_provision(&noise);

        let features = uniform_features(num_features);
        let chunk = encode_feature_chunks(&features, usize::MAX).chunks.remove(0);
        let data: Vec<DataObject> = (0..num_features)
            .map(|i| DataObject::new(i, Point::new(i as f64, 1.0)))
            .collect();
        let provision = encode_provision(0, 1, unit_executor().bounds(), &data);
        prop_assert!(decode_features_chunk(&chunk).is_ok());
        prop_assert!(decode_provision(&provision).is_ok());

        // Lying counts: absurd ones, and ones just past the truth. The
        // feature count sits at byte 16 of a chunk, the first feature's
        // term count 24 bytes into it; the data count is the last field
        // before the 24-byte data records.
        let feature_count_at = 16;
        let term_count_at = 20 + 24;
        let data_count_at = provision.len() - 24 * data.len() - 4;
        let mut hostile = Vec::new();
        for count in [lie, num_features as u32 + 1 + near_lie] {
            let mut bad = chunk.clone();
            patch_u32(&mut bad, feature_count_at, count);
            prop_assert!(decode_features_chunk(&bad).is_err());
            hostile.push((OP_FEATURES, bad));
            let mut bad = provision.clone();
            patch_u32(&mut bad, data_count_at, count);
            prop_assert!(decode_provision(&bad).is_err());
            hostile.push((OP_PROVISION, bad));
        }
        for count in [lie, 4 + near_lie] {
            let mut bad = chunk.clone();
            patch_u32(&mut bad, term_count_at, count);
            // Three extra terms can be read out of the next feature's
            // bytes; what follows then no longer parses.
            prop_assert!(decode_features_chunk(&bad).is_err());
            hostile.push((OP_FEATURES, bad));
        }
        // A well-formed feature whose keyword id would have the worker
        // size a 32 GB index: its first, or its last, term set to a lie.
        for term_at in [term_count_at + 4, term_count_at + 12] {
            let mut bad = chunk.clone();
            patch_u32(&mut bad, term_at, lie);
            prop_assert!(decode_features_chunk(&bad).is_err());
            hostile.push((OP_FEATURES, bad));
        }
        // Truncations anywhere are errors too.
        let cut = noise.len() % chunk.len();
        prop_assert!(decode_features_chunk(&chunk[..cut]).is_err());
        let cut = noise.len() % provision.len();
        prop_assert!(decode_provision(&provision[..cut]).is_err());
        hostile.push((OP_FEATURES, noise.clone()));
        hostile.push((OP_PROVISION, noise));

        // In process: a host refuses each hostile chunk that does not
        // decode, and still assembles a well-formed slice afterwards.
        let host = ShardHost::new();
        for (opcode, payload) in &hostile {
            if opcode == &OP_FEATURES && decode_features_chunk(payload).is_err() {
                prop_assert!(host.handle(OP_FEATURES, payload).is_err());
                prop_assert_eq!(host.feature_sets(), 0);
            }
        }
        prop_assert!(host.handle(OP_FEATURES, &chunk).is_ok());
        prop_assert_eq!(host.feature_sets(), 1);
        let fingerprint = encode_feature_chunks(&features, usize::MAX).fingerprint;
        let install = encode_provision(0, fingerprint, unit_executor().bounds(), &data);
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
            if opcode == &OP_PROVISION && decode_provision(payload).is_ok() {
                continue; // noise that happens to parse: refused for its unknown set
            }
            if opcode == &OP_FEATURES && decode_features_chunk(payload).is_ok() {
                continue;
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
