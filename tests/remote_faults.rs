//! Fault injection against the remote backend: byte-identity under
//! worker loss, plus exhaustive transport-failure unit tests.
//!
//! The property at stake is the tentpole's recovery claim: for **any**
//! deterministic fault schedule that kills at most `N − 1` of `N`
//! workers, the remote engine still answers byte-identically to the
//! single-store local engine — the dead worker's shards fail over to
//! survivors, and every re-ask is visible as a retry in the per-query
//! [`QueryStats`] and the engine-level counter. The unit tests then pin
//! each low-level failure mode one by one: truncated frames, corrupt
//! length prefixes, checksum mismatches, connect timeouts and mid-batch
//! worker death.

use proptest::prelude::*;
use spq::mapreduce::remote::{
    read_frame, write_frame, ClientConfig, FaultPlan, FrameError, RemoteError, WorkerClient,
    WorkerServer, MAX_FRAME_LEN, OP_PING, OP_PONG,
};
use spq::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
    FeatureObject::new(
        id,
        Point::new(x, y),
        KeywordSet::from_ids(kw.iter().copied()),
    )
}

/// The paper's running example, with enough objects that every shard of
/// a three-worker layout is non-empty and every term 0..12 is matched.
fn dataset() -> SharedDataset {
    SharedDataset::new(
        vec![
            DataObject::new(1, Point::new(4.6, 4.8)),
            DataObject::new(2, Point::new(7.5, 1.7)),
            DataObject::new(3, Point::new(8.9, 5.2)),
            DataObject::new(4, Point::new(1.8, 1.8)),
            DataObject::new(5, Point::new(1.9, 9.0)),
            DataObject::new(6, Point::new(5.5, 5.5)),
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

const WORKERS: usize = 3;
const RADII: [f64; 3] = [1.0, 1.8, 3.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any fault schedule killing ≤ N−1 of N workers (at any
    /// response threshold, optionally mixed with recoverable drop and
    /// corruption faults on a survivor), every query answers
    /// byte-identically to the local engine, and the re-asks the
    /// recovery took are reported through `QueryStats::retries`.
    #[test]
    fn prop_worker_loss_preserves_byte_identity(
        killed in 1usize..WORKERS,       // at most N − 1 deaths
        first_kill in 0usize..WORKERS,   // which workers die
        kill_threshold in 0u32..2,       // die before response 0 or 1
        survivor_faults in 0u8..4,       // bit 0: drop, bit 1: corrupt
        queries in proptest::collection::vec(
            (1usize..5, 0usize..RADII.len(), proptest::collection::vec(0u32..12, 1..3)),
            3,
        ),
    ) {
        let local = QueryEngine::new(executor(), dataset());
        let remote = RemoteEngine::self_hosted(executor(), dataset(), WORKERS).unwrap();

        for i in 0..killed {
            remote.inject_fault(
                (first_kill + i) % WORKERS,
                &FaultPlan {
                    kill_after_responses: Some(kill_threshold),
                    ..FaultPlan::none()
                },
            ).unwrap();
        }
        // Recoverable one-shot faults on a survivor — but only while two
        // survivors remain: an unluckily-timed drop during a failover
        // provision legitimately excludes the survivor it fired on, and
        // with a lone survivor that would (correctly) be WorkerLost.
        if killed == 1 {
            remote.inject_fault(
                (first_kill + killed) % WORKERS,
                &FaultPlan {
                    drop_after_responses: (survivor_faults & 1 != 0).then_some(0),
                    corrupt_response: (survivor_faults & 2 != 0).then_some(1),
                    ..FaultPlan::none()
                },
            ).unwrap();
        }

        let mut retries_seen = 0u64;
        for (k, r, kw) in &queries {
            let req = request(*k, RADII[*r], kw);
            let expect = local.execute(&req).unwrap();
            let got = remote.execute(&req).unwrap();
            prop_assert_eq!(&got.results, &expect.results);
            retries_seen += got.stats.retries;
        }
        // Every seed kills at least one worker before its second
        // response; three all-shard queries guarantee the death fired
        // and the recovery was observed as at least one retry.
        prop_assert!(retries_seen >= 1, "no retry reported despite {killed} kill(s)");
        prop_assert_eq!(remote.metrics().remote_retries >= retries_seen, true);
        prop_assert!(remote.metrics().excluded_workers >= killed as u64);
        prop_assert!(remote.metrics().excluded_workers < WORKERS as u64, "lone survivor was excluded");

        // The engine keeps serving identically after the storm, with no
        // fresh retries: the failover placement is sticky.
        let req = request(3, 1.8, &[0, 4]);
        let settled = remote.execute(&req).unwrap();
        prop_assert_eq!(&settled.results, &local.execute(&req).unwrap().results);
        prop_assert_eq!(settled.stats.retries, 0);
    }
}

fn bind_test_server() -> WorkerServer {
    WorkerServer::bind("127.0.0.1:0", Vec::new(), false).unwrap()
}

/// A frame cut off mid-payload makes the worker drop the connection
/// without answering — truncation is never silently accepted.
#[test]
fn truncated_frame_drops_the_connection() {
    let server = bind_test_server();
    let mut full = Vec::new();
    write_frame(&mut full, OP_PING, b"hello worker").unwrap();
    for cut in [1, 7, full.len() - 1] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&full[..cut]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = Vec::new();
        let got = stream.read_to_end(&mut reply);
        assert!(
            matches!(got, Ok(0) | Err(_)),
            "cut={cut}: worker answered a truncated frame with {reply:?}"
        );
    }
    server.shutdown();
}

/// A header whose length field exceeds the frame cap is rejected as
/// `Oversize` by the codec, and a worker receiving one hangs up instead
/// of trying to allocate the claimed payload.
#[test]
fn corrupt_length_prefix_is_rejected() {
    // Codec level: craft a header claiming an impossible payload.
    let mut frame = Vec::new();
    write_frame(&mut frame, OP_PING, b"x").unwrap();
    let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
    frame[8..12].copy_from_slice(&huge);
    match read_frame(&mut Cursor::new(&frame)) {
        Err(FrameError::Oversize { len }) => assert_eq!(len, MAX_FRAME_LEN + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }

    // A plausible-but-wrong length desynchronizes the checksum instead.
    let mut frame = Vec::new();
    write_frame(&mut frame, OP_PING, b"four").unwrap();
    frame[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(read_frame(&mut Cursor::new(&frame)).is_err());

    // Socket level: the worker drops the connection without a reply.
    let server = bind_test_server();
    let mut frame = Vec::new();
    write_frame(&mut frame, OP_PING, b"x").unwrap();
    frame[8..12].copy_from_slice(&huge);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&frame).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = Vec::new();
    assert!(matches!(stream.read_to_end(&mut reply), Ok(0) | Err(_)));
    server.shutdown();
}

/// Connecting to a port nobody listens on exhausts the backoff schedule
/// and surfaces as a typed `Connect` error naming the attempt count.
#[test]
fn connect_timeout_surfaces_after_backoff() {
    // Grab an ephemeral port and free it again: nothing listens there.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(100),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        connect_attempts: 3,
        ..ClientConfig::fast()
    };
    let mut client = WorkerClient::new(dead_addr.clone(), config);
    match client.call(OP_PING, b"anyone home") {
        Err(RemoteError::Connect { addr, attempts, .. }) => {
            assert_eq!(addr, dead_addr);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected Connect error, got {other:?}"),
    }
}

/// A worker that dies mid-batch (kill fault before its next response)
/// fails the in-flight call and every later one — the client observes a
/// dead worker, not a hang.
#[test]
fn mid_batch_worker_death_fails_current_and_later_calls() {
    let server = bind_test_server();
    let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
    let (op, _) = client.call(OP_PING, b"warm").unwrap();
    assert_eq!(op, OP_PONG);

    let mut plan = Vec::new();
    FaultPlan {
        kill_after_responses: Some(0),
        ..FaultPlan::none()
    }
    .encode(&mut plan);
    client
        .call(spq::mapreduce::remote::OP_SET_FAULT, &plan)
        .unwrap();

    assert!(
        client.call(OP_PING, b"mid-batch").is_err(),
        "call survived the kill"
    );
    assert!(server.is_stopped());
    assert!(client.call(OP_PING, b"after death").is_err());
}

/// A one-shot connection drop fails exactly one call; the client's lazy
/// reconnect heals the next one without outside help.
#[test]
fn dropped_connection_heals_on_reconnect() {
    let server = bind_test_server();
    let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
    let mut plan = Vec::new();
    FaultPlan {
        drop_after_responses: Some(0),
        ..FaultPlan::none()
    }
    .encode(&mut plan);
    client
        .call(spq::mapreduce::remote::OP_SET_FAULT, &plan)
        .unwrap();

    assert!(client.call(OP_PING, b"dropped").is_err());
    let (op, payload) = client.call(OP_PING, b"healed").unwrap();
    assert_eq!((op, payload.as_slice()), (OP_PONG, b"healed".as_slice()));
    server.shutdown();
}

/// A corrupted response payload is caught by the frame checksum and
/// reported as `Corrupt`, never handed to the decoder.
#[test]
fn corrupt_response_is_a_checksum_mismatch() {
    let server = bind_test_server();
    let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
    let mut plan = Vec::new();
    FaultPlan {
        corrupt_response: Some(0),
        ..FaultPlan::none()
    }
    .encode(&mut plan);
    client
        .call(spq::mapreduce::remote::OP_SET_FAULT, &plan)
        .unwrap();

    match client.call(OP_PING, b"checksummed") {
        Err(RemoteError::Frame(FrameError::Corrupt { expected, found })) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // One-shot: the retry goes through clean.
    assert!(client.call(OP_PING, b"checksummed").is_ok());
    server.shutdown();
}

/// A worker that answers slower than the per-task deadline counts as a
/// deadline miss (`is_deadline`), distinguishable from a dead worker.
#[test]
fn slow_worker_misses_the_deadline() {
    let server = bind_test_server();
    let config = ClientConfig {
        io_timeout: Duration::from_millis(80),
        ..ClientConfig::fast()
    };
    let mut client = WorkerClient::new(server.addr().to_string(), config);
    let mut plan = Vec::new();
    FaultPlan {
        delay_response_ms: Some(1_000),
        ..FaultPlan::none()
    }
    .encode(&mut plan);
    client
        .call(spq::mapreduce::remote::OP_SET_FAULT, &plan)
        .unwrap();

    let err = client.call(OP_PING, b"slow").unwrap_err();
    assert!(err.is_deadline(), "expected a deadline miss, got {err:?}");
    server.shutdown();
}
