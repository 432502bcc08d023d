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
//! A query then runs the **same scatter/gather as the in-process engine**
//! — one function, `sharded::Layout::scatter_gather`, owns the probe
//! short-circuit, the scatter width, the gather, the merge and the
//! statistics for both — with each shard asked by an [`OP_SHARD_QUERY`]
//! frame instead of a call, and answering with an [`OP_SHARD_RESULT`]
//! frame carrying the same 12-byte [`wire`] records. A worker evaluates a
//! hosted shard through the same `sharded::Shard::answer` an in-process
//! shard is evaluated through, so the merged top-k is **byte-identical**
//! to every other backend (`tests/backend_equivalence.rs` proptests it
//! across worker counts). What comes off a socket is not trusted: a reply
//! that is not a whole number of records, or a record naming a data index
//! outside the answering shard's slice or carrying a negative or
//! non-finite score, is a typed [`SpqError::Remote`], never resolved.
//!
//! A worker holds kernel state only and answers with the kernel only:
//! neither a job setting nor a trace flag reaches it, and its reply is the
//! records alone. A traced request's trace is one job, run on the manager
//! over the whole store (see [`crate::sharded`]).
//!
//! Four private modules, re-exported here, one concern each: `codec` (the
//! payload encodings of the shard protocol), `host` (the worker side,
//! [`ShardHost`]), `membership` (the placement and worker-state machine —
//! pure, no sockets) and `engine` (the manager side, [`RemoteEngine`]:
//! provisioning, the retry/failover loop and the tick, each *lock → ask
//! the machine → unlock → do the I/O it was told to*).
//!
//! ## Provisioning
//!
//! The feature set crosses the wire **once per worker** and lives **once
//! per worker process**, however many shards the worker hosts:
//!
//! * The manager encodes `F` once into bounded [`OP_FEATURES`] chunk
//!   payloads (about 1 MiB of whole features each, so no frame grows with
//!   the corpus) named by the set's *fingerprint* — the frame checksum's
//!   word-at-a-time FNV-1a over the encoded features, a function of the
//!   content alone. The same buffers serve every worker and every later
//!   re-provision. No feature keyword id may reach 2²²: a worker sizes its
//!   keyword index by the largest, so the build refuses such a dataset
//!   and a worker refuses such a chunk.
//! * A worker appends the chunks of a set, in order, into one feature
//!   vector; on the last chunk it builds one `Arc<[FeatureObject]>` and
//!   one `Arc<KeywordIndex>`. An [`OP_PROVISION`] then carries only the
//!   shard id, the data-space bounds (all a kernel grid needs), the
//!   shard's data slice and the fingerprint;
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
//! replication"). The machine is one type whose methods are the events
//! the engine reports — *call ok*, *transport failure*, *exclude*,
//! *probe ok*, *probe failed*, *status reported*, *installed*, *stale
//! replica dropped*, *promoted*, *admitted* — and the decisions it asks
//! for — *primary*, *failover*, *planned moves*, *restore primaries*,
//! *check replication*; nothing else changes membership state, and its
//! own tests enumerate every event sequence over a small cluster:
//!
//! ```text
//!            transport failure        second failure
//!   Live ──────────────────► Suspect ───────────────► Excluded
//!    ▲  ◄──────────────────┘                             │
//!    │        success                  probe success     ▼
//!    └───────────────── Probing ◄──────────────────── (ticks)
//!      two probe successes           probe failure resets
//!      in a row                      the streak to zero
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
//! * **Ticks** drive the way back: every [`RemoteEngine::tick`] probes
//!   each excluded worker with a ping frame and, after two *consecutive*
//!   successes (hysteresis — a flapping worker cannot thrash the
//!   placement), re-admits it: the worker reports which shards it still hosts
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
//! worker ([`OP_ERROR`], e.g. a panic inside the kernel) is **not**
//! retried: it is deterministic and would fail identically everywhere, so
//! it surfaces directly as [`SpqError::Remote`], matching the local
//! backends' error-path behaviour.

mod codec;
mod engine;
mod host;
mod membership;

pub use codec::{
    decode_features_chunk, decode_provision, encode_feature_chunks, encode_provision,
    FeatureChunks, FeaturesChunk, Provision,
};
pub use engine::RemoteEngine;
pub use host::ShardHost;
pub use membership::{
    MembershipConfig, MembershipView, TickReport, WorkerState, SPQ_REPLICATION_FACTOR,
};

use crate::executor::SpqError;
#[cfg(doc)]
use {
    crate::service::QueryStats,
    crate::sharded::wire,
    spq_mapreduce::remote::{
        FaultPlan, OP_ERROR, OP_FEATURES, OP_PROVISION, OP_SHARD_QUERY, OP_SHARD_RESULT,
        OP_SHARD_STATUS,
    },
};

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

#[cfg(test)]
mod tests {
    use super::codec::*;
    use super::*;
    use crate::engine::QueryEngine;
    use crate::executor::SpqExecutor;
    use crate::model::{DataObject, FeatureObject};
    use crate::query::SpqQuery;
    use crate::service::{QueryExecutor, QueryRequest};
    use crate::store::SharedDataset;
    use spq_mapreduce::remote::{
        ByteReader, ClientConfig, FaultPlan, FrameHandler, WorkerClient, WorkerServer, OP_FEATURES,
        OP_FEATURES_OK, OP_PROVISION, OP_PROVISION_OK, OP_SHARD_QUERY, OP_SHARD_RESULT,
        OP_SHARD_STATUS,
    };
    use spq_spatial::{Point, Rect};
    use spq_text::KeywordSet;
    use std::sync::Arc;

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

    /// The bounds are the one executor setting a provision ships, and
    /// they round-trip bit for bit; bounds `Rect` would refuse, or a grid
    /// could not be laid over, are a typed error, not a panic.
    #[test]
    fn executor_config_round_trips() {
        for bounds in [
            executor().bounds(),
            Rect::from_coords(-1.0, -2.0, 3.0, 4.0),
            Rect::from_coords(-0.0, 0.0, 0.0, f64::MAX),
        ] {
            let mut bytes = Vec::new();
            put_bounds(&mut bytes, bounds);
            assert_eq!(bytes.len(), 32);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(read_bounds(&mut r).unwrap(), bounds);
            assert!(r.is_empty());
        }
        let mut good = Vec::new();
        put_bounds(&mut good, executor().bounds());
        for cut in 0..good.len() {
            assert!(read_bounds(&mut ByteReader::new(&good[..cut])).is_err());
        }
        // Each coordinate non-finite in turn, then min.x written past
        // max.x and min.y past max.y.
        for at in [0, 8, 16, 24] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bytes = good.clone();
                bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert!(
                    read_bounds(&mut ByteReader::new(&bytes)).is_err(),
                    "{at}: {bad}"
                );
            }
        }
        for at in [0, 8] {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&11.0f64.to_le_bytes());
            assert!(read_bounds(&mut ByteReader::new(&bytes)).is_err(), "{at}");
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
            assert_eq!(remote.metrics().remote_retries, 0);
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
        assert_eq!(remote.metrics().provisions_sent, 6);
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
        assert_eq!(remote.metrics().provisions_sent, 4); // 2 shards × replication 2
        assert_eq!(remote.metrics().feature_sets_sent, 2);
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
                encode_provision(0, fingerprint, executor().bounds(), 0, &data[..2]),
                encode_provision(1, fingerprint, executor().bounds(), 2, &data[2..]),
            ]
        };
        accept_all(&host, OP_PROVISION, &provisions(set.fingerprint));
        assert_eq!((host.hosted_shards(), host.feature_sets()), (2, 1));
        let first_set = {
            let (a, b) = (host.shard(0).unwrap(), host.shard(1).unwrap());
            let (a, b) = (&a.engine, &b.engine);
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

    /// A query holds a clone of its shard while it evaluates, not the
    /// host's lock: every other opcode is served meanwhile, and replacing
    /// the shard does not disturb the evaluation in flight.
    #[test]
    fn host_serves_other_opcodes_while_a_shard_is_evaluated() {
        let dataset = paper_dataset();
        let data = dataset.data();
        let host = ShardHost::new();
        let set = encode_feature_chunks(dataset.features(), usize::MAX);
        accept_all(&host, OP_FEATURES, &set.chunks);
        let install = |first: u32, slice| {
            let payload = encode_provision(0, set.fingerprint, executor().bounds(), first, slice);
            accept_all(&host, OP_PROVISION, &[payload]);
        };
        install(0, &data[..2]);
        // What `query` holds from decode to reply.
        let in_flight = host.shard(0).unwrap();
        assert!(host.handle(OP_SHARD_STATUS, &[]).unwrap().is_some());
        accept_all(&host, OP_FEATURES, &set.chunks);
        install(2, &data[2..]);
        let req = request(5, 2.5, &[0, 4, 11]);
        let answered = |shard: &crate::sharded::Shard| -> Vec<u64> {
            let records = shard.answer(&req.query).unwrap();
            let results = crate::sharded::wire::decode_results(&records, data);
            results.iter().map(|r| r.object).collect()
        };
        let own = |slice: &[DataObject], ids: Vec<u64>| {
            !ids.is_empty() && ids.iter().all(|id| slice.iter().any(|o| o.id == *id))
        };
        assert!(own(&data[..2], answered(&in_flight)));
        assert!(own(&data[2..], answered(&host.shard(0).unwrap())));
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
        let provision =
            encode_provision(0, set.fingerprint, executor().bounds(), 0, dataset.data());
        assert_eq!(
            client.call(OP_PROVISION, &provision).unwrap().0,
            OP_PROVISION_OK
        );
        let engine = QueryEngine::new(executor(), dataset.clone());
        for req in [request(5, 1.5, &[3, 20]), request(3, 0.7, &[14])] {
            let query = encode_shard_query(0, &req.query);
            let (op, reply) = client.call(OP_SHARD_QUERY, &query).unwrap();
            assert_eq!(op, OP_SHARD_RESULT);
            let records = decode_shard_result(reply).unwrap();
            assert_eq!(
                crate::sharded::wire::decode_results(&records, dataset.data()),
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
    fn only_job_requests_count_as_plan_lookups() {
        // No engine plans anything, so no plan is counted for plain or
        // traced requests alike; a traced request still answers as a plain
        // one, with the query's one job (run on the manager) as its trace —
        // whatever the number of touched shards.
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 2).unwrap();
        let req = request(3, 1.5, &[0]);
        let plain = remote.execute(&req).unwrap();
        assert!(plain.trace.is_none());
        for _ in 0..2 {
            let traced = remote.execute(&req.clone().with_trace()).unwrap();
            assert_eq!(traced.results, plain.results);
            assert_eq!(traced.stats.shards_touched, 2);
            assert_eq!(traced.trace.expect("trace requested").len(), 1);
        }
        let m = remote.metrics();
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0));
    }

    #[test]
    fn manager_term_probe_matches_the_keyword_index_past_every_term() {
        // The paper dataset's terms are 0..=11: 63 and 64 straddle the
        // bitmap's first word boundary, u32::MAX lies far beyond it.
        let engine = QueryEngine::new(executor(), paper_dataset());
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 2).unwrap();
        for (kw, matched) in [
            (&[u32::MAX][..], 0),
            (&[0, u32::MAX], 1),
            (&[11, 63, 64, u32::MAX - 1], 1),
        ] {
            let req = request(3, 1.5, kw);
            let local = engine.execute(&req).unwrap();
            let got = remote.execute(&req).unwrap();
            assert_eq!(got.stats.keyword_terms_matched, matched, "{kw:?}");
            assert_eq!(local.stats.keyword_terms_matched, matched, "{kw:?}");
            assert_eq!(got.results, local.results, "{kw:?}");
        }
    }

    #[test]
    fn killed_worker_fails_over_warm_without_reprovision() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let remote = RemoteEngine::self_hosted(executor(), paper_dataset(), 3).unwrap();
        let provisions_after_build = remote.metrics().provisions_sent;
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
        assert_eq!(remote.metrics().provisions_sent, provisions_after_build);
        assert!(remote.metrics().remote_retries >= 1);
        assert_eq!(remote.metrics().excluded_workers, 1);
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
        let provisions_after_build = remote.metrics().provisions_sent;
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
        assert!(remote.metrics().provisions_sent > provisions_after_build);
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
        assert_eq!(remote.metrics().excluded_workers, 2);
    }

    /// A worker that serves like a [`ShardHost`] but answers its first
    /// shard query with the forged payload `reply`.
    struct LyingWorker {
        host: ShardHost,
        reply: Vec<u8>,
        lied: std::sync::atomic::AtomicBool,
    }

    impl FrameHandler for LyingWorker {
        fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
            let first = !self.lied.load(std::sync::atomic::Ordering::SeqCst);
            if opcode != OP_SHARD_QUERY || !first {
                return self.host.handle(opcode, payload);
            }
            self.lied.store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(Some((OP_SHARD_RESULT, self.reply.clone())))
        }
    }

    /// A reply that is not a whole number of records, or a record naming
    /// a data index the answering shard does not own — past the end of the
    /// store, or inside it but in another shard's slice — or carrying a
    /// score no similarity takes, is a typed worker error: no panic, no
    /// retry, and the engine goes on serving.
    #[test]
    fn lying_shard_result_is_a_typed_error_not_a_panic() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let req = request(4, 1.5, &[0]);
        let record = |index: u32, score: f64| {
            let mut record = index.to_le_bytes().to_vec();
            record.extend(score.to_bits().to_le_bytes());
            record
        };
        // Two shards over five objects: shard 0 owns indexes 0..2.
        let mut torn = record(0, 1.0);
        torn.push(0);
        for (reply, says) in [
            (record(u32::MAX, 1.0), "outside its slice"),
            (record(4, 1.0), "outside its slice"),
            (record(1, f64::NAN), "score NaN"),
            (record(1, -0.5), "score -0.5"),
            (torn, "not a whole number of records"),
        ] {
            let liar = LyingWorker {
                host: ShardHost::new(),
                reply,
                lied: false.into(),
            };
            let servers = [
                WorkerServer::bind("127.0.0.1:0", vec![Box::new(liar)], false).unwrap(),
                WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap(),
            ];
            let addrs = servers.each_ref().map(|s| s.addr().to_string());
            let remote = RemoteEngine::connect(executor(), paper_dataset(), &addrs).unwrap();
            let err = remote.execute(&req).unwrap_err();
            assert!(matches!(err, SpqError::Remote { .. }), "{err:?}");
            assert!(err.to_string().contains(says), "{err}");
            let metrics = remote.metrics();
            assert_eq!((metrics.remote_retries, metrics.excluded_workers), (0, 0));
            assert_eq!(
                remote.execute(&req).unwrap().results,
                engine.execute(&req).unwrap().results
            );
        }
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
        // A keyword id past the wire's limit is refused before anything
        // is shipped, or sized from it on either side.
        for term in [TERM_ID_LIMIT, u32::MAX] {
            let huge = SharedDataset::new(
                vec![DataObject::new(1, Point::new(1.0, 1.0))],
                vec![feature(1, 1.0, 1.0, &[3, term])],
            );
            let err = RemoteEngine::self_hosted(executor(), huge, 2).unwrap_err();
            assert!(matches!(err, SpqError::InvalidConfig { .. }), "{err}");
            assert!(err.to_string().contains(&term.to_string()), "{err}");
        }
    }

    #[test]
    fn shipped_keyword_ids_stop_at_the_limit() {
        for (term, accepted) in [
            (TERM_ID_LIMIT - 1, true),
            (TERM_ID_LIMIT, false),
            (u32::MAX, false),
        ] {
            let set = encode_feature_chunks(&[feature(1, 1.0, 1.0, &[3, term])], usize::MAX);
            let decoded = decode_features_chunk(&set.chunks[0]);
            assert_eq!(decoded.is_ok(), accepted, "{term}: {decoded:?}");
        }
    }

    #[test]
    fn shard_query_decode_rejects_garbage() {
        let query = request(3, 1.5, &[0, 2]).query;
        let good = encode_shard_query(0, &query);
        assert_eq!(decode_shard_query(&good).unwrap(), (0, query));
        // Truncations of a valid payload never panic, they error.
        for cut in 0..good.len() {
            assert!(decode_shard_query(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too — the trace byte a query
        // carried before traces left the shard wire among it.
        for trace in [0, 1] {
            let mut long = good.clone();
            long.push(trace);
            assert!(decode_shard_query(&long).is_err(), "trace byte {trace}");
        }
    }
}
