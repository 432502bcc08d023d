//! Remote serving: the sharded layout placed on worker **processes**
//! behind TCP, with fault recovery and dynamic membership.
//!
//! [`crate::sharded`] proves the scatter/gather shape inside one process;
//! this module moves each shard behind a socket. A [`RemoteEngine`] cuts
//! the feature objects exactly like [`crate::sharded::ShardedEngine`] —
//! same contiguous slices, every shard ranking every data object — but
//! instead of building shard kernels in-process it **provisions** each
//! shard onto
//! [`MembershipConfig::replication_factor`] workers over the
//! [`spq_mapreduce::remote`] frame protocol (see *Provisioning* below).
//! Workers are either spawned
//! in-process (the default — real sockets, no extra processes) or
//! external `spq-worker` binaries named by [`SPQ_REMOTE_WORKERS`].
//!
//! A query then runs the **same scatter/gather as the in-process engine**
//! — one function, `sharded::Layout::scatter_gather`, owns the probe
//! short-circuit, the gather, the merge and the statistics for both —
//! with each shard asked by an [`OP_SHARD_QUERY`] frame instead of a
//! call, and answering with an [`OP_SHARD_RESULT`] frame carrying the same
//! 12-byte [`wire`] records. The scatter is **frame-pipelined on the
//! calling thread**: the manager writes every relevant shard's query frame
//! to that shard's primary, then reads the replies, so every shard is in
//! flight at once and a request spawns no thread. Two shards with one
//! primary share its connection — a worker answers a connection's frames
//! in order — and the worker clients are locked in ascending index, each
//! from its first write to its last read. Only once every reply has been
//! read (or its connection dropped) do the shards whose exchange failed
//! enter the retry/failover loop below, that exchange counted as the
//! loop's first attempt: a warm failover can land on a worker whose
//! connection would otherwise still hold another shard's unread reply,
//! and a reply carries no shard id. The worker budget
//! ([`QueryOptions::workers`](crate::service::QueryOptions::workers))
//! bounds only the in-process backends' shard threads and a traced
//! request's job. A worker evaluates a
//! hosted shard through the same `sharded::Shard::answer` an in-process
//! shard is evaluated through, so the merged top-k is **byte-identical**
//! to every other backend (`tests/backend_equivalence.rs` proptests it
//! across worker counts). What comes off a socket is not trusted: a reply
//! that is not a whole number of records, holds more than `k` of them,
//! names a data index past the store or one index twice, or carries a
//! negative or non-finite score, is a typed [`SpqError::Remote`], never
//! resolved.
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
//! Each shard's feature slice crosses the wire **once per install** and
//! lives on a worker **as kernel state only**; all of `O` lives once per
//! worker process, however many shards the worker hosts:
//!
//! * The manager builds each shard's slice of `F` into kernel state once
//!   — the same keyword index and location column an in-process shard
//!   builds, every slice at once on a thread of its own — and encodes
//!   its columns (the term offset table, the postings, the table of
//!   `|f.W|` runs and the locations, all numbered by `(|f.W|, store
//!   order)`; no feature id, no keyword list) into
//!   bounded [`OP_FEATURES`] chunk payloads (about 1 MiB of column bytes
//!   each, so no frame grows with the corpus) named by the slice's
//!   *fingerprint* — the frame checksum's hasher (four FNV-style lanes
//!   over 64-bit words) over the column lengths and bytes, a function of
//!   the content alone. Each chunk is sized before it is written. The same
//!   buffers serve every worker and every later re-provision; of the
//!   built state only a term bitmap per slice, for the keyword probe, is
//!   kept once encoded. No feature keyword id may reach
//!   2²²: the build refuses such a dataset, and a worker refuses a term
//!   offset table longer than the ids below that limit need.
//! * A worker appends the chunks of a slice, in order, to its columns by
//!   bulk copy; on the last chunk it checks them — offsets from 0 to the
//!   postings length without decreasing, each term's postings strictly
//!   increasing and below the feature count, length runs that cut the
//!   features into ranges from feature 0 by strictly increasing length,
//!   each feature's posting count its run's length, whole locations (one
//!   per feature gives the count) — and keeps them as the
//!   slice's kernel state. Nothing is built per term, and a slice that
//!   fails a check is refused with a typed error and not held. An
//!   [`OP_PROVISION`] then carries the
//!   shard id, the slice's fingerprint and a data block: the data-space
//!   bounds (all a kernel grid needs) and every data object in store
//!   order, so a record's position is the global index gather records
//!   name. `O` is **encoded once per engine**: the data block is kept,
//!   and each install sends its own 12-byte shard id + fingerprint header
//!   and then that block, as two parts of one frame, copied into no
//!   joint buffer. `O` is **decoded once per worker**: the worker checks
//!   the payload's length against its record count, fingerprints the data
//!   block and only then looks it up — the first install decodes it and
//!   builds one grid and one id map over `O`, and every later shard with
//!   the same block shares them without decoding it again.
//!   A slice or data side is dropped when the last shard holding it is
//!   replaced.
//! * An [`OP_PROVISION`] naming a slice the worker does not hold is
//!   refused with a typed "unknown feature set" error; the manager ships
//!   the slice and retries the install once. Cold failover, rebalancing
//!   and the re-admission of a restarted (hence empty) process all take
//!   that one path. Only the initial build ships ahead of asking — to
//!   every worker at the same time, one thread per worker: for each shard
//!   the worker hosts, in shard order, its slice and then its install.
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
//!   otherwise the shard is re-installed on a survivor (a *cold*
//!   re-provision; the survivor is sent the shard's feature slice first
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
    decode_provision, encode_feature_slice, encode_provision, FeatureChunks, Provision,
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
/// shards across processes, `SPQ_WORKERS` sizes the in-process scatter
/// width and per-job parallelism within one (a remote scatter has every
/// shard in flight at once, whatever it says).
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
    use crate::engine::{feature_side, QueryEngine};
    use crate::executor::SpqExecutor;
    use crate::model::{DataObject, FeatureObject};
    use crate::query::SpqQuery;
    use crate::service::{QueryExecutor, QueryRequest};
    use crate::store::block;
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

    /// Each shard's feature slice crosses the wire once per install, as
    /// the columns of the kernel state an in-process shard builds over the
    /// same slice; a worker hosting every shard is sent every slice once.
    #[test]
    fn build_ships_each_feature_slice_once_per_install() {
        let dataset = feature_heavy_dataset();
        let remote = RemoteEngine::self_hosted(executor(), dataset.clone(), 2).unwrap();
        assert_eq!(remote.metrics().provisions_sent, 4); // 2 shards × replication 2
        assert_eq!(remote.metrics().feature_sets_sent, 4);
        let features = dataset.features();
        for (s, shipped) in remote.features.iter().enumerate() {
            let slice = &features[block(s, features.len(), 2)];
            assert_eq!(shipped, &encode_feature_slice(slice, FEATURES_CHUNK_BYTES));
        }
        let slices: usize = remote
            .features
            .iter()
            .flat_map(|set| &set.chunks)
            .map(Vec::len)
            .sum();
        // Both workers hold both shards: every slice twice, and one
        // provision of all of O per install.
        let provision = encode_provision(
            0,
            remote.features[0].fingerprint,
            executor().bounds(),
            dataset.data(),
        )
        .len();
        let sent = remote.traffic_bytes() as usize;
        assert!(sent >= 2 * slices + 4 * provision);
        assert!(
            sent * 100 <= (2 * slices + 4 * provision) * 102,
            "build sent {sent} B for {slices} B of slices and {provision} B provisions"
        );
        // And what was provisioned answers like the single-store engine.
        let engine = QueryEngine::new(executor(), dataset);
        let req = request(5, 1.5, &[3, 20]);
        assert_eq!(
            remote.execute(&req).unwrap().results,
            engine.execute(&req).unwrap().results
        );
    }

    /// What a worker installs from the manager's chunks is the kernel
    /// state an in-process shard builds over the same slice, bit for bit
    /// — for one shard, for more shards than features (empty slices), and
    /// with features carrying no keyword.
    #[test]
    fn installed_slices_equal_the_in_process_shards_bit_for_bit() {
        // Six features, two with no keyword: eight shards leave two
        // slices empty.
        let mut features = paper_dataset().features()[..4].to_vec();
        features.insert(2, feature(20, 1.0, 9.0, &[]));
        features.push(feature(21, -0.0, 0.5, &[]));
        let dataset = SharedDataset::new(paper_dataset().data().to_vec(), features);
        let features = dataset.features();
        for n in [1, 2, 3, 5, 8] {
            let remote = RemoteEngine::self_hosted(executor(), dataset.clone(), n).unwrap();
            let host = ShardHost::new();
            for (s, set) in remote.features.iter().enumerate() {
                accept_all(&host, OP_FEATURES, &set.chunks);
                let install = encode_provision(
                    s as u32,
                    set.fingerprint,
                    executor().bounds(),
                    dataset.data(),
                );
                accept_all(&host, OP_PROVISION, &[install]);
                let installed = &host.shard(s as u32).unwrap().kernel.features;
                let slice = &features[block(s, features.len(), n)];
                let built = feature_side(slice);
                assert_eq!(installed.index, built.index, "shard {s} of {n}");
                let bits = |locations: &[Point]| -> Vec<(u64, u64)> {
                    locations
                        .iter()
                        .map(|p| (p.x.to_bits(), p.y.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&installed.locations), bits(&built.locations));
                // Both in the slice's numbering, by (|f.W|, store order).
                let mut numbered = slice.to_vec();
                numbered.sort_by_key(|f| f.keywords.len());
                let located: Vec<Point> = numbered.iter().map(|f| f.location).collect();
                assert_eq!(
                    bits(&installed.locations),
                    bits(&located),
                    "shard {s} of {n}"
                );
            }
            assert_eq!(host.hosted_shards(), n);
        }
    }

    /// Sends `payloads` to `host` as frames of `opcode`, all of which
    /// must be accepted.
    fn accept_all(host: &ShardHost, opcode: u16, payloads: &[Vec<u8>]) {
        for payload in payloads {
            assert!(host.handle(opcode, payload).unwrap().is_some());
        }
    }

    /// The shards a host installs with one data block share one grid and
    /// id map, each over its own feature slice; a slice or data side goes
    /// when the last shard holding it is replaced.
    #[test]
    fn hosted_shards_share_one_data_side() {
        let dataset = paper_dataset();
        let (data, features) = (dataset.data(), dataset.features());
        let host = ShardHost::new();
        let slices = [
            encode_feature_slice(&features[..4], 64),
            encode_feature_slice(&features[4..], 64),
        ];
        assert!(slices[0].chunks.len() > 1);
        let bounds = executor().bounds();
        let install = |shard: u32, slice: &FeatureChunks, data: &[DataObject]| {
            let payload = encode_provision(shard, slice.fingerprint, bounds, data);
            accept_all(&host, OP_PROVISION, &[payload]);
        };
        for (s, slice) in slices.iter().enumerate() {
            accept_all(&host, OP_FEATURES, &slice.chunks);
            install(s as u32, slice, data);
        }
        assert_eq!((host.hosted_shards(), host.feature_sets()), (2, 2));
        let (first_slice, first_data) = {
            let (a, b) = (host.shard(0).unwrap(), host.shard(1).unwrap());
            assert!(Arc::ptr_eq(&a.kernel.grid, &b.kernel.grid));
            assert!(Arc::ptr_eq(&a.id_to_index, &b.id_to_index));
            assert_eq!(a.kernel.grid.len(), data.len());
            assert_eq!(a.kernel.features.locations.len(), 4);
            assert!(!Arc::ptr_eq(&a.kernel.features, &b.kernel.features));
            (
                Arc::downgrade(&a.kernel.features),
                Arc::downgrade(&a.kernel.grid),
            )
        };

        // Shard 0 re-installed over shard 1's slice: the first slice has
        // no holder left and goes; the data side stays.
        install(0, &slices[1], data);
        assert_eq!(host.feature_sets(), 1);
        assert!(first_slice.upgrade().is_none());
        assert!(first_data.upgrade().is_some());
        // Other data: a second side while shard 1 still holds the first;
        // the first goes with shard 1's re-install, which shares shard 0's
        // new side.
        install(0, &slices[1], &data[..3]);
        assert!(first_data.upgrade().is_some());
        install(1, &slices[1], &data[..3]);
        assert!(first_data.upgrade().is_none());
        let (a, b) = (host.shard(0).unwrap(), host.shard(1).unwrap());
        assert!(Arc::ptr_eq(&a.kernel.grid, &b.kernel.grid));
        assert_eq!(b.kernel.grid.len(), 3);
        assert_eq!(host.feature_sets(), 1);
    }

    /// A query holds a clone of its shard while it evaluates, not the
    /// host's lock: every other opcode is served meanwhile, and replacing
    /// the shard does not disturb the evaluation in flight.
    #[test]
    fn host_serves_other_opcodes_while_a_shard_is_evaluated() {
        let dataset = paper_dataset();
        let data = dataset.data();
        let host = ShardHost::new();
        let set = encode_feature_slice(dataset.features(), usize::MAX);
        accept_all(&host, OP_FEATURES, &set.chunks);
        let install = |slice| {
            let payload = encode_provision(0, set.fingerprint, executor().bounds(), slice);
            accept_all(&host, OP_PROVISION, &[payload]);
        };
        install(&data[..2]);
        // What `query` holds from decode to reply.
        let in_flight = host.shard(0).unwrap();
        assert!(host.handle(OP_SHARD_STATUS, &[]).unwrap().is_some());
        accept_all(&host, OP_FEATURES, &set.chunks);
        install(&data[2..]);
        let req = request(5, 2.5, &[0, 4, 11]);
        // Records name positions in the data the shard was installed with.
        let answered = |shard: &crate::sharded::Shard, slice: &[DataObject]| -> Vec<u64> {
            let (records, _) = shard.answer(&req.query).unwrap();
            let results = crate::sharded::wire::decode_results(&records, slice);
            results.iter().map(|r| r.object).collect()
        };
        let own = |slice: &[DataObject], ids: Vec<u64>| {
            !ids.is_empty() && ids.iter().all(|id| slice.iter().any(|o| o.id == *id))
        };
        assert!(own(&data[..2], answered(&in_flight, &data[..2])));
        assert!(own(
            &data[2..],
            answered(&host.shard(0).unwrap(), &data[2..])
        ));
    }

    /// A feature set too large for one frame's budget crosses a real
    /// socket as many bounded frames and is served exactly like the
    /// single-store engine serves the same dataset.
    #[test]
    fn multi_chunk_set_provisions_through_a_worker_server() {
        let dataset = feature_heavy_dataset();
        let budget = 4096;
        let set = encode_feature_slice(dataset.features(), budget);
        assert!(set.chunks.len() > 10);
        // A header, four run counts and at most `budget` column bytes.
        for chunk in &set.chunks {
            assert!(chunk.len() <= CHUNK_HEADER_BYTES + 4 * 4 + budget);
        }
        let server =
            WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
        let mut client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
        for chunk in &set.chunks {
            assert_eq!(client.call(OP_FEATURES, chunk).unwrap().0, OP_FEATURES_OK);
        }
        let provision = encode_provision(0, set.fingerprint, executor().bounds(), dataset.data());
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
        // At two shards the first slice's term table ends at term 5 and
        // the second's at 11: 11 lies past the first table only, 63 and
        // 64 past both, u32::MAX far beyond.
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

    /// A reply no kernel writes is a typed worker error — no panic, no
    /// retry, and the engine goes on serving: not a whole number of
    /// records, more than k of them, a data index past the end of the
    /// store or named twice, or a score no similarity takes. Every shard
    /// ranks every data object, so any index inside the store is one a
    /// shard may name.
    #[test]
    fn lying_shard_result_is_a_typed_error_not_a_panic() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let req = request(4, 1.5, &[0]);
        let record = |index: u32, score: f64| {
            let mut record = index.to_le_bytes().to_vec();
            record.extend(score.to_bits().to_le_bytes());
            record
        };
        let records =
            |indexes: &[u32]| -> Vec<u8> { indexes.iter().flat_map(|&i| record(i, 0.5)).collect() };
        let mut torn = record(0, 1.0);
        torn.push(0);
        for (reply, says) in [
            (record(u32::MAX, 1.0), "past the store's 5 objects"),
            (record(5, 1.0), "past the store's 5 objects"),
            (records(&[0, 1, 2, 3, 4]), "5 records for k = 4"),
            (records(&[3, 1, 3]), "data index 3 twice"),
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

    /// A one-chunk `OP_FEATURES` payload of set 1 carrying the given
    /// columns and no location, written by hand as the wire lays them
    /// out.
    fn column_chunk(offsets: &[u32], postings: &[u32], lens: &[u32]) -> Vec<u8> {
        let mut out = 1u64.to_le_bytes().to_vec();
        out.extend([0u32, 1].iter().flat_map(|v| v.to_le_bytes()));
        for column in [offsets, postings, lens, &[]] {
            spq_mapreduce::remote::codec::put_u32s(&mut out, column.iter().copied());
        }
        out
    }

    /// A shipped term offset table is held to [`TERM_ID_LIMIT`]` + 1`
    /// entries — one per term id below the limit, plus one — in one chunk
    /// or over several, and refused before it grows past that.
    #[test]
    fn shipped_keyword_ids_stop_at_the_limit() {
        let limit = TERM_ID_LIMIT as usize + 1;
        for (entries, accepted) in [(limit, true), (limit + 1, false)] {
            let host = ShardHost::new();
            let table = column_chunk(&vec![0; entries], &[], &[]);
            assert_eq!(
                host.handle(OP_FEATURES, &table).is_ok(),
                accepted,
                "{entries}"
            );
            assert_eq!(host.feature_sets(), usize::from(accepted));
        }
        // Two chunks that each fit but together do not.
        let host = ShardHost::new();
        let mut head = column_chunk(&vec![0; limit - 1], &[], &[]);
        head[12..16].copy_from_slice(&2u32.to_le_bytes());
        let mut tail = column_chunk(&[0, 0], &[], &[]);
        tail[8..16].copy_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
        host.handle(OP_FEATURES, &head).unwrap();
        let refused = host.handle(OP_FEATURES, &tail).unwrap_err();
        assert!(refused.contains("limit"), "{refused}");
        assert_eq!(host.feature_sets(), 0);
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
