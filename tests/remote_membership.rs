//! Membership-layer tests: tick-driven probing, hysteresis, warm
//! re-admission, rebalance budgets and the event-interleaving proptest.
//!
//! Everything here runs against in-process workers, so temporary worker
//! death is emulated with the `FaultPlan` refusal seam (drop the current
//! stream, refuse the next `n` connections, then heal) instead of killing
//! processes — an in-process `WorkerServer` killed by a kill fault never
//! comes back, but a refusing one recovers the moment its budget drains,
//! which is exactly the restart shape the probe scheduler is built for.
//! Real process kill/restart re-admission is covered by
//! `tests/remote_process.rs`; this suite owns the deterministic state
//! machine: every tick is driven by the test, no wall clock anywhere.

use proptest::prelude::*;
use spq::mapreduce::remote::{FaultPlan, WorkerServer};
use spq::prelude::*;

fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
    FeatureObject::new(
        id,
        Point::new(x, y),
        KeywordSet::from_ids(kw.iter().copied()),
    )
}

/// The paper's running example: five data objects so every shard of a
/// three-worker layout is non-empty, terms 0..12 all matched.
fn dataset() -> SharedDataset {
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

fn config() -> MembershipConfig {
    MembershipConfig {
        replication_factor: 2,
        max_moves_per_tick: 8,
    }
}

/// Emulates a worker restart: evict the manager's stream on its next
/// response, then refuse the next `refusals` connections.
fn temp_kill(remote: &RemoteEngine, worker: usize, refusals: u32) {
    let _ = remote.inject_fault(
        worker,
        &FaultPlan {
            drop_after_responses: Some(0),
            refuse_connections: Some(refusals),
            ..FaultPlan::none()
        },
    );
}

/// The full scripted lifecycle, tick by tick: a worker goes down, queries
/// fail over warm, probes fail while it refuses, hysteresis builds only on
/// *consecutive* successes (a mid-probe flap resets the streak), and
/// re-admission recovers the worker's still-warm shards via
/// `OP_SHARD_STATUS` without shipping a single provision payload for them.
#[test]
fn flapping_worker_readmits_only_after_consecutive_probes() {
    let local = QueryEngine::new(executor(), dataset());
    let remote = RemoteEngine::self_hosted_with(executor(), dataset(), 3, config()).unwrap();
    assert_eq!(remote.metrics().provisions_sent, 6); // 3 shards × replication 2

    // Worker 0 "restarts": stream evicted, next 2 connections refused.
    temp_kill(&remote, 0, 2);
    let req = request(4, 1.5, &[0]);
    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    // Eviction → retry same worker → refused reconnect → excluded →
    // warm flip to worker 1: two re-asks, one warm failover, no payload.
    assert_eq!(got.stats.retries, 2, "stats: {:?}", got.stats);
    assert_eq!(got.stats.warm_failovers, 1);
    assert_eq!(got.stats.cold_reprovisions, 0);
    assert_eq!(remote.metrics().provisions_sent, 6);
    assert_eq!(remote.metrics().excluded_workers, 1);

    // Tick 1: the probe eats the last refusal and fails; meanwhile the
    // rebalancer restores two-way replication over the two survivors
    // (shard 0 and shard 2 each lost their copy on worker 0).
    let t1 = remote.tick();
    assert_eq!((t1.probes, t1.probe_successes), (1, 0));
    assert_eq!(t1.provisions, 2);
    assert!(t1.readmitted.is_empty());

    // Tick 2: refusals drained — the probe succeeds, but one success is
    // below the hysteresis threshold: still out of rotation.
    let t2 = remote.tick();
    assert_eq!((t2.probes, t2.probe_successes), (1, 1));
    assert!(t2.readmitted.is_empty());
    assert_eq!(remote.metrics().excluded_workers, 1);

    // Flap: the worker goes down again mid-probation. The next probe
    // fails and the streak resets — one more success alone won't readmit.
    temp_kill(&remote, 0, 1);
    let t3 = remote.tick();
    assert_eq!((t3.probes, t3.probe_successes), (1, 0));
    let t4 = remote.tick(); // eats the refusal
    assert_eq!((t4.probes, t4.probe_successes), (1, 0));
    let t5 = remote.tick(); // healthy again: streak 1
    assert_eq!((t5.probes, t5.probe_successes), (1, 1));
    assert!(t5.readmitted.is_empty(), "readmitted below the threshold");

    // Streak reaches the threshold: the worker reports its (still warm)
    // shards over OP_SHARD_STATUS and re-enters with zero provisioning.
    let provisions_before = remote.metrics().provisions_sent;
    let t6 = remote.tick();
    assert_eq!(t6.readmitted, vec![0]);
    assert_eq!(t6.provisions, 0);
    assert_eq!(remote.metrics().provisions_sent, provisions_before);
    assert_eq!(remote.metrics().readmissions, 1);
    assert_eq!(remote.metrics().excluded_workers, 0);

    // One more tick settles the primaries back to the canonical layout.
    let t7 = remote.tick();
    assert!(t7.quiescent(), "not settled: {t7:?}");
    remote.check_replication().unwrap();
    let view = remote.membership();
    assert_eq!(view.states, vec![WorkerState::Live; 3]);
    assert_eq!(view.primaries, vec![0, 1, 2]);

    let again = remote.execute(&req).unwrap();
    assert_eq!(again.results, local.execute(&req).unwrap().results);
    assert_eq!(again.stats.retries, 0);

    // The facade-level snapshot carries the whole story.
    let metrics = remote.metrics();
    assert_eq!(metrics.warm_failovers, 1);
    assert_eq!(metrics.cold_reprovisions, 0);
    assert_eq!(metrics.readmissions, 1);
    assert_eq!(metrics.excluded_workers, 0);
    assert!(metrics.remote_retries >= 2);
}

/// An admitted worker starts empty and the rebalancer migrates shard
/// copies onto it under the per-tick move budget — one provision per tick
/// here, so a join never stalls serving behind a bulk migration.
#[test]
fn rebalance_respects_the_move_budget() {
    let local = QueryEngine::new(executor(), dataset());
    let remote = RemoteEngine::self_hosted_with(
        executor(),
        dataset(),
        3,
        MembershipConfig {
            replication_factor: 3,
            max_moves_per_tick: 1,
        },
    )
    .unwrap();
    assert_eq!(remote.metrics().provisions_sent, 9); // 3 shards × replication 3

    let joiner =
        WorkerServer::bind("127.0.0.1:0", vec![Box::new(ShardHost::new())], false).unwrap();
    let index = remote.admit(&joiner.addr().to_string()).unwrap();
    assert_eq!(index, 3);

    // Canonical layout over 4 workers wants worker 3 to hold shards 1
    // and 2 — two moves, budgeted one per tick.
    let t1 = remote.tick();
    assert_eq!(t1.provisions, 1);
    let t2 = remote.tick();
    assert_eq!(t2.provisions, 1);
    let t3 = remote.tick();
    assert!(t3.quiescent(), "not settled: {t3:?}");
    assert_eq!(remote.metrics().rebalance_moves, 2);
    remote.check_replication().unwrap();
    let view = remote.membership();
    assert_eq!(
        view.replicas.iter().filter(|set| set.contains(&3)).count(),
        2,
        "view: {view:?}"
    );

    let req = request(4, 1.5, &[0]);
    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    assert_eq!(got.stats.retries, 0);

    // Admission is validated: junk addresses and unreachable workers are
    // typed errors, not silent placements.
    assert!(matches!(
        remote.admit("no-port"),
        Err(SpqError::InvalidConfig { .. })
    ));
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    assert!(matches!(remote.admit(&dead), Err(SpqError::Remote { .. })));
    joiner.shutdown();
}

/// `SPQ_REPLICATION_FACTOR` overrides the default replication factor on
/// the environment-driven build path, and junk values are typed config
/// errors. (The only test in this binary touching the variable.)
#[test]
fn replication_factor_env_override() {
    std::env::set_var("SPQ_REPLICATION_FACTOR", "1");
    let remote = RemoteEngine::build(executor(), dataset(), 3).unwrap();
    assert_eq!(remote.membership_config().replication_factor, 1);
    assert_eq!(remote.metrics().provisions_sent, 3); // one copy per shard

    for bad in ["0", "-1", "x"] {
        std::env::set_var("SPQ_REPLICATION_FACTOR", bad);
        let err = RemoteEngine::build(executor(), dataset(), 2).unwrap_err();
        assert!(matches!(err, SpqError::InvalidConfig { .. }), "{bad:?}");
        assert!(err.to_string().contains("SPQ_REPLICATION_FACTOR"));
    }
    std::env::remove_var("SPQ_REPLICATION_FACTOR");

    let local = QueryEngine::new(executor(), dataset());
    let req = request(3, 1.5, &[0]);
    assert_eq!(
        remote.execute(&req).unwrap().results,
        local.execute(&req).unwrap().results
    );
}

const WORKERS: usize = 3;
const RADII: [f64; 3] = [1.0, 1.5, 2.5];

/// Ticks until the membership layer reports a quiescent tick, panicking
/// if it never settles — recovery must always converge.
fn settle(remote: &RemoteEngine) {
    for _ in 0..48 {
        if remote.tick().quiescent() {
            return;
        }
    }
    panic!("membership never settled: {:?}", remote.membership());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of temporary worker deaths, queries and
    /// tick-driven recovery (probe → re-admit → rebalance) keeps every
    /// query byte-identical to the local engine, and each settled state
    /// satisfies the replica-placement invariant: every shard warm on
    /// `min(replication_factor, live_workers)` workers with a live
    /// primary. Deaths are gated so at least one fault-free worker always
    /// remains — the one regime where answering is possible at all.
    #[test]
    fn prop_membership_events_preserve_byte_identity(
        rounds in proptest::collection::vec(
            (
                // Temporary deaths: (worker, refusal budget).
                proptest::collection::vec((0usize..WORKERS, 1u32..4), 0..3),
                // Queries between death and recovery.
                proptest::collection::vec(
                    (1usize..5, 0usize..RADII.len(), proptest::collection::vec(0u32..12, 1..3)),
                    1..3,
                ),
            ),
            1..4,
        ),
    ) {
        let local = QueryEngine::new(executor(), dataset());
        let remote =
            RemoteEngine::self_hosted_with(executor(), dataset(), WORKERS, config()).unwrap();

        let mut armed = [false; WORKERS];
        for (kills, queries) in &rounds {
            for &(victim, refusals) in kills {
                // Keep one fault-free available worker at all times: with
                // every worker simultaneously dead, WorkerLost would be
                // the *correct* answer, not byte-identity.
                let states = remote.membership().states;
                let fallback_exists = (0..WORKERS).any(|u| {
                    u != victim && !armed[u] && states[u].is_available()
                });
                if !fallback_exists {
                    continue;
                }
                temp_kill(&remote, victim, refusals);
                armed[victim] = true;
            }

            for (k, r, kw) in queries {
                let req = request(*k, RADII[*r], kw);
                let expect = local.execute(&req).unwrap();
                let got = remote.execute(&req).unwrap();
                prop_assert_eq!(&got.results, &expect.results);
                prop_assert_eq!(
                    got.stats.retries >= got.stats.warm_failovers + got.stats.cold_reprovisions,
                    true
                );
            }

            // Recovery: tick until quiescent, then clear any armed fault
            // that never fired (a drop waiting on a worker no query
            // happened to touch). Clearing may eat leftover refusals, so
            // settle once more before asserting the invariant.
            settle(&remote);
            for (w, armed_flag) in armed.iter_mut().enumerate() {
                if !*armed_flag {
                    continue;
                }
                let mut cleared = false;
                for _ in 0..8 {
                    if remote.inject_fault(w, &FaultPlan::none()).is_ok() {
                        cleared = true;
                        break;
                    }
                }
                prop_assert!(cleared, "could not clear faults on worker {w}");
                *armed_flag = false;
            }
            settle(&remote);

            // The settled invariant: everyone re-admitted, every shard
            // warm on min(replication_factor, live) workers.
            let view = remote.membership();
            prop_assert_eq!(&view.states, &vec![WorkerState::Live; WORKERS]);
            if let Err(violation) = remote.check_replication() {
                prop_assert!(false, "replication invariant broken: {violation}");
            }

            // And the recovered cluster answers byte-identically with no
            // fresh recovery work.
            let req = request(3, 1.5, &[0, 4]);
            let got = remote.execute(&req).unwrap();
            prop_assert_eq!(&got.results, &local.execute(&req).unwrap().results);
            prop_assert_eq!(got.stats.retries, 0);
        }
    }
}
