//! Cross-process byte-identity: the remote backend against real
//! `spq-worker` child processes.
//!
//! Everything else in the test suite exercises the remote transport
//! against in-process workers. These tests close the last gap the paper's
//! distributed setting cares about: the manager and the workers live in
//! **different processes**, connected only by the framed TCP protocol —
//! provisioning, shard queries, fault installation and worker death all
//! cross a real process boundary. The assertions are the same as
//! everywhere else: results byte-identical to the single-store local
//! engine, recovery visible as retries.

use spq::mapreduce::remote::{FaultPlan, FAULT_EXIT_CODE};
use spq::prelude::*;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
    FeatureObject::new(
        id,
        Point::new(x, y),
        KeywordSet::from_ids(kw.iter().copied()),
    )
}

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

/// A spawned `spq-worker` child, killed on drop so a panicking test
/// never leaks worker processes.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Self {
        Self::spawn_at("127.0.0.1:0").expect("spawn spq-worker")
    }

    fn spawn_at(listen: &str) -> Result<Self, String> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spq-worker"))
            .args(["--listen", listen])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn spq-worker: {e}"))?;
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read worker banner: {e}"))?;
        match line.trim().strip_prefix("spq-worker listening on ") {
            Some(addr) => Ok(Self {
                child,
                addr: addr.to_owned(),
            }),
            // EOF or junk: the worker died (e.g. the port was still
            // held). Reap it and report, so callers can retry.
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("unexpected worker banner: {line:?}"))
            }
        }
    }

    /// Restarts a worker on a fixed address, retrying briefly in case the
    /// OS has not released the port of the killed predecessor yet.
    fn respawn_at(listen: &str) -> Self {
        let mut last = String::new();
        for _ in 0..50 {
            match Self::spawn_at(listen) {
                Ok(worker) => return worker,
                Err(e) => last = e,
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        panic!("cannot respawn spq-worker on {listen}: {last}");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_workers(n: usize) -> (Vec<Worker>, Vec<String>) {
    let workers: Vec<Worker> = (0..n).map(|_| Worker::spawn()).collect();
    let addrs = workers.iter().map(|w| w.addr.clone()).collect();
    (workers, addrs)
}

/// Every query against three real worker processes returns the same
/// bytes as the single-store local engine, with zero retries when nobody
/// dies.
#[test]
fn cross_process_results_are_byte_identical() {
    let (_workers, addrs) = spawn_workers(3);
    let remote = RemoteEngine::connect(executor(), dataset(), &addrs).unwrap();
    assert!(!remote.is_self_hosted());
    assert_eq!(remote.worker_addrs(), addrs);

    let local = QueryEngine::new(executor(), dataset());
    for req in [
        request(1, 1.0, &[0]),
        request(3, 1.8, &[0, 4]),
        request(6, 3.0, &[0, 2, 6, 11]),
        request(2, 1.0, &[99]), // unmatched keywords: empty on both sides
    ] {
        let expect = local.execute(&req).unwrap();
        let got = remote.execute(&req).unwrap();
        assert_eq!(got.results, expect.results);
        assert_eq!(got.stats.retries, 0);
    }
    assert_eq!(remote.metrics().remote_retries, 0);
    assert!(remote.traffic_bytes() > 0);
}

/// Killing a worker *process* mid-serving moves its shard to a survivor:
/// results stay byte-identical and the recovery is visible as retries and
/// an exclusion.
#[test]
fn killed_worker_process_fails_over_to_survivors() {
    let (mut workers, addrs) = spawn_workers(3);
    let remote = RemoteEngine::connect(executor(), dataset(), &addrs).unwrap();
    let local = QueryEngine::new(executor(), dataset());

    let req = request(4, 1.8, &[0]);
    assert_eq!(
        remote.execute(&req).unwrap().results,
        local.execute(&req).unwrap().results
    );

    workers[0].child.kill().expect("kill worker 0");
    workers[0].child.wait().expect("reap worker 0");

    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    assert!(got.stats.retries >= 1, "stats: {:?}", got.stats);
    assert_eq!(remote.metrics().excluded_workers, 1);

    // Steady state after the failover: no fresh retries.
    let again = remote.execute(&req).unwrap();
    assert_eq!(again.results, local.execute(&req).unwrap().results);
    assert_eq!(again.stats.retries, 0);
}

/// A fault plan installed over the wire kills the real process (exit code
/// [`FAULT_EXIT_CODE`]), and the engine recovers exactly as it does for
/// an externally killed worker.
#[test]
fn injected_kill_fault_terminates_the_process() {
    let (mut workers, addrs) = spawn_workers(2);
    let remote = RemoteEngine::connect(executor(), dataset(), &addrs).unwrap();
    let local = QueryEngine::new(executor(), dataset());

    remote
        .inject_fault(
            1,
            &FaultPlan {
                kill_after_responses: Some(0),
                ..FaultPlan::none()
            },
        )
        .unwrap();

    let req = request(3, 1.8, &[0, 4]);
    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    assert!(got.stats.retries >= 1);

    let status = workers[1].child.wait().expect("reap faulted worker");
    assert_eq!(status.code(), Some(FAULT_EXIT_CODE));
}

/// `SPQ_REMOTE_WORKERS` routes `SpqService::build(remote:N)` to external
/// worker processes, and the worker-count mismatch is a typed config
/// error.
#[test]
fn service_uses_external_workers_from_the_environment() {
    let (_workers, addrs) = spawn_workers(2);
    std::env::set_var("SPQ_REMOTE_WORKERS", addrs.join(","));
    let service = SpqService::build(executor(), dataset(), Backend::Remote { workers: 2 });
    let mismatch = SpqService::build(executor(), dataset(), Backend::Remote { workers: 3 });
    std::env::remove_var("SPQ_REMOTE_WORKERS");

    let service = service.unwrap();
    assert_eq!(service.backend(), Backend::Remote { workers: 2 });
    let local = QueryEngine::new(executor(), dataset());
    let req = request(3, 1.8, &[0, 4]);
    assert_eq!(
        service.execute(&req).unwrap().results,
        local.execute(&req).unwrap().results
    );

    let err = mismatch.unwrap_err();
    assert!(
        matches!(err, SpqError::InvalidConfig { .. }),
        "want InvalidConfig, got {err:?}"
    );
    assert!(err.to_string().contains("SPQ_REMOTE_WORKERS"));
}

/// The tentpole's acceptance path, across real process boundaries: a
/// killed `spq-worker` is restarted on the same address, the tick-driven
/// probe scheduler re-admits it after the hysteresis threshold, the
/// rebalancer re-provisions its shards (the restarted process reports an
/// empty shard status), and the canonical placement — worker 0 primary
/// for shard 0 — is restored, with every query byte-identical throughout.
/// The interim failover is warm: the frame-level provision counter proves
/// no `OP_PROVISION` round-trip happened until the rebalancer's.
#[test]
fn killed_and_restarted_worker_is_readmitted() {
    let (mut workers, addrs) = spawn_workers(3);
    let config = MembershipConfig {
        replication_factor: 2,
        max_moves_per_tick: 8,
    };
    let remote = RemoteEngine::connect_with(executor(), dataset(), &addrs, config).unwrap();
    let local = QueryEngine::new(executor(), dataset());
    let provisions_after_build = remote.metrics().provisions_sent;
    assert_eq!(provisions_after_build, 6); // 3 shards × replication 2
                                           // Each install ships its shard's feature slice: once per install.
    assert_eq!(remote.metrics().feature_sets_sent, 6);

    let req = request(4, 1.8, &[0]);
    assert_eq!(
        remote.execute(&req).unwrap().results,
        local.execute(&req).unwrap().results
    );

    // Kill the real process behind worker 0.
    workers[0].child.kill().expect("kill worker 0");
    workers[0].child.wait().expect("reap worker 0");

    // The failover is warm: worker 1 already holds shard 0, so the
    // pointer flips and no provision payload crosses the wire.
    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    assert!(got.stats.warm_failovers >= 1, "stats: {:?}", got.stats);
    assert_eq!(got.stats.cold_reprovisions, 0, "stats: {:?}", got.stats);
    assert_eq!(remote.metrics().provisions_sent, provisions_after_build);
    assert_eq!(remote.metrics().excluded_workers, 1);

    // Ticks while the process is down probe it and keep it excluded.
    let report = remote.tick();
    assert_eq!(report.probes, 1);
    assert_eq!(report.probe_successes, 0);
    assert!(report.readmitted.is_empty());
    assert_eq!(remote.metrics().excluded_workers, 1);

    // Restart the worker on the same address and tick until the
    // membership layer settles: probe hysteresis (2 consecutive
    // successes), re-admission, re-provisioning, primary restoration.
    workers[0] = Worker::respawn_at(&addrs[0]);
    let mut readmitted = false;
    let mut settled = false;
    for _ in 0..16 {
        let report = remote.tick();
        readmitted |= report.readmitted.contains(&0);
        if report.quiescent() {
            settled = true;
            break;
        }
    }
    assert!(readmitted, "worker 0 was never re-admitted");
    assert!(settled, "membership never settled");
    assert_eq!(remote.metrics().readmissions, 1);
    assert_eq!(remote.metrics().excluded_workers, 0);
    remote.check_replication().unwrap();

    // The restarted process reported an empty shard status, so the
    // rebalancer had to ship its shards again — and the canonical layout
    // is back: worker 0 is the primary for shard 0 and serves queries.
    // The new process holds no feature slice either: each of its
    // installs is refused with "unknown feature set", that shard's slice
    // is shipped, and the install retried. No install here lands on a
    // worker already holding its shard's slice — the rebalancer's moves
    // while worker 0 was out included — so every install shipped one.
    let metrics = remote.metrics();
    assert!(metrics.provisions_sent > provisions_after_build);
    assert_eq!(metrics.rebalance_moves, 4);
    assert_eq!(metrics.feature_sets_sent, metrics.provisions_sent);
    let view = remote.membership();
    assert_eq!(view.states, vec![WorkerState::Live; 3]);
    assert_eq!(view.primaries[0], 0);
    let again = remote.execute(&req).unwrap();
    assert_eq!(again.results, local.execute(&req).unwrap().results);
    assert_eq!(again.stats.retries, 0);
}

/// A worker admitted at runtime takes load: the rebalancer migrates
/// replicas onto it over ticks, and when every original worker dies it
/// carries the whole dataset — across real process boundaries.
#[test]
fn admitted_worker_takes_over_after_total_loss_of_the_original_set() {
    let (mut workers, addrs) = spawn_workers(2);
    let config = MembershipConfig {
        replication_factor: 2,
        max_moves_per_tick: 8,
    };
    let remote = RemoteEngine::connect_with(executor(), dataset(), &addrs, config).unwrap();
    let local = QueryEngine::new(executor(), dataset());

    let joiner = Worker::spawn();
    let index = remote.admit(&joiner.addr).unwrap();
    assert_eq!(index, 2);
    assert_eq!(remote.num_workers(), 3);
    // Double admission of the same address is a config error.
    assert!(matches!(
        remote.admit(&joiner.addr),
        Err(SpqError::InvalidConfig { .. })
    ));

    // The join is empty until the rebalancer migrates shards onto it.
    for _ in 0..8 {
        if remote.tick().quiescent() {
            break;
        }
    }
    remote.check_replication().unwrap();
    let view = remote.membership();
    assert!(
        view.replicas.iter().any(|set| set.contains(&2)),
        "rebalancer never placed a shard on the admitted worker: {view:?}"
    );

    // Kill both original processes: the admitted worker must carry every
    // shard (warm where it holds a copy, cold re-provision otherwise).
    for worker in workers.iter_mut() {
        worker.child.kill().expect("kill original worker");
        worker.child.wait().expect("reap original worker");
    }
    let req = request(4, 1.8, &[0]);
    let got = remote.execute(&req).unwrap();
    assert_eq!(got.results, local.execute(&req).unwrap().results);
    assert!(got.stats.retries >= 1, "stats: {:?}", got.stats);
    assert_eq!(remote.metrics().excluded_workers, 2);
    assert!(remote.membership().primaries.iter().all(|&p| p == 2));
}

/// Kill-and-recover rounds with a rotating victim: every round kills a
/// different worker process, the whole stream stays byte-identical to
/// the local engine during the outage, the victim is restarted on its
/// old address and ticked back to a quiescent, fully replicated layout,
/// and the recovered cluster answers the stream again with no retries.
/// Every shard has a warm replica, so each single death is served by a
/// pointer flip and never by re-shipping a provision payload.
#[test]
fn rotating_victim_rounds_stay_identical_and_recover() {
    let (mut workers, addrs) = spawn_workers(3);
    let remote =
        RemoteEngine::connect_with(executor(), dataset(), &addrs, MembershipConfig::default())
            .unwrap();
    let local = QueryEngine::new(executor(), dataset());
    let stream = [
        request(1, 1.0, &[0]),
        request(3, 1.8, &[0, 4]),
        request(6, 3.0, &[0, 2, 6, 11]),
        request(4, 1.8, &[0]),
        request(2, 1.0, &[99]),
    ];
    let reference: Vec<_> = stream
        .iter()
        .map(|req| local.execute(req).unwrap().results)
        .collect();

    for round in 0..3 {
        let victim = round % workers.len();
        workers[victim].child.kill().expect("kill victim");
        workers[victim].child.wait().expect("reap victim");

        for (req, expect) in stream.iter().zip(&reference) {
            let got = remote.execute(req).unwrap();
            assert_eq!(&got.results, expect, "round {round}: during the outage");
        }

        let readmissions = remote.metrics().readmissions;
        workers[victim] = Worker::respawn_at(&addrs[victim]);
        let recovered = (0..32)
            .any(|_| remote.tick().quiescent() && remote.metrics().readmissions > readmissions);
        assert!(
            recovered,
            "round {round}: worker {victim} never re-admitted"
        );
        remote.check_replication().unwrap();

        for (req, expect) in stream.iter().zip(&reference) {
            let got = remote.execute(req).unwrap();
            assert_eq!(&got.results, expect, "round {round}: after recovery");
            assert_eq!(got.stats.retries, 0, "round {round}: {:?}", got.stats);
        }
    }
    assert!(
        remote.metrics().warm_failovers > 0,
        "no warm failover in any round"
    );
    assert_eq!(
        remote.metrics().cold_reprovisions,
        0,
        "a single death re-shipped a payload: replication is not warm"
    );
}
