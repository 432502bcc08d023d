//! The manager side: a [`RemoteEngine`] provisions shards onto workers,
//! scatters shard queries over TCP with retry and failover, and drives
//! the membership machine from query outcomes and ticks.

use super::codec::{
    decode_shard_result, decode_shard_status, encode_feature_chunks, encode_provision,
    encode_shard_query, FeatureChunks, FEATURES_CHUNK_BYTES, TERM_ID_LIMIT,
};
use super::host::{ShardHost, NOT_PROVISIONED, UNKNOWN_FEATURE_SET};
use super::membership::{Failover, Membership, MembershipConfig, MembershipView, TickReport};
use super::{parse_worker_addrs, SPQ_REMOTE_WORKERS};
use crate::engine::MetricsSnapshot;
use crate::executor::{SpqError, SpqExecutor};
use crate::model::FeatureObject;
use crate::query::SpqQuery;
use crate::service::{QueryExecutor, QueryOptions, QueryResponse};
use crate::sharded::{Layout, Recovery, ShardAnswer};
use crate::store::SharedDataset;
use parking_lot::Mutex;
use spq_mapreduce::pool::run_tasks;
use spq_mapreduce::remote::{
    decode_error_payload, ClientConfig, FaultPlan, RemoteError, WorkerClient, WorkerServer,
    OP_ERROR, OP_FAULT_OK, OP_FEATURES, OP_FEATURES_OK, OP_PROVISION, OP_PROVISION_OK,
    OP_SET_FAULT, OP_SHARD_QUERY, OP_SHARD_RESULT, OP_SHARD_STATUS, OP_SHARD_STATUS_OK,
};
use spq_text::Term;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Cumulative counters (all monotone), named as the [`MetricsSnapshot`]
/// fields they are read into.
#[derive(Debug, Default)]
struct RemoteCounters {
    queries: AtomicU64,
    keyword_probes: AtomicU64,
    keyword_hits: AtomicU64,
    remote_retries: AtomicU64,
    warm_failovers: AtomicU64,
    cold_reprovisions: AtomicU64,
    readmissions: AtomicU64,
    health_probes: AtomicU64,
    rebalance_moves: AtomicU64,
    provisions_sent: AtomicU64,
    feature_sets_sent: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// The terms carried by at least one feature, one bit per term id — the
/// manager-side keyword probe, the same answer as the engines'
/// `KeywordIndex::term_frequency(t) > 0` without building postings.
#[derive(Debug)]
struct TermPresence(Vec<u64>);

impl TermPresence {
    /// Sets the bit of every feature keyword, in one pass.
    fn build(features: &[FeatureObject]) -> Self {
        let mut words = Vec::new();
        for t in features.iter().flat_map(|f| f.keywords.iter()) {
            let word = t.index() / 64;
            if word >= words.len() {
                words.resize(word + 1, 0u64);
            }
            words[word] |= 1 << (t.index() % 64);
        }
        Self(words)
    }

    /// Whether some feature carries `t` (false past the highest term id).
    fn contains(&self, t: Term) -> bool {
        self.0
            .get(t.index() / 64)
            .is_some_and(|word| word >> (t.index() % 64) & 1 == 1)
    }
}

/// The engine behind [`crate::service::Backend::Remote`]: the sharded
/// scatter/gather with every shard behind a TCP worker, plus the
/// membership layer described in the [module docs](super) — retry and
/// warm/cold failover on the query path, probe-driven re-admission and
/// budgeted rebalancing on the [`tick`](Self::tick) path.
///
/// Build with [`build`](Self::build) (environment-driven),
/// [`self_hosted`](Self::self_hosted) (in-process workers) or
/// [`connect`](Self::connect) (external workers), then serve typed
/// requests exactly like the other engines. Every constructor refuses,
/// as [`SpqError::InvalidConfig`], a dataset with a feature keyword id of
/// 2²² or more: a worker would size its keyword index by it, so the wire
/// does not carry one.
#[derive(Debug)]
pub struct RemoteEngine {
    layout: Layout,
    client_config: ClientConfig,
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
    /// The feature set, encoded once: every worker — and every later cold
    /// re-provision — is sent these same chunk buffers.
    pub(super) features: FeatureChunks,
    /// Per-shard [`OP_PROVISION`] payload (the shard's data slice; no
    /// features), kept for failover re-provisioning.
    pub(super) shard_payloads: Vec<Vec<u8>>,
    /// Every membership decision is asked of this machine; the engine
    /// holds the lock for the question only, never across I/O.
    membership: Mutex<Membership>,
    /// Terms carried by at least one feature (the manager-side keyword
    /// probe — same semantics as the engines' build-once keyword index).
    terms: TermPresence,
    counters: RemoteCounters,
    /// In-process worker servers under [`self_hosted`](Self::self_hosted);
    /// empty when workers are external. Held so they serve for the
    /// engine's lifetime and shut down on drop.
    hosts: Vec<WorkerServer>,
}

impl RemoteEngine {
    /// Builds the engine the way [`crate::service::SpqService::build`]
    /// does for `remote:N`: external workers when [`SPQ_REMOTE_WORKERS`]
    /// is set (the list length must equal `workers`), in-process workers
    /// otherwise. [`SPQ_REPLICATION_FACTOR`](super::SPQ_REPLICATION_FACTOR)
    /// overrides the default replication factor either way.
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
        // Keyword sets are sorted: a feature's largest id is its last.
        let largest_term = dataset
            .features()
            .iter()
            .filter_map(|f| f.keywords.terms().last())
            .max();
        if let Some(t) = largest_term.filter(|t| t.0 >= TERM_ID_LIMIT) {
            return Err(SpqError::invalid_config(format!(
                "keyword id {} is past the {TERM_ID_LIMIT}-term limit of a remote feature set",
                t.0
            )));
        }
        // One shard per worker, cut exactly as the in-process engine cuts.
        let num_workers = addrs.len();
        let (layout, _) = Layout::new(executor, dataset, num_workers)?;
        let features = encode_feature_chunks(layout.dataset.features(), FEATURES_CHUNK_BYTES);
        let shard_payloads = layout
            .slices
            .iter()
            .enumerate()
            .map(|(s, slice)| {
                encode_provision(
                    s as u32,
                    features.fingerprint,
                    &layout.exec,
                    slice.start as u32,
                    &layout.dataset.data()[slice.clone()],
                )
            })
            .collect();
        let terms = TermPresence::build(layout.dataset.features());
        let workers: Vec<Arc<WorkerSlot>> = addrs
            .iter()
            .map(|a| Arc::new(WorkerSlot::new(a.clone(), client_config)))
            .collect();
        let engine = Self {
            layout,
            client_config,
            workers: Mutex::new(workers),
            features,
            shard_payloads,
            membership: Mutex::new(Membership::new(config, num_workers, num_workers)),
            terms,
            counters: RemoteCounters::default(),
            hosts,
        };
        // Initial placement: shard s primary on worker s, warm replicas
        // on the next replication_factor − 1 workers. Every worker is
        // provisioned at the same time, on a thread of its own: the
        // feature set once, then the shards it hosts, in shard order.
        // Build is strict — a worker that cannot be provisioned fails the
        // build instead of starting life on the exclusion list.
        let replicas_per_shard = config.replication_factor.min(num_workers);
        let mut hosted = vec![Vec::new(); num_workers];
        for s in 0..num_workers {
            for j in 0..replicas_per_shard {
                hosted[(s + j) % num_workers].push(s);
            }
        }
        run_tasks(num_workers, num_workers, |w| {
            engine
                .ship_features(w)
                .and_then(|()| hosted[w].iter().try_for_each(|&s| engine.install(s, w)))
                .map_err(|e| match e {
                    AttemptError::Transport(message) => SpqError::WorkerLost { worker: w, message },
                    AttemptError::Fatal(e) => e,
                })
        })
        .map_err(|p| SpqError::Worker {
            message: format!("provisioning worker {}: {}", p.task_index, p.message),
        })?
        .into_iter()
        .collect::<Result<(), SpqError>>()?;
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
        &self.layout.dataset
    }

    /// The executor configuration the shards were provisioned with.
    pub fn executor(&self) -> &SpqExecutor {
        &self.layout.exec
    }

    /// The membership tuning this engine runs under.
    pub fn membership_config(&self) -> MembershipConfig {
        self.membership.lock().config()
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

    /// Total frame bytes exchanged with workers (both directions, headers
    /// included), across provisioning, probes and queries. A sum over the
    /// sockets, read under each client's lock — not a counter the engine
    /// owns, which is why it is not a [`MetricsSnapshot`] field.
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
        self.membership.lock().view()
    }

    /// The engine's cumulative counters in the facade's
    /// [`MetricsSnapshot`] shape: the query-path counters every backend
    /// keeps plus the membership and provisioning ones
    /// ([`excluded_workers`](MetricsSnapshot::excluded_workers) is a gauge
    /// read off the membership machine). Job planning and kernel work
    /// happen in the workers' engines and stay zero here.
    pub fn metrics(&self) -> MetricsSnapshot {
        let c = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            queries: load(&c.queries),
            keyword_probes: load(&c.keyword_probes),
            keyword_hits: load(&c.keyword_hits),
            remote_retries: load(&c.remote_retries),
            excluded_workers: self.membership.lock().unavailable_workers().len() as u64,
            warm_failovers: load(&c.warm_failovers),
            cold_reprovisions: load(&c.cold_reprovisions),
            readmissions: load(&c.readmissions),
            health_probes: load(&c.health_probes),
            rebalance_moves: load(&c.rebalance_moves),
            provisions_sent: load(&c.provisions_sent),
            feature_sets_sent: load(&c.feature_sets_sent),
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
        self.membership.lock().check_replication()
    }

    /// Installs a [`FaultPlan`] on worker `worker` (the fault-injection
    /// seam `tests/remote_faults.rs` drives). The plan arms on the
    /// worker's *next* responses; installing resets its response counter.
    pub fn inject_fault(&self, worker: usize, plan: &FaultPlan) -> Result<(), SpqError> {
        let mut payload = Vec::new();
        plan.encode(&mut payload);
        match self.call_worker(worker, OP_SET_FAULT, &payload, OP_FAULT_OK) {
            Ok(_) => Ok(()),
            Err(AttemptError::Fatal(e)) => Err(e),
            Err(AttemptError::Transport(message)) => {
                Err(SpqError::remote(format!("cannot install fault: {message}")))
            }
        }
    }

    fn slot(&self, w: usize) -> Arc<WorkerSlot> {
        Arc::clone(&self.workers.lock()[w])
    }

    /// One framed call to worker `w`; see [`classify_reply`](Self::classify_reply).
    fn call_worker(
        &self,
        w: usize,
        opcode: u16,
        payload: &[u8],
        ok_opcode: u16,
    ) -> Result<Vec<u8>, AttemptError> {
        let slot = self.slot(w);
        let reply = slot.client.lock().call(opcode, payload);
        Self::classify_reply(w, reply, ok_opcode)
    }

    /// Maps worker `w`'s reply to the retry loop's vocabulary: `Fatal`
    /// for typed worker-reported errors (never retried), `Transport` for
    /// anything that smells like a dead worker.
    fn classify_reply(
        w: usize,
        reply: Result<(u16, Vec<u8>), RemoteError>,
        ok_opcode: u16,
    ) -> Result<Vec<u8>, AttemptError> {
        match reply {
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

    /// Ships the feature set to worker `w`, chunk by chunk. The worker's
    /// connection is held for the whole sequence, so two shipments to one
    /// worker cannot interleave their chunks.
    fn ship_features(&self, w: usize) -> Result<(), AttemptError> {
        bump(&self.counters.feature_sets_sent, 1);
        let slot = self.slot(w);
        let mut client = slot.client.lock();
        for chunk in &self.features.chunks {
            Self::classify_reply(w, client.call(OP_FEATURES, chunk), OP_FEATURES_OK)?;
        }
        Ok(())
    }

    /// Installs shard `shard` on worker `w` and reports the warm copy to
    /// the membership machine. A worker that does not hold the shard's
    /// feature set says so; it is sent the set and asked once more — the
    /// one path by which a survivor of a failover, a rebalance target and
    /// a restarted or newly admitted process all come to hold it. Does
    /// **not** move the primary pointer — callers decide that.
    fn install(&self, shard: usize, w: usize) -> Result<(), AttemptError> {
        bump(&self.counters.provisions_sent, 1);
        let payload = &self.shard_payloads[shard];
        let mut reply = self.call_worker(w, OP_PROVISION, payload, OP_PROVISION_OK);
        if matches!(&reply, Err(AttemptError::Fatal(e)) if e.to_string().contains(UNKNOWN_FEATURE_SET))
        {
            self.ship_features(w)?;
            reply = self.call_worker(w, OP_PROVISION, payload, OP_PROVISION_OK);
        }
        reply?;
        self.membership.lock().installed(shard, w);
        Ok(())
    }

    /// The per-shard retry/failover loop (see the [module docs](super)):
    /// ask the shard's primary; on a transport failure report it to the
    /// membership machine and do what it says — one more try while the
    /// worker is only suspect, a failover once it is excluded. Returns
    /// the shard's answer plus the recovery work it took.
    fn query_shard(
        &self,
        shard: usize,
        payload: &[u8],
    ) -> Result<(ShardAnswer, Recovery), SpqError> {
        let mut recovery = Recovery::default();
        let mut last_failure: Option<(usize, String)> = None;
        loop {
            let primary = self.membership.lock().primary(shard);
            if let Some(w) = primary {
                loop {
                    match self.call_worker(w, OP_SHARD_QUERY, payload, OP_SHARD_RESULT) {
                        Ok(resp) => {
                            self.membership.lock().call_ok(w);
                            bump(&self.counters.remote_retries, recovery.retries);
                            let answer = decode_shard_result(&resp).map_err(|e| {
                                SpqError::remote(format!("worker {w} sent a bad shard result: {e}"))
                            })?;
                            return Ok((answer, recovery));
                        }
                        Err(AttemptError::Fatal(e)) => {
                            let message = e.to_string();
                            if !message.contains(NOT_PROVISIONED) {
                                return Err(e);
                            }
                            // Placement healing: a *healthy* worker
                            // reporting it does not host the shard is a
                            // placement error, not a query error — drop
                            // the stale entry and fail over; the cold
                            // path may ship the payload straight back to
                            // this worker.
                            self.membership.lock().stale_replica_dropped(shard, w);
                            last_failure = Some((w, message));
                            break;
                        }
                        Err(AttemptError::Transport(message)) => {
                            let excluded = self.membership.lock().transport_failure(w);
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
            // Failover: a warm replica if one is alive (pointer flip, no
            // data shipped), else a cold install on a survivor.
            let plan = self.membership.lock().failover(shard);
            match plan {
                None => {
                    let (worker, message) = last_failure
                        .unwrap_or((0, "every worker is on the exclusion list".to_owned()));
                    bump(&self.counters.remote_retries, recovery.retries);
                    return Err(SpqError::WorkerLost { worker, message });
                }
                Some(Failover::Warm) => {
                    recovery.retries += 1;
                    recovery.warm_failovers += 1;
                    bump(&self.counters.warm_failovers, 1);
                }
                Some(Failover::Cold(next)) => match self.install(shard, next) {
                    Ok(()) => {
                        recovery.retries += 1;
                        recovery.cold_reprovisions += 1;
                        bump(&self.counters.cold_reprovisions, 1);
                        self.membership.lock().promoted(shard, next);
                    }
                    Err(AttemptError::Fatal(e)) => return Err(e),
                    // A failed failover install gets no suspect leniency:
                    // the shard needs a host *now*.
                    Err(AttemptError::Transport(message)) => {
                        self.membership.lock().exclude(next);
                        last_failure = Some((next, message));
                    }
                },
            }
        }
    }

    /// Advances the membership layer by one deterministic step: probe
    /// every excluded worker, re-admit those whose probe streak satisfies
    /// the hysteresis, and migrate up to
    /// [`MembershipConfig::max_moves_per_tick`] shard copies toward the
    /// canonical layout. Nothing in the engine probes or migrates outside
    /// this call, so tests drive every recovery path without wall-clock
    /// scheduling; production callers invoke it from whatever cadence
    /// they like (e.g. once per serving batch, or a timer thread).
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let targets = self.membership.lock().begin_tick();
        for w in targets {
            report.probes += 1;
            bump(&self.counters.health_probes, 1);
            let healthy = self.slot(w).client.lock().ping(b"spq-health-probe").is_ok();
            if !healthy {
                self.membership.lock().probe_failed(w);
                continue;
            }
            report.probe_successes += 1;
            if !self.membership.lock().probe_ok(w) {
                continue;
            }
            // Hysteresis satisfied: ask the worker what it still hosts. A
            // status call that fails right after a healthy ping is a
            // worker still flapping — a failed probe.
            let hosted = self
                .call_worker(w, OP_SHARD_STATUS, &[], OP_SHARD_STATUS_OK)
                .ok()
                .and_then(|resp| decode_shard_status(&resp).ok());
            let mut m = self.membership.lock();
            match hosted {
                Some(hosted) if m.status_reported(w, &hosted) => {
                    report.readmitted.push(w);
                    bump(&self.counters.readmissions, 1);
                }
                _ => m.probe_failed(w),
            }
        }
        // Rebalance: budgeted installs toward the canonical layout, then
        // the (free) primary-pointer flips.
        let planned = self.membership.lock().planned_moves();
        for (s, t) in planned {
            match self.install(s, t) {
                Ok(()) => {
                    report.provisions += 1;
                    bump(&self.counters.rebalance_moves, 1);
                }
                Err(AttemptError::Transport(_)) => self.membership.lock().exclude(t),
                // A typed refusal of a known-good payload is not a health
                // signal; leave the worker in rotation and move on.
                Err(AttemptError::Fatal(_)) => {}
            }
        }
        report.primary_flips = self.membership.lock().restore_primaries();
        report
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
        slot.client
            .lock()
            .ping(b"spq-admit")
            .map_err(|e| SpqError::remote(format!("cannot admit worker {addr}: {e}")))?;
        let index = {
            let mut workers = self.workers.lock();
            workers.push(slot);
            workers.len() - 1
        };
        self.membership.lock().admitted();
        Ok(index)
    }
}

impl QueryExecutor for RemoteEngine {
    /// Probe the manager-side term set (features are broadcast, so one
    /// set speaks for every shard), then `Layout::scatter_gather` with
    /// every shard asked over TCP through the retry/failover loop.
    fn run_validated(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
    ) -> Result<QueryResponse, SpqError> {
        let probed = query.keywords.len();
        let matched = query
            .keywords
            .iter()
            .filter(|&t| self.terms.contains(t))
            .count();
        bump(&self.counters.queries, 1);
        bump(&self.counters.keyword_probes, probed as u64);
        bump(&self.counters.keyword_hits, matched as u64);
        self.layout
            .scatter_gather(query, options, (probed, matched), |shard| {
                let payload = encode_shard_query(shard as u32, query, options);
                self.query_shard(shard, &payload)
            })
    }

    fn metrics(&self) -> MetricsSnapshot {
        RemoteEngine::metrics(self)
    }
}
