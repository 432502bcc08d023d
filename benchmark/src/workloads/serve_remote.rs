//! `serve-remote`: closed loop over `remote:2` — two real `spq-worker`
//! child processes on loopback. The only path that crosses frame
//! encode/decode, sockets, scatter/retry and gather/merge.

use super::serve_local::{caller_pumped, closed_loop, serving_inputs};
use super::{end_to_end, timed_setups, warm_plans, RunConfig, Spec};
use crate::corpus::Corpus;
use crate::procstat::ProcessSet;
use crate::report::WorkloadReport;
use crate::workers::{addrs, pids, spawn_workers, WorkerProcess};
use spq::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Name and reason.
pub const SPEC: Spec = Spec {
    name: "serve-remote",
    why: "closed loop over two real spq-worker processes: latency minus serve-local's is the price \
          of distribution, so wire and remote.rs changes must leave it flat while engine gains pass through",
};

/// Worker processes (= shards) behind the remote engine.
pub const WORKERS: usize = 2;
/// Provisioning attempts before set-up gives up.
pub const PROVISION_ATTEMPTS: usize = 12;

/// What provisioning cost across the set-ups of a run, failed attempts
/// included. The time lost to failed attempts is kept out of `setup_s`
/// (half the set-ups would otherwise be twice as long as the other
/// half), so it is reported here instead of vanishing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProvisionLog {
    /// Set-ups that ended with provisioned workers.
    pub setups: usize,
    /// Provisioning attempts, failed ones included (`== setups` when
    /// none failed).
    pub attempts: usize,
    /// Seconds spent in attempts that failed.
    pub lost_s: f64,
}

/// A remote service together with the worker processes that back it.
/// Field order matters: the engine drops (and disconnects) before the
/// workers are killed and reaped.
#[derive(Debug)]
pub struct RemoteStack {
    /// The `remote:2` service.
    pub service: SpqService,
    /// The child processes, killed on drop.
    pub workers: Vec<WorkerProcess>,
}

impl RemoteStack {
    /// Spawns [`WORKERS`] fresh `spq-worker` processes and provisions
    /// `corpus` onto them (replication factor 2, the default). The
    /// manager scatters to both shards at once; each worker runs its
    /// shard jobs single-threaded.
    ///
    /// Provisioning is retried on fresh workers up to
    /// [`PROVISION_ATTEMPTS`] times, every attempt and the seconds lost
    /// to failed ones counted in `log`: a worker abandons a frame whose
    /// bytes stall for 5 ms mid-read (its poll interval doubles as a
    /// frame timeout), which on a busy shared host regularly kills the
    /// 15 MB provision frame — and only that one; query frames are a few
    /// hundred bytes. README, "Findings", has the details.
    pub fn build(
        worker_bin: &Path,
        corpus: &Corpus,
        log: &mut ProvisionLog,
    ) -> Result<Self, String> {
        let mut last_error = String::new();
        for attempt in 1..=PROVISION_ATTEMPTS {
            let started = Instant::now();
            let workers = spawn_workers(worker_bin, WORKERS)?;
            log.attempts += 1;
            match RemoteEngine::connect(
                corpus.executor(WORKERS),
                corpus.shared.clone(),
                &addrs(&workers),
            ) {
                Ok(engine) => {
                    log.setups += 1;
                    return Ok(Self {
                        service: SpqService::Remote(engine),
                        workers,
                    });
                }
                Err(e) => {
                    eprintln!("[serve-remote] provisioning attempt {attempt} failed: {e}");
                    last_error = e.to_string();
                    log.lost_s += started.elapsed().as_secs_f64();
                }
            }
        }
        Err(format!(
            "cannot provision the workers after {PROVISION_ATTEMPTS} attempts: {last_error}"
        ))
    }

    /// The harness plus the worker children.
    pub fn processes(&self) -> ProcessSet {
        ProcessSet::with_children(&pids(&self.workers))
    }
}

/// Runs the workload end to end (tracing off).
pub fn run(cfg: &RunConfig) -> Result<WorkloadReport, String> {
    // Same corpus and stream as serve-local, so the two differ only by
    // the distribution layers.
    let (corpus, requests) = serving_inputs(cfg, 1);
    let warmers = requests.warmers();
    let mut provisioning = ProvisionLog::default();
    let (stack, setup_s) = timed_setups(|| {
        let lost_before = provisioning.lost_s;
        let stack = RemoteStack::build(&cfg.worker_bin, &corpus, &mut provisioning)?;
        warm_plans(&stack.service, &warmers)?;
        Ok((stack, provisioning.lost_s - lost_before))
    })?;
    let queue = AdmissionQueue::new(&stack.service, caller_pumped()).map_err(|e| e.to_string())?;
    let processes = stack.processes();
    let before = stack.service.metrics();
    let window = closed_loop(
        &queue,
        &requests.list,
        1,
        (cfg.warmup(), cfg.timed()),
        &processes,
    );
    let after = stack.service.metrics();
    let mut report = end_to_end(&SPEC, cfg, &corpus, &requests, window, setup_s);
    if after.remote_retries != before.remote_retries {
        report.invalid("the remote engine retried a shard inside the timed window");
    }
    report.note("workers", WORKERS);
    report.note(
        "workers_pinned",
        stack.workers.iter().all(WorkerProcess::pinned),
    );
    report.note("provision_setups", provisioning.setups);
    report.note("provision_attempts", provisioning.attempts);
    report.note("provision_lost_s", provisioning.lost_s);
    Ok(report)
}
