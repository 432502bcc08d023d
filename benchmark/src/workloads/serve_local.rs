//! `serve-local`: closed loop over the admission queue and one local
//! engine; also home of the closed-loop driver `serve-remote` reuses.

use super::{end_to_end, timed_setups, warm_plans, RunConfig, Sample, SliceClock, Spec, Window};
use crate::corpus::{serving_requests, Corpus, Requests};
use crate::procstat::ProcessSet;
use crate::report::WorkloadReport;
use spq::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Name and reason.
pub const SPEC: Spec = Spec {
    name: "serve-local",
    why: "closed loop, local engine: the map-shuffle-reduce job is ~all of latency, so engine or \
          kernel changes must show here and admission or wire changes must not",
};

/// Requests generated per run — more than any window consumes, so the
/// closed loop never wraps onto requests it already issued.
pub const REQUEST_POOL: usize = 8_192;

/// Closed-loop clients of `serve-local`: one. Two clients on the two
/// shared cores this was written on answer each request just as fast
/// (p50 10.1 ms against 10.3 ms) but spread 13–17 % between runs of one
/// commit where one client spreads 5–8 %, on every end-to-end metric
/// (ten seeds, the two alternating; README, "Repeat data"): with every
/// core busy, whatever the host takes away comes out of the measurement.
pub const CLIENTS: usize = 1;

/// The queue configuration of the caller-pumped closed loops: each
/// client's `tick()` closes a window of exactly one request, so every
/// client pumps its own request instead of one client executing a whole
/// coalesced window while the others idle.
pub fn caller_pumped() -> AdmissionConfig {
    AdmissionConfig::default().with_batch_max(1)
}

/// Drives `clients` closed-loop clients against `queue` for `warmup` +
/// `timed`: each client submits, pumps the queue itself (`tick()`, no
/// extra serve threads) and waits for its ticket before its next
/// request. Requests are handed out in list order; this thread reads the
/// CPU clock at every slice boundary.
pub fn closed_loop<E: QueryExecutor>(
    queue: &AdmissionQueue<E>,
    requests: &[QueryRequest],
    clients: usize,
    (warmup, timed): (Duration, Duration),
    processes: &ProcessSet,
) -> Window {
    let mut clock = SliceClock::new(processes, Instant::now() + warmup, timed);
    let (start, end) = (clock.start(), clock.end());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let issued = Instant::now();
                        if issued >= end {
                            return mine;
                        }
                        let query = next.fetch_add(1, Ordering::Relaxed) % requests.len();
                        let outcome = queue.submit(requests[query].clone()).and_then(|ticket| {
                            queue.tick();
                            ticket.wait()
                        });
                        mine.push((issued, Instant::now(), query, outcome));
                    }
                })
            })
            .collect();
        clock.sleep_through();
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .filter(|(issued, ..)| *issued >= start)
            .map(|(issued, done, query, outcome)| {
                Sample::from_response(
                    query,
                    (done - start).as_secs_f64(),
                    (done - issued).as_secs_f64() * 1e3,
                    outcome,
                )
            })
            .collect();
        clock.finish(samples)
    })
}

/// The serving corpus and request stream shared by the three serve-*
/// workloads (`serve-open` draws its own stream sub-seed).
pub fn serving_inputs(cfg: &RunConfig, stream_purpose: u64) -> (Corpus, Requests) {
    let corpus = Corpus::uniform(cfg.uniform_objects, cfg.seed);
    let requests = serving_requests(&corpus, cfg.sub_seed(stream_purpose), REQUEST_POOL);
    (corpus, requests)
}

/// Runs the workload end to end (tracing off).
pub fn run(cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let (corpus, requests) = serving_inputs(cfg, 1);
    let warmers = requests.warmers();
    // One worker per job under the one client: one busy thread.
    let executor = corpus.executor(1);
    let (service, setup_s) = timed_setups(|| {
        let service = SpqService::build(executor.clone(), corpus.shared.clone(), Backend::Local)
            .map_err(|e| format!("cannot build the local service: {e}"))?;
        warm_plans(&service, &warmers)?;
        Ok((service, 0.0))
    })?;
    let queue = AdmissionQueue::new(&service, caller_pumped()).map_err(|e| e.to_string())?;
    let processes = ProcessSet::with_children(&[]);
    let before = service.metrics();
    let window = closed_loop(
        &queue,
        &requests.list,
        CLIENTS,
        (cfg.warmup(), cfg.timed()),
        &processes,
    );
    let after = service.metrics();
    let mut report = end_to_end(&SPEC, cfg, &corpus, &requests, window, setup_s);
    if after.plan_cache_misses != before.plan_cache_misses {
        report.invalid("a plan was built inside the timed window (plan-cache hit rate < 1.0)");
    }
    report.note("clients", CLIENTS);
    Ok(report)
}
