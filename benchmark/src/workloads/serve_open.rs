//! `serve-open`: open loop at a fixed arrival rate — the only workload
//! where queue wait, window coalescing and rejection exist, because
//! arrivals do not wait for replies.

use super::serve_local::serving_inputs;
use super::{
    end_to_end, sleep_until, timed_setups, warm_plans, RunConfig, Sample, SliceClock, Spec, Window,
};
use crate::procstat::ProcessSet;
use crate::report::WorkloadReport;
use crate::schedule::poisson_schedule;
use criterion::stats;
use spq::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Name and reason.
pub const SPEC: Spec = Spec {
    name: "serve-open",
    why: "open loop at a fixed Poisson rate: queue wait, coalescing and rejection only exist when \
          arrivals do not wait for replies, so admission changes show here and not in serve-local",
};

/// Fixed open-loop arrival rate, ≈ 30 % of what this workload's
/// configuration (one job worker) sustains on the commit that defined
/// the benchmark: 90–118 q/s depending on how busy the shared host is.
/// At utilisation ρ a 1 % slower engine costs `1 + ρ/(2(1−ρ)²) ÷ (1 +
/// ρ/(2(1−ρ)))` % of latency — 1.9 % at ρ = 0.55, 1.4 % at 0.4 — so
/// closer to capacity, queueing amplifies the host's speed swings into
/// latency swings wider than any regression bound. A third of the
/// arrivals still find the server busy. Re-picked in code, never on the
/// command line: results at two rates do not compare.
pub const OPEN_RATE_QPS: f64 = 30.0;

/// Median generator lateness (send time − due time) beyond which the
/// generator systematically failed to keep its schedule and the run is
/// not reported: a tenth of the mean gap between arrivals. The median,
/// not the p99, and not 1 ms: on two shared cores a waking generator
/// waits out a scheduler slice whenever the host is busy (p99 1–29 ms,
/// median up to 0.97 ms measured), which a guard must not mistake for a
/// broken run — latency is taken from the *due* time, so lateness is
/// never hidden.
pub const MAX_LATENESS_P50_MS: f64 = 0.1 * 1e3 / OPEN_RATE_QPS;

/// The queue under open-loop load: cap 64, reject at the cap, windows of
/// up to 8.
pub fn open_loop_config() -> AdmissionConfig {
    AdmissionConfig::default()
        .with_max_in_flight(64)
        .with_overflow(OverflowPolicy::Reject)
        .with_batch_max(8)
}

/// Threads per job under the single serve loop: every core but one. The
/// spare core is the load generator's and the collector's — with every
/// core inside a job, the generator wakes up to a scheduler slice (~3 ms
/// here) late and the schedule is no longer open-loop.
pub fn serve_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// What the open loop observed besides the window itself.
#[derive(Debug)]
pub struct OpenLoop {
    /// The timed window (latency from **due** time to delivery).
    pub window: Window,
    /// Per-arrival generator lateness inside the window, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests in the building (admitted − delivered) seen by each
    /// arrival inside the window.
    pub backlog: Vec<f64>,
}

impl OpenLoop {
    /// Why the run must not be reported, if so: a late generator means
    /// the schedule was not kept; a backlog still growing at the end
    /// means the rate is beyond capacity and latency has no steady value.
    pub fn invalid_reason(&self) -> Option<String> {
        let lateness_p50 = stats::Sample::new(self.lateness_ms.as_slice()).percentile(0.50);
        if lateness_p50 > MAX_LATENESS_P50_MS {
            return Some(format!(
                "generator lateness p50 {lateness_p50:.3} ms exceeds {MAX_LATENESS_P50_MS} ms"
            ));
        }
        let split = self.backlog.len() * 4 / 5;
        let (body, tail) = self.backlog.split_at(split);
        let (body, tail) = (
            stats::Sample::new(body).mean(),
            stats::Sample::new(tail).mean(),
        );
        // Three full coalescing windows of slack before "growing" means
        // it: a slow second on a shared host must not void the run.
        if tail > 24.0 && tail > 4.0 * body {
            return Some(format!(
                "backlog still growing at the end (mean {tail:.1} in the last fifth vs {body:.1} before)"
            ));
        }
        None
    }
}

/// Offers `requests` to `queue` on a seeded Poisson schedule of
/// `rate_qps` for `warmup` + `timed`, never waiting for replies. Three
/// threads: this one generates (and reads the CPU clock at slice
/// boundaries), one serve loop calls `tick()`, one in-order collector
/// stamps each ticket when it is delivered.
pub fn open_loop<E: QueryExecutor>(
    queue: &AdmissionQueue<E>,
    requests: &[QueryRequest],
    (rate_qps, schedule_seed): (f64, u64),
    (warmup, timed): (Duration, Duration),
    processes: &ProcessSet,
) -> OpenLoop {
    // Two schedules back to back, so the timed window holds the same
    // number of arrivals for every seed.
    let mut schedule = poisson_schedule(schedule_seed ^ 1, rate_qps, warmup.as_secs_f64());
    schedule.extend(
        poisson_schedule(schedule_seed, rate_qps, timed.as_secs_f64())
            .into_iter()
            .map(|offset| warmup + offset),
    );
    let generating = AtomicBool::new(true);
    let delivered = AtomicU64::new(0);
    let (to_collector, tickets) = mpsc::channel::<(usize, Instant, Ticket)>();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| loop {
            let pump = queue.tick();
            if pump.idle() {
                if !generating.load(Ordering::Acquire) && queue.queue_depth() == 0 {
                    return;
                }
                // Parked until the generator's next submit (or a short
                // timeout, so shutdown is never missed).
                std::thread::park_timeout(Duration::from_millis(1));
            }
        });
        let delivered = &delivered;
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            for (query, due, ticket) in tickets {
                let outcome = ticket.wait();
                done.push((query, due, Instant::now(), outcome));
                delivered.fetch_add(1, Ordering::Relaxed);
            }
            done
        });

        let epoch = Instant::now();
        let mut clock = SliceClock::new(processes, epoch + warmup, timed);
        let start = clock.start();
        let mut refused = Vec::new();
        let mut lateness_ms = Vec::new();
        let mut backlog = Vec::new();
        let mut admitted = 0u64;
        for (i, offset) in schedule.iter().enumerate() {
            let due = epoch + *offset;
            sleep_until(due);
            clock.poll();
            let query = i % requests.len();
            let sent = Instant::now();
            match queue.submit(requests[query].clone()) {
                Ok(ticket) => {
                    admitted += 1;
                    to_collector
                        .send((query, due, ticket))
                        .expect("collector outlives the generator");
                }
                Err(e) => refused.push((query, due, e)),
            }
            serve.thread().unpark();
            if due >= start {
                lateness_ms.push((sent - due).as_secs_f64() * 1e3);
                backlog.push((admitted - delivered.load(Ordering::Relaxed)) as f64);
            }
        }
        sleep_until(clock.end());
        clock.poll();
        drop(to_collector);
        generating.store(false, Ordering::Release);
        serve.thread().unpark();
        let done = collector.join().expect("collector thread panicked");
        serve.join().expect("serve thread panicked");

        let in_window = |due: &Instant| *due >= start;
        let mut samples: Vec<Sample> = done
            .into_iter()
            .filter(|(_, due, ..)| in_window(due))
            .map(|(query, due, at, outcome)| {
                Sample::from_response(
                    query,
                    (at - start).as_secs_f64(),
                    (at - due).as_secs_f64() * 1e3,
                    outcome,
                )
            })
            .collect();
        samples.extend(
            refused
                .into_iter()
                .filter(|(_, due, _)| in_window(due))
                .map(|(query, due, e)| {
                    Sample::from_response(query, (due - start).as_secs_f64(), 0.0, Err(e))
                }),
        );
        OpenLoop {
            window: clock.finish(samples),
            lateness_ms,
            backlog,
        }
    })
}

/// Runs the workload end to end (tracing off).
pub fn run(cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let (corpus, requests) = serving_inputs(cfg, 2);
    let warmers = requests.warmers();
    let executor = corpus.executor(serve_workers(cfg.nproc));
    let (service, setup_s) = timed_setups(|| {
        let service = SpqService::build(executor.clone(), corpus.shared.clone(), Backend::Local)
            .map_err(|e| format!("cannot build the local service: {e}"))?;
        warm_plans(&service, &warmers)?;
        Ok((service, 0.0))
    })?;
    let queue = AdmissionQueue::new(&service, open_loop_config()).map_err(|e| e.to_string())?;
    let processes = ProcessSet::with_children(&[]);
    let before = service.metrics();
    let run = open_loop(
        &queue,
        &requests.list,
        (OPEN_RATE_QPS, cfg.sub_seed(3)),
        (cfg.warmup(), cfg.timed()),
        &processes,
    );
    let after = service.metrics();
    let invalid = run.invalid_reason();
    let lateness = stats::Sample::new(run.lateness_ms.as_slice());
    let mut report = end_to_end(&SPEC, cfg, &corpus, &requests, run.window, setup_s);
    if let Some(reason) = invalid {
        report.invalid(reason);
    }
    if after.plan_cache_misses != before.plan_cache_misses {
        report.invalid("a plan was built inside the timed window (plan-cache hit rate < 1.0)");
    }
    report.note("open_rate_qps", OPEN_RATE_QPS);
    report.note("gen_lateness_ms_p99", lateness.percentile(0.99));
    report.note("gen_lateness_ms_p50", lateness.percentile(0.5));
    report.note("gen_lateness_ms_max", lateness.max());
    Ok(report)
}
