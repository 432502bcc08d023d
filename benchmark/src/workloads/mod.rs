//! The four workloads and what they share: the run configuration, the
//! timed-window bookkeeping, the answer check and the end-to-end metric
//! arithmetic.

pub mod batch_job;
pub mod serve_local;
pub mod serve_open;
pub mod serve_remote;

use crate::corpus::{oracle, oracle_self_check, same_results, Corpus, Requests};
use crate::procstat::ProcessSet;
use crate::report::{Counts, Metric, WorkloadReport};
use criterion::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spq::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A workload's name and the one-line reason it exists (`BENCHMARK.json`
/// carries the same two strings).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The workloads, in report order.
pub const WORKLOADS: [Spec; 4] = [
    serve_local::SPEC,
    serve_open::SPEC,
    serve_remote::SPEC,
    batch_job::SPEC,
];

/// Length of one slice of the timed window. Every end-to-end time and
/// rate is computed per slice; times are reported over the window's
/// **quiet quarter** ([`quiet_quarter`]), the rate as the median slice:
/// on shared cores the machine's speed swings by ±25 % from one second to
/// the next, and a statistic over the whole window averages the slow
/// seconds in.
pub const SLICE: Duration = Duration::from_secs(1);

/// The tail percentile behind `latency_p95_ms`, taken per slice like the
/// median. Not the 99th: the slowest workload answers 600 requests in a
/// window, a p99 rests on the six slowest of them, and between runs of
/// one commit it spread past any bound, over the whole window or over
/// 5-second slices (README, "End-to-end metrics"). Of a 30-request slice
/// the 95th percentile is the value between the 2nd and 3rd slowest.
pub const TAIL: f64 = 0.95;

/// Fewest cold set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_REPEATS_MIN: usize = 3;
/// Most cold set-ups per run.
pub const SETUP_REPEATS_MAX: usize = 15;
/// Cheap set-ups are repeated (up to the maximum) until this much time
/// has been spent on them, so a 25 ms set-up is a median of fifteen
/// builds, not of three.
pub const SETUP_BUDGET_S: f64 = 1.5;

/// Other (non-hotspot) responses recomputed by the oracle per window.
pub const ORACLE_SAMPLE: usize = 200;

/// Everything a run is parameterised by. Only `seed` shapes the inputs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed (corpora, request streams, arrival schedule, oracle
    /// sample). Never shown to the program under test.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Host cores; client threads and per-job workers are sized by it.
    pub nproc: usize,
    /// Objects in the uniform corpus (120k unless a smoke run shrinks it).
    pub uniform_objects: usize,
    /// Objects in the clustered corpus (60k unless shrunk).
    pub clustered_objects: usize,
    /// The freshly built `spq-worker`.
    pub worker_bin: PathBuf,
    /// Where result and trace files go (inside the checkout).
    pub out_dir: PathBuf,
    /// Debug hook: flip one bit of one answer before checking it, to
    /// prove a wrong answer fails the run.
    pub corrupt_one_answer: bool,
}

impl RunConfig {
    /// Discarded warm-up before the timed window: a fifth of it, at most
    /// two seconds.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(2.0))
    }

    /// The timed window as a [`Duration`].
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A sub-seed for one purpose, so streams that must differ do.
    pub fn sub_seed(&self, purpose: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(purpose)
    }
}

/// Why an operation produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Refused at the admission cap.
    Rejected,
    /// Shed past its deadline.
    Shed,
    /// Any other error.
    Error(String),
}

impl From<SpqError> for Failure {
    fn from(e: SpqError) -> Self {
        match e {
            SpqError::Overloaded { .. } => Failure::Rejected,
            SpqError::DeadlineExceeded { .. } => Failure::Shed,
            other => Failure::Error(other.to_string()),
        }
    }
}

/// One operation of a timed window.
#[derive(Debug)]
pub struct Sample {
    /// Index into the workload's query list.
    pub query: usize,
    /// When the operation ended, in seconds since the window started —
    /// which slice it belongs to.
    pub done_s: f64,
    /// Client-observed latency.
    pub latency_ms: f64,
    /// The engine's own wall time for the request
    /// (`QueryStats::wall_micros`); latency minus this is queue wait.
    /// Zero when there is no typed response.
    pub engine_ms: f64,
    /// The answer, or why there is none.
    pub outcome: Result<Vec<RankedObject>, Failure>,
}

impl Sample {
    /// A sample from a typed response (or the error it ended in).
    pub fn from_response(
        query: usize,
        done_s: f64,
        latency_ms: f64,
        response: Result<QueryResponse, SpqError>,
    ) -> Self {
        Self {
            query,
            done_s,
            latency_ms,
            engine_ms: response
                .as_ref()
                .map_or(0.0, |r| r.stats.wall_micros as f64 / 1e3),
            outcome: response.map(|r| r.results).map_err(Failure::from),
        }
    }
}

/// CPU readings at the slice boundaries of a timed window, taken by
/// whichever harness thread drives the window.
#[derive(Debug)]
pub struct SliceClock<'a> {
    processes: &'a ProcessSet,
    start: Instant,
    end: Instant,
    /// `(seconds since window start, cumulative CPU ms)` per boundary.
    marks: Vec<(f64, f64)>,
}

impl<'a> SliceClock<'a> {
    /// A clock for the window `[start, start + timed)`; nothing is read
    /// until the window starts.
    pub fn new(processes: &'a ProcessSet, start: Instant, timed: Duration) -> Self {
        Self {
            processes,
            start,
            end: start + timed,
            marks: Vec::new(),
        }
    }

    /// When the window starts.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// When the window ends.
    pub fn end(&self) -> Instant {
        self.end
    }

    /// When the next boundary is due.
    pub fn next_due(&self) -> Instant {
        self.start + SLICE * self.marks.len() as u32
    }

    /// Reads the CPU clock if a boundary inside the window is due. Call
    /// it often; a late call just makes that slice a little longer (the
    /// actual time is what is recorded).
    pub fn poll(&mut self) {
        let now = Instant::now();
        if now >= self.next_due() && self.next_due() <= self.end {
            self.marks
                .push(((now - self.start).as_secs_f64(), self.processes.cpu_ms()));
        }
    }

    /// Sleeps through the window, reading the clock at every boundary.
    pub fn sleep_through(&mut self) {
        while self.next_due() <= self.end {
            sleep_until(self.next_due());
            self.poll();
        }
    }

    /// Closes the clock into the window it timed.
    pub fn finish(self, samples: Vec<Sample>) -> Window {
        Window {
            samples,
            marks: self.marks,
            peak_rss_mb: self.processes.peak_rss_mb(),
        }
    }
}

/// What one timed window produced.
#[derive(Debug)]
pub struct Window {
    /// Operations that ended (or were refused) inside the window.
    pub samples: Vec<Sample>,
    /// `(seconds since window start, cumulative CPU ms of the harness and
    /// its workers)` at each slice boundary.
    pub marks: Vec<(f64, f64)>,
    /// Summed peak resident set of the harness and its workers when the
    /// window closed — before the oracle allocates anything.
    pub peak_rss_mb: f64,
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Runs `build` from cold [`SETUP_REPEATS_MIN`]..=[`SETUP_REPEATS_MAX`]
/// times (see [`SETUP_BUDGET_S`]), dropping each result before the next
/// build so the repeats share no state, and returns the last build with
/// the median build time. `build` also returns the seconds it lost to
/// attempts that failed and were retried (see
/// [`serve_remote::RemoteStack::build`]); they are not set-up time.
pub fn timed_setups<T>(
    mut build: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let (built, lost_s) = build()?;
        times.push(started.elapsed().as_secs_f64() - lost_s);
        let enough =
            times.len() >= SETUP_REPEATS_MIN && times.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if enough || times.len() >= SETUP_REPEATS_MAX {
            return Ok((built, stats::Sample::new(times).percentile(0.5)));
        }
    }
}

/// Executes one request per radius class so the timed window runs at
/// plan-cache hit rate 1.0.
pub fn warm_plans(service: &impl QueryExecutor, warmers: &[QueryRequest]) -> Result<(), String> {
    for request in warmers {
        service
            .execute(request)
            .map_err(|e| format!("warm-up query failed: {e}"))?;
    }
    Ok(())
}

/// Recomputes answers with the centralized oracle: **every** hotspot
/// answer plus a seeded sample of [`ORACLE_SAMPLE`] others. Returns, per
/// sample, whether it was found wrong (unchecked samples are `false`),
/// and how many were checked.
fn wrong_answers(
    corpus: &Corpus,
    requests: &Requests,
    samples: &[Sample],
    cfg: &RunConfig,
) -> (Vec<bool>, usize) {
    let answered = (0..samples.len()).filter(|&i| samples[i].outcome.is_ok());
    let (mut selected, mut cold): (Vec<usize>, Vec<usize>) =
        answered.partition(|&i| requests.hot[samples[i].query]);
    let mut rng = StdRng::seed_from_u64(cfg.sub_seed(0x0c1e));
    for taken in 0..ORACLE_SAMPLE.min(cold.len()) {
        let pick = rng.gen_range(taken..cold.len());
        cold.swap(taken, pick);
        selected.push(cold[taken]);
    }

    // Hotspots recur, so answers are checked against one oracle result
    // per *distinct* query.
    let mut distinct: Vec<&SpqQuery> = Vec::new();
    let keyed: Vec<(usize, usize)> = selected
        .iter()
        .map(|&i| {
            let query = &requests.list[samples[i].query].query;
            let key = distinct
                .iter()
                .position(|q| *q == query)
                .unwrap_or_else(|| {
                    distinct.push(query);
                    distinct.len() - 1
                });
            (i, key)
        })
        .collect();
    let truths = spq::mapreduce::pool::run_tasks(cfg.nproc.max(1), distinct.len(), |d| {
        oracle(corpus, distinct[d])
    })
    .expect("the oracle does not panic");

    let mut wrong = vec![false; samples.len()];
    for (n, (i, key)) in keyed.into_iter().enumerate() {
        let answer = samples[i].outcome.as_ref().expect("selected from answered");
        wrong[i] = if cfg.corrupt_one_answer && n == 0 {
            !same_results(&corrupted(answer), &truths[key])
        } else {
            !same_results(answer, &truths[key])
        };
    }
    (wrong, selected.len())
}

/// The debug hook's corruption: one score bit of the first result (or a
/// phantom result when the answer is empty).
fn corrupted(answer: &[RankedObject]) -> Vec<RankedObject> {
    let mut answer = answer.to_vec();
    match answer.first_mut() {
        Some(first) => {
            first.score = Score::from_f64(f64::from_bits(first.score.value().to_bits() ^ 1));
        }
        None => answer.push(RankedObject::new(
            u64::MAX,
            Point::new(0.0, 0.0),
            Score::ONE,
        )),
    }
    answer
}

/// Per-slice end-to-end statistics of a window: one value per full slice
/// that saw at least one correct answer.
#[derive(Debug, Default)]
pub struct Slices {
    /// Median latency of each slice.
    pub p50_ms: Vec<f64>,
    /// [`TAIL`]-percentile latency of each slice.
    pub p95_ms: Vec<f64>,
    /// Correct answers per second of each slice.
    pub qps: Vec<f64>,
    /// CPU per correct answer of each slice.
    pub cpu_ms_per_query: Vec<f64>,
    /// Correct answers inside each slice.
    pub samples: Vec<usize>,
}

/// Latencies of the correct answers that ended in `[from, to)`.
fn latencies_between(window: &Window, correct: &[bool], from: f64, to: f64) -> stats::Sample {
    let latencies: Vec<f64> = window
        .samples
        .iter()
        .zip(correct)
        .filter(|(s, ok)| **ok && s.done_s >= from && s.done_s < to)
        .map(|(s, _)| s.latency_ms)
        .collect();
    stats::Sample::new(latencies)
}

/// What the slices of a window say together about a time: the median of
/// the lowest quarter of `values` (at least one). Interference on a
/// shared host is one-sided — a busy neighbour or a descheduled vCPU
/// only ever adds time — so the quiet quarter is the steadiest estimate
/// of what the program itself does: between runs it spreads half as much
/// as the median slice for tails and for the open loop (README, "Repeat
/// data"). Of twenty slices it is the third lowest. Returned with it:
/// the requests inside those slices
/// (`samples[i]` of them in slice `i`) — the sample count the value
/// rests on.
pub fn quiet_quarter(values: &[f64], samples: &[usize]) -> (f64, usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order.truncate((values.len() / 4).max(1));
    let quiet: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    (
        stats::Sample::new(quiet).percentile(0.5),
        order.iter().map(|&i| samples[i]).sum(),
    )
}

/// Cuts `window` at its marks; `correct[i]` says whether sample `i` counts.
pub fn slice_statistics(window: &Window, correct: &[bool]) -> Slices {
    let mut slices = Slices::default();
    for pair in window.marks.windows(2) {
        let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
        let latencies = latencies_between(window, correct, from, to);
        if latencies.is_empty() {
            continue;
        }
        slices.p50_ms.push(latencies.percentile(0.50));
        slices.p95_ms.push(latencies.percentile(TAIL));
        slices.qps.push(latencies.len() as f64 / (to - from));
        slices
            .cpu_ms_per_query
            .push((cpu_to - cpu_from) / latencies.len() as f64);
        slices.samples.push(latencies.len());
    }
    slices
}

/// Checks a window's answers and turns it into the end-to-end report.
pub fn end_to_end(
    spec: &Spec,
    cfg: &RunConfig,
    corpus: &Corpus,
    requests: &Requests,
    window: Window,
    setup_s: f64,
) -> WorkloadReport {
    let name = spec.name;
    let (wrong, checked) = wrong_answers(corpus, requests, &window.samples, cfg);
    let oracle_disagreements =
        oracle_self_check(corpus, &requests.list[..requests.list.len().min(8)]);

    let mut counts = Counts {
        attempted: window.samples.len() as u64,
        checked: checked as u64,
        // A broken oracle invalidates every comparison made against it.
        failed: oracle_disagreements as u64,
        ..Counts::default()
    };
    let mut correct = vec![false; window.samples.len()];
    for (i, sample) in window.samples.iter().enumerate() {
        match &sample.outcome {
            Ok(_) if wrong[i] => counts.failed += 1,
            Ok(_) => {
                counts.succeeded += 1;
                correct[i] = true;
            }
            Err(Failure::Rejected) => counts.rejected += 1,
            Err(Failure::Shed) => counts.shed += 1,
            Err(Failure::Error(message)) => {
                eprintln!("[{name}] operation failed: {message}");
                counts.failed += 1;
            }
        }
    }

    let slices = slice_statistics(&window, &correct);
    let mut report = WorkloadReport::new(spec.name, spec.why, counts);
    if slices.p50_ms.is_empty() {
        report.invalid("no full slice of the timed window saw a correct answer");
        return report;
    }
    report.samples = counts.succeeded;
    let quiet = |name, values: &[f64], samples: &[usize]| {
        let (value, n) = quiet_quarter(values, samples);
        Metric::over(name, value, "ms", n)
    };
    report.push(quiet("latency_p50_ms", &slices.p50_ms, &slices.samples));
    report.push(quiet("latency_p95_ms", &slices.p95_ms, &slices.samples));
    // The median slice, not the quiet quarter: the "best" seconds of an
    // open loop are the ones in which most requests happened to arrive.
    report.push(Metric::over(
        "throughput_qps",
        stats::Sample::new(slices.qps.as_slice()).percentile(0.5),
        "1/s",
        slices.samples.iter().sum(),
    ));
    report.push(quiet(
        "cpu_ms_per_query",
        &slices.cpu_ms_per_query,
        &slices.samples,
    ));
    report.push(Metric::new("peak_rss_mb", window.peak_rss_mb, "MB"));
    report.push(Metric::new("setup_s", setup_s, "s"));

    // For the reader, not gated: the same percentiles over the whole
    // window, and every slice's value.
    let all = latencies_between(&window, &correct, f64::NEG_INFINITY, f64::INFINITY);
    let list = |values: &[f64]| {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        items.join(" ")
    };
    report.note("corpus", corpus.describe());
    report.note("slice_seconds", SLICE.as_secs_f64());
    report.note("window_latency_p50_ms", all.percentile(0.50));
    report.note("window_latency_p95_ms", all.percentile(TAIL));
    report.note("window_latency_p99_ms", all.percentile(0.99));
    report.note("slice_latency_p50_ms", list(&slices.p50_ms));
    report.note("slice_latency_p95_ms", list(&slices.p95_ms));
    report.note("slice_throughput_qps", list(&slices.qps));
    report.note("slice_cpu_ms_per_query", list(&slices.cpu_ms_per_query));
    report
}
