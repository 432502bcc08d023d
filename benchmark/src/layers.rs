//! The `--trace 1` run: per-layer metrics from harness-side spans.
//!
//! A traced run replays a fixed number of the workload's own requests
//! **single-threaded** through each layer's public functions, wrapping
//! every call in a [`Span`]. Times therefore exclude contention — they
//! say where an uncontended request's time goes; the untraced run says
//! what a client sees under load. Counts (`candidates_mean`,
//! `shuffle_records_mean`, …) come from the program's public
//! `QueryStats` / `JobStats` / `AdmissionSnapshot` outputs and repeat
//! exactly for a given seed and `--seconds`.
//!
//! Every workload's traced run emits **every** per-layer metric: a layer
//! the workload does not cross (say `remote.*` for `serve-local`) is
//! still profiled on that workload's corpus and request stream, so any
//! two traced runs of one workload compare like for like. `README.md`
//! says which layer metric should move which end-to-end metric where.
//!
//! Spans named `engine.run` inside `serve.tick`, and every
//! `mapreduce.*` span, are **program-reported**: their durations come
//! from `QueryStats::wall_micros` and the `JobStats` phase walls
//! (`with_trace()`), placed inside the harness-measured parent. They are
//! the only numbers here the program measures about itself.

use crate::corpus::{oracle, same_results, Corpus, Requests};
use crate::procstat::ProcessSet;
use crate::report::{quote, Counts, Metric, WorkloadReport};
use crate::spans::{self_times_ns, Span, SpanId, Tracer};
use crate::workloads::batch_job::{batch_inputs, executors};
use crate::workloads::serve_local::{caller_pumped, serving_inputs};
use crate::workloads::serve_open::{open_loop, open_loop_config, serve_workers, OPEN_RATE_QPS};
use crate::workloads::serve_remote::{ProvisionLog, RemoteStack};
use crate::workloads::{warm_plans, RunConfig, Spec};
use criterion::stats::Sample;
use spq::core::partitioning::{
    COUNTER_MAP_DUPLICATES, COUNTER_REDUCE_EARLY_TERMINATIONS, COUNTER_REDUCE_FEATURES_EXAMINED,
};
use spq::core::sharded::wire;
use spq::core::{merge::merge_top_k, CellRouting};
use spq::mapreduce::job::COUNTER_REDUCE_SKIPPED;
use spq::mapreduce::remote::frame::HEADER_LEN;
use spq::mapreduce::remote::{
    read_frame, write_frame, ClientConfig, WorkerClient, OP_SHARD_RESULT,
};
use spq::mapreduce::JobStats;
use spq::prelude::*;
use std::collections::HashMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests replayed per layer: 10 per second of `--seconds`, within
/// 20..=200 (200 at the default 20 s) — what fits beside the set-ups in
/// the time one run may take.
pub fn trace_requests(seconds: f64) -> usize {
    ((seconds * 10.0) as usize).clamp(20, 200)
}

/// Shards of the in-process sharded engine the remote layer is paired
/// against (the remote engine has one shard per worker).
const SHARDS: usize = crate::workloads::serve_remote::WORKERS;
/// Requests whose per-shard results feed the codec spans.
const CODEC_REQUESTS: usize = 40;
/// Ping round trips and frame round trips measured.
const WIRE_REPEATS: usize = 200;
/// Objects in the dump the data layer writes and ingests.
const INGEST_OBJECTS: usize = 20_000;
/// Answers per traced run recomputed by the centralized oracle.
const ORACLE_CHECKS: usize = 32;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Correctness bookkeeping of a traced run: every answer any layer
/// returns is compared with the local engine's answer to the same
/// request, and a sample of those with the oracle.
#[derive(Debug, Default)]
struct Checks {
    counts: Counts,
}

impl Checks {
    fn answer(&mut self, layer: &str, got: Result<&[RankedObject], String>, want: &[RankedObject]) {
        self.counts.attempted += 1;
        self.counts.checked += 1;
        match got {
            Ok(results) if same_results(results, want) => self.counts.succeeded += 1,
            Ok(_) => {
                eprintln!("[trace] {layer}: answer differs from the local engine's");
                self.counts.failed += 1;
            }
            Err(message) => {
                eprintln!("[trace] {layer}: {message}");
                self.counts.failed += 1;
            }
        }
    }
}

/// Per-job samples taken from program-reported [`JobStats`].
#[derive(Debug, Default)]
struct JobSamples {
    map_ms: Vec<f64>,
    shuffle_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    map_input_records: Vec<f64>,
    shuffle_records: Vec<f64>,
    shuffle_bytes: Vec<f64>,
    reduce_skew: Vec<f64>,
}

impl JobSamples {
    fn add(&mut self, job: &JobStats, shuffle_bytes: u64) {
        self.map_ms.push(ms(job.map_wall));
        self.shuffle_ms.push(ms(job.shuffle_wall));
        self.reduce_ms.push(ms(job.reduce_wall));
        self.map_input_records.push(job.map_input_records() as f64);
        self.shuffle_records.push(job.shuffle_records as f64);
        self.shuffle_bytes.push(shuffle_bytes as f64);
        self.reduce_skew.push(job.reduce_skew());
    }
}

/// Places a job's program-reported phase walls as child spans at the
/// end of `parent` (the job is the last thing its caller does).
fn push_job_spans(tracer: &mut Tracer, parent: SpanId, request_id: u64, job: &JobStats) {
    let (parent_start, parent_end) = {
        let p = &tracer.spans()[parent];
        (p.start_ns, p.end_ns)
    };
    let phases = [
        ("mapreduce.map", job.map_wall),
        ("mapreduce.shuffle", job.shuffle_wall),
        ("mapreduce.reduce", job.reduce_wall),
    ];
    let total: u64 = phases.iter().map(|(_, d)| d.as_nanos() as u64).sum();
    let mut at = parent_end.saturating_sub(total).max(parent_start);
    for (name, wall) in phases {
        let end = (at + wall.as_nanos() as u64).min(parent_end);
        tracer.push(Span {
            name,
            start_ns: at,
            end_ns: end,
            parent: Some(parent),
            request_id,
        });
        at = end;
    }
}

/// A scratch directory inside the checkout, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &Path) -> Result<Self, String> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `data.ingest_objects_per_s`: write a deterministic dump, load it back.
fn ingest_rate(cfg: &RunConfig, objects: usize) -> Result<f64, String> {
    let scratch = ScratchDir::create(&cfg.out_dir)?;
    let (data, features) = (scratch.0.join("data.tsv"), scratch.0.join("features.tsv"));
    let dump = DumpConfig {
        objects,
        seed: cfg.seed,
    };
    synthesize_dump(&dump, &data, &features).map_err(|e| format!("cannot write the dump: {e}"))?;
    let started = Instant::now();
    let ingested = ingest_files(&data, &features, &IngestOptions::default())
        .map_err(|e| format!("cannot ingest the dump: {e}"))?;
    Ok(ingested.objects() as f64 / started.elapsed().as_secs_f64())
}

/// What the engine layer's replay measured.
struct EngineLayer {
    engine: QueryEngine,
    build_s: f64,
    plan_build_ms: Vec<f64>,
    candidates: Vec<f64>,
    query_ms: Vec<f64>,
    plan_hit_rate: f64,
    /// The local engine's answer per replayed request — the reference
    /// every other layer's answer is compared with.
    reference: Vec<Vec<RankedObject>>,
}

fn engine_layer(
    corpus: &Corpus,
    requests: &Requests,
    n: usize,
    tracer: &mut Tracer,
    jobs: &mut JobSamples,
    checks: &mut Checks,
) -> Result<EngineLayer, String> {
    let executor = corpus.executor(1);
    let mut build_times = Vec::new();
    let mut engine = None;
    for _ in 0..3 {
        drop(engine.take());
        let started = Instant::now();
        engine = Some(QueryEngine::new(executor.clone(), corpus.shared.clone()));
        build_times.push(started.elapsed().as_secs_f64());
    }
    let engine = engine.expect("built three times");

    // A cold plan per radius class, built the way the engine builds it.
    let splits = corpus.shared.ref_splits(8);
    let plan_build_ms = requests
        .warmers()
        .iter()
        .map(|warmer| {
            let started = Instant::now();
            let partition = executor.plan_partition_shared(&warmer.query, &corpus.shared, &splits);
            let routing = CellRouting::build(&partition, &corpus.shared, warmer.query.radius);
            std::hint::black_box(&routing);
            ms(started.elapsed())
        })
        .collect();
    warm_plans(&engine, &requests.warmers())?;

    let before = engine.metrics();
    let mut candidates = Vec::with_capacity(n);
    let mut query_ms = Vec::with_capacity(n);
    let mut reference = Vec::with_capacity(n);
    for (i, request) in requests.list.iter().take(n).enumerate() {
        let id = i as u64;
        tracer.record("service.validate", id, None, || {
            std::hint::black_box(request.validate()).is_ok()
        });
        let (_, found) = tracer.record("engine.probe", id, None, || {
            engine
                .keyword_index()
                .candidates(&request.query.keywords)
                .len()
        });
        candidates.push(found as f64);
        let traced = request.clone().with_trace();
        let (span, response) = tracer.record("engine.query", id, None, || {
            engine.execute_sequential(&traced)
        });
        let response = response.map_err(|e| format!("engine.query failed: {e}"))?;
        query_ms.push(tracer.span_ms(span));
        if let Some(job) = response.trace.as_ref().and_then(|t| t.first()) {
            push_job_spans(tracer, span, id, job);
            jobs.add(job, response.stats.shuffle_bytes);
        }
        reference.push(response.results);
    }
    let after = engine.metrics();
    let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
    let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;

    // The reference itself is checked against the centralized oracle.
    let truths = spq::mapreduce::pool::run_tasks(2, ORACLE_CHECKS.min(n), |i| {
        oracle(corpus, &requests.list[i].query)
    })
    .expect("the oracle does not panic");
    for (i, truth) in truths.iter().enumerate() {
        checks.answer("engine.query vs oracle", Ok(&reference[i]), truth);
    }

    Ok(EngineLayer {
        engine,
        build_s: Sample::new(build_times).percentile(0.5),
        plan_build_ms,
        candidates,
        query_ms,
        plan_hit_rate: hits / (hits + misses).max(1.0),
        reference,
    })
}

/// The p50 of `values` restricted to the requests whose candidate count
/// lies in the given quartile (`false` = bottom, `true` = top).
fn quartile_p50(values: &[f64], candidates: &[f64], top: bool) -> f64 {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| candidates[a].total_cmp(&candidates[b]).then(a.cmp(&b)));
    let quarter = (order.len() / 4).max(1);
    let chosen = if top {
        &order[order.len() - quarter..]
    } else {
        &order[..quarter]
    };
    Sample::new(chosen.iter().map(|&i| values[i]).collect::<Vec<_>>()).percentile(0.5)
}

/// What the serve layer's replay or window measured.
#[derive(Default)]
struct ServeLayer {
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    batch_size_mean: f64,
    queue_depth_max: f64,
    rejected_rate: f64,
    shed_rate: f64,
    trace_overhead_pct: f64,
    self_time_coverage_pct: f64,
    gen_lateness_ms: Vec<f64>,
}

impl ServeLayer {
    fn admission(&mut self, snapshot: &AdmissionSnapshot) {
        let submitted = snapshot.submitted.max(1) as f64;
        self.batch_size_mean = snapshot.executed as f64 / snapshot.coalesced_batches.max(1) as f64;
        self.queue_depth_max = snapshot.queue_depth_watermark as f64;
        self.rejected_rate = snapshot.rejected_overload as f64 / submitted;
        self.shed_rate = snapshot.shed_deadline as f64 / submitted;
    }
}

/// The closed, caller-pumped shape of `serve-local` and `serve-remote`,
/// one client, every request both traced and untraced (to price the
/// tracing).
fn serve_closed(
    service: &SpqService,
    requests: &Requests,
    n: usize,
    reference: &[Vec<RankedObject>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<ServeLayer, String> {
    let queue = AdmissionQueue::new(service, caller_pumped()).map_err(|e| e.to_string())?;
    let untraced = |request: &QueryRequest| -> Result<f64, String> {
        let started = Instant::now();
        let ticket = queue.submit(request.clone()).map_err(|e| e.to_string())?;
        queue.tick();
        ticket.wait().map_err(|e| e.to_string())?;
        Ok(ms(started.elapsed()))
    };

    let mut layer = ServeLayer::default();
    let mut untraced_ms = Vec::with_capacity(n);
    let mut traced_ms = Vec::with_capacity(n);
    let mut roots = Vec::with_capacity(n);
    for (i, request) in requests.list.iter().take(n).enumerate() {
        // Each request runs once untraced and once traced, back to back
        // on the same machine state; which goes first alternates, so
        // neither side always finds the caches warm.
        let untraced_first = i % 2 == 0;
        if untraced_first {
            untraced_ms.push(untraced(request)?);
        }
        let id = i as u64;
        let traced = request.clone().with_trace();
        let root = tracer.open("request", id, None);
        let (submit, ticket) =
            tracer.record("serve.submit", id, Some(root), || queue.submit(traced));
        let ticket = ticket.map_err(|e| e.to_string())?;
        let (tick, _) = tracer.record("serve.tick", id, Some(root), || queue.tick());
        let (_, response) = tracer.record("serve.wait", id, Some(root), || ticket.wait());
        tracer.close(root);
        roots.push(root);

        let (submit_ns, latency_ms, tick_start, tick_end) = {
            let spans = tracer.spans();
            (
                spans[submit].duration_ns(),
                spans[root].duration_ns() as f64 / 1e6,
                spans[tick].start_ns,
                spans[tick].end_ns,
            )
        };
        layer.submit_us.push(submit_ns as f64 / 1e3);
        traced_ms.push(latency_ms);
        match response {
            Ok(response) => {
                let engine_ns = response.stats.wall_micros * 1_000;
                layer
                    .queue_wait_ms
                    .push((latency_ms - engine_ns as f64 / 1e6).max(0.0));
                // Program-reported: the engine's own wall inside the pump.
                let run = tracer.push(Span {
                    name: "engine.run",
                    start_ns: tick_end.saturating_sub(engine_ns).max(tick_start),
                    end_ns: tick_end,
                    parent: Some(tick),
                    request_id: id,
                });
                // One job per shard on scatter/gather backends; their
                // walls overlap, so only a single job is decomposed.
                if let Some([job]) = response.trace.as_deref() {
                    push_job_spans(tracer, run, id, job);
                }
                checks.answer("serve (closed)", Ok(&response.results), &reference[i]);
            }
            Err(e) => checks.answer("serve (closed)", Err(e.to_string()), &reference[i]),
        }
        if !untraced_first {
            untraced_ms.push(untraced(request)?);
        }
    }
    layer.admission(&queue.stats());
    let untraced = Sample::new(untraced_ms).percentile(0.5);
    let traced = Sample::new(traced_ms).percentile(0.5);
    layer.trace_overhead_pct = (traced - untraced) / untraced * 100.0;

    // How much of a traced request is attributed to a layer: the self
    // times of everything below the `request` roots over the roots'
    // durations. The remainder is harness glue between the calls.
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut is_root = vec![false; spans.len()];
    for &root in &roots {
        is_root[root] = true;
    }
    let root_of = |mut i: SpanId| {
        while let Some(parent) = spans[i].parent {
            i = parent;
        }
        i
    };
    let attributed: u64 = (0..spans.len())
        .filter(|&i| !is_root[i] && is_root[root_of(i)])
        .map(|i| self_ns[i])
        .sum();
    let total: u64 = roots.iter().map(|&r| spans[r].duration_ns()).sum();
    layer.self_time_coverage_pct = attributed as f64 / total.max(1) as f64 * 100.0;
    Ok(layer)
}

/// The open-loop shape of `serve-open`, for as long as `n` arrivals take
/// at the fixed rate.
fn serve_open_window(
    cfg: &RunConfig,
    corpus: &Corpus,
    requests: &Requests,
    n: usize,
    checks: &mut Checks,
) -> Result<ServeLayer, String> {
    let service = SpqService::build(
        corpus.executor(serve_workers(cfg.nproc)),
        corpus.shared.clone(),
        Backend::Local,
    )
    .map_err(|e| e.to_string())?;
    warm_plans(&service, &requests.warmers())?;
    let queue = AdmissionQueue::new(&service, open_loop_config()).map_err(|e| e.to_string())?;
    let timed = Duration::from_secs_f64(n as f64 / OPEN_RATE_QPS);
    let run = open_loop(
        &queue,
        &requests.list,
        (OPEN_RATE_QPS, cfg.sub_seed(3)),
        (timed / 5, timed),
        &ProcessSet::with_children(&[]),
    );
    let samples = &run.window.samples;
    let truths = spq::mapreduce::pool::run_tasks(cfg.nproc.max(1), samples.len(), |s| {
        oracle(corpus, &requests.list[samples[s].query].query)
    })
    .expect("the oracle does not panic");
    let mut layer = ServeLayer::default();
    for (sample, want) in samples.iter().zip(&truths) {
        match &sample.outcome {
            Ok(results) => {
                layer
                    .queue_wait_ms
                    .push((sample.latency_ms - sample.engine_ms).max(0.0));
                checks.answer("serve (open)", Ok(results), want);
            }
            Err(failure) => checks.answer("serve (open)", Err(format!("{failure:?}")), want),
        }
    }
    layer.admission(&queue.stats());
    layer.gen_lateness_ms = run.lateness_ms;
    Ok(layer)
}

/// What the two scatter/gather layers' replays measured.
struct DistributionLayers {
    /// The remote service and its workers, kept for the serve replay.
    stack: RemoteStack,
    sharded_query_ms: Vec<f64>,
    gather_bytes: Vec<f64>,
    remote_query_ms: Vec<f64>,
    provision_s: f64,
    provision_bytes: f64,
    provisioning: ProvisionLog,
    frame_bytes_per_query: f64,
    retries: f64,
}

/// Replays the requests through `sharded:2` (in process) and `remote:2`
/// (real workers) **back to back per request**, so the paired difference
/// `remote − sharded` is the price of frames and sockets alone: both
/// run the same two shard jobs one after the other (scatter width 1),
/// within a few milliseconds of each other on the same machine state.
fn distribution_layers(
    cfg: &RunConfig,
    corpus: &Corpus,
    requests: &Requests,
    n: usize,
    reference: &[Vec<RankedObject>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<DistributionLayers, String> {
    let sharded = ShardedEngine::new(corpus.executor(1), corpus.shared.clone(), SHARDS)
        .map_err(|e| e.to_string())?;
    warm_plans(&sharded, &requests.warmers())?;

    let started = Instant::now();
    let mut provisioning = ProvisionLog::default();
    let stack = RemoteStack::build(&cfg.worker_bin, corpus, &mut provisioning)?;
    let provision_s = started.elapsed().as_secs_f64() - provisioning.lost_s;
    let traffic = |stack: &RemoteStack| stack.service.remote_traffic_bytes().unwrap_or(0);
    let provision_bytes = traffic(&stack) as f64;
    warm_plans(&stack.service, &requests.warmers())?;

    let bytes_before = traffic(&stack);
    let retries_before = stack.service.remote_retries().unwrap_or(0);
    let mut layers = DistributionLayers {
        sharded_query_ms: Vec::with_capacity(n),
        gather_bytes: Vec::with_capacity(n),
        remote_query_ms: Vec::with_capacity(n),
        provision_s,
        provision_bytes,
        provisioning,
        frame_bytes_per_query: 0.0,
        retries: 0.0,
        stack,
    };
    for (i, request) in requests.list.iter().take(n).enumerate() {
        let id = i as u64;
        let (span, response) = tracer.record("sharded.query", id, None, || {
            sharded.execute_sequential(request)
        });
        layers.sharded_query_ms.push(tracer.span_ms(span));
        match response {
            Ok(response) => {
                layers
                    .gather_bytes
                    .push(response.stats.shuffle_bytes as f64);
                checks.answer("sharded.query", Ok(&response.results), &reference[i]);
            }
            Err(e) => checks.answer("sharded.query", Err(e.to_string()), &reference[i]),
        }
        let (span, response) = tracer.record("remote.query", id, None, || {
            layers.stack.service.execute_sequential(request)
        });
        layers.remote_query_ms.push(tracer.span_ms(span));
        match response {
            Ok(response) => checks.answer("remote.query", Ok(&response.results), &reference[i]),
            Err(e) => checks.answer("remote.query", Err(e.to_string()), &reference[i]),
        }
    }
    layers.frame_bytes_per_query = (traffic(&layers.stack) - bytes_before) as f64 / n as f64;
    layers.retries = (layers.stack.service.remote_retries().unwrap_or(0) - retries_before) as f64;
    Ok(layers)
}

/// `sharded.encode` / `decode` / `merge` spans on real per-shard
/// results: the same contiguous data slices the sharded engine cuts,
/// one engine each.
fn codec_spans(
    corpus: &Corpus,
    requests: &Requests,
    n: usize,
    reference: &[Vec<RankedObject>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<(), String> {
    let data = corpus.shared.data();
    let id_to_index: HashMap<u64, u32> = data
        .iter()
        .enumerate()
        .map(|(i, object)| (object.id, i as u32))
        .collect();
    let shards: Vec<QueryEngine> = (0..SHARDS)
        .map(|s| {
            let slice = &data[s * data.len() / SHARDS..(s + 1) * data.len() / SHARDS];
            let dataset =
                SharedDataset::with_shared_features(slice.to_vec(), corpus.shared.features_arc());
            QueryEngine::new(corpus.executor(1), dataset)
        })
        .collect();
    for (i, request) in requests.list.iter().take(n).enumerate() {
        let id = i as u64;
        let mut gathered = Vec::new();
        for shard in &shards {
            let local = shard
                .execute_sequential(request)
                .map_err(|e| format!("shard query failed: {e}"))?
                .results;
            let (_, bytes) = tracer.record("sharded.encode", id, None, || {
                wire::encode_results(&local, &id_to_index)
            });
            let (_, decoded) = tracer.record("sharded.decode", id, None, || {
                wire::decode_results(&bytes, data)
            });
            gathered.extend(decoded);
        }
        let (_, merged) = tracer.record("sharded.merge", id, None, || {
            merge_top_k(gathered, request.query.k)
        });
        checks.answer("sharded codec+merge", Ok(&merged), &reference[i]);
    }
    Ok(())
}

/// `remote.ping` and `remote.frame_codec` spans: the floor of the
/// distribution overhead (one empty round trip to a live worker) and
/// one frame written and read back through memory at `payload_len`.
fn wire_spans(worker_addr: &str, payload_len: usize, tracer: &mut Tracer) -> Result<(), String> {
    let mut client = WorkerClient::new(worker_addr, ClientConfig::default());
    let token = b"spq-benchmark";
    // The first call also connects, so it is not measured.
    client
        .ping(token)
        .map_err(|e| format!("worker does not answer pings: {e}"))?;
    for i in 0..WIRE_REPEATS {
        let (_, pong) = tracer.record("remote.ping", i as u64, None, || client.ping(token));
        pong.map_err(|e| format!("worker does not answer pings: {e}"))?;
    }
    let payload = vec![0x5au8; payload_len];
    for i in 0..WIRE_REPEATS {
        let (_, intact) = tracer.record("remote.frame_codec", i as u64, None, || {
            let mut wire_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
            write_frame(&mut wire_bytes, OP_SHARD_RESULT, &payload)
                .and_then(|()| read_frame(&mut Cursor::new(wire_bytes)))
                .map(|(_, body)| body.len() == payload.len())
        });
        if !matches!(intact, Ok(true)) {
            return Err("a frame did not survive the in-memory round trip".to_owned());
        }
    }
    Ok(())
}

/// What the algorithm layer's replay measured.
#[derive(Default)]
struct AlgoLayer {
    job_ms: [Vec<f64>; 3],
    plan_ms: Vec<f64>,
    examined_ratio: Vec<f64>,
    early_terminations: Vec<f64>,
    map_duplicates: Vec<f64>,
}

/// One job per algorithm per query, as `batch-job` runs them: no engine,
/// no caches, `nproc` threads per job. `jobs` is fed from the `eSPQsco`
/// jobs when the workload itself is `batch-job`.
fn algo_layer(
    cfg: &RunConfig,
    corpus: &Corpus,
    requests: &Requests,
    n: usize,
    tracer: &mut Tracer,
    mut jobs: Option<&mut JobSamples>,
    checks: &mut Checks,
) -> Result<AlgoLayer, String> {
    const SPAN_NAMES: [&str; 3] = ["algo.pSPQ.job", "algo.eSPQlen.job", "algo.eSPQsco.job"];
    let executors = executors(corpus, cfg.nproc);
    let splits = corpus.shared.ref_splits(8);
    let mut layer = AlgoLayer::default();
    for (i, request) in requests.list.iter().take(n).enumerate() {
        let id = i as u64;
        let query = &request.query;
        let (span, partition) = tracer.record("algo.plan", id, None, || {
            executors[0].plan_partition_shared(query, &corpus.shared, &splits)
        });
        std::hint::black_box(partition);
        layer.plan_ms.push(tracer.span_ms(span));
        let want = oracle(corpus, query);
        for (a, executor) in executors.iter().enumerate() {
            let (span, result) = tracer.record(SPAN_NAMES[a], id, None, || {
                executor.run_dataset(&corpus.shared, query)
            });
            layer.job_ms[a].push(tracer.span_ms(span));
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    checks.answer(SPAN_NAMES[a], Err(e.to_string()), &want);
                    continue;
                }
            };
            checks.answer(SPAN_NAMES[a], Ok(&result.top_k), &want);
            if executor.algorithm_choice() == Algorithm::ESpqSco {
                // Useful ÷ attempted work of early termination, and the
                // Lemma-1 duplication, for the serving default.
                let counters = &result.stats.counters;
                let examined = counters.get(COUNTER_REDUCE_FEATURES_EXAMINED) as f64;
                let skipped = counters.get(COUNTER_REDUCE_SKIPPED) as f64;
                layer
                    .examined_ratio
                    .push(examined / (examined + skipped).max(1.0));
                layer
                    .early_terminations
                    .push(counters.get(COUNTER_REDUCE_EARLY_TERMINATIONS) as f64);
                layer
                    .map_duplicates
                    .push(counters.get(COUNTER_MAP_DUPLICATES) as f64);
                if let Some(jobs) = jobs.as_deref_mut() {
                    push_job_spans(tracer, span, id, &result.stats);
                    jobs.add(&result.stats, result.shuffle_bytes);
                }
            }
        }
    }
    Ok(layer)
}

fn write_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request_id
            )
        })
        .collect();
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n"))))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the traced replay of `spec` and reports every per-layer metric.
pub fn run(spec: &Spec, cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let is_batch = spec.name == "batch-job";
    let (corpus, requests) = match spec.name {
        "batch-job" => batch_inputs(cfg),
        "serve-open" => serving_inputs(cfg, 2),
        _ => serving_inputs(cfg, 1),
    };
    let n = trace_requests(cfg.seconds);
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    // `batch-job` runs no engine, so its `mapreduce.*` samples come from
    // its own run_dataset jobs; the engine replay's go to a throwaway.
    let mut jobs = JobSamples::default();
    let mut engine_jobs = JobSamples::default();

    let ingest_objects_per_s = ingest_rate(cfg, INGEST_OBJECTS.min(corpus.dataset.total()))?;
    let engine = engine_layer(
        &corpus,
        &requests,
        n,
        &mut tracer,
        if is_batch {
            &mut engine_jobs
        } else {
            &mut jobs
        },
        &mut checks,
    )?;
    let reference = &engine.reference;
    let dist = distribution_layers(
        cfg,
        &corpus,
        &requests,
        n,
        reference,
        &mut tracer,
        &mut checks,
    )?;
    codec_spans(
        &corpus,
        &requests,
        n.min(CODEC_REQUESTS),
        reference,
        &mut tracer,
        &mut checks,
    )?;
    // The mean payload of a query's frames: a request and a response
    // frame per shard.
    let frame_payload =
        (dist.frame_bytes_per_query / (2 * SHARDS) as f64 - HEADER_LEN as f64).max(0.0);
    wire_spans(
        dist.stack.workers[0].addr(),
        frame_payload as usize,
        &mut tracer,
    )?;
    let algo = algo_layer(
        cfg,
        &corpus,
        &requests,
        (n / 12).max(4),
        &mut tracer,
        is_batch.then_some(&mut jobs),
        &mut checks,
    )?;

    // The serve layer in the workload's own shape. `batch-job` has no
    // queue on its path; it gets the closed local shape on its corpus.
    let local = SpqService::Local(engine.engine);
    let closed_over = if spec.name == "serve-remote" {
        &dist.stack.service
    } else {
        &local
    };
    let mut serve = serve_closed(
        closed_over,
        &requests,
        n,
        reference,
        &mut tracer,
        &mut checks,
    )?;
    drop(dist.stack);
    if spec.name == "serve-open" {
        let open = serve_open_window(cfg, &corpus, &requests, n, &mut checks)?;
        serve = ServeLayer {
            submit_us: serve.submit_us,
            trace_overhead_pct: serve.trace_overhead_pct,
            self_time_coverage_pct: serve.self_time_coverage_pct,
            ..open
        };
    }

    let spans = tracer.spans();
    write_trace(
        &cfg.out_dir.join(format!("trace-{}.json", spec.name)),
        spans,
    )?;
    let us = |name: &str| ns_to_us(&tracer.durations_ns(name));
    let overhead_ms: Vec<f64> = dist
        .remote_query_ms
        .iter()
        .zip(&dist.sharded_query_ms)
        .map(|(remote, sharded)| remote - sharded)
        .collect();
    let ping_us = us("remote.ping");
    // Empty (hence 0) outside `serve-open`.
    let lateness_p99 = Sample::new(serve.gen_lateness_ms.as_slice()).percentile(0.99);
    let quartile = engine.query_ms.len() / 4;

    let p50 = |name, values: &[f64], unit| {
        Metric::over(
            name,
            Sample::new(values).percentile(0.50),
            unit,
            values.len(),
        )
    };
    let p99 = |name, values: &[f64], unit| {
        Metric::over(
            name,
            Sample::new(values).percentile(0.99),
            unit,
            values.len(),
        )
    };
    let avg = |name, values: &[f64], unit| {
        Metric::over(name, Sample::new(values).mean(), unit, values.len())
    };
    let metrics = vec![
        p50("serve.submit_us_p50", &serve.submit_us, "us"),
        p50("serve.queue_wait_ms_p50", &serve.queue_wait_ms, "ms"),
        p99("serve.queue_wait_ms_p99", &serve.queue_wait_ms, "ms"),
        Metric::new("serve.batch_size_mean", serve.batch_size_mean, "count"),
        Metric::new("serve.queue_depth_max", serve.queue_depth_max, "count"),
        Metric::new("serve.rejected_rate", serve.rejected_rate, "ratio"),
        Metric::new("serve.shed_rate", serve.shed_rate, "ratio"),
        p50("service.validate_us_p50", &us("service.validate"), "us"),
        Metric::new("engine.build_s", engine.build_s, "s"),
        p50("engine.plan_build_ms_p50", &engine.plan_build_ms, "ms"),
        Metric::new("engine.plan_cache_hit_rate", engine.plan_hit_rate, "ratio"),
        p50("engine.probe_us_p50", &us("engine.probe"), "us"),
        avg("engine.candidates_mean", &engine.candidates, "count"),
        p50("engine.query_ms_p50", &engine.query_ms, "ms"),
        Metric::over(
            "engine.query_ms_p50_selective",
            quartile_p50(&engine.query_ms, &engine.candidates, false),
            "ms",
            quartile,
        ),
        Metric::over(
            "engine.query_ms_p50_broad",
            quartile_p50(&engine.query_ms, &engine.candidates, true),
            "ms",
            quartile,
        ),
        p50("mapreduce.map_ms_p50", &jobs.map_ms, "ms"),
        p50("mapreduce.shuffle_ms_p50", &jobs.shuffle_ms, "ms"),
        p50("mapreduce.reduce_ms_p50", &jobs.reduce_ms, "ms"),
        avg(
            "mapreduce.map_input_records_mean",
            &jobs.map_input_records,
            "count",
        ),
        avg(
            "mapreduce.shuffle_records_mean",
            &jobs.shuffle_records,
            "count",
        ),
        avg("mapreduce.shuffle_bytes_mean", &jobs.shuffle_bytes, "B"),
        avg("mapreduce.reduce_skew_mean", &jobs.reduce_skew, "ratio"),
        p50("algo.pSPQ.job_ms_p50", &algo.job_ms[0], "ms"),
        p50("algo.eSPQlen.job_ms_p50", &algo.job_ms[1], "ms"),
        p50("algo.eSPQsco.job_ms_p50", &algo.job_ms[2], "ms"),
        p50("algo.plan_ms_p50", &algo.plan_ms, "ms"),
        avg(
            "algo.features_examined_ratio",
            &algo.examined_ratio,
            "ratio",
        ),
        avg(
            "algo.early_terminations_mean",
            &algo.early_terminations,
            "count",
        ),
        avg("algo.map_duplicates_mean", &algo.map_duplicates, "count"),
        p50("sharded.query_ms_p50", &dist.sharded_query_ms, "ms"),
        avg("sharded.gather_bytes_mean", &dist.gather_bytes, "B"),
        p50("sharded.encode_us_p50", &us("sharded.encode"), "us"),
        p50("sharded.decode_us_p50", &us("sharded.decode"), "us"),
        p50("sharded.merge_us_p50", &us("sharded.merge"), "us"),
        p50("remote.query_ms_p50", &dist.remote_query_ms, "ms"),
        p50("remote.overhead_ms_p50", &overhead_ms, "ms"),
        p50("remote.ping_rtt_us_p50", &ping_us, "us"),
        p99("remote.ping_rtt_us_p99", &ping_us, "us"),
        p50("remote.frame_codec_us_p50", &us("remote.frame_codec"), "us"),
        Metric::new(
            "remote.frame_bytes_per_query",
            dist.frame_bytes_per_query,
            "B",
        ),
        Metric::new("remote.retries", dist.retries, "count"),
        Metric::new("remote.provision_s", dist.provision_s, "s"),
        Metric::new("remote.provision_bytes", dist.provision_bytes, "B"),
        Metric::new(
            "remote.provision_attempts",
            dist.provisioning.attempts as f64,
            "count",
        ),
        Metric::new("remote.provision_lost_s", dist.provisioning.lost_s, "s"),
        Metric::new("data.generate_s", corpus.generate_s, "s"),
        Metric::new("data.ingest_objects_per_s", ingest_objects_per_s, "1/s"),
        Metric::new("harness.trace_overhead_pct", serve.trace_overhead_pct, "%"),
        Metric::new(
            "harness.self_time_coverage_pct",
            serve.self_time_coverage_pct,
            "%",
        ),
        Metric::new("harness.gen_lateness_ms_p99", lateness_p99, "ms"),
        Metric::new("harness.error_rate", checks.counts.error_rate(), "ratio"),
    ];

    let mut report = WorkloadReport::new(spec.name, spec.why, checks.counts);
    report.metrics = metrics;
    report.samples = n as u64;
    report.note("corpus", corpus.describe());
    report.note("trace_requests", n);
    report.note("spans", spans.len());
    if dist.retries != 0.0 {
        report.invalid("the remote engine retried a shard during the traced replay");
    }
    Ok(report)
}
