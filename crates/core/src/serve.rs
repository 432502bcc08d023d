//! The admission-controlled serving front-end: bounded in-flight queue,
//! batch coalescing, deadline shedding.
//!
//! The engines execute whatever they are handed; under real traffic the
//! interesting decisions happen *before* execution — how many requests
//! may be in the building at once, how arrivals are grouped into
//! batches, and what to do when the system cannot keep up.
//! [`AdmissionQueue`] is that front door, generic over any
//! [`QueryExecutor`] (a borrowed [`crate::service::SpqService`] works:
//! references execute wherever their referent does):
//!
//! * **Bounded in-flight cap** — [`AdmissionQueue::submit`] admits at
//!   most [`AdmissionConfig::max_in_flight`] requests (queued plus
//!   executing). At the cap, [`OverflowPolicy::Reject`] fails fast with
//!   [`SpqError::Overloaded`] (retryable — the client's signal to back
//!   off), while [`OverflowPolicy::Block`] parks the producer thread
//!   until capacity frees, converting overload into backpressure.
//! * **Batch coalescing** — admitted requests wait in an arrival window
//!   that closes when it holds [`AdmissionConfig::batch_max`] requests
//!   *or* [`AdmissionConfig::batch_ticks`] ticks after it opened,
//!   whichever comes first. A closed window executes as one coalesced
//!   batch (each member at its own worker budget — exactly what a loop of
//!   [`QueryExecutor::execute`] calls runs). Responses are
//!   byte-identical to executing each request alone; coalescing and
//!   priorities only move *when* a request runs.
//! * **Deadline shedding** — time is a **manual clock**
//!   ([`AdmissionQueue::tick`], like [`crate::remote::RemoteEngine::tick`]),
//!   so every schedule is deterministic and testable. When a window
//!   closes at tick `t`, every queued request whose
//!   [`QueryRequest::deadline`] is `< t` is shed with
//!   [`SpqError::DeadlineExceeded`] instead of executed late — under
//!   overload the queue degrades by answering fewer requests on time,
//!   never by crashing or answering all of them late.
//! * **Observability** — admitted/shed/coalesced counters and a queue
//!   depth watermark ([`AdmissionQueue::stats`]), a log-bucketed
//!   [`LatencyHistogram`] aggregated inside the serve loop, and a
//!   scrape-friendly text export ([`export_metrics`] /
//!   [`AdmissionQueue::metrics_text`]) that folds in the engine's
//!   [`MetricsSnapshot`] — percentiles exist outside the bench harness.
//!
//! The dequeue order is priority-then-arrival
//! ([`QueryRequest::priority`] descending, submission order within a
//! priority), so latency-sensitive traffic overtakes bulk traffic
//! without starving it into deadline misses — and without ever changing
//! anyone's result bytes.
//!
//! Every decision above — the cap, when a window closes, what is shed
//! and in which order the rest runs — and every counter belong to one
//! private, lock-free machine, `Admission`: it is offered items
//! (`Admitted` or `Full`), hands out a closed window (`due`: the
//! members to run, each missed deadline to shed) and is told what the
//! window's execution resolved. [`AdmissionQueue`] holds it behind one
//! mutex and only delivers: it validates, parks [`OverflowPolicy::Block`]
//! producers while the machine is full, advances the clock, executes
//! the window and fills the [`Ticket`]s. The unit tests check the
//! machine over every reachable state of every small configuration.
//!
//! ```
//! use spq_core::serve::{AdmissionConfig, AdmissionQueue};
//! use spq_core::{DataObject, FeatureObject, QueryEngine, QueryRequest};
//! use spq_core::{SharedDataset, SpqExecutor, SpqQuery};
//! use spq_spatial::{Point, Rect};
//! use spq_text::KeywordSet;
//!
//! let dataset = SharedDataset::new(
//!     vec![DataObject::new(1, Point::new(4.6, 4.8))],
//!     vec![FeatureObject::new(4, Point::new(3.8, 5.5), KeywordSet::from_ids([0]))],
//! );
//! let engine = QueryEngine::new(
//!     SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4),
//!     dataset,
//! );
//! let queue = AdmissionQueue::new(&engine, AdmissionConfig::default()).unwrap();
//!
//! let ticket = queue
//!     .submit(QueryRequest::new(SpqQuery::new(1, 1.5, KeywordSet::from_ids([0]))))
//!     .unwrap();
//! queue.drain(); // or a serve loop calling `tick()` on a cadence
//! assert_eq!(ticket.wait().unwrap().results[0].object, 1);
//! ```

pub use crate::prometheus::export_metrics;

#[cfg(doc)]
use crate::engine::MetricsSnapshot;
use crate::executor::SpqError;
use crate::service::{QueryExecutor, QueryRequest, QueryResponse};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// What [`AdmissionQueue::submit`] does when the in-flight cap is hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Fail fast with [`SpqError::Overloaded`] — the request is not
    /// enqueued, and the error is retryable
    /// ([`SpqError::is_retryable`]): the client's signal to back off and
    /// resubmit. The default: overload surfaces at the edge instead of
    /// growing an unbounded queue.
    #[default]
    Reject,
    /// Park the producer thread until capacity frees — backpressure for
    /// in-process producers that would rather wait than handle a
    /// rejection.
    Block,
}

/// Configuration of an [`AdmissionQueue`]. Builder-style, validated at
/// [`AdmissionQueue::new`] exactly as [`QueryRequest::validate`] guards
/// the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Upper bound on requests admitted at once (queued plus executing).
    /// Must be ≥ 1.
    pub max_in_flight: usize,
    /// What [`AdmissionQueue::submit`] does at the cap.
    pub overflow: OverflowPolicy,
    /// A coalescing window closes as soon as it holds this many
    /// requests. Must be ≥ 1.
    pub batch_max: usize,
    /// A non-full window closes this many ticks after it opened (`0`
    /// closes every window on the next [`AdmissionQueue::tick`]).
    pub batch_ticks: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            overflow: OverflowPolicy::default(),
            batch_max: 8,
            batch_ticks: 1,
        }
    }
}

impl AdmissionConfig {
    /// Sets the in-flight cap.
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap;
        self
    }

    /// Sets the overflow policy.
    pub fn with_overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Sets the size at which a coalescing window closes.
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// Sets the tick age at which a non-full window closes.
    pub fn with_batch_ticks(mut self, ticks: u64) -> Self {
        self.batch_ticks = ticks;
        self
    }

    /// Checks the configuration before the queue is built.
    pub fn validate(&self) -> Result<(), SpqError> {
        if self.max_in_flight == 0 {
            return Err(SpqError::invalid_config(
                "admission cap must admit at least one request",
            ));
        }
        if self.batch_max == 0 {
            return Err(SpqError::invalid_config(
                "coalescing windows must hold at least one request",
            ));
        }
        Ok(())
    }
}

/// The slot a pending request's outcome is delivered into.
#[derive(Debug, Default)]
struct TicketInner {
    slot: Mutex<Option<Result<QueryResponse, SpqError>>>,
    ready: Condvar,
}

impl TicketInner {
    fn deliver(&self, outcome: Result<QueryResponse, SpqError>) {
        *self.slot.lock() = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on one admitted request's eventual outcome — the
/// bounded-channel job handle of the admission queue.
///
/// The producer that submitted keeps the ticket; the serve loop delivers
/// into it when the request executes (or is shed). [`wait`](Self::wait)
/// parks until then, so a ticket must not be waited on from the same
/// thread that drives [`AdmissionQueue::tick`] before the request was
/// pumped.
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Whether the outcome has been delivered (never blocks).
    pub fn is_ready(&self) -> bool {
        self.inner.slot.lock().is_some()
    }

    /// Takes the outcome if it has been delivered (never blocks).
    pub fn try_wait(self) -> Result<Result<QueryResponse, SpqError>, Ticket> {
        let taken = self.inner.slot.lock().take();
        match taken {
            Some(outcome) => Ok(outcome),
            None => Err(self),
        }
    }

    /// Parks until the outcome is delivered, then returns it.
    pub fn wait(self) -> Result<QueryResponse, SpqError> {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// One admitted, not-yet-executed request, as the queue stores it.
#[derive(Debug)]
struct Pending {
    request: QueryRequest,
    ticket: Arc<TicketInner>,
}

/// What [`Admission::offer`] did with an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offered {
    Admitted,
    /// At the cap: the item was dropped and counted as rejected.
    Full,
}

/// A closed coalescing window, as [`Admission::due`] hands it out.
#[derive(Debug, Clone)]
struct Window<T> {
    /// The members to execute, in dequeue order.
    run: Vec<T>,
    /// Every queued item whose deadline had passed, with that deadline.
    shed: Vec<(T, u64)>,
}

/// The admission policy as a pure machine: the cap, the window rule,
/// deadline shedding, dequeue order and every counter, with no lock,
/// clock, ticket or executor. [`AdmissionQueue`] keeps one behind its
/// mutex and delivers what it decides; the tests drive one through
/// every small configuration. Generic over its payload, so the tests
/// can queue plain ids.
#[derive(Debug, Clone)]
struct Admission<T> {
    config: AdmissionConfig,
    /// Queued items in dequeue order — priority descending, then
    /// arrival — so a window is a prefix.
    pending: BTreeMap<(Reverse<u8>, u64), (Option<u64>, T)>,
    /// Admitted items not yet resolved (queued or executing) — what the
    /// cap bounds.
    in_flight: usize,
    next_seq: u64,
    /// The tick the current window opened, `None` while nothing is
    /// queued.
    window_open: Option<u64>,
    /// The seven counters and the depth watermark, as plain numbers;
    /// [`AdmissionQueue::stats`] fills in the depth and the clock.
    stats: AdmissionSnapshot,
}

impl<T> Admission<T> {
    fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            pending: BTreeMap::new(),
            in_flight: 0,
            next_seq: 0,
            window_open: None,
            stats: AdmissionSnapshot::default(),
        }
    }

    /// Whether an offer now would be [`Offered::Full`].
    fn full(&self) -> bool {
        self.in_flight >= self.config.max_in_flight
    }

    /// Counts a request that failed validation: submitted, never offered.
    fn count_invalid(&mut self) {
        self.stats.submitted += 1;
    }

    /// Admits `item` at tick `now` unless the cap is reached.
    fn offer(&mut self, now: u64, priority: u8, deadline: Option<u64>, item: T) -> Offered {
        self.stats.submitted += 1;
        if self.full() {
            self.stats.rejected_overload += 1;
            return Offered::Full;
        }
        self.in_flight += 1;
        self.stats.admitted += 1;
        self.pending
            .insert((Reverse(priority), self.next_seq), (deadline, item));
        self.next_seq += 1;
        self.window_open.get_or_insert(now);
        self.stats.queue_depth_watermark = self.stats.queue_depth_watermark.max(self.pending.len());
        Offered::Admitted
    }

    /// Closes the window if it is due at `now` — `batch_max` items, or
    /// `batch_ticks` ticks old — and dequeues it: every queued item whose
    /// deadline is behind `now` is shed wherever it sits (it could only
    /// be dequeued later, so shedding now frees capacity earliest), and
    /// the first `batch_max` survivors run. `None` while the window is
    /// still filling. Shed items are resolved here.
    fn due(&mut self, now: u64) -> Option<Window<T>> {
        let opened = self.window_open?;
        let batch_max = self.config.batch_max;
        if self.pending.len() < batch_max && now < opened.saturating_add(self.config.batch_ticks) {
            return None;
        }
        let (mut run, mut shed) = (Vec::new(), Vec::new());
        self.pending = std::mem::take(&mut self.pending)
            .into_iter()
            .filter_map(|(key, (deadline, item))| {
                match deadline {
                    Some(d) if now > d => shed.push((item, d)),
                    _ if run.len() < batch_max => run.push(item),
                    _ => return Some((key, (deadline, item))),
                }
                None
            })
            .collect();
        self.window_open = (!self.pending.is_empty()).then_some(now);
        self.in_flight -= shed.len();
        self.stats.shed_deadline += shed.len() as u64;
        self.stats.coalesced_batches += u64::from(!run.is_empty());
        Some(Window { run, shed })
    }

    /// Resolves executed window members: `executed` answered, `failed`
    /// returned an error.
    fn resolved(&mut self, executed: usize, failed: usize) {
        self.in_flight -= executed + failed;
        self.stats.executed += executed as u64;
        self.stats.failed += failed as u64;
    }
}

/// A point-in-time snapshot of an [`AdmissionQueue`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Requests offered to [`AdmissionQueue::submit`] (valid or not).
    pub submitted: u64,
    /// Requests admitted past the cap check.
    pub admitted: u64,
    /// Requests rejected at the cap under [`OverflowPolicy::Reject`].
    pub rejected_overload: u64,
    /// Admitted requests shed past their deadline at dequeue time.
    pub shed_deadline: u64,
    /// Admitted requests that executed and delivered a response.
    pub executed: u64,
    /// Admitted requests whose execution returned an error.
    pub failed: u64,
    /// Windows the serve loop has executed as one coalesced batch.
    pub coalesced_batches: u64,
    /// Highest queue depth ever observed at admission.
    pub queue_depth_watermark: usize,
    /// Requests currently queued (excludes the executing window).
    pub queue_depth: usize,
    /// The manual clock's current tick.
    pub clock: u64,
}

/// Number of latency buckets: bucket `0` counts zeros, bucket `i` in
/// `1..=29` counts observations in `[2^(i-1), 2^i)` microseconds, and
/// the last bucket (`30`) absorbs everything ≥ 2^29 µs (~9 minutes).
pub const LATENCY_BUCKETS: usize = 31;

/// A log-bucketed (powers-of-two microseconds) latency histogram.
///
/// Lock-free to record (one atomic add), tiny to keep per queue, and
/// mergeable — the shape every serving stack uses for percentiles that
/// must be cheap at scrape time. Exact percentiles stay in the bench
/// harness; this is the production approximation (one power of two of
/// resolution).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(micros: u64) -> usize {
        ((u64::BITS - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`LATENCY_BUCKETS`] for the bounds).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all recorded observations, microseconds.
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The inclusive upper bound of bucket `i`, microseconds (`None` for
    /// the unbounded last bucket).
    pub fn upper_bound(i: usize) -> Option<u64> {
        (i + 1 < LATENCY_BUCKETS).then(|| (1u64 << i) - 1)
    }

    /// The value at quantile `q ∈ [0, 1]`, reported as the upper bound of
    /// the bucket that contains it (0 when empty). One power of two of
    /// resolution — the scrape-side approximation, not the bench-side
    /// bootstrap.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        Self::upper_bound(LATENCY_BUCKETS - 2).unwrap_or(0)
    }

    /// Mean observation, microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / count as f64
        }
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_micros += other.sum_micros;
    }
}

/// What one [`AdmissionQueue::pump`] (or [`tick`](AdmissionQueue::tick))
/// did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Requests executed in this pump's coalesced window.
    pub executed: usize,
    /// Requests shed past their deadline at this dequeue.
    pub shed: usize,
    /// Requests whose execution returned an error.
    pub failed: usize,
    /// Requests still queued after the pump.
    pub remaining: usize,
}

impl PumpReport {
    /// Whether the pump found nothing to do and nothing left behind.
    pub fn idle(&self) -> bool {
        *self == PumpReport::default()
    }

    /// Folds another report into this one (`remaining` takes the later
    /// value).
    pub fn absorb(&mut self, other: PumpReport) {
        self.executed += other.executed;
        self.shed += other.shed;
        self.failed += other.failed;
        self.remaining = other.remaining;
    }
}

/// The admission-controlled serving front-end. See the
/// [module docs](self) for the full lifecycle.
///
/// `E` is any [`QueryExecutor`] — an owned engine, or a borrowed one
/// (`&SpqService`), since references execute wherever their referent
/// does. Producers call [`submit`](Self::submit) from any number of
/// threads; a serve loop (usually one thread, but any driver works)
/// advances the manual clock with [`tick`](Self::tick) or drains
/// synchronously with [`drain`](Self::drain).
#[derive(Debug)]
pub struct AdmissionQueue<E: QueryExecutor> {
    executor: E,
    config: AdmissionConfig,
    clock: AtomicU64,
    /// The policy and every counter, behind the one lock.
    state: Mutex<Admission<Pending>>,
    /// Signals blocked producers when capacity frees.
    space: Condvar,
    latency: LatencyHistogram,
}

impl<E: QueryExecutor> AdmissionQueue<E> {
    /// Builds a queue over `executor`, validating `config`.
    pub fn new(executor: E, config: AdmissionConfig) -> Result<Self, SpqError> {
        config.validate()?;
        Ok(Self {
            executor,
            config,
            clock: AtomicU64::new(0),
            state: Mutex::new(Admission::new(config)),
            space: Condvar::new(),
            latency: LatencyHistogram::new(),
        })
    }

    /// The executor requests are served on.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// The configuration the queue was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The manual clock's current tick.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Offers one request for admission.
    ///
    /// Validates first ([`SpqError::InvalidQuery`] is never admitted),
    /// then applies the cap: at [`AdmissionConfig::max_in_flight`]
    /// admitted requests, [`OverflowPolicy::Reject`] returns
    /// [`SpqError::Overloaded`] and [`OverflowPolicy::Block`] parks until
    /// capacity frees. Admission returns a [`Ticket`] for the eventual
    /// outcome — which may still be [`SpqError::DeadlineExceeded`] if the
    /// request's deadline passes before a serve-loop pump dequeues it.
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, SpqError> {
        if let Err(e) = request.validate() {
            self.state.lock().count_invalid();
            return Err(e);
        }
        let ticket = Arc::new(TicketInner::default());
        let mut state = self.state.lock();
        while self.config.overflow == OverflowPolicy::Block && state.full() {
            state = self
                .space
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let (priority, deadline) = (request.priority, request.deadline);
        let pending = Pending {
            request,
            ticket: Arc::clone(&ticket),
        };
        match state.offer(self.now(), priority, deadline, pending) {
            Offered::Admitted => Ok(Ticket { inner: ticket }),
            Offered::Full => Err(SpqError::Overloaded {
                capacity: self.config.max_in_flight,
            }),
        }
    }

    /// Advances the manual clock one tick, then [`pump`](Self::pump)s.
    /// The deterministic heartbeat of a serve loop.
    pub fn tick(&self) -> PumpReport {
        self.clock.fetch_add(1, Ordering::Relaxed);
        self.pump()
    }

    /// Closes the coalescing window if it is due — full
    /// ([`AdmissionConfig::batch_max`]) or aged out
    /// ([`AdmissionConfig::batch_ticks`]) — and executes it: first shed
    /// every queued request whose deadline has passed *at this dequeue*,
    /// then run the highest-priority `batch_max` survivors as one
    /// coalesced batch and deliver into their tickets. Does nothing when
    /// the window is still filling.
    pub fn pump(&self) -> PumpReport {
        let now = self.now();
        let window = {
            let mut state = self.state.lock();
            let Some(window) = state.due(now) else {
                return PumpReport {
                    remaining: state.pending.len(),
                    ..PumpReport::default()
                };
            };
            window
        };

        for &(ref p, deadline) in &window.shed {
            p.ticket
                .deliver(Err(SpqError::DeadlineExceeded { deadline, now }));
        }
        // One coalesced window: each member at its own worker budget,
        // exactly what `QueryExecutor::execute` runs request by request,
        // each delivered to its own ticket, so one failing request
        // cannot poison its window-mates.
        let mut failed = 0usize;
        for p in &window.run {
            match self
                .executor
                .run_validated(&p.request.query, &p.request.options)
            {
                Ok(response) => {
                    self.latency.record(response.stats.wall_micros);
                    p.ticket.deliver(Ok(response));
                }
                Err(e) => {
                    failed += 1;
                    p.ticket.deliver(Err(e));
                }
            }
        }
        let executed = window.run.len() - failed;

        let remaining = {
            let mut state = self.state.lock();
            state.resolved(executed, failed);
            state.pending.len()
        };
        if self.config.overflow == OverflowPolicy::Block {
            self.space.notify_all();
        }
        PumpReport {
            executed,
            shed: window.shed.len(),
            failed,
            remaining,
        }
    }

    /// Ticks until the queue is empty, folding every pump into one
    /// report. This only drains what has been submitted when it runs —
    /// with live producers, run a serve loop around
    /// [`tick`](Self::tick) instead.
    pub fn drain(&self) -> PumpReport {
        let mut total = PumpReport::default();
        loop {
            let report = self.tick();
            total.absorb(report);
            if report.remaining == 0 {
                return total;
            }
        }
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// A snapshot of the admission counters, read in one lock section.
    pub fn stats(&self) -> AdmissionSnapshot {
        let state = self.state.lock();
        AdmissionSnapshot {
            queue_depth: state.pending.len(),
            clock: self.now(),
            ..state.stats
        }
    }

    /// A snapshot of the latency histogram the serve loop aggregates.
    pub fn latency(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// The full scrape payload for this queue: the executor's
    /// [`MetricsSnapshot`], the admission counters and the latency
    /// histogram, in the [`export_metrics`] text format. Per-shard lines
    /// require the caller to pass
    /// [`crate::sharded::ShardedEngine::shard_stats`] to
    /// [`export_metrics`] directly — the trait surface is
    /// backend-erased.
    pub fn metrics_text(&self) -> String {
        export_metrics(
            &self.executor.metrics(),
            &[],
            Some(&self.stats()),
            Some(&self.latency()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::model::{DataObject, FeatureObject};
    use crate::query::SpqQuery;
    use crate::store::SharedDataset;
    use crate::SpqExecutor;
    use spq_spatial::{Point, Rect};
    use spq_text::KeywordSet;

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

    fn engine() -> QueryEngine {
        QueryEngine::new(
            SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4),
            paper_dataset(),
        )
    }

    fn request(k: usize, r: f64, kw: &[u32]) -> QueryRequest {
        QueryRequest::new(SpqQuery::new(
            k,
            r,
            KeywordSet::from_ids(kw.iter().copied()),
        ))
    }

    #[test]
    fn config_validates_like_the_request_path() {
        assert!(AdmissionConfig::default().validate().is_ok());
        for bad in [
            AdmissionConfig::default().with_max_in_flight(0),
            AdmissionConfig::default().with_batch_max(0),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(SpqError::InvalidConfig { .. })
            ));
        }
        // batch_ticks = 0 is legal: every window closes on the next tick.
        assert!(AdmissionConfig::default()
            .with_batch_ticks(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn admitted_requests_answer_identically_to_direct_execution() {
        let engine = engine();
        let queue = AdmissionQueue::new(&engine, AdmissionConfig::default()).unwrap();
        let requests: Vec<QueryRequest> = (1..=5).map(|k| request(k, 1.5, &[0])).collect();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| queue.submit(r.clone()).unwrap())
            .collect();
        let report = queue.drain();
        assert_eq!(report.executed, 5);
        assert_eq!(report.shed, 0);
        for (ticket, request) in tickets.into_iter().zip(&requests) {
            let got = ticket.wait().unwrap();
            let expect = engine.execute_sequential(request).unwrap();
            assert_eq!(got.results, expect.results);
        }
        let stats = queue.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.executed, 5);
        assert!(stats.coalesced_batches >= 1);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.queue_depth_watermark >= 1);
    }

    #[test]
    fn reject_policy_overflows_with_retryable_overloaded() {
        let engine = engine();
        let queue = AdmissionQueue::new(
            &engine,
            AdmissionConfig::default()
                .with_max_in_flight(2)
                .with_batch_max(2),
        )
        .unwrap();
        let _t1 = queue.submit(request(1, 1.5, &[0])).unwrap();
        let _t2 = queue.submit(request(2, 1.5, &[0])).unwrap();
        let err = queue.submit(request(3, 1.5, &[0])).unwrap_err();
        assert_eq!(err, SpqError::Overloaded { capacity: 2 });
        assert!(err.is_retryable());
        // Capacity frees once the window executes.
        queue.drain();
        assert!(queue.submit(request(3, 1.5, &[0])).is_ok());
        assert_eq!(queue.stats().rejected_overload, 1);
    }

    #[test]
    fn block_policy_parks_producers_until_capacity_frees() {
        let engine = engine();
        let queue = AdmissionQueue::new(
            &engine,
            AdmissionConfig::default()
                .with_max_in_flight(1)
                .with_batch_max(1)
                .with_overflow(OverflowPolicy::Block),
        )
        .unwrap();
        let first = queue.submit(request(1, 1.5, &[0])).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| queue.submit(request(2, 1.5, &[0])).unwrap());
            // Drive until both requests made it through: the producer can
            // only return once the first window freed its slot.
            while !producer.is_finished() {
                queue.tick();
                std::thread::yield_now();
            }
            let second = producer.join().unwrap();
            queue.drain();
            assert!(first.wait().is_ok());
            assert!(second.wait().is_ok());
        });
        let stats = queue.stats();
        assert_eq!(stats.rejected_overload, 0);
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn sheds_exactly_the_requests_past_deadline_at_dequeue() {
        let engine = engine();
        // Large window: nothing executes until a tick closes it.
        let queue = AdmissionQueue::new(
            &engine,
            AdmissionConfig::default()
                .with_batch_max(16)
                .with_batch_ticks(3),
        )
        .unwrap();
        let deadlines = [Some(1u64), Some(3), Some(10), None];
        let tickets: Vec<Ticket> = deadlines
            .iter()
            .map(|d| {
                let mut r = request(2, 1.5, &[0]);
                r.deadline = *d;
                queue.submit(r).unwrap()
            })
            .collect();
        // Window opened at tick 0, closes at tick 3. At dequeue the clock
        // is 3: deadline 1 is past, deadline 3 is not (now > d sheds).
        let mut report = PumpReport::default();
        for _ in 0..3 {
            report.absorb(queue.tick());
        }
        assert_eq!(report.shed, 1);
        assert_eq!(report.executed, 3);
        let outcomes: Vec<Result<QueryResponse, SpqError>> =
            tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(
            outcomes[0].as_ref().unwrap_err(),
            &SpqError::DeadlineExceeded {
                deadline: 1,
                now: 3
            }
        );
        assert!(outcomes[0].as_ref().unwrap_err().is_retryable());
        for outcome in &outcomes[1..] {
            assert!(outcome.is_ok());
        }
        assert_eq!(queue.stats().shed_deadline, 1);
    }

    #[test]
    fn window_closes_on_size_before_its_tick_age() {
        let engine = engine();
        let queue = AdmissionQueue::new(
            &engine,
            AdmissionConfig::default()
                .with_batch_max(2)
                .with_batch_ticks(1000),
        )
        .unwrap();
        let t1 = queue.submit(request(1, 1.5, &[0])).unwrap();
        // One queued request: the pump leaves the not-yet-due window alone.
        assert_eq!(queue.pump().remaining, 1);
        let t2 = queue.submit(request(2, 1.5, &[0])).unwrap();
        // Size-due: pump executes without any tick.
        let report = queue.pump();
        assert_eq!(report.executed, 2);
        assert!(t1.is_ready() && t2.is_ready());
        assert!(t1.wait().is_ok() && t2.wait().is_ok());
    }

    #[test]
    fn priority_orders_dequeue_without_changing_bytes() {
        let engine = engine();
        let queue = AdmissionQueue::new(
            &engine,
            AdmissionConfig::default()
                .with_batch_max(2)
                .with_batch_ticks(0),
        )
        .unwrap();
        let low1 = queue.submit(request(1, 1.5, &[0])).unwrap();
        let low2 = queue
            .submit(request(2, 1.5, &[0]).with_priority(0))
            .unwrap();
        let high = queue
            .submit(request(3, 1.5, &[0]).with_priority(9))
            .unwrap();
        // First window: the high-priority request plus the older of the
        // two low-priority ones (arrival breaks the tie).
        let report = queue.tick();
        assert_eq!(report.executed, 2);
        assert!(high.is_ready());
        assert!(low1.is_ready());
        assert!(!low2.is_ready());
        queue.drain();
        // Scheduling never changes bytes.
        let expect = engine.execute_sequential(&request(2, 1.5, &[0])).unwrap();
        assert_eq!(low2.wait().unwrap().results, expect.results);
        let _ = (high.wait(), low1.wait());
    }

    #[test]
    fn invalid_requests_are_never_admitted() {
        let engine = engine();
        let queue = AdmissionQueue::new(&engine, AdmissionConfig::default()).unwrap();
        let mut bad = request(1, 1.5, &[0]);
        bad.query.k = 0;
        let err = queue.submit(bad).unwrap_err();
        assert!(matches!(err, SpqError::InvalidQuery { .. }));
        assert!(!err.is_retryable());
        let stats = queue.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0); // empty
        for micros in [0u64, 1, 2, 3, 500, 1000, 1_000_000] {
            h.record(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 7);
        assert_eq!(snap.sum_micros, 1_001_506);
        // 0 lands in bucket 0; 1 in bucket 1; 2 and 3 in bucket 2.
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        // p50 over 7 samples is the 4th: value 3 → bucket 2, le 3.
        assert_eq!(snap.quantile(0.5), 3);
        // p99 is the largest: 1_000_000 < 2^20 → le 2^20 - 1.
        assert_eq!(snap.quantile(0.99), (1 << 20) - 1);
        let mut merged = snap;
        merged.merge(&snap);
        assert_eq!(merged.count(), 14);
        assert_eq!(merged.quantile(0.5), 3);
        // The last bounded bucket ends at 2^29 - 1 µs; the unbounded one
        // starts at 2^29 µs (~9 minutes).
        for (micros, bucket, quantile) in [
            ((1u64 << 29) - 1, 29, (1u64 << 29) - 1),
            (1 << 29, LATENCY_BUCKETS - 1, u64::MAX),
        ] {
            let h = LatencyHistogram::new();
            h.record(micros);
            let snap = h.snapshot();
            assert_eq!(snap.buckets[bucket], 1, "{micros} µs");
            assert_eq!(snap.quantile(1.0), quantile, "{micros} µs");
        }
    }

    #[test]
    fn metrics_text_is_scrapeable() {
        let engine = engine();
        let queue = AdmissionQueue::new(&engine, AdmissionConfig::default()).unwrap();
        let t = queue.submit(request(1, 1.5, &[0])).unwrap();
        queue.drain();
        t.wait().unwrap();
        let text = queue.metrics_text();
        for needle in [
            "spq_engine_queries_total 1",
            "spq_admission_admitted_total 1",
            "spq_admission_executed_total 1",
            "# TYPE spq_request_latency_micros histogram",
            "spq_request_latency_micros_count 1",
            "_bucket{le=\"+Inf\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Per-shard lines render when shard stats are passed.
        let sharded = crate::sharded::ShardedEngine::new(
            SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4),
            paper_dataset(),
            2,
        )
        .unwrap();
        sharded.execute(&request(1, 1.5, &[0])).unwrap();
        let text = export_metrics(&sharded.metrics(), &sharded.shard_stats(), None, None);
        assert!(text.contains("spq_shard_queries_total{shard=\"0\"}"));
        assert!(text.contains("spq_shard_queries_total{shard=\"1\"}"));
    }

    #[test]
    fn drain_is_idempotent_on_an_empty_queue() {
        let engine = engine();
        let queue = AdmissionQueue::new(&engine, AdmissionConfig::default()).unwrap();
        assert!(queue.drain().idle());
        assert_eq!(queue.queue_depth(), 0);
    }

    // The machine, enumerated: every offer, tick, pump and resolution,
    // in every order, over every configuration with cap ≤ 3,
    // `batch_max` ≤ 2 and `batch_ticks` ≤ 2 — the exhaustive companion
    // of the model proptest in `tests/serve_admission.rs`, with no
    // executor, ticket or thread.

    use crate::checker::{self, Violation};

    /// What the checker queues: an arrival id and what the policy reads.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item {
        id: u64,
        priority: u8,
        deadline: Option<u64>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        /// A request with this priority whose deadline is this many ticks
        /// from now (`None`: no deadline).
        Offer(u8, Option<u64>),
        /// The clock advances, then a pump.
        Tick,
        /// A pump without a tick, as a serve loop may run after a
        /// submit: a full window closes without waiting for one.
        Pump,
        /// Every dequeued, still-running item answers.
        Resolve,
    }
    use Event::{Offer, Pump, Resolve, Tick};

    fn events() -> Vec<Event> {
        let mut events = vec![Tick, Pump, Resolve];
        for priority in 0..2 {
            events.extend([None, Some(0), Some(1)].map(|after| Offer(priority, after)));
        }
        events
    }

    fn configs() -> impl Iterator<Item = AdmissionConfig> {
        (1..=3).flat_map(|cap| {
            (1..=2).flat_map(move |batch_max| {
                (0..=2).map(move |batch_ticks| {
                    AdmissionConfig::default()
                        .with_max_in_flight(cap)
                        .with_batch_max(batch_max)
                        .with_batch_ticks(batch_ticks)
                })
            })
        })
    }

    /// The machine plus what the checker tracks without asking it.
    #[derive(Debug, Clone)]
    struct Sim {
        config: AdmissionConfig,
        machine: Admission<Item>,
        now: u64,
        next_id: u64,
        /// Admitted and not dequeued, in arrival order.
        queued: Vec<Item>,
        /// Dequeued to run and not resolved.
        running: Vec<Item>,
        /// When the current window opened, by the documented rule.
        opened: Option<u64>,
        /// Windows that ran something, and the deepest queue seen.
        batches: u64,
        watermark: usize,
        /// What the last event's offer or pump returned.
        offered: Option<Offered>,
        window: Option<Window<Item>>,
    }

    impl Sim {
        fn new(config: AdmissionConfig) -> Self {
            Self {
                config,
                machine: Admission::new(config),
                now: 0,
                next_id: 0,
                queued: Vec::new(),
                running: Vec::new(),
                opened: None,
                batches: 0,
                watermark: 0,
                offered: None,
                window: None,
            }
        }
    }

    type Due = fn(&mut Admission<Item>, u64) -> Option<Window<Item>>;

    /// The transition function, with the machine's `due` passed in so a
    /// test can hand it a broken one.
    fn step_with(sim: &mut Sim, event: Event, due: Due) {
        sim.offered = None;
        sim.window = None;
        match event {
            Offer(priority, after) => {
                let deadline = after.map(|ticks| sim.now + ticks);
                let item = Item {
                    id: sim.next_id,
                    priority,
                    deadline,
                };
                sim.next_id += 1;
                let offered = sim.machine.offer(sim.now, priority, deadline, item);
                if offered == Offered::Admitted {
                    sim.queued.push(item);
                    sim.watermark = sim.watermark.max(sim.queued.len());
                    sim.opened.get_or_insert(sim.now);
                }
                sim.offered = Some(offered);
            }
            Tick => {
                sim.now += 1;
                step_with(sim, Pump, due);
            }
            Pump => {
                if let Some(window) = due(&mut sim.machine, sim.now) {
                    let shed: Vec<Item> = window.shed.iter().map(|&(item, _)| item).collect();
                    sim.queued
                        .retain(|item| !window.run.contains(item) && !shed.contains(item));
                    sim.running.extend(&window.run);
                    sim.batches += u64::from(!window.run.is_empty());
                    sim.opened = (!sim.queued.is_empty()).then_some(sim.now);
                    sim.window = Some(window);
                }
            }
            Resolve => {
                sim.machine.resolved(sim.running.len(), 0);
                sim.running.clear();
            }
        }
    }

    fn apply(sim: &mut Sim, event: Event) {
        step_with(sim, event, Admission::due)
    }

    /// A finite key: deadlines and the window's age as offsets from now
    /// (a missed deadline stays missed; a window at least `batch_ticks`
    /// old is simply due), ids as positions. Counters only grow and are
    /// left out, as membership leaves out its tick.
    #[allow(clippy::type_complexity)]
    fn key(
        sim: &Sim,
    ) -> (
        Vec<(u8, u8)>,
        Vec<Option<usize>>,
        usize,
        [Option<u64>; 2],
        usize,
    ) {
        let offset = |deadline: Option<u64>| match deadline {
            None => 3,
            Some(d) if d < sim.now => 2,
            Some(d) => (d - sim.now) as u8,
        };
        let age = |opened: Option<u64>| {
            opened.map(|at| sim.now.saturating_sub(at).min(sim.config.batch_ticks))
        };
        let position = |item: &Item| sim.queued.iter().position(|q| q == item);
        (
            sim.queued
                .iter()
                .map(|i| (i.priority, offset(i.deadline)))
                .collect(),
            sim.machine
                .pending
                .values()
                .map(|(_, item)| position(item))
                .collect(),
            sim.running.len(),
            [age(sim.opened), age(sim.machine.window_open)],
            sim.machine.in_flight,
        )
    }

    /// The documented dequeue order: priority descending, then arrival.
    fn dequeue_order<'a>(items: impl IntoIterator<Item = &'a Item>) -> Vec<Item> {
        let mut items: Vec<Item> = items.into_iter().copied().collect();
        items.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.id.cmp(&b.id)));
        items
    }

    fn ids<'a>(items: impl IntoIterator<Item = &'a Item>) -> Vec<u64> {
        items.into_iter().map(|item| item.id).collect()
    }

    /// What every transition must do: offers are refused exactly at the
    /// cap, and a pump closes the window exactly when it is full or
    /// `batch_ticks` old, sheds exactly the items whose deadline is
    /// behind the clock, and runs the first `batch_max` survivors in
    /// priority-then-arrival order.
    fn edge(before: &Sim, event: Event, after: &Sim) -> Result<(), String> {
        let config = before.config;
        let in_flight = before.queued.len() + before.running.len();
        if let Some(offered) = after.offered {
            if (offered == Offered::Full) != (in_flight >= config.max_in_flight) {
                return Err(format!(
                    "offer at {in_flight} in flight, cap {}: {offered:?}",
                    config.max_in_flight
                ));
            }
        }
        if !matches!(event, Tick | Pump) {
            return Ok(());
        }
        let now = after.now;
        let due = before.opened.is_some_and(|opened| {
            before.queued.len() >= config.batch_max || now >= opened + config.batch_ticks
        });
        let Some(window) = &after.window else {
            return match due {
                true => Err(format!("a due window stayed open at tick {now}")),
                false => Ok(()),
            };
        };
        if !due {
            return Err(format!("a filling window closed at tick {now}"));
        }
        let missed = |item: &Item| item.deadline.is_some_and(|d| d < now);
        let mut shed = ids(window.shed.iter().map(|(item, _)| item));
        shed.sort_unstable();
        let want = ids(before.queued.iter().filter(|item| missed(item)));
        if shed != want {
            return Err(format!(
                "at tick {now} shed seqs {shed:?}, but the missed deadlines are {want:?}"
            ));
        }
        if let Some((item, d)) = window
            .shed
            .iter()
            .find(|(item, d)| item.deadline != Some(*d))
        {
            return Err(format!("seq {} shed as missing {d}", item.id));
        }
        let mut survivors = dequeue_order(before.queued.iter().filter(|i| !missed(i)));
        survivors.truncate(config.batch_max);
        if window.run != survivors {
            return Err(format!(
                "at tick {now} ran seqs {:?}, want {:?}: the first batch_max survivors by priority, then arrival",
                ids(&window.run),
                ids(&survivors)
            ));
        }
        Ok(())
    }

    /// What every reachable state must satisfy, including that ticks and
    /// resolutions alone empty it within `cap × (batch_ticks + 1)` ticks.
    fn check(sim: &Sim, step: &impl Fn(&mut Sim, Event)) -> Result<(), String> {
        let (m, config) = (&sim.machine, sim.config);
        let in_flight = sim.queued.len() + sim.running.len();
        if m.in_flight != in_flight || in_flight > config.max_in_flight {
            return Err(format!(
                "machine has {} in flight, queued + running = {in_flight}, cap {}",
                m.in_flight, config.max_in_flight
            ));
        }
        if !m
            .pending
            .values()
            .map(|(_, item)| *item)
            .eq(dequeue_order(&sim.queued))
        {
            return Err(format!(
                "machine queue {:?} is not the admitted items in dequeue order",
                m.pending
            ));
        }
        if m.window_open != sim.opened {
            return Err(format!(
                "window opened at {:?}, want {:?}",
                m.window_open, sim.opened
            ));
        }
        let s = m.stats;
        let completed = s.executed + s.failed;
        let started = completed + sim.running.len() as u64;
        let accounted = sim.queued.len() as u64 + s.shed_deadline + started;
        if s.submitted != s.admitted + s.rejected_overload
            || s.admitted != accounted
            || (s.coalesced_batches, s.queue_depth_watermark) != (sim.batches, sim.watermark)
            || !(s.submitted >= s.admitted && s.admitted >= started && started >= completed)
        {
            return Err(format!(
                "counters {s:?} disagree with {in_flight} in flight"
            ));
        }
        let limit = config.max_in_flight as u64 * (config.batch_ticks + 1);
        let mut settling = sim.clone();
        step(&mut settling, Resolve);
        for _ in 0..limit {
            step(&mut settling, Tick);
            step(&mut settling, Resolve);
        }
        if settling.machine.in_flight != 0 || !settling.queued.is_empty() {
            return Err(format!("not empty {limit} ticks after the last offer"));
        }
        Ok(())
    }

    fn explore(
        config: AdmissionConfig,
        step: impl Fn(&mut Sim, Event),
    ) -> Result<(usize, usize), Violation<Event>> {
        checker::explore(Sim::new(config), &events(), key, &step, edge, |sim| {
            check(sim, &step)
        })
    }

    #[test]
    fn every_small_configuration_keeps_the_admission_invariants() {
        let (mut states, mut deepest) = (0, 0);
        for config in configs() {
            let (n, depth) = explore(config, apply).unwrap_or_else(|v| panic!("{config:?}: {v:?}"));
            states += n;
            deepest = deepest.max(depth);
        }
        // Breadth-first to a fixed point covers every event sequence of
        // every length; the deepest state is six events from the start.
        assert!(deepest >= 6, "{states} states, deepest at {deepest}");
    }

    /// `due` with one deliberate bug: an item whose deadline is the
    /// current tick is shed (`now >= d`) instead of run. It is the real
    /// `due` one tick ahead (`now + 1 > d`), with one more tick of window
    /// age so the window rule stays where it was.
    fn due_shedding_at_ge(m: &mut Admission<Item>, now: u64) -> Option<Window<Item>> {
        m.config.batch_ticks += 1;
        let window = m.due(now + 1);
        m.config.batch_ticks -= 1;
        if window.is_some() {
            m.window_open = m.window_open.map(|_| now);
        }
        window
    }

    #[test]
    fn shedding_at_the_deadline_tick_is_caught_with_its_trace() {
        let mutant = |sim: &mut Sim, event: Event| step_with(sim, event, due_shedding_at_ge);
        let config = AdmissionConfig::default()
            .with_max_in_flight(1)
            .with_batch_max(1)
            .with_batch_ticks(0);
        let violation = explore(config, mutant).expect_err("the injected bug went unnoticed");
        assert!(
            violation.message.contains("missed deadlines"),
            "{violation:?}"
        );
        assert_eq!(violation.trace, [Offer(0, Some(0)), Pump]);
        // The trace is the way there: replayed through the mutant it
        // reproduces the violation, through the real machine it does not.
        let replay = |step: &dyn Fn(&mut Sim, Event)| {
            let mut sim = Sim::new(config);
            for &event in &violation.trace {
                let before = sim.clone();
                step(&mut sim, event);
                edge(&before, event, &sim)?;
            }
            check(&sim, &step)
        };
        assert_eq!(replay(&mutant), Err(violation.message.clone()));
        assert_eq!(replay(&apply), Ok(()));
    }
}
