//! Harness-side spans: the per-layer numbers of the `--trace` run.
//!
//! The program under test has no timing seam yet (ROADMAP, "one timing
//! seam"), so the harness wraps its *calls into* each layer's public
//! functions. A span is `{name, start, end, parent, request_id}`; spans
//! of one request share the id. Everything stays in memory until the
//! run ends. A layer's **self time** is its span minus the part of that
//! interval its child spans cover, so nested layers are not counted
//! twice and overlapping children are not subtracted twice.

use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval (`>= start_ns`).
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub request_id: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for a single-threaded replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Starts a recorder; all span times are relative to this moment.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its id with `f`'s value.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let id = self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (id, value)
    }

    /// Adds an already-measured span (used for durations the program
    /// itself reports, such as `JobStats` phase walls).
    pub fn push(&mut self, span: Span) -> SpanId {
        debug_assert!(span.end_ns >= span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`close`](Self::close) —
    /// for a parent that must exist before its children are recorded.
    pub fn open(&mut self, name: &'static str, request_id: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        })
    }

    /// Ends a span started with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Duration of span `id` in milliseconds.
    pub fn span_ms(&self, id: SpanId) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }
}

/// Self time (ns) of every span, index-aligned with `spans`: the span's
/// duration minus the union of its children's intervals, each child
/// clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}
