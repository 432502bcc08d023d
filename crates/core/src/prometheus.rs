//! The Prometheus text-format rendering of the serving metrics
//! (re-exported as [`crate::serve::export_metrics`]).

use crate::engine::MetricsSnapshot;
use crate::serve::{AdmissionSnapshot, HistogramSnapshot};
use crate::sharded::ShardStats;
use std::fmt::Write as _;

fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders a scrape-friendly (Prometheus text format) export of the
/// serving metrics: the engine's cumulative [`MetricsSnapshot`],
/// optional per-shard traffic lines, and — when a front-end runs — the
/// admission counters and the log-bucketed latency histogram
/// (cumulative `_bucket{le="…"}` lines).
pub fn export_metrics(
    engine: &MetricsSnapshot,
    shards: &[ShardStats],
    admission: Option<&AdmissionSnapshot>,
    latency: Option<&HistogramSnapshot>,
) -> String {
    let mut out = String::new();
    push_counter(
        &mut out,
        "spq_engine_queries_total",
        "Queries executed through any entry point.",
        engine.queries,
    );
    push_counter(
        &mut out,
        "spq_engine_plan_cache_hits_total",
        "Queries whose partition plan was served from cache.",
        engine.plan_cache_hits,
    );
    push_counter(
        &mut out,
        "spq_engine_plan_cache_misses_total",
        "Queries that built (and cached) their partition plan.",
        engine.plan_cache_misses,
    );
    push_counter(
        &mut out,
        "spq_engine_keyword_probes_total",
        "Query keywords probed against the keyword index.",
        engine.keyword_probes,
    );
    push_counter(
        &mut out,
        "spq_engine_keyword_hits_total",
        "Probed keywords that hit a non-empty posting list.",
        engine.keyword_hits,
    );
    push_counter(
        &mut out,
        "spq_remote_retries_total",
        "Shard re-dispatches after remote worker failures.",
        engine.remote_retries,
    );
    push_gauge(
        &mut out,
        "spq_remote_excluded_workers",
        "Remote workers currently out of rotation.",
        engine.excluded_workers,
    );
    push_counter(
        &mut out,
        "spq_remote_warm_failovers_total",
        "Failovers served by flipping to a warm replica.",
        engine.warm_failovers,
    );
    push_counter(
        &mut out,
        "spq_remote_cold_reprovisions_total",
        "Failovers that re-shipped a provision payload.",
        engine.cold_reprovisions,
    );
    push_counter(
        &mut out,
        "spq_remote_readmissions_total",
        "Remote workers re-admitted after probe hysteresis.",
        engine.readmissions,
    );

    if !shards.is_empty() {
        let _ = writeln!(
            out,
            "# HELP spq_shard_queries_total Queries served per shard."
        );
        let _ = writeln!(out, "# TYPE spq_shard_queries_total counter");
        for s in shards {
            let _ = writeln!(
                out,
                "spq_shard_queries_total{{shard=\"{}\"}} {}",
                s.shard, s.queries
            );
        }
        let _ = writeln!(
            out,
            "# HELP spq_shard_gather_bytes_total Wire bytes shipped per shard."
        );
        let _ = writeln!(out, "# TYPE spq_shard_gather_bytes_total counter");
        for s in shards {
            let _ = writeln!(
                out,
                "spq_shard_gather_bytes_total{{shard=\"{}\"}} {}",
                s.shard, s.bytes_shipped
            );
        }
    }

    if let Some(a) = admission {
        push_counter(
            &mut out,
            "spq_admission_submitted_total",
            "Requests offered to the admission queue.",
            a.submitted,
        );
        push_counter(
            &mut out,
            "spq_admission_admitted_total",
            "Requests admitted past the in-flight cap.",
            a.admitted,
        );
        push_counter(
            &mut out,
            "spq_admission_rejected_overload_total",
            "Requests rejected at the cap (Overloaded).",
            a.rejected_overload,
        );
        push_counter(
            &mut out,
            "spq_admission_shed_deadline_total",
            "Requests shed past their deadline at dequeue.",
            a.shed_deadline,
        );
        push_counter(
            &mut out,
            "spq_admission_executed_total",
            "Admitted requests that delivered a response.",
            a.executed,
        );
        push_counter(
            &mut out,
            "spq_admission_coalesced_batches_total",
            "Windows the serve loop executed as one coalesced batch.",
            a.coalesced_batches,
        );
        push_gauge(
            &mut out,
            "spq_admission_queue_depth",
            "Requests currently queued.",
            a.queue_depth as u64,
        );
        push_gauge(
            &mut out,
            "spq_admission_queue_depth_watermark",
            "Highest queue depth observed at admission.",
            a.queue_depth_watermark as u64,
        );
    }

    if let Some(h) = latency {
        let name = "spq_request_latency_micros";
        let _ = writeln!(
            out,
            "# HELP {name} Per-request execution wall time, microseconds."
        );
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &n) in h.buckets.iter().enumerate() {
            cumulative += n;
            match HistogramSnapshot::upper_bound(i) {
                Some(le) => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum_micros);
        let _ = writeln!(out, "{name}_count {}", h.count());
    }
    out
}
