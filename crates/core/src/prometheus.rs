//! The Prometheus text-format rendering of the serving metrics
//! (re-exported as [`crate::serve::export_metrics`]).

use crate::engine::MetricsSnapshot;
use crate::serve::{AdmissionSnapshot, HistogramSnapshot};
use crate::sharded::ShardStats;
use std::fmt::Write as _;

/// One exported series: `(name, Prometheus type, value, help)`.
type Series = (&'static str, &'static str, u64, &'static str);

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

fn push_series(out: &mut String, (name, kind, value, help): Series) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Every [`MetricsSnapshot`] field as a series. The destructuring is
/// exhaustive on purpose: a field added to the snapshot does not compile
/// until it is given a row here, so none is left off the export.
#[rustfmt::skip]
fn engine_series(m: &MetricsSnapshot) -> [Series; 17] {
    let MetricsSnapshot {
        queries, plan_cache_hits, plan_cache_misses, keyword_probes, keyword_hits,
        kernel_candidates, kernel_visited, kernel_distance_checks, remote_retries,
        excluded_workers, warm_failovers, cold_reprovisions, readmissions, health_probes,
        rebalance_moves, provisions_sent, feature_sets_sent,
    } = *m;
    [
        ("spq_engine_queries_total", COUNTER, queries, "Queries executed through any entry point."),
        ("spq_engine_plan_cache_hits_total", COUNTER, plan_cache_hits,
            "Always 0: no engine caches a plan."),
        ("spq_engine_plan_cache_misses_total", COUNTER, plan_cache_misses,
            "Job partitions planned, one per traced request per engine."),
        ("spq_engine_keyword_probes_total", COUNTER, keyword_probes,
            "Query keywords probed against the keyword index."),
        ("spq_engine_keyword_hits_total", COUNTER, keyword_hits,
            "Probed keywords that hit a non-empty posting list."),
        ("spq_engine_kernel_candidates_total", COUNTER, kernel_candidates,
            "Candidate features the serving kernel scored."),
        ("spq_engine_kernel_visited_total", COUNTER, kernel_visited,
            "Candidates the kernel visited before its global-tau stop."),
        ("spq_engine_kernel_distance_checks_total", COUNTER, kernel_distance_checks,
            "Distance checks the kernel made."),
        ("spq_remote_retries_total", COUNTER, remote_retries,
            "Shard re-dispatches after remote worker failures."),
        ("spq_remote_excluded_workers", GAUGE, excluded_workers,
            "Remote workers currently out of rotation."),
        ("spq_remote_warm_failovers_total", COUNTER, warm_failovers,
            "Failovers served by flipping to a warm replica."),
        ("spq_remote_cold_reprovisions_total", COUNTER, cold_reprovisions,
            "Failovers that re-shipped a provision payload."),
        ("spq_remote_readmissions_total", COUNTER, readmissions,
            "Remote workers re-admitted after probe hysteresis."),
        ("spq_remote_health_probes_total", COUNTER, health_probes,
            "Health probes sent to excluded remote workers."),
        ("spq_remote_rebalance_moves_total", COUNTER, rebalance_moves,
            "Provision round-trips the remote rebalancer performed."),
        ("spq_remote_provisions_sent_total", COUNTER, provisions_sent,
            "Shard installs attempted on remote workers."),
        ("spq_remote_feature_sets_sent_total", COUNTER, feature_sets_sent,
            "Feature-set shipments to remote workers."),
    ]
}

/// The admission queue's exported series.
#[rustfmt::skip]
fn admission_series(a: &AdmissionSnapshot) -> [Series; 8] {
    [
        ("spq_admission_submitted_total", COUNTER, a.submitted,
            "Requests offered to the admission queue."),
        ("spq_admission_admitted_total", COUNTER, a.admitted,
            "Requests admitted past the in-flight cap."),
        ("spq_admission_rejected_overload_total", COUNTER, a.rejected_overload,
            "Requests rejected at the cap (Overloaded)."),
        ("spq_admission_shed_deadline_total", COUNTER, a.shed_deadline,
            "Requests shed past their deadline at dequeue."),
        ("spq_admission_executed_total", COUNTER, a.executed,
            "Admitted requests that delivered a response."),
        ("spq_admission_coalesced_batches_total", COUNTER, a.coalesced_batches,
            "Windows the serve loop executed as one coalesced batch."),
        ("spq_admission_queue_depth", GAUGE, a.queue_depth as u64,
            "Requests currently queued."),
        ("spq_admission_queue_depth_watermark", GAUGE, a.queue_depth_watermark as u64,
            "Highest queue depth observed at admission."),
    ]
}

/// Renders a scrape-friendly (Prometheus text format) export of the
/// serving metrics: every field of the engine's cumulative
/// [`MetricsSnapshot`], optional per-shard traffic lines, and — when a
/// front-end runs — the admission counters and the log-bucketed latency
/// histogram (cumulative `_bucket{le="…"}` lines).
pub fn export_metrics(
    engine: &MetricsSnapshot,
    shards: &[ShardStats],
    admission: Option<&AdmissionSnapshot>,
    latency: Option<&HistogramSnapshot>,
) -> String {
    let mut out = String::new();
    for series in engine_series(engine) {
        push_series(&mut out, series);
    }

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

    for series in admission.map(admission_series).into_iter().flatten() {
        push_series(&mut out, series);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field of `snapshot`, in declaration order. The destructuring
    /// is exhaustive on purpose: a counter added to the struct does not
    /// compile until it is listed here, so the export test cannot miss it.
    fn fields_mut(snapshot: &mut MetricsSnapshot) -> [&mut u64; 17] {
        let MetricsSnapshot {
            queries,
            plan_cache_hits,
            plan_cache_misses,
            keyword_probes,
            keyword_hits,
            kernel_candidates,
            kernel_visited,
            kernel_distance_checks,
            remote_retries,
            excluded_workers,
            warm_failovers,
            cold_reprovisions,
            readmissions,
            health_probes,
            rebalance_moves,
            provisions_sent,
            feature_sets_sent,
        } = snapshot;
        [
            queries,
            plan_cache_hits,
            plan_cache_misses,
            keyword_probes,
            keyword_hits,
            kernel_candidates,
            kernel_visited,
            kernel_distance_checks,
            remote_retries,
            excluded_workers,
            warm_failovers,
            cold_reprovisions,
            readmissions,
            health_probes,
            rebalance_moves,
            provisions_sent,
            feature_sets_sent,
        ]
    }

    #[test]
    fn every_snapshot_field_is_exported_exactly_once() {
        // Distinct values, so a series reading the wrong field shows too.
        let mut snapshot = MetricsSnapshot::default();
        for (i, value) in fields_mut(&mut snapshot).into_iter().enumerate() {
            *value = 100 + i as u64;
        }
        let text = export_metrics(&snapshot, &[], None, None);
        for (i, (name, kind, value, _)) in engine_series(&snapshot).into_iter().enumerate() {
            assert_eq!(value, 100 + i as u64, "{name} reads the wrong field");
            let lines = |prefix: String| text.lines().filter(|l| l.starts_with(&prefix)).count();
            assert_eq!(lines(format!("{name} ")), 1, "{name} value line");
            assert_eq!(
                lines(format!("# TYPE {name} {kind}")),
                1,
                "{name} type line"
            );
            assert_eq!(lines(format!("# HELP {name} ")), 1, "{name} help line");
        }
        assert_eq!(text.lines().filter(|l| l.starts_with("# TYPE")).count(), 17);
    }
}
