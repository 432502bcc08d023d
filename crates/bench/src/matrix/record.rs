//! The versioned `BENCH_MATRIX.json` record format.
//!
//! One [`MatrixReport`] holds the run configuration and one
//! [`MatrixRecord`] per row of the job and serving tables. The shape is
//! guarded two ways:
//!
//! * [`SCHEMA_VERSION`] is embedded in every document and checked on
//!   read — `compare` refuses to diff documents of different versions.
//! * [`schema_fingerprint`] walks the serialized key paths of a synthetic
//!   document; the golden-file test pins its value, so any field added,
//!   removed or renamed fails the build until the version is bumped and
//!   the fixture regenerated.
//!
//! Floats are serialized with Rust's `{:?}` (shortest representation
//! that round-trips), so `from_json(to_json(r))` reproduces every value
//! bit for bit — the property the serde-style round-trip proptest pins.
//! Every gated counter is an integer.

use super::json::Json;
use criterion::stats::{Estimate, Outliers};

/// Version of the record shape. **Bump this whenever any field of
/// [`MatrixReport`]/[`MatrixRecord`] changes**, and regenerate the golden
/// fixture; the schema-fingerprint test enforces the coupling.
pub const SCHEMA_VERSION: u32 = 6;

/// The run configuration echoed into the document, so a stored report is
/// self-describing and comparable runs are recognizable.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportConfig {
    /// Dataset / stream seed.
    pub seed: u64,
    /// Corpus size multiplier.
    pub scale: f64,
    /// Measured queries per row.
    pub queries: usize,
    /// Worker threads (job cluster, serve concurrency, scatter width).
    pub workers: usize,
    /// The id glob this run was restricted to, if any.
    pub filter: Option<String>,
}

/// The gated counters of one `job/…` row: sums over one
/// [`spq_core::SpqExecutor::run_dataset`] per stream query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Σ `JobStats::map_input_records`, `|O| + |F|` records per job.
    pub map_input_records: u64,
    /// Σ `COUNTER_MAP_DUPLICATES`: Lemma-1 routed feature copies beyond
    /// the enclosing cell.
    pub map_duplicates: u64,
    /// Σ `COUNTER_REDUCE_FEATURES_EXAMINED`: features the reducers looked
    /// at before early termination.
    pub reduce_features_examined: u64,
}

/// The gated counters of one `serve/…` row: sums over the responses of
/// the row's sequential `execute` run, and the service's kernel counter
/// deltas around it. The runner's concurrent and admission runs must sum
/// to the same values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Σ `QueryStats::shards_touched`.
    pub shards_touched: u64,
    /// Σ `QueryStats::shuffle_records`.
    pub shuffle_records: u64,
    /// Σ `QueryStats::shuffle_bytes`.
    pub shuffle_bytes: u64,
    /// Σ `QueryStats::keyword_terms_probed`.
    pub keyword_terms_probed: u64,
    /// Σ `QueryStats::keyword_terms_matched`.
    pub keyword_terms_matched: u64,
    /// Σ `QueryStats::retries`.
    pub retries: u64,
    /// Ranked objects returned, over all responses.
    pub results: u64,
    /// Candidate features the serving kernel scored during the run (the
    /// `MetricsSnapshot::kernel_candidates` delta around it). Remote
    /// rows record 0: the manager's snapshot carries no worker kernel
    /// counters.
    pub kernel_candidates: u64,
    /// Candidates the kernel visited before its global-τ stop (the
    /// `kernel_visited` delta; 0 on remote rows, as above).
    pub kernel_visited: u64,
    /// `d(p, f) <= r` evaluations the kernel made (the
    /// `kernel_distance_checks` delta; 0 on remote rows, as above).
    pub kernel_distance_checks: u64,
}

/// Everything `spq-bench compare` gates on for one row. Each value is a
/// pure function of `(seed, scale, queries, filter)`: the same on any
/// host, at any worker count, on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counters {
    /// A `job/…` row's counters.
    Job(JobCounters),
    /// A `serve/…` row's counters.
    Serve(ServeCounters),
}

impl Counters {
    /// Every gated value with its document key, in document order — the
    /// one list the writer and the gate both walk. The destructuring is
    /// exhaustive on purpose: a field added to either struct does not
    /// compile until it is listed here, so it is written and compared.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            Counters::Job(JobCounters {
                map_input_records,
                map_duplicates,
                reduce_features_examined,
            }) => vec![
                ("map_input_records", map_input_records),
                ("map_duplicates", map_duplicates),
                ("reduce_features_examined", reduce_features_examined),
            ],
            Counters::Serve(ServeCounters {
                shards_touched,
                shuffle_records,
                shuffle_bytes,
                keyword_terms_probed,
                keyword_terms_matched,
                retries,
                results,
                kernel_candidates,
                kernel_visited,
                kernel_distance_checks,
            }) => vec![
                ("shards_touched", shards_touched),
                ("shuffle_records", shuffle_records),
                ("shuffle_bytes", shuffle_bytes),
                ("keyword_terms_probed", keyword_terms_probed),
                ("keyword_terms_matched", keyword_terms_matched),
                ("retries", retries),
                ("results", results),
                ("kernel_candidates", kernel_candidates),
                ("kernel_visited", kernel_visited),
                ("kernel_distance_checks", kernel_distance_checks),
            ],
        }
    }
}

/// One row's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRecord {
    /// The row's id, `job/{corpus}/{algorithm}` or
    /// `serve/{corpus}/{backend}`; its first segment names the
    /// table and so the kind of [`counters`](Self::counters).
    pub id: String,
    /// Objects actually served (after scaling).
    pub objects: usize,
    /// Latency observations behind the estimates.
    pub samples: usize,
    /// Queries per second over the row's wall clock.
    pub qps: f64,
    /// `true` iff every answer matched the corpus's reference byte for
    /// byte (the runner asserts it, so a written record always says
    /// `true` — the field exists so a reader need not know that).
    pub identical_to_reference: bool,
    /// The gated deterministic counters.
    pub counters: Counters,
    /// Mean latency (ms) with its bootstrap 95% interval — like `qps`,
    /// `p50_ms` and `p99_ms`, information only: never compared.
    pub mean_ms: Estimate,
    /// Median latency (ms) with its bootstrap 95% interval.
    pub p50_ms: Estimate,
    /// 99th-percentile latency (ms) with its bootstrap 95% interval.
    pub p99_ms: Estimate,
    /// Tukey-fence outlier census of the latency sample.
    pub outliers: Outliers,
}

/// A full `BENCH_MATRIX.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// The shape version this document was written at.
    pub schema_version: u32,
    /// Run configuration echo.
    pub config: ReportConfig,
    /// One record per row: per corpus, its job rows in algorithm order,
    /// then its serving rows in backend order.
    pub records: Vec<MatrixRecord>,
}

fn fmt_estimate(e: &Estimate) -> String {
    format!(
        "{{ \"point\": {:?}, \"lo\": {:?}, \"hi\": {:?} }}",
        e.point, e.lo, e.hi
    )
}

impl MatrixReport {
    /// Renders the document. Key order is fixed; floats use shortest
    /// round-trip formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n  \"bench\": \"spq-bench matrix\",\n",
            self.schema_version
        ));
        let filter = match &self.config.filter {
            Some(f) => format!("{f:?}"),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "  \"config\": {{ \"seed\": {}, \"scale\": {:?}, \"queries\": {}, \"workers\": {}, \"filter\": {filter} }},\n",
            self.config.seed, self.config.scale, self.config.queries, self.config.workers
        ));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"id\": {:?},\n      \"objects\": {}, \"samples\": {}, \"qps\": {:?}, \"identical_to_reference\": {},\n",
                r.id, r.objects, r.samples, r.qps, r.identical_to_reference
            ));
            let counters: Vec<String> = r
                .counters
                .fields()
                .iter()
                .map(|(key, value)| format!("\"{key}\": {value}"))
                .collect();
            out.push_str(&format!(
                "      \"counters\": {{ {} }},\n",
                counters.join(", ")
            ));
            out.push_str(&format!(
                "      \"mean_ms\": {},\n      \"p50_ms\": {},\n      \"p99_ms\": {},\n",
                fmt_estimate(&r.mean_ms),
                fmt_estimate(&r.p50_ms),
                fmt_estimate(&r.p99_ms)
            ));
            out.push_str(&format!(
                "      \"outliers\": {{ \"severe_low\": {}, \"mild_low\": {}, \"mild_high\": {}, \"severe_high\": {} }}\n    }}{}\n",
                r.outliers.severe_low,
                r.outliers.mild_low,
                r.outliers.mild_high,
                r.outliers.severe_high,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document, checking the schema version.
    pub fn from_json(text: &str) -> Result<MatrixReport, String> {
        let doc = Json::parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")? as u32;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} != supported {SCHEMA_VERSION}; regenerate the document"
            ));
        }
        let cfg = doc.get("config").ok_or("missing config")?;
        let config = ReportConfig {
            seed: field_u64(cfg, "seed")?,
            scale: field_f64(cfg, "scale")?,
            queries: field_u64(cfg, "queries")? as usize,
            workers: field_u64(cfg, "workers")? as usize,
            filter: match cfg.get("filter") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or("config.filter must be a string")?
                        .to_owned(),
                ),
            },
        };
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or("missing records array")?
            .iter()
            .map(parse_record)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MatrixReport {
            schema_version: version,
            config,
            records,
        })
    }

    /// Reads and parses a document from disk.
    pub fn from_file(path: &std::path::Path) -> Result<MatrixReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn parse_estimate(v: &Json, key: &str) -> Result<Estimate, String> {
    let e = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    Ok(Estimate {
        point: field_f64(e, "point")?,
        lo: field_f64(e, "lo")?,
        hi: field_f64(e, "hi")?,
    })
}

/// Reads row `id`'s counters block; the id's table decides its keys.
fn parse_counters(id: &str, v: &Json) -> Result<Counters, String> {
    let c = v.get("counters").ok_or("missing counters")?;
    let u = |key| field_u64(c, key);
    match id.split('/').next() {
        Some("job") => Ok(Counters::Job(JobCounters {
            map_input_records: u("map_input_records")?,
            map_duplicates: u("map_duplicates")?,
            reduce_features_examined: u("reduce_features_examined")?,
        })),
        Some("serve") => Ok(Counters::Serve(ServeCounters {
            shards_touched: u("shards_touched")?,
            shuffle_records: u("shuffle_records")?,
            shuffle_bytes: u("shuffle_bytes")?,
            keyword_terms_probed: u("keyword_terms_probed")?,
            keyword_terms_matched: u("keyword_terms_matched")?,
            retries: u("retries")?,
            results: u("results")?,
            kernel_candidates: u("kernel_candidates")?,
            kernel_visited: u("kernel_visited")?,
            kernel_distance_checks: u("kernel_distance_checks")?,
        })),
        _ => Err(format!("id {id:?} names no table (job/… or serve/…)")),
    }
}

fn parse_record(v: &Json) -> Result<MatrixRecord, String> {
    let id = field_str(v, "id")?;
    let outliers = v.get("outliers").ok_or("missing outliers")?;
    Ok(MatrixRecord {
        objects: field_u64(v, "objects")? as usize,
        samples: field_u64(v, "samples")? as usize,
        qps: field_f64(v, "qps")?,
        identical_to_reference: v
            .get("identical_to_reference")
            .and_then(Json::as_bool)
            .ok_or("missing identical_to_reference")?,
        counters: parse_counters(&id, v)?,
        mean_ms: parse_estimate(v, "mean_ms")?,
        p50_ms: parse_estimate(v, "p50_ms")?,
        p99_ms: parse_estimate(v, "p99_ms")?,
        outliers: Outliers {
            severe_low: field_u64(outliers, "severe_low")? as usize,
            mild_low: field_u64(outliers, "mild_low")? as usize,
            mild_high: field_u64(outliers, "mild_high")? as usize,
            severe_high: field_u64(outliers, "severe_high")? as usize,
        },
        id,
    })
}

/// A fixed synthetic report used by the golden-file test and the schema
/// fingerprint — hand-set values, no benchmarking involved. It holds rows
/// of both tables.
pub fn synthetic_fixture() -> MatrixReport {
    let est = |point: f64, lo: f64, hi: f64| Estimate { point, lo, hi };
    let record = |id: &str, base: f64, counters: Counters| MatrixRecord {
        id: id.to_owned(),
        objects: 1_000,
        samples: 16,
        qps: 4000.0 / base,
        identical_to_reference: true,
        counters,
        mean_ms: est(base, base * 0.9, base * 1.1),
        p50_ms: est(base * 0.95, base * 0.85, base * 1.05),
        p99_ms: est(base * 2.0, base * 1.7, base * 2.4),
        outliers: Outliers {
            severe_low: 0,
            mild_low: 0,
            mild_high: 1,
            severe_high: 0,
        },
    };
    let job = |reduce_features_examined| {
        Counters::Job(JobCounters {
            map_input_records: 14_400,
            map_duplicates: 1_200,
            reduce_features_examined,
        })
    };
    let serve = |kernel_candidates| {
        Counters::Serve(ServeCounters {
            shards_touched: 16,
            shuffle_records: 9_600,
            shuffle_bytes: 115_200,
            keyword_terms_probed: 48,
            keyword_terms_matched: 46,
            retries: 0,
            results: 160,
            kernel_candidates,
            kernel_visited: 480,
            kernel_distance_checks: 9_600,
        })
    };
    MatrixReport {
        schema_version: SCHEMA_VERSION,
        config: ReportConfig {
            seed: 2017,
            scale: 0.25,
            queries: 16,
            workers: 4,
            filter: Some("*/uniform-120k/*".to_owned()),
        },
        records: vec![
            record("job/uniform-120k/pSPQ", 9.5, job(2_400)),
            record("job/uniform-120k/eSPQsco", 7.25, job(600)),
            record("serve/uniform-120k/local", 1.25, serve(48_000)),
            record("serve/uniform-120k/sharded:4", 0.75, serve(48_000)),
            record("serve/uniform-120k/remote:2", 2.5, serve(0)),
        ],
    }
}

/// The sorted set of key paths in a serialized document — the schema's
/// shape as a comparable string. Tests pin this; a change here without a
/// [`SCHEMA_VERSION`] bump is a bug.
pub fn schema_fingerprint() -> String {
    let doc = Json::parse(&synthetic_fixture().to_json()).expect("fixture serializes");
    let mut paths = Vec::new();
    walk("", &doc, &mut paths);
    paths.sort();
    paths.dedup();
    paths.join(";")
}

fn walk(prefix: &str, v: &Json, paths: &mut Vec<String>) {
    match v {
        Json::Obj(members) => {
            for (k, child) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, child, paths);
            }
        }
        Json::Arr(items) => {
            // Rows of both tables share the array: every item adds its
            // paths, and the caller's dedup merges them.
            for item in items {
                walk(&format!("{prefix}[]"), item, paths);
            }
        }
        _ => paths.push(prefix.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trips_exactly() {
        let report = synthetic_fixture();
        let parsed = MatrixReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn wrong_schema_version_is_rejected_with_advice() {
        let text = synthetic_fixture()
            .to_json()
            .replace("\"schema_version\": 6", "\"schema_version\": 999");
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn missing_fields_are_named_in_errors() {
        let text = synthetic_fixture().to_json().replace("\"qps\"", "\"zzz\"");
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(err.contains("qps"), "{err}");
        // A row's table decides its counter keys, so an id naming no
        // table is refused, not read as either kind.
        let text = synthetic_fixture()
            .to_json()
            .replace("\"job/uniform-120k/pSPQ\"", "\"uniform-120k/pSPQ\"");
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(
            err.contains("\"uniform-120k/pSPQ\" names no table"),
            "{err}"
        );
    }
}
