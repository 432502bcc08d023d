//! The versioned `BENCH_MATRIX.json` record format.
//!
//! One [`MatrixReport`] holds the run configuration and one
//! [`MatrixRecord`] per benchmark id. The shape is guarded two ways:
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

use super::json::Json;
use criterion::stats::{Estimate, Outliers};

/// Version of the record shape. **Bump this whenever any field of
/// [`MatrixReport`]/[`MatrixRecord`] changes**, and regenerate the golden
/// fixture; the schema-fingerprint test enforces the coupling.
pub const SCHEMA_VERSION: u32 = 4;

/// The run configuration echoed into the document, so a stored report is
/// self-describing and comparable runs are recognizable.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportConfig {
    /// Dataset / stream seed.
    pub seed: u64,
    /// Corpus size multiplier.
    pub scale: f64,
    /// Measured queries per benchmark id.
    pub queries: usize,
    /// `execute-batch` chunk size.
    pub batch: usize,
    /// Worker threads (serve concurrency, scatter width).
    pub workers: usize,
    /// The id glob this run was restricted to, if any.
    pub filter: Option<String>,
}

/// The deterministic work counters of one benchmark id — with
/// [`MatrixRecord::shed_rate`], everything `spq-bench compare` gates on.
/// Each is a sum over the id's measured stream and a pure function of
/// `(seed, scale, queries, batch, filter)`: the same on any host, at any
/// worker count, on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
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
    /// Σ `JobStats::map_input_records` over the traced single-store
    /// reference pass (the same for every backend and mode of one
    /// corpus/algorithm).
    pub map_input_records: u64,
    /// Σ `COUNTER_MAP_DUPLICATES` over the reference pass: Lemma-1 routed
    /// feature copies beyond the enclosing cell.
    pub map_duplicates: u64,
    /// Σ `COUNTER_REDUCE_FEATURES_EXAMINED` over the reference pass:
    /// features the reducers looked at before early termination.
    pub reduce_features_examined: u64,
    /// Candidate features the serving kernel scored during the mode's run
    /// (the `MetricsSnapshot::kernel_candidates` delta around it). Remote
    /// ids record 0: the manager's snapshot carries no worker kernel
    /// counters.
    pub kernel_candidates: u64,
    /// Candidates the kernel visited before its global-τ stop (the
    /// `kernel_visited` delta; 0 on remote ids, as above).
    pub kernel_visited: u64,
    /// `d(p, f) <= r` evaluations the kernel made (the
    /// `kernel_distance_checks` delta; 0 on remote ids, as above).
    pub kernel_distance_checks: u64,
}

impl Counters {
    /// Every counter with its document key, in document order — the one
    /// list the writer and the gate both walk. The destructuring is
    /// exhaustive on purpose: a field added to the struct does not
    /// compile until it is listed here, so it is written and compared.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        let Counters {
            shards_touched,
            shuffle_records,
            shuffle_bytes,
            keyword_terms_probed,
            keyword_terms_matched,
            retries,
            results,
            map_input_records,
            map_duplicates,
            reduce_features_examined,
            kernel_candidates,
            kernel_visited,
            kernel_distance_checks,
        } = *self;
        [
            ("shards_touched", shards_touched),
            ("shuffle_records", shuffle_records),
            ("shuffle_bytes", shuffle_bytes),
            ("keyword_terms_probed", keyword_terms_probed),
            ("keyword_terms_matched", keyword_terms_matched),
            ("retries", retries),
            ("results", results),
            ("map_input_records", map_input_records),
            ("map_duplicates", map_duplicates),
            ("reduce_features_examined", reduce_features_examined),
            ("kernel_candidates", kernel_candidates),
            ("kernel_visited", kernel_visited),
            ("kernel_distance_checks", kernel_distance_checks),
        ]
    }
}

/// One benchmark id's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRecord {
    /// The full id, `{corpus}/{algorithm}/{backend}/{mode}`.
    pub id: String,
    /// First id segment.
    pub corpus: String,
    /// Second id segment (`pSPQ`, `eSPQlen`, `eSPQsco`).
    pub algorithm: String,
    /// Third id segment (`local`, `sharded:N`, `remote:N`).
    pub backend: String,
    /// Fourth id segment (`execute`, `execute-batch`, `serve`,
    /// `serve-admission`).
    pub mode: String,
    /// Objects actually served (after scaling).
    pub objects: usize,
    /// Latency observations behind the estimates.
    pub samples: usize,
    /// Queries per second over the mode's wall clock.
    pub qps: f64,
    /// Fraction of offered requests not answered — overload rejections
    /// plus deadline sheds over total offered. `0.0` for every mode but
    /// `serve-admission`, where the 2×-overload harness makes it
    /// deterministic and nonzero by construction. Gated with the
    /// [`counters`](Self::counters).
    pub shed_rate: f64,
    /// `true` iff every response matched the single-store reference
    /// byte for byte (the runner asserts it, so a written record always
    /// says `true` — the field exists so a reader need not know that).
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
    /// One record per benchmark id, in corpus/algorithm/backend/mode
    /// order.
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
            "  \"config\": {{ \"seed\": {}, \"scale\": {:?}, \"queries\": {}, \"batch\": {}, \"workers\": {}, \"filter\": {filter} }},\n",
            self.config.seed, self.config.scale, self.config.queries, self.config.batch, self.config.workers
        ));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"id\": {:?},\n      \"corpus\": {:?},\n      \"algorithm\": {:?},\n      \"backend\": {:?},\n      \"mode\": {:?},\n",
                r.id, r.corpus, r.algorithm, r.backend, r.mode
            ));
            out.push_str(&format!(
                "      \"objects\": {}, \"samples\": {}, \"qps\": {:?}, \"shed_rate\": {:?}, \"identical_to_reference\": {},\n",
                r.objects, r.samples, r.qps, r.shed_rate, r.identical_to_reference
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
            batch: field_u64(cfg, "batch")? as usize,
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

fn parse_counters(v: &Json) -> Result<Counters, String> {
    let c = v.get("counters").ok_or("missing counters")?;
    Ok(Counters {
        shards_touched: field_u64(c, "shards_touched")?,
        shuffle_records: field_u64(c, "shuffle_records")?,
        shuffle_bytes: field_u64(c, "shuffle_bytes")?,
        keyword_terms_probed: field_u64(c, "keyword_terms_probed")?,
        keyword_terms_matched: field_u64(c, "keyword_terms_matched")?,
        retries: field_u64(c, "retries")?,
        results: field_u64(c, "results")?,
        map_input_records: field_u64(c, "map_input_records")?,
        map_duplicates: field_u64(c, "map_duplicates")?,
        reduce_features_examined: field_u64(c, "reduce_features_examined")?,
        kernel_candidates: field_u64(c, "kernel_candidates")?,
        kernel_visited: field_u64(c, "kernel_visited")?,
        kernel_distance_checks: field_u64(c, "kernel_distance_checks")?,
    })
}

fn parse_record(v: &Json) -> Result<MatrixRecord, String> {
    let outliers = v.get("outliers").ok_or("missing outliers")?;
    Ok(MatrixRecord {
        id: field_str(v, "id")?,
        corpus: field_str(v, "corpus")?,
        algorithm: field_str(v, "algorithm")?,
        backend: field_str(v, "backend")?,
        mode: field_str(v, "mode")?,
        objects: field_u64(v, "objects")? as usize,
        samples: field_u64(v, "samples")? as usize,
        qps: field_f64(v, "qps")?,
        shed_rate: field_f64(v, "shed_rate")?,
        identical_to_reference: v
            .get("identical_to_reference")
            .and_then(Json::as_bool)
            .ok_or("missing identical_to_reference")?,
        counters: parse_counters(v)?,
        mean_ms: parse_estimate(v, "mean_ms")?,
        p50_ms: parse_estimate(v, "p50_ms")?,
        p99_ms: parse_estimate(v, "p99_ms")?,
        outliers: Outliers {
            severe_low: field_u64(outliers, "severe_low")? as usize,
            mild_low: field_u64(outliers, "mild_low")? as usize,
            mild_high: field_u64(outliers, "mild_high")? as usize,
            severe_high: field_u64(outliers, "severe_high")? as usize,
        },
    })
}

/// A fixed synthetic report used by the golden-file test and the schema
/// fingerprint — hand-set values, no benchmarking involved.
pub fn synthetic_fixture() -> MatrixReport {
    let est = |point: f64, lo: f64, hi: f64| Estimate { point, lo, hi };
    let record = |id: &str, backend: &str, mode: &str, base: f64, shed_rate: f64| {
        let (corpus, rest) = id.split_once('/').expect("id has axes");
        let algorithm = rest.split('/').next().expect("algorithm axis");
        MatrixRecord {
            id: id.to_owned(),
            corpus: corpus.to_owned(),
            algorithm: algorithm.to_owned(),
            backend: backend.to_owned(),
            mode: mode.to_owned(),
            objects: 1_000,
            samples: 24,
            qps: 4000.0 / base,
            shed_rate,
            identical_to_reference: true,
            counters: Counters {
                shards_touched: 24,
                shuffle_records: 9_600,
                shuffle_bytes: 115_200,
                keyword_terms_probed: 72,
                keyword_terms_matched: 70,
                retries: 0,
                results: 240,
                map_input_records: 14_400,
                map_duplicates: 1_200,
                reduce_features_examined: 2_400,
                kernel_candidates: 48_000,
                kernel_visited: 480,
                kernel_distance_checks: 9_600,
            },
            mean_ms: est(base, base * 0.9, base * 1.1),
            p50_ms: est(base * 0.95, base * 0.85, base * 1.05),
            p99_ms: est(base * 2.0, base * 1.7, base * 2.4),
            outliers: Outliers {
                severe_low: 0,
                mild_low: 0,
                mild_high: 1,
                severe_high: 0,
            },
        }
    };
    MatrixReport {
        schema_version: SCHEMA_VERSION,
        config: ReportConfig {
            seed: 2017,
            scale: 0.25,
            queries: 24,
            batch: 8,
            workers: 4,
            filter: Some("uniform-120k/*".to_owned()),
        },
        records: vec![
            record(
                "uniform-120k/pSPQ/local/execute",
                "local",
                "execute",
                1.25,
                0.0,
            ),
            record(
                "uniform-120k/pSPQ/sharded:4/execute-batch",
                "sharded:4",
                "execute-batch",
                0.75,
                0.0,
            ),
            record(
                "uniform-120k/eSPQlen/remote:2/serve",
                "remote:2",
                "serve",
                2.5,
                0.0,
            ),
            record(
                "uniform-120k/eSPQsco/local/serve-admission",
                "local",
                "serve-admission",
                0.6,
                0.5,
            ),
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
            // Arrays are homogeneous; one representative is the shape.
            if let Some(first) = items.first() {
                walk(&format!("{prefix}[]"), first, paths);
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
            .replace("\"schema_version\": 4", "\"schema_version\": 999");
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn missing_fields_are_named_in_errors() {
        let text = synthetic_fixture().to_json().replace("\"qps\"", "\"zzz\"");
        let err = MatrixReport::from_json(&text).unwrap_err();
        assert!(err.contains("qps"), "{err}");
    }
}
