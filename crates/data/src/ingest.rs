//! Streaming ingestion of external `id<TAB>x<TAB>y<TAB>keywords` dumps.
//!
//! The paper evaluates on real Flickr and Twitter dumps; streaming
//! spatial-keyword systems (e.g. Tornado) assume the same input shape:
//! one object per line, tab-separated, with a comma-separated textual
//! keyword list on feature objects. This module turns such dumps into a
//! [`Dataset`] ready for the query engine:
//!
//! * [`ingest_files`] — the common two-file layout: a data-object dump
//!   (`id<TAB>x<TAB>y`) plus a feature-object dump
//!   (`id<TAB>x<TAB>y<TAB>kw1,kw2,...`).
//! * [`ingest_combined`] — a single tagged file (`D`/`F` record tags, the
//!   layout [`crate::tsv`] writes), with an optional `# bounds` header.
//! * [`synthesize_dump`] — a deterministic, seedable dump writer with
//!   Flickr-shaped skew, so tests, examples and CI can fabricate
//!   realistic dumps without network access.
//!
//! The loader **streams**: lines are read into one reusable buffer,
//! keywords are interned into a [`Vocabulary`] (one `String` per distinct
//! word, ever) and packed into a CSR buffer ([`CsrKeywords`]) as they are
//! parsed — a million-object dump never allocates per keyword occurrence.
//!
//! ## Malformed lines
//!
//! Every structural defect — wrong field count, non-finite or unparsable
//! coordinate, bad id, empty keyword list, duplicate id within a dataset,
//! unknown record tag — is reported as a line-numbered
//! [`IngestError::Line`] under the default [`MalformedPolicy::Fail`], or
//! counted and skipped under [`MalformedPolicy::Skip`] (the counters come
//! back in [`Ingested::skips`]). Lines use Unix or CRLF endings
//! interchangeably; blank lines and (in untagged files) `#`-prefixed
//! comment lines are ignored.

use crate::dataset::Dataset;
use crate::generators::{DatasetGenerator, FlickrLike};
use crate::vocab::{CsrKeywords, Vocabulary};
use spq_core::{DataObject, FeatureObject};
use spq_spatial::{Point, Rect};
use spq_text::Term;
use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// What to do with a malformed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MalformedPolicy {
    /// Abort the whole ingest with a line-numbered [`IngestError::Line`].
    #[default]
    Fail,
    /// Drop the line, bump the matching [`SkipCounters`] field, continue.
    Skip,
}

/// Ingestion options.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Malformed-line policy (default: [`MalformedPolicy::Fail`]).
    pub policy: MalformedPolicy,
}

impl IngestOptions {
    /// Options with the lossy [`MalformedPolicy::Skip`] policy.
    pub fn lossy() -> Self {
        Self {
            policy: MalformedPolicy::Skip,
        }
    }
}

/// The structural defect of one malformed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineErrorKind {
    /// Wrong number of tab-separated fields.
    FieldCount {
        /// Fields the record layout requires.
        want: usize,
        /// Fields the line actually has.
        got: usize,
    },
    /// A coordinate failed to parse or is not finite.
    BadCoordinate(String),
    /// The id field failed to parse as `u64`.
    BadId(String),
    /// A keyword token is empty (or, in numeric term mode, not a `u32`).
    BadTerm(String),
    /// A feature line with no keywords at all (such a feature can never
    /// match a query and almost always indicates a mangled dump).
    EmptyKeywords,
    /// An id that already appeared in the same dataset.
    DuplicateId(u64),
    /// A combined-file line with an unrecognized record tag.
    UnknownTag(String),
    /// A `# bounds` header with the wrong shape or a degenerate rect.
    BadHeader,
}

impl fmt::Display for LineErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineErrorKind::FieldCount { want, got } => {
                write!(f, "expected {want} tab-separated fields, got {got}")
            }
            LineErrorKind::BadCoordinate(s) => write!(f, "bad coordinate {s:?}"),
            LineErrorKind::BadId(s) => write!(f, "bad id {s:?}"),
            LineErrorKind::BadTerm(s) => write!(f, "bad term {s:?}"),
            LineErrorKind::EmptyKeywords => write!(f, "feature line has no keywords"),
            LineErrorKind::DuplicateId(id) => write!(f, "duplicate id {id}"),
            LineErrorKind::UnknownTag(s) => write!(f, "unknown record tag {s:?}"),
            LineErrorKind::BadHeader => write!(f, "malformed bounds header"),
        }
    }
}

/// A malformed line: which file, which line (1-based), what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// Label of the offending input (the file path for path-based entry
    /// points).
    pub file: String,
    /// 1-based line number within that input.
    pub line: usize,
    /// The defect.
    pub kind: LineErrorKind,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}: {}", self.file, self.line, self.kind)
    }
}

/// Why an ingest failed.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A malformed line under [`MalformedPolicy::Fail`].
    Line(LineError),
}

impl IngestError {
    /// The line-level detail, if this is a malformed-line error.
    pub fn line(&self) -> Option<&LineError> {
        match self {
            IngestError::Line(e) => Some(e),
            IngestError::Io(_) => None,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::Line(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Line(_) => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<IngestError> for io::Error {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(e) => e,
            IngestError::Line(l) => io::Error::new(io::ErrorKind::InvalidData, l.to_string()),
        }
    }
}

/// Per-category counts of lines dropped under [`MalformedPolicy::Skip`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCounters {
    /// Structurally broken lines: field counts, coordinates, ids, terms,
    /// tags, headers.
    pub bad_lines: u64,
    /// Feature lines with an empty keyword list.
    pub empty_keywords: u64,
    /// Lines whose id already appeared in the same dataset.
    pub duplicate_ids: u64,
}

impl SkipCounters {
    /// Total skipped lines.
    pub fn total(&self) -> u64 {
        self.bad_lines + self.empty_keywords + self.duplicate_ids
    }

    fn bump(&mut self, kind: &LineErrorKind) {
        match kind {
            LineErrorKind::EmptyKeywords => self.empty_keywords += 1,
            LineErrorKind::DuplicateId(_) => self.duplicate_ids += 1,
            _ => self.bad_lines += 1,
        }
    }
}

/// The product of one ingest: the dataset, the vocabulary it was interned
/// against, and load statistics.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The loaded dataset. `vocab_size` equals the vocabulary length (or
    /// the dump's `# bounds` header value, when larger); `bounds` comes
    /// from the header when present, otherwise it is the tight bounding
    /// box of the loaded objects (degenerate axes padded).
    pub dataset: Dataset,
    /// The interner mapping the dump's keyword strings to the dense
    /// [`Term`] ids the dataset's keyword sets carry. Empty in numeric
    /// term mode (the [`crate::tsv`] path).
    pub vocab: Vocabulary,
    /// Lines dropped under [`MalformedPolicy::Skip`] (all zero under
    /// [`MalformedPolicy::Fail`]).
    pub skips: SkipCounters,
    /// Total lines read across all inputs, including blank, comment and
    /// skipped lines.
    pub lines: u64,
}

impl Ingested {
    /// Objects in the loaded dataset, `|O| + |F|`.
    pub fn objects(&self) -> usize {
        self.dataset.total()
    }
}

/// How keyword tokens map to term ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermMode {
    /// Tokens are words, interned through the vocabulary (external dumps).
    Intern,
    /// Tokens are raw `u32` ids (the [`crate::tsv`] numeric layout, which
    /// also tolerates an empty keyword field for backward compatibility).
    Numeric,
}

/// Record kind a line is parsed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Data,
    Feature,
}

/// The streaming loader state shared by every entry point.
struct Loader {
    mode: TermMode,
    vocab: Vocabulary,
    scratch: Vec<Term>,
    data: Vec<DataObject>,
    data_ids: HashSet<u64>,
    feature_ids: Vec<u64>,
    feature_locs: Vec<Point>,
    feature_id_set: HashSet<u64>,
    csr: CsrKeywords,
    header: Option<(Rect, usize)>,
    lo: Point,
    hi: Point,
    max_term: Option<u32>,
    skips: SkipCounters,
    lines: u64,
}

impl Loader {
    fn new(mode: TermMode) -> Self {
        Self {
            mode,
            vocab: Vocabulary::new(),
            scratch: Vec::new(),
            data: Vec::new(),
            data_ids: HashSet::new(),
            feature_ids: Vec::new(),
            feature_locs: Vec::new(),
            feature_id_set: HashSet::new(),
            csr: CsrKeywords::new(),
            header: None,
            lo: Point::new(f64::INFINITY, f64::INFINITY),
            hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            max_term: None,
            skips: SkipCounters::default(),
            lines: 0,
        }
    }

    /// Parses one non-blank line. `fixed` names the record kind for
    /// untagged files; `None` reads the combined tagged layout.
    fn consume(&mut self, raw: &str, fixed: Option<RecordKind>) -> Result<(), LineErrorKind> {
        // Records have at most 6 fields (tagged header); split into a
        // stack array so the hot loop never allocates per line.
        let mut slots = [""; 7];
        let mut total = 0usize;
        for f in raw.split('\t') {
            if total < slots.len() {
                slots[total] = f;
            }
            total += 1;
        }
        let fields = &slots[..total.min(slots.len())];
        let (kind, body): (RecordKind, &[&str]) = match fixed {
            Some(kind) => (kind, fields),
            None => match fields[0] {
                "# bounds" => return self.consume_header(fields),
                "D" => (RecordKind::Data, &fields[1..]),
                "F" => (RecordKind::Feature, &fields[1..]),
                tag => return Err(LineErrorKind::UnknownTag(tag.to_owned())),
            },
        };
        let tag_fields = fields.len() - body.len();
        let want = match kind {
            RecordKind::Data => 3,
            RecordKind::Feature => 4,
        };
        if body.len() != want || total != fields.len() {
            return Err(LineErrorKind::FieldCount {
                want: want + tag_fields,
                got: total,
            });
        }
        let id: u64 = body[0]
            .parse()
            .map_err(|_| LineErrorKind::BadId(body[0].to_owned()))?;
        let location = Point::new(coord(body[1])?, coord(body[2])?);

        match kind {
            RecordKind::Data => {
                if !self.data_ids.insert(id) {
                    return Err(LineErrorKind::DuplicateId(id));
                }
                self.data.push(DataObject::new(id, location));
            }
            RecordKind::Feature => {
                if self.feature_id_set.contains(&id) {
                    return Err(LineErrorKind::DuplicateId(id));
                }
                self.parse_terms(body[3])?;
                self.feature_id_set.insert(id);
                self.feature_ids.push(id);
                self.feature_locs.push(location);
                let scratch = &mut self.scratch;
                self.max_term = scratch.iter().map(|t| t.0).max().max(self.max_term);
                self.csr.push_list(scratch);
            }
        }
        self.lo = Point::new(self.lo.x.min(location.x), self.lo.y.min(location.y));
        self.hi = Point::new(self.hi.x.max(location.x), self.hi.y.max(location.y));
        Ok(())
    }

    /// Validates and stages one keyword list into `self.scratch`.
    ///
    /// Every token is validated **before** any token is interned, so a
    /// rejected line never pollutes the vocabulary — the interner holds
    /// exactly the words of committed features.
    fn parse_terms(&mut self, list: &str) -> Result<(), LineErrorKind> {
        debug_assert!(self.scratch.is_empty());
        if list.is_empty() {
            // The numeric tsv layout writes (and therefore must re-read)
            // keyword-less features; external word dumps reject them.
            return match self.mode {
                TermMode::Numeric => Ok(()),
                TermMode::Intern => Err(LineErrorKind::EmptyKeywords),
            };
        }
        match self.mode {
            TermMode::Numeric => {
                for token in list.split(',') {
                    let id: u32 = token
                        .parse()
                        .map_err(|_| LineErrorKind::BadTerm(token.to_owned()))?;
                    self.scratch.push(Term(id));
                }
            }
            TermMode::Intern => {
                if list.split(',').any(str::is_empty) {
                    return Err(LineErrorKind::BadTerm(String::new()));
                }
                self.scratch
                    .extend(list.split(',').map(|w| self.vocab.intern(w)));
            }
        }
        Ok(())
    }

    fn consume_header(&mut self, fields: &[&str]) -> Result<(), LineErrorKind> {
        if fields.len() != 6 {
            return Err(LineErrorKind::BadHeader);
        }
        let mut nums = [0f64; 4];
        for (slot, field) in nums.iter_mut().zip(&fields[1..5]) {
            *slot = coord(field).map_err(|_| LineErrorKind::BadHeader)?;
        }
        let vocab_size: usize = fields[5].parse().map_err(|_| LineErrorKind::BadHeader)?;
        // Degenerate (zero-area) header rects are rejected here so the
        // failure is a line-numbered error, not a grid-construction panic
        // deep in the serving path (grids need positive cell sides; the
        // header-less path pads for the same reason in `tight_bounds`).
        if nums[0] >= nums[2] || nums[1] >= nums[3] {
            return Err(LineErrorKind::BadHeader);
        }
        self.header = Some((
            Rect::from_coords(nums[0], nums[1], nums[2], nums[3]),
            vocab_size,
        ));
        Ok(())
    }

    /// Drives one input through the loader.
    fn read(
        &mut self,
        mut reader: impl BufRead,
        label: &str,
        fixed: Option<RecordKind>,
        options: &IngestOptions,
    ) -> Result<(), IngestError> {
        let mut buf = String::new();
        let mut line_no = 0usize;
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                return Ok(());
            }
            line_no += 1;
            self.lines += 1;
            // Tolerate CRLF endings and trailing newline-less last lines.
            let line = buf.trim_end_matches(['\r', '\n']);
            if line.is_empty() || (fixed.is_some() && line.starts_with('#')) {
                continue;
            }
            if let Err(kind) = self.consume(line, fixed) {
                self.scratch.clear(); // may hold a rejected line's terms
                match options.policy {
                    MalformedPolicy::Fail => {
                        return Err(IngestError::Line(LineError {
                            file: label.to_owned(),
                            line: line_no,
                            kind,
                        }))
                    }
                    MalformedPolicy::Skip => self.skips.bump(&kind),
                }
            }
        }
    }

    fn finish(self) -> Ingested {
        let computed_bounds = tight_bounds(self.lo, self.hi);
        let (bounds, vocab_size) = match (self.header, self.mode) {
            (Some((rect, size)), TermMode::Intern) => (rect, size.max(self.vocab.len())),
            (Some((rect, size)), TermMode::Numeric) => (rect, size),
            (None, TermMode::Intern) => (computed_bounds, self.vocab.len()),
            (None, TermMode::Numeric) => {
                (computed_bounds, self.max_term.map_or(0, |t| t as usize + 1))
            }
        };
        let keyword_sets = self.csr.into_keyword_sets();
        let features = self
            .feature_ids
            .into_iter()
            .zip(self.feature_locs)
            .zip(keyword_sets)
            .map(|((id, location), keywords)| FeatureObject::new(id, location, keywords))
            .collect();
        Ingested {
            dataset: Dataset {
                bounds,
                data: self.data,
                features,
                vocab_size,
            },
            vocab: self.vocab,
            skips: self.skips,
            lines: self.lines,
        }
    }
}

fn coord(s: &str) -> Result<f64, LineErrorKind> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(LineErrorKind::BadCoordinate(s.to_owned())),
    }
}

/// Tight bounding box of the loaded objects; axes with zero extent are
/// padded by ±0.5 so downstream grids always have positive cell sides,
/// and an empty ingest falls back to the unit square.
fn tight_bounds(lo: Point, hi: Point) -> Rect {
    if !lo.x.is_finite() {
        return Rect::unit();
    }
    let (mut lo, mut hi) = (lo, hi);
    if hi.x - lo.x <= 0.0 {
        lo.x -= 0.5;
        hi.x += 0.5;
    }
    if hi.y - lo.y <= 0.0 {
        lo.y -= 0.5;
        hi.y += 0.5;
    }
    Rect::from_coords(lo.x, lo.y, hi.x, hi.y)
}

/// Ingests the two-file dump layout: `data_path` holds `id<TAB>x<TAB>y`
/// lines, `features_path` holds `id<TAB>x<TAB>y<TAB>kw1,kw2,...` lines.
///
/// Keywords are interned in first-occurrence order; the dataset's bounds
/// are the tight bounding box of the loaded objects.
pub fn ingest_files(
    data_path: &Path,
    features_path: &Path,
    options: &IngestOptions,
) -> Result<Ingested, IngestError> {
    ingest_readers(
        BufReader::new(File::open(data_path)?),
        &data_path.display().to_string(),
        BufReader::new(File::open(features_path)?),
        &features_path.display().to_string(),
        options,
    )
}

/// [`ingest_files`] over arbitrary readers (`label`s name the inputs in
/// error messages).
pub fn ingest_readers(
    data: impl BufRead,
    data_label: &str,
    features: impl BufRead,
    features_label: &str,
    options: &IngestOptions,
) -> Result<Ingested, IngestError> {
    let mut loader = Loader::new(TermMode::Intern);
    loader.read(data, data_label, Some(RecordKind::Data), options)?;
    loader.read(features, features_label, Some(RecordKind::Feature), options)?;
    Ok(loader.finish())
}

/// Ingests a combined tagged dump: `D`/`F` record tags, textual keywords,
/// optional `# bounds` header — the layout [`crate::tsv::save_with_vocab`]
/// writes.
pub fn ingest_combined(path: &Path, options: &IngestOptions) -> Result<Ingested, IngestError> {
    ingest_combined_reader(
        BufReader::new(File::open(path)?),
        &path.display().to_string(),
        options,
    )
}

/// [`ingest_combined`] over an arbitrary reader.
pub fn ingest_combined_reader(
    reader: impl BufRead,
    label: &str,
    options: &IngestOptions,
) -> Result<Ingested, IngestError> {
    let mut loader = Loader::new(TermMode::Intern);
    loader.read(reader, label, None, options)?;
    Ok(loader.finish())
}

/// The numeric-term combined loader behind [`crate::tsv::load`].
pub(crate) fn ingest_combined_numeric(path: &Path) -> Result<Ingested, IngestError> {
    let mut loader = Loader::new(TermMode::Numeric);
    loader.read(
        BufReader::new(File::open(path)?),
        &path.display().to_string(),
        None,
        &IngestOptions::default(),
    )?;
    Ok(loader.finish())
}

/// Configuration of [`synthesize_dump`].
#[derive(Debug, Clone)]
pub struct DumpConfig {
    /// Total objects to write (half data, half features).
    pub objects: usize,
    /// RNG seed; the dump is a pure function of `(objects, seed)`.
    pub seed: u64,
}

impl Default for DumpConfig {
    fn default() -> Self {
        Self {
            objects: 100_000,
            seed: 2017,
        }
    }
}

/// What [`synthesize_dump`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpSummary {
    /// Data objects written to the data dump.
    pub data_objects: usize,
    /// Feature objects written to the feature dump.
    pub feature_objects: usize,
    /// Total keyword occurrences written.
    pub keywords: u64,
}

/// Writes a deterministic two-file dump with Flickr-shaped skew (hotspot
/// spatial clusters, shifted-Poisson keyword counts, Zipf term
/// frequencies over a 34,716-word dictionary) — the stand-in for a real
/// photo-site dump in tests, examples and CI.
///
/// Term `t` is rendered as the word `kw<t>`, so the dump exercises the
/// full interning path on ingest.
pub fn synthesize_dump(
    cfg: &DumpConfig,
    data_path: &Path,
    features_path: &Path,
) -> io::Result<DumpSummary> {
    synthesize_dump_with(&FlickrLike, cfg.objects, cfg.seed, data_path, features_path)
}

/// [`synthesize_dump`] with an explicit generator (any of the
/// [`crate::generators`] work; the dump inherits its spatial and textual
/// statistics).
pub fn synthesize_dump_with(
    generator: &dyn DatasetGenerator,
    objects: usize,
    seed: u64,
    data_path: &Path,
    features_path: &Path,
) -> io::Result<DumpSummary> {
    let dataset = generator.generate(objects, seed);
    let mut out = BufWriter::new(File::create(data_path)?);
    for o in &dataset.data {
        writeln!(out, "{}\t{}\t{}", o.id, o.location.x, o.location.y)?;
    }
    out.flush()?;

    let mut keywords = 0u64;
    let mut out = BufWriter::new(File::create(features_path)?);
    for f in &dataset.features {
        write!(out, "{}\t{}\t{}\t", f.id, f.location.x, f.location.y)?;
        for (i, t) in f.keywords.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(out, "kw{}", t.0)?;
            keywords += 1;
        }
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(DumpSummary {
        data_objects: dataset.data.len(),
        feature_objects: dataset.features.len(),
        keywords,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn opts() -> IngestOptions {
        IngestOptions::default()
    }

    fn ingest_strs(
        data: &str,
        features: &str,
        options: &IngestOptions,
    ) -> Result<Ingested, IngestError> {
        ingest_readers(
            Cursor::new(data.to_owned()),
            "data.tsv",
            Cursor::new(features.to_owned()),
            "features.tsv",
            options,
        )
    }

    #[test]
    fn ingests_two_file_dump() {
        let got = ingest_strs(
            "1\t0.25\t0.5\n2\t0.75\t0.5\n",
            "10\t0.5\t0.25\tpizza,sushi\n11\t0.5\t0.75\tsushi\n",
            &opts(),
        )
        .unwrap();
        assert_eq!(got.dataset.data.len(), 2);
        assert_eq!(got.dataset.features.len(), 2);
        assert_eq!(got.vocab.len(), 2);
        assert_eq!(got.dataset.vocab_size, 2);
        assert_eq!(got.vocab.get("pizza"), Some(Term(0)));
        assert_eq!(got.vocab.get("sushi"), Some(Term(1)));
        assert_eq!(
            got.dataset.features[0].keywords.terms(),
            &[Term(0), Term(1)]
        );
        assert_eq!(got.dataset.features[1].keywords.terms(), &[Term(1)]);
        assert_eq!(got.skips, SkipCounters::default());
        assert_eq!(got.lines, 4);
        // Tight bounds over the four points.
        assert_eq!(
            got.dataset.bounds,
            Rect::from_coords(0.25, 0.25, 0.75, 0.75)
        );
    }

    #[test]
    fn missing_dump_is_an_error() {
        let gone = Path::new("/nonexistent/spq-dump.tsv");
        assert!(ingest_files(gone, gone, &opts()).is_err());
        assert!(ingest_combined(gone, &opts()).is_err());
    }

    #[test]
    fn crlf_and_blank_and_comment_lines() {
        let got = ingest_strs(
            "# a comment\r\n1\t0.1\t0.2\r\n\r\n2\t0.3\t0.4\r\n",
            "7\t0.5\t0.5\tcafe\r\n",
            &opts(),
        )
        .unwrap();
        assert_eq!(got.dataset.data.len(), 2);
        assert_eq!(got.dataset.features.len(), 1);
        assert_eq!(got.vocab.get("cafe"), Some(Term(0)));
    }

    #[test]
    fn fail_policy_reports_file_and_line() {
        let err = ingest_strs("1\t0.1\t0.2\n2\tnope\t0.4\n", "", &opts()).unwrap_err();
        let line = err.line().expect("line error");
        assert_eq!(line.file, "data.tsv");
        assert_eq!(line.line, 2);
        assert_eq!(line.kind, LineErrorKind::BadCoordinate("nope".to_owned()));
        assert!(err.to_string().contains("data.tsv line 2"));
    }

    #[test]
    fn fail_policy_covers_every_defect() {
        let cases: Vec<(&str, &str, LineErrorKind)> = vec![
            (
                "1\t0.1\n",
                "",
                LineErrorKind::FieldCount { want: 3, got: 2 },
            ),
            ("x\t0.1\t0.2\n", "", LineErrorKind::BadId("x".to_owned())),
            (
                "1\t0.1\tinf\n",
                "",
                LineErrorKind::BadCoordinate("inf".to_owned()),
            ),
            (
                "1\t0.1\t0.2\n1\t0.3\t0.4\n",
                "",
                LineErrorKind::DuplicateId(1),
            ),
            ("", "5\t0.1\t0.2\t\n", LineErrorKind::EmptyKeywords),
            (
                "",
                "5\t0.1\t0.2\ta,,b\n",
                LineErrorKind::BadTerm(String::new()),
            ),
        ];
        for (data, features, want) in cases {
            let err = ingest_strs(data, features, &opts()).unwrap_err();
            assert_eq!(err.line().unwrap().kind, want);
        }
    }

    #[test]
    fn skip_policy_counts_and_continues() {
        let got = ingest_strs(
            "1\t0.1\t0.2\nbroken line\n2\t0.3\t0.4\n2\t0.5\t0.6\n",
            "5\t0.1\t0.2\t\n6\t0.2\t0.3\tbar\n",
            &IngestOptions::lossy(),
        )
        .unwrap();
        assert_eq!(got.dataset.data.len(), 2);
        assert_eq!(got.dataset.features.len(), 1);
        assert_eq!(got.skips.bad_lines, 1);
        assert_eq!(got.skips.duplicate_ids, 1);
        assert_eq!(got.skips.empty_keywords, 1);
        assert_eq!(got.skips.total(), 3);
        // A rejected line's words never enter the vocabulary.
        assert_eq!(got.vocab.len(), 1);
        assert_eq!(got.vocab.get("bar"), Some(Term(0)));
    }

    #[test]
    fn duplicate_ids_across_datasets_are_fine() {
        // O and F are separate id namespaces (paper, Section 2).
        let got = ingest_strs("1\t0.1\t0.2\n", "1\t0.3\t0.4\tinn\n", &opts()).unwrap();
        assert_eq!(got.dataset.data[0].id, 1);
        assert_eq!(got.dataset.features[0].id, 1);
    }

    #[test]
    fn combined_tagged_dump_with_header() {
        let text = "# bounds\t0\t0\t2\t2\t7\nD\t1\t0.5\t0.5\nF\t2\t1.5\t1.5\tpub\n";
        let got =
            ingest_combined_reader(Cursor::new(text.to_owned()), "dump.tsv", &opts()).unwrap();
        assert_eq!(got.dataset.bounds, Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        // Header vocab size wins when larger than the interned vocabulary.
        assert_eq!(got.dataset.vocab_size, 7);
        assert_eq!(got.vocab.len(), 1);
        let err =
            ingest_combined_reader(Cursor::new("X\t1\t2\t3\n".to_owned()), "dump.tsv", &opts())
                .unwrap_err();
        assert_eq!(
            err.line().unwrap().kind,
            LineErrorKind::UnknownTag("X".to_owned())
        );
    }

    #[test]
    fn degenerate_header_bounds_are_rejected() {
        // A zero-width header must be a line-numbered error, not a panic
        // later when a grid is built over a zero-area rect.
        for header in [
            "# bounds\t0\t0\t0\t1\t5\n",
            "# bounds\t0\t0\t1\t0\t5\n",
            "# bounds\t2\t2\t2\t2\t5\n",
        ] {
            let text = format!("{header}D\t1\t0\t0\n");
            let err = ingest_combined_reader(Cursor::new(text), "dump.tsv", &opts()).unwrap_err();
            assert_eq!(err.line().unwrap().kind, LineErrorKind::BadHeader);
            assert_eq!(err.line().unwrap().line, 1);
        }
    }

    #[test]
    fn degenerate_bounds_are_padded() {
        let got = ingest_strs("1\t3\t5\n", "", &opts()).unwrap();
        assert_eq!(got.dataset.bounds, Rect::from_coords(2.5, 4.5, 3.5, 5.5));
        let empty = ingest_strs("", "", &opts()).unwrap();
        assert_eq!(empty.dataset.bounds, Rect::unit());
    }

    #[test]
    fn synthesized_dump_round_trips_deterministically() {
        let dir = std::env::temp_dir();
        let d = dir.join(format!("spq-ingest-{}-d.tsv", std::process::id()));
        let f = dir.join(format!("spq-ingest-{}-f.tsv", std::process::id()));
        let cfg = DumpConfig {
            objects: 400,
            seed: 11,
        };
        let summary = synthesize_dump(&cfg, &d, &f).unwrap();
        assert_eq!(summary.data_objects, 200);
        assert_eq!(summary.feature_objects, 200);
        assert!(summary.keywords > 0);

        let a = ingest_files(&d, &f, &opts()).unwrap();
        assert_eq!(a.dataset.data.len(), 200);
        assert_eq!(a.dataset.features.len(), 200);
        assert_eq!(a.skips.total(), 0);
        assert!(!a.vocab.is_empty());
        assert!(a
            .dataset
            .features
            .iter()
            .all(|feat| !feat.keywords.is_empty()));

        // Same config → byte-identical files → identical ingest.
        let d2 = dir.join(format!("spq-ingest-{}-d2.tsv", std::process::id()));
        let f2 = dir.join(format!("spq-ingest-{}-f2.tsv", std::process::id()));
        synthesize_dump(&cfg, &d2, &f2).unwrap();
        assert_eq!(
            std::fs::read(&d).unwrap(),
            std::fs::read(&d2).unwrap(),
            "data dump is deterministic"
        );
        assert_eq!(std::fs::read(&f).unwrap(), std::fs::read(&f2).unwrap());
        let b = ingest_files(&d2, &f2, &opts()).unwrap();
        assert_eq!(a.dataset.data, b.dataset.data);
        assert_eq!(a.dataset.features, b.dataset.features);
        assert_eq!(a.vocab, b.vocab);
        for p in [&d, &f, &d2, &f2] {
            std::fs::remove_file(p).ok();
        }
    }
}
