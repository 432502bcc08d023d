//! Query workload generation.
//!
//! "Queries are generated by selecting various values for the query radius
//! r and a number of random query keywords q.W from the vocabulary of the
//! respective dataset" (Section 7.1). Footnote 2 also explored selecting
//! from the most / least frequent words; all three strategies are
//! supported here. With Zipf-generated vocabularies, term id equals
//! frequency rank, so "frequent" means low ids.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spq_core::SpqQuery;
use spq_text::{KeywordSet, Term, Zipf};

/// How query keywords are drawn from the dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KeywordSelection {
    /// Uniformly random over the whole dictionary (the paper's default).
    #[default]
    Random,
    /// From the most frequent decile (low term ids).
    Frequent,
    /// From the least frequent decile (high term ids).
    Infrequent,
    /// Frequency-weighted: a term is drawn proportionally to its corpus
    /// frequency under the given Zipf exponent (term id = frequency
    /// rank). This models "a term with a workload-scale number of
    /// matches": at the paper's 40–80M objects *every* dictionary term
    /// matches thousands of features, while at harness scale a uniformly
    /// random term from an 88k dictionary matches almost nothing —
    /// weighted selection restores the per-reducer workload shape.
    Weighted {
        /// Zipf exponent of the dataset's term-frequency distribution
        /// (1.0 for the FL-like/TW-like generators).
        exponent: f64,
    },
}

/// Draws reproducible query workloads for a dataset's vocabulary.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    vocab_size: usize,
    selection: KeywordSelection,
    rng: StdRng,
}

impl QueryGenerator {
    /// Creates a generator over a dictionary of `vocab_size` terms.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size == 0`.
    pub fn new(vocab_size: usize, selection: KeywordSelection, seed: u64) -> Self {
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        Self {
            vocab_size,
            selection,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one query with `num_keywords` distinct keywords.
    ///
    /// # Panics
    ///
    /// Panics if `num_keywords` is zero or exceeds the selectable pool.
    pub fn generate(&mut self, k: usize, radius: f64, num_keywords: usize) -> SpqQuery {
        assert!(num_keywords >= 1, "queries need at least one keyword");
        let terms = self.generate_terms(num_keywords);
        SpqQuery::new(k, radius, KeywordSet::new(terms))
    }

    /// Draws a batch of queries with identical parameters (for averaging
    /// run times over several random keyword sets, as the paper does).
    pub fn batch(
        &mut self,
        count: usize,
        k: usize,
        radius: f64,
        num_keywords: usize,
    ) -> Vec<SpqQuery> {
        (0..count)
            .map(|_| self.generate(k, radius, num_keywords))
            .collect()
    }

    /// Draws `num_keywords` distinct terms in *draw order* (for weighted
    /// selection, earlier draws are the more frequent terms with high
    /// probability). Prefixes of this list are valid smaller draws, which
    /// lets a sweep over keyword counts use *nested* keyword sets — the
    /// workload grows monotonically instead of being redrawn per point.
    pub fn generate_terms(&mut self, num_keywords: usize) -> Vec<Term> {
        let (lo, len, exponent) = self.pool();
        assert!(
            num_keywords >= 1 && num_keywords <= len,
            "cannot draw {num_keywords} distinct keywords from a pool of {len}"
        );
        Zipf::new(len, exponent)
            .sample_distinct(&mut self.rng, num_keywords)
            .into_iter()
            .map(|r| Term((lo + r) as u32))
            .collect()
    }

    fn pool(&self) -> (usize, usize, f64) {
        let decile = (self.vocab_size / 10).max(1);
        match self.selection {
            KeywordSelection::Random => (0, self.vocab_size, 0.0),
            KeywordSelection::Frequent => (0, decile, 0.0),
            KeywordSelection::Infrequent => (self.vocab_size - decile, decile, 0.0),
            KeywordSelection::Weighted { exponent } => (0, self.vocab_size, exponent),
        }
    }

    /// A fresh radius jitter helper: radius as a percentage of a grid cell
    /// side, the parameterisation of Table 3.
    pub fn radius_from_cell_pct(cell_side: f64, pct: f64) -> f64 {
        assert!(pct >= 0.0, "percentage must be >= 0");
        cell_side * pct / 100.0
    }

    /// Access to the generator's RNG for correlated draws in experiments.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

/// Configuration of a serving-style query stream (see [`QueryStream`]).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Results requested per query.
    pub k: usize,
    /// Distinct keywords per query.
    pub keywords_per_query: usize,
    /// Zipf exponent of keyword popularity: cold queries draw their terms
    /// frequency-weighted (term id = frequency rank), mirroring real
    /// search traffic where a few head terms dominate. `0.0` is uniform.
    pub keyword_exponent: f64,
    /// The radius classes queries draw from. Serving traffic uses a small
    /// set of discrete radii ("walking distance", "short drive", …).
    pub radius_classes: Vec<f64>,
    /// Fraction of the stream served from the hotspot pool (`0.0..=1.0`).
    pub hotspot_fraction: f64,
    /// Number of hotspot queries — recurring popular searches (think "the
    /// query every tourist in the same spot issues"). Their popularity is
    /// itself Zipf(1)-distributed: hotspot 0 is the hottest.
    pub hotspots: usize,
    /// RNG seed; streams are fully reproducible per seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    /// Paper-shaped defaults: `k = 10`, 3 keywords, Zipf(1.0) keyword
    /// skew, radius classes at 5% / 10% / 25% of the default synthetic
    /// grid's cell side (15×15 over the unit space), half the traffic
    /// from 16 hotspots.
    fn default() -> Self {
        let cell = 1.0 / 15.0;
        Self {
            k: 10,
            keywords_per_query: 3,
            keyword_exponent: 1.0,
            radius_classes: [5.0, 10.0, 25.0]
                .iter()
                .map(|pct| QueryGenerator::radius_from_cell_pct(cell, *pct))
                .collect(),
            hotspot_fraction: 0.5,
            hotspots: 16,
            seed: 2017,
        }
    }
}

/// An unbounded, reproducible stream of queries shaped like serving
/// traffic — the workload behind the `fig_qps` throughput benchmark.
///
/// Unlike [`QueryGenerator::batch`] (independent draws with identical
/// parameters, the paper's averaging protocol), a `QueryStream` models
/// what a long-lived engine actually sees: Zipf-skewed keyword
/// popularity, a small set of radius classes, and a hotspot pool of
/// recurring queries with Zipf-distributed popularity. The stream is an
/// infinite [`Iterator`]; [`batch`](Self::batch) takes the next `n`
/// queries.
#[derive(Debug, Clone)]
pub struct QueryStream {
    generator: QueryGenerator,
    config: StreamConfig,
    hot: Vec<SpqQuery>,
    hot_popularity: Zipf,
}

impl QueryStream {
    /// Creates a stream over a dictionary of `vocab_size` terms.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary is empty, no radius class is given, a
    /// radius is negative or not finite, `hotspot_fraction` is outside
    /// `0.0..=1.0`, or a positive fraction comes with zero hotspots.
    pub fn new(vocab_size: usize, config: StreamConfig) -> Self {
        assert!(
            !config.radius_classes.is_empty(),
            "stream needs at least one radius class"
        );
        assert!(
            config
                .radius_classes
                .iter()
                .all(|r| r.is_finite() && *r >= 0.0),
            "radius classes must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&config.hotspot_fraction),
            "hotspot fraction must be within 0..=1"
        );
        assert!(
            config.hotspot_fraction == 0.0 || config.hotspots > 0,
            "a positive hotspot fraction needs at least one hotspot"
        );
        let mut generator = QueryGenerator::new(
            vocab_size,
            KeywordSelection::Weighted {
                exponent: config.keyword_exponent,
            },
            config.seed,
        );
        // The hotspot pool: pre-drawn once, replayed for the hot share of
        // the traffic. Radius classes are assigned round-robin so every
        // class has hot representatives.
        let hot: Vec<SpqQuery> = (0..config.hotspots)
            .map(|i| {
                let radius = config.radius_classes[i % config.radius_classes.len()];
                generator.generate(config.k, radius, config.keywords_per_query)
            })
            .collect();
        let hot_popularity = Zipf::new(config.hotspots.max(1), 1.0);
        Self {
            generator,
            config,
            hot,
            hot_popularity,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The hotspot pool (most popular first).
    pub fn hotspots(&self) -> &[SpqQuery] {
        &self.hot
    }

    /// Draws the next query of the stream.
    pub fn next_query(&mut self) -> SpqQuery {
        let rng = self.generator.rng();
        if !self.hot.is_empty() && rng.gen::<f64>() < self.config.hotspot_fraction {
            let i = self.hot_popularity.sample(rng);
            return self.hot[i].clone();
        }
        let radius = self.config.radius_classes[rng.gen_range(0..self.config.radius_classes.len())];
        self.generator
            .generate(self.config.k, radius, self.config.keywords_per_query)
    }

    /// Takes the next `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<SpqQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

impl Iterator for QueryStream {
    type Item = SpqQuery;

    fn next(&mut self) -> Option<SpqQuery> {
        Some(self.next_query())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let mut g = QueryGenerator::new(1000, KeywordSelection::Random, 1);
        let q = g.generate(10, 0.05, 3);
        assert_eq!(q.k, 10);
        assert_eq!(q.radius, 0.05);
        assert_eq!(q.keywords.len(), 3);
        assert!(q.keywords.iter().all(|t| t.index() < 1000));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = QueryGenerator::new(500, KeywordSelection::Random, 9).generate(1, 0.1, 5);
        let b = QueryGenerator::new(500, KeywordSelection::Random, 9).generate(1, 0.1, 5);
        assert_eq!(a.keywords, b.keywords);
    }

    #[test]
    fn frequent_picks_head_terms() {
        let mut g = QueryGenerator::new(1000, KeywordSelection::Frequent, 2);
        for _ in 0..50 {
            let q = g.generate(1, 0.1, 3);
            assert!(q.keywords.iter().all(|t| t.index() < 100));
        }
    }

    #[test]
    fn infrequent_picks_tail_terms() {
        let mut g = QueryGenerator::new(1000, KeywordSelection::Infrequent, 3);
        for _ in 0..50 {
            let q = g.generate(1, 0.1, 3);
            assert!(q.keywords.iter().all(|t| t.index() >= 900));
        }
    }

    #[test]
    fn batch_yields_distinct_keyword_sets() {
        let mut g = QueryGenerator::new(10_000, KeywordSelection::Random, 4);
        let qs = g.batch(5, 10, 0.1, 3);
        assert_eq!(qs.len(), 5);
        // With a 10k vocabulary, collisions across 5 draws are essentially
        // impossible — all sets should differ.
        for i in 0..qs.len() {
            for j in i + 1..qs.len() {
                assert_ne!(qs[i].keywords, qs[j].keywords);
            }
        }
    }

    #[test]
    fn weighted_selection_prefers_frequent_terms() {
        let mut g = QueryGenerator::new(10_000, KeywordSelection::Weighted { exponent: 1.0 }, 6);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let q = g.generate(1, 0.1, 2);
            head += q.keywords.iter().filter(|t| t.index() < 100).count();
            total += q.keywords.len();
        }
        // Under Zipf(1) over 10k ranks, the top-100 carry ~47% of the
        // mass; uniform selection would put ~1% there.
        assert!(
            head as f64 / total as f64 > 0.25,
            "head fraction {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn radius_percentage_helper() {
        assert_eq!(QueryGenerator::radius_from_cell_pct(0.02, 50.0), 0.01);
        assert_eq!(QueryGenerator::radius_from_cell_pct(0.02, 0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn oversized_keyword_request_rejected() {
        let mut g = QueryGenerator::new(10, KeywordSelection::Frequent, 5);
        let _ = g.generate(1, 0.1, 5); // decile pool is 1 term
    }

    #[test]
    #[should_panic]
    fn zero_vocab_rejected() {
        let _ = QueryGenerator::new(0, KeywordSelection::Random, 0);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;

    fn config() -> StreamConfig {
        StreamConfig {
            seed: 7,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<SpqQuery> = QueryStream::new(1000, config()).batch(50);
        let b: Vec<SpqQuery> = QueryStream::new(1000, config()).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn radii_come_from_the_classes() {
        let cfg = config();
        let classes = cfg.radius_classes.clone();
        for q in QueryStream::new(1000, cfg).batch(100) {
            assert!(classes.contains(&q.radius), "radius {}", q.radius);
            assert_eq!(q.k, 10);
            assert_eq!(q.keywords.len(), 3);
        }
    }

    #[test]
    fn hotspots_recur_at_roughly_the_configured_fraction() {
        let mut stream = QueryStream::new(10_000, config());
        let hot: Vec<SpqQuery> = stream.hotspots().to_vec();
        assert_eq!(hot.len(), 16);
        let queries = stream.batch(400);
        let hits = queries.iter().filter(|q| hot.contains(q)).count();
        // Expected ~200 of 400; allow a generous band (cold queries
        // colliding with a hotspot draw is essentially impossible over a
        // 10k vocabulary).
        assert!((100..=300).contains(&hits), "hot hits {hits}");
    }

    #[test]
    fn all_cold_stream_never_repeats_hotspots() {
        let cfg = StreamConfig {
            hotspot_fraction: 0.0,
            hotspots: 0,
            ..config()
        };
        let mut stream = QueryStream::new(10_000, cfg);
        assert!(stream.hotspots().is_empty());
        let queries = stream.batch(20);
        for i in 0..queries.len() {
            for j in i + 1..queries.len() {
                assert_ne!(queries[i].keywords, queries[j].keywords);
            }
        }
    }

    #[test]
    fn keyword_popularity_is_zipf_skewed() {
        let cfg = StreamConfig {
            hotspot_fraction: 0.0,
            ..config()
        };
        let mut head = 0usize;
        let mut total = 0usize;
        for q in QueryStream::new(10_000, cfg).batch(200) {
            head += q.keywords.iter().filter(|t| t.index() < 100).count();
            total += q.keywords.len();
        }
        assert!(
            head as f64 / total as f64 > 0.25,
            "head fraction {}",
            head as f64 / total as f64
        );
    }

    #[test]
    #[should_panic]
    fn empty_radius_classes_rejected() {
        let cfg = StreamConfig {
            radius_classes: vec![],
            ..config()
        };
        let _ = QueryStream::new(100, cfg);
    }

    #[test]
    #[should_panic]
    fn hot_fraction_without_hotspots_rejected() {
        let cfg = StreamConfig {
            hotspots: 0,
            hotspot_fraction: 0.5,
            ..config()
        };
        let _ = QueryStream::new(100, cfg);
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use spq_text::KeywordSet;

    #[test]
    fn generate_terms_preserves_draw_order_and_distinctness() {
        let mut g = QueryGenerator::new(1000, KeywordSelection::Random, 8);
        let terms = g.generate_terms(10);
        assert_eq!(terms.len(), 10);
        let set: std::collections::HashSet<_> = terms.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn nested_prefixes_form_valid_queries() {
        let mut g = QueryGenerator::new(10_000, KeywordSelection::Weighted { exponent: 1.0 }, 8);
        let terms = g.generate_terms(10);
        for n in [1usize, 3, 5, 10] {
            let q = SpqQuery::new(10, 0.1, KeywordSet::new(terms[..n].to_vec()));
            assert_eq!(q.keywords.len(), n);
        }
    }

    #[test]
    fn generate_terms_matches_generate_keywords() {
        // generate() must be a thin wrapper over generate_terms().
        let mut a = QueryGenerator::new(500, KeywordSelection::Random, 12);
        let mut b = QueryGenerator::new(500, KeywordSelection::Random, 12);
        let q = a.generate(3, 0.1, 4);
        let t = b.generate_terms(4);
        assert_eq!(q.keywords, KeywordSet::new(t));
    }
}
