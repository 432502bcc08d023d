//! The data axis of the benchmark matrix: named dataset corpora and
//! their query stream.

use crate::params::{scaled, DEFAULT_GRID_REAL, DEFAULT_GRID_SYNTH};
use spq_data::{
    ClusteredGen, Dataset, DatasetGenerator, FlickrLike, QueryStream, StreamConfig, UniformGen,
};

/// Distribution family of a corpus, mapping onto the paper's dataset
/// shapes (Table 3: synthetic UN/CL, real FL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusShape {
    /// Uniformly scattered objects (the paper's UN).
    Uniform,
    /// Gaussian-cluster skew (the paper's CL).
    Clustered,
    /// Flickr-shaped: Zipf vocabulary, hotspot geography (the paper's FL).
    Flickr,
}

/// One named dataset of the matrix. The name embeds the base object
/// count so ids stay self-describing; the actual count in a run is
/// `scaled(base_objects, scale)` and is recorded per record.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSpec {
    /// The id segment, e.g. `uniform-120k`.
    pub name: &'static str,
    /// Distribution family.
    pub shape: CorpusShape,
    /// Object count at `--scale 1.0`.
    pub base_objects: usize,
    /// Grid cells per axis (paper defaults per family).
    pub grid: u32,
}

/// The benchmark corpora, in report order.
pub const CORPORA: [CorpusSpec; 3] = [
    CorpusSpec {
        name: "uniform-120k",
        shape: CorpusShape::Uniform,
        base_objects: 120_000,
        grid: DEFAULT_GRID_SYNTH,
    },
    CorpusSpec {
        name: "clustered-60k",
        shape: CorpusShape::Clustered,
        base_objects: 60_000,
        grid: DEFAULT_GRID_SYNTH,
    },
    CorpusSpec {
        name: "flickr-40k",
        shape: CorpusShape::Flickr,
        base_objects: 40_000,
        grid: DEFAULT_GRID_REAL,
    },
];

impl CorpusSpec {
    /// Generates this corpus at `scale` × its base size (clamped to the
    /// harness' 1k-object floor), deterministically from `seed`.
    pub fn generate(&self, scale: f64, seed: u64) -> Dataset {
        let size = scaled(self.base_objects, scale);
        match self.shape {
            CorpusShape::Uniform => UniformGen.generate(size, seed),
            CorpusShape::Clustered => ClusteredGen.generate(size, seed),
            CorpusShape::Flickr => FlickrLike.generate(size, seed),
        }
    }

    /// The matrix's query stream over `dataset` (this corpus, generated
    /// from `seed`): radius classes at 5, 10 and 25 % of one grid cell,
    /// the stream's default keyword count capped at the vocabulary.
    pub fn query_stream(&self, dataset: &Dataset, seed: u64) -> QueryStream {
        let bounds = dataset.bounds;
        let cell = bounds.width().max(bounds.height()) / self.grid as f64;
        let vocab_size = dataset.vocab_size.max(1);
        let defaults = StreamConfig::default();
        QueryStream::new(
            vocab_size,
            StreamConfig {
                radius_classes: [5.0, 10.0, 25.0]
                    .iter()
                    .map(|pct| cell * pct / 100.0)
                    .collect(),
                seed: seed ^ 13,
                keywords_per_query: defaults.keywords_per_query.min(vocab_size),
                ..defaults
            },
        )
    }

    /// Looks a corpus up by id segment.
    pub fn by_name(name: &str) -> Option<&'static CorpusSpec> {
        CORPORA.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_resolvable() {
        for c in &CORPORA {
            assert_eq!(CorpusSpec::by_name(c.name).unwrap().name, c.name);
            assert!(!c.name.contains('/'), "{}: '/' is the id separator", c.name);
            assert!(!c.name.contains('*'), "{}: '*' is the glob char", c.name);
        }
        assert!(CorpusSpec::by_name("nope").is_none());
    }

    #[test]
    fn corpus_names_embed_their_base_size() {
        for c in &CORPORA {
            let suffix = format!("-{}k", c.base_objects / 1_000);
            assert!(c.name.ends_with(&suffix), "{} vs {suffix}", c.name);
        }
    }

    #[test]
    fn generation_is_deterministic_and_scaled() {
        let spec = CorpusSpec::by_name("uniform-120k").unwrap();
        let a = spec.generate(1e-9, 7); // clamps to the 1k floor
        let b = spec.generate(1e-9, 7);
        assert_eq!(a.total(), 1_000);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.vocab_size, b.vocab_size);
    }
}
