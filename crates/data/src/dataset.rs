//! Generated datasets and their horizontal partitioning into splits.

use spq_core::{DataObject, FeatureObject, ObjectRef, SharedDataset};
use spq_spatial::Rect;

/// A complete SPQ input: the data objects `O`, the feature objects `F`,
/// the data-space bounds and the vocabulary cardinality.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The data-space bounds used at generation time.
    pub bounds: Rect,
    /// Data objects `O` (ranked and returned by queries).
    pub data: Vec<DataObject>,
    /// Feature objects `F` (spatio-textual, drive the scores).
    pub features: Vec<FeatureObject>,
    /// Number of distinct terms the generator drew from.
    pub vocab_size: usize,
}

impl Dataset {
    /// Total number of objects, `|O| + |F|`.
    pub fn total(&self) -> usize {
        self.data.len() + self.features.len()
    }

    /// Mean keyword count over the feature objects.
    pub fn mean_keywords(&self) -> f64 {
        if self.features.is_empty() {
            return 0.0;
        }
        let total: usize = self.features.iter().map(|f| f.keywords.len()).sum();
        total as f64 / self.features.len() as f64
    }

    /// Horizontally partitions the dataset into `num_splits` mixed splits
    /// (contiguous blocks of data then feature objects — "no assumption
    /// on the partitioning method", Section 3.1): copies the objects
    /// **once** into a [`SharedDataset`] (held behind `Arc`s; this
    /// `Dataset` is untouched) and returns reference splits into it.
    /// Queries run through `SpqExecutor::run_shared` then shuffle 8–16
    /// byte handles instead of cloned objects, however many queries
    /// reuse the store.
    ///
    /// # Panics
    ///
    /// Panics if `num_splits == 0`.
    pub fn to_shared_splits(&self, num_splits: usize) -> (SharedDataset, Vec<Vec<ObjectRef>>) {
        let dataset = SharedDataset::new(self.data.clone(), self.features.clone());
        let splits = dataset.ref_splits(num_splits);
        (dataset, splits)
    }

    /// Keeps only the first `data_n` data and `feature_n` feature objects
    /// — used by the scalability experiment (Figure 8) to carve nested
    /// subsets out of one generated dataset.
    pub fn truncated(&self, data_n: usize, feature_n: usize) -> Dataset {
        Dataset {
            bounds: self.bounds,
            data: self.data[..data_n.min(self.data.len())].to_vec(),
            features: self.features[..feature_n.min(self.features.len())].to_vec(),
            vocab_size: self.vocab_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_spatial::Point;
    use spq_text::KeywordSet;

    fn tiny() -> Dataset {
        Dataset {
            bounds: Rect::unit(),
            data: (0..5)
                .map(|i| DataObject::new(i, Point::new(0.1 * i as f64, 0.5)))
                .collect(),
            features: (0..4)
                .map(|i| {
                    FeatureObject::new(i, Point::new(0.2, 0.2), KeywordSet::from_ids([i as u32]))
                })
                .collect(),
            vocab_size: 4,
        }
    }

    #[test]
    fn totals_and_means() {
        let d = tiny();
        assert_eq!(d.total(), 9);
        assert_eq!(d.mean_keywords(), 1.0);
    }

    #[test]
    fn splits_partition_every_object_exactly_once() {
        let d = tiny();
        for s in [1, 2, 3, 9, 20] {
            let (shared, splits) = d.to_shared_splits(s);
            assert_eq!(shared.total(), 9);
            assert_eq!(splits.len(), s);
            let total: usize = splits.iter().map(Vec::len).sum();
            assert_eq!(total, 9, "splits {s}");
            let data_count = splits
                .iter()
                .flatten()
                .filter(|r| matches!(r, ObjectRef::Data(_)))
                .count();
            assert_eq!(data_count, 5);
        }
    }

    #[test]
    fn truncated_keeps_prefixes() {
        let d = tiny();
        let t = d.truncated(2, 3);
        assert_eq!(t.data.len(), 2);
        assert_eq!(t.features.len(), 3);
        assert_eq!(t.data[0].id, 0);
        // Oversized requests clamp.
        let u = d.truncated(100, 100);
        assert_eq!(u.total(), 9);
    }

    #[test]
    fn empty_dataset_mean_is_zero() {
        let d = Dataset {
            bounds: Rect::unit(),
            data: vec![],
            features: vec![],
            vocab_size: 0,
        };
        assert_eq!(d.mean_keywords(), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_splits_rejected() {
        let _ = tiny().to_shared_splits(0);
    }
}
