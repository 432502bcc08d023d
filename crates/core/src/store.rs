//! The shared, immutable dataset store behind the zero-copy data path.
//!
//! The map phase reads its input from splits and the reduce phase needs
//! object locations (and, for scoring, keywords) — but none of that
//! requires *owning* copies to travel through the shuffle. A
//! [`SharedDataset`] holds each dataset exactly once behind
//! `Arc<[DataObject]>` / `Arc<[FeatureObject]>`; splits and shuffle
//! records refer to objects by dense `u32` index ([`ObjectRef`] on the
//! input side, the algorithms' handle values on the shuffle side), so a
//! record costs 8–16 bytes regardless of how many keywords a feature
//! carries, and nothing is cloned per emitted copy.
//!
//! The store is the unit of reuse: build it once, then evaluate as many
//! queries as you like against it — whether through
//! [`crate::SpqExecutor::run_shared`] or a persistent
//! [`crate::engine::QueryEngine`]:
//!
//! ```
//! use spq_core::{DataObject, FeatureObject, ObjectRef, SharedDataset, SpqExecutor, SpqQuery};
//! use spq_spatial::{Point, Rect};
//! use spq_text::KeywordSet;
//!
//! // Copied into the store exactly once…
//! let dataset = SharedDataset::new(
//!     vec![DataObject::new(1, Point::new(4.6, 4.8))],
//!     vec![FeatureObject::new(4, Point::new(3.8, 5.5), KeywordSet::from_ids([0]))],
//! );
//! assert_eq!(dataset.total(), 2);
//! assert_eq!(dataset.location_of(ObjectRef::Feature(0)), Point::new(3.8, 5.5));
//!
//! // …then split by reference and queried any number of times.
//! let splits = dataset.ref_splits(2);
//! let executor = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4);
//! for k in [1, 3] {
//!     let q = SpqQuery::new(k, 1.5, KeywordSet::from_ids([0]));
//!     let result = executor.run_shared(&dataset, &splits, &q).unwrap();
//!     assert_eq!(result.top_k[0].object, 1);
//! }
//! ```

use crate::model::{DataObject, FeatureObject};
use spq_spatial::Point;
use std::sync::Arc;

/// A reference to one object of a [`SharedDataset`] — the map-phase input
/// record of the zero-copy pipeline (4 bytes of payload + discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectRef {
    /// Index into [`SharedDataset::data`].
    Data(u32),
    /// Index into [`SharedDataset::features`].
    Feature(u32),
}

impl ObjectRef {
    /// True for data-object references.
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(self, ObjectRef::Data(_))
    }
}

/// Both datasets of one SPQ input, held once and shared immutably between
/// the executor, every map task and every reduce task.
#[derive(Debug, Clone)]
pub struct SharedDataset {
    data: Arc<[DataObject]>,
    features: Arc<[FeatureObject]>,
}

impl SharedDataset {
    /// Wraps the two datasets. This is the only copy the pipeline ever
    /// makes; every split and shuffle record refers back into it.
    pub fn new(data: Vec<DataObject>, features: Vec<FeatureObject>) -> Self {
        assert!(
            data.len() <= u32::MAX as usize && features.len() <= u32::MAX as usize,
            "shared dataset indices are u32"
        );
        Self {
            data: data.into(),
            features: features.into(),
        }
    }

    /// Wraps an owned data slice around an **already shared** feature
    /// array — cloning the `Arc`, never the features — so `N` datasets
    /// over slices of one store's data objects cost `N` data chunks plus
    /// exactly one copy of `F`.
    pub fn with_shared_features(data: Vec<DataObject>, features: Arc<[FeatureObject]>) -> Self {
        assert!(
            data.len() <= u32::MAX as usize && features.len() <= u32::MAX as usize,
            "shared dataset indices are u32"
        );
        Self {
            data: data.into(),
            features,
        }
    }

    /// The data objects `O`.
    #[inline]
    pub fn data(&self) -> &[DataObject] {
        &self.data
    }

    /// The feature objects `F`.
    #[inline]
    pub fn features(&self) -> &[FeatureObject] {
        &self.features
    }

    /// A shared handle on the data objects (no copy).
    pub fn data_arc(&self) -> Arc<[DataObject]> {
        Arc::clone(&self.data)
    }

    /// A shared handle on the feature objects (no copy).
    pub fn features_arc(&self) -> Arc<[FeatureObject]> {
        Arc::clone(&self.features)
    }

    /// Total number of objects, `|O| + |F|`.
    pub fn total(&self) -> usize {
        self.data.len() + self.features.len()
    }

    /// Resolves a reference to its location without branching on the kind
    /// at the call site.
    #[inline]
    pub fn location_of(&self, r: ObjectRef) -> Point {
        match r {
            ObjectRef::Data(i) => self.data[i as usize].location,
            ObjectRef::Feature(i) => self.features[i as usize].location,
        }
    }

    /// Horizontal partitioning into `num_splits` mixed reference splits
    /// of contiguous store-order blocks: split `s` holds the `s`-th block
    /// of data objects, then the `s`-th block of features, each block
    /// `⌊n / num_splits⌋` or `⌈n / num_splits⌉` objects long — "no
    /// assumption on the partitioning method" (Section 3.1) — so each map
    /// task reads its input sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `num_splits == 0`.
    pub fn ref_splits(&self, num_splits: usize) -> Vec<Vec<ObjectRef>> {
        assert!(num_splits > 0, "need at least one split");
        let (n_data, n_features) = (self.data.len(), self.features.len());
        (0..num_splits)
            .map(|s| {
                let data = block(s, n_data, num_splits);
                let features = block(s, n_features, num_splits);
                let mut split = Vec::with_capacity(data.len() + features.len());
                split.extend(data.map(|i| ObjectRef::Data(i as u32)));
                split.extend(features.map(|i| ObjectRef::Feature(i as u32)));
                split
            })
            .collect()
    }
}

/// The indices of the `s`-th of `num_splits` blocks of `0..n`, the first
/// of them `⌈s · n / num_splits⌉`: exactly the `i` with
/// `⌊i · num_splits / n⌋ == s`.
pub(crate) fn block(s: usize, n: usize, num_splits: usize) -> std::ops::Range<usize> {
    let start = |s: usize| (s as u64 * n as u64).div_ceil(num_splits as u64) as usize;
    start(s)..start(s + 1)
}

#[cfg(test)]
use crate::model::SpqObject;

#[cfg(test)]
impl SharedDataset {
    /// Test fixture: builds a store from owned mixed splits, returning
    /// reference splits with the identical structure (same split
    /// boundaries, same order).
    pub(crate) fn from_splits(splits: &[Vec<SpqObject>]) -> (Self, Vec<Vec<ObjectRef>>) {
        let mut data = Vec::new();
        let mut features = Vec::new();
        let ref_splits = splits
            .iter()
            .map(|split| {
                split
                    .iter()
                    .map(|o| match o {
                        SpqObject::Data(d) => {
                            data.push(*d);
                            ObjectRef::Data((data.len() - 1) as u32)
                        }
                        SpqObject::Feature(f) => {
                            features.push(f.clone());
                            ObjectRef::Feature((features.len() - 1) as u32)
                        }
                    })
                    .collect()
            })
            .collect();
        (Self::new(data, features), ref_splits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_text::KeywordSet;

    /// The split that [`SharedDataset::ref_splits`] puts object `i` of `n`
    /// in (data objects and features are counted separately): the
    /// reference formula `block` is checked against.
    fn split_of(i: usize, n: usize, num_splits: usize) -> usize {
        (i as u64 * num_splits as u64 / n as u64) as usize
    }

    fn sample() -> SharedDataset {
        SharedDataset::new(
            vec![
                DataObject::new(1, Point::new(0.0, 0.0)),
                DataObject::new(2, Point::new(1.0, 1.0)),
            ],
            vec![FeatureObject::new(
                7,
                Point::new(2.0, 2.0),
                KeywordSet::from_ids([0, 3]),
            )],
        )
    }

    #[test]
    fn accessors_resolve_refs() {
        let ds = sample();
        assert_eq!(ds.total(), 3);
        assert_eq!(ds.data().len(), 2);
        assert_eq!(ds.features().len(), 1);
        assert_eq!(ds.location_of(ObjectRef::Data(1)), Point::new(1.0, 1.0));
        assert_eq!(ds.location_of(ObjectRef::Feature(0)), Point::new(2.0, 2.0));
        assert!(ObjectRef::Data(0).is_data());
        assert!(!ObjectRef::Feature(0).is_data());
    }

    #[test]
    fn arcs_share_storage() {
        let ds = sample();
        let a = ds.data_arc();
        let b = ds.data_arc();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&ds.features_arc(), &ds.features_arc()));
    }

    #[test]
    fn ref_splits_contiguous_blocks() {
        // 5 data and 3 features over 2 splits: a round-robin layout would
        // put D0 D2 D4 F0 F2 in split 0.
        let ds = SharedDataset::new(
            (0..5)
                .map(|i| DataObject::new(i, Point::new(i as f64, 0.0)))
                .collect(),
            (0..3)
                .map(|i| FeatureObject::new(i, Point::new(0.0, i as f64), KeywordSet::empty()))
                .collect(),
        );
        let splits = ds.ref_splits(2);
        assert_eq!(
            splits,
            vec![
                vec![
                    ObjectRef::Data(0),
                    ObjectRef::Data(1),
                    ObjectRef::Data(2),
                    ObjectRef::Feature(0),
                    ObjectRef::Feature(1),
                ],
                vec![
                    ObjectRef::Data(3),
                    ObjectRef::Data(4),
                    ObjectRef::Feature(2)
                ],
            ]
        );
    }

    proptest::proptest! {
        /// Every object lands in exactly one split, at the place
        /// `split_of` names, each split reads its block in store order,
        /// and no block is longer than `⌈n / s⌉`.
        #[test]
        fn prop_ref_splits_are_store_order_blocks(
            n_data in 0usize..=200,
            n_features in 0usize..=200,
            num_splits in 1usize..=12,
        ) {
            let ds = SharedDataset::new(
                (0..n_data as u64).map(|i| DataObject::new(i, Point::new(0.0, 0.0))).collect(),
                (0..n_features as u64)
                    .map(|i| FeatureObject::new(i, Point::new(0.0, 0.0), KeywordSet::empty()))
                    .collect(),
            );
            let splits = ds.ref_splits(num_splits);
            proptest::prop_assert_eq!(splits.len(), num_splits);
            let mut data_seen = Vec::new();
            let mut features_seen = Vec::new();
            for (s, split) in splits.iter().enumerate() {
                let data: Vec<usize> = split
                    .iter()
                    .filter_map(|r| match *r {
                        ObjectRef::Data(i) => Some(i as usize),
                        ObjectRef::Feature(_) => None,
                    })
                    .collect();
                let features: Vec<usize> = split[data.len()..]
                    .iter()
                    .filter_map(|r| match *r {
                        ObjectRef::Feature(i) => Some(i as usize),
                        ObjectRef::Data(_) => None,
                    })
                    .collect();
                proptest::prop_assert_eq!(data.len() + features.len(), split.len(), "data first");
                for (ids, n) in [(&data, n_data), (&features, n_features)] {
                    proptest::prop_assert!(ids.len() <= n.div_ceil(num_splits));
                    proptest::prop_assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
                    proptest::prop_assert!(ids.iter().all(|&i| split_of(i, n, num_splits) == s));
                }
                data_seen.extend(data);
                features_seen.extend(features);
            }
            proptest::prop_assert_eq!(data_seen, (0..n_data).collect::<Vec<_>>());
            proptest::prop_assert_eq!(features_seen, (0..n_features).collect::<Vec<_>>());
        }
    }

    #[test]
    fn with_shared_features_shares_the_feature_arc() {
        let ds = sample();
        let shard = SharedDataset::with_shared_features(ds.data()[..1].to_vec(), ds.features_arc());
        assert_eq!(shard.data().len(), 1);
        assert!(Arc::ptr_eq(&shard.features_arc(), &ds.features_arc()));
        assert_eq!(shard.total(), 2);
    }

    #[test]
    fn from_splits_preserves_structure() {
        let ds = sample();
        let owned: Vec<Vec<SpqObject>> = vec![
            vec![
                SpqObject::Data(ds.data()[1]),
                SpqObject::Feature(ds.features()[0].clone()),
            ],
            vec![SpqObject::Data(ds.data()[0])],
        ];
        let (store, refs) = SharedDataset::from_splits(&owned);
        assert_eq!(store.data()[0].id, 2, "store order follows split order");
        assert_eq!(refs[0], vec![ObjectRef::Data(0), ObjectRef::Feature(0)]);
        assert_eq!(refs[1], vec![ObjectRef::Data(1)]);
        assert_eq!(store.total(), 3);
    }
}
