//! Global merge of per-cell top-k results.
//!
//! Each reduce task reports the top-k data objects *of its cell*; "the
//! final result is produced by merging the k results of each of the R
//! cells and returning the top-k with the highest score. [...] this last
//! step can be performed in a centralized way without significant
//! overhead" (Section 4.2). Data objects are never duplicated across
//! cells, so the merge needs no deduplication.

use crate::model::RankedObject;

/// Merges per-cell results into the global top-k (canonical order:
/// score desc, id asc).
///
/// The result holds exactly its entries (`len() == capacity() <= k`): a
/// caller that keeps answers keeps k entries each, not the capacity of
/// every cell's list.
pub fn merge_top_k(cell_results: Vec<RankedObject>, k: usize) -> Vec<RankedObject> {
    let mut all = cell_results;
    all.sort_by(RankedObject::canonical_cmp);
    all.truncate(k);
    all.shrink_to_fit();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_spatial::Point;
    use spq_text::Score;

    fn r(id: u64, num: usize) -> RankedObject {
        RankedObject::new(id, Point::new(0.0, 0.0), Score::ratio(num, 10))
    }

    #[test]
    fn merges_across_cells() {
        // Two cells' local top-2 lists.
        let merged = merge_top_k(vec![r(1, 9), r(2, 3), r(3, 7), r(4, 5)], 2);
        assert_eq!(
            merged.iter().map(|e| e.object).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn fewer_results_than_k() {
        let merged = merge_top_k(vec![r(1, 5)], 10);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn ties_resolved_by_id() {
        let merged = merge_top_k(vec![r(9, 5), r(2, 5), r(5, 5)], 2);
        assert_eq!(
            merged.iter().map(|e| e.object).collect::<Vec<_>>(),
            vec![2, 5]
        );
    }

    #[test]
    fn empty_input() {
        assert!(merge_top_k(vec![], 5).is_empty());
    }

    #[test]
    fn result_holds_only_its_entries() {
        let mut cells = Vec::with_capacity(600);
        cells.extend((0..40).map(|i| r(i, (i % 7) as usize)));
        let merged = merge_top_k(cells, 10);
        assert_eq!((merged.len(), merged.capacity()), (10, 10));
        assert!(merge_top_k(vec![r(1, 5)], 0).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Equals sorting everything and keeping k, for any k from 1 to
        /// past the input length, over per-cell lists with score ties and
        /// ids that never repeat.
        #[test]
        fn prop_matches_sort_everything(
            cells in proptest::collection::vec(proptest::collection::vec(0usize..5, 0..12), 0..8),
            k in 1usize..80,
        ) {
            let mut id = 0u64;
            let flat: Vec<RankedObject> = cells
                .iter()
                .flatten()
                .map(|&num| {
                    id += 1;
                    r(id * 7 % 97, num)
                })
                .collect();
            let mut reference = flat.clone();
            reference.sort_by(RankedObject::canonical_cmp);
            reference.truncate(k);
            let merged = merge_top_k(flat, k);
            proptest::prop_assert_eq!(merged.capacity(), merged.len());
            proptest::prop_assert_eq!(merged, reference);
        }
    }
}
