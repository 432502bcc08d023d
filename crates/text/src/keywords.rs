//! Sorted keyword sets and their set arithmetic.
//!
//! Feature objects carry a set of keywords `f.W`; queries carry `q.W`
//! (Table 1 of the paper). Both are represented as sorted, deduplicated
//! slices of interned [`Term`] ids so that intersection and union sizes —
//! the only operations the scoring functions need — are one binary search
//! of each term of the shorter set in the longer one, without hashing or
//! allocation.

use std::fmt;

/// An interned keyword id assigned by a [`crate::Vocabulary`].
///
/// Term ids are dense (`0..vocab.len()`), which lets generators sample them
/// directly and keeps keyword sets compact (4 bytes per keyword).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term(pub u32);

impl Term {
    /// The raw id as a usize, for indexing frequency tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An immutable, sorted, deduplicated set of keywords.
///
/// This is the representation of both `f.W` (feature annotations) and `q.W`
/// (query keywords). The invariant — strictly increasing term ids — is
/// established at construction and relied upon by the merge routines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KeywordSet {
    terms: Box<[Term]>,
}

impl KeywordSet {
    /// Builds a set from arbitrary terms, sorting and deduplicating.
    pub fn new(mut terms: Vec<Term>) -> Self {
        terms.sort_unstable();
        terms.dedup();
        Self {
            terms: terms.into_boxed_slice(),
        }
    }

    /// Builds a set from raw u32 ids (convenience for tests and loaders).
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::new(ids.into_iter().map(Term).collect())
    }

    /// Builds a set from a slice already known to be strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(terms: Vec<Term>) -> Self {
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly increasing terms"
        );
        Self {
            terms: terms.into_boxed_slice(),
        }
    }

    /// The empty keyword set (used for data objects, which carry no text).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of keywords `|W|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the set has no keywords.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted terms.
    #[inline]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: Term) -> bool {
        self.terms.binary_search(&t).is_ok()
    }

    /// Size of the intersection `|A ∩ B|`: each term of the shorter set
    /// is binary-searched in the longer one.
    ///
    /// That is `|A|·log2|B|` probes instead of a merge's `|A| + |B|` steps,
    /// and the searches of different terms do not wait on each other: a
    /// 3-keyword query against a 55-keyword feature takes 18 probes where
    /// a merge walks up to 58 terms. Two sets of about one size count
    /// slower than by a merge (`micro` bench `q50_f50`); scoring compares
    /// a few query keywords with a longer `f.W`.
    pub fn intersection_len(&self, other: &KeywordSet) -> usize {
        let (short, long) = if self.len() <= other.len() {
            (&self.terms, &other.terms)
        } else {
            (&other.terms, &self.terms)
        };
        short
            .iter()
            .filter(|t| long.binary_search(t).is_ok())
            .count()
    }

    /// Size of the union `|A ∪ B|` (inclusion–exclusion over
    /// [`intersection_len`](Self::intersection_len)).
    pub fn union_len(&self, other: &KeywordSet) -> usize {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// True if the sets share at least one keyword.
    ///
    /// This is the Map-phase pruning rule of Algorithm 1 (line 9): feature
    /// objects with `q.W ∩ f.W = ∅` cannot contribute to any score and are
    /// dropped before the shuffle.
    pub fn intersects(&self, other: &KeywordSet) -> bool {
        self.intersection_len(other) != 0
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> impl Iterator<Item = Term> + '_ {
        self.terms.iter().copied()
    }
}

impl FromIterator<Term> for KeywordSet {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl fmt::Display for KeywordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = ks(&[5, 1, 3, 1, 5]);
        assert_eq!(s.terms(), &[Term(1), Term(3), Term(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_set_behaves() {
        let e = KeywordSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.intersection_len(&ks(&[1, 2])), 0);
        assert_eq!(e.union_len(&ks(&[1, 2])), 2);
        assert!(!e.intersects(&ks(&[1, 2])));
        assert!(!e.contains(Term(1)));
    }

    #[test]
    fn intersection_and_union_lengths() {
        let a = ks(&[1, 2, 3, 7, 9]);
        let b = ks(&[2, 3, 4, 9, 11, 12]);
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(b.intersection_len(&a), 3);
        assert_eq!(a.union_len(&b), 8);
    }

    #[test]
    fn disjoint_sets() {
        let a = ks(&[1, 3, 5]);
        let b = ks(&[2, 4, 6]);
        assert_eq!(a.intersection_len(&b), 0);
        assert!(!a.intersects(&b));
        assert_eq!(a.union_len(&b), 6);
    }

    #[test]
    fn identical_sets() {
        let a = ks(&[10, 20, 30]);
        assert_eq!(a.intersection_len(&a.clone()), 3);
        assert_eq!(a.union_len(&a.clone()), 3);
        assert!(a.intersects(&a.clone()));
    }

    #[test]
    fn intersects_finds_first_common_term_early() {
        let a = ks(&[1, 100]);
        let b = ks(&[1, 2, 3]);
        assert!(a.intersects(&b));
        let c = ks(&[99, 100]);
        assert!(a.intersects(&c));
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = ks(&[2, 4, 8, 16]);
        assert!(a.contains(Term(8)));
        assert!(!a.contains(Term(7)));
    }

    #[test]
    fn from_sorted_accepts_valid_input() {
        let s = KeywordSet::from_sorted(vec![Term(1), Term(2), Term(9)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn from_sorted_rejects_unsorted_in_debug() {
        let _ = KeywordSet::from_sorted(vec![Term(2), Term(1)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ks(&[1, 2]).to_string(), "{t1,t2}");
        assert_eq!(KeywordSet::empty().to_string(), "{}");
    }

    #[test]
    fn from_iterator_collects() {
        let s: KeywordSet = [Term(3), Term(1), Term(3)].into_iter().collect();
        assert_eq!(s.terms(), &[Term(1), Term(3)]);
    }

    /// A strictly increasing set from its gaps (each >= 1), starting at 0.
    fn from_gaps(gaps: &[u32]) -> KeywordSet {
        let mut next = 0;
        KeywordSet::from_sorted(
            gaps.iter()
                .map(|g| {
                    next += g;
                    Term(next)
                })
                .collect(),
        )
    }

    /// `|A ∩ B|` by the plain linear merge the counts must equal.
    fn merge_count(a: &KeywordSet, b: &KeywordSet) -> usize {
        use std::cmp::Ordering;
        let (a, b) = (a.terms(), b.terms());
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    fn assert_counts_match_merge(a: &KeywordSet, b: &KeywordSet) {
        use crate::SetSimilarity;
        let n = merge_count(a, b);
        for (x, y) in [(a, b), (b, a)] {
            assert_eq!(x.intersection_len(y), n, "{x} vs {y}");
            assert_eq!(x.intersects(y), n > 0, "{x} vs {y}");
            for sim in [
                SetSimilarity::Jaccard,
                SetSimilarity::Dice,
                SetSimilarity::Overlap,
            ] {
                let want = sim.score_from_counts(n, x.len(), y.len());
                assert_eq!(
                    sim.score(x, y).value().to_bits(),
                    want.value().to_bits(),
                    "{sim:?} of {x} vs {y}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// A short set (0–5 terms, sparse) against a long one (0–200
        /// terms, dense).
        #[test]
        fn prop_skewed_counts_match_merge(
            short in proptest::collection::vec(1u32..80, 0..6),
            long in proptest::collection::vec(1u32..4, 0..201),
        ) {
            assert_counts_match_merge(&from_gaps(&short), &from_gaps(&long));
        }

        /// Two sets of one size (0–59 terms).
        #[test]
        fn prop_equal_size_counts_match_merge(
            gaps in proptest::collection::vec((1u32..4, 1u32..4), 0..60),
        ) {
            let a: Vec<u32> = gaps.iter().map(|g| g.0).collect();
            let b: Vec<u32> = gaps.iter().map(|g| g.1).collect();
            assert_counts_match_merge(&from_gaps(&a), &from_gaps(&b));
        }
    }
}
