//! Set similarities, exact scores and the early-termination upper bounds.
//!
//! Definition 1 of the paper fixes the non-spatial score to the Jaccard
//! similarity `w(f, q) = |q.W ∩ f.W| / |q.W ∪ f.W|`, bounded in `[0, 1]`.
//! Section 5.1 derives the keyword-length bound of Equation 1,
//!
//! ```text
//! w̄(f, q) = 1                    if |f.W| <  |q.W|
//! w̄(f, q) = |q.W| / |f.W|        if |f.W| >= |q.W|
//! ```
//!
//! which is what allows eSPQlen to stop scanning once the running top-k
//! threshold `τ` reaches the bound of the next feature in keyword-length
//! order. Dice and overlap similarities are provided as documented
//! extensions with their own bounds; the paper itself only uses Jaccard.

use crate::keywords::KeywordSet;
use std::cmp::Ordering;
use std::fmt;

/// A similarity score in `[0, 1]` (data objects use a sentinel above 1 in
/// Map output keys, so the representable range is `[0, 2]`).
///
/// Scores originate as exact rationals `num / den` of small integers, so an
/// `f64` carries them without rounding surprises for equality of identical
/// ratios; the wrapper adds the total order that the shuffle comparators
/// need ([`Ord`] via `total_cmp`) and forbids NaN by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Score(f64);

impl Score {
    /// The zero score.
    pub const ZERO: Score = Score(0.0);
    /// The maximal similarity score.
    pub const ONE: Score = Score(1.0);
    /// The sentinel used by eSPQsco Map output for data objects (Algorithm
    /// 5 line 5): strictly above any Jaccard value, so that data objects
    /// sort before every feature object under a descending-score order.
    pub const DATA_SENTINEL: Score = Score(2.0);

    /// Builds a score from an exact ratio.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` while `num != 0`; the empty/empty case is
    /// defined as 0 (two empty keyword sets have no common term).
    #[inline]
    pub fn ratio(num: usize, den: usize) -> Score {
        if num == 0 {
            return Score::ZERO;
        }
        assert!(den > 0, "score ratio with zero denominator");
        Score(num as f64 / den as f64)
    }

    /// Builds a score from a raw float.
    ///
    /// # Panics
    ///
    /// Panics if the value is NaN or negative.
    #[inline]
    pub fn from_f64(v: f64) -> Score {
        assert!(v.is_finite() && v >= 0.0, "score must be finite and >= 0");
        Score(v)
    }

    /// The raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True if the score is exactly zero (feature cannot contribute).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The larger of two scores.
    #[inline]
    pub fn max(self, other: Score) -> Score {
        if other > self {
            other
        } else {
            self
        }
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// The set-similarity function used as the non-spatial score `w(f, q)`.
///
/// The paper fixes Jaccard (Definition 1); Dice and overlap are provided as
/// extensions so that the early-termination machinery can be exercised with
/// different bound tightnesses (see `upper_bound_by_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SetSimilarity {
    /// `|A ∩ B| / |A ∪ B|` — the paper's choice.
    #[default]
    Jaccard,
    /// `2|A ∩ B| / (|A| + |B|)`.
    Dice,
    /// `|A ∩ B| / min(|A|, |B|)`; its length bound is trivial (1), so
    /// eSPQlen degenerates to pSPQ under this similarity — which is why
    /// the paper's Equation-1 bound needs the union in the denominator.
    Overlap,
}

impl SetSimilarity {
    /// Computes the similarity `w(f, q)` between a query keyword set and a
    /// feature keyword set.
    pub fn score(self, query: &KeywordSet, feature: &KeywordSet) -> Score {
        self.score_from_counts(query.intersection_len(feature), query.len(), feature.len())
    }

    /// The similarity of two sets known only by their sizes:
    /// `inter = |q.W ∩ f.W|`, `query_len = |q.W|`, `feature_len = |f.W|`.
    /// [`score`](Self::score) delegates here, so a caller that already
    /// counted the intersection (an inverted index merging posting lists)
    /// gets the same `f64` bits without touching either set.
    #[inline]
    pub fn score_from_counts(self, inter: usize, query_len: usize, feature_len: usize) -> Score {
        if inter == 0 {
            return Score::ZERO;
        }
        match self {
            SetSimilarity::Jaccard => Score::ratio(inter, query_len + feature_len - inter),
            SetSimilarity::Dice => Score::ratio(2 * inter, query_len + feature_len),
            SetSimilarity::Overlap => Score::ratio(inter, query_len.min(feature_len)),
        }
    }

    /// The best possible score of *any* feature with `feature_len` keywords
    /// against a query with `query_len` keywords.
    ///
    /// For Jaccard this is Equation 1 of the paper. The bound is
    /// monotonically non-increasing in `feature_len` once
    /// `feature_len >= query_len`, which is exactly the property Lemma 2
    /// needs: scanning features by increasing keyword length, the bound of
    /// the current feature dominates the score of every unseen feature.
    pub fn upper_bound_by_len(self, query_len: usize, feature_len: usize) -> Score {
        if query_len == 0 || feature_len == 0 {
            return Score::ZERO;
        }
        match self {
            SetSimilarity::Jaccard => {
                if feature_len < query_len {
                    Score::ONE
                } else {
                    Score::ratio(query_len, feature_len)
                }
            }
            SetSimilarity::Dice => {
                let best_inter = query_len.min(feature_len);
                Score::ratio(2 * best_inter, query_len + feature_len)
            }
            SetSimilarity::Overlap => Score::ONE,
        }
    }

    /// Whether `upper_bound_by_len` is non-increasing in the feature length
    /// for lengths `>= query_len`, i.e. whether eSPQlen's early termination
    /// can ever fire under this similarity.
    pub fn supports_length_termination(self) -> bool {
        !matches!(self, SetSimilarity::Overlap)
    }
}

/// Jaccard similarity (Definition 1): `w(f,q) = |q.W ∩ f.W| / |q.W ∪ f.W|`.
#[inline]
pub fn jaccard(query: &KeywordSet, feature: &KeywordSet) -> Score {
    SetSimilarity::Jaccard.score(query, feature)
}

/// The keyword-length upper bound of Equation 1 for Jaccard.
#[inline]
pub fn jaccard_upper_bound(query_len: usize, feature_len: usize) -> Score {
    SetSimilarity::Jaccard.upper_bound_by_len(query_len, feature_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn jaccard_matches_paper_example() {
        // Table 2: q.W = {italian}. f1 = {italian, gourmet} -> 0.5,
        // f4 = {italian} -> 1, f7 = {italian, spaghetti} -> 0.5,
        // f2 = {chinese, cheap} -> 0.
        let q = ks(&[0]); // italian
        assert_eq!(jaccard(&q, &ks(&[0, 1])), Score::ratio(1, 2));
        assert_eq!(jaccard(&q, &ks(&[0])), Score::ONE);
        assert_eq!(jaccard(&q, &ks(&[0, 2])), Score::ratio(1, 2));
        assert_eq!(jaccard(&q, &ks(&[3, 4])), Score::ZERO);
    }

    #[test]
    fn jaccard_symmetric() {
        let a = ks(&[1, 2, 3]);
        let b = ks(&[2, 3, 4, 5]);
        assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
        assert_eq!(jaccard(&a, &b), Score::ratio(2, 5));
    }

    #[test]
    fn empty_sets_score_zero() {
        let e = KeywordSet::empty();
        assert_eq!(jaccard(&e, &e), Score::ZERO);
        assert_eq!(jaccard(&e, &ks(&[1])), Score::ZERO);
    }

    #[test]
    fn upper_bound_equation_one() {
        // |f.W| < |q.W| -> 1
        assert_eq!(jaccard_upper_bound(3, 1), Score::ONE);
        assert_eq!(jaccard_upper_bound(3, 2), Score::ONE);
        // |f.W| >= |q.W| -> |q.W| / |f.W|
        assert_eq!(jaccard_upper_bound(3, 3), Score::ONE);
        assert_eq!(jaccard_upper_bound(3, 6), Score::ratio(1, 2));
        assert_eq!(jaccard_upper_bound(1, 4), Score::ratio(1, 4));
    }

    #[test]
    fn upper_bound_zero_lengths() {
        assert_eq!(jaccard_upper_bound(0, 5), Score::ZERO);
        assert_eq!(jaccard_upper_bound(5, 0), Score::ZERO);
    }

    #[test]
    fn dice_and_overlap_scores() {
        let q = ks(&[1, 2]);
        let f = ks(&[2, 3, 4]);
        assert_eq!(SetSimilarity::Dice.score(&q, &f), Score::ratio(2, 5));
        assert_eq!(SetSimilarity::Overlap.score(&q, &f), Score::ratio(1, 2));
    }

    #[test]
    fn score_from_counts_needs_only_the_sizes() {
        // |q ∩ f| = 2, |q| = 3, |f| = 4: union 5, sum 7, min 3.
        let (j, d, o) = (
            SetSimilarity::Jaccard.score_from_counts(2, 3, 4),
            SetSimilarity::Dice.score_from_counts(2, 3, 4),
            SetSimilarity::Overlap.score_from_counts(2, 3, 4),
        );
        assert_eq!(
            (j, d, o),
            (Score::ratio(2, 5), Score::ratio(4, 7), Score::ratio(2, 3))
        );
        let (q, f) = (ks(&[1, 2, 3]), ks(&[2, 3, 4, 5]));
        assert_eq!(SetSimilarity::Jaccard.score(&q, &f), j);
        assert_eq!(SetSimilarity::Dice.score(&q, &f), d);
        assert_eq!(SetSimilarity::Overlap.score(&q, &f), o);
        assert_eq!(
            SetSimilarity::Jaccard.score_from_counts(0, 3, 4),
            Score::ZERO
        );
    }

    #[test]
    fn overlap_has_trivial_bound() {
        assert_eq!(
            SetSimilarity::Overlap.upper_bound_by_len(3, 100),
            Score::ONE
        );
        assert!(!SetSimilarity::Overlap.supports_length_termination());
        assert!(SetSimilarity::Jaccard.supports_length_termination());
        assert!(SetSimilarity::Dice.supports_length_termination());
    }

    #[test]
    fn score_ordering_total() {
        let mut v = vec![Score::ONE, Score::ZERO, Score::ratio(1, 2)];
        v.sort();
        assert_eq!(v, vec![Score::ZERO, Score::ratio(1, 2), Score::ONE]);
        assert!(Score::DATA_SENTINEL > Score::ONE);
    }

    #[test]
    fn score_max_and_display() {
        assert_eq!(Score::ZERO.max(Score::ONE), Score::ONE);
        assert_eq!(Score::ONE.max(Score::ZERO), Score::ONE);
        assert_eq!(Score::ratio(1, 2).to_string(), "0.5000");
    }

    #[test]
    #[should_panic]
    fn ratio_panics_on_zero_denominator() {
        let _ = Score::ratio(1, 0);
    }

    #[test]
    #[should_panic]
    fn from_f64_rejects_nan() {
        let _ = Score::from_f64(f64::NAN);
    }

    proptest! {
        /// Jaccard is always within [0, 1].
        #[test]
        fn prop_jaccard_bounded(a in proptest::collection::vec(0u32..64, 0..12),
                                b in proptest::collection::vec(0u32..64, 0..12)) {
            let (a, b) = (KeywordSet::from_ids(a), KeywordSet::from_ids(b));
            let s = jaccard(&a, &b);
            prop_assert!(s >= Score::ZERO && s <= Score::ONE);
        }

        /// Equation 1 dominates the true score for every similarity.
        #[test]
        fn prop_upper_bound_dominates(a in proptest::collection::vec(0u32..64, 1..12),
                                      b in proptest::collection::vec(0u32..64, 1..12)) {
            let (q, f) = (KeywordSet::from_ids(a), KeywordSet::from_ids(b));
            for sim in [SetSimilarity::Jaccard, SetSimilarity::Dice, SetSimilarity::Overlap] {
                let s = sim.score(&q, &f);
                let ub = sim.upper_bound_by_len(q.len(), f.len());
                prop_assert!(ub >= s, "{sim:?}: bound {ub} < score {s}");
            }
        }

        /// The Jaccard bound is non-increasing in feature length beyond
        /// |q.W| — the monotonicity Lemma 2 relies on.
        #[test]
        fn prop_bound_monotone(qlen in 1usize..16, flen in 1usize..64) {
            let b1 = jaccard_upper_bound(qlen, flen.max(qlen));
            let b2 = jaccard_upper_bound(qlen, flen.max(qlen) + 1);
            prop_assert!(b2 <= b1);
        }

        /// Identical sets score exactly 1 under Jaccard and Dice.
        #[test]
        fn prop_self_similarity(a in proptest::collection::vec(0u32..64, 1..12)) {
            let s = KeywordSet::from_ids(a);
            prop_assert_eq!(jaccard(&s, &s.clone()), Score::ONE);
            prop_assert_eq!(SetSimilarity::Dice.score(&s, &s.clone()), Score::ONE);
        }
    }
}
