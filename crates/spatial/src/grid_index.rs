//! A bucketed point index for radius queries.
//!
//! Two users, one grid that does not depend on the radius: the
//! centralized oracle (`spq-core::centralized`) finds the feature objects
//! within distance `r` of a data object without scanning the full feature
//! set, and the serving kernel (`spq-core::kernel`) buckets an engine's
//! data objects once and scans, per visited feature, only the cells
//! within `r` of it. Neither is part of the paper's MapReduce job, whose
//! grid is planned per query after `r` is known (Section 4.1).

use crate::grid::{CellId, Grid};
use crate::point::Point;
use crate::rect::Rect;

/// A static grid-bucketed index over items with a point location.
///
/// Storage is a CSR (compressed sparse row) layout: one flat, cell-grouped
/// item slice plus a per-cell offset table. A radius scan touches one
/// contiguous range per visited cell — no pointer-chasing through nested
/// vectors — and `len` is the flat slice's length, O(1).
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    grid: Grid,
    /// `offsets[c]..offsets[c + 1]` is cell `c`'s range in `items`.
    offsets: Box<[u32]>,
    /// All items, grouped by cell, insertion order preserved within a cell.
    items: Box<[(Point, T)]>,
}

impl<T> GridIndex<T> {
    /// Builds an index with roughly `sqrt(n)` cells per axis over `bounds`.
    pub fn build<I>(bounds: Rect, items: I) -> Self
    where
        I: IntoIterator<Item = (Point, T)>,
    {
        let items: Vec<(Point, T)> = items.into_iter().collect();
        let n_axis = ((items.len() as f64).sqrt().ceil() as u32).clamp(1, 1024);
        Self::build_with_grid(Grid::new(bounds, n_axis, n_axis), items)
    }

    /// Builds an index over an explicit grid with a counting sort: one
    /// pass counts the items per cell into the offset table, a second
    /// gives each item its slot (insertion order preserved within a cell),
    /// and the items are then permuted into their slots in place.
    pub fn build_with_grid<I>(grid: Grid, items: I) -> Self
    where
        I: IntoIterator<Item = (Point, T)>,
    {
        let mut items: Vec<(Point, T)> = items.into_iter().collect();
        assert!(
            items.len() <= u32::MAX as usize,
            "grid index offsets are u32"
        );
        let num_cells = grid.num_cells();
        let mut offsets = vec![0u32; num_cells + 1];
        let mut slots: Vec<u32> = items.iter().map(|(p, _)| grid.cell_of(p).0).collect();
        for &c in &slots {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..num_cells {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        for slot in &mut slots {
            let next = &mut cursor[*slot as usize];
            *slot = *next;
            *next += 1;
        }
        // Each swap puts one item into its final slot.
        for i in 0..items.len() {
            while slots[i] as usize != i {
                let j = slots[i] as usize;
                items.swap(i, j);
                slots.swap(i, j);
            }
        }
        Self {
            grid,
            offsets: offsets.into_boxed_slice(),
            items: items.into_boxed_slice(),
        }
    }

    /// Total number of indexed items (O(1)).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the index holds no items (O(1)).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Calls `f` with the items of every cell whose MINDIST to `center` is
    /// at most `r` — the center's own cell first, then its Lemma-1
    /// duplication targets — one contiguous slice per cell. Every item
    /// within distance `r` of `center` is in one of them.
    pub fn for_each_cell_within<'a, F: FnMut(&'a [(Point, T)])>(
        &'a self,
        center: &Point,
        r: f64,
        mut f: F,
    ) {
        assert!(r >= 0.0 && r.is_finite(), "radius must be finite and >= 0");
        let mut visit = |cell: CellId| {
            let c = cell.index();
            f(&self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize]);
        };
        visit(self.grid.cell_of(center));
        self.grid.for_each_duplication_target(center, r, &mut visit);
    }

    /// Calls `f` for every item within distance `r` of `center`.
    pub fn for_each_within<'a, F: FnMut(&'a Point, &'a T)>(
        &'a self,
        center: &Point,
        r: f64,
        mut f: F,
    ) {
        let r_sq = r * r;
        self.for_each_cell_within(center, r, |cell| {
            for (p, item) in cell {
                if p.dist_sq(center) <= r_sq {
                    f(p, item);
                }
            }
        });
    }

    /// Collects the items within distance `r` of `center`.
    pub fn within(&self, center: &Point, r: f64) -> Vec<&T> {
        let mut out = Vec::new();
        self.for_each_within(center, r, |_, item| out.push(item));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn finds_only_items_in_radius() {
        let idx = GridIndex::build(
            Rect::unit(),
            vec![
                (Point::new(0.10, 0.10), "a"),
                (Point::new(0.20, 0.10), "b"),
                (Point::new(0.90, 0.90), "c"),
            ],
        );
        let mut hits = idx.within(&Point::new(0.12, 0.10), 0.1);
        hits.sort();
        assert_eq!(hits, vec![&"a", &"b"]);
        assert!(idx.within(&Point::new(0.5, 0.5), 0.05).is_empty());
    }

    #[test]
    fn radius_zero_matches_exact_location() {
        let idx = GridIndex::build(Rect::unit(), vec![(Point::new(0.5, 0.5), 1)]);
        assert_eq!(idx.within(&Point::new(0.5, 0.5), 0.0), vec![&1]);
        assert!(idx.within(&Point::new(0.5001, 0.5), 0.0).is_empty());
    }

    #[test]
    fn empty_index() {
        let idx: GridIndex<u8> = GridIndex::build(Rect::unit(), vec![]);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.within(&Point::new(0.5, 0.5), 1.0).is_empty());
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<(Point, usize)> = (0..500)
            .map(|i| (Point::new(rng.gen(), rng.gen()), i))
            .collect();
        let idx = GridIndex::build(Rect::unit(), pts.clone());
        assert_eq!(idx.len(), 500);
        for _ in 0..50 {
            let c = Point::new(rng.gen(), rng.gen());
            let r = rng.gen::<f64>() * 0.3;
            let mut expected: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| p.within(&c, r))
                .map(|&(_, i)| i)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<usize> = idx.within(&c, r).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn build_groups_by_cell_in_insertion_order() {
        // Eight items over a 2x2 grid, inserted in an order that interleaves
        // the cells; each cell must come out as one run, in insertion order.
        let grid = Grid::square(Rect::unit(), 2);
        let at = [
            (0.9, 0.9),
            (0.1, 0.1),
            (0.9, 0.1),
            (0.2, 0.2),
            (0.1, 0.9),
            (0.8, 0.8),
            (0.3, 0.1),
            (0.6, 0.4),
        ];
        let items = at
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new(x, y), i));
        let idx = GridIndex::build_with_grid(grid.clone(), items);
        let mut runs = Vec::new();
        for c in grid.cells() {
            let mut cell = Vec::new();
            idx.for_each_cell_within(&grid.cell_rect(c).center(), 0.0, |slice| {
                cell.extend(slice.iter().map(|&(p, i)| {
                    assert_eq!(grid.cell_of(&p), c);
                    i
                }));
            });
            runs.push(cell);
        }
        assert_eq!(runs, vec![vec![1, 3, 6], vec![2, 7], vec![4], vec![0, 5]]);
    }

    #[test]
    fn cell_visit_is_a_superset_of_the_radius_filter() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<(Point, usize)> = (0..300)
            .map(|i| (Point::new(rng.gen(), rng.gen()), i))
            .collect();
        let idx = GridIndex::build(Rect::unit(), pts);
        for _ in 0..40 {
            let c = Point::new(rng.gen(), rng.gen());
            let r = rng.gen::<f64>() * 0.4;
            let mut scanned = Vec::new();
            idx.for_each_cell_within(&c, r, |cell| scanned.extend(cell.iter().map(|&(_, i)| i)));
            let mut within: Vec<usize> = idx.within(&c, r).into_iter().copied().collect();
            within.sort_unstable();
            scanned.sort_unstable();
            // No cell is visited twice, and the filter drops only far items.
            assert!(scanned.windows(2).all(|w| w[0] < w[1]));
            assert!(within.iter().all(|i| scanned.binary_search(i).is_ok()));
        }
    }

    #[test]
    fn query_point_outside_bounds_still_works() {
        let idx = GridIndex::build(Rect::unit(), vec![(Point::new(0.01, 0.5), 7)]);
        // Center outside the data space; its clamped cell plus neighbours
        // must still find the item.
        assert_eq!(idx.within(&Point::new(-0.05, 0.5), 0.1), vec![&7]);
    }
}
