//! The query-time uniform grid of Section 4.1.
//!
//! The grid is defined *after* the query radius `r` is known. Every object
//! is assigned to the cell enclosing it; every feature object is
//! additionally duplicated into each other cell `Cj` with
//! `MINDIST(f, Cj) <= r` (Lemma 1), which makes each cell independently
//! processable: for any data object `p` in a cell, every feature within
//! distance `r` of `p` is present in that cell's partition.

use crate::point::Point;
use crate::rect::Rect;
use std::fmt;

/// Identifier of a grid cell, row-major: `id = iy * nx + ix`.
///
/// Cell ids double as MapReduce partition keys (one Reduce task per cell in
/// the paper's configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// The raw id as a usize, for indexing per-cell tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A regular uniform grid over a bounded 2-D data space.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    bounds: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
    /// Four ulps of the largest bound coordinate: more than `p ± w` can
    /// round by wherever it lands inside the bounds.
    edge_slack: f64,
}

/// Relative tolerance applied to the Lemma-1 test `MINDIST(f, Cj) <= r`.
///
/// Duplication is *conservative*: adding a borderline cell can only ship a
/// feature that turns out to be just outside `r` of every data object in
/// it (the reduce-side `d(p,f) <= r` check still decides relevance), while
/// missing one could violate Lemma 1 under floating-point rounding. We
/// therefore inflate the radius by one part in 10^12 for the duplication
/// test only.
const DUP_EPS: f64 = 1e-12;

impl Grid {
    /// Creates an `nx × ny` grid over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the bounds are degenerate.
    pub fn new(bounds: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid bounds must have positive area"
        );
        let (min, max) = (bounds.min(), bounds.max());
        let magnitude = [min.x, min.y, max.x, max.y]
            .into_iter()
            .fold(0.0, |m: f64, c| m.max(c.abs()));
        Self {
            bounds,
            nx,
            ny,
            cell_w: bounds.width() / nx as f64,
            cell_h: bounds.height() / ny as f64,
            edge_slack: 4.0 * f64::EPSILON * magnitude,
        }
    }

    /// Creates a square `n × n` grid (the paper's "grid size n" parameter,
    /// e.g. 50x50).
    pub fn square(bounds: Rect, n: u32) -> Self {
        Self::new(bounds, n, n)
    }

    /// The data-space bounds.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Cells along x.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Cells along y.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells `R` (= number of Reduce tasks in the paper).
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Cell side along x (`α` in Section 6 for square grids on square
    /// bounds).
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// Cell side along y.
    pub fn cell_height(&self) -> f64 {
        self.cell_h
    }

    /// The id of the cell at grid coordinates `(ix, iy)`.
    #[inline]
    pub fn cell_id(&self, ix: u32, iy: u32) -> CellId {
        debug_assert!(ix < self.nx && iy < self.ny);
        CellId(iy * self.nx + ix)
    }

    /// Grid coordinates of a cell id.
    #[inline]
    pub fn cell_coords(&self, c: CellId) -> (u32, u32) {
        (c.0 % self.nx, c.0 / self.nx)
    }

    /// The cell enclosing a point.
    ///
    /// Points on interior cell boundaries belong to the higher-index cell
    /// (half-open cells); points on the upper data-space boundary are
    /// clamped into the last cell, so every point in `bounds` maps to
    /// exactly one cell. Points outside the bounds are clamped as well —
    /// loaders are expected to normalise coordinates into the data space.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> CellId {
        let ix = self.axis_index(p.x - self.bounds.min().x, self.cell_w, self.nx);
        let iy = self.axis_index(p.y - self.bounds.min().y, self.cell_h, self.ny);
        CellId(iy * self.nx + ix)
    }

    #[inline]
    fn axis_index(&self, offset: f64, cell: f64, n: u32) -> u32 {
        let i = (offset / cell).floor();
        if i < 0.0 {
            0
        } else if i >= n as f64 {
            n - 1
        } else {
            i as u32
        }
    }

    /// The rectangle of a cell.
    pub fn cell_rect(&self, c: CellId) -> Rect {
        let (ix, iy) = self.cell_coords(c);
        let min_x = self.bounds.min().x + ix as f64 * self.cell_w;
        let min_y = self.bounds.min().y + iy as f64 * self.cell_h;
        Rect::from_coords(min_x, min_y, min_x + self.cell_w, min_y + self.cell_h)
    }

    /// All cells other than the enclosing one whose `MINDIST` to `p` is at
    /// most `r` — the duplication targets of Lemma 1 for a feature object
    /// at `p`.
    ///
    /// The search is restricted to the index window of the box
    /// `[p − w, p + w]`, so the cost is `O(((2r/α)+2)²)` regardless of grid
    /// size — at most the 8 surrounding cells in the paper's recommended
    /// regime `r <= α`. The half-width `w` is `r` plus slack for rounding:
    /// a data object whose distance to `p` rounds to exactly `r` can sit
    /// an ulp past `p − r` as computed, in the column before the one
    /// `p − r` falls in. `w` is `r·(1 + DUP_EPS)` plus four ulps of the
    /// largest bound coordinate, which covers how far `p ± w` can round
    /// wherever it falls inside the bounds (outside them the window is
    /// clamped to the edge cells anyway); the subtraction of `min` and
    /// the division by the cell side round the window's edge and
    /// [`Grid::cell_of`] alike, monotonically, so they cannot split an
    /// object from its window. The MINDIST test decides.
    pub fn duplication_targets(&self, p: &Point, r: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        self.for_each_duplication_target(p, r, |c| out.push(c));
        out
    }

    /// Visitor form of [`Grid::duplication_targets`] (allocation-free; this
    /// is the hot path of every Map task).
    pub fn for_each_duplication_target<F: FnMut(CellId)>(&self, p: &Point, r: f64, mut f: F) {
        assert!(r >= 0.0 && r.is_finite(), "radius must be finite and >= 0");
        let own = self.cell_of(p);
        let r_sq = r * r * (1.0 + DUP_EPS);
        let min = self.bounds.min();
        let w = r * (1.0 + DUP_EPS) + self.edge_slack;
        let lo_x = self.axis_index(p.x - w - min.x, self.cell_w, self.nx);
        let hi_x = self.axis_index(p.x + w - min.x, self.cell_w, self.nx);
        let lo_y = self.axis_index(p.y - w - min.y, self.cell_h, self.ny);
        let hi_y = self.axis_index(p.y + w - min.y, self.cell_h, self.ny);
        for iy in lo_y..=hi_y {
            for ix in lo_x..=hi_x {
                let c = self.cell_id(ix, iy);
                if c == own {
                    continue;
                }
                if self.cell_rect(c).mindist_sq(p) <= r_sq {
                    f(c);
                }
            }
        }
    }

    /// Iterates over all cell ids.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells() as u32).map(CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4x4 grid over [0,10]² of Figure 2.
    fn paper_grid() -> Grid {
        Grid::square(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4)
    }

    #[test]
    fn cell_assignment_basics() {
        let g = paper_grid();
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.cell_width(), 2.5);
        // Figure 2 numbers cells 1..16 bottom-left to top-right; our ids are
        // 0-based: its "cell 14" (containing f7 at (3.0, 8.1)) is id 13.
        assert_eq!(g.cell_of(&Point::new(3.0, 8.1)), CellId(13));
        // p4 at (1.8, 1.8) lies in the bottom-left cell.
        assert_eq!(g.cell_of(&Point::new(1.8, 1.8)), CellId(0));
    }

    #[test]
    fn boundary_points_map_into_grid() {
        let g = paper_grid();
        // Upper data-space corner clamps into the last cell.
        assert_eq!(g.cell_of(&Point::new(10.0, 10.0)), CellId(15));
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), CellId(0));
        // Interior boundary belongs to the higher cell.
        assert_eq!(g.cell_of(&Point::new(2.5, 0.0)), CellId(1));
        // Out-of-bounds points clamp.
        assert_eq!(g.cell_of(&Point::new(-5.0, 50.0)), CellId(12));
    }

    #[test]
    fn cell_rect_tiles_the_space() {
        let g = paper_grid();
        let r5 = g.cell_rect(CellId(5)); // ix=1, iy=1
        assert_eq!(r5, Rect::from_coords(2.5, 2.5, 5.0, 5.0));
        // Every cell's rect contains its own representative point.
        for c in g.cells() {
            let rect = g.cell_rect(c);
            assert_eq!(g.cell_of(&rect.center()), c);
        }
    }

    #[test]
    fn cell_coords_roundtrip() {
        let g = Grid::new(Rect::unit(), 7, 3);
        for c in g.cells() {
            let (ix, iy) = g.cell_coords(c);
            assert_eq!(g.cell_id(ix, iy), c);
        }
    }

    #[test]
    fn paper_duplication_example_f7() {
        // Section 4.1: f7 = (3.0, 8.1), r = 1.5 must duplicate to the cells
        // the paper numbers C9, C10 and C13 (1-based) = ids 8, 9, 12.
        let g = paper_grid();
        let mut targets = g.duplication_targets(&Point::new(3.0, 8.1), 1.5);
        targets.sort();
        assert_eq!(targets, vec![CellId(8), CellId(9), CellId(12)]);
    }

    #[test]
    fn interior_feature_far_from_borders_has_no_duplicates() {
        let g = paper_grid();
        // Centre of cell 5 is (3.75, 3.75); with r=1.0 the nearest border
        // is 1.25 away.
        assert!(g
            .duplication_targets(&Point::new(3.75, 3.75), 1.0)
            .is_empty());
    }

    #[test]
    fn corner_feature_duplicates_to_three_neighbors() {
        let g = paper_grid();
        // Just inside the corner shared by cells 5, 6, 9, 10.
        let p = Point::new(5.01, 5.01);
        let mut t = g.duplication_targets(&p, 0.5);
        t.sort();
        assert_eq!(t, vec![CellId(5), CellId(6), CellId(9)]);
    }

    #[test]
    fn edge_feature_duplicates_to_one_neighbor() {
        let g = paper_grid();
        // Near the vertical border between cells 5 (x in [2.5,5]) and 6,
        // far from horizontal borders.
        let p = Point::new(4.9, 3.75);
        assert_eq!(g.duplication_targets(&p, 0.2), vec![CellId(6)]);
    }

    #[test]
    fn radius_larger_than_cell_reaches_further() {
        let g = paper_grid();
        let p = Point::new(1.0, 1.0);
        // r = 3.0 exceeds the cell side 2.5 but not two cells: cell 2
        // (x in [5.0, 7.5]) is 4.0 away and stays excluded.
        let mut t = g.duplication_targets(&p, 3.0);
        t.sort();
        assert_eq!(t, vec![CellId(1), CellId(4), CellId(5)]);
        // And with r=4.5 the next ring joins.
        let mut t2 = g.duplication_targets(&p, 4.5);
        t2.sort();
        assert!(t2.contains(&CellId(2)) && t2.contains(&CellId(8)));
    }

    #[test]
    fn zero_radius_never_duplicates_interior_points() {
        let g = paper_grid();
        assert!(g.duplication_targets(&Point::new(1.2, 1.2), 0.0).is_empty());
    }

    #[test]
    fn exact_boundary_distance_is_included() {
        let g = paper_grid();
        // Point at x = 2.0 is exactly 0.5 from the border at 2.5.
        let t = g.duplication_targets(&Point::new(2.0, 1.25), 0.5);
        assert_eq!(t, vec![CellId(1)]);
    }

    #[test]
    fn single_cell_grid_has_no_targets() {
        let g = Grid::square(Rect::unit(), 1);
        assert!(g
            .duplication_targets(&Point::new(0.5, 0.5), 10.0)
            .is_empty());
        assert_eq!(g.cell_of(&Point::new(0.3, 0.9)), CellId(0));
    }

    #[test]
    fn lemma1_coverage_randomised() {
        // For random (p, f) pairs within r, f's own cell or its duplication
        // targets must include p's cell — the correctness core of Lemma 1.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let g = Grid::square(Rect::unit(), 8);
        let r = 0.07;
        for _ in 0..2000 {
            let f = Point::new(rng.gen(), rng.gen());
            let angle: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
            let dist: f64 = rng.gen::<f64>() * r;
            let p = Point::new(
                (f.x + angle.cos() * dist).clamp(0.0, 1.0),
                (f.y + angle.sin() * dist).clamp(0.0, 1.0),
            );
            if !p.within(&f, r) {
                continue; // clamping may have moved p, keep only true pairs
            }
            let p_cell = g.cell_of(&p);
            let covered = g.cell_of(&f) == p_cell || g.duplication_targets(&f, r).contains(&p_cell);
            assert!(covered, "pair p={p} f={f} not covered");
        }
    }

    #[test]
    #[should_panic]
    fn zero_dimension_grid_rejected() {
        let _ = Grid::new(Rect::unit(), 0, 4);
    }
}
