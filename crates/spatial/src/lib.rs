//! Spatial substrate for spatial preference queries using keywords.
//!
//! The paper's partitioning scheme (Section 4.1) lays a regular, uniform
//! grid over the 2-dimensional data space *at query time* (the cell side is
//! chosen relative to the query radius `r`), assigns every object to its
//! enclosing cell, and duplicates each feature object into every other cell
//! `Ci` with `MINDIST(f, Ci) <= r` (Lemma 1). This crate provides the
//! geometry for that scheme:
//!
//! * [`Point`] / [`Rect`] — 2-D points and axis-aligned rectangles with the
//!   `MINDIST` primitive (distance from a point to the nearest rectangle
//!   edge, 0 when inside).
//! * [`Grid`] — the query-time uniform grid: cell assignment (boundary
//!   safe), cell rectangles, and enumeration of Lemma-1 duplication
//!   targets.
//! * [`GridIndex`] — a radius-independent bucketed point index for
//!   `r`-range queries, used by the centralized baselines and by the
//!   serving kernel.

pub mod adaptive;
pub mod grid;
pub mod grid_index;
pub mod partition;
pub mod point;
pub mod rect;

pub use adaptive::AdaptiveGrid;
pub use grid::{CellId, Grid};
pub use grid_index::GridIndex;
pub use partition::SpacePartition;
pub use point::Point;
pub use rect::Rect;
