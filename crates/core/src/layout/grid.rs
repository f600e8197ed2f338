//! The grid layout (§5.1), adapted from GridGraph \[37\].
//!
//! "Data is laid-out as a grid of cells. Each cell contains the edges
//! from a range of vertices to another range of vertices. […]
//! Computation then iterates over cells. The goal is that the metadata
//! associated with the vertices in the cell stays in cache and can
//! therefore be reused."
//!
//! The grid also partitions the graph for lock-free execution (§6.1.2):
//! edges in different **columns** have different destination vertices,
//! so a core that is assigned whole columns owns every vertex its edges
//! write — whether a push rule writes `e.dst()` or a pull rule updates
//! the receiver `e.dst()` from `e.src()`. Both directions run over that
//! one column cut.

use super::EdgeStream;
use crate::types::{EdgeRecord, VertexId};
use std::ops::Range;

/// The default grid side: "we experimentally find that a grid of
/// 256×256 cells performs best on the Twitter and RMAT26 graphs".
pub const DEFAULT_GRID_SIDE: usize = 256;

/// A P×P grid of edge cells.
#[derive(Debug, Clone)]
pub struct Grid<E> {
    num_vertices: usize,
    side: usize,
    /// Vertices per row/column range (`ceil(num_vertices / side)`).
    range_len: usize,
    /// `side * side + 1` exclusive offsets into `edges`, row-major.
    cell_offsets: Vec<u64>,
    /// Edges grouped by cell.
    edges: Vec<E>,
}

impl<E: EdgeRecord> Grid<E> {
    /// Wraps pre-grouped cell arrays.
    ///
    /// # Panics
    ///
    /// Panics if `cell_offsets` is not a monotone `side² + 1` prefix
    /// table ending at `edges.len()`.
    pub fn from_parts(
        num_vertices: usize,
        side: usize,
        cell_offsets: Vec<u64>,
        edges: Vec<E>,
    ) -> Self {
        assert!(side > 0, "grid side must be positive");
        assert_eq!(cell_offsets.len(), side * side + 1, "cell offsets length");
        assert_eq!(*cell_offsets.last().unwrap() as usize, edges.len());
        debug_assert!(cell_offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            num_vertices,
            side,
            range_len: num_vertices.div_ceil(side).max(1),
            cell_offsets,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Grid side P (the grid has P×P cells).
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Vertices per row/column range.
    #[inline]
    pub fn range_len(&self) -> usize {
        self.range_len
    }

    /// The (row, column) cell coordinates of an edge.
    #[inline]
    pub fn cell_of(&self, src: VertexId, dst: VertexId) -> (usize, usize) {
        (src as usize / self.range_len, dst as usize / self.range_len)
    }

    /// Edges of cell (row, col).
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &[E] {
        let id = row * self.side + col;
        &self.edges[self.cell_offsets[id] as usize..self.cell_offsets[id + 1] as usize]
    }

    /// Flat index of the first edge of cell (row, col), for simulated
    /// cache addressing.
    #[inline]
    pub fn cell_base_index(&self, row: usize, col: usize) -> u64 {
        self.cell_offsets[row * self.side + col]
    }

    /// The vertex range covered by row/column `i`.
    #[inline]
    pub fn vertex_range(&self, i: usize) -> Range<VertexId> {
        let lo = (i * self.range_len).min(self.num_vertices);
        let hi = ((i + 1) * self.range_len).min(self.num_vertices);
        lo as VertexId..hi as VertexId
    }

    /// All edges, grouped by cell (row-major).
    #[inline]
    pub fn edges(&self) -> &[E] {
        &self.edges
    }

    /// The grid cut into individual cells (see [`GridCells`]).
    pub fn cells(&self) -> GridCells<'_, E> {
        GridCells(self)
    }

    /// Resident heap bytes of the layout (cell offsets + edge array) —
    /// what the serve daemon's `/healthz` and the compression
    /// experiment report.
    pub fn resident_bytes(&self) -> u64 {
        (self.cell_offsets.len() * 8 + self.edges.len() * std::mem::size_of::<E>()) as u64
    }
}

/// The grid streamed with **column ownership**: a unit is one column,
/// so all writes to a destination range come from one task and need no
/// locks (§6.1.2) — push rules may use plain writes, and the engine's
/// pull round over the grid streams the same units.
impl<E: EdgeRecord> EdgeStream<E> for Grid<E> {
    const PUSH_SPAN: &'static str = "grid_push_columns";
    const GRAIN: usize = 1;
    const DST_EXCLUSIVE: bool = true;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn num_units(&self) -> usize {
        self.side
    }

    #[inline]
    fn runs(&self, units: Range<usize>) -> impl Iterator<Item = (u64, &[E])> {
        // Column-major over the cells of the claimed columns.
        (units.start * self.side..units.end * self.side).map(move |i| {
            let (col, row) = (i / self.side, i % self.side);
            (self.cell_base_index(row, col), self.cell(row, col))
        })
    }
}

/// The grid streamed cell by cell, in arbitrary parallel order: the
/// "grid (locks)" configuration of Fig. 8 — `side²` units balance
/// better than `side` columns, and push rules must synchronize their
/// destination updates.
#[derive(Debug, Clone, Copy)]
pub struct GridCells<'a, E>(&'a Grid<E>);

impl<E: EdgeRecord> EdgeStream<E> for GridCells<'_, E> {
    const PUSH_SPAN: &'static str = "grid_push_cells";
    const GRAIN: usize = 1;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.0.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.0.edges.len()
    }

    #[inline]
    fn num_units(&self) -> usize {
        self.0.side * self.0.side
    }

    #[inline]
    fn runs(&self, units: Range<usize>) -> impl Iterator<Item = (u64, &[E])> {
        // Cells are stored row-major, so consecutive cells are one run.
        let offsets = &self.0.cell_offsets;
        let (lo, hi) = (offsets[units.start], offsets[units.end]);
        std::iter::once((lo, &self.0.edges[lo as usize..hi as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    /// The Figure 4 example: 4 vertices, 2×2 grid, ranges {0,1} and
    /// {2,3}; edges (0,1), (1,0), (0,2), (0,3), (2,3).
    fn figure4_grid() -> Grid<Edge> {
        // Cells row-major: (0,0)={(0,1),(1,0)}, (0,1)={(0,2),(0,3)},
        // (1,0)={}, (1,1)={(2,3)}.
        Grid::from_parts(
            4,
            2,
            vec![0, 2, 4, 4, 5],
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(2, 3),
            ],
        )
    }

    #[test]
    fn figure4_cells() {
        let g = figure4_grid();
        assert_eq!(g.cell(0, 0), &[Edge::new(0, 1), Edge::new(1, 0)]);
        assert_eq!(g.cell(0, 1), &[Edge::new(0, 2), Edge::new(0, 3)]);
        assert_eq!(g.cell(1, 0), &[]);
        assert_eq!(g.cell(1, 1), &[Edge::new(2, 3)]);
    }

    #[test]
    fn cell_of_maps_ranges() {
        let g = figure4_grid();
        assert_eq!(g.cell_of(0, 1), (0, 0));
        assert_eq!(g.cell_of(0, 2), (0, 1));
        assert_eq!(g.cell_of(2, 3), (1, 1));
    }

    #[test]
    fn vertex_ranges_cover_graph() {
        let g = figure4_grid();
        assert_eq!(g.vertex_range(0), 0..2);
        assert_eq!(g.vertex_range(1), 2..4);
    }

    #[test]
    fn vertex_ranges_clamp_at_boundary() {
        // 5 vertices over a side of 3: ranges of 2, last clamped.
        let g: Grid<Edge> = Grid::from_parts(5, 3, vec![0; 10], vec![]);
        assert_eq!(g.vertex_range(0), 0..2);
        assert_eq!(g.vertex_range(1), 2..4);
        assert_eq!(g.vertex_range(2), 4..5);
    }

    #[test]
    #[should_panic(expected = "cell offsets length")]
    fn rejects_malformed_offsets() {
        let _: Grid<Edge> = Grid::from_parts(4, 2, vec![0, 1], vec![]);
    }
}
