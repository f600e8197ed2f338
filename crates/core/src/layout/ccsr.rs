//! Compressed CSR (`ccsr`): sorted neighbor lists stored as delta
//! streams packed at one bit width per chunk, chunked so a worker decodes
//! one vertex's list without touching neighboring chunks.
//!
//! The lists are cut and delta-coded the way Ligra+ and GBBS do it (see
//! PAPERS.md): each chunk holds at most [`SPAN_EDGES`](super::SPAN_EDGES)
//! neighbors. A chunk is
//!
//! * one **header byte** `(first_len − 1) | width << 2`;
//! * the first neighbor as **`zigzag32(first − v)`** (wrapping; the delta
//!   from the owning vertex may be negative) in `first_len` (1–4)
//!   little-endian bytes;
//! * the chunk's **gaps** between consecutive neighbors (lists are
//!   sorted, so gaps are non-negative; duplicates are gap `0`), packed
//!   LSB-first at `width` bits each and padded to a byte. `width`
//!   (0..=32) is the bit width of the chunk's largest gap.
//!
//! Every gap of a chunk is one 8-byte load, one shift and one mask at
//! the same width, so decoding has no per-gap length and no
//! data-dependent branch. Vertices with more than one chunk prefix their
//! stream with a **skip table** of `nchunks - 1` little-endian `u32`
//! byte offsets (relative to the end of the table), so any chunk can be
//! located and decoded independently — the hook the out-of-core roadmap
//! items build on.
//!
//! ```text
//! byte_offsets[v] .. byte_offsets[v+1]:
//! ┌────────────────────────┬─────────┬─────────┬───┐
//! │ skip table (nc-1)×u32  │ chunk 0 │ chunk 1 │ … │   nc = ⌈deg/64⌉
//! └────────────────────────┴─────────┴─────────┴───┘
//! chunk (≤ 64 neighbors):
//! ┌────────┬────────────────────────┬─────────────────────────────┐
//! │ header │ zigzag32(first − v)    │ (len−1) gaps × width bits   │
//! │ 1 byte │ first_len bytes, LE    │ LSB-first, padded to a byte │
//! └────────┴────────────────────────┴─────────────────────────────┘
//! header = (first_len − 1) | width << 2
//! ```
//!
//! Weights are *not* delta-encoded: a weighted graph keeps its `f32`
//! weights in a flat side array indexed by `edge_offsets[v] + k`, so
//! the neighbor stream stays dense and the weight read stays one
//! indexed load.

use std::marker::PhantomData;

use crate::types::{EdgeRecord, VertexId};

use super::{NeighborAccess, Resident, Sides, SPAN_EDGES};

/// A typed decode failure. Corrupt or truncated chunk bytes surface as
/// one of these — never a panic — from the checked decode entry points
/// ([`CcsrAdjacency::decode_neighbors`], [`CcsrAdjacency::decode_chunk`],
/// [`CcsrAdjacency::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcsrError {
    /// The byte stream ended inside a chunk or skip table.
    Truncated {
        /// Owning vertex.
        vertex: VertexId,
        /// Byte offset (within the vertex's stream) of the failure.
        offset: usize,
    },
    /// A chunk header declared gaps wider than 32 bits.
    BadWidth {
        /// Owning vertex.
        vertex: VertexId,
        /// Byte offset (within the vertex's stream) of the header.
        offset: usize,
    },
    /// A decoded neighbor id falls outside `0..num_vertices`.
    NeighborOutOfRange {
        /// Owning vertex.
        vertex: VertexId,
        /// The out-of-range decoded value (widened, so a gap that runs
        /// past `u32::MAX` reports its true sum).
        neighbor: i64,
    },
    /// A chunk did not start where the skip table said it would.
    SkipTableMismatch {
        /// Owning vertex.
        vertex: VertexId,
        /// Index of the mismatched chunk.
        chunk: usize,
    },
    /// Decoding consumed fewer bytes than the vertex's stream holds.
    TrailingBytes {
        /// Owning vertex.
        vertex: VertexId,
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A chunk index at or past the vertex's chunk count.
    ChunkOutOfRange {
        /// Owning vertex.
        vertex: VertexId,
        /// The requested chunk.
        chunk: usize,
        /// The vertex's chunk count, `⌈degree / 64⌉`.
        chunks: usize,
    },
}

impl std::fmt::Display for CcsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { vertex, offset } => {
                write!(
                    f,
                    "ccsr stream of vertex {vertex} truncated at byte {offset}"
                )
            }
            Self::BadWidth { vertex, offset } => {
                write!(
                    f,
                    "ccsr vertex {vertex}: chunk header at byte {offset} declares gaps wider than 32 bits"
                )
            }
            Self::NeighborOutOfRange { vertex, neighbor } => {
                write!(
                    f,
                    "ccsr vertex {vertex} decoded out-of-range neighbor {neighbor}"
                )
            }
            Self::SkipTableMismatch { vertex, chunk } => {
                write!(
                    f,
                    "ccsr vertex {vertex}: chunk {chunk} disagrees with the skip table"
                )
            }
            Self::TrailingBytes { vertex, extra } => {
                write!(
                    f,
                    "ccsr vertex {vertex}: {extra} trailing bytes after the last chunk"
                )
            }
            Self::ChunkOutOfRange {
                vertex,
                chunk,
                chunks,
            } => {
                write!(
                    f,
                    "ccsr vertex {vertex} has {chunks} chunks; chunk {chunk} is out of range"
                )
            }
        }
    }
}

impl std::error::Error for CcsrError {}

#[inline]
fn zigzag32(x: i32) -> u32 {
    ((x << 1) ^ (x >> 31)) as u32
}

#[inline]
fn unzigzag32(z: u32) -> i32 {
    ((z >> 1) as i32) ^ -((z & 1) as i32)
}

/// The 8 bytes of `bytes` from `at` as a little-endian `u64`,
/// zero-filled past the end of the array, so a chunk at the very end
/// needs no padding after it.
#[inline(always)]
fn load8(bytes: &[u8], at: usize) -> u64 {
    let tail = bytes.get(at..).unwrap_or_default();
    let window = match tail.first_chunk::<8>() {
        Some(w) => *w,
        None => {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w
        }
    };
    u64::from_le_bytes(window)
}

/// Splits a header byte into `(first_len, width)`.
#[inline(always)]
fn header(h: u8) -> (usize, usize) {
    (usize::from(h & 3) + 1, usize::from(h >> 2))
}

/// Byte length of a chunk of `len` neighbors: header, first delta and
/// the gaps packed at `width` bits.
#[inline(always)]
fn chunk_len(first_len: usize, width: usize, len: usize) -> usize {
    1 + first_len + ((len - 1) * width).div_ceil(8)
}

/// The first neighbor of a chunk of vertex `v` whose zigzagged delta
/// is the `first_len` bytes at `at`.
#[inline(always)]
fn first_neighbor(v: VertexId, bytes: &[u8], at: usize, first_len: usize) -> VertexId {
    let z = load8(bytes, at) & (u64::MAX >> (64 - 8 * first_len));
    v.wrapping_add(unzigzag32(z as u32) as u32)
}

/// The gap starting `bit` bits into packed gaps at byte `base`, of the
/// width whose low bits `mask` keeps.
#[inline(always)]
fn gap(bytes: &[u8], base: usize, bit: usize, mask: u64) -> u64 {
    (load8(bytes, base + bit / 8) >> (bit % 8)) & mask
}

/// Where chunk `c` starts in a vertex stream whose skip table is
/// `table_len` bytes long (0 for chunk 0, which follows the table).
#[inline]
fn chunk_start(bytes: &[u8], table_len: usize, c: usize) -> usize {
    match c {
        0 => table_len,
        _ => table_len + load8(bytes, (c - 1) * 4) as u32 as usize,
    }
}

/// The header fields of chunk `ids` of vertex `v`:
/// `(zigzag32(first − v), first_len, width)`.
fn chunk_shape(v: VertexId, ids: &[u32]) -> (u32, usize, usize) {
    let first = zigzag32(ids[0].wrapping_sub(v) as i32);
    let gaps = ids.windows(2).fold(0, |or, w| or | w[1].wrapping_sub(w[0]));
    let first_len = (32 - (first | 1).leading_zeros() as usize).div_ceil(8);
    (first, first_len, 32 - gaps.leading_zeros() as usize)
}

/// Hands `f` the neighbor list in chunks of at most `SPAN_EDGES` ids,
/// each buffered on the stack.
fn for_each_chunk(neighbors: impl Iterator<Item = u32>, mut f: impl FnMut(&[u32])) {
    let mut buf = [0u32; SPAN_EDGES];
    let mut n = 0;
    for id in neighbors {
        buf[n] = id;
        n += 1;
        if n == SPAN_EDGES {
            f(&buf);
            n = 0;
        }
    }
    if n > 0 {
        f(&buf[..n]);
    }
}

/// Encoded byte length of one sorted neighbor list (including its skip
/// table), without materializing the stream.
pub(crate) fn encoded_len(v: VertexId, neighbors: impl ExactSizeIterator<Item = u32>) -> usize {
    let mut len = neighbors.len().div_ceil(SPAN_EDGES).saturating_sub(1) * 4;
    for_each_chunk(neighbors, |ids| {
        let (_, first_len, width) = chunk_shape(v, ids);
        len += chunk_len(first_len, width, ids.len());
    });
    len
}

/// Encodes one sorted neighbor list (skip table + chunks) into `out`.
///
/// # Panics
///
/// Panics if `neighbors` is not sorted ascending — the delta encoding
/// is only defined on sorted lists.
pub(crate) fn encode_vertex(
    v: VertexId,
    neighbors: impl ExactSizeIterator<Item = u32>,
    out: &mut Vec<u8>,
) {
    let nchunks = neighbors.len().div_ceil(SPAN_EDGES);
    let table_at = out.len();
    // Reserve the skip table; chunk offsets are filled in as they land.
    out.resize(table_at + nchunks.saturating_sub(1) * 4, 0);
    let data_at = out.len();
    let mut prev = 0u32;
    let mut c = 0usize;
    for_each_chunk(neighbors, |ids| {
        assert!(
            prev <= ids[0] && ids.is_sorted(),
            "ccsr requires sorted neighbor lists (vertex {v})"
        );
        prev = ids[ids.len() - 1];
        if c > 0 {
            let rel = (out.len() - data_at) as u32;
            out[table_at + (c - 1) * 4..table_at + c * 4].copy_from_slice(&rel.to_le_bytes());
        }
        c += 1;
        let (first, first_len, width) = chunk_shape(v, ids);
        out.push((first_len - 1) as u8 | (width << 2) as u8);
        out.extend_from_slice(&first.to_le_bytes()[..first_len]);
        let (mut acc, mut bits) = (0u64, 0usize);
        for w in ids.windows(2) {
            acc |= u64::from(w[1] - w[0]) << bits;
            bits += width;
            while bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            out.push(acc as u8);
        }
    });
}

/// One direction of compressed adjacency (out-edges or in-edges).
#[derive(Debug, Clone)]
pub struct CcsrAdjacency<E> {
    num_vertices: usize,
    num_edges: usize,
    /// `true` when the stored neighbor of `v` is an edge *source* (an
    /// in-adjacency), mirroring [`super::Adjacency::is_by_dst`].
    by_dst: bool,
    /// `num_vertices + 1` prefix of edge counts (degrees + weight index).
    edge_offsets: Vec<u64>,
    /// `num_vertices + 1` prefix into `bytes`.
    byte_offsets: Vec<u64>,
    /// Concatenated per-vertex streams (skip table + chunks).
    bytes: Vec<u8>,
    /// Weights in edge order; empty for unweighted records.
    weights: Vec<f32>,
    _marker: PhantomData<fn() -> E>,
}

impl<E: EdgeRecord> CcsrAdjacency<E> {
    /// Wraps pre-encoded parts. Offset-table shape is validated here;
    /// stream bytes are *not* decoded — callers holding untrusted bytes
    /// must run [`Self::validate`] before handing the layout to kernels.
    ///
    /// # Panics
    ///
    /// Panics if the offset tables are not monotone `num_vertices + 1`
    /// prefixes ending at `bytes.len()` / the edge count, or if a
    /// weighted record type comes without one weight per edge.
    pub fn from_parts(
        num_vertices: usize,
        by_dst: bool,
        edge_offsets: Vec<u64>,
        byte_offsets: Vec<u64>,
        bytes: Vec<u8>,
        weights: Vec<f32>,
    ) -> Self {
        assert_eq!(edge_offsets.len(), num_vertices + 1, "edge offsets length");
        assert_eq!(byte_offsets.len(), num_vertices + 1, "byte offsets length");
        assert_eq!(
            *byte_offsets.last().unwrap() as usize,
            bytes.len(),
            "byte offsets total"
        );
        debug_assert!(edge_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(byte_offsets.windows(2).all(|w| w[0] <= w[1]));
        let num_edges = *edge_offsets.last().unwrap() as usize;
        if E::WEIGHTED {
            assert_eq!(weights.len(), num_edges, "one weight per edge");
        }
        Self {
            num_vertices,
            num_edges,
            by_dst,
            edge_offsets,
            byte_offsets,
            bytes,
            weights,
            _marker: PhantomData,
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
        self.num_edges
    }

    /// Whether stored neighbors are edge sources (an in-adjacency).
    #[inline]
    pub fn is_by_dst(&self) -> bool {
        self.by_dst
    }

    /// Degree of vertex `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.edge_offsets[v as usize + 1] - self.edge_offsets[v as usize]) as usize
    }

    /// Resident heap bytes of this direction (offset tables + streams +
    /// weight side array) — the number the compression experiment and
    /// `/healthz` report.
    pub fn resident_bytes(&self) -> u64 {
        (self.edge_offsets.len() * 8
            + self.byte_offsets.len() * 8
            + self.bytes.len()
            + self.weights.len() * 4) as u64
    }

    #[inline]
    fn stream(&self, v: VertexId) -> &[u8] {
        &self.bytes
            [self.byte_offsets[v as usize] as usize..self.byte_offsets[v as usize + 1] as usize]
    }

    /// The weights of vertex `v`'s edges (empty for unweighted graphs).
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[f32] {
        if !E::WEIGHTED {
            return &[];
        }
        &self.weights
            [self.edge_offsets[v as usize] as usize..self.edge_offsets[v as usize + 1] as usize]
    }

    /// Fully decodes vertex `v`'s neighbor list with bounds checking:
    /// corrupt or truncated bytes produce a typed [`CcsrError`], never a
    /// panic. Also cross-checks the skip table against actual chunk
    /// positions and rejects trailing bytes.
    pub fn decode_neighbors(&self, v: VertexId) -> Result<Vec<VertexId>, CcsrError> {
        let deg = self.degree(v);
        let bytes = self.stream(v);
        let table_len = self.table_len(v, bytes)?;
        let mut out = Vec::with_capacity(deg);
        let mut pos = table_len;
        for c in 0..deg.div_ceil(SPAN_EDGES) {
            if pos != chunk_start(bytes, table_len, c) {
                return Err(CcsrError::SkipTableMismatch {
                    vertex: v,
                    chunk: c,
                });
            }
            pos = self.decode_checked(v, bytes, pos, c, &mut out)?;
        }
        if pos != bytes.len() {
            return Err(CcsrError::TrailingBytes {
                vertex: v,
                extra: bytes.len() - pos,
            });
        }
        Ok(out)
    }

    /// Decodes one chunk of vertex `v` through the skip table — the
    /// random-access path that lets a worker read chunk `c` without
    /// decoding chunks `0..c`.
    pub fn decode_chunk(&self, v: VertexId, chunk: usize) -> Result<Vec<VertexId>, CcsrError> {
        let chunks = self.degree(v).div_ceil(SPAN_EDGES);
        if chunk >= chunks {
            return Err(CcsrError::ChunkOutOfRange {
                vertex: v,
                chunk,
                chunks,
            });
        }
        let bytes = self.stream(v);
        let at = chunk_start(bytes, self.table_len(v, bytes)?, chunk);
        let mut out = Vec::with_capacity(SPAN_EDGES);
        self.decode_checked(v, bytes, at, chunk, &mut out)?;
        Ok(out)
    }

    /// Length of vertex `v`'s skip table, checked against its stream.
    fn table_len(&self, v: VertexId, bytes: &[u8]) -> Result<usize, CcsrError> {
        let len = self.degree(v).div_ceil(SPAN_EDGES).saturating_sub(1) * 4;
        if bytes.len() < len {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: bytes.len(),
            });
        }
        Ok(len)
    }

    /// Decodes chunk `c` of vertex `v`, which starts at byte `at` of the
    /// vertex's stream `bytes`, onto `out` with every bound and id
    /// checked; returns the byte after the chunk.
    fn decode_checked(
        &self,
        v: VertexId,
        bytes: &[u8],
        at: usize,
        c: usize,
        out: &mut Vec<VertexId>,
    ) -> Result<usize, CcsrError> {
        let len = SPAN_EDGES.min(self.degree(v) - c * SPAN_EDGES);
        let Some(&h) = bytes.get(at) else {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: bytes.len(),
            });
        };
        let (first_len, width) = header(h);
        if width > 32 {
            return Err(CcsrError::BadWidth {
                vertex: v,
                offset: at,
            });
        }
        let end = at + chunk_len(first_len, width, len);
        if end > bytes.len() {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: bytes.len(),
            });
        }
        let (base, mask) = (at + 1 + first_len, (1u64 << width) - 1);
        let mut nbr = u64::from(first_neighbor(v, bytes, at + 1, first_len));
        for j in 0..len {
            if j > 0 {
                nbr += gap(bytes, base, (j - 1) * width, mask);
            }
            if nbr >= self.num_vertices as u64 {
                return Err(CcsrError::NeighborOutOfRange {
                    vertex: v,
                    neighbor: nbr as i64,
                });
            }
            out.push(nbr as VertexId);
        }
        Ok(end)
    }

    /// Validates every vertex's stream; the first failure is returned.
    pub fn validate(&self) -> Result<(), CcsrError> {
        for v in 0..self.num_vertices as VertexId {
            self.decode_neighbors(v)?;
        }
        Ok(())
    }

    #[inline]
    fn materialize(&self, v: VertexId, nbr: VertexId, w: f32) -> E {
        if self.by_dst {
            E::new(nbr, v, w)
        } else {
            E::new(v, nbr, w)
        }
    }
}

impl<E: EdgeRecord> NeighborAccess<E> for CcsrAdjacency<E> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_span<F: FnMut(&[E]) -> usize>(&self, v: VertexId, mut f: F) {
        let deg = self.degree(v);
        if deg == 0 {
            return;
        }
        // The skip table is only for random access. Positions index the
        // whole array, so `load8` zero-fills only at the array's last
        // chunk.
        let bytes = &self.bytes[..];
        let mut pos = self.byte_offsets[v as usize] as usize + (deg.div_ceil(SPAN_EDGES) - 1) * 4;
        let ebase = self.edge_offsets[v as usize] as usize;
        let mut buf = [E::new(0, 0, 0.0); SPAN_EDGES];
        let mut done = 0usize;
        while done < deg {
            let len = SPAN_EDGES.min(deg - done);
            let (first_len, width) = header(bytes[pos]);
            let (base, mask) = (pos + 1 + first_len, (1u64 << width) - 1);
            let mut nbr = first_neighbor(v, bytes, pos + 1, first_len);
            let weight = |k: usize| {
                if E::WEIGHTED {
                    self.weights[ebase + done + k]
                } else {
                    0.0
                }
            };
            buf[0] = self.materialize(v, nbr, weight(0));
            for (j, slot) in buf[1..len].iter_mut().enumerate() {
                nbr = nbr.wrapping_add(gap(bytes, base, j * width, mask) as u32);
                *slot = self.materialize(v, nbr, weight(j + 1));
            }
            pos += chunk_len(first_len, width, len);
            if f(&buf[..len]) < len {
                return;
            }
            done += len;
        }
    }
}

impl<E: EdgeRecord> Resident for CcsrAdjacency<E> {
    fn resident_bytes(&self) -> u64 {
        CcsrAdjacency::resident_bytes(self)
    }
}

/// A full compressed layout: out-direction, in-direction, or both.
pub type CcsrList<E> = Sides<CcsrAdjacency<E>>;

impl<E: EdgeRecord> CcsrList<E> {
    /// Assembles a layout from its directions.
    ///
    /// # Panics
    ///
    /// Panics if both directions are absent or their vertex counts
    /// disagree.
    pub fn new(out: Option<CcsrAdjacency<E>>, inc: Option<CcsrAdjacency<E>>) -> Self {
        Self::pair(out, inc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Edge, WEdge};

    /// Serial encoder mirroring the parallel one in `preprocess`.
    fn encode(nv: usize, lists: &[Vec<u32>], by_dst: bool) -> CcsrAdjacency<Edge> {
        static EMPTY: Vec<u32> = Vec::new();
        let mut edge_offsets = vec![0u64; nv + 1];
        let mut byte_offsets = vec![0u64; nv + 1];
        let mut bytes = Vec::new();
        for v in 0..nv {
            let list = lists.get(v).unwrap_or(&EMPTY);
            encode_vertex(v as VertexId, list.iter().copied(), &mut bytes);
            edge_offsets[v + 1] = edge_offsets[v] + list.len() as u64;
            byte_offsets[v + 1] = bytes.len() as u64;
        }
        CcsrAdjacency::from_parts(nv, by_dst, edge_offsets, byte_offsets, bytes, Vec::new())
    }

    fn collect_spans(adj: &CcsrAdjacency<Edge>, v: VertexId) -> Vec<u32> {
        let mut got = Vec::new();
        adj.for_each_span(v, |span| {
            got.extend(span.iter().map(|e| e.dst()));
            span.len()
        });
        got
    }

    #[test]
    fn round_trips_small_lists() {
        let lists = vec![vec![1, 2, 5], vec![], vec![0, 0, 2, 1000]];
        let adj = encode(2000, &lists, false);
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(&adj.decode_neighbors(v as u32).unwrap(), list, "vertex {v}");
            assert_eq!(&collect_spans(&adj, v as u32), list, "spans of {v}");
        }
        assert_eq!(adj.num_edges(), 7);
        assert_eq!(adj.degree(2), 4);
    }

    #[test]
    fn round_trips_multi_chunk_lists_and_chunk_access() {
        // 3 chunks: 150 neighbors with irregular gaps and duplicates.
        let list: Vec<u32> = (0..150u32).map(|i| i * 37 % 4096).collect::<Vec<_>>();
        let mut list = list;
        list.sort_unstable();
        let adj = encode(4096, &[list.clone()], false);
        assert_eq!(adj.decode_neighbors(0).unwrap(), list);
        assert_eq!(collect_spans(&adj, 0), list);
        for c in 0..3 {
            let chunk = adj.decode_chunk(0, c).unwrap();
            assert_eq!(chunk, &list[c * SPAN_EDGES..(c * SPAN_EDGES + chunk.len())]);
        }
    }

    #[test]
    fn early_termination_stops_at_span_boundary() {
        let list: Vec<u32> = (0..200).collect();
        let adj = encode(200, &[list], false);
        let mut seen = 0usize;
        adj.for_each_span(0, |span| {
            seen += span.len();
            if seen >= 100 {
                span.len() - 1 // consume less than offered -> stop
            } else {
                span.len()
            }
        });
        assert_eq!(seen, 128, "stopped after the second 64-edge span");
    }

    #[test]
    fn weighted_records_read_the_side_array() {
        let mut bytes = Vec::new();
        encode_vertex(0, [3, 9].into_iter(), &mut bytes);
        let total = bytes.len() as u64;
        let mut edge_offsets = vec![2u64; 11];
        edge_offsets[0] = 0;
        let mut byte_offsets = vec![total; 11];
        byte_offsets[0] = 0;
        let adj: CcsrAdjacency<WEdge> =
            CcsrAdjacency::from_parts(10, false, edge_offsets, byte_offsets, bytes, vec![0.5, 2.5]);
        let mut got = Vec::new();
        adj.for_each_span(0, |span| {
            got.extend(span.iter().map(|e| (e.dst(), e.weight())));
            span.len()
        });
        assert_eq!(got, vec![(3, 0.5), (9, 2.5)]);
        assert_eq!(adj.weights_of(0), &[0.5, 2.5]);
    }

    #[test]
    fn in_adjacency_materializes_sources() {
        let adj = encode(10, &[vec![4, 7], vec![]], true);
        let mut got = Vec::new();
        adj.for_each_span(0, |span| {
            got.extend(span.iter().map(|e| (e.src(), e.dst())));
            span.len()
        });
        assert_eq!(got, vec![(4, 0), (7, 0)]);
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let mut adj = encode(2000, &[vec![1, 2, 1999]], false);
        // Chop the last byte: decode must report truncation, not panic.
        // (Vertex 0 owns the whole stream; every later offset shifts.)
        adj.bytes.pop();
        for o in adj.byte_offsets.iter_mut().skip(1) {
            *o -= 1;
        }
        assert!(matches!(
            adj.decode_neighbors(0),
            Err(CcsrError::Truncated { vertex: 0, .. })
        ));
    }

    #[test]
    fn corrupt_skip_table_is_detected() {
        let list: Vec<u32> = (0..100).collect();
        let mut adj = encode(100, &[list], false);
        adj.bytes[0] ^= 0x01; // first skip-table byte
        assert!(matches!(
            adj.decode_neighbors(0),
            Err(CcsrError::SkipTableMismatch {
                vertex: 0,
                chunk: 1
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut adj = encode(16, &[vec![1]], false);
        adj.bytes.push(0);
        for o in adj.byte_offsets.iter_mut().skip(1) {
            *o += 1;
        }
        assert!(matches!(
            adj.decode_neighbors(0),
            Err(CcsrError::TrailingBytes {
                vertex: 0,
                extra: 1
            })
        ));
    }

    #[test]
    fn resident_bytes_counts_all_arrays() {
        let adj = encode(4, &[vec![1], vec![], vec![3], vec![]], false);
        assert_eq!(
            adj.resident_bytes(),
            (5 * 8 + 5 * 8 + adj.bytes.len()) as u64
        );
    }

    /// Vertex `v` alone in a graph of 2^32 vertices, so ids and gaps of
    /// every width are in range; only `v`'s offsets are materialized and
    /// its stream is the whole byte array.
    fn lone(v: VertexId, list: &[u32]) -> CcsrAdjacency<Edge> {
        let mut bytes = Vec::new();
        encode_vertex(v, list.iter().copied(), &mut bytes);
        let mut edge_offsets = vec![0u64; v as usize + 2];
        edge_offsets[v as usize + 1] = list.len() as u64;
        let mut byte_offsets = vec![0u64; v as usize + 2];
        byte_offsets[v as usize + 1] = bytes.len() as u64;
        CcsrAdjacency {
            num_vertices: 1 << 32,
            num_edges: list.len(),
            by_dst: false,
            edge_offsets,
            byte_offsets,
            bytes,
            weights: Vec::new(),
            _marker: PhantomData,
        }
    }

    #[test]
    fn every_width_and_first_len_round_trips() {
        let v: VertexId = 200;
        // zigzag32(first − v) of one to four bytes; the first two
        // deltas are negative.
        let firsts = [v - 2, v - 129, v + 32_768, v + (1 << 23)];
        for (first_len, &first) in (1..=4).zip(&firsts) {
            for width in 0..=32usize {
                // One gap of exactly `width` bits, the rest 0 or 1 (all
                // duplicates at width 0).
                let top = if width == 0 { 0 } else { 1u32 << (width - 1) };
                let small = u32::from(width > 0);
                for len in [2, 37, 64] {
                    let mut list = vec![first];
                    for j in 1..len {
                        let g = if j == len / 2 {
                            top
                        } else {
                            small * (j as u32 % 2)
                        };
                        list.push(list[j - 1] + g);
                    }
                    let adj = lone(v, &list);
                    let case = format!("first_len {first_len}, width {width}, len {len}");
                    assert_eq!(
                        adj.bytes[0],
                        (first_len - 1) as u8 | (width << 2) as u8,
                        "{case}"
                    );
                    assert_eq!(adj.bytes.len(), chunk_len(first_len, width, len), "{case}");
                    assert_eq!(encoded_len(v, list.iter().copied()), adj.bytes.len());
                    assert_eq!(adj.decode_neighbors(v).unwrap(), list, "{case}");
                    assert_eq!(collect_spans(&adj, v), list, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_chunk_ending_on_the_arrays_last_byte_decodes() {
        // Two chunks; the second holds 6 neighbors with 26-bit gaps, and
        // its last gap is read through a window that runs past the end
        // of the byte array.
        let list: Vec<u32> = (0..70u32).map(|i| i * 60_000_000).collect();
        let adj = lone(3, &list);
        let second = chunk_start(&adj.bytes, 4, 1);
        let (first_len, width) = header(adj.bytes[second]);
        assert_eq!(second + chunk_len(first_len, width, 6), adj.bytes.len());
        let last_window = second + 1 + first_len + 4 * width / 8;
        assert!(last_window + 8 > adj.bytes.len());
        assert_eq!(adj.decode_neighbors(3).unwrap(), list);
        assert_eq!(collect_spans(&adj, 3), list);
        assert_eq!(adj.decode_chunk(3, 1).unwrap(), &list[64..]);
    }

    #[test]
    fn golden_bytes_pin_the_format() {
        // Vertex 5, neighbors 3 4 6 6 13: first − v = −2, zigzag 3, one
        // byte; gaps 1 2 0 7 need 3 bits each, 12 bits packed LSB-first.
        let adj = lone(5, &[3, 4, 6, 6, 13]);
        assert_eq!(adj.bytes, [0x0c, 0x03, 0x11, 0x0e]);
    }

    #[test]
    fn unsorted_lists_are_refused() {
        // Out of order inside a chunk, and across a chunk boundary.
        let across: Vec<u32> = (10..74).chain([0]).collect();
        for list in [vec![5, 3], across] {
            let refused = std::panic::catch_unwind(|| {
                encode_vertex(0, list.iter().copied(), &mut Vec::new());
            });
            assert!(refused.is_err(), "{list:?}");
        }
    }

    /// A one-vertex graph of `nv` vertices whose vertex 0 has `degree`
    /// edges and the stream `bytes`.
    fn raw(nv: usize, degree: u64, bytes: Vec<u8>) -> CcsrAdjacency<Edge> {
        let mut edge_offsets = vec![degree; nv + 1];
        edge_offsets[0] = 0;
        let mut byte_offsets = vec![bytes.len() as u64; nv + 1];
        byte_offsets[0] = 0;
        CcsrAdjacency::from_parts(nv, false, edge_offsets, byte_offsets, bytes, Vec::new())
    }

    #[test]
    fn width_past_32_is_bad_width() {
        let adj = raw(1, 2, vec![33 << 2, 0, 0]);
        assert_eq!(
            adj.decode_neighbors(0),
            Err(CcsrError::BadWidth {
                vertex: 0,
                offset: 0
            })
        );
    }

    #[test]
    fn packed_gaps_past_the_stream_are_truncated() {
        // Width 8, three neighbors: two gap bytes are due, one is there.
        let adj = raw(16, 3, vec![8 << 2, 0, 0]);
        assert_eq!(
            adj.decode_neighbors(0),
            Err(CcsrError::Truncated {
                vertex: 0,
                offset: 3
            })
        );
    }

    #[test]
    fn gap_past_the_vertex_count_is_out_of_range() {
        // First neighbor 1 (zigzag 2), then a gap of 127 in 16 vertices.
        let adj = raw(16, 2, vec![8 << 2, 2, 0x7f]);
        assert_eq!(
            adj.decode_neighbors(0),
            Err(CcsrError::NeighborOutOfRange {
                vertex: 0,
                neighbor: 128
            })
        );
    }

    #[test]
    fn chunk_past_the_last_is_a_typed_error() {
        let list: Vec<u32> = (0..150).collect();
        let adj = encode(150, &[list, vec![]], false);
        assert_eq!(
            adj.decode_chunk(0, 3),
            Err(CcsrError::ChunkOutOfRange {
                vertex: 0,
                chunk: 3,
                chunks: 3
            })
        );
        assert_eq!(
            adj.decode_chunk(1, 0),
            Err(CcsrError::ChunkOutOfRange {
                vertex: 1,
                chunk: 0,
                chunks: 0
            })
        );
    }
}
