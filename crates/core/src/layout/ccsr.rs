//! Compressed CSR (`ccsr`): sorted neighbor lists stored as byte-varint
//! delta streams, chunked so a worker decodes one vertex's list without
//! touching neighboring chunks.
//!
//! The encoding follows the byte-delta scheme popularized by Ligra+ and
//! GBBS (see PAPERS.md): within each chunk of at most
//! [`SPAN_EDGES`](super::SPAN_EDGES) neighbors, the first neighbor is a
//! **zigzag varint of `first - v`** (delta from the owning vertex, which
//! may be negative) and every subsequent neighbor is an **unsigned
//! varint gap** from its predecessor (lists are sorted, so gaps are
//! non-negative; duplicates encode as gap `0`). Vertices with more than
//! one chunk prefix their stream with a **skip table** of
//! `nchunks - 1` little-endian `u32` byte offsets (relative to the end
//! of the table), so any chunk can be located and decoded independently
//! — the hook the out-of-core roadmap items build on.
//!
//! ```text
//! byte_offsets[v] .. byte_offsets[v+1]:
//! ┌────────────────────────┬─────────┬─────────┬───┐
//! │ skip table (nc-1)×u32  │ chunk 0 │ chunk 1 │ … │   nc = ⌈deg/64⌉
//! └────────────────────────┴─────────┴─────────┴───┘
//! chunk: zigzag(first−v) gap gap gap …           (≤ 64 neighbors)
//! ```
//!
//! Weights are *not* delta-encoded: a weighted graph keeps its `f32`
//! weights in a flat side array indexed by `edge_offsets[v] + k`, so
//! the neighbor stream stays byte-dense and the weight read stays one
//! indexed load.

use std::marker::PhantomData;

use crate::types::{EdgeRecord, VertexId};

use super::{NeighborAccess, SPAN_EDGES};

/// A typed decode failure. Corrupt or truncated chunk bytes surface as
/// one of these — never a panic — from the checked decode entry points
/// ([`CcsrAdjacency::decode_neighbors`], [`CcsrAdjacency::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcsrError {
    /// The byte stream ended inside a varint or skip table.
    Truncated {
        /// Owning vertex.
        vertex: VertexId,
        /// Byte offset (within the vertex's stream) of the failure.
        offset: usize,
    },
    /// A varint ran past 10 bytes / 64 value bits.
    VarintOverflow {
        /// Owning vertex.
        vertex: VertexId,
        /// Byte offset (within the vertex's stream) of the failure.
        offset: usize,
    },
    /// A decoded neighbor id falls outside `0..num_vertices`.
    NeighborOutOfRange {
        /// Owning vertex.
        vertex: VertexId,
        /// The out-of-range decoded value (widened; negative first
        /// deltas map below zero and report as wrapped `i64`).
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
            Self::VarintOverflow { vertex, offset } => {
                write!(
                    f,
                    "ccsr varint overflow in vertex {vertex} at byte {offset}"
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
        }
    }
}

impl std::error::Error for CcsrError {}

#[inline]
pub(crate) fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encoded length of one unsigned varint.
#[inline]
pub(crate) fn varint_len(x: u64) -> usize {
    // ⌈significant_bits / 7⌉, with 0 taking one byte.
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Checked varint read; errors instead of panicking on malformed input.
fn read_varint(v: VertexId, bytes: &[u8], pos: &mut usize) -> Result<u64, CcsrError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: *pos,
            });
        };
        if shift > 63 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(CcsrError::VarintOverflow {
                vertex: v,
                offset: *pos,
            });
        }
        *pos += 1;
        x |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// Trusted varint read for the hot decode path: the stream is encoder
/// output, whose well-formedness [`CcsrAdjacency`] guarantees by
/// construction (corrupt external bytes must go through the checked
/// [`CcsrAdjacency::decode_neighbors`] instead).
#[inline]
fn read_varint_trusted(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// Compacts the low 7 bits of each byte of `w` into one value — the
/// varint payload of a window whose bytes past the terminator are
/// already zeroed. Five groups cover the 5 bytes any varint this
/// layout writes can span (u32 gaps, zigzagged 33-bit first deltas).
#[inline(always)]
fn compact7(w: u64) -> u64 {
    (w & 0x7f)
        | ((w >> 1) & (0x7f << 7))
        | ((w >> 2) & (0x7f << 14))
        | ((w >> 3) & (0x7f << 21))
        | ((w >> 4) & (0x7f << 28))
}

/// Decodes one varint out of an 8-byte little-endian window without a
/// per-byte loop or a data-dependent branch. Every varint this layout
/// writes fits in 5 bytes, so a u64 window always contains the whole
/// varint.
///
/// Returns `(value, bytes_consumed)`.
#[inline(always)]
fn decode_varint_window(w: u64) -> (u64, usize) {
    // The terminating byte is the first with its high bit clear.
    let stops = !w & 0x8080_8080_8080_8080;
    let n = (stops.trailing_zeros() as usize >> 3) + 1;
    // Drop the bytes past the terminator, then compact the 7-bit
    // groups: byte k carries value bits 7k.. at bit position 8k.
    (compact7(w & (u64::MAX >> (64 - 8 * n))), n)
}

/// Reads the next varint via the windowed decoder when 8 bytes remain,
/// falling back to the byte loop near the end of the stream.
#[inline(always)]
fn next_varint_trusted(bytes: &[u8], pos: &mut usize) -> u64 {
    if let Some(window) = bytes.get(*pos..*pos + 8) {
        let w = u64::from_le_bytes(window.try_into().expect("8-byte window"));
        let (x, n) = decode_varint_window(w);
        *pos += n;
        x
    } else {
        read_varint_trusted(bytes, pos)
    }
}

/// Encoded byte length of one sorted neighbor list (including its skip
/// table), without materializing the ids or the stream.
pub(crate) fn encoded_len(v: VertexId, neighbors: impl ExactSizeIterator<Item = u32>) -> usize {
    let nchunks = neighbors.len().div_ceil(SPAN_EDGES);
    let mut len = nchunks.saturating_sub(1) * 4;
    let mut prev = 0u32;
    for (i, id) in neighbors.enumerate() {
        len += if i % SPAN_EDGES == 0 {
            varint_len(zigzag(id as i64 - v as i64))
        } else {
            varint_len(id.wrapping_sub(prev) as u64)
        };
        prev = id;
    }
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
    for (i, id) in neighbors.enumerate() {
        assert!(
            prev <= id,
            "ccsr requires sorted neighbor lists (vertex {v})"
        );
        if i % SPAN_EDGES == 0 {
            let c = i / SPAN_EDGES;
            if c > 0 {
                let rel = (out.len() - data_at) as u32;
                out[table_at + (c - 1) * 4..table_at + c * 4].copy_from_slice(&rel.to_le_bytes());
            }
            write_varint(out, zigzag(id as i64 - v as i64));
        } else {
            write_varint(out, (id - prev) as u64);
        }
        prev = id;
    }
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

    /// Encoded stream length of vertex `v`, in bytes.
    #[inline]
    pub fn byte_len(&self, v: VertexId) -> usize {
        (self.byte_offsets[v as usize + 1] - self.byte_offsets[v as usize]) as usize
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
        let mut out = Vec::with_capacity(deg);
        if deg == 0 {
            return if bytes.is_empty() {
                Ok(out)
            } else {
                Err(CcsrError::TrailingBytes {
                    vertex: v,
                    extra: bytes.len(),
                })
            };
        }
        let nchunks = deg.div_ceil(SPAN_EDGES);
        let table_len = (nchunks - 1) * 4;
        if bytes.len() < table_len {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: bytes.len(),
            });
        }
        let mut pos = table_len;
        for c in 0..nchunks {
            if c > 0 {
                let rel = u32::from_le_bytes(bytes[(c - 1) * 4..c * 4].try_into().unwrap());
                if pos != table_len + rel as usize {
                    return Err(CcsrError::SkipTableMismatch {
                        vertex: v,
                        chunk: c,
                    });
                }
            }
            let clen = SPAN_EDGES.min(deg - c * SPAN_EDGES);
            let first = v as i64 + unzigzag(read_varint(v, bytes, &mut pos)?);
            if first < 0 || first >= self.num_vertices as i64 {
                return Err(CcsrError::NeighborOutOfRange {
                    vertex: v,
                    neighbor: first,
                });
            }
            let mut prev = first as u64;
            out.push(prev as VertexId);
            for _ in 1..clen {
                let next = prev + read_varint(v, bytes, &mut pos)?;
                if next >= self.num_vertices as u64 {
                    return Err(CcsrError::NeighborOutOfRange {
                        vertex: v,
                        neighbor: next as i64,
                    });
                }
                prev = next;
                out.push(prev as VertexId);
            }
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
        let deg = self.degree(v);
        let nchunks = deg.div_ceil(SPAN_EDGES);
        assert!(chunk < nchunks, "chunk {chunk} out of {nchunks}");
        let bytes = self.stream(v);
        let table_len = (nchunks - 1) * 4;
        if bytes.len() < table_len {
            return Err(CcsrError::Truncated {
                vertex: v,
                offset: bytes.len(),
            });
        }
        let mut pos = if chunk == 0 {
            table_len
        } else {
            let rel = u32::from_le_bytes(bytes[(chunk - 1) * 4..chunk * 4].try_into().unwrap());
            let at = table_len + rel as usize;
            if at > bytes.len() {
                return Err(CcsrError::Truncated {
                    vertex: v,
                    offset: bytes.len(),
                });
            }
            at
        };
        let clen = SPAN_EDGES.min(deg - chunk * SPAN_EDGES);
        let mut out = Vec::with_capacity(clen);
        let first = v as i64 + unzigzag(read_varint(v, bytes, &mut pos)?);
        if first < 0 || first >= self.num_vertices as i64 {
            return Err(CcsrError::NeighborOutOfRange {
                vertex: v,
                neighbor: first,
            });
        }
        let mut prev = first as u64;
        out.push(prev as VertexId);
        for _ in 1..clen {
            let next = prev + read_varint(v, bytes, &mut pos)?;
            if next >= self.num_vertices as u64 {
                return Err(CcsrError::NeighborOutOfRange {
                    vertex: v,
                    neighbor: next as i64,
                });
            }
            prev = next;
            out.push(prev as VertexId);
        }
        Ok(out)
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
        let bytes = self.stream(v);
        let nchunks = deg.div_ceil(SPAN_EDGES);
        let mut pos = (nchunks - 1) * 4; // skip table is only for random access
        let ebase = self.edge_offsets[v as usize] as usize;
        let mut buf = [E::new(0, 0, 0.0); SPAN_EDGES];
        let mut done = 0usize;
        while done < deg {
            let clen = SPAN_EDGES.min(deg - done);
            let mut nbr = (v as i64 + unzigzag(next_varint_trusted(bytes, &mut pos))) as VertexId;
            let w0 = if E::WEIGHTED {
                self.weights[ebase + done]
            } else {
                0.0
            };
            buf[0] = self.materialize(v, nbr, w0);
            // Phase 1 — gap decoding into a flat array. Keeping this
            // loop free of edge materialization lets the only serial
            // chains be the byte position and the stop mask; one
            // 8-byte load yields every gap varint wholly inside it
            // (2–3 on average, often 8).
            let gneed = clen - 1;
            let mut gaps = [0u32; SPAN_EDGES];
            let mut g = 0usize;
            while g < gneed {
                let window = bytes
                    .get(pos..pos + 8)
                    .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte window")));
                if let Some(w) = window {
                    // One bit per terminator byte; a varint is the
                    // bytes from the previous terminator (exclusive)
                    // to its own.
                    let mut stops = !w & 0x8080_8080_8080_8080;
                    let complete = stops.count_ones() as usize;
                    if g + complete <= gneed {
                        if stops == 0x8080_8080_8080_8080 {
                            // Dense run: eight one-byte gaps — the
                            // common case inside hub vertices' lists,
                            // where sorted neighbors sit close.
                            for k in 0..8 {
                                gaps[g + k] = ((w >> (8 * k)) & 0x7f) as u32;
                            }
                            g += 8;
                            pos += 8;
                            continue;
                        }
                        // Mixed lengths: peel varints off the window;
                        // no per-varint bound checks needed since all
                        // `complete` of them are wanted.
                        let mut start = 0usize;
                        while stops != 0 {
                            let s = (stops.trailing_zeros() >> 3) as usize;
                            stops &= stops - 1;
                            let len = s + 1 - start;
                            let part = (w >> (8 * start)) & (u64::MAX >> (64 - 8 * len));
                            gaps[g] = compact7(part) as u32;
                            g += 1;
                            start = s + 1;
                        }
                        pos += start;
                        continue;
                    }
                }
                // Chunk end or stream end: take one varint at a time.
                gaps[g] = read_varint_trusted(bytes, &mut pos) as u32;
                g += 1;
            }
            // Phase 2 — prefix-sum the gaps and materialize records; a
            // clean two-op chain per edge the compiler can schedule
            // around the stores.
            for (j, &gap) in gaps[..gneed].iter().enumerate() {
                nbr += gap;
                let wt = if E::WEIGHTED {
                    self.weights[ebase + done + j + 1]
                } else {
                    0.0
                };
                buf[j + 1] = self.materialize(v, nbr, wt);
            }
            if f(&buf[..clen]) < clen {
                return;
            }
            done += clen;
        }
    }
}

/// A full compressed layout: out-direction, in-direction, or both —
/// the ccsr counterpart of [`super::AdjacencyList`].
#[derive(Debug, Clone)]
pub struct CcsrList<E> {
    num_vertices: usize,
    out: Option<CcsrAdjacency<E>>,
    inc: Option<CcsrAdjacency<E>>,
}

impl<E: EdgeRecord> CcsrList<E> {
    /// Assembles a layout from its directions.
    ///
    /// # Panics
    ///
    /// Panics if both directions are absent or their vertex counts
    /// disagree.
    pub fn new(out: Option<CcsrAdjacency<E>>, inc: Option<CcsrAdjacency<E>>) -> Self {
        let num_vertices = match (&out, &inc) {
            (Some(o), Some(i)) => {
                assert_eq!(
                    o.num_vertices(),
                    i.num_vertices(),
                    "direction vertex counts"
                );
                o.num_vertices()
            }
            (Some(o), None) => o.num_vertices(),
            (None, Some(i)) => i.num_vertices(),
            (None, None) => panic!("ccsr list needs at least one direction"),
        };
        Self {
            num_vertices,
            out,
            inc,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges (from whichever direction is present).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out
            .as_ref()
            .or(self.inc.as_ref())
            .map(CcsrAdjacency::num_edges)
            .unwrap_or(0)
    }

    /// The out-direction.
    ///
    /// # Panics
    ///
    /// Panics if the layout was built without out-edges.
    #[inline]
    pub fn out(&self) -> &CcsrAdjacency<E> {
        self.out
            .as_ref()
            .expect("ccsr layout was built without out-edges (EdgeDirection::In)")
    }

    /// The in-direction.
    ///
    /// # Panics
    ///
    /// Panics if the layout was built without in-edges.
    #[inline]
    pub fn incoming(&self) -> &CcsrAdjacency<E> {
        self.inc
            .as_ref()
            .expect("ccsr layout was built without in-edges (EdgeDirection::Out)")
    }

    /// The out-direction, if present.
    #[inline]
    pub fn out_opt(&self) -> Option<&CcsrAdjacency<E>> {
        self.out.as_ref()
    }

    /// The in-direction, if present.
    #[inline]
    pub fn incoming_opt(&self) -> Option<&CcsrAdjacency<E>> {
        self.inc.as_ref()
    }

    /// Resident heap bytes across both directions.
    pub fn resident_bytes(&self) -> u64 {
        self.out.as_ref().map_or(0, CcsrAdjacency::resident_bytes)
            + self.inc.as_ref().map_or(0, CcsrAdjacency::resident_bytes)
    }
}

impl<E: EdgeRecord> super::VertexLayout<E> for CcsrList<E> {
    type Dir = CcsrAdjacency<E>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn out_opt(&self) -> Option<&CcsrAdjacency<E>> {
        self.out_opt()
    }

    #[inline]
    fn incoming_opt(&self) -> Option<&CcsrAdjacency<E>> {
        self.incoming_opt()
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
    fn corrupt_gap_is_out_of_range_not_a_panic() {
        let mut adj = encode(16, &[vec![1, 2]], false);
        // Overwrite the gap byte with a huge single-byte varint.
        let last = adj.bytes.len() - 1;
        adj.bytes[last] = 0x7f;
        assert!(matches!(
            adj.decode_neighbors(0),
            Err(CcsrError::NeighborOutOfRange { vertex: 0, .. })
        ));
    }

    #[test]
    fn unterminated_varint_overflows() {
        let nv = 1;
        // 11 continuation bytes: overflows before running out of input.
        let bytes = vec![0x80u8; 12];
        let adj: CcsrAdjacency<Edge> =
            CcsrAdjacency::from_parts(nv, false, vec![0, 1], vec![0, 12], bytes, Vec::new());
        assert!(matches!(
            adj.decode_neighbors(0),
            Err(CcsrError::VarintOverflow { vertex: 0, .. })
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

    #[test]
    fn varint_len_matches_write() {
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x), "x = {x}");
        }
    }
}
