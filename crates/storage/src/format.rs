//! The binary edge-array file format.
//!
//! Layout (little endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "EGRF"
//! 4       4     version (currently 1)
//! 8       4     flags (bit 0: records carry an f32 weight)
//! 12      4     reserved (zero)
//! 16      8     num_vertices
//! 24      8     num_edges
//! 32      …     records: (src u32, dst u32[, weight f32]) × num_edges
//! ```
//!
//! # The format is the memory layout
//!
//! "The layout of edge arrays matches the format of the input file"
//! (§3.2) is taken literally: a record on disk is the bytes of an
//! [`Edge`](egraph_core::types::Edge) or
//! [`WEdge`](egraph_core::types::WEdge) in memory (padding-free
//! `#[repr(C)]`, which the sealed [`EdgeRecord`] guarantees), so there
//! is no decode step. [`read_edge_list`] reads the file straight into
//! the `Vec<E>` it returns and [`write_edge_list`] writes the bytes of
//! `graph.edges()` as they stand; a record moves once in each
//! direction. The byte view lives in the private `pod` module, the only
//! `unsafe` of the crate. Big-endian targets swap the 4-byte words of
//! each landed (or written) step; everywhere else that pass compiles to
//! nothing.
//!
//! # Reading does not trust the header
//!
//! `num_edges` is a claim until the bytes have arrived. The readers land
//! the records in steps of 256 KiB, zero filling each step's space just
//! before the reader writes into it, and reserve at most
//! `max(records received, 32 MiB worth)` beyond what they hold: the
//! allocation never exceeds twice what the file really delivered plus
//! 32 MiB of untouched address space — a 32-byte file claiming 2^40
//! edges is [`FormatError::Truncated`], not a 3 GiB reservation — while
//! an honest file gets one allocation of exactly `num_edges` records if
//! it is under 32 MiB, and otherwise ends at exactly that capacity by
//! growing blocks large enough that growing is a page remap, not a copy.
//! `Truncated::found_edges` is the exact number of whole records
//! received.
//!
//! [`read_edge_list_chunked`] lands every step in one reusable buffer;
//! the `&[E]` slices its sink sees alias that buffer and are overwritten
//! by the next step, so a sink keeps what it needs by copying.

use std::fmt;
use std::io::{Read, Write};

use egraph_core::types::{EdgeList, EdgeRecord, GraphError};

use crate::pod::Pod;

/// File magic.
pub const MAGIC: [u8; 4] = *b"EGRF";
/// Current format version.
pub const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;

/// Errors produced while reading an edge-array file.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic([u8; 4]),
    /// The file uses an unsupported format version.
    UnsupportedVersion(u32),
    /// The file's weightedness does not match the requested record
    /// type.
    WeightednessMismatch {
        /// Whether the file stores weights.
        file_weighted: bool,
        /// Whether the requested record type expects weights.
        requested_weighted: bool,
    },
    /// The file ended before `num_edges` records were read.
    Truncated {
        /// Records expected from the header.
        expected_edges: u64,
        /// Records actually present.
        found_edges: u64,
    },
    /// The records reference vertices outside the declared range.
    Graph(GraphError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic(m) => write!(f, "bad magic {m:?}, expected {MAGIC:?}"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::WeightednessMismatch {
                file_weighted,
                requested_weighted,
            } => write!(
                f,
                "file weighted={file_weighted} but requested record type weighted={requested_weighted}"
            ),
            FormatError::Truncated {
                expected_edges,
                found_edges,
            } => write!(f, "truncated: expected {expected_edges} edges, found {found_edges}"),
            FormatError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Bytes of one record on disk.
pub(crate) const fn record_len<E: EdgeRecord>() -> usize {
    if E::WEIGHTED {
        12
    } else {
        8
    }
}

/// Writes an edge list in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list<E: EdgeRecord, W: Write>(
    mut w: W,
    graph: &EdgeList<E>,
) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&u32::from(E::WEIGHTED).to_le_bytes());
    header[16..24].copy_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    w.write_all(&header)?;
    Pod::<E>::record().write_all(&mut w, graph.edges())?;
    w.flush()
}

/// Parsed header of an edge-array file.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Whether records carry weights.
    pub weighted: bool,
    /// Declared vertex count.
    pub num_vertices: u64,
    /// Declared edge count.
    pub num_edges: u64,
}

fn read_header<E: EdgeRecord, R: Read>(r: &mut R) -> Result<Header, FormatError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FormatError::Truncated {
                expected_edges: 0,
                found_edges: 0,
            }
        } else {
            FormatError::Io(e)
        }
    })?;
    let magic: [u8; 4] = field(&header, 0);
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(field(&header, 4));
    if version != VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let flags = u32::from_le_bytes(field(&header, 8));
    let weighted = flags & 1 != 0;
    if weighted != E::WEIGHTED {
        return Err(FormatError::WeightednessMismatch {
            file_weighted: weighted,
            requested_weighted: E::WEIGHTED,
        });
    }
    Ok(Header {
        weighted,
        num_vertices: u64::from_le_bytes(field(&header, 16)),
        num_edges: u64::from_le_bytes(field(&header, 24)),
    })
}

/// The `N` header bytes at offset `at`.
pub(crate) fn field<const N: usize>(header: &[u8], at: usize) -> [u8; N] {
    header[at..at + N]
        .try_into()
        .expect("the slice is N bytes long")
}

/// Reads a whole edge-array file.
///
/// # Errors
///
/// Returns a [`FormatError`] on malformed input, including truncation
/// and out-of-range vertex ids.
pub fn read_edge_list<E: EdgeRecord, R: Read>(mut r: R) -> Result<EdgeList<E>, FormatError> {
    let header = read_header::<E, R>(&mut r)?;
    let mut edges = Vec::new();
    Pod::<E>::record().land(&mut r, header.num_edges, &mut edges, |_, _| {})?;
    EdgeList::new(header.num_vertices as usize, edges).map_err(FormatError::Graph)
}

/// Streams an edge-array file in chunks, invoking `sink` as records
/// arrive — the entry point for pipelines that overlap pre-processing
/// with loading (§3.4). Returns the header.
///
/// # Errors
///
/// Returns a [`FormatError`] on malformed input. Records handed to
/// `sink` before an error are not rolled back.
pub fn read_edge_list_chunked<E: EdgeRecord, R: Read>(
    mut r: R,
    mut sink: impl FnMut(&[E]),
) -> Result<Header, FormatError> {
    let header = read_header::<E, R>(&mut r)?;
    let mut step = Vec::with_capacity(Pod::<E>::step_len());
    Pod::<E>::record().land(&mut r, header.num_edges, &mut step, |step, _| {
        sink(step);
        step.clear();
    })?;
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultedReader, IoFault, ThrottledReader};
    use egraph_core::types::{Edge, WEdge};
    use proptest::prelude::*;

    fn sample() -> EdgeList<Edge> {
        EdgeList::new(5, vec![Edge::new(0, 1), Edge::new(4, 2), Edge::new(3, 3)]).unwrap()
    }

    fn wsample() -> EdgeList<WEdge> {
        EdgeList::new(3, vec![WEdge::new(0, 1, 2.5), WEdge::new(2, 0, -1.0)]).unwrap()
    }

    /// `sample()` on disk, byte for byte.
    #[rustfmt::skip]
    const SAMPLE_FILE: [u8; 32 + 24] = [
        b'E', b'G', b'R', b'F',  1, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
        5, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0,  1, 0, 0, 0,
        4, 0, 0, 0,  2, 0, 0, 0,
        3, 0, 0, 0,  3, 0, 0, 0,
    ];

    /// `wsample()` on disk: 2.5 is 0x4020_0000, -1.0 is 0xBF80_0000.
    #[rustfmt::skip]
    const WSAMPLE_FILE: [u8; 32 + 24] = [
        b'E', b'G', b'R', b'F',  1, 0, 0, 0,  1, 0, 0, 0,  0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0,  1, 0, 0, 0,  0, 0, 0x20, 0x40,
        2, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0x80, 0xBF,
    ];

    // A round trip cannot see a writer and a reader that changed
    // together; these literals can.
    #[test]
    fn format_is_pinned_by_bytes() {
        let mut file = Vec::new();
        write_edge_list(&mut file, &sample()).unwrap();
        assert_eq!(file, SAMPLE_FILE);
        assert_eq!(
            read_edge_list::<Edge, _>(&SAMPLE_FILE[..]).unwrap(),
            sample()
        );

        file.clear();
        write_edge_list(&mut file, &wsample()).unwrap();
        assert_eq!(file, WSAMPLE_FILE);
        assert_eq!(
            read_edge_list::<WEdge, _>(&WSAMPLE_FILE[..]).unwrap(),
            wsample()
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = SAMPLE_FILE;
        buf[0] = b'X';
        match read_edge_list::<Edge, _>(&buf[..]) {
            Err(FormatError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let mut buf = SAMPLE_FILE;
        buf[4] = 99;
        assert!(matches!(
            read_edge_list::<Edge, _>(&buf[..]),
            Err(FormatError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn weightedness_mismatch_detected() {
        assert!(matches!(
            read_edge_list::<WEdge, _>(&SAMPLE_FILE[..]),
            Err(FormatError::WeightednessMismatch { .. })
        ));
    }

    #[test]
    fn truncation_reports_the_whole_records_received() {
        // Five bytes short: two whole records and three bytes of the third.
        let cut = &SAMPLE_FILE[..SAMPLE_FILE.len() - 5];
        match read_edge_list::<Edge, _>(cut) {
            Err(FormatError::Truncated {
                expected_edges: 3,
                found_edges: 2,
            }) => {}
            other => panic!("expected Truncated with 2 of 3, got {other:?}"),
        }
    }

    #[test]
    fn inflated_header_is_truncation_not_an_allocation() {
        // 32 bytes claiming 2^40 weighted edges (12 TiB). The reader
        // allocates for what arrives, so this is a typed error even
        // under an address-space limit (CI runs this binary under one).
        let mut file = WSAMPLE_FILE[..HEADER_LEN].to_vec();
        file[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        match read_edge_list::<WEdge, _>(&file[..]) {
            Err(FormatError::Truncated {
                expected_edges,
                found_edges: 0,
            }) => assert_eq!(expected_edges, 1 << 40),
            other => panic!("expected Truncated with 0 of 2^40, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_vertex_detected() {
        let mut buf = SAMPLE_FILE;
        // Corrupt num_vertices down to 2.
        buf[16] = 2;
        assert!(matches!(
            read_edge_list::<Edge, _>(&buf[..]),
            Err(FormatError::Graph(_))
        ));
    }

    /// `count` in-range records of either type, varied by `salt`.
    fn graph_of<E: EdgeRecord>(count: usize, salt: u32) -> EdgeList<E> {
        let edges = (0..count as u32)
            .map(|i| {
                E::new(
                    i % 500,
                    i.wrapping_mul(7).wrapping_add(salt) % 500,
                    i as f32,
                )
            })
            .collect();
        EdgeList::new(500, edges).unwrap()
    }

    fn chunked_read_equals_whole_read<E: EdgeRecord + PartialEq + fmt::Debug>() {
        // Cross several step boundaries, ending inside a step.
        let count = 6 * Pod::<E>::step_len() + 17;
        let graph = graph_of::<E>(count, 3);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &graph).unwrap();
        let mut streamed = Vec::new();
        let header = read_edge_list_chunked::<E, _>(&buf[..], |chunk| {
            assert!(!chunk.is_empty() && chunk.len() <= Pod::<E>::step_len());
            streamed.extend_from_slice(chunk)
        })
        .unwrap();
        assert_eq!(header.num_edges, count as u64);
        assert_eq!(streamed, graph.edges());
        assert_eq!(read_edge_list::<E, _>(&buf[..]).unwrap(), graph);
    }

    #[test]
    fn chunked_read_equals_whole_read_unweighted() {
        chunked_read_equals_whole_read::<Edge>();
    }

    #[test]
    fn chunked_read_equals_whole_read_weighted() {
        chunked_read_equals_whole_read::<WEdge>();
    }

    /// At every record count around the landing step: write, read back
    /// whole through short reads, and chunked through a throttled
    /// stream.
    fn roundtrip_at_step_boundaries<E: EdgeRecord + PartialEq + fmt::Debug>(seed: u64) {
        let step = Pod::<E>::step_len();
        for count in [0, 1, step - 1, step, step + 1, 2 * step + 3] {
            let graph = graph_of::<E>(count, seed as u32);
            let mut file = Vec::new();
            write_edge_list(&mut file, &graph).unwrap();
            assert_eq!(file.len(), HEADER_LEN + count * record_len::<E>());

            let short = FaultedReader::new(&file[..], IoFault::ShortReads { seed });
            assert_eq!(read_edge_list::<E, _>(short).unwrap(), graph);

            let mut streamed = Vec::new();
            read_edge_list_chunked::<E, _>(ThrottledReader::new(&file[..], 1e9), |chunk| {
                streamed.extend_from_slice(chunk)
            })
            .unwrap();
            assert_eq!(streamed, graph.edges());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn roundtrip_at_step_boundaries_unweighted(seed in any::<u64>()) {
            roundtrip_at_step_boundaries::<Edge>(seed);
        }

        #[test]
        fn roundtrip_at_step_boundaries_weighted(seed in any::<u64>()) {
            roundtrip_at_step_boundaries::<WEdge>(seed);
        }
    }

    #[test]
    fn empty_file_is_truncated_error() {
        assert!(matches!(
            read_edge_list::<Edge, _>(&[][..]),
            Err(FormatError::Truncated { .. })
        ));
    }
}
