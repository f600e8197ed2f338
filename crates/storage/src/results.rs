//! Storing computation results — the final step of the paper's
//! end-to-end pipeline ("loading the graph […], pre-processing […],
//! executing the actual graph algorithm, and **storing the results**",
//! §1).
//!
//! Results are per-vertex arrays: BFS parents and WCC labels are
//! `u32`, SSSP distances / PageRank ranks / SpMV outputs are `f32`.
//! The format mirrors the edge format: a small validated header plus
//! raw little-endian values, moved by the same byte view — and read
//! with the same distrust of the header's length field — as the edge
//! records (see [`crate::format`]).
//!
//! ```text
//! offset  size  field
//! 0       4     magic "EGRR"
//! 4       4     dtype (0: u32, 1: f32)
//! 8       8     len
//! 16      …     values × len
//! ```

use std::io::{Read, Write};

use crate::format::{field, FormatError};
use crate::pod::Pod;

/// Result-file magic.
pub const RESULT_MAGIC: [u8; 4] = *b"EGRR";
const HEADER_LEN: usize = 16;

/// Element type tag stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dtype {
    U32 = 0,
    F32 = 1,
}

fn write_result<T: Copy, W: Write>(
    mut w: W,
    dtype: Dtype,
    pod: Pod<T>,
    values: &[T],
) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&RESULT_MAGIC);
    header[4..8].copy_from_slice(&(dtype as u32).to_le_bytes());
    header[8..16].copy_from_slice(&(values.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    pod.write_all(&mut w, values)?;
    w.flush()
}

fn read_result<T: Copy, R: Read>(
    mut r: R,
    expect: Dtype,
    pod: Pod<T>,
) -> Result<Vec<T>, FormatError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = field(&header, 0);
    if magic != RESULT_MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let dtype = u32::from_le_bytes(field(&header, 4));
    if dtype != expect as u32 {
        return Err(FormatError::UnsupportedVersion(dtype));
    }
    let len = u64::from_le_bytes(field(&header, 8));
    let mut values = Vec::new();
    pod.land(&mut r, len, &mut values, |_, _| {})?;
    Ok(values)
}

/// Writes a `u32` per-vertex result array (BFS parents, WCC labels).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_u32_result<W: Write>(w: W, values: &[u32]) -> std::io::Result<()> {
    write_result(w, Dtype::U32, Pod::U32, values)
}

/// Reads a `u32` result array.
///
/// # Errors
///
/// Returns a [`FormatError`] on malformed input.
pub fn read_u32_result<R: Read>(r: R) -> Result<Vec<u32>, FormatError> {
    read_result(r, Dtype::U32, Pod::U32)
}

/// Writes an `f32` per-vertex result array (distances, ranks).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_f32_result<W: Write>(w: W, values: &[f32]) -> std::io::Result<()> {
    write_result(w, Dtype::F32, Pod::F32, values)
}

/// Reads an `f32` result array.
///
/// # Errors
///
/// Returns a [`FormatError`] on malformed input.
pub fn read_f32_result<R: Read>(r: R) -> Result<Vec<f32>, FormatError> {
    read_result(r, Dtype::F32, Pod::F32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let values: Vec<u32> = (0..100_000).map(|i| i * 7).collect();
        let mut file = Vec::new();
        write_u32_result(&mut file, &values).unwrap();
        assert_eq!(read_u32_result(&file[..]).unwrap(), values);
    }

    #[test]
    fn f32_roundtrip_with_specials() {
        let values = vec![0.0f32, -1.5, f32::INFINITY, f32::MAX, 1e-30];
        let mut file = Vec::new();
        write_f32_result(&mut file, &values).unwrap();
        assert_eq!(read_f32_result(&file[..]).unwrap(), values);
    }

    // The bytes on disk, not just a round trip: 1.5 is 0x3FC0_0000,
    // infinity 0x7F80_0000.
    #[test]
    fn format_is_pinned_by_bytes() {
        #[rustfmt::skip]
        const U32_FILE: [u8; 16 + 8] = [
            b'E', b'G', b'R', b'R',  0, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,
            7, 0, 0, 0,  0xEF, 0xBE, 0xAD, 0xDE,
        ];
        #[rustfmt::skip]
        const F32_FILE: [u8; 16 + 8] = [
            b'E', b'G', b'R', b'R',  1, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0xC0, 0x3F,  0, 0, 0x80, 0x7F,
        ];
        let mut file = Vec::new();
        write_u32_result(&mut file, &[7, 0xDEAD_BEEF]).unwrap();
        assert_eq!(file, U32_FILE);
        assert_eq!(read_u32_result(&U32_FILE[..]).unwrap(), [7, 0xDEAD_BEEF]);

        file.clear();
        write_f32_result(&mut file, &[1.5, f32::INFINITY]).unwrap();
        assert_eq!(file, F32_FILE);
        assert_eq!(
            read_f32_result(&F32_FILE[..]).unwrap(),
            [1.5, f32::INFINITY]
        );
    }

    #[test]
    fn truncation_reports_the_values_received() {
        let mut file = Vec::new();
        write_u32_result(&mut file, &[1, 2, 3]).unwrap();
        file.truncate(file.len() - 2);
        assert!(matches!(
            read_u32_result(&file[..]),
            Err(FormatError::Truncated {
                expected_edges: 3,
                found_edges: 2
            })
        ));
    }

    #[test]
    fn dtype_mismatch_detected() {
        let mut file = Vec::new();
        write_u32_result(&mut file, &[1, 2, 3]).unwrap();
        assert!(read_f32_result(&file[..]).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let mut file = Vec::new();
        write_u32_result(&mut file, &[1]).unwrap();
        file[0] = b'Z';
        assert!(matches!(
            read_u32_result(&file[..]),
            Err(FormatError::BadMagic(_))
        ));
    }

    #[test]
    fn empty_result_roundtrip() {
        let mut file = Vec::new();
        write_f32_result(&mut file, &[]).unwrap();
        assert!(read_f32_result(&file[..]).unwrap().is_empty());
    }
}
