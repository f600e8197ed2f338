//! Failure-injection tests: the reader must return a typed error —
//! never panic, never hand back silently wrong data — for arbitrary
//! corruption of a valid file.

use egraph_core::types::{Edge, EdgeList, WEdge};
use egraph_storage::{
    read_edge_list, read_f32_result, read_u32_result, write_edge_list, write_f32_result,
    write_u32_result, FormatError,
};
use proptest::prelude::*;

fn valid_file() -> Vec<u8> {
    let graph = EdgeList::new(
        100,
        (0..500u32)
            .map(|i| Edge::new(i % 100, (i * 7) % 100))
            .collect(),
    )
    .unwrap();
    let mut buf = Vec::new();
    write_edge_list(&mut buf, &graph).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncation_at_any_point_is_detected(cut in 0usize..4032) {
        let mut file = valid_file();
        prop_assume!(cut < file.len());
        file.truncate(cut);
        match read_edge_list::<Edge, _>(&file[..]) {
            Err(_) => {}
            Ok(g) => {
                // Only acceptable if the truncation kept the file valid
                // — impossible here because the header pins the edge
                // count.
                prop_assert_eq!(g.num_edges(), 500, "silently wrong data");
                prop_assert_eq!(cut, valid_file().len());
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(
        pos in 0usize..4032,
        val in any::<u8>(),
    ) {
        let mut file = valid_file();
        prop_assume!(pos < file.len());
        file[pos] = val;
        // Must return *something* without panicking; if it parses, the
        // graph must still be structurally valid.
        if let Ok(g) = read_edge_list::<Edge, _>(&file[..]) {
            for e in g.edges() {
                prop_assert!((e.src as usize) < g.num_vertices());
                prop_assert!((e.dst as usize) < g.num_vertices());
            }
        }
    }

    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_edge_list::<Edge, _>(&data[..]);
        let _ = read_edge_list::<WEdge, _>(&data[..]);
    }

    #[test]
    fn header_edge_count_inflation_is_truncation(extra in 1u64..1000) {
        let mut file = valid_file();
        // num_edges lives at offset 24, little endian.
        let claimed = 500 + extra;
        file[24..32].copy_from_slice(&claimed.to_le_bytes());
        let truncated = matches!(
            read_edge_list::<Edge, _>(&file[..]),
            Err(FormatError::Truncated { .. })
        );
        prop_assert!(truncated);
    }
}

/// A valid 400-value result file of each dtype (16-byte header, 1600
/// payload bytes).
fn valid_results() -> (Vec<u8>, Vec<u8>) {
    let (mut u, mut f) = (Vec::new(), Vec::new());
    let values: Vec<u32> = (0..400).map(|i| i * 3).collect();
    write_u32_result(&mut u, &values).unwrap();
    let values: Vec<f32> = values.iter().map(|&v| v as f32 * 0.5).collect();
    write_f32_result(&mut f, &values).unwrap();
    (u, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn result_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_u32_result(&data[..]);
        let _ = read_f32_result(&data[..]);
    }

    #[test]
    fn result_single_byte_corruption_never_panics(pos in 0usize..1616, val in any::<u8>()) {
        // Byte 15 is the top of the length field: `val << 56` values is
        // an allocation the reader must not attempt.
        let (mut u, mut f) = valid_results();
        u[pos] = val;
        f[pos] = val;
        if let Ok(values) = read_u32_result(&u[..]) {
            prop_assert!(values.len() <= 400);
        }
        if let Ok(values) = read_f32_result(&f[..]) {
            prop_assert!(values.len() <= 400);
        }
    }

    #[test]
    fn result_length_inflation_is_truncation(shift in 0u32..55) {
        // The length lives at offset 8, little endian; claims run from
        // 401 values up to 2^62 (whose byte count overflows a usize).
        let claimed = 400 + (1u64 << shift) + (1u64 << (shift + 8));
        let (mut u, mut f) = valid_results();
        u[8..16].copy_from_slice(&claimed.to_le_bytes());
        f[8..16].copy_from_slice(&claimed.to_le_bytes());
        let truncated = |r: Result<usize, FormatError>| matches!(
            r,
            Err(FormatError::Truncated { expected_edges, found_edges: 400 })
                if expected_edges == claimed
        );
        prop_assert!(truncated(read_u32_result(&u[..]).map(|v| v.len())));
        prop_assert!(truncated(read_f32_result(&f[..]).map(|v| v.len())));
    }
}

#[test]
fn weighted_and_unweighted_files_are_distinguished() {
    let unweighted = valid_file();
    assert!(matches!(
        read_edge_list::<WEdge, _>(&unweighted[..]),
        Err(FormatError::WeightednessMismatch {
            file_weighted: false,
            requested_weighted: true
        })
    ));
}
