//! Delta-log properties: random interleavings of insert / delete /
//! duplicate / self-loop batches round-trip through the log (overlay
//! and compaction) to the same graph a direct build produces, and
//! malformed NDJSON delta streams yield typed errors — never a panic —
//! while an accepted line is the op its first top-level fields name.

use egraph_core::layout::{DeltaBatch, DeltaError, DeltaGraph, DeltaList, DeltaLog, DeltaOp};
use egraph_core::prelude::*;
use egraph_core::telemetry::json;
// Explicit: both glob imports export a `Strategy` (the preprocess enum
// vs the proptest trait); the builder below means the enum, generator
// signatures name the trait by its full path.
use egraph_core::preprocess::Strategy;
use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

/// One generated op, pre-resolution: indexes into the current merged
/// edge set so deletes and duplicates usually hit live edges.
#[derive(Debug, Clone)]
enum RawOp {
    Insert {
        src: u32,
        dst: u32,
    },
    SelfLoop {
        v: u32,
    },
    /// Duplicate the i-th live edge (modulo the live count).
    Duplicate {
        index: usize,
    },
    /// Delete the i-th live edge (modulo the live count); a delete on
    /// an empty graph degrades to a (legal) miss on (0, 0).
    Delete {
        index: usize,
    },
}

fn raw_op() -> impl PropStrategy<Value = RawOp> {
    // Tag-dispatched variant choice (the offline proptest stub has no
    // `prop_oneof!`): inserts get double weight so graphs tend to grow.
    (0u8..5, any::<u32>(), any::<u32>(), any::<usize>()).prop_map(|(tag, a, b, index)| match tag {
        0 | 1 => RawOp::Insert { src: a, dst: b },
        2 => RawOp::SelfLoop { v: a },
        3 => RawOp::Duplicate { index },
        _ => RawOp::Delete { index },
    })
}

/// Replays `raw` against a running merged edge set, yielding concrete
/// batches plus the expected final multiset (order-sensitive, multiset-
/// wide deletes — the documented semantics).
fn resolve(nv: usize, raw: &[Vec<RawOp>]) -> (Vec<DeltaBatch<Edge>>, Vec<Edge>) {
    let mut live: Vec<Edge> = Vec::new();
    let mut batches = Vec::new();
    for raw_batch in raw {
        let mut batch = DeltaBatch::new();
        for op in raw_batch {
            let op = match op {
                RawOp::Insert { src, dst } => {
                    DeltaOp::Insert(Edge::new(src % nv as u32, dst % nv as u32))
                }
                RawOp::SelfLoop { v } => {
                    let v = v % nv as u32;
                    DeltaOp::Insert(Edge::new(v, v))
                }
                RawOp::Duplicate { index } if !live.is_empty() => {
                    DeltaOp::Insert(live[index % live.len()])
                }
                RawOp::Duplicate { .. } => DeltaOp::Insert(Edge::new(0, 0)),
                RawOp::Delete { index } if !live.is_empty() => {
                    let e = live[index % live.len()];
                    DeltaOp::Delete {
                        src: e.src(),
                        dst: e.dst(),
                    }
                }
                RawOp::Delete { .. } => DeltaOp::Delete { src: 0, dst: 0 },
            };
            // Maintain the expected multiset by the documented replay
            // semantics: insert appends one copy; delete removes every
            // copy present right now.
            match op {
                DeltaOp::Insert(e) => live.push(e),
                DeltaOp::Delete { src, dst } => {
                    live.retain(|e| e.src() != src || e.dst() != dst);
                }
            }
            batch.ops.push(op);
        }
        batches.push(batch);
    }
    (batches, live)
}

/// Canonical sorted edge multiset for comparison.
fn canonical(edges: &[Edge]) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = edges.iter().map(|e| (e.src(), e.dst())).collect();
    v.sort_unstable();
    v
}

/// Sorted per-vertex out-neighbor lists of a layout, via the overlay
/// iterator — what the delta kernels actually see.
fn out_neighbors<E: EdgeRecord, L: VertexLayout<E>>(layout: &L) -> Vec<Vec<u32>> {
    let out = layout.out();
    (0..out.num_vertices() as VertexId)
        .map(|v| {
            let mut ns = Vec::new();
            out.for_each_span(v, |span| {
                ns.extend(span.iter().map(EdgeRecord::dst));
                span.len()
            });
            ns.sort_unstable();
            ns
        })
        .collect()
}

/// The merge rule replayed op by op, as the log reads: a delete drops
/// every copy present so far, base and inserted alike. Surviving base
/// edges in base order, then surviving inserts in log order.
fn naive_merge(base: &[Edge], ops: &[DeltaOp<Edge>]) -> Vec<(u32, u32)> {
    let mut base = base.to_vec();
    let mut inserted = Vec::new();
    for op in ops {
        match *op {
            DeltaOp::Insert(e) => inserted.push(e),
            DeltaOp::Delete { src, dst } => {
                let live = |e: &Edge| (e.src(), e.dst()) != (src, dst);
                base.retain(live);
                inserted.retain(live);
            }
        }
    }
    base.iter()
        .chain(&inserted)
        .map(|e| (e.src(), e.dst()))
        .collect()
}

/// `v`'s neighbor list as the overlay hands it out, in order.
fn spanned<A: NeighborAccess<Edge>>(access: &A, v: VertexId) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    access.for_each_span(v, |span| {
        edges.extend(span.iter().map(|e| (e.src(), e.dst())));
        span.len()
    });
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleaved batches: the log's merged edge list, the
    /// overlay layout, and post-compaction snapshots all agree with a
    /// direct replay of the same ops.
    #[test]
    fn interleaved_batches_roundtrip_to_a_direct_build(
        nv in 1usize..48,
        base_raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64),
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..12), 1..5),
    ) {
        let base_edges: Vec<Edge> = base_raw
            .iter()
            .map(|&(s, d)| Edge::new(s % nv as u32, d % nv as u32))
            .collect();
        let base = EdgeList::new(nv, base_edges.clone()).unwrap();

        // Seed the replay with the base edges so deletes can hit them.
        let mut seeded = vec![base_edges.iter().map(|e| RawOp::Insert { src: e.src(), dst: e.dst() }).collect::<Vec<_>>()];
        seeded.extend(raw.iter().cloned());
        let (batches, expected) = resolve(nv, &seeded);
        let update_batches = &batches[1..]; // batch 0 replayed the base

        // Route 1: one growing log merged into the base at the end.
        let mut log = DeltaLog::new();
        for b in update_batches {
            log.append(b);
        }
        let merged = log.merge_into(&base);
        prop_assert_eq!(canonical(merged.edges()), canonical(&expected));

        // Route 2: the overlay layout (base CSR + pending log) exposes
        // exactly the merged graph's adjacency.
        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(&base)
            .into_parts();
        let overlay = DeltaList::new(out, inc, &log);
        let direct = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(&merged);
        prop_assert_eq!(out_neighbors(&overlay), out_neighbors(&direct));

        // Route 3: batch-at-a-time with a compaction after every batch
        // — epochs advance (for non-empty batches) and the final
        // snapshot is the same multiset.
        let dgraph = DeltaGraph::new(base);
        for b in update_batches {
            dgraph.apply(b).unwrap();
            let before = dgraph.epoch();
            let stats = dgraph.compact();
            if b.is_empty() {
                prop_assert_eq!(stats.epoch, before);
            } else {
                prop_assert_eq!(stats.epoch, before + 1);
            }
            prop_assert_eq!(dgraph.pending_ops(), 0);
        }
        prop_assert_eq!(canonical(dgraph.snapshot().edges.edges()), canonical(&expected));
    }

    /// `merge_into` keeps the order of the op-by-op replay — surviving
    /// base edges in base order, then surviving inserts in log order —
    /// and the overlay hands out each owner's list in the same order
    /// over its CSR slice. Few vertices, so keys repeat: multi-copy
    /// base edges, repeated deletes and delete-then-reinsert.
    #[test]
    fn merge_and_overlay_keep_the_order_of_a_naive_replay(
        nv in 1usize..6,
        base_raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        raw in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 0..40),
    ) {
        let key = |a: u32| a % nv as u32;
        let base_edges: Vec<Edge> =
            base_raw.iter().map(|&(s, d)| Edge::new(key(s), key(d))).collect();
        let base = EdgeList::new(nv, base_edges.clone()).unwrap();
        let ops: Vec<DeltaOp<Edge>> = raw
            .iter()
            .map(|&(delete, s, d)| match delete {
                true => DeltaOp::Delete { src: key(s), dst: key(d) },
                false => DeltaOp::Insert(Edge::new(key(s), key(d))),
            })
            .collect();
        let mut log = DeltaLog::new();
        for op in &ops {
            log.push(*op);
        }
        let pairs = |edges: &[Edge]| edges.iter().map(|e| (e.src(), e.dst())).collect::<Vec<_>>();
        prop_assert_eq!(pairs(log.merge_into(&base).edges()), naive_merge(&base_edges, &ops));

        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .build(&base)
            .into_parts();
        let (out, inc) = (out.unwrap(), inc.unwrap());
        let overlay = DeltaList::new(Some(out.clone()), Some(inc.clone()), &log);
        for v in 0..nv as VertexId {
            let by_src: Vec<DeltaOp<Edge>> =
                ops.iter().filter(|op| op.endpoints().0 == v).copied().collect();
            let by_dst: Vec<DeltaOp<Edge>> =
                ops.iter().filter(|op| op.endpoints().1 == v).copied().collect();
            prop_assert_eq!(spanned(overlay.out(), v), naive_merge(out.neighbors(v), &by_src));
            prop_assert_eq!(spanned(overlay.incoming(), v), naive_merge(inc.neighbors(v), &by_dst));
        }
    }

    /// Malformed NDJSON delta lines parse to a typed [`DeltaError`] —
    /// never a panic. Structurally valid lines must satisfy the parsed
    /// op's invariants.
    #[test]
    fn malformed_ndjson_yields_typed_errors(
        bytes in proptest::collection::vec(any::<u8>(), 0..60),
    ) {
        // Arbitrary (mostly non-JSON) byte soup, lossily decoded.
        let line = String::from_utf8_lossy(&bytes).into_owned();
        match DeltaBatch::<Edge>::parse_line(&line, 1) {
            Ok(DeltaOp::Insert(_)) | Ok(DeltaOp::Delete { .. }) => {}
            Err(
                DeltaError::NotJson { .. }
                | DeltaError::MissingField { .. }
                | DeltaError::BadField { .. }
                | DeltaError::UnknownOp { .. }
                | DeltaError::VertexOutOfRange { .. },
            ) => {}
        }
    }

    /// Near-miss op lines (valid JSON shape, corrupted fields) are
    /// typed errors too, and a whole-stream parse stops at the first
    /// bad line without panicking.
    #[test]
    fn corrupted_op_streams_never_panic(
        op_bytes in proptest::collection::vec(b'a'..=b'z', 0..8),
        src in any::<i64>(),
        keep_dst in any::<bool>(),
        nv in 1usize..64,
    ) {
        let op = String::from_utf8(op_bytes).unwrap();
        let dst = if keep_dst { "\"dst\":3,".to_string() } else { String::new() };
        let text = format!(
            "{{\"op\":\"insert\",\"src\":1,\"dst\":2}}\n{{\"op\":\"{op}\",\"src\":{src},{dst}\"weight\":1.5}}\n"
        );
        match DeltaBatch::<Edge>::parse_ndjson(&text) {
            Ok(batch) => {
                // Every surviving op must still be validatable.
                let _ = batch.validate(nv);
            }
            Err(_typed) => {}
        }
    }
}

/// One field of a generated update line: the four op fields, wrongly
/// typed copies of them, and fields nesting the same keys one level
/// down.
fn fragment(tag: u8, n: u32) -> String {
    let v = n % 20;
    match tag % 14 {
        0 => r#""op":"insert""#.to_string(),
        1 => r#""op":"delete""#.to_string(),
        2 => r#""op":"add""#.to_string(),
        3 => r#""op":"remove""#.to_string(),
        4 => r#""op":7"#.to_string(),
        5 => format!(r#""src":{v}"#),
        6 => format!(r#""dst":{v}"#),
        7 => format!(r#""weight":{v}.5"#),
        8 => format!(r#""src":"{v}""#),
        9 => format!(r#""dst":-{v}.5"#),
        10 => format!(r#""meta":{{"op":"delete","src":{v}}}"#),
        11 => format!(r#""x":[{{"dst":{v},"weight":{v}}}]"#),
        12 => r#""id":"error""#.to_string(),
        _ => format!(r#""weight":"{v}""#),
    }
}

/// The op a line's first top-level `op` / `src` / `dst` / `weight`
/// fields name, read independently of the codec.
fn op_of_first_fields(value: &json::Value) -> Option<DeltaOp<WEdge>> {
    let vertex = |key| value.get(key)?.as_number().map(|n| n as u32);
    let (src, dst) = (vertex("src")?, vertex("dst")?);
    match value.get("op")?.as_str()? {
        "insert" | "add" => {
            let weight = value
                .get("weight")
                .map_or(Some(1.0), json::Value::as_number)?;
            Some(DeltaOp::Insert(WEdge::new(src, dst, weight as f32)))
        }
        "delete" | "remove" => Some(DeltaOp::Delete { src, dst }),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every line the codec accepts is one JSON object, and the op it
    /// parses is the one its first top-level fields name: a nested or
    /// repeated key never changes the op — the daemon, which routes a
    /// line by the same fields, and the codec cannot disagree.
    #[test]
    fn an_accepted_line_is_the_op_its_first_top_level_fields_name(
        fields in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..8),
        valid_at in any::<usize>(),
        with_valid in any::<bool>(),
        trailer in 0u8..4,
    ) {
        let mut parts: Vec<String> = fields.iter().map(|&(tag, n)| fragment(tag, n)).collect();
        if with_valid {
            let at = valid_at % (parts.len() + 1);
            parts.insert(at, r#""op":"insert","src":1,"dst":2"#.to_string());
        }
        let trailer = [" ", "", " x", "}"][trailer as usize];
        let line = format!("{{{}}}{trailer}", parts.join(","));
        if let Ok(op) = DeltaBatch::<WEdge>::parse_line(&line, 1) {
            let value = json::parse(&line);
            prop_assert!(
                matches!(value, Ok(json::Value::Object(_))),
                "accepted a line that is not one JSON object: {}", line
            );
            let value = value.unwrap();
            prop_assert_eq!(Some(op), op_of_first_fields(&value), "{}", line);
            let unweighted = DeltaBatch::<Edge>::parse_line(&line, 1).unwrap();
            prop_assert_eq!(unweighted.endpoints(), op.endpoints(), "{}", line);
        }
    }
}
