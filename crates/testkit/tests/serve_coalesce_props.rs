//! Serve-engine coalescing properties: a random multiset of point
//! queries with forced duplicates, all in flight at once, is answered
//! exactly as the same queries are one at a time — on every servable
//! layout, and across a `compact()` that lands mid-stream.
//!
//! The reference is a second engine of the same layout that never forms
//! a wave of more than one query. Every coalesced answer must equal the
//! reference's answer *for the epoch its wave ran against* (the flight
//! recorder names it), and the recorder's own bookkeeping must be
//! consistent: a wave's riders share one kind and one epoch, its
//! `wave_size` and `lanes` count what they say, one source is one lane,
//! and answers of one kind never overtake each other.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use egraph_core::prelude::*;
use egraph_core::serve::{
    Query, QueryEvent, QueryKind, QueryOutcome, QueryValues, ServeConfig, ServeEngine, ServeGraph,
};
use egraph_core::variant::Layout;
use proptest::prelude::*;

const KINDS: [QueryKind; 3] = [QueryKind::Bfs, QueryKind::Sssp, QueryKind::KHop];

/// Integer weights keep every `f32` path sum exact.
fn graph_of(nv: usize, raw: &[(u32, u32, u8)]) -> EdgeList<WEdge> {
    let edges = raw
        .iter()
        .map(|&(s, d, w)| WEdge::new(s % nv as u32, d % nv as u32, f32::from(1 + w % 7)))
        .collect();
    EdgeList::new(nv, edges).unwrap()
}

/// `base` plus one copy per pick: every other copy keeps the picked
/// query whole, the rest keep its kind and source under a new depth (so
/// k-hop riders of one lane differ in where they are cut).
fn with_duplicates(nv: usize, base: &[(u8, u32, u32)], picks: &[(usize, u32)]) -> Vec<Query> {
    let query = |&(kind, source, depth): &(u8, u32, u32)| Query {
        kind: KINDS[kind as usize % 3],
        source: source % nv as u32,
        depth,
    };
    let mut queries: Vec<Query> = base.iter().map(query).collect();
    for (i, &(pick, depth)) in picks.iter().enumerate() {
        let mut copy = query(&base[pick % base.len()]);
        if i % 2 == 1 {
            copy.depth = depth;
        }
        queries.push(copy);
    }
    queries
}

fn engine(graph: &EdgeList<WEdge>, layout: Layout, max_wave: usize, window_ms: u64) -> ServeEngine {
    let engine = ServeEngine::start(
        ServeGraph::Weighted(graph.clone()),
        ServeConfig {
            threads: 1,
            max_wave,
            batch_window: Duration::from_millis(window_ms),
            metrics: false,
            layout,
            journal_capacity: 4096,
            slow_query: None,
        },
    );
    engine.wait_ready();
    engine
}

/// Each query alone in the engine: submit, wait, next.
fn one_at_a_time(engine: &ServeEngine, queries: &[Query]) -> Vec<QueryValues> {
    queries
        .iter()
        .map(|&q| engine.submit(q).unwrap().recv().unwrap().values)
        .collect()
}

fn events_by_id(engine: &ServeEngine, n: usize) -> BTreeMap<u64, QueryEvent> {
    // The deposit trails the result send.
    while (engine.journal().recorded() as usize) < n {
        std::thread::sleep(Duration::from_millis(1));
    }
    engine
        .journal()
        .dump(n)
        .into_iter()
        .map(|e| (e.id, e))
        .collect()
}

proptest! {
    // Each case starts eight engines; keep the count bounded.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn coalesced_answers_equal_one_at_a_time_answers(
        // (The offline proptest stub stops at five arguments.)
        shape in (2usize..40, 1usize..6),
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..160),
        base in proptest::collection::vec((0u8..3, any::<u32>(), 0u32..4), 1..10),
        picks in proptest::collection::vec((any::<usize>(), 0u32..4), 1..40),
        inserts in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..12),
    ) {
        let (nv, max_wave) = shape;
        let graph = graph_of(nv, &raw);
        let queries = with_duplicates(nv, &base, &picks);
        let update: String = inserts
            .iter()
            .map(|&(s, d, w)| format!(
                "{{\"op\":\"insert\",\"src\":{},\"dst\":{},\"weight\":{}}}\n",
                s % nv as u32, d % nv as u32, 1 + w % 7
            ))
            .collect();
        let (before, after) = queries.split_at(queries.len() / 2);

        for layout in [Layout::Adjacency, Layout::Grid, Layout::Ccsr, Layout::Delta] {
            // Reference answers per epoch: 1 = as loaded, 2 = compacted.
            let reference = engine(&graph, layout, 1, 0);
            let mut want = BTreeMap::new();
            want.insert(1, one_at_a_time(&reference, &queries));
            reference.apply_update(&update).unwrap();
            prop_assert_eq!(reference.compact().epoch, 2);
            want.insert(2, one_at_a_time(&reference, &queries));
            reference.shutdown();

            // Everything in flight at once, the compaction in the middle
            // of the stream: waves of the first half may run on either
            // snapshot, waves launched after it only on the new one.
            let coalescing = engine(&graph, layout, max_wave, 5);
            let submit = |qs: &[Query]| -> Vec<_> {
                qs.iter().map(|&q| coalescing.submit(q).unwrap()).collect()
            };
            let mut receivers = submit(before);
            coalescing.apply_update(&update).unwrap();
            prop_assert_eq!(coalescing.compact().epoch, 2);
            receivers.extend(submit(after));
            let outcomes: Vec<QueryOutcome> =
                receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
            // One submitting thread: engine ids are 1.. in query order.
            let events = events_by_id(&coalescing, queries.len());
            prop_assert_eq!(events.len(), queries.len());

            for (i, (query, outcome)) in queries.iter().zip(&outcomes).enumerate() {
                let event = &events[&(i as u64 + 1)];
                prop_assert_eq!(event.source, query.source);
                prop_assert!(i < before.len() || event.epoch == 2, "{:?}: {:?}", layout, event);
                prop_assert_eq!(
                    &outcome.values, &want[&event.epoch][i],
                    "{:?} query {} {:?} at epoch {}", layout, i, query, event.epoch
                );
                prop_assert_eq!(outcome.checksum, outcome.values.checksum());
                prop_assert_eq!(outcome.checksum, event.checksum);
                prop_assert_eq!(outcome.wave_size, event.wave_size as usize);
            }

            let mut waves: BTreeMap<u64, Vec<&QueryEvent>> = BTreeMap::new();
            for event in events.values() {
                waves.entry(event.wave).or_default().push(event);
            }
            for riders in waves.values() {
                let first = riders[0];
                let lane_of: BTreeMap<u32, u8> = riders.iter().map(|e| (e.source, e.lane)).collect();
                let lanes: BTreeSet<u8> = lane_of.values().copied().collect();
                prop_assert!(lanes.len() <= max_wave, "{:?}", riders);
                prop_assert_eq!(lanes.len(), lane_of.len(), "two sources on one lane: {:?}", riders);
                for e in riders {
                    prop_assert_eq!((e.kind, e.epoch), (first.kind, first.epoch));
                    prop_assert_eq!(e.wave_size as usize, riders.len());
                    prop_assert_eq!(e.lanes as usize, lanes.len());
                    prop_assert_eq!(e.lane, lane_of[&e.source], "one source, one lane");
                }
            }
            // First in, first out within a kind: a later query never
            // rides an earlier wave than a query admitted before it.
            for kind in KINDS {
                let order: Vec<u64> =
                    events.values().filter(|e| e.kind == kind).map(|e| e.wave).collect();
                prop_assert!(order.windows(2).all(|w| w[0] <= w[1]), "{:?} {:?}", kind, order);
            }
            coalescing.shutdown();
        }
    }
}
