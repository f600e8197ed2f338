//! Property tests for the serve flight recorder under concurrent
//! writers: whatever interleaving the scheduler produces, a dump must
//! never yield a torn event — every field of every returned event must
//! be internally consistent with the single `fetch_add`-claimed id that
//! produced it.

use std::sync::Arc;

use egraph_core::serve::{EventOutcome, QueryEvent, QueryJournal, QueryKind};
use proptest::prelude::*;

/// Derives every payload word deterministically from the id, so a
/// reader can prove a dumped event is untorn by re-deriving it.
fn event_for(id: u64) -> QueryEvent {
    QueryEvent {
        id,
        wave: id >> 2,
        lane: (id % 64) as u8,
        lanes: 1 + (id % 64) as u8,
        // Coalesced waves carry more riders than lanes: exercise sizes
        // on both sides of the old one-byte field, up to the full u32.
        wave_size: match id % 4 {
            0 => 1 + (id % 64) as u32,
            1 => 256 + id as u32,
            2 => 70_000 + id as u32,
            _ => u32::MAX - id as u32,
        },
        kind: match id % 3 {
            0 => QueryKind::Bfs,
            1 => QueryKind::Sssp,
            _ => QueryKind::KHop,
        },
        epoch: 1 + id % 5,
        source: id as u32,
        depth: (id % 7) as u32,
        enqueued_us: id * 100,
        started_us: id * 100 + 10,
        executed_us: id * 100 + 20,
        done_us: id * 100 + 30,
        checksum: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        outcome: if id.is_multiple_of(2) {
            EventOutcome::Answered
        } else {
            EventOutcome::Disconnected
        },
    }
}

proptest! {
    // Each case spawns real threads; keep the count bounded.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_writers_never_produce_torn_or_duplicate_events(
        writers in 1usize..8,
        per_writer in 1usize..64,
        capacity in 1usize..128,
    ) {
        let journal = Arc::new(QueryJournal::new(capacity));
        std::thread::scope(|s| {
            for w in 0..writers {
                let journal = Arc::clone(&journal);
                s.spawn(move || {
                    for i in 0..per_writer {
                        journal.record(event_for((w * per_writer + i) as u64));
                    }
                });
            }
        });
        let total = (writers * per_writer) as u64;
        prop_assert_eq!(journal.recorded(), total);

        // Quiescent now, so no slot can be mid-write: the dump returns
        // exactly min(total, capacity) events, each bit-identical to
        // the event its id derives, with no id appearing twice.
        let dump = journal.dump(usize::MAX);
        prop_assert_eq!(dump.len() as u64, total.min(capacity as u64));
        let mut seen = std::collections::HashSet::new();
        for e in &dump {
            prop_assert_eq!(*e, event_for(e.id), "torn event for id {}", e.id);
            prop_assert!(seen.insert(e.id), "id {} dumped twice", e.id);
        }
    }

    #[test]
    fn a_single_writer_dump_is_the_exact_oldest_first_tail(
        total in 1u64..256,
        capacity in 1usize..64,
        n in 0usize..80,
    ) {
        let journal = QueryJournal::new(capacity);
        for id in 0..total {
            journal.record(event_for(id));
        }
        let dump = journal.dump(n);
        let take = (n as u64).min(total).min(capacity as u64);
        let expected: Vec<u64> = (total - take..total).collect();
        let got: Vec<u64> = dump.iter().map(|e| e.id).collect();
        prop_assert_eq!(got, expected);
    }
}
