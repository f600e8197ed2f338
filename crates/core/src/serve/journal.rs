//! The serve flight recorder: a lock-free fixed-size ring journal of
//! per-query lifecycle events.
//!
//! Every answered (or disconnected) query deposits one [`QueryEvent`]
//! carrying its identity, its monotonic stage stamps and its result
//! checksum, so a live daemon can always explain its last N queries —
//! `GET /debug/queries?n=K` dumps the tail as NDJSON, and the
//! `--slow-query-ms` log renders the same event for outliers.
//!
//! Each slot is an independent seqlock: a writer claims a global
//! position with one `fetch_add`, flips the slot's sequence odd while
//! the payload words are stored, and flips it even (position-derived,
//! so each lap around the ring has a distinct generation) when done.
//! Readers re-check the sequence after copying and drop any slot that
//! changed under them — a dump never blocks writers and never yields a
//! torn event. The payload itself is a fixed array of relaxed atomic
//! words, so the protocol stays well-defined (and miri-clean) without
//! volatile reads.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use super::engine::QueryKind;

/// How a query left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// The result was delivered to the submitter.
    Answered,
    /// The submitter dropped its receiver mid-flight; the lane ran but
    /// the result was discarded.
    Disconnected,
}

impl EventOutcome {
    /// The NDJSON spelling.
    pub fn name(&self) -> &'static str {
        match self {
            EventOutcome::Answered => "ok",
            EventOutcome::Disconnected => "disconnected",
        }
    }
}

/// One query's lifecycle, stamped in microseconds since the journal's
/// epoch (the engine start). `enqueued ≤ started ≤ executed ≤ done`:
/// admission-queue wait, wave execution, then demux/write-back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEvent {
    /// Engine-assigned sequential query id.
    pub id: u64,
    /// The wave that answered this query.
    pub wave: u64,
    /// The bit lane this query rode within the wave (shared with every
    /// other query of the wave naming the same source).
    pub lane: u8,
    /// Distinct lanes the wave ran (at most `MAX_WAVE`).
    pub lanes: u8,
    /// How many queries shared the wave; riders of one lane all count,
    /// so this may exceed `lanes`.
    pub wave_size: u32,
    /// The algorithm run.
    pub kind: QueryKind,
    /// The graph epoch the wave executed against (bumps on every
    /// `update`/compact publish), so a dump can tell which snapshot of
    /// a mutating graph answered each query.
    pub epoch: u64,
    /// The source vertex.
    pub source: u32,
    /// Depth bound (k-hop only; 0 otherwise).
    pub depth: u32,
    /// Admission stamp, µs since the journal epoch.
    pub enqueued_us: u64,
    /// Wave launch stamp.
    pub started_us: u64,
    /// Kernel completion stamp: the wave's last round ended (the lane
    /// split after it is demux).
    pub executed_us: u64,
    /// Demux completion stamp (after the result send).
    pub done_us: u64,
    /// [`QueryValues::checksum`](super::QueryValues::checksum) of the
    /// per-vertex answer.
    pub checksum: u64,
    /// Delivered or discarded.
    pub outcome: EventOutcome,
}

impl QueryEvent {
    /// Admission-queue wait, µs.
    pub fn queue_us(&self) -> u64 {
        self.started_us.saturating_sub(self.enqueued_us)
    }

    /// Wave kernel execution, µs.
    pub fn exec_us(&self) -> u64 {
        self.executed_us.saturating_sub(self.started_us)
    }

    /// Demux / write-back, µs.
    pub fn demux_us(&self) -> u64 {
        self.done_us.saturating_sub(self.executed_us)
    }

    /// End-to-end admission-to-demux, µs.
    pub fn total_us(&self) -> u64 {
        self.done_us.saturating_sub(self.enqueued_us)
    }

    /// Renders the event as one NDJSON line (no trailing newline). The
    /// checksum is hex-quoted because u64 overflows JSON's exact
    /// integer range.
    pub fn to_ndjson(&self) -> String {
        format!(
            concat!(
                r#"{{"id":{},"kind":"{}","source":{},"depth":{},"wave":{},"lane":{},"#,
                r#""lanes":{},"wave_size":{},"epoch":{},"enqueued_us":{},"queue_us":{},"exec_us":{},"#,
                r#""demux_us":{},"total_us":{},"checksum":"{:#018x}","outcome":"{}"}}"#
            ),
            self.id,
            self.kind.name(),
            self.source,
            self.depth,
            self.wave,
            self.lane,
            self.lanes,
            self.wave_size,
            self.epoch,
            self.enqueued_us,
            self.queue_us(),
            self.exec_us(),
            self.demux_us(),
            self.total_us(),
            self.checksum,
            self.outcome.name(),
        )
    }
}

/// Payload words per slot (see [`encode`]).
const WORDS: usize = 10;

fn encode(e: &QueryEvent) -> [u64; WORDS] {
    let kind = match e.kind {
        QueryKind::Bfs => 0u64,
        QueryKind::Sssp => 1,
        QueryKind::KHop => 2,
    };
    let outcome = match e.outcome {
        EventOutcome::Answered => 0u64,
        EventOutcome::Disconnected => 1,
    };
    [
        e.id,
        e.wave,
        u64::from(e.lane)
            | (u64::from(e.lanes) << 8)
            | (kind << 16)
            | (outcome << 24)
            | (u64::from(e.wave_size) << 32),
        u64::from(e.source) | (u64::from(e.depth) << 32),
        e.enqueued_us,
        e.started_us,
        e.executed_us,
        e.done_us,
        e.checksum,
        e.epoch,
    ]
}

fn decode(w: [u64; WORDS]) -> QueryEvent {
    QueryEvent {
        id: w[0],
        wave: w[1],
        lane: (w[2] & 0xff) as u8,
        lanes: ((w[2] >> 8) & 0xff) as u8,
        wave_size: (w[2] >> 32) as u32,
        kind: match (w[2] >> 16) & 0xff {
            1 => QueryKind::Sssp,
            2 => QueryKind::KHop,
            _ => QueryKind::Bfs,
        },
        source: (w[3] & 0xffff_ffff) as u32,
        depth: (w[3] >> 32) as u32,
        enqueued_us: w[4],
        started_us: w[5],
        executed_us: w[6],
        done_us: w[7],
        checksum: w[8],
        epoch: w[9],
        outcome: if (w[2] >> 24) & 0xff == 0 {
            EventOutcome::Answered
        } else {
            EventOutcome::Disconnected
        },
    }
}

/// One seqlock-protected ring slot. `seq` for global position `p` in a
/// ring of capacity `c` moves `2·(p/c) → 2·(p/c)+1` (writing) →
/// `2·(p/c)+2` (complete), so every lap has a distinct even value and a
/// reader can tell "my position" from "already overwritten".
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The fixed-size lock-free ring journal. Writers never block readers
/// and vice versa; capacity 0 disables recording entirely (used by the
/// overhead-measurement mode of `exp_serve_latency`).
pub struct QueryJournal {
    epoch: Instant,
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl std::fmt::Debug for QueryJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryJournal")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl QueryJournal {
    /// A journal holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Whether recording is on (capacity > 0).
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Microseconds from the journal epoch to `t` (0 for stamps that
    /// predate the epoch, which cannot happen for engine-issued stamps).
    pub fn micros_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Total events ever recorded (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Deposits one event, overwriting the oldest once the ring is
    /// full. Lock-free: claiming a position is one `fetch_add`; the
    /// only wait is the (lap-collision) spin for a previous tenant of
    /// the same slot to finish its store.
    pub fn record(&self, event: QueryEvent) {
        if self.slots.is_empty() {
            return;
        }
        let cap = self.slots.len() as u64;
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos % cap) as usize];
        let generation = pos / cap;
        let writing = generation * 2 + 1;
        while slot
            .seq
            .compare_exchange_weak(
                generation * 2,
                writing,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            std::hint::spin_loop();
        }
        for (word, value) in slot.words.iter().zip(encode(&event)) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(generation * 2 + 2, Ordering::Release);
    }

    /// The most recent `n` events, oldest first. Slots that were
    /// mid-overwrite during the walk are skipped rather than returned
    /// torn, so a dump racing heavy traffic may return fewer events
    /// than asked.
    pub fn dump(&self, n: usize) -> Vec<QueryEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        if cap == 0 || head == 0 {
            return Vec::new();
        }
        let take = (n as u64).min(head).min(cap);
        let mut out = Vec::with_capacity(take as usize);
        for pos in (head - take)..head {
            let slot = &self.slots[(pos % cap) as usize];
            let complete = (pos / cap) * 2 + 2;
            if slot.seq.load(Ordering::Acquire) != complete {
                continue;
            }
            let words: [u64; WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Promote the relaxed payload loads to acquire before the
            // re-check, the seqlock reader protocol.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != complete {
                continue;
            }
            out.push(decode(words));
        }
        out
    }

    /// [`Self::dump`] rendered as NDJSON, one event per line, oldest
    /// first, with a trailing newline when non-empty.
    pub fn dump_ndjson(&self, n: usize) -> String {
        let mut out = String::new();
        for event in self.dump(n) {
            out.push_str(&event.to_ndjson());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64) -> QueryEvent {
        QueryEvent {
            id,
            wave: id / 4,
            lane: (id % 4) as u8,
            lanes: 4,
            wave_size: 4,
            kind: QueryKind::Bfs,
            epoch: 1 + id % 3,
            source: id as u32,
            depth: 0,
            enqueued_us: id * 10,
            started_us: id * 10 + 3,
            executed_us: id * 10 + 7,
            done_us: id * 10 + 8,
            checksum: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            outcome: EventOutcome::Answered,
        }
    }

    #[test]
    fn roundtrips_through_the_packed_words() {
        let e = QueryEvent {
            kind: QueryKind::KHop,
            depth: 3,
            outcome: EventOutcome::Disconnected,
            ..event(77)
        };
        assert_eq!(decode(encode(&e)), e);
        // A coalesced wave carries far more riders than lanes; neither
        // field may bleed into its word-2 neighbours.
        let wide = QueryEvent {
            lane: 63,
            lanes: 64,
            wave_size: u32::MAX,
            ..e
        };
        assert_eq!(decode(encode(&wide)), wide);
    }

    #[test]
    fn dump_returns_the_tail_oldest_first() {
        let j = QueryJournal::new(8);
        for id in 0..5 {
            j.record(event(id));
        }
        let tail = j.dump(3);
        assert_eq!(tail.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(j.recorded(), 5);
    }

    #[test]
    fn wrap_around_keeps_only_the_most_recent_capacity_events() {
        let j = QueryJournal::new(4);
        for id in 0..11 {
            j.record(event(id));
        }
        let all = j.dump(usize::MAX);
        assert_eq!(
            all.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let j = QueryJournal::new(0);
        assert!(!j.enabled());
        j.record(event(1));
        assert!(j.dump(10).is_empty());
        assert_eq!(j.dump_ndjson(10), "");
    }

    #[test]
    fn ndjson_lines_carry_the_stage_durations() {
        let j = QueryJournal::new(2);
        j.record(event(5));
        let dump = j.dump_ndjson(1);
        assert!(dump.ends_with('\n'));
        let line = dump.trim_end();
        assert!(line.starts_with(r#"{"id":5,"kind":"bfs""#), "{line}");
        assert!(line.contains(r#""queue_us":3"#), "{line}");
        assert!(line.contains(r#""exec_us":4"#), "{line}");
        assert!(line.contains(r#""demux_us":1"#), "{line}");
        assert!(line.contains(r#""lanes":4,"wave_size":4"#), "{line}");
        assert!(line.contains(r#""epoch":3"#), "{line}");
        assert!(line.contains(r#""outcome":"ok""#), "{line}");
    }

    #[test]
    fn stage_durations_saturate_rather_than_underflow() {
        let e = QueryEvent {
            started_us: 0,
            enqueued_us: 10,
            ..event(1)
        };
        assert_eq!(e.queue_us(), 0);
    }
}
