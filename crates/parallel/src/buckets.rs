//! A bounded bucket queue: Julienne's open-bucket window plus overflow.
//!
//! Bucketing algorithms (delta-stepping SSSP, k-core, weighted BFS)
//! process identifiers in increasing bucket order while relaxations
//! keep moving identifiers to lower buckets. Bucket indices are
//! unbounded — `floor(dist / delta)` over weights spanning twelve
//! orders of magnitude is a 40-bit number — so a `Vec` of buckets
//! indexed by them is an allocation proportional to the *value range*.
//! [`BucketQueue`] instead keeps a fixed window of [`WINDOW`] open
//! buckets starting at the lowest bucket that can still hold members,
//! and one overflow bucket for everything beyond it; when the window
//! drains, the overflow is re-binned into a new window that starts at
//! its lowest live bucket. Memory is `O(identifiers + WINDOW)` whatever
//! the indices are.
//!
//! Moves are lazy: [`insert`](BucketQueue::insert) records the
//! identifier's current bucket and appends it to that bucket's list,
//! leaving the copy in the old bucket behind; a copy whose bucket no
//! longer matches is dropped when its list is popped. An identifier is
//! therefore handed out at most once per insertion, and never from a
//! bucket it has left.
//!
//! The queue is a serial structure: callers fill it between parallel
//! rounds, in a fixed order, so what it hands back does not depend on
//! the thread count.

/// Number of open buckets (Julienne's default).
pub const WINDOW: usize = 128;

/// `slot` value of an identifier that is in no bucket.
const NONE: u64 = u64::MAX;

/// A priority queue of `u32` identifiers keyed by `u64` bucket index,
/// popped a whole bucket at a time, lowest first.
#[derive(Debug)]
pub struct BucketQueue {
    /// The bucket each identifier currently lives in, or [`NONE`].
    slot: Vec<u64>,
    /// The open window: `open[i]` lists bucket `base + i`.
    open: Vec<Vec<u32>>,
    /// Identifiers whose bucket lies at or beyond `base + WINDOW`.
    overflow: Vec<u32>,
    /// Bucket index of `open[0]`.
    base: u64,
    /// Window index of the lowest bucket that may still hold members;
    /// buckets below it are closed.
    cursor: usize,
    /// The bucket the last pop drained.
    last_popped: Option<u64>,
    opened: u64,
    rebinned: u64,
}

impl BucketQueue {
    /// An empty queue over identifiers `0..num_ids`.
    pub fn new(num_ids: usize) -> Self {
        Self {
            slot: vec![NONE; num_ids],
            open: vec![Vec::new(); WINDOW],
            overflow: Vec::new(),
            base: 0,
            cursor: 0,
            last_popped: None,
            opened: 0,
            rebinned: 0,
        }
    }

    /// Puts `id` in `bucket`, moving it there if it sits in another
    /// one. A bucket below the lowest one still open is served by that
    /// one (bucketing algorithms only ever move identifiers at or after
    /// the bucket being processed; the clamp keeps a caller that does
    /// not from indexing a closed bucket).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the `num_ids` the queue was built
    /// with.
    pub fn insert(&mut self, id: u32, bucket: u64) {
        let floor = (self.base + self.cursor as u64).min(NONE - 1);
        let bucket = bucket.clamp(floor, NONE - 1);
        let previous = std::mem::replace(&mut self.slot[id as usize], bucket);
        if previous == bucket {
            return;
        }
        let end = self.window_end();
        if bucket < end {
            self.open[(bucket - self.base) as usize].push(id);
        } else if previous == NONE || previous < end {
            // Already listed in the overflow otherwise: the re-bin
            // reads the bucket from `slot`.
            self.overflow.push(id);
        }
    }

    /// Removes and returns the lowest non-empty bucket: its index and
    /// its members, in insertion order. The bucket stays open, so
    /// members re-inserted into it are handed out by the next pop.
    pub fn pop_lowest(&mut self) -> Option<(u64, Vec<u32>)> {
        loop {
            while self.cursor < WINDOW {
                let bucket = self.base + self.cursor as u64;
                let mut members = std::mem::take(&mut self.open[self.cursor]);
                let slot = &mut self.slot;
                members.retain(|&id| {
                    let live = slot[id as usize] == bucket;
                    if live {
                        slot[id as usize] = NONE;
                    }
                    live
                });
                if members.is_empty() {
                    self.cursor += 1;
                    continue;
                }
                if self.last_popped != Some(bucket) {
                    self.last_popped = Some(bucket);
                    self.opened += 1;
                }
                return Some((bucket, members));
            }
            if !self.rebin() {
                return None;
            }
        }
    }

    /// Distinct buckets popped so far.
    pub fn buckets_opened(&self) -> u64 {
        self.opened
    }

    /// Identifiers moved out of the overflow bucket so far.
    pub fn rebinned(&self) -> u64 {
        self.rebinned
    }

    /// One past the last open bucket; `rebin` keeps it from wrapping.
    fn window_end(&self) -> u64 {
        self.base + WINDOW as u64
    }

    /// Opens a new window at the overflow's lowest live bucket and
    /// distributes the overflow over it; `false` when nothing is left.
    fn rebin(&mut self) -> bool {
        let end = self.window_end();
        let mut pending = std::mem::take(&mut self.overflow);
        // An identifier that left the overflow and came back is listed
        // twice.
        pending.sort_unstable();
        pending.dedup();
        pending.retain(|&id| {
            let bucket = self.slot[id as usize];
            bucket != NONE && bucket >= end
        });
        let Some(lowest) = pending.iter().map(|&id| self.slot[id as usize]).min() else {
            return false;
        };
        // The window must fit below `NONE`.
        let base = lowest.min(NONE - WINDOW as u64);
        self.base = base;
        self.cursor = 0;
        let end = self.window_end();
        for id in pending {
            let bucket = self.slot[id as usize];
            if bucket < end {
                self.open[(bucket - base) as usize].push(id);
                self.rebinned += 1;
            } else {
                self.overflow.push(id);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(queue: &mut BucketQueue) -> Vec<(u64, Vec<u32>)> {
        std::iter::from_fn(|| queue.pop_lowest()).collect()
    }

    #[test]
    fn pops_buckets_in_increasing_order() {
        let mut q = BucketQueue::new(8);
        for (id, bucket) in [(0, 5), (1, 2), (2, 5), (3, 0)] {
            q.insert(id, bucket);
        }
        assert_eq!(
            drain(&mut q),
            vec![(0, vec![3]), (2, vec![1]), (5, vec![0, 2])]
        );
        assert_eq!(q.buckets_opened(), 3);
        assert_eq!(q.rebinned(), 0);
    }

    #[test]
    fn a_moved_identifier_is_handed_out_once_from_its_new_bucket() {
        let mut q = BucketQueue::new(4);
        q.insert(0, 9);
        q.insert(1, 9);
        q.insert(0, 3);
        q.insert(0, 3);
        assert_eq!(drain(&mut q), vec![(3, vec![0]), (9, vec![1])]);
    }

    #[test]
    fn the_popped_bucket_stays_open_for_reinsertion() {
        let mut q = BucketQueue::new(4);
        q.insert(0, 1);
        assert_eq!(q.pop_lowest(), Some((1, vec![0])));
        q.insert(0, 1);
        q.insert(2, 1);
        assert_eq!(q.pop_lowest(), Some((1, vec![0, 2])));
        assert_eq!(q.buckets_opened(), 1, "one bucket, drained twice");
        // A closed bucket is served by the lowest open one.
        q.insert(3, 0);
        assert_eq!(q.pop_lowest(), Some((1, vec![3])));
        assert_eq!(q.pop_lowest(), None);
    }

    #[test]
    fn far_buckets_wait_in_the_overflow_and_are_rebinned() {
        let mut q = BucketQueue::new(6);
        let far = 1u64 << 40;
        q.insert(0, 1);
        q.insert(1, far + 3);
        q.insert(2, far);
        q.insert(3, u64::MAX);
        // Leaves the overflow for the open window, then is popped.
        q.insert(4, far + 9);
        q.insert(4, 2);
        // Moves within the overflow: listed once.
        q.insert(5, far + 900);
        q.insert(5, far + 500);
        assert_eq!(
            drain(&mut q),
            vec![
                (1, vec![0]),
                (2, vec![4]),
                (far, vec![2]),
                (far + 3, vec![1]),
                (far + 500, vec![5]),
                (u64::MAX - 1, vec![3]),
            ]
        );
        assert_eq!(q.rebinned(), 4);
        assert!(q.open.iter().all(Vec::is_empty) && q.overflow.is_empty());
    }

    #[test]
    fn matches_a_sorted_map_under_random_monotone_moves() {
        // Every identifier starts somewhere and only ever moves down,
        // never below the bucket being drained — the delta-stepping
        // discipline. The queue must hand out exactly what a BTreeMap
        // of the current buckets would.
        let n = 500u32;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = BucketQueue::new(n as usize);
        let mut bucket_of = vec![0u64; n as usize];
        for id in 0..n {
            bucket_of[id as usize] = next() % 5000;
            q.insert(id, bucket_of[id as usize]);
        }
        let mut pending: Vec<bool> = vec![true; n as usize];
        while let Some((bucket, members)) = q.pop_lowest() {
            let mut expected: Vec<u32> = (0..n)
                .filter(|&id| pending[id as usize] && bucket_of[id as usize] == bucket)
                .collect();
            let lowest = (0..n)
                .filter(|&id| pending[id as usize])
                .map(|id| bucket_of[id as usize])
                .min();
            assert_eq!(Some(bucket), lowest);
            let mut got = members.clone();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "bucket {bucket}");
            for id in members {
                pending[id as usize] = false;
            }
            // Move a few pending identifiers down, not below `bucket`.
            for _ in 0..3 {
                let id = (next() % u64::from(n)) as usize;
                if pending[id] && bucket_of[id] > bucket {
                    bucket_of[id] = bucket + next() % (bucket_of[id] - bucket);
                    q.insert(id as u32, bucket_of[id]);
                }
            }
        }
        assert!(pending.iter().all(|p| !p));
    }
}
