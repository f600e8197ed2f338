//! Memory-access replay of the three adjacency-list construction
//! techniques, used to reproduce Table 2's "LLC misses" column.
//!
//! Each function drives the LLC simulator with the exact address
//! stream the corresponding builder issues — sequential input scans,
//! per-vertex scattered appends (dynamic), random counter increments
//! and offset scatters (count sort), or the radix partition's passes
//! (sequential bucket streams through a cache-resident cursor row). The paper's explanation (§3.3) is that radix sort
//! wins *because* of this difference, so the replay makes the
//! explanation measurable.

use egraph_cachesim::probe::regions;
use egraph_cachesim::{AccessKind, MemProbe};
use egraph_core::types::EdgeRecord;

/// Replays the dynamic per-vertex building pass: a sequential input
/// scan plus one append (and occasional reallocation copy) per edge
/// into per-vertex arrays scattered over the heap.
pub fn trace_dynamic<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    let esize = std::mem::size_of::<E>() as u64;
    let mut lens = vec![0u32; nv];
    let heap_base = |v: u32| -> u64 {
        // Per-vertex arrays live at hashed heap locations.
        regions::DST_META + (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 36)
    };
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        let v = e.src();
        let len = lens[v as usize];
        // Read the vertex's length/capacity header, then append.
        probe.touch(AccessKind::SrcMeta, regions::SRC_META + v as u64 * 16);
        probe.touch(AccessKind::DstMeta, heap_base(v) + len as u64 * esize);
        // Reallocation: growing past a power of two copies the array
        // to a fresh location ("32 million reallocations for an
        // RMAT26 graph").
        if len > 0 && len.is_power_of_two() {
            let new_base = heap_base(v) ^ ((len as u64) << 20);
            for k in 0..len as u64 {
                probe.touch(AccessKind::DstMeta, heap_base(v) + k * esize);
                probe.touch(AccessKind::DstMeta, new_base + k * esize);
            }
        }
        lens[v as usize] = len + 1;
    }
}

/// Replays count sort: a counting pass with random per-vertex counter
/// increments, a sequential prefix pass, and a scatter pass whose
/// writes "jump between distant positions in the array".
pub fn trace_count_sort<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    let esize = std::mem::size_of::<E>() as u64;
    // Pass 1: count degrees.
    let mut counts = vec![0u64; nv + 1];
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        probe.touch(AccessKind::SrcMeta, regions::INDEX + e.src() as u64 * 8);
        counts[e.src() as usize] += 1;
    }
    // Prefix sum: sequential scan of the counter array.
    let mut run = 0u64;
    for (v, c) in counts.iter_mut().enumerate() {
        probe.touch(AccessKind::SrcMeta, regions::INDEX + v as u64 * 8);
        let cur = *c;
        *c = run;
        run += cur;
    }
    // Pass 2: scatter each edge to its final offset.
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        let v = e.src() as usize;
        probe.touch(AccessKind::SrcMeta, regions::INDEX + v as u64 * 8);
        let pos = counts[v];
        counts[v] += 1;
        probe.touch(AccessKind::DstMeta, regions::DST_META + pos * esize);
    }
}

/// Replays the radix partition the builders run
/// (`egraph_sort::radix_partition_by_key`, one worker's view), level by
/// level with the kernel's own [`egraph_sort::digit_plan`]: level 1
/// reads the input twice (histogram, scatter) and writes one sequential
/// stream per bucket into the output; every later level takes one
/// bucket of the output at a time — copy it to the staging buffer,
/// histogram the copy, scatter it back over the bucket's own range.
/// The cursor row and the staging buffer are reused by every bucket, so
/// they stay cache-resident; that, and the sequential streams, is the
/// locality that makes radix the fastest builder (Table 2).
pub fn trace_radix_sort<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    /// The staging buffer, apart from the cursor row at `SRC_META`.
    const STAGE: u64 = regions::SRC_META + (1 << 32);
    let esize = std::mem::size_of::<E>() as u64;
    let plan = egraph_sort::digit_plan(egraph_sort::key_bits(nv));
    let mut keys: Vec<u32> = edges.iter().map(|e| e.src()).collect();
    let mut bounds = vec![0usize, keys.len()];
    let mut shift: u32 = plan.iter().sum();
    for (level, &bits) in plan.iter().enumerate() {
        shift -= bits;
        let digit = |key: u32| ((key >> shift) & ((1 << bits) - 1)) as usize;
        let cursor_at = |d: usize| regions::SRC_META + d as u64 * 8;
        let out_at = |k: usize| regions::DST_META + k as u64 * esize;
        // Level 1 reads the input, later levels the staged bucket.
        let src_at = |k: usize| match level {
            0 => regions::EDGES + k as u64 * esize,
            _ => STAGE + k as u64 * esize,
        };
        let mut partitioned = keys.clone();
        let mut next = vec![0usize];
        for range in bounds.windows(2) {
            let (lo, bucket) = (range[0], &keys[range[0]..range[1]]);
            if level > 0 {
                for k in 0..bucket.len() {
                    probe.touch(AccessKind::Edge, out_at(lo + k));
                    probe.touch(AccessKind::Edge, src_at(k));
                }
            }
            let mut cursors = vec![0usize; 1 << bits];
            for (k, &key) in bucket.iter().enumerate() {
                probe.touch(AccessKind::Edge, src_at(k));
                probe.touch(AccessKind::SrcMeta, cursor_at(digit(key)));
                cursors[digit(key)] += 1;
            }
            let mut start = lo;
            for (d, cursor) in cursors.iter_mut().enumerate() {
                probe.touch(AccessKind::SrcMeta, cursor_at(d));
                start += std::mem::replace(cursor, start);
                next.push(start);
            }
            for (k, &key) in bucket.iter().enumerate() {
                probe.touch(AccessKind::Edge, src_at(k));
                probe.touch(AccessKind::SrcMeta, cursor_at(digit(key)));
                probe.touch(AccessKind::DstMeta, out_at(cursors[digit(key)]));
                partitioned[cursors[digit(key)]] = key;
                cursors[digit(key)] += 1;
            }
        }
        keys = partitioned;
        bounds = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc;
    use egraph_core::types::Edge;

    fn skewed_edges(nv: usize, ne: usize) -> Vec<Edge> {
        let mut state = 11u64;
        (0..ne)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Square the uniform sample for mild skew.
                let r = ((state >> 33) as f64 / (1u64 << 31) as f64).powi(2);
                let src = (r * nv as f64) as u32 % nv as u32;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dst = ((state >> 33) % nv as u64) as u32;
                Edge::new(src, dst)
            })
            .collect()
    }

    #[test]
    fn radix_has_lowest_miss_ratio() {
        // The Table 2 ordering: radix << count, radix << dynamic.
        let nv = 1 << 14;
        let edges = skewed_edges(nv, 1 << 18);
        let ratios: Vec<f64> = [
            trace_dynamic::<Edge, egraph_cachesim::HierarchyProbe>
                as fn(&[Edge], usize, &egraph_cachesim::HierarchyProbe),
            trace_count_sort::<Edge, egraph_cachesim::HierarchyProbe>,
            trace_radix_sort::<Edge, egraph_cachesim::HierarchyProbe>,
        ]
        .iter()
        .map(|f| {
            let probe = llc::probe_for(nv, 8);
            f(&edges, nv, &probe);
            probe.report().overall_miss_ratio()
        })
        .collect();
        let (dynamic, count, radix) = (ratios[0], ratios[1], ratios[2]);
        assert!(radix < 0.6 * dynamic, "radix {radix} vs dynamic {dynamic}");
        assert!(radix < 0.6 * count, "radix {radix} vs count {count}");
    }
}
