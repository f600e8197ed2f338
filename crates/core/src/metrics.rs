//! End-to-end time accounting.
//!
//! "Graph processing involves loading the graph as an edge array from
//! storage, pre-processing the input to construct the necessary data
//! structures, executing the actual graph algorithm, and storing the
//! results. Most papers focus solely on the algorithm phase, but we
//! demonstrate that there is an important trade-off between
//! pre-processing time and algorithm execution time." (§1)

use std::time::Instant;

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The end-to-end breakdown of one graph-processing run, matching the
/// stacked bars of the paper's figures: the summary a run prints. A
/// trace records the same phases as its
/// [`PhaseProfile`](crate::telemetry::PhaseProfile)s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds loading the edge array from storage (0 when the input is
    /// already in memory).
    pub load: f64,
    /// Seconds building the data layout (0 for edge arrays).
    pub preprocess: f64,
    /// Seconds executing the algorithm itself.
    pub algorithm: f64,
    /// Seconds storing the results (0 when results stay in memory).
    pub store: f64,
}

impl TimeBreakdown {
    /// The end-to-end time.
    pub fn total(&self) -> f64 {
        self.load + self.preprocess + self.algorithm + self.store
    }

    /// A breakdown with only an algorithm component (edge-array runs on
    /// in-memory inputs).
    pub fn algorithm_only(algorithm: f64) -> Self {
        Self {
            algorithm,
            ..Self::default()
        }
    }
}

/// Timing of one iteration (computation step) of a frontier algorithm,
/// used by the per-iteration analysis of Fig. 6 — and the record a
/// trace keeps of the step
/// ([`TraceIteration`](crate::telemetry::TraceIteration)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStat {
    /// Active vertices at the start of the step.
    pub frontier_size: usize,
    /// Out-edges examined during the step (0 when not tracked).
    pub edges_scanned: usize,
    /// Wall-clock seconds of the step.
    pub seconds: f64,
    /// Whether the step pushed or pulled.
    pub mode: StepMode,
    /// Measured frontier density: the Ligra-style load estimate
    /// (frontier out-edges + frontier vertices) as a fraction of |E|.
    pub density: f64,
    /// The structured record of how `mode` was chosen.
    pub decision: DirectionDecision,
}

impl IterStat {
    /// A fixed-direction step that streams all `num_edges` edges
    /// whatever the `frontier_size` (edge-centric and grid rounds, and
    /// the all-active passes of PageRank/SpMV/ALS): the observed load
    /// is the edge array plus the active vertices.
    pub fn full_scan(frontier_size: usize, num_edges: usize, seconds: f64, mode: StepMode) -> Self {
        let observed = num_edges + frontier_size;
        Self {
            frontier_size,
            edges_scanned: num_edges,
            seconds,
            mode,
            density: frontier_density(observed, num_edges),
            decision: DirectionDecision::forced(observed, direction_cutoff(num_edges)),
        }
    }
}

/// The structured direction-decision log of one step: the Ligra-style
/// threshold comparison (Beamer's heuristic as adopted by Ligra \[29\])
/// that picked push or pull, kept per iteration so traces can replay
/// *why* a kernel switched, not just *that* it did.
///
/// The comparison is `observed > cutoff` → pull. Kernels with a fixed
/// direction (pure push, pure pull, edge-centric, grid) still fill in
/// both sides but set `forced`, so an offline reader can tell "the
/// heuristic chose this" from "the variant had no choice".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionDecision {
    /// The observed load estimate: frontier out-edges + frontier
    /// vertices (Ligra's `m_f + n_f`).
    pub observed: usize,
    /// The switch cutoff the estimate was compared against
    /// (`|E| / 20`, floored at 1).
    pub cutoff: usize,
    /// `true` when the variant's direction is fixed and the comparison
    /// is informational only.
    pub forced: bool,
}

impl DirectionDecision {
    /// A decision made by the direction-optimizing heuristic.
    pub fn heuristic(observed: usize, cutoff: usize) -> Self {
        Self {
            observed,
            cutoff,
            forced: false,
        }
    }

    /// A fixed-direction step: the comparison is recorded but did not
    /// choose anything.
    pub fn forced(observed: usize, cutoff: usize) -> Self {
        Self {
            observed,
            cutoff,
            forced: true,
        }
    }

    /// The repair-vs-recompute comparison of an incremental engine,
    /// logged in the same shape: a batch of `batch_len` ops against
    /// `fallback_fraction` of the merged edge count (floored at 1).
    ///
    /// Deliberately a separate constructor from [`heuristic`](Self::heuristic):
    /// no push/pull direction is chosen here (the record's mode is
    /// always push), the cutoff is the fallback fraction rather than
    /// `|E| / 20`, and exceeding it means "recomputed from scratch".
    /// Keeping the names apart lets `scripts/lint.sh` hold `heuristic`
    /// to the one frontier driver.
    pub fn repair(batch_len: usize, num_edges: usize, fallback_fraction: f64) -> Self {
        Self {
            observed: batch_len,
            cutoff: ((num_edges as f64 * fallback_fraction) as usize).max(1),
            forced: false,
        }
    }

    /// What the Ligra comparison says: pull when the observed load
    /// exceeds the cutoff.
    pub fn says_pull(&self) -> bool {
        self.observed > self.cutoff
    }
}

impl Default for DirectionDecision {
    fn default() -> Self {
        Self::forced(0, 0)
    }
}

/// The Ligra-style switch cutoff for a graph with `num_edges` edges:
/// `|E| / 20`, floored at 1 (Beamer's push→pull threshold).
pub fn direction_cutoff(num_edges: usize) -> usize {
    (num_edges / 20).max(1)
}

/// The measured density backing a [`DirectionDecision`]: the observed
/// load estimate as a fraction of |E| (so the pull cutoff sits at
/// 1/20 = 0.05).
pub fn frontier_density(observed: usize, num_edges: usize) -> f64 {
    observed as f64 / num_edges.max(1) as f64
}

/// The information-flow directions of the study: a variant's fixed
/// direction, and the policy value the frontier driver
/// (`engine::edge_map`) takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sources scatter to destinations.
    Push,
    /// Destinations gather from sources.
    Pull,
    /// Direction-optimizing hybrid (Beamer's heuristic).
    PushPull,
}

impl Direction {
    /// All directions, in report order.
    pub const ALL: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::PushPull];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
            Direction::PushPull => "push-pull",
        }
    }
}

/// How push variants synchronize concurrent writes to a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncMode {
    /// The default; per kernel: CAS claims for the traversals (BFS's
    /// parent claim, SSSP's `fetch_min`, union-find's hook), per-worker
    /// stripes summed after the round for all-active push (PageRank,
    /// SpMV) on layouts that do not own their destinations, and column
    /// ownership with plain writes on the grid (DESIGN.md §3.4, §9).
    #[default]
    Atomics,
    /// Per-vertex striped locks.
    Locks,
}

impl SyncMode {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SyncMode::Atomics => "atomics",
            SyncMode::Locks => "locks",
        }
    }
}

/// Information-flow direction of one computation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Active vertices wrote their out-neighbors.
    Push,
    /// Vertices read their in-neighbors.
    Pull,
}

impl StepMode {
    /// The canonical lower-case name used in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            StepMode::Push => "push",
            StepMode::Pull => "pull",
        }
    }

    /// Parses the canonical name back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "push" => Some(StepMode::Push),
            "pull" => Some(StepMode::Pull),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let b = TimeBreakdown {
            load: 1.0,
            preprocess: 2.0,
            algorithm: 3.0,
            store: 0.25,
        };
        assert!((b.total() - 6.25).abs() < 1e-12);
    }

    #[test]
    fn algorithm_only_zeroes_rest() {
        let b = TimeBreakdown::algorithm_only(2.0);
        assert_eq!(b.load, 0.0);
        assert_eq!(b.preprocess, 0.0);
        assert_eq!(b.total(), 2.0);
    }

    #[test]
    fn timed_measures_and_returns() {
        let (value, secs) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn direction_cutoff_matches_the_ligra_divisor() {
        assert_eq!(direction_cutoff(2000), 100);
        assert_eq!(direction_cutoff(19), 1, "floored at 1");
        assert_eq!(direction_cutoff(0), 1);
    }

    #[test]
    fn decision_comparison_is_strict() {
        let d = DirectionDecision::heuristic(100, 100);
        assert!(!d.says_pull(), "equal load stays push");
        assert!(DirectionDecision::heuristic(101, 100).says_pull());
        assert!(DirectionDecision::forced(101, 100).forced);
    }

    #[test]
    fn density_is_the_load_fraction() {
        assert!((frontier_density(100, 2000) - 0.05).abs() < 1e-12);
        assert_eq!(
            frontier_density(5, 0),
            5.0,
            "empty graph never divides by zero"
        );
    }
}
