//! Medians, the percentile rule and a least-squares slope — everything
//! the harness reduces raw samples with.

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median (mean of the two middle samples for even counts);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile reported under the "at least ten samples beyond it"
/// rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at `effective`.
    pub value: f64,
    /// The percentile actually reported: the requested one, or the
    /// highest one that still has [`MIN_BEYOND`] samples beyond it.
    pub effective: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank percentile `want` (in `0..=1`) of `xs`, falling
/// back to the highest percentile with at least [`MIN_BEYOND`] samples
/// beyond it; with too few samples for even that, the median.
pub fn percentile(xs: &[f64], want: f64) -> Percentile {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            effective: 0.0,
            samples: 0,
        };
    }
    let wanted_idx = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    // At or below the median the rule is moot: the bulk lies beyond.
    if want <= 0.5 || n - 1 - wanted_idx >= MIN_BEYOND {
        return Percentile {
            value: v[wanted_idx],
            effective: want,
            samples: n,
        };
    }
    let median_idx = n.div_ceil(2) - 1;
    let idx = if n > MIN_BEYOND {
        (n - 1 - MIN_BEYOND).max(median_idx)
    } else {
        median_idx
    };
    Percentile {
        value: v[idx],
        effective: (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Fewest samples in a window: twice what its p95 needs to stand under
/// the rule, so the window's own estimate is not mostly noise.
const WINDOW_SAMPLES: usize = 40 * MIN_BEYOND;

/// Most windows a step is cut into: enough for the median to discard
/// one bad window, few enough that each keeps a usable sample.
const MAX_WINDOWS: usize = 3;

/// A percentile of a time-ordered series taken per window and reduced
/// by the median over windows: the series is cut into up to
/// [`MAX_WINDOWS`] consecutive windows of at least [`WINDOW_SAMPLES`]
/// samples, each window reports its own percentile under the rule, and
/// the median window is the step's value. One stall of the machine then
/// spoils one window instead of the whole step's tail. `samples` counts
/// the whole series; `effective` is the lowest any window fell back to.
pub fn windowed_percentile(series: &[f64], want: f64) -> Percentile {
    let windows = (series.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let size = series.len().div_ceil(windows).max(1);
    let per_window: Vec<Percentile> = series.chunks(size).map(|w| percentile(w, want)).collect();
    let values: Vec<f64> = per_window.iter().map(|p| p.value).collect();
    Percentile {
        value: median(&values),
        effective: per_window.iter().map(|p| p.effective).fold(want, f64::min),
        samples: series.len(),
    }
}

/// Least-squares slope of `y` over `x`; `0.0` when undetermined.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 400 samples: p95 is rank 380, 20 samples beyond — reported as asked.
        let p = percentile(&ramp(400), 0.95);
        assert_eq!((p.value, p.effective, p.samples), (380.0, 0.95, 400));
        // 200 samples: rank 190 has exactly ten beyond — still p95.
        let p = percentile(&ramp(200), 0.95);
        assert_eq!((p.value, p.effective), (190.0, 0.95));
        // 100 samples: p95 would have 5 beyond; fall back to rank 90 = p90.
        let p = percentile(&ramp(100), 0.95);
        assert_eq!((p.value, p.effective, p.samples), (90.0, 0.90, 100));
        // 40 samples: rank 30 = p75.
        let p = percentile(&ramp(40), 0.95);
        assert_eq!((p.value, p.effective), (30.0, 0.75));
        // 12 samples: ten beyond would be below the median; report the median.
        let p = percentile(&ramp(12), 0.95);
        assert_eq!((p.value, p.effective), (6.0, 0.5));
        // The median itself is never subject to the rule.
        let p = percentile(&ramp(5), 0.5);
        assert_eq!((p.value, p.effective, p.samples), (3.0, 0.5, 5));
        assert_eq!(percentile(&[], 0.95).samples, 0);
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_bad_window() {
        // 1200 samples of 1.0 with a stall of 100.0 over samples 500..600:
        // the pooled p95 lands in the stall, the windowed one does not.
        let mut series = vec![1.0; 1200];
        for x in &mut series[500..600] {
            *x = 100.0;
        }
        assert_eq!(percentile(&series, 0.95).value, 100.0);
        let p = windowed_percentile(&series, 0.95);
        assert_eq!((p.value, p.effective, p.samples), (1.0, 0.95, 1200));
        // Too few samples for two windows: one window, the plain rule.
        let p = windowed_percentile(&ramp(100), 0.95);
        assert_eq!((p.value, p.effective, p.samples), (90.0, 0.90, 100));
        assert_eq!(windowed_percentile(&[], 0.5).samples, 0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 1.0)]), 0.0);
    }
}
