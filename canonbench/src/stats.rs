//! The benchmark's arithmetic: medians, geomeans, the tail-percentile rule,
//! span self time, and the accounting residue. Kept free of I/O so the unit
//! tests below pin every formula the reports print.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Candidate levels for a reported tail, highest first.
pub const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency as reported: the percentile level, its value, and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level (e.g. 99.0).
    pub level: f64,
    /// Value at that level.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LEVELS`] that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its nearest rank; `None` when
/// no level qualifies (fewer than `TAIL_MIN_BEYOND + 1` samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    TAIL_LEVELS.iter().find_map(|&level| {
        let rank = ((level / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank.min(n) >= TAIL_MIN_BEYOND).then(|| Tail {
            level,
            value: percentile(values, level).expect("non-empty"),
            samples: n,
        })
    })
}

/// A closed-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals`, each clipped to `within`.
pub fn union_len(intervals: &[Interval], within: Interval) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    (span.1 - span.0) - union_len(children, span)
}

/// Host time the traced layers leave unexplained: the capacity of the
/// untraced run (`threads × wall`) minus the summed self time of every
/// layer. Negative when tracing slowed the traced run past the untraced one.
pub fn residue(threads: usize, untraced_wall_s: f64, layer_self_s: &[f64]) -> f64 {
    threads as f64 * untraced_wall_s - layer_self_s.iter().sum::<f64>()
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never calls).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.level, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, so the tail falls to p95.
        let t = tail(&v[..999]).unwrap();
        assert_eq!((t.level, t.value), (95.0, 950.0));
        // 20 samples: only p50 leaves >= 10 beyond.
        let t = tail(&v[..20]).unwrap();
        assert_eq!((t.level, t.value, t.samples), (50.0, 10.0, 20));
        // 10 samples: nothing qualifies.
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], (0, 100)), 25);
        assert_eq!(union_len(&[(0, 10), (10, 20)], (0, 100)), 20);
        assert_eq!(union_len(&[(0, 50)], (10, 20)), 10);
        assert_eq!(union_len(&[], (0, 10)), 0);
    }

    #[test]
    fn self_time_subtracts_child_union() {
        // Children [10,30) and [20,50) overlap; their union covers 40.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 50)]), 60);
        assert_eq!(self_time((0, 100), &[]), 100);
        // A child reaching past the parent only counts inside it.
        assert_eq!(self_time((0, 100), &[(90, 150)]), 90);
    }

    #[test]
    fn residue_is_capacity_minus_layers() {
        assert!((residue(2, 5.0, &[4.0, 3.5, 1.0]) - 1.5).abs() < 1e-12);
        assert!(residue(1, 1.0, &[0.7, 0.5]) < 0.0);
    }

    #[test]
    fn ratio_of_absent_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
