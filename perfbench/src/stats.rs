//! The benchmark's arithmetic: medians, quartiles, shares with their
//! base, nearest-rank quantiles and failure counting. Everything here is
//! pure, so the self-tests below check it on synthetic inputs without
//! reading a clock.

/// Median of `xs` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method, which is what
/// Python's `statistics.quantiles(xs, n=4)` returns. A single sample is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Sum over columns of each column's smallest value: `rows[r][c]` is
/// cell `c`'s time in repetition `r`, and the result is the workload's
/// time with every cell at its fastest repetition. Host interference
/// only ever adds time, so this is the figure that repeats between runs
/// on a shared machine.
///
/// # Panics
///
/// Panics on no rows or rows of different lengths.
pub fn fastest_sum(rows: &[Vec<f64>]) -> f64 {
    assert!(!rows.is_empty(), "fastest of no repetitions");
    let cells = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == cells), "ragged repetitions");
    (0..cells)
        .map(|c| rows.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Quartile distance as a share of the median: `(Q3 − Q1) / median`.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    share(q3 - q1, median(xs))
}

/// `part / base`, or 0 for a zero base. Every share this benchmark
/// prints names its base next to it.
pub fn share(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Nearest-rank `q`-quantile of an ascending slice: the element at rank
/// `ceil(q · n)` (at least 1). Returns 0 for an empty slice.
pub fn rank_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What one seeded run reported about its own correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellVerdict {
    /// Application operations the run attempted.
    pub ops: u64,
    /// The simulation drained to quiescence.
    pub quiescent: bool,
    /// `causal::check` proved α^T causal.
    pub causal: bool,
    /// The online monitor (when installed) stayed clean.
    pub monitor_clean: bool,
    /// Writes not visible at every MCS-process at quiescence.
    pub invisible_writes: u64,
}

impl CellVerdict {
    /// Failed application operations: every op of a run that did not
    /// drain or whose causal or monitor verdict is not clean, else each
    /// write that some MCS-process never applied.
    pub fn failed_ops(&self) -> u64 {
        if self.quiescent && self.causal && self.monitor_clean {
            self.invisible_writes.min(self.ops)
        } else {
            self.ops
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn fastest_sum_takes_each_cells_own_minimum() {
        let rows = vec![vec![3.0, 1.0], vec![2.0, 5.0], vec![4.0, 2.0]];
        assert_eq!(fastest_sum(&rows), 3.0);
        assert_eq!(fastest_sum(&[vec![0.5]]), 0.5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn fastest_sum_rejects_ragged_repetitions() {
        fastest_sum(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn share_names_a_zero_base_as_zero() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(3.0, 0.0), 0.0);
    }

    #[test]
    fn rank_quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_quantile(&v, 0.5), 50);
        assert_eq!(rank_quantile(&v, 0.99), 99);
        assert_eq!(rank_quantile(&v, 0.0), 1);
        assert_eq!(rank_quantile(&v, 1.0), 100);
        assert_eq!(rank_quantile(&[], 0.5), 0);
        assert_eq!(rank_quantile(&[5], 0.99), 5);
    }

    #[test]
    fn failed_ops_count_invisible_writes_or_the_whole_run() {
        let clean = CellVerdict {
            ops: 100,
            quiescent: true,
            causal: true,
            monitor_clean: true,
            invisible_writes: 0,
        };
        assert_eq!(clean.failed_ops(), 0);
        let lost = CellVerdict {
            invisible_writes: 3,
            ..clean
        };
        assert_eq!(lost.failed_ops(), 3);
        for bad in [
            CellVerdict {
                quiescent: false,
                ..lost
            },
            CellVerdict {
                causal: false,
                ..clean
            },
            CellVerdict {
                monitor_clean: false,
                ..clean
            },
        ] {
            assert_eq!(bad.failed_ops(), 100);
        }
    }
}
