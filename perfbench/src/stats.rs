//! The benchmark's statistics: medians and quartiles, the tail
//! percentile rule, open-loop due-time latency, and the paired verdict
//! of the comparison mode.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so figures match what a reader recomputes from
/// the raw values. One value gives that value three times.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    if values.len() == 1 {
        return (values[0], values[0], values[0]);
    }
    let s = sorted(values);
    let ld = s.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (s[(j - 1) as usize] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the benchmark's bounds are checked against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentiles the tail rule chooses from.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile that has at least ten of `n` samples beyond
/// it, from the ladder 50, 75, 90, 95, 99, 99.9; `None` when even the
/// median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100] of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    s
}

/// Median of the per-pair ratios `num[i] / den[i]`: within a pair both
/// arms ran back to back, so machine drift mostly cancels out of the
/// ratio (the same estimator as the `skew-sweep` regression gate).
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&ratios)
}

/// The position of arm `k` in round `r` of interleaved, rotated-order
/// rounds over `arms` arms: round `r` runs `r % arms` first, so no arm
/// always owns the same slot (the `skew-sweep` schedule).
pub fn rotated(r: usize, k: usize, arms: usize) -> usize {
    (r + k) % arms
}

/// An open-loop arrival schedule: request `i` is due at
/// `start_ns + i · period_ns`, whether or not earlier requests have
/// finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    /// A schedule of `rate` requests per second from `start_ns`.
    pub fn new(start_ns: u64, rate: f64) -> Schedule {
        assert!(rate > 0.0, "rate must be positive");
        Schedule { start_ns, period_ns: ((1e9 / rate).round() as u64).max(1) }
    }

    /// When request `i` was due.
    pub fn due(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// Latency of request `i` finishing at `done_ns`, counted from when
    /// it was due rather than from when it was sent: a stalled
    /// generator charges its stall to every request it delayed.
    pub fn latency(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due(i))
    }

    /// How late request `i` was sent at `sent_ns`.
    pub fn lateness(&self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due(i))
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn is_better(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }
}

/// The outcome of a paired parent-vs-change comparison of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A paired comparison of one metric on one workload.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Share of pairs the change won; ties count for neither side.
    pub win_share: f64,
    /// How much worse the change's median is than the parent's, as a
    /// share of the parent's median (negative when better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Compare paired runs `parent[i]` / `change[i]` by the rule of the
/// choosing-metrics guide, section 8:
///
/// * **improved** — the change wins at least nine tenths of the pairs
///   and the medians differ, in its favour, by more than the distance
///   between the parent's quartiles;
/// * when either side's spread (quartile distance over median) is
///   wider than `bound`, the result is **unresolved** — unless every
///   change run beats every parent run (improved) or every change run
///   is worse than every parent run by more than the bound (worse);
/// * **worse** — the change's median is worse than the parent's by more
///   than `bound`;
/// * otherwise **unchanged**.
///
/// # Panics
/// Panics when the two sides have different or zero lengths.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert_eq!(parent.len(), change.len(), "paired runs");
    assert!(!parent.is_empty(), "at least one pair");
    let p = quartiles(parent);
    let c = quartiles(change);
    let wins = parent.iter().zip(change).filter(|&(&pv, &cv)| better.is_better(cv, pv)).count();
    let win_share = wins as f64 / parent.len() as f64;
    let worse_by = match better {
        Better::Lower => (c.1 - p.1) / p.1.abs(),
        Better::Higher => (p.1 - c.1) / p.1.abs(),
    };
    let all_better = change.iter().all(|&cv| parent.iter().all(|&pv| better.is_better(cv, pv)));
    let all_worse = change.iter().all(|&cv| parent.iter().all(|&pv| better.is_better(pv, cv)));
    let verdict = if win_share >= 0.9 && better.is_better(c.1, p.1) && (c.1 - p.1).abs() > p.2 - p.0
    {
        Verdict::Improved
    } else if spread(parent).max(spread(change)) > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Comparison { parent: p, change: c, win_share, worse_by, verdict }
}
