//! Order statistics and the before/after verdict rule.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0–100) of `values` (any order); 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply before dividing: `p / 100.0` is inexact (0.99 * 1000 is
    // not 990), `p * n` is exact for every sample count we see.
    (p * n as f64 / 100.0).ceil() as usize
}

/// Samples strictly beyond nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest reportable percentile with at least ten samples beyond
/// it, for a sample of `n`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return [0.0; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let n = d.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge runs `b` (the change) against runs `a` (the parent) for one
/// metric, where `bound` is the share of the parent's median by which the
/// metric may worsen:
///
/// - every run of the change better than every run of the parent: better;
/// - worse by more than the bound, with every run of the change worse
///   than every run of the parent: worse;
/// - either side's run-to-run spread (IQR over median) wider than the
///   bound: unresolved;
/// - median worse by more than the bound: worse;
/// - the change wins at least nine tenths of the run pairs and the
///   medians differ by more than the parent's IQR: better;
/// - otherwise: same.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (ma, mb) = (median(a), median(b));
    // Positive when the change is worse, as a share of the parent median.
    let worsening = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if all(&|y, x| better(y, x)) {
        return Verdict::Better;
    }
    if worsening > bound && all(&|y, x| better(x, y)) {
        return Verdict::Worse;
    }
    if relative_iqr(a) > bound || relative_iqr(b) > bound {
        return Verdict::Unresolved;
    }
    if worsening > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let [q1, _, q3] = quartiles(a);
    if wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 {
        return Verdict::Better;
    }
    Verdict::Same
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 57, 100, 640, 1000, 17_345] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Identical runs: same.
        assert_eq!(verdict(&base, &base, false, 0.05), Verdict::Same);
        // Every run lower (better for a latency): better.
        let faster = [8.0, 8.1, 7.9, 8.0, 8.05];
        assert_eq!(verdict(&base, &faster, false, 0.05), Verdict::Better);
        // Every run higher by 20%: worse.
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(verdict(&base, &slower, false, 0.05), Verdict::Worse);
        // For a throughput the same numbers flip.
        assert_eq!(verdict(&base, &slower, true, 0.05), Verdict::Better);
        // Spread wider than the bound, medians overlapping: unresolved.
        let noisy = [7.0, 13.0, 9.0, 12.0, 8.0];
        assert_eq!(verdict(&base, &noisy, false, 0.05), Verdict::Unresolved);
        // Slightly worse, within the bound: same.
        let drift = [10.2, 10.3, 10.1, 9.95, 10.25];
        assert_eq!(verdict(&base, &drift, false, 0.05), Verdict::Same);
    }
}
