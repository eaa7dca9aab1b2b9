//! Order statistics the runner reports and the A/A check compares.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples;
/// 0 for an empty slice (a layer the workload never exercised).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method): position `q·(n+1)` in the 1-based
/// sorted sample, clamped to the ends. The acceptance check is defined on
/// exactly this estimator, so the A/A report uses it too.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| {
        // 0-based index j-1 and remainder of q·(n+1)/4, clamped as CPython does.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a gate's bound has to stay above. Needs at least two samples.
pub fn iqr_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative = better), honouring the metric's direction.
pub fn worsening(base: f64, candidate: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { candidate - base } else { base - candidate };
    delta / base.abs()
}
