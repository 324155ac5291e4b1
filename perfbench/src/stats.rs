//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank rule over a copy of
/// `samples`; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The rounds in which a phase ran fastest: the half (rounded up) with the
/// smallest `duration`. The host is shared with other tenants whose memory
/// traffic slows memory-bound work in stretches of seconds to minutes; a
/// phase's metrics are taken over the rounds that ran outside those
/// stretches.
pub fn quieter_half<T>(rounds: &[T], duration: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut ranked: Vec<&T> = rounds.iter().collect();
    ranked.sort_by(|a, b| duration(a).total_cmp(&duration(b)));
    ranked.truncate(rounds.len().div_ceil(2));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        let kept = quieter_half(&[4.0, 1.0, 3.0, 2.0, 5.0], |x| *x);
        assert_eq!(kept, [&1.0, &2.0, &3.0]);
    }
}
