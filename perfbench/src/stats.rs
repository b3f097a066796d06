//! Order statistics and fits over measured samples.

/// Nearest-rank `q`-quantile (`0.0 ..= 1.0`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest-rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` without the lowest and highest tenth; 0 when empty.
///
/// Timed samples on a shared host are bimodal: neighbours slow the machine
/// for seconds at a time. The median of such samples jumps between the two
/// modes from run to run, while the trimmed mean moves with the share of
/// slow time and still ignores single outliers.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Mean of the fastest tenth of `values` (at least one sample); 0 when
/// empty.
///
/// Serial compile times on a shared host are slowed by neighbours' cache
/// and memory traffic for stretches of seconds up to whole runs. The
/// fastest passes of a run come from its quiet stretches, so their mean
/// tracks the code's own speed and moves far less from run to run than a
/// median or mean does.
pub fn fast_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[..(v.len() / 10).max(1)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean of strictly positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of a
/// power-law fit `y ~ x^k`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Times `f` `reps` times and returns the median wall time in
/// microseconds, plus the last result.
pub fn time_median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        out = Some(std::hint::black_box(f()));
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (median(&samples), out.expect("reps >= 1"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [10.0, 100.0, 1000.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([-1000.0, 1000.0]);
        assert_eq!(trimmed_mean(&v), 4.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn fast_mean_keeps_the_fastest_tenth() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_mean(&v), 1.5);
        assert_eq!(fast_mean(&[5.0, 3.0, 4.0]), 3.0);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
