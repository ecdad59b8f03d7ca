//! Order statistics for the report.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `None` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A tail percentile with the number of samples beyond it, or `None`
/// when fewer than ten samples lie beyond (too few to estimate it).
pub fn tail(values: &[f64], q: f64) -> Option<(f64, usize)> {
    let v = quantile(values, q)?;
    let beyond = values.iter().filter(|&&x| x > v).count();
    (beyond >= 10).then_some((v, beyond))
}

/// One line summarising a latency sample: median, tails with the
/// samples beyond them, and the count.
pub fn describe(values: &[f64]) -> String {
    let mut s = format!(
        "n={} p50={:.3}",
        values.len(),
        median(values).unwrap_or(f64::NAN)
    );
    for (label, q) in [("p90", 0.90), ("p99", 0.99)] {
        match tail(values, q) {
            Some((v, beyond)) => s.push_str(&format!(" {label}={v:.3} ({beyond} beyond)")),
            None => s.push_str(&format!(" {label}=n/a (<10 beyond)")),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99), None);
        assert_eq!(tail(&many, 0.90).map(|t| t.1), Some(10));
    }
}
