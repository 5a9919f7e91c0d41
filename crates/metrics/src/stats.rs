//! Basic statistics helpers.

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean; zero if the slice is empty or any sample is
/// non-positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, -1.0]), 0.0);
    }
}
