#![warn(missing_docs)]

//! Shared helpers for the experiment binaries (one binary per table /
//! figure of the paper — see the README's "Reproducing the paper's
//! figures" for the index).

use lsbp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Explicit beliefs in the style of the paper's synthetic experiments
/// (Sect. 7): `count` random nodes receive two random residuals from
/// `{−0.1, −0.09, …, 0.1}` and the third class the negative sum.
/// Uses an extra digit of noise when `tie_breaking` is set (the paper's
/// own fix for tied top beliefs: "choosing initial explicit beliefs with
/// additional digits removed these oscillations").
pub fn kronecker_style_beliefs(
    n: usize,
    k: usize,
    count: usize,
    seed: u64,
    tie_breaking: bool,
) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, k);
    let mut placed = 0;
    while placed < count.min(n) {
        let v = rng.gen_range(0..n);
        if e.is_explicit(v) {
            continue;
        }
        let mut row = vec![0.0; k];
        let mut sum = 0.0;
        for cell in row.iter_mut().take(k - 1) {
            let mut val = rng.gen_range(-10i32..=10) as f64 / 100.0;
            if tie_breaking {
                val += rng.gen_range(1..=9) as f64 / 10_000.0;
            }
            *cell = val;
            sum += val;
        }
        row[k - 1] = -sum;
        if row.iter().any(|&x| x != 0.0) {
            e.set_residual(v, &row).unwrap();
            placed += 1;
        }
    }
    e
}

/// Uniformly random one-hot class labels for `count` nodes.
pub fn random_labels(n: usize, k: usize, count: usize, seed: u64) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, k);
    let mut placed = 0;
    while placed < count.min(n) {
        let v = rng.gen_range(0..n);
        if !e.is_explicit(v) {
            e.set_label(v, rng.gen_range(0..k), 1.0).unwrap();
            placed += 1;
        }
    }
    e
}

/// Wall-clock one call.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration like the paper's tables (seconds with adaptive
/// precision).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        format!("{:.0} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Parses `--key value` style CLI options with a default.
pub fn arg_usize(key: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Log-spaced εH sweep from `lo` to `hi` with `points` samples.
pub fn log_sweep(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2 && lo > 0.0 && hi > lo);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..points)
        .map(|i| (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beliefs_are_centered_and_counted() {
        let e = kronecker_style_beliefs(100, 3, 10, 1, false);
        assert_eq!(e.num_explicit(), 10);
        for v in e.explicit_nodes() {
            assert!(e.row(v).iter().sum::<f64>().abs() < 1e-12);
        }
    }

    #[test]
    fn tie_breaking_adds_digits() {
        let e = kronecker_style_beliefs(50, 3, 5, 2, true);
        // With extra digits, residuals should not land on the 0.01 grid.
        let off_grid = e
            .explicit_nodes()
            .iter()
            .flat_map(|&v| e.row(v).iter())
            .any(|&x| (x * 100.0 - (x * 100.0).round()).abs() > 1e-9);
        assert!(off_grid);
    }

    #[test]
    fn sweep_endpoints() {
        let s = log_sweep(1e-8, 1e-2, 7);
        assert_eq!(s.len(), 7);
        assert!((s[0] - 1e-8).abs() < 1e-20);
        assert!((s[6] - 1e-2).abs() < 1e-10);
    }

    #[test]
    fn labels_count() {
        let e = random_labels(40, 4, 7, 3);
        assert_eq!(e.num_explicit(), 7);
    }
}
