//! 4-lane accumulation primitives — the canonical kernel order.
//!
//! Every hot inner loop in this workspace (SpMV/SpMM row accumulation,
//! dense matmul, norms, convergence read-outs) is written against the
//! helpers in this module instead of a plain sequential fold. Each helper
//! keeps **four independent accumulators** and walks its input with
//! `chunks_exact(4)` plus a scalar tail — a shape stable rustc reliably
//! auto-vectorizes to 256-bit SIMD (and, even where it stays scalar, one
//! that breaks the loop-carried dependency on a single accumulator into
//! four independent chains).
//!
//! # The canonical 4-lane order
//!
//! Reassociating a floating-point sum changes its rounding, so the lane
//! scheme below is the **single canonical accumulation order** of the
//! workspace — the serial reference and every parallel task use these
//! helpers identically, which is what preserves the repo's
//! bitwise-identical-across-thread-counts invariant:
//!
//! * element at stream position `p` accumulates into lane `p mod 4`
//!   (the tail of a non-multiple-of-4 stream lands in lanes `0..tail`);
//! * the four lanes reduce as `(l0 + l1) + (l2 + l3)`.
//!
//! Order-*independent* reductions (`max`) need no such convention but are
//! written in the same 4-lane shape for the vectorization win.
//!
//! [`SquaredDiffAccumulator`] additionally carries the stream phase
//! across `feed` calls, so a sum fed slice-by-slice lands every element
//! in exactly the lane a single flat pass would use.

/// `y[i] += a · x[i]` — the axpy inner loop of SpMM / dense matmul,
/// unrolled 4 wide. No reassociation happens here (each `y[i]` still
/// receives exactly one contribution per call), so this kernel is
/// bit-for-bit the scalar loop, only faster.
///
/// # Panics
/// Debug-asserts `x.len() == y.len()`.
#[inline]
pub fn axpy4(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy4 length mismatch");
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact_mut(4);
    for (xx, yy) in (&mut xc).zip(&mut yc) {
        for l in 0..4 {
            yy[l] += a * xx[l];
        }
    }
    for (xr, yr) in xc.remainder().iter().zip(yc.into_remainder()) {
        *yr += a * xr;
    }
}

/// Gathered dot product `Σ_p w[p] · x[idx[p]]` in the canonical 4-lane
/// order — the SpMV row kernel (`idx` = a CSR row's column indices).
///
/// # Panics
/// Debug-asserts `idx.len() == w.len()`; indexes `x` with ordinary
/// bounds checks (an out-of-range index is a clean panic, never UB).
#[inline]
pub fn gather_dot4(idx: &[u32], w: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(idx.len(), w.len(), "gather_dot4 length mismatch");
    let mut acc = [0.0f64; 4];
    let mut ic = idx.chunks_exact(4);
    let mut wc = w.chunks_exact(4);
    for (ii, ww) in (&mut ic).zip(&mut wc) {
        for l in 0..4 {
            acc[l] += ww[l] * x[ii[l] as usize];
        }
    }
    for (l, (&i, &v)) in ic.remainder().iter().zip(wc.remainder()).enumerate() {
        acc[l] += v * x[i as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `Σ x[p]` in the canonical 4-lane order.
#[inline]
pub fn sum4(x: &[f64]) -> f64 {
    fold4(x, |v| v)
}

/// `Σ |x[p]|` in the canonical 4-lane order.
#[inline]
pub fn sum_abs4(x: &[f64]) -> f64 {
    fold4(x, f64::abs)
}

/// `Σ x[p]²` in the canonical 4-lane order.
#[inline]
pub fn sum_sq4(x: &[f64]) -> f64 {
    fold4(x, |v| v * v)
}

#[inline]
fn fold4(x: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut xc = x.chunks_exact(4);
    for xx in &mut xc {
        for l in 0..4 {
            acc[l] += f(xx[l]);
        }
    }
    for (l, &v) in xc.remainder().iter().enumerate() {
        acc[l] += f(v);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `max |x[p]|`, 4 lanes wide; 0.0 for an empty slice. `max` is
/// order-independent, so this equals the sequential fold bitwise.
#[inline]
pub fn max_abs4(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut xc = x.chunks_exact(4);
    for xx in &mut xc {
        for l in 0..4 {
            acc[l] = acc[l].max(xx[l].abs());
        }
    }
    let mut m = (acc[0].max(acc[1])).max(acc[2].max(acc[3]));
    for &v in xc.remainder() {
        m = m.max(v.abs());
    }
    m
}

/// `max |a[p] − b[p]|`, 4 lanes wide; 0.0 for empty slices. Equals the
/// sequential fold bitwise (`max` is order-independent).
///
/// # Panics
/// Debug-asserts `a.len() == b.len()`.
#[inline]
pub fn max_abs_diff4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "max_abs_diff4 length mismatch");
    let mut acc = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (aa, bb) in (&mut ac).zip(&mut bc) {
        for l in 0..4 {
            acc[l] = acc[l].max((aa[l] - bb[l]).abs());
        }
    }
    let mut m = (acc[0].max(acc[1])).max(acc[2].max(acc[3]));
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        m = m.max((x - y).abs());
    }
    m
}

/// Phase-carrying 4-lane accumulator for `Σ (a[p] − b[p])²`.
///
/// Lane assignment follows the **global stream position** across `feed`
/// calls: feeding one flat `n·k` slice pair, or the same values row by
/// row in `k`-sized pieces, produces bitwise identical sums
/// ([`crate::Mat::l2_diff`] feeds it once).
#[derive(Clone, Debug, Default)]
pub struct SquaredDiffAccumulator {
    lanes: [f64; 4],
    phase: usize,
}

impl SquaredDiffAccumulator {
    /// A fresh accumulator at stream position 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next stretch of the element stream.
    ///
    /// # Panics
    /// Debug-asserts `a.len() == b.len()`.
    pub fn feed(&mut self, a: &[f64], b: &[f64]) {
        debug_assert_eq!(a.len(), b.len(), "SquaredDiffAccumulator length mismatch");
        let mut i = 0;
        // Realign to lane 0 so the vector body below starts on a chunk
        // boundary of the logical stream.
        while self.phase != 0 && i < a.len() {
            let d = a[i] - b[i];
            self.lanes[self.phase] += d * d;
            self.phase = (self.phase + 1) & 3;
            i += 1;
        }
        if self.phase != 0 {
            return; // slice exhausted mid-realign
        }
        let (a, b) = (&a[i..], &b[i..]);
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for (aa, bb) in (&mut ac).zip(&mut bc) {
            for l in 0..4 {
                let d = aa[l] - bb[l];
                self.lanes[l] += d * d;
            }
        }
        for (l, (&x, &y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
            let d = x - y;
            self.lanes[l] += d * d;
        }
        self.phase = ac.remainder().len(); // < 4 by construction
    }

    /// Reduces the lanes in the canonical `(l0 + l1) + (l2 + l3)` order.
    pub fn finish(&self) -> f64 {
        (self.lanes[0] + self.lanes[1]) + (self.lanes[2] + self.lanes[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical order, spelled out: lanes by position mod 4, reduced
    /// `(l0 + l1) + (l2 + l3)`, tail landing in the leading lanes.
    fn reference_sum(x: &[f64], f: impl Fn(f64) -> f64) -> f64 {
        let mut lanes = [0.0f64; 4];
        for (p, &v) in x.iter().enumerate() {
            lanes[p % 4] += f(v);
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    #[test]
    fn sums_match_the_documented_order_exactly() {
        // Values chosen so reassociation visibly changes the rounding:
        // any deviation from the documented order would flip low bits.
        let x: Vec<f64> = (0..23)
            .map(|i| (i as f64 * 0.7 - 5.0) * 10f64.powi((i % 7) - 3))
            .collect();
        for len in [0, 1, 3, 4, 5, 8, 11, 23] {
            let s = &x[..len];
            assert_eq!(sum4(s).to_bits(), reference_sum(s, |v| v).to_bits());
            assert_eq!(sum_abs4(s).to_bits(), reference_sum(s, f64::abs).to_bits());
            assert_eq!(sum_sq4(s).to_bits(), reference_sum(s, |v| v * v).to_bits());
        }
    }

    #[test]
    fn gather_dot_matches_reference_order() {
        let idx: Vec<u32> = [3u32, 0, 2, 5, 1, 4, 0].to_vec();
        let w: Vec<f64> = (0..7).map(|i| 0.3 * i as f64 - 0.9).collect();
        let x: Vec<f64> = (0..6).map(|i| 1.0 / (i as f64 + 0.7)).collect();
        let products: Vec<f64> = idx
            .iter()
            .zip(&w)
            .map(|(&c, &v)| v * x[c as usize])
            .collect();
        assert_eq!(
            gather_dot4(&idx, &w, &x).to_bits(),
            reference_sum(&products, |v| v).to_bits()
        );
    }

    #[test]
    fn axpy_is_bitwise_the_scalar_loop() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let mut y: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        let mut expect = y.clone();
        for (e, &v) in expect.iter_mut().zip(&x) {
            *e += 1.37 * v;
        }
        axpy4(1.37, &x, &mut y);
        for (a, b) in y.iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn max_helpers_match_sequential_folds() {
        let a: Vec<f64> = (0..19).map(|i| (i as f64 * 1.3).sin() * 5.0).collect();
        let b: Vec<f64> = (0..19).map(|i| (i as f64 * 0.9).cos() * 5.0).collect();
        let seq_abs = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let seq_diff = a
            .iter()
            .zip(&b)
            .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()));
        assert_eq!(max_abs4(&a).to_bits(), seq_abs.to_bits());
        assert_eq!(max_abs_diff4(&a, &b).to_bits(), seq_diff.to_bits());
        assert_eq!(max_abs4(&[]), 0.0);
        assert_eq!(max_abs_diff4(&[], &[]), 0.0);
    }

    /// Feeding the stream in arbitrary pieces equals feeding it flat.
    #[test]
    fn squared_diff_accumulator_is_split_invariant() {
        let a: Vec<f64> = (0..31).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        let b: Vec<f64> = (0..31).map(|i| (i as f64 * 0.37).cos() * 3.0).collect();
        let mut flat = SquaredDiffAccumulator::new();
        flat.feed(&a, &b);
        for piece in [1usize, 2, 3, 4, 5, 7] {
            let mut split = SquaredDiffAccumulator::new();
            for (ca, cb) in a.chunks(piece).zip(b.chunks(piece)) {
                split.feed(ca, cb);
            }
            assert_eq!(
                split.finish().to_bits(),
                flat.finish().to_bits(),
                "piece size {piece}"
            );
        }
    }

    #[test]
    fn squared_diff_accumulator_empty_feeds_are_noops() {
        let mut acc = SquaredDiffAccumulator::new();
        acc.feed(&[], &[]);
        assert_eq!(acc.finish(), 0.0);
        acc.feed(&[2.0], &[1.0]); // phase 1
        acc.feed(&[], &[]);
        acc.feed(&[1.0], &[2.0]); // phase 2
        assert_eq!(acc.finish(), 2.0);
    }
}
