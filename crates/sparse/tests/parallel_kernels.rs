//! Determinism contract of the parallel sparse kernels: for any matrix
//! and any thread count, `spmv` / `spmm` / `transpose` must produce
//! results **bitwise identical** to the serial reference (each output
//! region is computed by the unchanged serial code, so this is exact
//! equality, not tolerance-based). The min-work floor is forced to 1 so
//! the small random instances actually exercise the parallel code path.

use lsbp_linalg::{Mat, ParallelismConfig};
use lsbp_sparse::{CooMatrix, CsrMatrix, FusedLinBpStep, PropagationOperator};
use proptest::prelude::*;

type Triplets = Vec<(usize, usize, f64)>;

/// Strategy: matrix dims plus a random triplet list (duplicates allowed —
/// `to_csr` sums them), with irrational-ish values so any change in
/// accumulation order would show up in the low bits.
fn triplets_strategy(max_dim: usize) -> impl Strategy<Value = (usize, usize, Triplets)> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -1000..1000i32);
        proptest::collection::vec(entry, 0..120).prop_map(move |list| {
            let triplets = list
                .into_iter()
                .map(|(r, c, v)| (r, c, v as f64 / 7.0))
                .collect();
            (rows, cols, triplets)
        })
    })
}

fn build_csr(rows: usize, cols: usize, triplets: &Triplets) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for &(r, c, v) in triplets {
        coo.push(r, c, v);
    }
    coo.to_csr()
}

/// The thread counts the CI matrix pins via `LSBP_THREADS`; forced through
/// the parallel path regardless of input size.
fn sweep() -> Vec<ParallelismConfig> {
    [1usize, 2, 8]
        .into_iter()
        .map(|t| ParallelismConfig::with_threads(t).with_min_work(1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SpMV: bitwise identical output vectors for every thread count.
    #[test]
    fn spmv_bitwise_identical_across_threads(
        (rows, cols, triplets) in triplets_strategy(24),
        raw_x in proptest::collection::vec(-300..300i32, 24),
    ) {
        let csr = build_csr(rows, cols, &triplets);
        let x: Vec<f64> = raw_x.iter().take(cols).map(|&v| v as f64 / 11.0).collect();
        let mut reference = vec![0.0; rows];
        csr.spmv_into_with(&x, &mut reference, &ParallelismConfig::serial());
        for cfg in sweep() {
            let mut y = vec![f64::NAN; rows];
            csr.spmv_into_with(&x, &mut y, &cfg);
            let same_bits = y
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same_bits, "threads = {}: {y:?} vs {reference:?}", cfg.threads());
        }
    }

    /// SpMM: bitwise identical output matrices for every thread count.
    #[test]
    fn spmm_bitwise_identical_across_threads(
        (rows, cols, triplets) in triplets_strategy(20),
        raw_b in proptest::collection::vec(-200..200i32, 60),
        k in 1usize..5,
    ) {
        let csr = build_csr(rows, cols, &triplets);
        let b = Mat::from_fn(cols, k, |r, c| raw_b[(r * k + c) % raw_b.len()] as f64 / 13.0);
        let reference = csr.spmm_with(&b, &ParallelismConfig::serial());
        for cfg in sweep() {
            let par = csr.spmm_with(&b, &cfg);
            let same_bits = par
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same_bits, "threads = {}", cfg.threads());
            // And spmm_into over a dirty buffer fully overwrites it.
            let mut into = Mat::from_fn(rows, k, |_, _| f64::NAN);
            csr.spmm_into_with(&b, &mut into, &cfg);
            prop_assert_eq!(&into, &reference, "threads = {} (into)", cfg.threads());
        }
    }

    /// Transpose: identical CSR arrays (structure and values) for every
    /// thread count, and still a valid involution.
    #[test]
    fn transpose_identical_across_threads((rows, cols, triplets) in triplets_strategy(24)) {
        let csr = build_csr(rows, cols, &triplets);
        let reference = csr.transpose_with(&ParallelismConfig::serial());
        for cfg in sweep() {
            let par = csr.transpose_with(&cfg);
            prop_assert_eq!(&par, &reference, "threads = {}", cfg.threads());
            prop_assert_eq!(par.transpose_with(&cfg), csr.clone());
        }
    }

    /// u32-index CSR round trip: the compact build carries exactly the
    /// structure and values a `usize` reference model prescribes, and the
    /// COO → CSR → transpose → transpose chain preserves it. Coordinates
    /// are deduplicated first (keeping the first value) so the model is
    /// independent of the COO builder's unstable duplicate-merge order —
    /// duplicate merging itself is covered by the kernels' tests above.
    #[test]
    fn u32_round_trip_matches_usize_model((rows, cols, raw_triplets) in triplets_strategy(24)) {
        let mut seen = std::collections::HashSet::new();
        let triplets: Triplets = raw_triplets
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .collect();
        // Reference model in plain usize arithmetic.
        let mut model = triplets.clone();
        model.sort_by_key(|&(r, c, _)| (r, c));
        let csr = build_csr(rows, cols, &triplets);
        prop_assert_eq!(csr.nnz(), model.len());
        let mut idx = 0usize;
        for r in 0..rows {
            for (c, v) in csr.row_iter(r) {
                let (mr, mc, mv) = model[idx];
                prop_assert_eq!((r, c), (mr, mc));
                prop_assert_eq!(v.to_bits(), mv.to_bits());
                // The compact index widens back to the exact usize column.
                prop_assert_eq!(csr.row_cols(r)[idx - csr.row_offsets()[r]] as usize, mc);
                idx += 1;
            }
        }
        prop_assert_eq!(idx, model.len());
        // Transpose round trip (serial and parallel alike, via the sweep
        // above) returns the identical matrix.
        let t = csr.transpose();
        prop_assert_eq!(t.n_rows(), cols);
        prop_assert_eq!(&t.transpose(), &csr);
    }

    /// `get`/`entry_index` binary-search the compact u32 column slice and
    /// must agree with a naive scan over `row_iter`.
    #[test]
    fn get_and_entry_index_match_naive_scan((rows, cols, triplets) in triplets_strategy(16)) {
        let csr = build_csr(rows, cols, &triplets);
        for r in 0..rows {
            for c in 0..cols {
                let scan = csr.row_iter(r).find(|&(cc, _)| cc == c);
                match scan {
                    Some((_, v)) => {
                        prop_assert_eq!(csr.get(r, c).to_bits(), v.to_bits());
                        let e = csr.entry_index(r, c).expect("stored entry must be found");
                        prop_assert!(e >= csr.row_offsets()[r] && e < csr.row_offsets()[r + 1]);
                    }
                    None => {
                        prop_assert_eq!(csr.get(r, c), 0.0);
                        prop_assert!(csr.entry_index(r, c).is_none());
                    }
                }
            }
        }
    }

    /// The fused LinBP step is bitwise identical across thread counts,
    /// for both the width-specialized single-query kernel (k = kt) and
    /// the generic stacked kernel (q > 1).
    #[test]
    fn fused_step_bitwise_identical_across_threads(
        (dim, _, triplets) in triplets_strategy(24),
        raw in proptest::collection::vec(-400..400i32, 64),
        k in 2usize..5,
        q in 1usize..3,
        echo_flag in 0usize..2,
        damp_flag in 0usize..2,
    ) {
        let (echo, damped) = (echo_flag == 1, damp_flag == 1);
        // Square adjacency from the triplets (coordinates folded into dim).
        let mut coo = CooMatrix::new(dim, dim);
        for &(r, c, v) in &triplets {
            coo.push(r % dim, c % dim, v);
        }
        let adj = coo.to_csr();
        let kt = k * q;
        let at = |i: usize| raw[i % raw.len()] as f64 / 9.0;
        let b = Mat::from_fn(dim, kt, |r, c| at(r * kt + c) * 0.01);
        let e_hat = Mat::from_fn(dim, kt, |r, c| at(r * kt + c + 7) * 0.1);
        let h = Mat::from_fn(k, k, |r, c| at(r * k + c + 3) * 0.05);
        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let step = FusedLinBpStep {
            e_hat: &e_hat,
            h: &h,
            h2: echo.then_some(&h2),
            degrees,
            damping: if damped { 0.3 } else { 0.0 },
        };
        let mut reference = Mat::zeros(dim, kt);
        let mut ref_deltas = vec![0.0f64; q];
        adj.linbp_step_fused_with(&b, &step, &mut reference, &mut ref_deltas,
                                  &ParallelismConfig::serial());
        for cfg in sweep() {
            let mut out = Mat::from_fn(dim, kt, |_, _| f64::NAN); // must be overwritten
            let mut deltas = vec![f64::NAN; q];
            adj.linbp_step_fused_with(&b, &step, &mut out, &mut deltas, &cfg);
            let same = out.as_slice().iter().zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "threads = {} k = {k} q = {q}", cfg.threads());
            for (d, rd) in deltas.iter().zip(&ref_deltas) {
                prop_assert_eq!(d.to_bits(), rd.to_bits(), "threads = {}", cfg.threads());
            }
        }
    }
}

/// Empty matrices: every kernel degenerates gracefully under any config.
#[test]
fn empty_matrix_edge_cases() {
    for cfg in sweep() {
        let e = CsrMatrix::empty(4, 6);
        let mut y = vec![1.0; 4];
        e.spmv_into_with(&[0.5; 6], &mut y, &cfg);
        assert_eq!(y, vec![0.0; 4]);
        let prod = e.spmm_with(&Mat::from_fn(6, 2, |r, c| (r + c) as f64), &cfg);
        assert_eq!(prod, Mat::zeros(4, 2));
        let t = e.transpose_with(&cfg);
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.nnz(), 0);

        // Zero-row / zero-column shapes.
        let z = CsrMatrix::empty(0, 3);
        let mut none: Vec<f64> = Vec::new();
        z.spmv_into_with(&[1.0, 2.0, 3.0], &mut none, &cfg);
        assert!(none.is_empty());
        assert_eq!(z.transpose_with(&cfg).n_rows(), 3);
    }
}

/// A single stored row (one hub) must land entirely in one partition and
/// still match serial output exactly.
#[test]
fn single_row_edge_cases() {
    let mut coo = CooMatrix::new(1, 40);
    for c in 0..40 {
        coo.push(0, c, (c as f64 + 1.0) / 3.0);
    }
    let csr = coo.to_csr();
    let x: Vec<f64> = (0..40).map(|i| (i as f64 - 19.5) / 7.0).collect();
    let mut reference = vec![0.0; 1];
    csr.spmv_into_with(&x, &mut reference, &ParallelismConfig::serial());
    for cfg in sweep() {
        let mut y = vec![0.0; 1];
        csr.spmv_into_with(&x, &mut y, &cfg);
        assert_eq!(y[0].to_bits(), reference[0].to_bits());
        assert_eq!(csr.transpose_with(&cfg).n_rows(), 40);
        assert_eq!(csr.transpose_with(&cfg).transpose(), csr);
    }
}
