//! Test support shared by the solver suites: bitwise matrix equality, the
//! plain-loop LinBP oracle, the frontier counters that oracle's iterates
//! imply, a plain-loop RWR oracle, a plain-loop oracle for the per-graph
//! invariants an operator caches, and self-removing scratch paths. Each
//! suite uses a subset.
#![allow(dead_code)]

use lsbp::prelude::*;
use lsbp_linalg::Mat;
use lsbp_sparse::{CsrMatrix, FrontierPlan, NodeBitset, PropagationOperator};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch path `name` in a directory of its own, removed with
/// everything in it when the guard drops — whether the test passed or
/// panicked. The directory, `lsbp-<prefix>-<pid>-<n>` under the temp dir,
/// carries the process id and a per-process counter, so parallel tests
/// never share or delete each other's files. Derefs to the path.
pub struct TempPath {
    dir: PathBuf,
    path: PathBuf,
}

impl TempPath {
    pub fn new(prefix: &str, name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lsbp-{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        Self { dir, path }
    }

    /// The guard's own directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// How an [`unfused_linbp`] run ended.
pub struct Reference {
    pub beliefs: Mat,
    pub converged: bool,
    pub diverged: bool,
    pub iterations: usize,
    pub final_delta: f64,
}

/// LinBP (`echo`) or LinBP\* as a plain loop over the unfused
/// [`linbp_step`], sharing no code with the library's solver. Each round,
/// in order: the step, the damping blend, the delta (`max_abs_diff` or
/// `l2_diff`), the swap, the guard (`b.max_abs() > divergence_guard` or a
/// non-finite delta), then the tolerance.
pub fn unfused_linbp(
    adj: &CsrMatrix,
    e_hat: &Mat,
    h: &Mat,
    echo: bool,
    opts: &LinBpOptions,
) -> Reference {
    unfused_linbp_observed(adj, e_hat, h, echo, opts, |_, _| {})
}

/// [`unfused_linbp`], calling `sweep(old, new)` with the beliefs before
/// and after every round it runs.
pub fn unfused_linbp_observed(
    adj: &CsrMatrix,
    e_hat: &Mat,
    h: &Mat,
    echo: bool,
    opts: &LinBpOptions,
    mut sweep: impl FnMut(&Mat, &Mat),
) -> Reference {
    let (n, k) = (e_hat.rows(), e_hat.cols());
    let h2 = h.matmul(h);
    let degrees = adj.squared_weight_degrees();
    let mut b = e_hat.clone();
    let mut next = Mat::zeros(n, k);
    let mut scratch = LinBpScratch::new(n, k);
    let mut out = Reference {
        beliefs: Mat::zeros(0, 0),
        converged: false,
        diverged: false,
        iterations: 0,
        final_delta: f64::INFINITY,
    };
    for _ in 0..opts.max_iter {
        linbp_step(
            adj,
            e_hat,
            &b,
            h,
            echo.then_some(&h2),
            degrees,
            &mut scratch,
            &mut next,
            &opts.parallelism,
        );
        if opts.damping > 0.0 {
            for (new, &old) in next.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *new = (1.0 - opts.damping) * *new + opts.damping * old;
            }
        }
        let delta = match opts.norm {
            ToleranceNorm::MaxAbs => next.max_abs_diff(&b),
            ToleranceNorm::L2 => next.l2_diff(&b),
        };
        sweep(&b, &next);
        std::mem::swap(&mut b, &mut next);
        out.iterations += 1;
        out.final_delta = delta;
        if b.max_abs() > opts.divergence_guard || !delta.is_finite() {
            out.diverged = true;
            break;
        }
        if opts.tol > 0.0 && delta < opts.tol {
            out.converged = true;
            break;
        }
    }
    out.beliefs = b;
    out
}

/// The frontier counters of one query, derived from the plain-loop
/// oracle's iterates alone.
pub struct PullCounts {
    /// How the oracle's run ended.
    pub reference: Reference,
    /// Rows the solve must compute, summed over its rounds.
    pub rows_active: u64,
    /// Rows it may skip, summed over its rounds.
    pub rows_skipped: u64,
    /// Per round: the degrees of the rows whose block changed in the
    /// previous round (for round 1, whose seed block holds a bit other
    /// than `+0.0`) summed — the work a push of that change costs.
    pub changed_degrees: Vec<usize>,
}

/// Runs [`unfused_linbp`] on one query and counts, per round, its pull
/// set: the rows whose own block or the block of a column of `A(r,·)`
/// changed bits in the previous round. A solve starts from `B = Ê` with
/// a zeroed second buffer, so round 1's "change" is the seed: a block of
/// `Ê` holding a bit other than `+0.0`. Shares no code with the
/// library's frontier.
pub fn pull_counts(
    adj: &CsrMatrix,
    e_hat: &Mat,
    h: &Mat,
    echo: bool,
    opts: &LinBpOptions,
) -> PullCounts {
    let n = adj.n_rows();
    let block_changed = |old: Option<&Mat>, new: &Mat, r: usize| match old {
        Some(old) => old
            .row(r)
            .iter()
            .zip(new.row(r))
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        None => new.row(r).iter().any(|x| x.to_bits() != 0),
    };
    let mut changed: Vec<bool> = (0..n).map(|r| block_changed(None, e_hat, r)).collect();
    let (mut rows_active, mut rows_skipped) = (0u64, 0u64);
    let mut changed_degrees = Vec::new();
    let reference = unfused_linbp_observed(adj, e_hat, h, echo, opts, |old, new| {
        let pulled = (0..n)
            .filter(|&r| changed[r] || adj.row_iter(r).any(|(c, _)| changed[c]))
            .count() as u64;
        rows_active += pulled;
        rows_skipped += n as u64 - pulled;
        changed_degrees.push((0..n).filter(|&r| changed[r]).map(|r| adj.row_nnz(r)).sum());
        for (r, flag) in changed.iter_mut().enumerate() {
            *flag = block_changed(Some(old), new, r);
        }
    });
    PullCounts {
        reference,
        rows_active,
        rows_skipped,
        changed_degrees,
    }
}

/// Reusable buffers for [`linbp_step`]: the SpMM result, the `D·B`
/// product and the `(D·B)·Ĥ²` echo term — all `n × k`, allocated once per
/// run instead of once per iteration.
struct LinBpScratch {
    ab: Mat,
    db: Mat,
    tmp: Mat,
}

impl LinBpScratch {
    fn new(n: usize, k: usize) -> Self {
        Self {
            ab: Mat::zeros(n, k),
            db: Mat::zeros(n, k),
            tmp: Mat::zeros(n, k),
        }
    }
}

/// One update step `out = Ê + A·B·Ĥ [− D·B·Ĥ²]` as the **unfused**
/// composition: SpMM, dense `·Ĥ` and element-wise add/sub as separate
/// passes. The library runs the fused step
/// ([`PropagationOperator::linbp_step_fused_frontier_with`]), one
/// row-partitioned pass that must be bitwise identical to this.
#[allow(clippy::too_many_arguments)] // mirrors the terms of Eq. 6 one-to-one
fn linbp_step<A: PropagationOperator + ?Sized>(
    adj: &A,
    e_hat: &Mat,
    b: &Mat,
    h: &Mat,
    h2: Option<&Mat>,
    degrees: &[f64],
    scratch: &mut LinBpScratch,
    out: &mut Mat,
    cfg: &ParallelismConfig,
) {
    // ab = A·B   (n×k);   out = Ê + ab·Ĥ
    adj.spmm_into_with(b, &mut scratch.ab, cfg);
    scratch.ab.matmul_into_with(h, out, cfg);
    out.add_assign(e_hat);
    if let Some(h2) = h2 {
        // out -= (D·B)·Ĥ² — row s of D·B is d_s · b_s.
        b.scaled_rows_into(degrees, &mut scratch.db);
        scratch.db.matmul_into_with(h2, &mut scratch.tmp, cfg);
        out.sub_assign(&scratch.tmp);
    }
}

/// How an [`unfused_rwr`] run ended.
pub struct RwrReference {
    /// Per-node class scores, each row centred (all-zero when no score is
    /// positive).
    pub beliefs: Mat,
    /// Whether every class's walk met `tol`.
    pub converged: bool,
    /// Rounds of the slowest walk.
    pub iterations: usize,
}

/// RWR as plain loops, one walk per class at a time, sharing no code
/// with the library's batched driver. Walk `c` restarts into the positive
/// residual mass of class `c`, normalised to 1. Each round, in order:
/// `x / deg` per node, the diffusion `Σ A(r,s)·(x/deg)(s)` summed in CSR
/// entry order (the SpMM element order), the blend with the restart, the
/// delta (max-abs or L2), the renormalisation of the mass dangling nodes
/// leak, then the tolerance (or a non-finite delta) ends the walk. The
/// scores are then centred per row.
pub fn unfused_rwr(adj: &CsrMatrix, explicit: &ExplicitBeliefs, opts: &RwrOptions) -> RwrReference {
    let (n, k) = (explicit.n(), explicit.k());
    let degrees: Vec<f64> = (0..n)
        .map(|r| lane_sum(adj.row_iter(r).map(|(_, w)| w)))
        .collect();
    let alpha = opts.restart;
    let mut scores = Mat::zeros(n, k);
    let (mut converged, mut iterations) = (true, 0);
    for c in 0..k {
        let mut restart = vec![0.0f64; n];
        let mut class_mass = 0.0f64;
        for v in explicit.explicit_nodes() {
            let x = explicit.row(v)[c];
            if x > 0.0 {
                restart[v] = x;
                class_mass += x;
            }
        }
        assert!(class_mass > 0.0, "class {c} has no labeled node");
        for x in &mut restart {
            *x /= class_mass;
        }
        let mut x = restart.clone();
        let mut walk_converged = false;
        let mut walk_iterations = 0;
        for _ in 0..opts.max_iter {
            let scaled: Vec<f64> = (0..n)
                .map(|s| {
                    if degrees[s] > 0.0 {
                        x[s] / degrees[s]
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut delta = 0.0f64;
            for r in 0..n {
                let mut diffused = 0.0f64;
                for (s, w) in adj.row_iter(r) {
                    diffused += w * scaled[s];
                }
                let next = (1.0 - alpha) * diffused + alpha * restart[r];
                let d = next - x[r];
                match opts.norm {
                    ToleranceNorm::MaxAbs => delta = delta.max(d.abs()),
                    ToleranceNorm::L2 => delta += d * d,
                }
                x[r] = next;
            }
            if opts.norm == ToleranceNorm::L2 {
                delta = delta.sqrt();
            }
            let mut mass = 0.0f64;
            for &v in &x {
                mass += v;
            }
            if mass > 0.0 {
                for v in &mut x {
                    *v /= mass;
                }
            }
            walk_iterations += 1;
            if opts.tol > 0.0 && delta < opts.tol {
                walk_converged = true;
                break;
            }
            if !delta.is_finite() {
                break;
            }
        }
        for (v, &score) in x.iter().enumerate() {
            scores[(v, c)] = score;
        }
        converged &= walk_converged;
        iterations = iterations.max(walk_iterations);
    }
    let mut beliefs = Mat::zeros(n, k);
    for v in 0..n {
        let row = scores.row(v);
        if row.iter().any(|&x| x > 0.0) {
            let mut total = 0.0f64;
            for &x in row {
                total += x;
            }
            let mean = total / k as f64;
            for c in 0..k {
                beliefs[(v, c)] = row[c] - mean;
            }
        }
    }
    RwrReference {
        beliefs,
        converged,
        iterations,
    }
}

/// The per-graph invariants a solve reads, recomputed from the CSR entries
/// with plain loops that share no code with the library's builders.
pub struct Invariants {
    /// Rows per frontier block.
    pub block_rows: usize,
    /// `deps[blk][dep]`: some row of block `blk` is in `dep` or gathers
    /// from a row in `dep`.
    pub deps: Vec<Vec<bool>>,
    /// `Σ_t w(s,t)²` per row.
    pub squared_weight_degrees: Vec<f64>,
    /// `Σ_t w(s,t)` per row.
    pub row_sums: Vec<f64>,
}

/// A sum in the workspace's canonical 4-lane order, as a plain loop: term
/// `p` goes to lane `p mod 4`, and the lanes reduce as
/// `(l0 + l1) + (l2 + l3)`.
fn lane_sum(terms: impl Iterator<Item = f64>) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (p, t) in terms.enumerate() {
        lanes[p % 4] += t;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// [`Invariants`] of `adj`, blocked like the library's plan.
pub fn invariants_oracle(adj: &CsrMatrix) -> Invariants {
    let n = adj.n_rows();
    let block_rows = FrontierPlan::block_rows_for(n);
    let n_blocks = n.div_ceil(block_rows);
    let mut deps = vec![vec![false; n_blocks]; n_blocks];
    let mut squared_weight_degrees = Vec::with_capacity(n);
    let mut row_sums = Vec::with_capacity(n);
    for r in 0..n {
        let blk = r / block_rows;
        deps[blk][blk] = true;
        for (c, _) in adj.row_iter(r) {
            deps[blk][c / block_rows] = true;
        }
        squared_weight_degrees.push(lane_sum(adj.row_iter(r).map(|(_, w)| w * w)));
        row_sums.push(lane_sum(adj.row_iter(r).map(|(_, w)| w)));
    }
    Invariants {
        block_rows,
        deps,
        squared_weight_degrees,
        row_sums,
    }
}

/// Asserts `op`'s invariants equal `want` bit for bit, and that each is
/// built once: a second call borrows the same value.
pub fn assert_invariants<A: PropagationOperator + ?Sized>(op: &A, want: &Invariants, label: &str) {
    let plan = op.frontier_plan();
    assert!(
        std::ptr::eq(plan, op.frontier_plan()),
        "{label}: plan rebuilt"
    );
    assert_eq!(plan.n_rows(), op.n_rows(), "{label}: plan rows");
    assert_eq!(plan.block_rows(), want.block_rows, "{label}: block size");
    assert_eq!(plan.n_blocks(), want.deps.len(), "{label}: block count");
    for (blk, row) in want.deps.iter().enumerate() {
        for (dep, &expected) in row.iter().enumerate() {
            // Block `blk` is active under a summary holding only `dep`
            // exactly when it depends on `dep`.
            let mut summary = NodeBitset::new(plan.n_blocks());
            summary.set(dep);
            assert_eq!(
                plan.block_active(blk, &summary),
                expected,
                "{label}: block {blk} on block {dep}"
            );
        }
    }
    for (name, got, again, want) in [
        (
            "squared-weight degrees",
            op.squared_weight_degrees(),
            op.squared_weight_degrees(),
            &want.squared_weight_degrees,
        ),
        ("row sums", op.row_sums(), op.row_sums(), &want.row_sums),
    ] {
        assert!(std::ptr::eq(got, again), "{label}: {name} rebuilt");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{label}: {name}");
    }
}
