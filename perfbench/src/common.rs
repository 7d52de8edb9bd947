//! Helpers every workload shares: run facts, the setup loop, timers,
//! memory, answer fingerprints and generated labels.

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::block_median;
use crate::trace::span;
use crate::Ctx;
use lsbp::prelude::*;
use lsbp_linalg::Mat;
use std::time::Instant;

/// Set-up is repeated [`SETUP_REPS`] times per run, or, once it has run
/// [`SETUP_MIN_REPS`] times, until [`SETUP_SECONDS`] have passed;
/// `setup_s` is the block median of the repetitions.
pub const SETUP_REPS: usize = 31;
pub const SETUP_MIN_REPS: usize = 11;
pub const SETUP_SECONDS: f64 = 3.0;

/// Records the facts every report carries.
pub fn facts(ctx: &Ctx, r: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.fact("nproc", nproc);
    r.fact("threads", ParallelismConfig::from_env().threads());
    r.fact("seconds", ctx.seconds);
    r.fact("tiny", ctx.tiny);
}

/// Seconds elapsed running `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `setup` repeatedly (each a full, independent set-up; see
/// [`SETUP_REPS`]), records `setup_s` as the block median, and keeps the
/// last result. Earlier results are dropped before the next set-up starts.
pub fn repeated_setup<S>(r: &mut Report, mut setup: impl FnMut() -> S) -> S {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.len() < SETUP_REPS && secs.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let (s, t) = timed(|| span("bench.setup", 0, &mut setup));
        secs.push(t);
        last = Some(s);
    }
    r.named("setup_s", block_median(&secs), "s");
    let reps: Vec<String> = secs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    r.fact("setup_reps_ms", reps.join(" "));
    last.expect("SETUP_REPS >= 1")
}

/// Runs `body` repeatedly until `seconds` of its own time have passed (at
/// least `min_reps` times), returning per-call seconds.
pub fn repeat_for(seconds: f64, min_reps: usize, mut body: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::new();
    let mut total = 0.0;
    while total < seconds || out.len() < min_reps {
        let (_, t) = timed(&mut body);
        total += t;
        out.push(t);
    }
    out
}

/// Process peak resident memory (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A word-at-a-time hash of the bit patterns: equal fingerprints mean
/// (with overwhelming probability) bitwise-equal answers. Cheap enough to
/// run inside a responder.
pub fn fingerprint(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ xs.len() as u64;
    for x in xs {
        h = (h ^ x.to_bits())
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(29);
    }
    h
}

/// Whether two matrices are bitwise equal.
pub fn bitwise_eq(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest absolute entry difference.
pub fn max_abs_diff(a: &Mat, b: &Mat) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// `count` distinct nodes labelled with a centred one-hot of their class
/// (`class_of(v)`), drawn from `rng`.
pub fn draw_labels(
    rng: &mut Rng,
    n: usize,
    k: usize,
    count: usize,
    class_of: impl Fn(usize) -> usize,
    skip: impl Fn(usize) -> bool,
) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    let mut placed = 0;
    while placed < count.min(n) {
        let v = rng.below(n);
        if skip(v) || e.is_explicit(v) {
            continue;
        }
        e.set_label(v, class_of(v), 1.0)
            .expect("label indices are in range");
        placed += 1;
    }
    e
}

/// The residual coupling the Kronecker workloads use (Fig. 6b's `Ĥo`
/// scaled by ε = 0.0005, as in the paper's timing experiments).
pub fn kronecker_h() -> (Mat, Mat) {
    let ho = CouplingMatrix::fig6b_residual();
    (ho.scale(0.0005), ho)
}
