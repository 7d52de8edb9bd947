//! End-to-end and per-layer benchmark of the LSBP workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|label|label_paged|sql> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every input is generated from `--seed`; the program under test only
//! ever sees those inputs, through its public API. An untraced run
//! (`--trace 0`) measures the end-to-end metrics; a traced run (`--trace
//! 1`) measures the per-layer metrics: it times the workload once with the
//! span recorder off and once with it on (the difference is the tracing
//! overhead), then probes each layer on the workload's own graph. The last
//! line of standard output is the contract line
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! (`report {…}`) carries every named metric, run fact and check, and the
//! same object is written to `perfbench/out/`. `--tiny` shrinks every
//! input so a workload finishes in about a second (the self-tests use it).
//! `METRICS.md` lists each metric with its layer and the end-to-end metric
//! it should move.

mod common;
mod label;
mod layers;
mod report;
mod rng;
mod serve;
mod sql;
mod stats;
mod trace;

use report::{Metric, Report};
use std::path::PathBuf;

/// Everything a workload needs to know about the run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
}

impl Ctx {
    /// Directory for the report and span files (inside the checkout).
    pub fn out_dir(&self) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let _ = std::fs::create_dir_all(&dir);
        dir
    }
}

pub const WORKLOADS: [&str; 4] = ["serve", "label", "label_paged", "sql"];

/// A workload's measured phase, run for `seconds` of measured time.
/// Returns its `query_ms` and `round_ms` after filling the report.
pub type Phase<'a> = dyn FnMut(f64, &mut Report) -> (f64, f64) + 'a;

fn usage() -> ! {
    eprintln!(
        "usage: lsbp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload")
        .and_then(|w| WORKLOADS.into_iter().find(|&known| known == w))
        .unwrap_or_else(|| usage());
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let traced = match value("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    Ctx {
        workload,
        seed,
        seconds,
        traced,
        tiny: args.iter().any(|a| a == "--tiny"),
    }
}

/// Runs one workload end to end and returns its report plus the metrics
/// the contract line owes.
pub fn run(ctx: &Ctx) -> (Report, Vec<Metric>) {
    let mut report = Report::new();
    common::facts(ctx, &mut report);
    match ctx.workload {
        "serve" => serve::run(ctx, &mut report),
        "label" => label::run(ctx, &mut report, false),
        "label_paged" => label::run(ctx, &mut report, true),
        "sql" => sql::run(ctx, &mut report),
        _ => unreachable!("workload names are checked at parse time"),
    }
    report.fact("error_rate", report.error_rate());
    let list: &[(&str, &'static str)] = if ctx.traced {
        &layers::CONTRACT
    } else {
        &report::END_TO_END
    };
    let owed = list
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: report.get(name).unwrap_or(f64::NAN),
            unit,
        })
        .collect();
    (report, owed)
}

fn main() {
    let ctx = parse_args();
    let (report, owed) = run(&ctx);
    let json = report::report_json(ctx.workload, ctx.seed, ctx.traced, &report);
    let file = ctx.out_dir().join(format!(
        "report-{}-seed{}-trace{}.json",
        ctx.workload, ctx.seed, ctx.traced as u8
    ));
    if let Err(e) = std::fs::write(&file, format!("{json}\n")) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    for m in report.named.iter().chain(&report.layers) {
        println!("{:<34} {:>16} {}", m.name, report::num(m.value), m.unit);
    }
    for c in &report.checks {
        let verdict = if c.failed == 0 { "ok" } else { "FAILED" };
        println!(
            "check {}: {verdict} ({} passed, {} failed) {}",
            c.name, c.passed, c.failed, c.detail
        );
    }
    println!("report {json}");
    let mut line_report = report;
    if owed.iter().any(|m| !m.value.is_finite()) {
        // A metric the contract owes could not be measured: say so and
        // fail the run rather than print a partial line.
        line_report.check(
            "all_metrics_measured",
            false,
            "a contract metric is missing",
        );
    }
    println!("{}", report::contract_line(&line_report, &owed));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload completes at tiny size and passes its correctness
    /// gate, untraced and traced, and reports every metric it owes.
    #[test]
    fn tiny_workloads_pass_their_gates() {
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for traced in [false, true] {
            for w in WORKLOADS {
                let ctx = Ctx {
                    workload: w,
                    seed: 3,
                    seconds: 0.3,
                    traced,
                    tiny: true,
                };
                let (report, owed) = run(&ctx);
                let failed: Vec<_> = report.checks.iter().filter(|c| c.failed > 0).collect();
                assert!(
                    report.correct(),
                    "{w} (traced={traced}) failed checks: {failed:?}"
                );
                assert_eq!(
                    report.failed, 0,
                    "{w} (traced={traced}) had failed operations"
                );
                assert!(report.attempted > 0);
                for m in &owed {
                    assert!(
                        m.value.is_finite(),
                        "{w} (traced={traced}) did not measure {}",
                        m.name
                    );
                }
            }
        }
    }
}
