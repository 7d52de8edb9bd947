//! Parallel-execution configuration shared by every compute crate.
//!
//! [`ParallelismConfig`] is the single knob the kernels take: a thread
//! count (1 = strictly serial) plus a minimum-work floor below which a
//! kernel stays serial regardless (spawning scoped threads for a 10-entry
//! SpMV would cost orders of magnitude more than the multiply).
//!
//! **Determinism guarantee.** Every parallel kernel in this workspace
//! partitions its *output* into disjoint contiguous regions and computes
//! each region with exactly the serial code, preserving each output
//! element's accumulation order. Results are therefore bitwise identical
//! for every thread count — `LSBP_THREADS=8` reproduces `LSBP_THREADS=1`
//! to the last ulp. Reductions (max-norms, convergence deltas) only ever
//! combine partial results with order-independent operations (`max`).

use std::ops::Range;
use std::sync::OnceLock;

/// Number of task partitions handed to the pool per worker thread; mild
/// oversubscription lets the shared task queue balance uneven partitions.
const PARTS_PER_THREAD: usize = 2;

/// Parses a byte-size string: a non-negative integer with an optional
/// `K`/`M`/`G`/`T` suffix (case-insensitive, binary multiples, optional
/// trailing `B` as in `64KB`). Returns `None` on anything else. Shared
/// by the `LSBP_MEMORY_BUDGET` environment parse and the server's
/// `--memory-budget` flag.
pub fn parse_byte_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    let upper = s.to_ascii_uppercase();
    let body = upper.strip_suffix('B').unwrap_or(&upper);
    let (digits, shift) = match body.as_bytes().last()? {
        b'K' => (&body[..body.len() - 1], 10u32),
        b'M' => (&body[..body.len() - 1], 20),
        b'G' => (&body[..body.len() - 1], 30),
        b'T' => (&body[..body.len() - 1], 40),
        b'0'..=b'9' => (body, 0),
        _ => return None,
    };
    let base: usize = digits.trim().parse().ok()?;
    base.checked_shl(shift).filter(|v| v >> shift == base)
}

/// Parses an `LSBP_MEMORY_BUDGET` override. Returns the budget in bytes
/// (0 = unbudgeted) plus a warning to surface when the variable was set
/// but unusable — a silently swallowed typo here would be a silently
/// unbudgeted run.
pub(crate) fn parse_memory_budget_env(value: Option<&str>) -> (usize, Option<String>) {
    let Some(raw) = value else { return (0, None) };
    match parse_byte_size(raw) {
        Some(bytes) if bytes > 0 => (bytes, None),
        _ => (
            0,
            Some(format!(
                "lsbp: ignoring invalid LSBP_MEMORY_BUDGET={raw:?} (expected a positive \
                 byte count, optionally suffixed K/M/G/T); running unbudgeted"
            )),
        ),
    }
}

/// The process-default pager memory budget in bytes (0 = unbudgeted):
/// `LSBP_MEMORY_BUDGET` if set to a usable byte size, otherwise 0.
/// Parsed exactly once per process; a set-but-invalid value emits a
/// one-time stderr warning instead of being silently swallowed.
pub fn default_memory_budget() -> usize {
    static DEFAULT_BUDGET: OnceLock<usize> = OnceLock::new();
    *DEFAULT_BUDGET.get_or_init(|| {
        let (bytes, warning) =
            parse_memory_budget_env(std::env::var("LSBP_MEMORY_BUDGET").ok().as_deref());
        if let Some(message) = warning {
            eprintln!("{message}");
        }
        bytes
    })
}

/// Default minimum per-kernel work (≈ flops or touched entries) before a
/// kernel goes parallel. The pool spawns scoped OS threads per parallel
/// region (~tens of µs), so the floor is set where one region's compute
/// (~tens of µs at ~1 ns/unit) comfortably exceeds that overhead —
/// kernels in per-iteration hot loops (power iteration, LinBP/BP rounds)
/// must never be slower than the serial code they replaced.
pub const PAR_MIN_WORK: usize = 65_536;

/// How a kernel should execute: how many threads, how much work it
/// takes before threading is worth it, and the pager budget. Copyable
/// and cheap — carried by value inside options structs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismConfig {
    threads: usize,
    min_work: usize,
    /// Pager byte budget for paged (out-of-core) backends; 0 = unbudgeted.
    memory_budget: usize,
}

impl ParallelismConfig {
    /// Strictly serial execution (the reference semantics): one thread,
    /// no memory budget.
    pub const fn serial() -> Self {
        Self {
            threads: 1,
            min_work: PAR_MIN_WORK,
            memory_budget: 0,
        }
    }

    /// Pooled execution on `threads` workers (1 = serial), no memory
    /// budget.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        Self {
            threads: threads.min(rayon::MAX_THREADS),
            min_work: PAR_MIN_WORK,
            memory_budget: 0,
        }
    }

    /// The environment default: `LSBP_THREADS` if set, otherwise the
    /// machine's available parallelism, plus `LSBP_MEMORY_BUDGET`. The
    /// environment is parsed exactly once per
    /// process, at pool initialization (see `rayon::default_num_threads`)
    /// and on the first read of each knob; this call just reads the
    /// cached values.
    ///
    /// Tests that must not depend on the ambient `LSBP_THREADS` have two
    /// documented overrides: construct an explicit config with
    /// [`ParallelismConfig::with_threads`] (per call site), or pin the
    /// process default before anything reads it with
    /// `rayon::set_default_num_threads` (per process — each cargo
    /// integration-test binary is its own process).
    pub fn from_env() -> Self {
        Self {
            threads: rayon::default_num_threads(),
            min_work: PAR_MIN_WORK,
            memory_budget: default_memory_budget(),
        }
    }

    /// Overrides the minimum-work floor (testing/benchmark hook: `1`
    /// forces even tiny kernels through the parallel code path).
    pub fn with_min_work(mut self, min_work: usize) -> Self {
        self.min_work = min_work.max(1);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured minimum-work floor. A floor of `1` is the
    /// documented "force the parallel code path" test/benchmark hook
    /// (see [`ParallelismConfig::with_min_work`]); profitability
    /// heuristics that would otherwise refuse to split (e.g. the CSR
    /// transpose rescan clamp) honor that intent by skipping the clamp.
    pub fn min_work(&self) -> usize {
        self.min_work
    }

    /// Sets the pager byte budget consulted by paged (out-of-core)
    /// storage backends (`lsbp_sparse::PagedCsr`): the target number of
    /// bytes of shard blocks kept resident in the buffer pool. `0`
    /// clears the budget (everything may stay resident). Resident
    /// backends ignore it — the budget caps the *pool*, not the solve's
    /// dense working set.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Configured pager byte budget, or `None` when unbudgeted. Follows
    /// `LSBP_MEMORY_BUDGET` for configs built by
    /// [`ParallelismConfig::from_env`] / [`ParallelismConfig::default`].
    pub fn memory_budget(&self) -> Option<usize> {
        (self.memory_budget > 0).then_some(self.memory_budget)
    }

    /// `true` iff this config never spawns threads.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// The persistent thread pool for this configuration. Pools are
    /// process-shared and cached per thread count (the default count maps
    /// to the lazily-initialized global pool), so per-kernel calls reuse
    /// long-lived parked workers — dispatching a parallel region wakes
    /// residents instead of spawning OS threads.
    pub fn pool(&self) -> rayon::ThreadPool {
        rayon::shared_pool(self.threads)
    }

    /// Number of partitions a kernel with `total_work` units should split
    /// into: 1 (serial) when the config is serial or the work is below
    /// twice the floor, otherwise up to `PARTS_PER_THREAD` tasks per
    /// worker, never so many that a partition drops under the floor.
    pub fn partitions(&self, total_work: usize) -> usize {
        if self.threads <= 1 || total_work < 2 * self.min_work {
            return 1;
        }
        (total_work / self.min_work)
            .min(self.threads * PARTS_PER_THREAD)
            .max(1)
    }
}

impl Default for ParallelismConfig {
    /// Defaults to [`ParallelismConfig::from_env`] — kernels called
    /// through their plain (non-`_with`) entry points follow
    /// `LSBP_THREADS`.
    fn default() -> Self {
        Self::from_env()
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// length. Empty ranges are dropped, so fewer than `parts` ranges come
/// back when `n < parts`.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        // u128 product: `n * (i + 1)` overflows usize for huge `n`,
        // silently mis-partitioning (or panicking in debug).
        let end = (n as u128 * (i as u128 + 1) / parts as u128) as usize;
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    if out.is_empty() && n > 0 {
        out.push(0..n);
    }
    out
}

/// Splits `0..cum.len()-1` items into at most `parts` contiguous ranges of
/// near-equal *weight*, where `cum` is the cumulative weight array
/// (`cum[0] == 0`, `cum[i+1] - cum[i]` = weight of item `i` — exactly the
/// shape of a CSR `row_ptr`). This is the nnz-balanced row partitioner
/// behind the sparse kernels: a range of hub rows ends up with as many
/// stored entries as a long range of leaf rows.
pub fn weight_balanced_ranges(cum: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(!cum.is_empty(), "cumulative weights need a leading 0");
    let n = cum.len() - 1;
    let total = cum[n];
    if total == 0 || parts <= 1 {
        return even_ranges(n, parts);
    }
    // Cut targets are the weight shares `total·(i+1)/parts`. Most cut
    // indices produce no new range when `parts` is huge relative to the
    // items (usize::MAX shards on a 7-row graph), so instead of walking
    // every `i` — O(parts), ~2⁶⁴ empty iterations in that case — jump
    // straight to the smallest `i` whose target lies past the current
    // range's start: the smallest `i` with `total·(i+1)/parts > cum[start]`,
    // i.e. `i + 1 = ⌈(cum[start]+1)·parts/total⌉`. Each emitted range
    // advances `start`, so the loop is O(n · log n) regardless of `parts`.
    let parts = parts as u128;
    let total_w = total as u128;
    let mut out = Vec::with_capacity((parts as usize).min(n));
    let mut start = 0;
    while start < n {
        let i_plus_1 = ((cum[start] as u128 + 1) * parts).div_ceil(total_w);
        if i_plus_1 >= parts {
            // Last share: runs to the end by construction.
            out.push(start..n);
            break;
        }
        let target = (total_w * i_plus_1 / parts) as usize;
        // `target > cum[start]`, so the first index with prefix weight
        // `>= target` is strictly past `start` — every range is non-empty.
        let end = cum.partition_point(|&w| w < target).min(n);
        debug_assert!(end > start);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_never_partitions() {
        let cfg = ParallelismConfig::serial();
        assert!(cfg.is_serial());
        assert_eq!(cfg.partitions(usize::MAX / 4), 1);
    }

    #[test]
    fn partitions_respect_floor_and_cap() {
        let cfg = ParallelismConfig::with_threads(4);
        assert_eq!(cfg.partitions(0), 1);
        assert_eq!(cfg.partitions(PAR_MIN_WORK), 1); // below 2× floor
        assert_eq!(cfg.partitions(PAR_MIN_WORK * 2), 2);
        assert_eq!(cfg.partitions(PAR_MIN_WORK * 100), 8); // 4 threads × 2
        let forced = cfg.with_min_work(1);
        assert_eq!(forced.partitions(3), 3);
        assert_eq!(forced.partitions(1000), 8);
    }

    #[test]
    fn even_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 8, 40] {
                let ranges = even_ranges(n, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn weight_balanced_ranges_cover_and_balance() {
        // 6 items with weights 10, 0, 0, 10, 1, 1 (cum = prefix sums).
        let cum = [0usize, 10, 10, 10, 20, 21, 22];
        for parts in [1usize, 2, 3, 6, 10] {
            let ranges = weight_balanced_ranges(&cum, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, 6);
        }
        // Two parts should split the two heavy items apart.
        let two = weight_balanced_ranges(&cum, 2);
        assert_eq!(two.len(), 2);
        assert!(two[0].end >= 1 && two[0].end <= 4);
    }

    /// More parts than items must terminate promptly and still produce a
    /// clean tiling — the `shards > n_rows` edge. Before the clamp the
    /// cut loop ran O(parts) iterations, so `usize::MAX` parts on a
    /// 4-item array effectively hung.
    #[test]
    fn weight_balanced_more_parts_than_items() {
        let cum = [0usize, 3, 3, 10, 12];
        for parts in [5usize, 64, 65_536, usize::MAX] {
            let ranges = weight_balanced_ranges(&cum, parts);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= 4, "at most one range per item");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "parts={parts}");
                assert!(r.end > r.start, "parts={parts}: no degenerate range");
                next = r.end;
            }
            assert_eq!(next, 4, "parts={parts}: ranges must cover every item");
        }
        // Single item, astronomical parts: one range, immediately.
        assert_eq!(weight_balanced_ranges(&[0, 7], usize::MAX), vec![0..1]);
        // Zero items: nothing, for any parts.
        assert!(weight_balanced_ranges(&[0], usize::MAX).is_empty());
    }

    #[test]
    fn weight_balanced_all_zero_falls_back_to_even() {
        let cum = [0usize, 0, 0, 0, 0];
        let ranges = weight_balanced_ranges(&cum, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], 0..2);
        assert_eq!(ranges[1], 2..4);
    }

    #[test]
    fn default_follows_env_machinery() {
        let cfg = ParallelismConfig::default();
        assert_eq!(cfg.threads(), rayon::default_num_threads());
    }

    #[test]
    fn memory_budget_knob_defaults_and_clears() {
        assert_eq!(ParallelismConfig::serial().memory_budget(), None);
        assert_eq!(ParallelismConfig::with_threads(4).memory_budget(), None);
        let cfg = ParallelismConfig::serial().with_memory_budget(1 << 20);
        assert_eq!(cfg.memory_budget(), Some(1 << 20));
        assert_eq!(cfg.with_memory_budget(0).memory_budget(), None);
    }

    #[test]
    fn parse_byte_size_grammar() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("12345"), Some(12345));
        assert_eq!(parse_byte_size(" 64K "), Some(64 << 10));
        assert_eq!(parse_byte_size("64KB"), Some(64 << 10));
        assert_eq!(parse_byte_size("512m"), Some(512 << 20));
        assert_eq!(parse_byte_size("2G"), Some(2 << 30));
        assert_eq!(parse_byte_size("1T"), Some(1 << 40));
        for bad in ["", "abc", "-3", "1.5", "K", "64Q", "1e6"] {
            assert_eq!(parse_byte_size(bad), None, "{bad:?}");
        }
        // Overflow is rejected, not wrapped.
        assert_eq!(parse_byte_size("999999999999T"), None);
    }

    #[test]
    fn parse_memory_budget_env_rules() {
        // Usable values parse silently.
        assert_eq!(parse_memory_budget_env(None), (0, None));
        assert_eq!(parse_memory_budget_env(Some("65536")), (65536, None));
        assert_eq!(parse_memory_budget_env(Some("64K")), (64 << 10, None));
        // Set-but-unusable values (including 0: a zero-byte pool cannot
        // hold any shard) fall back to unbudgeted AND warn.
        for bad in ["abc", "0", "-3", "", "1.5GBs"] {
            let (bytes, warning) = parse_memory_budget_env(Some(bad));
            assert_eq!(bytes, 0, "LSBP_MEMORY_BUDGET={bad:?} must fall back");
            let warning = warning.expect("invalid value must warn");
            assert!(
                warning.contains("ignoring invalid LSBP_MEMORY_BUDGET"),
                "warning names the variable"
            );
            assert!(warning.contains(bad), "warning echoes the rejected value");
            assert!(
                warning.contains("running unbudgeted"),
                "warning names the fallback"
            );
        }
    }
}
