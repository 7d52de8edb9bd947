//! Active-frontier execution for the fused LinBP path — bitwise-exact
//! iteration skipping, tracked per query.
//!
//! LinBP solves converge non-uniformly: after a few iterations most of
//! the graph has *frozen* — a row's inputs are bitwise unchanged from the
//! previous iteration, so the fused step would recompute exactly the
//! value it already holds. Skipping such rows is a pure-function
//! identity, which makes it a rare perf lever that preserves the
//! workspace's bitwise-determinism invariant *exactly*.
//!
//! The machinery:
//!
//! * **changed bits per query** ([`FrontierState`]) — every query of a
//!   batch owns its `n × k` belief buffers and one [`FrontierState`]: a
//!   [`NodeBitset`] of `n` bits, bit `r` set iff the last sweep changed a
//!   single bit of row `r` of that query's beliefs. Queries of a batch
//!   share nothing but the plan, so each query's frontier is exactly the
//!   one its solo solve would have;
//! * the **dependency rule** — row `r` of a query is recomputed iff `r`
//!   itself changed (the residual, the echo term and the damping blend
//!   read the own row) or some column `c` of `A(r,·)` changed (the
//!   gather reads those rows). A frozen query is not in the sweep at
//!   all;
//! * a **block-granular plan** ([`FrontierPlan`]) — rows grouped into
//!   [`FrontierPlan::block_rows`]-sized blocks, each with a precomputed
//!   bitset of the row-blocks it depends on. Each query's per-sweep
//!   *summary* (bit `i` = block `i` holds a changed row) lets whole
//!   blocks be skipped without touching their nnz; the shard walks skip
//!   a shard — and [`crate::PagedCsr`] never faults it in — when the
//!   union of the live queries' summaries leaves it inactive.
//!
//! **Pull or push, per query and sweep.** The dependency rule can be
//! evaluated from either end:
//!
//! * **pull** — every row of every active block tests its own and its
//!   neighbours' changed bits. That is `O(nnz)` bit reads per sweep
//!   however little moved, and on random-like graphs every block stays
//!   active;
//! * **push** — one serial pass over the changed rows sets each such
//!   row's bit and the bit of every column of the row, building the
//!   sweep's active set; the kernels then read one bit per row and skip
//!   every block without an active bit. The pass costs `O(Σ deg)` over
//!   the changed rows plus `O(n/64)` to clear the buffer and summarise
//!   its blocks.
//!
//! Push sends row `c`'s change to the rows in `A(c,·)`, whereas the rule
//! asks for the rows whose `A(r,·)` holds `c`. The two sets agree exactly
//! when the stored sparsity pattern is symmetric (`(r, c)` stored iff
//! `(c, r)` is, whatever the weights), so push only runs on a plan whose
//! operator checked that ([`FrontierPlan::pattern_symmetric`]), and only
//! in sweeps where the query's changed rows have degrees summing to at
//! most `n`: a pull scan reads at least one bit per row, so a push that
//! small never costs more bit operations (the direction-optimizing
//! traversal of Beamer, Asanović & Patterson, SC'12). Everything else
//! pulls: dense sweeps, asymmetric patterns, and the shard-walking
//! backends ([`crate::ShardedCsr`], [`crate::PagedCsr`]), whose per-shard
//! kernels cannot read another shard's rows. Both evaluate the same rule,
//! so the computed rows, bits and counters do not depend on which one
//! ran, nor on what the other queries of the batch chose.
//!
//! **Why skipping is bitwise-exact.** The solver iterates on a double
//! buffer per query, and the kernels never write a row they do not
//! compute. The invariant: *if bit `r` of a live query is clear, both of
//! its buffers hold bit-identical values for row `r`*. A computed row
//! only gets a clear bit when its new bits equal its old bits, and a
//! skipped row touches neither buffer; recomputing a skipped row would
//! reproduce its bits verbatim (same pure function, bitwise identical
//! inputs), and it contributes exactly-0 terms to every residual norm
//! (max or fixed-order L2). A frozen query leaves the sweep, so it costs
//! nothing and its current buffer keeps its final beliefs.
//!
//! **The start from `Ê`.** A solve starts at `B = Ê` with a zeroed second
//! buffer, so [`FrontierState::from_seeds`] marks row `r` only where
//! `Ê`'s row holds a bit other than `+0.0` (`-0.0` included). That is
//! exact: a row whose own and neighbours' rows are all `+0.0` recomputes
//! to `+0.0` (`v·0.0 = ±0.0`, `+0.0 + ±0.0 = +0.0`, and the `Ĥ`/echo
//! terms skip zeros), which both buffers already hold. The argument needs
//! finite weights and degrees (`∞·0.0` is NaN); when they are not, the
//! solver starts all-changed ([`FrontierState::new`]), so the first sweep
//! computes every row as full recomputation would. Starting from the
//! seeds is what makes edge-delta patches cheap: their delta seeds sit
//! on the changed edges' endpoints.
//!
//! Outputs, iteration counts and convergence points are bitwise
//! identical to full recomputation at any shard × thread × budget ×
//! batch combination: `tests/frontier.rs` and `tests/fused_linbp.rs`
//! check them against the plain-loop oracle in `tests/support`, which
//! recomputes every row every sweep, and every unwritten live row is
//! `debug_assert`ed. A step that must compute every row runs the same
//! kernels from [`FrontierState::new`]
//! ([`crate::PropagationOperator::linbp_step_fused_with`]).

use crate::csr::CsrMatrix;
use lsbp_linalg::Mat;

/// A fixed-length bitset over node (row) or block indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeBitset {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitset {
    /// An all-zero bitset over `len` indices.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the bitset covers zero indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Sets every bit (trailing padding bits in the last word stay
    /// clear, so `count_ones` and word-level scans remain exact).
    pub fn fill(&mut self) {
        self.words.iter_mut().for_each(|w| *w = !0);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = !0 >> (64 - tail);
            }
        }
    }

    /// `self |= other` over the word range `words` (lengths must match) —
    /// the order-independent merge of a parallel task's partial bitset,
    /// whose task wrote nothing outside that range.
    pub fn or_assign_words(&mut self, other: &NodeBitset, words: std::ops::Range<usize>) {
        debug_assert_eq!(self.len, other.len, "bitset length mismatch");
        for (w, &o) in self.words[words.clone()]
            .iter_mut()
            .zip(&other.words[words])
        {
            *w |= o;
        }
    }

    /// The indices of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut m = word;
            std::iter::from_fn(move || {
                (m != 0).then(|| {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    64 * w + bit
                })
            })
        })
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff `self ∩ other ≠ ∅` (lengths must match).
    #[inline]
    pub fn intersects(&self, other: &NodeBitset) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// The backing words (64 indices per word, LSB first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The static dependency plan of one graph: rows grouped into
/// `block_rows`-sized blocks, each block carrying the bitset of row
/// blocks any of its rows gathers from (its own block always included —
/// the residual/echo/damping terms read the own row). Built once per
/// operator in `O(nnz)` ([`crate::PropagationOperator::frontier_plan`]
/// caches it) and borrowed by every solve; per-iteration block tests are
/// a couple of word ANDs against the summary bitset.
#[derive(Clone, Debug)]
pub struct FrontierPlan {
    n_rows: usize,
    /// Rows per block — always a multiple of 64 so every word of a
    /// row-bitset maps to exactly one block.
    block_rows: usize,
    /// Per block: the set of blocks it depends on.
    deps: Vec<NodeBitset>,
    /// Whether the operator's stored sparsity pattern is symmetric, which
    /// lets a sweep push its changes instead of pulling them.
    symmetric: bool,
}

impl FrontierPlan {
    /// The block size used for an `n`-row graph: a power of two between
    /// 64 and 4096, aiming for a few hundred blocks so block tests stay
    /// a handful of words while shard-granular skips remain possible on
    /// small graphs.
    pub fn block_rows_for(n: usize) -> usize {
        (n / 256).next_power_of_two().clamp(64, 4096)
    }

    /// An empty plan (no dependencies recorded yet) for an `n`-row graph.
    pub fn empty(n_rows: usize, block_rows: usize) -> Self {
        assert!(
            block_rows >= 64 && block_rows.is_multiple_of(64),
            "block_rows must be a positive multiple of 64"
        );
        let n_blocks = n_rows.div_ceil(block_rows);
        let mut deps = vec![NodeBitset::new(n_blocks); n_blocks];
        // Every row reads its own row (residual, echo, damping), so a
        // block always depends on itself — recorded up front rather than
        // left to the builder.
        for (blk, dep) in deps.iter_mut().enumerate() {
            dep.set(blk);
        }
        Self {
            n_rows,
            block_rows,
            deps,
            symmetric: false,
        }
    }

    /// Records whether the operator's stored sparsity pattern is
    /// symmetric. Only a builder that walked the whole pattern in one
    /// piece can say so; plans start out saying no.
    pub(crate) fn set_pattern_symmetric(&mut self, symmetric: bool) {
        self.symmetric = symmetric;
    }

    /// Whether the operator's stored sparsity pattern is symmetric (`(c,
    /// r)` stored for every stored `(r, c)`, whatever the values), so
    /// that a sparse sweep may push its changes to the dependent rows
    /// (see the module docs). A [`CsrMatrix`] checks its pattern when it
    /// builds its plan; [`FrontierPlan::empty`] and plans built shard by
    /// shard say `false`.
    pub fn pattern_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Folds one adjacency row into the plan: row `r` (global) depends on
    /// its own block and on the block of every column it gathers from.
    #[inline]
    pub fn add_row(&mut self, r: usize, cols: &[u32]) {
        let blk = r / self.block_rows;
        self.deps[blk].set(blk);
        for &c in cols {
            self.deps[blk].set(c as usize / self.block_rows);
        }
    }

    /// Number of rows covered.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows per block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of row blocks.
    pub fn n_blocks(&self) -> usize {
        self.deps.len()
    }

    /// Whether any row of block `blk` may need recomputation, given the
    /// summary bitset of the last committed iteration (bit `i` = block
    /// `i` contains a changed row): the block is active iff it depends on
    /// any changed block.
    #[inline]
    pub fn block_active(&self, blk: usize, summary: &NodeBitset) -> bool {
        self.deps[blk].intersects(summary)
    }

    /// Whether every block overlapping the global row range `rows` is
    /// inactive — the shard-granular skip test ([`crate::ShardedCsr`]
    /// skips the shard's kernel region entirely; [`crate::PagedCsr`]
    /// additionally never faults the shard back in).
    pub fn range_inactive(&self, rows: std::ops::Range<usize>, summary: &NodeBitset) -> bool {
        if rows.is_empty() {
            return true;
        }
        let first = rows.start / self.block_rows;
        let last = (rows.end - 1) / self.block_rows;
        (first..=last).all(|blk| !self.block_active(blk, summary))
    }
}

/// One query's frontier for one solve: the borrowed plan, the rows the
/// last committed sweep changed and their block summary, the scratch
/// bits the next sweep records into, the push-mode buffers, the sweep's
/// read-outs, and the cumulative row counters surfaced through
/// `Health`/`Stats`.
///
/// The sweep protocol: the fused step
/// ([`crate::PropagationOperator::linbp_step_fused_frontier_with`])
/// clears the scratch and read-outs, records into them, and the caller
/// then [`FrontierState::commit`]s the sweep.
#[derive(Clone, Debug)]
pub struct FrontierState<'p> {
    plan: &'p FrontierPlan,
    changed: NodeBitset,
    summary: NodeBitset,
    scratch: NodeBitset,
    /// The push-mode active set, reused by every sweep that pushes.
    push: PushSet,
    /// Rows computed by the current sweep.
    step_active: u64,
    /// `max |new|` over the rows the current sweep computed.
    magnitude: f64,
    /// Rows computed across committed sweeps.
    pub rows_active: u64,
    /// Rows skipped across committed sweeps (inputs bitwise unchanged).
    pub rows_skipped: u64,
}

impl<'p> FrontierState<'p> {
    fn with_changed(plan: &'p FrontierPlan, changed: NodeBitset) -> Self {
        let mut state = Self {
            plan,
            scratch: NodeBitset::new(changed.len()),
            push: PushSet::new(plan),
            changed,
            summary: NodeBitset::new(plan.n_blocks()),
            step_active: 0,
            magnitude: 0.0,
            rows_active: 0,
            rows_skipped: 0,
        };
        block_summary(&state.changed, plan, &mut state.summary);
        state
    }

    /// State with every row marked changed, so the first sweep computes
    /// every row (establishing the double-buffer invariant from any
    /// start), after which real change bits take over.
    pub fn new(plan: &'p FrontierPlan) -> Self {
        let mut changed = NodeBitset::new(plan.n_rows());
        changed.fill();
        Self::with_changed(plan, changed)
    }

    /// State for a solve that starts at `B = Ê` with a zeroed second
    /// buffer: row `r` is marked iff row `r` of `Ê` holds a bit other
    /// than `+0.0`. Exact only when the fused step maps all-`+0.0`
    /// inputs to `+0.0` outputs, i.e. when every weight (and, with echo,
    /// every squared-weight degree) is finite — the caller checks that
    /// and falls back to [`FrontierState::new`].
    pub fn from_seeds(plan: &'p FrontierPlan, e_hat: &Mat) -> Self {
        let mut changed = NodeBitset::new(plan.n_rows());
        for r in 0..e_hat.rows() {
            if e_hat.row(r).iter().any(|x| x.to_bits() != 0) {
                changed.set(r);
            }
        }
        Self::with_changed(plan, changed)
    }

    /// The dependency plan.
    pub fn plan(&self) -> &'p FrontierPlan {
        self.plan
    }

    /// Rows changed by the last committed sweep.
    pub fn changed(&self) -> &NodeBitset {
        &self.changed
    }

    /// Block summary of [`FrontierState::changed`]: bit `i` = block `i`
    /// holds a changed row.
    pub fn summary(&self) -> &NodeBitset {
        &self.summary
    }

    /// `max |new|` over the rows the last sweep computed — the divergence
    /// guard's read-out. A row the sweep skipped holds `+0.0` or a value
    /// an earlier sweep computed (and the guard then checked), so
    /// comparing this against the guard decides exactly like a full
    /// `max |B|` pass.
    pub fn magnitude(&self) -> f64 {
        self.magnitude
    }

    /// Starts a sweep: clears the scratch bits and the read-outs.
    pub(crate) fn begin(&mut self) {
        self.scratch.clear();
        self.step_active = 0;
        self.magnitude = 0.0;
    }

    /// Commits one sweep: the scratch bits become the committed changed
    /// set, the block summary is rebuilt (`O(n/64)`), and the computed
    /// rows fold into `rows_active`, the rest into `rows_skipped`.
    pub fn commit(&mut self) {
        std::mem::swap(&mut self.changed, &mut self.scratch);
        block_summary(&self.changed, self.plan, &mut self.summary);
        self.rows_active += self.step_active;
        self.rows_skipped += self.plan.n_rows() as u64 - self.step_active;
    }

    /// The sweep's row test and the bits it records into: push mode from
    /// the whole operator `m` when [`FrontierState::push_from`] allows
    /// it, else pull.
    pub(crate) fn sweep_parts(&mut self, push_from: Option<&CsrMatrix>) -> FrontierTask<'_> {
        let pushed = push_from.is_some_and(|m| self.push_from(m));
        let test = if pushed {
            RowTest::Push {
                active: &self.push.active,
                blocks: &self.push.blocks,
            }
        } else {
            RowTest::Pull {
                changed: &self.changed,
                summary: &self.summary,
            }
        };
        FrontierTask::new(test, &mut self.scratch)
    }

    /// Folds one sweep's merged read-outs into the state.
    pub(crate) fn record_sweep(&mut self, active: u64, magnitude: f64) {
        self.step_active += active;
        self.magnitude = self.magnitude.max(magnitude);
    }

    /// Push mode for a sweep of the whole operator `m`: when the plan's
    /// pattern is symmetric and the changed rows have degrees summing to
    /// at most `n`, expands the committed changed bits into this sweep's
    /// active set — row `r` and every column of `A(r,·)` for each changed
    /// `r` — and its block summary, and returns `true`. Otherwise touches
    /// nothing and returns `false`: the sweep pulls. Either way the same
    /// rows are computed (see the module docs).
    fn push_from(&mut self, m: &CsrMatrix) -> bool {
        if !self.plan.pattern_symmetric() {
            return false;
        }
        debug_assert_eq!(
            m.n_rows(),
            self.plan.n_rows(),
            "push needs the whole operator"
        );
        let mut budget = m.n_rows();
        for r in self.changed.ones() {
            match budget.checked_sub(m.row_nnz(r)) {
                Some(rest) => budget = rest,
                None => return false,
            }
        }
        let push = &mut self.push;
        push.active.clear();
        for r in self.changed.ones() {
            push.active.set(r);
            for &c in m.row_cols(r) {
                push.active.set(c as usize);
            }
        }
        block_summary(&push.active, self.plan, &mut push.blocks);
        true
    }
}

/// Sets summary bit `i` iff block `i` of the row bitset `bits` holds a
/// set bit. A block covers `block_rows` bits, a whole number of words.
fn block_summary(bits: &NodeBitset, plan: &FrontierPlan, summary: &mut NodeBitset) {
    summary.clear();
    let block_words = plan.block_rows() / 64;
    for (w, &word) in bits.words().iter().enumerate() {
        if word != 0 {
            summary.set(w / block_words);
        }
    }
}

/// The reusable buffers of push mode: the rows a pushed sweep computes
/// and their block summary. Allocated only for a plan whose pattern is
/// symmetric.
#[derive(Clone, Debug, Default)]
struct PushSet {
    active: NodeBitset,
    blocks: NodeBitset,
}

impl PushSet {
    fn new(plan: &FrontierPlan) -> Self {
        if !plan.pattern_symmetric() {
            return Self::default();
        }
        Self {
            active: NodeBitset::new(plan.n_rows()),
            blocks: NodeBitset::new(plan.n_blocks()),
        }
    }
}

/// How a frontier sweep selects the rows it computes — both variants
/// evaluate the same dependency rule (see the module docs).
#[derive(Clone, Copy)]
pub(crate) enum RowTest<'a> {
    /// A row tests its own and its neighbours' committed changed bits; a
    /// block runs iff the plan says it depends on a block of `summary`.
    Pull {
        changed: &'a NodeBitset,
        summary: &'a NodeBitset,
    },
    /// A row reads its own bit of the pushed active set; a block runs iff
    /// `blocks` marks it.
    Push {
        active: &'a NodeBitset,
        blocks: &'a NodeBitset,
    },
}

impl RowTest<'_> {
    /// Whether any row of block `blk` may be computed this sweep.
    #[inline]
    pub(crate) fn block_active(&self, plan: &FrontierPlan, blk: usize) -> bool {
        match *self {
            RowTest::Pull { summary, .. } => plan.block_active(blk, summary),
            RowTest::Push { blocks, .. } => blocks.get(blk),
        }
    }

    /// The dependency rule for one row: recompute iff the row itself
    /// changed or any of its in-row column dependencies changed (pull,
    /// early exit on the first hit), i.e. iff the pushed active set holds
    /// the row.
    #[inline]
    pub(crate) fn row_active(&self, m: &CsrMatrix, local: usize, global: usize) -> bool {
        match *self {
            RowTest::Pull { changed, .. } => {
                changed.get(global) || m.row_cols(local).iter().any(|&c| changed.get(c as usize))
            }
            RowTest::Push { active, .. } => active.get(global),
        }
    }
}

/// One query's frontier work in one row-kernel call: the sweep's row
/// test, the changed bits the call records into, and its read-outs.
/// Serial callers point `bits` at the query's own scratch bits; parallel
/// tasks use task-local bitsets merged afterwards (bit-OR, sums and
/// maxima are order-independent, so the merged result equals the serial
/// one).
pub(crate) struct FrontierTask<'a> {
    pub test: RowTest<'a>,
    pub bits: &'a mut NodeBitset,
    /// Rows computed.
    pub active: u64,
    /// Max-abs belief change over the computed rows.
    pub delta: f64,
    /// `max |new|` over the computed rows (`f64::max`, so NaN entries
    /// are ignored like [`lsbp_linalg::Mat::max_abs`]).
    pub magnitude: f64,
}

impl<'a> FrontierTask<'a> {
    pub(crate) fn new(test: RowTest<'a>, bits: &'a mut NodeBitset) -> Self {
        Self {
            test,
            bits,
            active: 0,
            delta: 0.0,
            magnitude: 0.0,
        }
    }
}

/// A row a sweep did not write must already hold, in the output buffer,
/// exactly the bits of the current beliefs — i.e. skipping really does
/// leave what a recomputation would produce.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_skip_invariant(global: usize, out_row: &[f64], b_row: &[f64]) {
    assert!(
        out_row
            .iter()
            .zip(b_row)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "frontier skip invariant violated at row {global}: \
         output buffer differs from current beliefs"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn bitset_basics() {
        let mut b = NodeBitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.ones().collect::<Vec<_>>(), [0, 63, 64, 129]);
        let mut o = NodeBitset::new(130);
        o.set(1);
        assert!(!o.intersects(&NodeBitset::new(130)));
        o.or_assign_words(&b, 0..b.words().len());
        assert_eq!(o.count_ones(), 5);
        assert!(o.intersects(&b));
        o.clear();
        assert_eq!(o.count_ones(), 0);
        o.fill();
        assert!(o.get(129) && o.get(0));
        assert!(NodeBitset::new(0).is_empty());
    }

    #[test]
    fn block_rows_heuristic_bounds() {
        for n in [0usize, 1, 63, 64, 512, 5_000, 1 << 20, 1 << 24] {
            let bs = FrontierPlan::block_rows_for(n);
            assert!(
                (64..=4096).contains(&bs) && bs.is_multiple_of(64),
                "n={n}: {bs}"
            );
        }
        assert_eq!(FrontierPlan::block_rows_for(512), 64);
        assert_eq!(FrontierPlan::block_rows_for(1 << 22), 4096);
    }

    #[test]
    fn plan_dependencies_and_block_tests() {
        // 3 blocks of 64 rows; row 0 gathers from rows 70 and 130, row
        // 100 only from row 1.
        let mut plan = FrontierPlan::empty(192, 64);
        assert_eq!(plan.n_blocks(), 3);
        plan.add_row(0, &[70, 130]);
        plan.add_row(100, &[1]);
        let mut summary = NodeBitset::new(3);
        // Nothing changed: every block is inactive.
        for blk in 0..3 {
            assert!(!plan.block_active(blk, &summary));
        }
        assert!(plan.range_inactive(0..192, &summary));
        // A change in block 2 activates block 0 (row 0 depends on it)
        // but not block 1 (row 100 depends only on block 0).
        summary.set(2);
        assert!(plan.block_active(0, &summary));
        assert!(!plan.block_active(1, &summary));
        assert!(plan.block_active(2, &summary)); // self-dependency
        assert!(!plan.range_inactive(0..64, &summary));
        assert!(plan.range_inactive(64..128, &summary));
        assert!(plan.range_inactive(64..64, &summary), "empty range");
    }

    #[test]
    fn state_lifecycle_first_iteration_all_active() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push_symmetric(0, 1, 1.0);
        let m = coo.to_csr();
        let plan = {
            use crate::operator::PropagationOperator;
            PropagationOperator::frontier_plan(&m)
        };
        let mut st = FrontierState::new(plan);
        // Fresh state: everything marked changed.
        assert_eq!(st.changed().count_ones(), 4);
        // Simulate: only row 2 changed this sweep, all 4 computed.
        st.begin();
        st.scratch.set(2);
        st.record_sweep(4, 0.5);
        st.commit();
        assert_eq!(st.changed().count_ones(), 1);
        assert!(st.changed().get(2));
        assert_eq!((st.rows_active, st.magnitude()), (4, 0.5));
        // Summary reflects the block holding row 2.
        assert!(plan.block_active(0, st.summary()));
        st.begin();
        st.commit();
        // Nothing changed: summary empty, every range inactive.
        assert!(plan.range_inactive(0..4, st.summary()));
        assert_eq!(st.rows_skipped, 4);
    }

    /// Seeds mark every row holding a bit other than `+0.0` (`-0.0`
    /// included), across a word boundary; a sweep counts its computed
    /// rows as active and the rest as skipped.
    #[test]
    fn per_query_bits_and_counters() {
        let mut coo = CooMatrix::new(70, 70);
        coo.push_symmetric(0, 69, 1.0);
        let m = coo.to_csr();
        let plan = {
            use crate::operator::PropagationOperator;
            PropagationOperator::frontier_plan(&m)
        };
        // Row 21 holds a seed, row 64 a -0.0; +0.0 marks nothing.
        let mut e = Mat::zeros(70, 2);
        e[(21, 0)] = 0.5;
        e[(64, 1)] = -0.0;
        let mut st = FrontierState::from_seeds(plan, &e);
        assert_eq!(st.changed().len(), 70);
        assert_eq!(st.changed().count_ones(), 2);
        assert!(st.changed().get(21) && st.changed().get(64));
        st.begin();
        st.record_sweep(7, 0.0);
        st.commit();
        assert_eq!((st.rows_active, st.rows_skipped), (7, 63));
        assert_eq!(st.changed().count_ones(), 0, "narrows to what changed");
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_block_rows_rejected() {
        let _ = FrontierPlan::empty(100, 100);
    }
}
