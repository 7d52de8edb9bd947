//! Active-frontier execution for the fused LinBP path — bitwise-exact
//! iteration skipping.
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
//! * a **changed-node bitset** ([`NodeBitset`]) — bit `r` set iff row
//!   `r`'s belief block changed a single bit in the last committed
//!   iteration (computed for free inside the fused residual pass);
//! * the **dependency rule** — row `r` must be recomputed iff `r` itself
//!   changed (the residual `|new − old|`, the echo term and the damping
//!   blend all read the own row) or any column in `r`'s adjacency row
//!   changed (the gather reads those belief rows);
//! * a **block-granular plan** ([`FrontierPlan`]) — rows grouped into
//!   [`FrontierPlan::block_rows`]-sized blocks, each with a precomputed
//!   bitset of the row-blocks it depends on, so a per-iteration *summary*
//!   bitset (bit `i` = any changed row in block `i`) lets whole blocks —
//!   and whole shards, and for [`crate::PagedCsr`] whole on-disk pages —
//!   be skipped without touching their nnz at all.
//!
//! **Why skipping is bitwise-exact.** The solver iterates on a double
//! buffer, so a skipped row's output slot still holds that row's value
//! from two iterations ago. The invariant making that correct: *if row
//! `r`'s changed bit is clear, both buffers hold bit-identical values for
//! row `r`* (on every column block still being solved). By induction: the
//! first iteration computes every row, and a computed row only gets a
//! clear bit when its new bits equal its old bits — at which point the
//! buffers agree — while a skipped row touches neither buffer. A skipped
//! row therefore needs no copy-forward at all, contributes exactly-0
//! terms to every residual norm (max or fixed-order L2), and recomputing
//! it would reproduce its bits verbatim (same pure function, bitwise
//! identical inputs). Outputs, iteration counts and convergence points
//! are bitwise identical to full recomputation at any frontier × shard ×
//! thread × budget combination (property-tested in `tests/frontier.rs`
//! and `debug_assert`ed on every skipped row).

use crate::csr::CsrMatrix;

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

    /// `self |= other` (lengths must match) — the order-independent merge
    /// the parallel tasks' partial changed-bitsets combine with.
    pub fn or_assign(&mut self, other: &NodeBitset) {
        debug_assert_eq!(self.len, other.len, "bitset length mismatch");
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
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
        }
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

    /// The block holding row `r`.
    #[inline]
    pub fn block_of(&self, r: usize) -> usize {
        r / self.block_rows
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

/// Per-solve frontier state owned by a solver op: the borrowed plan, the
/// committed changed/summary bitsets of the last iteration, the scratch
/// bitset the next iteration's changed bits accumulate into, and the
/// cumulative skip/active row counters surfaced through `Health`/`Stats`.
#[derive(Clone, Debug)]
pub struct FrontierState<'p> {
    plan: &'p FrontierPlan,
    changed: NodeBitset,
    summary: NodeBitset,
    scratch: NodeBitset,
    /// Total row recomputations across committed iterations.
    pub rows_active: u64,
    /// Total rows skipped (inputs bitwise unchanged) across committed
    /// iterations.
    pub rows_skipped: u64,
}

impl<'p> FrontierState<'p> {
    /// Fresh state for one solve: everything marked changed, so the first
    /// iteration computes every row (establishing the double-buffer
    /// invariant), after which real change bits take over.
    pub fn new(plan: &'p FrontierPlan) -> Self {
        let n = plan.n_rows();
        let mut changed = NodeBitset::new(n);
        changed.fill();
        let mut summary = NodeBitset::new(plan.n_blocks());
        summary.fill();
        let scratch = NodeBitset::new(n);
        Self {
            plan,
            changed,
            summary,
            scratch,
            rows_active: 0,
            rows_skipped: 0,
        }
    }

    /// The dependency plan.
    pub fn plan(&self) -> &'p FrontierPlan {
        self.plan
    }

    /// Rows changed by the last committed iteration.
    pub fn changed(&self) -> &NodeBitset {
        &self.changed
    }

    /// Begins one iteration: clears the scratch bitset and hands out the
    /// borrowed per-step context the frontier-aware fused step fills in.
    /// `active_cols` masks which `k`-column query blocks participate in
    /// change detection (`None` = all) — the batched solver passes its
    /// not-frozen mask, which is exact because the update is
    /// block-diagonal per query and the frozen set only grows.
    pub fn begin<'a>(&'a mut self, active_cols: Option<&'a [bool]>) -> FrontierStep<'a> {
        self.scratch.clear();
        FrontierStep {
            plan: self.plan,
            changed: &self.changed,
            summary: &self.summary,
            next_changed: &mut self.scratch,
            active_cols,
            rows_active: 0,
            rows_skipped: 0,
        }
    }

    /// Commits one iteration: the scratch bits become the committed
    /// changed set, the block summary is rebuilt (`O(n/64)`), and the
    /// step's counters fold into the totals. `rows_active`/`rows_skipped`
    /// are the counters read out of the consumed [`FrontierStep`].
    pub fn commit(&mut self, rows_active: u64, rows_skipped: u64) {
        std::mem::swap(&mut self.changed, &mut self.scratch);
        self.summary.clear();
        let block_words = self.plan.block_rows() / 64;
        for (w, &word) in self.changed.words().iter().enumerate() {
            if word != 0 {
                self.summary.set(w / block_words);
            }
        }
        self.rows_active += rows_active;
        self.rows_skipped += rows_skipped;
    }
}

/// The borrowed per-iteration context a frontier-aware fused step runs
/// against: the last iteration's change information (inputs), the bitset
/// this iteration's changed rows accumulate into, the query-block mask,
/// and the step's row counters. Produced by [`FrontierState::begin`];
/// read the counters back and [`FrontierState::commit`] after the step.
pub struct FrontierStep<'a> {
    /// Static block-dependency plan.
    pub plan: &'a FrontierPlan,
    /// Rows changed by the last committed iteration (global indices).
    pub changed: &'a NodeBitset,
    /// Block summary of `changed` (bit `i` = block `i` has a changed row).
    pub summary: &'a NodeBitset,
    /// Output: rows whose active column blocks changed this iteration.
    /// Cleared by [`FrontierState::begin`]; parallel tasks merge partial
    /// bitsets into it with the order-independent OR.
    pub next_changed: &'a mut NodeBitset,
    /// Which `k`-column query blocks participate in change detection
    /// (`None` = all).
    pub active_cols: Option<&'a [bool]>,
    /// Rows recomputed by this step.
    pub rows_active: u64,
    /// Rows skipped by this step.
    pub rows_skipped: u64,
}

/// The per-task slice of frontier work handed into the row kernels: the
/// read-only change information plus a (possibly partial, task-local)
/// changed-bit accumulator and counters. Serial callers point `bits` at
/// the shared `next_changed`; parallel tasks use task-local bitsets that
/// are OR-merged afterwards (bit-OR is order-independent, so the merged
/// set equals the serial one exactly).
pub(crate) struct FrontierTask<'a> {
    pub changed: &'a NodeBitset,
    pub bits: &'a mut NodeBitset,
    pub active_cols: Option<&'a [bool]>,
    pub k: usize,
    pub rows_active: u64,
    pub rows_skipped: u64,
}

impl FrontierTask<'_> {
    /// The dependency rule for one row: recompute iff the row itself
    /// changed or any of its in-row column dependencies changed (early
    /// exit on the first hit).
    #[inline]
    pub fn row_active(&self, m: &CsrMatrix, local_row: usize, global_row: usize) -> bool {
        self.changed.get(global_row)
            || m.row_cols(local_row)
                .iter()
                .any(|&c| self.changed.get(c as usize))
    }

    /// Records a computed row's changed bit: set iff any *active* column
    /// block's bits differ between the new and old row.
    #[inline]
    pub fn record(&mut self, global_row: usize, new_row: &[f64], old_row: &[f64]) {
        self.rows_active += 1;
        if self.blocks_differ(new_row, old_row) {
            self.bits.set(global_row);
        }
    }

    /// Bitwise row comparison restricted to active query blocks.
    #[inline]
    fn blocks_differ(&self, new_row: &[f64], old_row: &[f64]) -> bool {
        debug_assert_eq!(new_row.len(), old_row.len());
        match self.active_cols {
            None => new_row
                .iter()
                .zip(old_row)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            Some(mask) => mask.iter().enumerate().any(|(blk, &on)| {
                on && new_row[blk * self.k..(blk + 1) * self.k]
                    .iter()
                    .zip(&old_row[blk * self.k..(blk + 1) * self.k])
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            }),
        }
    }

    /// Debug-only check of the skip invariant: a skipped row's output
    /// slot (holding the value from two iterations ago, via the double
    /// buffer) must be bit-identical to its current value on every active
    /// column block — i.e. skipping really does leave the exact bits a
    /// recomputation would have produced.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub fn debug_assert_skip_invariant(&self, global_row: usize, out_row: &[f64], b_row: &[f64]) {
        debug_assert!(
            !self.blocks_differ(out_row, b_row),
            "frontier skip invariant violated at row {global_row}: \
             output buffer differs from current beliefs on an active block"
        );
        let _ = (global_row, out_row, b_row);
    }
}

/// Reference changed-bit computation over a full output: compares every
/// row (active column blocks only) and sets bits for rows that changed.
/// This is the semantics any skipping implementation must reproduce —
/// used by the default (non-skipping) trait implementation and as the
/// test oracle.
pub fn record_changed_full(
    fr: &mut FrontierStep<'_>,
    b: &lsbp_linalg::Mat,
    out: &lsbp_linalg::Mat,
    k: usize,
) {
    let n = b.rows();
    for r in 0..n {
        let (new_row, old_row) = (out.row(r), b.row(r));
        let differs = match fr.active_cols {
            None => new_row
                .iter()
                .zip(old_row)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            Some(mask) => mask.iter().enumerate().any(|(blk, &on)| {
                on && new_row[blk * k..(blk + 1) * k]
                    .iter()
                    .zip(&old_row[blk * k..(blk + 1) * k])
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            }),
        };
        if differs {
            fr.next_changed.set(r);
        }
    }
    fr.rows_active += n as u64;
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
        let mut o = NodeBitset::new(130);
        o.set(1);
        assert!(!o.intersects(&NodeBitset::new(130)));
        o.or_assign(&b);
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
        {
            let step = st.begin(None);
            // Simulate: only row 2 changed this iteration.
            step.next_changed.set(2);
        }
        st.commit(4, 0);
        assert_eq!(st.changed().count_ones(), 1);
        assert!(st.changed().get(2));
        assert_eq!(st.rows_active, 4);
        // Summary reflects the block holding row 2.
        let step = st.begin(None);
        assert!(step.plan.block_active(0, step.summary));
        let _ = step;
        st.commit(0, 4);
        // Nothing changed: summary empty, every range inactive.
        let step = st.begin(None);
        assert!(step.plan.range_inactive(0..4, step.summary));
        assert_eq!(st.rows_skipped, 4);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_block_rows_rejected() {
        let _ = FrontierPlan::empty(100, 100);
    }
}
