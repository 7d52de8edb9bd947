//! Active-frontier execution for the fused LinBP path — bitwise-exact
//! iteration skipping, tracked per (row, query).
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
//! * **changed bits per (row, query)** ([`FrontierState`]) — the stacked
//!   update is block-diagonal per query (`I_q ⊗ Ĥ`), so each query has
//!   its own frontier. One [`NodeBitset`] of `n·q` bits in row-major
//!   order holds them: row `r`'s queries at bits `r·q .. r·q + q` (a
//!   field that may straddle two words, `⌈q/64⌉` words for `q > 64`).
//!   Bit `(r, j)` is set iff the last sweep changed a single bit of
//!   query `j`'s block of row `r`. At `q = 1` this is a plain per-row
//!   bitset;
//! * the **dependency rule** — query `j` of row `r` is recomputed iff `j`
//!   is still live (not frozen) and `(r, j)` itself changed (the
//!   residual, the echo term and the damping blend read the own row) or
//!   `(c, j)` changed for a column `c` of `A(r,·)` (the gather reads
//!   those rows). The row test ORs the row's and its neighbours' query
//!   fields, ANDs the live mask, and stops as soon as every live query
//!   is found (at `q = 1`, on the first changed bit);
//! * a **block-granular plan** ([`FrontierPlan`]) — rows grouped into
//!   [`FrontierPlan::block_rows`]-sized blocks, each with a precomputed
//!   bitset of the row-blocks it depends on. The per-sweep *summary*
//!   (bit `i` = block `i` holds a changed pair of *any* query, the union
//!   over queries) lets whole blocks — and whole shards, and for
//!   [`crate::PagedCsr`] whole on-disk pages — be skipped without
//!   touching their nnz, so a shard no query needs is never faulted in.
//!
//! **Pull or push, per sweep.** The dependency rule can be evaluated
//! from either end:
//!
//! * **pull** — every row of every active block ORs its own and its
//!   neighbours' changed fields. That is `O(nnz)` bit reads per sweep
//!   however little moved, and on random-like graphs every block stays
//!   active;
//! * **push** — one serial pass over the rows holding a changed pair ORs
//!   each such row's query field into its own field and into the field
//!   of every column of the row, building the sweep's active set; the
//!   kernels then read one field per row and skip every block without an
//!   active bit. The pass costs `O(Σ deg)` over the changed rows plus
//!   `O(n·q/64)` to clear the buffer and summarise its blocks.
//!
//! Push sends row `c`'s change to the rows in `A(c,·)`, whereas the rule
//! asks for the rows whose `A(r,·)` holds `c`. The two sets agree exactly
//! when the stored sparsity pattern is symmetric (`(r, c)` stored iff
//! `(c, r)` is, whatever the weights), so push only runs on a plan whose
//! operator checked that ([`FrontierPlan::pattern_symmetric`]), and only
//! in sweeps where the changed rows' degrees sum to at most `n`: a pull
//! scan reads at least one field per row, so a push that small never
//! costs more bit operations (the direction-optimizing traversal of
//! Beamer, Asanović & Patterson, SC'12). Everything else pulls: dense
//! sweeps, asymmetric patterns, and the shard-walking backends
//! ([`crate::ShardedCsr`], [`crate::PagedCsr`]), whose per-shard kernels
//! cannot read another shard's rows. Both evaluate the same rule, so the
//! computed pairs, bits and counters do not depend on which one ran.
//!
//! **Why skipping is bitwise-exact.** The solver iterates on a double
//! buffer, and the kernels never write a block they do not compute. The
//! invariant: *if bit `(r, j)` is clear and query `j` is live, both
//! buffers hold bit-identical values for that block*. A computed block
//! only gets a clear bit when its new bits equal its old bits, and a
//! skipped block touches neither buffer; recomputing a skipped block
//! would reproduce its bits verbatim (same pure function, bitwise
//! identical inputs), and it contributes exactly-0 terms to every
//! residual norm (max or fixed-order L2). A frozen query is never
//! computed again, so it costs nothing and keeps its final beliefs in
//! the buffer it froze in.
//!
//! **The start from `Ê`.** A solve starts at `B = Ê` with a zeroed second
//! buffer, so [`FrontierState::from_seeds`] marks `(r, j)` only where
//! `Ê`'s block holds a bit other than `+0.0` (`-0.0` included). That is
//! exact: a block whose own and neighbours' blocks are all `+0.0`
//! recomputes to `+0.0` (`v·0.0 = ±0.0`, `+0.0 + ±0.0 = +0.0`, and the
//! `Ĥ`/echo terms skip zeros), which both buffers already hold. The
//! argument needs finite weights and degrees (`∞·0.0` is NaN); when they
//! are not, the solver starts all-changed ([`FrontierState::new`]), so
//! the first sweep computes every pair as full recomputation would.
//! Starting from the seeds is what makes edge-delta patches cheap: their
//! delta seeds sit on the changed edges' endpoints.
//!
//! Outputs, iteration counts and convergence points are bitwise
//! identical to full recomputation at any shard × thread × budget ×
//! batch combination: `tests/frontier.rs` and `tests/fused_linbp.rs`
//! check them against the plain-loop oracle in `tests/support`, which
//! recomputes every row every sweep, and every unwritten live block is
//! `debug_assert`ed. A step that must compute every pair runs the same
//! kernels from [`FrontierState::new`] with every query live
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

    /// The `len ∈ 1..=64` bits starting at bit `start`, LSB first — one
    /// row's query field of a row-major (row, query) bitset, which may
    /// straddle two words.
    #[inline]
    pub fn field(&self, start: usize, len: usize) -> u64 {
        debug_assert!((1..=64).contains(&len) && start + len <= self.len);
        let (w, off) = (start >> 6, start & 63);
        let mut v = self.words[w] >> off;
        if off + len > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        if len < 64 {
            v & ((1u64 << len) - 1)
        } else {
            v
        }
    }

    /// ORs the `len` bits of `bits` (LSB first, `⌈len/64⌉` words; bits at
    /// and above `len` are ignored) into the `len` bits starting at bit
    /// `start` — one row's query field of a row-major (row, query)
    /// bitset, which may straddle words and, for `len > 64`, span
    /// several. Bits outside the field, the last word's padding
    /// included, are left as they are.
    #[inline]
    pub(crate) fn or_field(&mut self, start: usize, len: usize, bits: &[u64]) {
        debug_assert!(start + len <= self.len && bits.len() == len.div_ceil(64));
        let (w0, off) = (start >> 6, start & 63);
        for (i, &b) in bits.iter().enumerate() {
            let width = (len - 64 * i).min(64);
            let b = if width < 64 {
                b & ((1u64 << width) - 1)
            } else {
                b
            };
            if b == 0 {
                continue;
            }
            self.words[w0 + i] |= b << off;
            if off + width > 64 {
                self.words[w0 + i + 1] |= b >> (64 - off);
            }
        }
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

/// Per-solve frontier state owned by a solver op: the borrowed plan, the
/// committed per-(row, query) changed bits and their block summary, the
/// scratch bits the next sweep records into, the sweep's per-query
/// read-outs, and the cumulative per-query row counters surfaced through
/// `Health`/`Stats`.
///
/// The changed bits are one [`NodeBitset`] of `n·q` bits in row-major
/// order: row `r`'s queries sit at bits `r·q .. r·q + q` (at `q = 1`
/// this is a plain per-row bitset).
#[derive(Clone, Debug)]
pub struct FrontierState<'p> {
    plan: &'p FrontierPlan,
    q: usize,
    changed: NodeBitset,
    summary: NodeBitset,
    scratch: NodeBitset,
    /// The push-mode active set, reused by every sweep that pushes.
    push: PushSet,
    /// Not-frozen queries of the current sweep, one bit per query.
    live: Vec<u64>,
    /// Per query: pairs computed by the current sweep.
    step_active: Vec<u64>,
    /// Per query: `max |new|` over the pairs the current sweep computed.
    magnitudes: Vec<f64>,
    /// Per query: (row, query) pairs computed across committed sweeps
    /// while the query was live.
    pub rows_active: Vec<u64>,
    /// Per query: (row, query) pairs skipped across committed sweeps
    /// while the query was live (inputs bitwise unchanged).
    pub rows_skipped: Vec<u64>,
}

impl<'p> FrontierState<'p> {
    fn with_changed(plan: &'p FrontierPlan, q: usize, changed: NodeBitset) -> Self {
        let mut state = Self {
            plan,
            q,
            scratch: NodeBitset::new(changed.len()),
            push: PushSet::new(plan, q),
            changed,
            summary: NodeBitset::new(plan.n_blocks()),
            live: vec![0; q.div_ceil(64)],
            step_active: vec![0; q],
            magnitudes: vec![0.0; q],
            rows_active: vec![0; q],
            rows_skipped: vec![0; q],
        };
        state.rebuild_summary();
        state
    }

    /// State for `q` stacked queries with every pair marked changed, so
    /// the first sweep computes every live pair (establishing the
    /// double-buffer invariant from any start), after which real change
    /// bits take over.
    pub fn new(plan: &'p FrontierPlan, q: usize) -> Self {
        let mut changed = NodeBitset::new(plan.n_rows() * q);
        changed.fill();
        Self::with_changed(plan, q, changed)
    }

    /// State for a solve that starts at `B = Ê` with a zeroed second
    /// buffer: (row, query) is marked iff that `k`-block of `Ê` holds a
    /// bit other than `+0.0`. Exact only when the fused step maps all-`+0.0`
    /// inputs to `+0.0` outputs, i.e. when every weight (and, with echo,
    /// every squared-weight degree) is finite — the caller checks that
    /// and falls back to [`FrontierState::new`].
    pub fn from_seeds(plan: &'p FrontierPlan, e_hat: &Mat, k: usize) -> Self {
        let q = e_hat.cols() / k;
        let mut changed = NodeBitset::new(plan.n_rows() * q);
        for r in 0..e_hat.rows() {
            for (j, blk) in e_hat.row(r).chunks_exact(k).enumerate() {
                if blk.iter().any(|x| x.to_bits() != 0) {
                    changed.set(r * q + j);
                }
            }
        }
        Self::with_changed(plan, q, changed)
    }

    /// The dependency plan.
    pub fn plan(&self) -> &'p FrontierPlan {
        self.plan
    }

    /// (row, query) pairs changed by the last committed sweep: bit
    /// `r·q + j` is row `r`, query `j`.
    pub fn changed(&self) -> &NodeBitset {
        &self.changed
    }

    /// Per query: `max |new|` over the pairs the last sweep computed —
    /// the divergence guard's read-out. A pair the sweep skipped holds
    /// `+0.0` or a value an earlier sweep computed (and the guard then
    /// checked), so comparing this against the guard decides exactly
    /// like a full `max |B|` pass.
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// Begins one sweep: clears the scratch bits and per-query read-outs
    /// and hands out the borrowed per-step context the frontier-aware
    /// fused step fills in. `live[j]` says whether query `j` is still
    /// being solved; a frozen query's blocks are neither computed nor
    /// written (the update is block-diagonal per query, and the frozen
    /// set only grows).
    pub fn begin<'a>(&'a mut self, live: &[bool]) -> FrontierStep<'a> {
        assert_eq!(live.len(), self.q, "frontier: live mask length");
        self.live.iter_mut().for_each(|w| *w = 0);
        for (j, _) in live.iter().enumerate().filter(|(_, &on)| on) {
            self.live[j / 64] |= 1 << (j % 64);
        }
        self.scratch.clear();
        self.step_active.iter_mut().for_each(|a| *a = 0);
        self.magnitudes.iter_mut().for_each(|m| *m = 0.0);
        FrontierStep {
            plan: self.plan,
            q: self.q,
            changed: &self.changed,
            summary: &self.summary,
            live: &self.live,
            next_changed: &mut self.scratch,
            push: &mut self.push,
            active: &mut self.step_active,
            magnitudes: &mut self.magnitudes,
        }
    }

    /// Commits one sweep: the scratch bits become the committed changed
    /// set, the block summary is rebuilt (`O(n·q/64)`), and every live
    /// query's pairs fold into its counters — computed ones into
    /// `rows_active`, the rest of its `n` rows into `rows_skipped`.
    pub fn commit(&mut self) {
        std::mem::swap(&mut self.changed, &mut self.scratch);
        self.rebuild_summary();
        let n = self.plan.n_rows() as u64;
        for j in 0..self.q {
            if mask_bit(&self.live, j) {
                self.rows_active[j] += self.step_active[j];
                self.rows_skipped[j] += n - self.step_active[j];
            }
        }
    }

    /// Summary bit `i` = block `i` holds a changed pair for any query.
    fn rebuild_summary(&mut self) {
        block_summary(&self.changed, self.plan, self.q, &mut self.summary);
    }
}

/// Sets summary bit `i` iff block `i` of the row-major (row, query)
/// bitset `bits` holds a set bit. A block covers `block_rows·q` bits, a
/// whole number of words.
fn block_summary(bits: &NodeBitset, plan: &FrontierPlan, q: usize, summary: &mut NodeBitset) {
    summary.clear();
    let block_words = plan.block_rows() * q / 64;
    if block_words == 0 {
        return;
    }
    for (w, &word) in bits.words().iter().enumerate() {
        if word != 0 {
            summary.set(w / block_words);
        }
    }
}

/// The reusable buffers of push mode: the (row, query) pairs a pushed
/// sweep computes, their block summary, and one row's query field.
/// Allocated only for a plan whose pattern is symmetric.
#[derive(Clone, Debug, Default)]
pub(crate) struct PushSet {
    pub(crate) active: NodeBitset,
    pub(crate) blocks: NodeBitset,
    field: Vec<u64>,
}

impl PushSet {
    fn new(plan: &FrontierPlan, q: usize) -> Self {
        if !plan.pattern_symmetric() {
            return Self::default();
        }
        Self {
            active: NodeBitset::new(plan.n_rows() * q),
            blocks: NodeBitset::new(plan.n_blocks()),
            field: vec![0; q.div_ceil(64)],
        }
    }
}

/// The borrowed per-sweep context a frontier-aware fused step runs
/// against: the last sweep's change information and the live-query mask
/// (inputs), and the bits, per-query computed-pair counts and
/// magnitudes this sweep fills in (outputs). Produced by
/// [`FrontierState::begin`]; [`FrontierState::commit`] after the step.
pub struct FrontierStep<'a> {
    /// Static block-dependency plan.
    pub plan: &'a FrontierPlan,
    /// Number of stacked queries (bits per row).
    pub q: usize,
    /// (row, query) pairs changed by the last committed sweep (global
    /// rows, bit `r·q + j`).
    pub changed: &'a NodeBitset,
    /// Block summary of `changed` (bit `i` = block `i` holds a changed
    /// pair of any query).
    pub summary: &'a NodeBitset,
    /// Not-frozen queries, one bit per query (`⌈q/64⌉` words).
    pub live: &'a [u64],
    /// Output: pairs whose computed block changed this sweep. Cleared by
    /// [`FrontierState::begin`]; parallel tasks merge partial bitsets
    /// into it with the order-independent OR.
    pub next_changed: &'a mut NodeBitset,
    /// Scratch: the push-mode active set ([`FrontierStep::push_from`]).
    pub(crate) push: &'a mut PushSet,
    /// Output, per query: pairs computed this sweep.
    pub active: &'a mut [u64],
    /// Output, per query: `max |new|` over the pairs computed this sweep
    /// (`f64::max`, so NaN entries are ignored like
    /// [`lsbp_linalg::Mat::max_abs`]).
    pub magnitudes: &'a mut [f64],
}

impl FrontierStep<'_> {
    /// Push mode for a sweep of the whole operator `m`: when the plan's
    /// pattern is symmetric and the rows holding a changed pair have
    /// degrees summing to at most `n`, expands the committed changed bits
    /// into this sweep's active set — row `r`'s query field ORed into row
    /// `r` and into every column of `A(r,·)` — and its block summary,
    /// and returns `true`. Otherwise touches nothing and returns `false`:
    /// the sweep pulls. Either way the same pairs are computed (see the
    /// module docs).
    pub(crate) fn push_from(&mut self, m: &CsrMatrix) -> bool {
        let q = self.q;
        if !self.plan.pattern_symmetric() {
            return false;
        }
        debug_assert_eq!(
            m.n_rows(),
            self.plan.n_rows(),
            "push needs the whole operator"
        );
        let mut budget = m.n_rows();
        for r in rows_with_bits(self.changed, q) {
            match budget.checked_sub(m.row_nnz(r)) {
                Some(rest) => budget = rest,
                None => return false,
            }
        }
        let push = &mut *self.push;
        push.active.clear();
        for r in rows_with_bits(self.changed, q) {
            for (w, f) in push.field.iter_mut().enumerate() {
                *f = self.changed.field(r * q + 64 * w, (q - 64 * w).min(64));
            }
            push.active.or_field(r * q, q, &push.field);
            for &c in m.row_cols(r) {
                push.active.or_field(c as usize * q, q, &push.field);
            }
        }
        block_summary(&push.active, self.plan, q, &mut push.blocks);
        true
    }
}

/// The indices of the set bits of a multi-word mask, ascending.
pub(crate) fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
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

/// The rows holding a set bit of the row-major (row, query) bitset
/// `bits`, ascending, each once.
fn rows_with_bits(bits: &NodeBitset, q: usize) -> impl Iterator<Item = usize> + '_ {
    let mut next = 0;
    set_bits(bits.words()).filter_map(move |bit| {
        let r = bit / q;
        (r >= next).then(|| {
            next = r + 1;
            r
        })
    })
}

/// How a frontier sweep selects the (row, query) pairs it computes —
/// both variants evaluate the same dependency rule (see the module docs).
#[derive(Clone, Copy)]
pub(crate) enum RowTest<'a> {
    /// A row ORs its own and its neighbours' fields of the committed
    /// changed bits; a block runs iff the plan says it depends on a
    /// block of `summary`.
    Pull {
        changed: &'a NodeBitset,
        summary: &'a NodeBitset,
    },
    /// A row reads its own field of the pushed active set; a block runs
    /// iff `blocks` marks it.
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
}

/// Bit `j` of a multi-word query mask.
#[inline]
fn mask_bit(mask: &[u64], j: usize) -> bool {
    mask[j / 64] & (1 << (j % 64)) != 0
}

/// The per-task slice of frontier work handed into the row kernels: the
/// read-only change information plus a (possibly partial, task-local)
/// changed-bit accumulator and per-query counts. Serial callers point
/// `bits`/`active` at the shared step outputs; parallel tasks use
/// task-local ones that are merged afterwards (bit-OR and integer sums
/// are order-independent, so the merged result equals the serial one).
pub(crate) struct FrontierTask<'a> {
    pub test: RowTest<'a>,
    pub live: &'a [u64],
    pub q: usize,
    /// Class count, read by the debug skip-invariant check.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub k: usize,
    pub bits: &'a mut NodeBitset,
    pub active: &'a mut [u64],
}

impl FrontierTask<'_> {
    /// The `q = 1` dependency rule: recompute iff the row itself changed
    /// or any of its in-row column dependencies changed (pull, early exit
    /// on the first hit), i.e. iff the pushed active set holds the row.
    #[inline]
    pub(crate) fn row_active(&self, m: &CsrMatrix, local: usize, global: usize) -> bool {
        match self.test {
            RowTest::Pull { changed, .. } => {
                changed.get(global) || m.row_cols(local).iter().any(|&c| changed.get(c as usize))
            }
            RowTest::Push { active, .. } => active.get(global),
        }
    }

    /// The per-query dependency rule: query `j` is computed iff it is
    /// live and `(row, j)` or `(c, j)` for some column `c` of the row
    /// changed. A pull scan stops once every live query is found; a push
    /// reads the row's own field of the active set. Writes the queries
    /// to compute into `mask` (`⌈q/64⌉` words); `false` when there are
    /// none.
    #[inline]
    pub(crate) fn row_mask(
        &self,
        m: &CsrMatrix,
        local: usize,
        global: usize,
        mask: &mut [u64],
    ) -> bool {
        let q = self.q;
        let changed = match self.test {
            RowTest::Pull { changed, .. } => changed,
            RowTest::Push { active, .. } => {
                let mut any = false;
                for (w, (word, &l)) in mask.iter_mut().zip(self.live).enumerate() {
                    *word = active.field(global * q + 64 * w, (q - 64 * w).min(64)) & l;
                    any |= *word != 0;
                }
                return any;
            }
        };
        if let [live] = *self.live {
            let mut acc = changed.field(global * q, q);
            if acc & live != live {
                for &c in m.row_cols(local) {
                    acc |= changed.field(c as usize * q, q);
                    if acc & live == live {
                        break;
                    }
                }
            }
            mask[0] = acc & live;
            return mask[0] != 0;
        }
        let field = |row: usize, w: usize| changed.field(row * q + 64 * w, (q - 64 * w).min(64));
        for (w, m) in mask.iter_mut().enumerate() {
            *m = field(global, w);
        }
        let full = |mask: &[u64]| mask.iter().zip(self.live).all(|(&m, &l)| m & l == l);
        if !full(mask) {
            for &c in m.row_cols(local) {
                for (w, m) in mask.iter_mut().enumerate() {
                    *m |= field(c as usize, w);
                }
                if full(mask) {
                    break;
                }
            }
        }
        let mut any = false;
        for (m, &l) in mask.iter_mut().zip(self.live) {
            *m &= l;
            any |= *m != 0;
        }
        any
    }

    /// Records one computed pair: query `j` of `global`, whose new bits
    /// differ from the old ones iff `changed`.
    #[inline]
    pub(crate) fn record(&mut self, global: usize, j: usize, changed: bool) {
        if changed {
            self.bits.set(global * self.q + j);
        }
    }

    /// Counts `pairs` computed pairs of query `j` (the `q = 1` kernel
    /// counts its rows locally and reports once per call).
    #[inline]
    pub(crate) fn count(&mut self, j: usize, pairs: u64) {
        self.active[j] += pairs;
    }

    /// A live block the call did not write must already hold, in the
    /// output buffer, exactly the bits of the current beliefs — i.e.
    /// skipping really does leave what a recomputation would produce.
    /// `written` is the mask the call computed, `None` for a skipped row.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_assert_skip_invariant(
        &self,
        global: usize,
        out_row: &[f64],
        b_row: &[f64],
        written: Option<&[u64]>,
    ) {
        let k = self.k;
        for j in 0..self.q {
            if !mask_bit(self.live, j) || written.is_some_and(|w| mask_bit(w, j)) {
                continue;
            }
            let cols = j * k..(j + 1) * k;
            assert!(
                out_row[cols.clone()]
                    .iter()
                    .zip(&b_row[cols])
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "frontier skip invariant violated at row {global}, query {j}: \
                 output buffer differs from current beliefs"
            );
        }
    }
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
        o.or_assign_words(&b, 0..b.words().len());
        assert_eq!(o.count_ones(), 5);
        assert!(o.intersects(&b));
        o.clear();
        assert_eq!(o.count_ones(), 0);
        o.fill();
        assert!(o.get(129) && o.get(0));
        assert!(NodeBitset::new(0).is_empty());
    }

    /// `or_field` against a bit-by-bit reference at widths that fit a
    /// word (1, 3), fill one (64) and span two (70): fields aligned to a
    /// word, straddling one, and ending on the last valid bit, whose
    /// word's padding must stay clear.
    #[test]
    fn or_field_straddles_words_and_keeps_padding_clear() {
        for q in [1usize, 3, 64, 70] {
            let rows = 131;
            let len = rows * q;
            // All ones (with garbage above bit q that must be ignored) and
            // an alternating pattern that catches a shifted field.
            let patterns = [
                vec![!0u64; q.div_ceil(64)],
                vec![0x5555_5555_5555_5555u64; q.div_ceil(64)],
            ];
            for row in [0, 1, 21, 63, 64, 65, rows - 1] {
                for bits in &patterns {
                    // A bit already set inside the field stays set, and
                    // one just past it is not disturbed.
                    let preset = [row * q + q - 1, (row + 1) * q];
                    let mut got = NodeBitset::new(len);
                    let mut want = NodeBitset::new(len);
                    for &i in preset.iter().filter(|&&i| i < len) {
                        got.set(i);
                        want.set(i);
                    }
                    got.or_field(row * q, q, bits);
                    for j in (0..q).filter(|j| bits[j / 64] >> (j % 64) & 1 == 1) {
                        want.set(row * q + j);
                    }
                    assert_eq!(got, want, "q {q}, row {row}");
                }
            }
            let mut last = NodeBitset::new(len);
            last.or_field((rows - 1) * q, q, &patterns[0]);
            assert_eq!(last.count_ones(), q, "q {q}");
            if len % 64 != 0 {
                let top = *last.words().last().unwrap();
                assert_eq!(top >> (len % 64), 0, "q {q}: padding bits set");
            }
            let mut none = NodeBitset::new(len);
            none.or_field(5 * q, q, &vec![0; q.div_ceil(64)]);
            assert_eq!(none.count_ones(), 0, "q {q}: an empty field is a no-op");
        }
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
        let mut st = FrontierState::new(plan, 1);
        // Fresh state: everything marked changed.
        assert_eq!(st.changed().count_ones(), 4);
        {
            let step = st.begin(&[true]);
            // Simulate: only row 2 changed this sweep, all 4 computed.
            step.next_changed.set(2);
            step.active[0] = 4;
        }
        st.commit();
        assert_eq!(st.changed().count_ones(), 1);
        assert!(st.changed().get(2));
        assert_eq!(st.rows_active, [4]);
        // Summary reflects the block holding row 2.
        let step = st.begin(&[true]);
        assert!(step.plan.block_active(0, step.summary));
        let _ = step;
        st.commit();
        // Nothing changed: summary empty, every range inactive.
        let step = st.begin(&[true]);
        assert!(step.plan.range_inactive(0..4, step.summary));
        assert_eq!(st.rows_skipped, [4]);
    }

    /// Stacked bits are row-major: row `r`'s `q` queries at bits
    /// `r·q .. r·q + q`, read back as one field even across a word
    /// boundary; a frozen query's pairs are not counted.
    #[test]
    fn per_query_bits_and_counters() {
        let mut coo = CooMatrix::new(40, 40);
        coo.push_symmetric(0, 39, 1.0);
        let m = coo.to_csr();
        let plan = {
            use crate::operator::PropagationOperator;
            PropagationOperator::frontier_plan(&m)
        };
        // Ê with q = 3 (k = 2): row 21 seeds query 0 and holds a -0.0 in
        // query 2; +0.0 marks nothing.
        let mut e = Mat::zeros(40, 6);
        e[(21, 0)] = 0.5;
        e[(21, 5)] = -0.0;
        let mut st = FrontierState::from_seeds(plan, &e, 2);
        assert_eq!(st.changed().len(), 40 * 3);
        assert_eq!(st.changed().count_ones(), 2);
        // Row 21's field spans bits 63..66, across two words.
        assert_eq!(st.changed().field(21 * 3, 3), 0b101);
        let step = st.begin(&[true, false, true]);
        assert_eq!(step.live, [0b101]);
        step.active[0] = 7;
        st.commit();
        assert_eq!(st.rows_active, [7, 0, 0]);
        assert_eq!(st.rows_skipped, [33, 0, 40]);
        let mut all = FrontierState::new(plan, 70);
        assert_eq!(all.changed().count_ones(), 40 * 70);
        let step = all.begin(&[true; 70]);
        assert_eq!(step.live, [!0, (1 << 6) - 1]);
        let _ = step;
        all.commit();
        assert_eq!(all.changed().count_ones(), 0, "narrows to what changed");
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_block_rows_rejected() {
        let _ = FrontierPlan::empty(100, 100);
    }
}
