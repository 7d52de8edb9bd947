//! The out-of-core propagation backend: [`ShardedCsr`]'s execution
//! model with the shards living on disk behind a budgeted buffer pool.
//!
//! [`PagedCsr`] opens a [`ShardFile`] and is a
//! [`ShardSource`]: it gets the full [`PropagationOperator`] surface from
//! the one generic shard walk in [`crate::sharded`], and contributes only
//! how shard `i` is reached — [`ShardSource::shard`] pins the block in a
//! [`BufferPool`] (paging it in on a miss) and [`ShardSource::hint`]
//! queues a background prefetch. Row access copies the row out under the
//! pin, since the pool may evict the block afterwards.
//!
//! [`PropagationOperator`]: crate::PropagationOperator
//! [`ShardedCsr`]: crate::ShardedCsr
//!
//! * **Budget.** The pool holds at most `budget_bytes` of deserialized
//!   shard blocks (unbudgeted when `None`). Loading past the budget
//!   evicts by **walk distance**: every shard kernel walks the shards in
//!   ascending order and wraps around for the next sweep, so the
//!   unpinned block needed *last* is the one farthest ahead of the shard
//!   being loaded, `(j − cursor) mod N`. That is Belady's choice for the
//!   walk, where LRU would evict exactly the shard needed next.
//! * **Pins.** Every kernel pins the shard it is walking (and the
//!   prefetched next shard stays resident until something evictable
//!   must go), so the working set — current shard + next shard — can
//!   transiently overshoot a tiny budget rather than deadlock. A pin is
//!   a guard object; dropping it unpins.
//! * **Prefetch.** A background thread reads shard `i + 1` from disk
//!   while the workers walk shard `i` (classic double buffering), so a
//!   warm sequential pass overlaps I/O with compute. Walk distance is
//!   measured from the shard a kernel pinned last, and a prefetch may
//!   only evict blocks the walk reaches *after* the one it loads — so it
//!   never evicts a shard needed sooner, and a stale hint for a shard
//!   the walk has already passed loads nothing. Prefetch failures are
//!   ignored — the demand load retries and surfaces the error.
//!
//! **Bitwise contract.** Blocks deserialize to the *same* `CsrMatrix`
//! shard blocks `ShardedCsr` holds in memory (bit-identical values,
//! same local row pointers, same global columns), and both backends run
//! the same generic shard walk. Results
//! are therefore bitwise identical to the resident paths at **any**
//! budget × shard × thread combination — the pool changes when bytes
//! move, never what the kernels compute (property-tested in
//! `tests/out_of_core.rs`).
//!
//! **Error surface.** Construction and [`PagedCsr::load_shard`] return
//! typed [`ShardFileError`]s (corrupt or truncated stores never panic
//! there). A block that turns corrupt *after* open, observed mid-solve
//! inside a kernel, panics with a clear message — consistent with the
//! kernels' dimension-mismatch asserts, and the reason `load_shard`
//! exists as the checked warm-up path.

use crate::cache::OperatorCache;
use crate::csr::CsrMatrix;
use crate::operator::RowIter;
use crate::shard_file::{block_resident_bytes, ShardFile, ShardFileError};
use crate::sharded::ShardSource;
use std::collections::HashMap;
use std::collections::HashSet;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs for a [`PagedCsr`].
#[derive(Clone, Copy, Debug)]
pub struct PagedOptions {
    /// Byte budget for resident shard blocks; `None` means unbudgeted
    /// (every block stays resident once loaded — the pool degenerates
    /// to a lazily-loaded `ShardedCsr`).
    pub budget_bytes: Option<usize>,
    /// Run the background prefetch thread (shard `i + 1` reads overlap
    /// shard `i` compute). Disable for strictly deterministic I/O
    /// schedules in tests.
    pub prefetch: bool,
}

impl Default for PagedOptions {
    fn default() -> Self {
        Self {
            budget_bytes: None,
            prefetch: true,
        }
    }
}

impl PagedOptions {
    /// Sets the byte budget (`None` clears it).
    pub fn with_budget(mut self, bytes: Option<usize>) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Enables or disables the prefetch thread.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// The shard count to spill `m` with under this budget: enough that
    /// two shards — the pinned one and the prefetched next one — fit the
    /// pool, `⌈2 × bytes(m) ÷ budget⌉` with bytes measured like
    /// [`ShardMeta::resident_bytes`](crate::shard_file::ShardMeta::resident_bytes).
    /// Unbudgeted spills get one shard. The spill caps the count at the
    /// number of non-empty rows.
    pub fn spill_shards(&self, m: &CsrMatrix) -> usize {
        self.budget_bytes.map_or(1, |budget| {
            let bytes = block_resident_bytes(m.n_rows(), m.nnz());
            bytes.saturating_mul(2).div_ceil(budget.max(1)).max(1)
        })
    }
}

/// Pager activity counters — monotone over the life of the operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Accesses served by an already-resident block.
    pub hits: u64,
    /// Accesses that had to read the block from disk.
    pub misses: u64,
    /// Blocks evicted to make room under the budget.
    pub evictions: u64,
    /// Blocks loaded by the background prefetch thread.
    pub prefetches: u64,
}

/// One resident shard block plus its pool bookkeeping.
#[derive(Debug)]
struct Slot {
    block: Arc<CsrMatrix>,
    bytes: usize,
    /// Kernels currently holding this block; pinned slots are never
    /// evicted.
    pins: usize,
}

#[derive(Debug, Default)]
struct PoolState {
    slots: HashMap<usize, Slot>,
    /// Shards currently being read from disk (by a demand load or the
    /// prefetcher) — waiters block on the condvar instead of issuing a
    /// duplicate read.
    loading: HashSet<usize>,
    resident_bytes: usize,
    /// The shard a kernel pinned most recently — where the walk is.
    walk: usize,
}

/// The budgeted block cache in front of a [`ShardFile`] — shared
/// between the kernels and the prefetch thread.
#[derive(Debug)]
pub struct BufferPool {
    file: ShardFile,
    /// `usize::MAX` when unbudgeted.
    budget: usize,
    state: Mutex<PoolState>,
    cond: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetches: AtomicU64,
}

/// A pinned, resident shard block. Derefs to the block's [`CsrMatrix`];
/// the pool will not evict the block while this guard lives.
struct PinnedShard {
    pool: Arc<BufferPool>,
    idx: usize,
    block: Arc<CsrMatrix>,
}

impl Deref for PinnedShard {
    type Target = CsrMatrix;

    #[inline]
    fn deref(&self) -> &CsrMatrix {
        &self.block
    }
}

impl Drop for PinnedShard {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock().unwrap();
        if let Some(slot) = st.slots.get_mut(&self.idx) {
            slot.pins -= 1;
        }
        // A transient overshoot (everything was pinned when a load needed
        // room) is corrected as soon as pins release — otherwise a pool
        // with a single oversized shard would squat over budget forever.
        // The walk has moved past this shard, so it measures from the next.
        if st.resident_bytes > self.pool.budget {
            self.pool.make_room(&mut st, self.idx + 1, 0, 0);
        }
    }
}

impl BufferPool {
    fn new(file: ShardFile, budget: Option<usize>) -> Self {
        Self {
            file,
            budget: budget.unwrap_or(usize::MAX),
            state: Mutex::new(PoolState::default()),
            cond: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
        }
    }

    /// How many shards the ascending, wrapping walk passes from `cursor`
    /// before it reaches shard `j`: `(j − cursor) mod N`.
    fn distance(&self, cursor: usize, j: usize) -> usize {
        let n = self.file.num_shards();
        (j + n - cursor % n) % n
    }

    /// The unpinned blocks at least `min_distance` from `cursor`, as
    /// `(distance, shard, bytes)`.
    fn evictable<'a>(
        &'a self,
        st: &'a PoolState,
        cursor: usize,
        min_distance: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        st.slots
            .iter()
            .filter(|(_, slot)| slot.pins == 0)
            .map(move |(&j, slot)| (self.distance(cursor, j), j, slot.bytes))
            .filter(move |&(d, _, _)| d >= min_distance)
    }

    /// Evicts unpinned blocks until `incoming` more bytes fit the budget,
    /// farthest walk distance first: the victim is the unpinned shard `j`
    /// with the largest `(j − cursor) mod N`, and only blocks at least
    /// `min_distance` away qualify. A demand load passes the shard it
    /// loads as `cursor`; an unpin that corrects an overshoot passes the
    /// released shard + 1; both let every unpinned block qualify. Under
    /// the ascending, wrapping shard walk every kernel does, that victim
    /// is the block needed last — Belady's choice, where LRU would evict
    /// the block needed next. May
    /// leave the pool over budget when nothing qualifies — the working
    /// set always resides (the documented transient overshoot) rather
    /// than deadlocking.
    fn make_room(&self, st: &mut PoolState, cursor: usize, min_distance: usize, incoming: usize) {
        while st.resident_bytes.saturating_add(incoming) > self.budget {
            let victim = self
                .evictable(st, cursor, min_distance)
                .max()
                .map(|(_, j, _)| j);
            match victim {
                Some(j) => {
                    let slot = st.slots.remove(&j).unwrap();
                    st.resident_bytes -= slot.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Pins shard `i`, demand-loading it if absent. Concurrent requests
    /// for the same shard coalesce onto one disk read (waiters park on
    /// the condvar until the loader publishes the block or fails).
    fn acquire(self: &Arc<Self>, i: usize) -> Result<PinnedShard, ShardFileError> {
        let mut st = self.state.lock().unwrap();
        st.walk = i;
        loop {
            if let Some(slot) = st.slots.get_mut(&i) {
                slot.pins += 1;
                let block = Arc::clone(&slot.block);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PinnedShard {
                    pool: Arc::clone(self),
                    idx: i,
                    block,
                });
            }
            if st.loading.contains(&i) {
                st = self.cond.wait(st).unwrap();
                continue;
            }
            st.loading.insert(i);
            break;
        }
        drop(st);

        let loaded = self.file.read_shard(i);
        let mut st = self.state.lock().unwrap();
        st.loading.remove(&i);
        match loaded {
            Err(e) => {
                self.cond.notify_all();
                Err(e)
            }
            Ok(block) => {
                let bytes = self.file.shard_meta(i).resident_bytes();
                self.make_room(&mut st, i, 0, bytes);
                let block = Arc::new(block);
                st.slots.insert(
                    i,
                    Slot {
                        block: Arc::clone(&block),
                        bytes,
                        pins: 1,
                    },
                );
                st.resident_bytes += bytes;
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.cond.notify_all();
                Ok(PinnedShard {
                    pool: Arc::clone(self),
                    idx: i,
                    block,
                })
            }
        }
    }

    /// Loads shard `i` unpinned — the prefetch thread's entry point.
    /// No-ops when the block is already resident or someone else is
    /// reading it, and when it could only fit by evicting a block the
    /// walk needs no later than shard `i` (a prefetch never trades a
    /// sooner shard for a later one, and a stale hint for a shard the
    /// walk has passed loads nothing). Read failures are swallowed (the
    /// demand load retries and owns the error).
    fn prefetch_load(&self, i: usize) {
        let bytes = self.file.shard_meta(i).resident_bytes();
        // Only blocks the walk reaches after shard `i` may make room.
        let admits = |st: &PoolState| {
            let beyond = self.distance(st.walk, i) + 1;
            let freeable: usize = self.evictable(st, st.walk, beyond).map(|v| v.2).sum();
            ((st.resident_bytes - freeable).saturating_add(bytes) <= self.budget)
                .then_some((st.walk, beyond))
        };
        {
            let mut st = self.state.lock().unwrap();
            if st.slots.contains_key(&i) || st.loading.contains(&i) || admits(&st).is_none() {
                return;
            }
            st.loading.insert(i);
        }
        let loaded = self.file.read_shard(i);
        let mut st = self.state.lock().unwrap();
        st.loading.remove(&i);
        if let (Ok(block), Some((walk, beyond))) = (loaded, admits(&st)) {
            self.make_room(&mut st, walk, beyond, bytes);
            st.slots.insert(
                i,
                Slot {
                    block: Arc::new(block),
                    bytes,
                    pins: 0,
                },
            );
            st.resident_bytes += bytes;
            self.prefetches.fetch_add(1, Ordering::Relaxed);
        }
        self.cond.notify_all();
    }

    fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
        }
    }
}

/// The background prefetcher: a channel of shard indices drained by one
/// thread. Dropping the handle closes the channel and joins the thread.
#[derive(Debug)]
struct PrefetchHandle {
    tx: Option<Sender<usize>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PrefetchHandle {
    fn spawn(pool: Arc<BufferPool>) -> Self {
        let (tx, rx): (Sender<usize>, Receiver<usize>) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("lsbp-prefetch".into())
            .spawn(move || {
                while let Ok(i) = rx.recv() {
                    pool.prefetch_load(i);
                }
            })
            .expect("spawning the prefetch thread");
        Self {
            tx: Some(tx),
            thread: Some(thread),
        }
    }
}

impl Drop for PrefetchHandle {
    fn drop(&mut self) {
        // Closing the channel ends the receive loop; joining bounds any
        // in-flight read so the pool never outlives its file handle
        // assumptions.
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// An on-disk graph behind the
/// [`PropagationOperator`](crate::PropagationOperator) interface — see the
/// module docs for the execution model, the bitwise contract and the
/// error surface.
#[derive(Debug)]
pub struct PagedCsr {
    pool: Arc<BufferPool>,
    /// Shard row boundaries, `ShardedCsr`-style: shard `i` covers
    /// global rows `starts[i]..starts[i + 1]`.
    starts: Vec<usize>,
    prefetch: Option<PrefetchHandle>,
    cache: OperatorCache,
}

impl PagedCsr {
    /// Opens an existing shard store for paged execution.
    pub fn open(path: impl AsRef<Path>, opts: PagedOptions) -> Result<Self, ShardFileError> {
        Ok(Self::from_file(ShardFile::open(path)?, opts))
    }

    /// Spills `m` to `path` as a `shards`-way shard store and opens it
    /// — the one-call "make this graph out-of-core" path.
    pub fn spill(
        m: &CsrMatrix,
        path: impl AsRef<Path>,
        shards: usize,
        opts: PagedOptions,
    ) -> Result<Self, ShardFileError> {
        let path = path.as_ref();
        ShardFile::write_csr(path, m, shards)?;
        Self::open(path, opts)
    }

    /// Wraps an already-opened shard store.
    pub fn from_file(file: ShardFile, opts: PagedOptions) -> Self {
        let starts = file.starts();
        let pool = Arc::new(BufferPool::new(file, opts.budget_bytes));
        let prefetch = opts
            .prefetch
            .then(|| PrefetchHandle::spawn(Arc::clone(&pool)));
        Self {
            pool,
            starts,
            prefetch,
            cache: OperatorCache::default(),
        }
    }

    /// Path of the backing shard store.
    pub fn path(&self) -> &Path {
        self.pool.file.path()
    }

    /// Pager activity so far.
    pub fn stats(&self) -> PagerStats {
        self.pool.stats()
    }

    /// The checked load path: pages shard `i` in through the pool
    /// (verifying its checksum) and releases the pin. This is the typed
    /// error surface for post-open corruption — call it to validate or
    /// warm a store without risking a kernel panic.
    pub fn load_shard(&self, i: usize) -> Result<(), ShardFileError> {
        self.pool.acquire(i).map(|_pin| ())
    }
}

impl ShardSource for PagedCsr {
    #[inline]
    fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    fn shard_rows(&self, i: usize) -> Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// Pins shard `i` in the pool, demand-loading it on a miss.
    ///
    /// # Panics
    /// Panics on a post-open read/checksum failure (see the module docs'
    /// error surface).
    fn shard(&self, i: usize) -> impl Deref<Target = CsrMatrix> + '_ {
        self.pool.acquire(i).unwrap_or_else(|e| {
            panic!(
                "paged operator failed to load shard {i} of {:?} mid-solve: {e}",
                self.pool.file.path()
            )
        })
    }

    /// Asks the prefetch thread for shard `i` (no-op when prefetch is
    /// off, the index is past the end, or the channel is gone).
    #[inline]
    fn hint(&self, i: usize) {
        if i >= self.num_shards() {
            return;
        }
        if let Some(tx) = self.prefetch.as_ref().and_then(|h| h.tx.as_ref()) {
            let _ = tx.send(i);
        }
    }

    #[inline]
    fn shape(&self) -> (usize, usize) {
        (self.pool.file.n_cols(), self.pool.file.nnz())
    }

    fn cache(&self) -> &OperatorCache {
        &self.cache
    }

    /// Row access copies the row out **under the pool pin**, then
    /// releases it — the returned iterator stays valid however the pool
    /// evicts afterwards (the `RowIter::owned` half of the trait's
    /// soundness story).
    fn row(&self, r: usize) -> RowIter<'_> {
        let (s, local) = self.locate(r);
        let shard = self.shard(s);
        RowIter::owned(
            shard.row_cols(local).to_vec(),
            shard.row_values(local).to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::operator::PropagationOperator;
    use crate::sharded::ShardedCsr;
    use lsbp_linalg::{Mat, ParallelismConfig};
    use std::path::PathBuf;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(7, 7);
        coo.push_symmetric(0, 1, 2.0);
        coo.push_symmetric(0, 2, 1.0);
        coo.push_symmetric(0, 3, 0.5);
        coo.push_symmetric(1, 4, 3.0);
        coo.push_symmetric(2, 4, 1.5);
        coo.push_symmetric(4, 5, 0.25);
        coo.to_csr()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsbp-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn kernels_match_resident_bitwise_at_any_budget() {
        let m = sample();
        let n = m.n_rows();
        let b = Mat::from_fn(n, 3, |r, c| ((r * 3 + c) % 11) as f64 * 0.07 - 0.3);
        let cfg = ParallelismConfig::with_threads(2).with_min_work(1);
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.2 - 0.4).collect();
        let mut y_mono = vec![0.0; n];
        m.spmv_into_with(&x, &mut y_mono, &cfg);
        let mut o_mono = Mat::zeros(n, 3);
        m.spmm_into_with(&b, &mut o_mono, &cfg);

        for budget in [Some(1usize), Some(200), None] {
            let path = tmp(&format!("kernels-{budget:?}.lsbp"));
            let paged =
                PagedCsr::spill(&m, &path, 3, PagedOptions::default().with_budget(budget)).unwrap();
            let mut y = vec![0.0; n];
            paged.spmv_into_with(&x, &mut y, &cfg);
            assert!(bits_eq(&y, &y_mono), "spmv, budget {budget:?}");
            let mut o = Mat::zeros(n, 3);
            paged.spmm_into_with(&b, &mut o, &cfg);
            assert!(
                bits_eq(o.as_slice(), o_mono.as_slice()),
                "spmm, budget {budget:?}"
            );
            assert_eq!(paged.to_csr(), m, "assembly, budget {budget:?}");
            assert_eq!(paged.row_sums(), m.row_sums());
            assert_eq!(paged.squared_weight_degrees(), m.squared_weight_degrees());
            assert_eq!(paged.transpose_with(&cfg), m.transpose_with(&cfg));
            drop(paged);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn row_access_is_owned_and_correct() {
        let m = sample();
        let path = tmp("rows.lsbp");
        // One-byte budget: every shard is evicted as soon as it is
        // unpinned, so a dangling borrow would be caught immediately.
        let paged = PagedCsr::spill(
            &m,
            &path,
            4,
            PagedOptions::default()
                .with_budget(Some(1))
                .with_prefetch(false),
        )
        .unwrap();
        let rows: Vec<Vec<(usize, f64)>> = (0..m.n_rows())
            .map(|r| paged.row_iter(r).collect())
            .collect();
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(paged.row_nnz(r), m.row_nnz(r), "row {r}");
            assert_eq!(*row, m.row_iter(r).collect::<Vec<_>>(), "row {r}");
        }
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_budget_evicts_and_counts() {
        let m = sample();
        let path = tmp("evict.lsbp");
        let paged = PagedCsr::spill(
            &m,
            &path,
            4,
            PagedOptions::default()
                .with_budget(Some(1))
                .with_prefetch(false),
        )
        .unwrap();
        let cfg = ParallelismConfig::serial();
        let x = vec![1.0; m.n_cols()];
        let mut y = vec![0.0; m.n_rows()];
        paged.spmv_into_with(&x, &mut y, &cfg);
        paged.spmv_into_with(&x, &mut y, &cfg);
        let stats = paged.stats();
        // A 1-byte budget forces a miss for every shard visit on both
        // passes and an eviction for (nearly) every load.
        assert_eq!(stats.misses, 2 * paged.num_shards() as u64);
        assert!(stats.evictions >= stats.misses - 1, "{stats:?}");
        assert_eq!(stats.hits, 0);
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    /// A ring plus degree-varying chords.
    fn ring_with_chords(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push_symmetric(i, (i + 1) % n, 1.0 + (i % 3) as f64);
            for k in 0..i % 5 {
                coo.push_symmetric(i, (i * 7 + k * 13 + 5) % n, 0.5);
            }
        }
        coo.to_csr()
    }

    /// Spills `m` in `shards` shards and returns their resident bytes,
    /// largest first.
    fn spill_sizes_descending(m: &CsrMatrix, path: &Path, shards: usize) -> Vec<usize> {
        ShardFile::write_csr(path, m, shards).unwrap();
        let file = ShardFile::open(path).unwrap();
        assert_eq!(file.num_shards(), shards);
        let mut sizes: Vec<usize> = (0..shards)
            .map(|i| file.shard_meta(i).resident_bytes())
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    #[test]
    fn prefetch_never_evicts_a_sooner_shard() {
        let m = ring_with_chords(64);
        let path = tmp("prefetch-admission.lsbp");
        let sizes = spill_sizes_descending(&m, &path, 8);
        // Room for two shards, never three.
        assert!(3 * sizes[7] > sizes[0] + sizes[1]);
        let paged = PagedCsr::open(
            &path,
            PagedOptions::default()
                .with_budget(Some(sizes[0] + sizes[1]))
                .with_prefetch(false),
        )
        .unwrap();
        let pool = &paged.pool;
        let resident = || {
            let mut r: Vec<usize> = pool.state.lock().unwrap().slots.keys().copied().collect();
            r.sort_unstable();
            r
        };
        paged.load_shard(0).unwrap();
        paged.load_shard(1).unwrap();
        assert_eq!(resident(), [0, 1], "the walk is at shard 1");
        // Shard 3 comes before shard 0's next turn: 0 makes way.
        pool.prefetch_load(3);
        assert_eq!(resident(), [1, 3]);
        // Shard 2 comes before shard 3: 3 makes way.
        pool.prefetch_load(2);
        assert_eq!(resident(), [1, 2]);
        // Shard 0 is needed after both: a stale hint loads nothing.
        pool.prefetch_load(0);
        assert_eq!(resident(), [1, 2]);
        let stats = paged.stats();
        assert_eq!((stats.prefetches, stats.evictions), (2, 2), "{stats:?}");
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn walk_distance_keeps_budgeted_shards_hot_across_sweeps() {
        let m = ring_with_chords(64);
        let n = m.n_rows();
        let (shards, sweeps) = (8, 6);
        let path = tmp("walk-distance.lsbp");
        let sizes = spill_sizes_descending(&m, &path, shards);
        let cfg = ParallelismConfig::serial();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        for c in 2..shards {
            let budget = sizes[..c].iter().sum();
            let paged = PagedCsr::open(
                &path,
                PagedOptions::default()
                    .with_budget(Some(budget))
                    .with_prefetch(false),
            )
            .unwrap();
            paged.spmv_into_with(&x, &mut y, &cfg);
            let cold = paged.stats().misses;
            for _ in 0..sweeps {
                paged.spmv_into_with(&x, &mut y, &cfg);
            }
            let warm = (paged.stats().misses - cold) as f64 / sweeps as f64;
            // LRU re-reads all N shards on every sweep of the cyclic walk.
            assert!(
                warm <= (shards - c + 1) as f64,
                "C = {c}: {warm} warm misses per sweep"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbudgeted_second_pass_is_all_hits() {
        let m = sample();
        let path = tmp("warm.lsbp");
        let paged =
            PagedCsr::spill(&m, &path, 3, PagedOptions::default().with_prefetch(false)).unwrap();
        let cfg = ParallelismConfig::serial();
        let x = vec![1.0; m.n_cols()];
        let mut y = vec![0.0; m.n_rows()];
        paged.spmv_into_with(&x, &mut y, &cfg);
        let cold = paged.stats();
        assert_eq!(cold.misses, paged.num_shards() as u64);
        paged.spmv_into_with(&x, &mut y, &cfg);
        let warm = paged.stats();
        assert_eq!(warm.misses, cold.misses, "no new disk reads when warm");
        assert_eq!(warm.hits, paged.num_shards() as u64);
        assert_eq!(warm.evictions, 0);
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetch_thread_loads_ahead() {
        let m = sample();
        let path = tmp("prefetch.lsbp");
        let paged = PagedCsr::spill(&m, &path, 4, PagedOptions::default()).unwrap();
        let cfg = ParallelismConfig::serial();
        let x = vec![1.0; m.n_cols()];
        let mut y = vec![0.0; m.n_rows()];
        // Drive several passes; the prefetcher races the demand loads,
        // so eventually some loads land as prefetches (and whatever it
        // loaded is consumed as hits). Either way the answers match.
        let mut y_mono = vec![0.0; m.n_rows()];
        m.spmv_into_with(&x, &mut y_mono, &cfg);
        for _ in 0..4 {
            paged.spmv_into_with(&x, &mut y, &cfg);
            assert!(bits_eq(&y, &y_mono));
        }
        let stats = paged.stats();
        // Every shard visit is exactly one hit or one demand miss;
        // prefetch loads are extra reads on top.
        assert_eq!(stats.hits + stats.misses, 4 * paged.num_shards() as u64);
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_shard_surfaces_corruption_as_typed_error() {
        let m = sample();
        let path = tmp("corrupt.lsbp");
        ShardFile::write_csr(&path, &m, 2).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let paged = PagedCsr::open(&path, PagedOptions::default().with_prefetch(false)).unwrap();
        assert!(paged.load_shard(0).is_ok());
        assert!(matches!(
            paged.load_shard(1),
            Err(ShardFileError::ChecksumMismatch(_))
        ));
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_shards_fit_two_in_the_budget() {
        let m = sample();
        let bytes = block_resident_bytes(m.n_rows(), m.nnz());
        let opts = PagedOptions::default();
        assert_eq!(opts.spill_shards(&m), 1, "unbudgeted");
        for budget in [2 * bytes, 2 * bytes + 1, usize::MAX] {
            assert_eq!(opts.with_budget(Some(budget)).spill_shards(&m), 1);
        }
        assert_eq!(opts.with_budget(Some(2 * bytes - 1)).spill_shards(&m), 2);
        assert_eq!(opts.with_budget(Some(bytes / 2)).spill_shards(&m), 4);
        let tiny = opts.with_budget(Some(1));
        assert!(tiny.spill_shards(&m) > 1);
        // The spill itself caps the count at the non-empty rows.
        let path = tmp("derived.lsbp");
        let paged = PagedCsr::spill(&m, &path, tiny.spill_shards(&m), tiny).unwrap();
        assert!(paged.num_shards() > 1 && paged.num_shards() <= m.n_rows());
        drop(paged);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_sharded_layout_exactly() {
        let m = sample();
        for shards in [1usize, 2, 4, 7] {
            let path = tmp(&format!("layout-{shards}.lsbp"));
            let paged = PagedCsr::spill(&m, &path, shards, PagedOptions::default()).unwrap();
            let sh = ShardedCsr::from_csr(&m, shards);
            assert_eq!(paged.num_shards(), sh.num_shards());
            for i in 0..sh.num_shards() {
                assert_eq!(paged.shard_rows(i), sh.shard_rows(i));
            }
            drop(paged);
            std::fs::remove_file(&path).ok();
        }
    }
}
