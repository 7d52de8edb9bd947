//! The out-of-core contract: every propagator running on a [`PagedCsr`]
//! — the spilled shard store behind a budgeted buffer pool — must be
//! **bitwise identical** to the resident [`CsrMatrix`] path at every
//! budget × shard × thread combination, cold cache and warm cache alike.
//! Eviction pressure mid-solve must never change an answer, and damaged
//! shard files must surface as typed errors, never garbage beliefs.

use lsbp::prelude::*;
use lsbp_graph::generators::erdos_renyi_gnm;
use lsbp_graph::geodesic_numbers;
use lsbp_linalg::Mat;
use lsbp_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

mod support;
use support::{assert_invariants, invariants_oracle, TempPath};

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn seeds(n: usize, k: usize, picks: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    for &(v, c) in picks {
        let _ = e.set_label(v % n, c % k, 1.0);
    }
    e
}

/// A spill file in a scratch directory of its own, removed when the
/// guard drops.
fn tmp(name: &str) -> TempPath {
    TempPath::new("ooc", name)
}

/// Approximate resident bytes of a CSR: row pointers + columns + values.
fn csr_bytes(m: &CsrMatrix) -> usize {
    (m.n_rows() + 1) * std::mem::size_of::<usize>() + m.nnz() * (4 + 8)
}

fn assert_linbp_equal(got: &LinBpResult, want: &LinBpResult, label: &str) {
    assert_eq!(got.converged, want.converged, "{label}");
    assert_eq!(got.diverged, want.diverged, "{label}");
    assert_eq!(got.iterations, want.iterations, "{label}");
    assert_eq!(
        got.final_delta.to_bits(),
        want.final_delta.to_bits(),
        "{label}"
    );
    assert!(
        bits_equal(got.beliefs.residual(), want.beliefs.residual()),
        "{label}: paged beliefs differ from resident"
    );
}

/// The acceptance grid: budgets {tiny, half, ample} × shards {1, 2, 8}
/// × threads {1, 4}, for LinBP, LinBP*, incremental LinBP, RWR and SBP.
/// Every cell must be bitwise identical to the serial resident reference.
#[test]
fn paged_solves_match_resident_across_budget_grid() {
    let n = 60;
    let adj = erdos_renyi_gnm(n, 180, 7).adjacency();
    let e = seeds(n, 3, &[(0, 0), (13, 1), (41, 2)]);
    let coupling = CouplingMatrix::fig1c().unwrap();
    let h = coupling.scaled_residual(0.04);
    let hr = coupling.residual();
    let reference_opts = LinBpOptions {
        max_iter: 120,
        tol: 1e-10,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let want = linbp_on(&adj, &e, &h, &reference_opts).unwrap();
    let want_star = linbp_star_on(&adj, &e, &h, &reference_opts).unwrap();
    let delta = seeds(n, 3, &[(29, 1)]);
    let want_update = linbp_update(&adj, &want.beliefs, &delta, &h, &reference_opts, true).unwrap();
    let want_rwr = rwr_on(
        &adj,
        &e,
        &RwrOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    let want_sbp = sbp_on(&adj, &e, &hr, &ParallelismConfig::serial()).unwrap();

    let bytes = csr_bytes(&adj);
    // `tiny` cannot hold even one shard — every access misses and evicts.
    for (budget, bname) in [(1usize, "tiny"), (bytes / 2, "half"), (bytes * 4, "ample")] {
        for threads in [1usize, 4] {
            for shards in [1usize, 2, 8] {
                let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
                let path = tmp(&format!("grid-{bname}-t{threads}-s{shards}.lsbp"));
                let opts = PagedOptions::default().with_budget(Some(budget));
                let paged = PagedCsr::spill(&adj, &path, shards, opts).unwrap();
                assert!(paged.num_shards() >= 1 && paged.num_shards() <= shards);
                let label = format!("budget={bname} t={threads} s={shards}");
                let opts = LinBpOptions {
                    parallelism: cfg,
                    ..reference_opts
                };
                let got = linbp_on(&paged, &e, &h, &opts).unwrap();
                assert_linbp_equal(&got, &want, &label);
                let got_star = linbp_star_on(&paged, &e, &h, &opts).unwrap();
                assert_linbp_equal(&got_star, &want_star, &format!("{label} (star)"));
                let got_update =
                    linbp_update(&paged, &got.beliefs, &delta, &h, &opts, true).unwrap();
                assert_linbp_equal(&got_update, &want_update, &format!("{label} (update)"));
                let got_rwr = rwr_on(
                    &paged,
                    &e,
                    &RwrOptions {
                        parallelism: cfg,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(got_rwr.iterations, want_rwr.iterations, "{label}");
                assert!(
                    bits_equal(got_rwr.beliefs.residual(), want_rwr.beliefs.residual()),
                    "{label}: rwr"
                );
                let got_sbp = sbp_on(&paged, &e, &hr, &cfg).unwrap();
                assert_eq!(got_sbp.geodesics.g, want_sbp.geodesics.g, "{label}");
                assert!(
                    bits_equal(got_sbp.beliefs.residual(), want_sbp.beliefs.residual()),
                    "{label}: sbp"
                );
                // Tiny budgets must actually exercise the pager: every
                // shard visit after the first pass is still a miss.
                let stats = paged.stats();
                if bname == "tiny" {
                    assert!(
                        stats.evictions > 0,
                        "{label}: no evictions under 1-byte budget"
                    );
                }
                assert!(
                    stats.hits + stats.misses > 0,
                    "{label}: pager never touched"
                );
            }
        }
    }
}

/// A cold first solve and a warm second solve return bit-identical
/// beliefs, and a generous budget makes the warm pass all hits.
#[test]
fn cold_and_warm_solves_are_bit_identical() {
    let n = 48;
    let adj = erdos_renyi_gnm(n, 140, 11).adjacency();
    let e = seeds(n, 3, &[(3, 0), (20, 1), (33, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let cfg = ParallelismConfig::with_threads(2).with_min_work(1);
    let opts = LinBpOptions {
        max_iter: 100,
        tol: 1e-10,
        parallelism: cfg,
        ..Default::default()
    };
    let path = tmp("cold-warm.lsbp");
    // Unbudgeted → everything stays resident after first touch.
    let paged = PagedCsr::spill(&adj, &path, 4, PagedOptions::default()).unwrap();
    let cold = linbp_on(&paged, &e, &h, &opts).unwrap();
    let after_cold = paged.stats();
    assert!(after_cold.misses > 0, "cold run must demand-load shards");
    let warm = linbp_on(&paged, &e, &h, &opts).unwrap();
    let after_warm = paged.stats();
    assert_linbp_equal(&warm, &cold, "warm vs cold");
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm run must not touch the disk again"
    );
    assert_eq!(after_warm.evictions, 0, "unbudgeted pool must never evict");
    // Re-open the same file fresh (cold again) and match the resident run.
    let reopened = open_paged(&path, &cfg).unwrap();
    let want = linbp_on(&adj, &e, &h, &opts).unwrap();
    let got = linbp_on(&reopened, &e, &h, &opts).unwrap();
    assert_linbp_equal(&got, &want, "reopened vs resident");
}

/// A weighted graph with rows long enough (average degree 12) that the
/// 4-lane accumulation order of the row statistics matters.
fn weighted_graph(n: usize, edges: usize, seed: u64) -> CsrMatrix {
    let er = erdos_renyi_gnm(n, edges, seed).adjacency();
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for (c, _) in er.row_iter(r).filter(|&(c, _)| c > r) {
            coo.push_symmetric(r, c, 0.25 + ((r * 7 + c * 3) % 11) as f64 / 9.0);
        }
    }
    coo.to_csr()
}

/// The frontier plan, squared-weight degrees and row sums every backend
/// caches equal a plain-loop oracle bit for bit, and each is built once:
/// resident, sharded 1–5 ways, and paged at full, ½ and 4K budgets.
#[test]
fn cached_invariants_match_plain_loop_oracle() {
    let adj = weighted_graph(300, 1800, 5);
    let want = invariants_oracle(&adj);
    assert!(want.deps.len() >= 4, "the plan must span several blocks");
    assert_invariants(&adj, &want, "resident");
    for shards in 1..=5 {
        let sharded = ShardedCsr::from_csr(&adj, shards);
        assert_invariants(&sharded, &want, &format!("{shards} shards"));
    }
    for (name, budget) in [
        ("full", None),
        ("half", Some(csr_bytes(&adj) / 2)),
        ("4K", Some(4096)),
    ] {
        let path = tmp(&format!("invariants-{name}.lsbp"));
        let paged =
            PagedCsr::spill(&adj, &path, 4, PagedOptions::default().with_budget(budget)).unwrap();
        assert_invariants(&paged, &want, &format!("paged, {name} budget"));
        drop(paged);
        let _ = std::fs::remove_file(&path);
    }
}

/// A second solve on the same paged operator borrows the plan and the
/// degrees the first one built: it makes exactly one pager visit (hit or
/// miss) fewer per shard for each, and answers bit for bit alike.
#[test]
fn second_paged_solve_reuses_the_cached_invariants() {
    let adj = weighted_graph(300, 1800, 9);
    let e = seeds(300, 3, &[(4, 0), (150, 1), (290, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.02);
    let opts = LinBpOptions {
        max_iter: 100,
        tol: 1e-10,
        ..Default::default()
    };
    let path = tmp("invariant-visits.lsbp");
    let budget = Some(csr_bytes(&adj) / 2);
    let paged =
        PagedCsr::spill(&adj, &path, 6, PagedOptions::default().with_budget(budget)).unwrap();
    let visits = |p: &PagedCsr| p.stats().hits + p.stats().misses;
    let first = linbp_on(&paged, &e, &h, &opts).unwrap();
    let after_first = visits(&paged);
    let second = linbp_on(&paged, &e, &h, &opts).unwrap();
    let second_visits = visits(&paged) - after_first;
    assert_linbp_equal(&second, &first, "second vs first");
    // The degrees walk and the plan walk.
    let walks = 2;
    assert_eq!(
        after_first - second_visits,
        walks * paged.num_shards() as u64,
        "first solve {after_first} visits, second {second_visits}"
    );
    drop(paged);
    let _ = std::fs::remove_file(&path);
}

/// `spill_paged` takes its shard count from the memory budget: one shard
/// unbudgeted, several when the budget holds only a sliver of the graph —
/// and the solve is the resident one either way.
#[test]
fn spill_paged_derives_shards_from_budget() {
    let adj = erdos_renyi_gnm(40, 120, 17).adjacency();
    let e = seeds(40, 3, &[(2, 0), (19, 1), (33, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let opts = LinBpOptions {
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let want = linbp_on(&adj, &e, &h, &opts).unwrap();
    for (budget, at_least, at_most) in [(0, 1, 1), (csr_bytes(&adj) / 4, 2, 8), (1, 2, 40)] {
        let cfg = opts.parallelism.with_memory_budget(budget);
        let path = tmp(&format!("derived-{budget}.lsbp"));
        let paged = spill_paged(&adj, &path, &cfg).unwrap();
        let shards = paged.num_shards();
        assert!(
            (at_least..=at_most).contains(&shards),
            "budget {budget}: {shards} shards"
        );
        let got = linbp_on(&paged, &e, &h, &opts).unwrap();
        assert_linbp_equal(&got, &want, &format!("budget {budget}"));
        drop(paged);
        let _ = std::fs::remove_file(&path);
    }
}

/// Eviction pressure *mid-solve*: a budget that holds roughly one shard
/// forces the pool to cycle residency on every iteration of a long
/// multi-iteration solve — the answer must not change.
#[test]
fn eviction_under_pressure_mid_solve() {
    let n = 64;
    let adj = erdos_renyi_gnm(n, 220, 23).adjacency();
    let e = seeds(n, 3, &[(5, 0), (31, 1), (50, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.06);
    let shards = 8;
    // Budget ≈ one shard: walking 8 shards per iteration evicts 7 times
    // per sweep, interleaved with the solve's own vector updates.
    let budget = csr_bytes(&adj) / shards + 64;
    let cfg = ParallelismConfig::with_threads(4).with_min_work(1);
    let opts = LinBpOptions {
        max_iter: 200,
        tol: 1e-12,
        parallelism: cfg,
        ..Default::default()
    };
    let want = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            parallelism: ParallelismConfig::serial(),
            ..opts
        },
    )
    .unwrap();
    let path = tmp("pressure.lsbp");
    let paged = PagedCsr::spill(
        &adj,
        &path,
        shards,
        PagedOptions::default().with_budget(Some(budget)),
    )
    .unwrap();
    let got = linbp_on(&paged, &e, &h, &opts).unwrap();
    assert_linbp_equal(&got, &want, "pressure");
    let stats = paged.stats();
    assert!(
        stats.evictions >= shards as u64,
        "one-shard budget must evict continuously, saw {}",
        stats.evictions
    );
}

/// Geodesic numbers on a paged store equal the resident ones, and the
/// layer-synchronous BFS touches each shard at most once per layer: with
/// a budget that holds exactly the largest shard, the demand misses of a
/// call stay within `num_shards × num_layers`. (A 1-byte budget evicts
/// every shard as soon as a row access unpins it, so it checks equality
/// only.)
#[test]
fn paged_geodesics_match_resident_and_fault_each_shard_once_per_layer() {
    let n = 240;
    let adj = erdos_renyi_gnm(n, 300, 11).adjacency();
    let sources = [3, 77, 77, 150, 201];
    let want = geodesic_numbers(&adj, &sources);
    assert!(want.num_layers() > 2, "{} layers", want.num_layers());
    let shards = 8;
    let path = tmp("geodesics.lsbp");
    lsbp_sparse::ShardFile::write_csr(&path, &adj, shards).unwrap();
    let largest = {
        let file = lsbp_sparse::ShardFile::open(&path).unwrap();
        assert_eq!(file.num_shards(), shards);
        (0..shards)
            .map(|i| file.shard_meta(i).resident_bytes())
            .max()
            .unwrap()
    };
    for budget in [1, largest] {
        let paged = PagedCsr::open(
            &path,
            PagedOptions::default()
                .with_budget(Some(budget))
                .with_prefetch(false),
        )
        .unwrap();
        let got = geodesic_numbers(&paged, &sources);
        assert_eq!(got.g, want.g, "budget {budget}");
        assert_eq!(got.layers, want.layers, "budget {budget}");
        if budget == largest {
            let misses = paged.stats().misses;
            let bound = (shards * want.num_layers()) as u64;
            assert!(misses <= bound, "{misses} misses > {bound}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Damaged shard stores surface as typed [`ShardFileError`]s: truncation
/// is caught at `open` (or shard load), bit flips at shard load — never a
/// panic, never silently wrong data.
#[test]
fn damaged_files_are_typed_errors() {
    let adj = erdos_renyi_gnm(30, 90, 3).adjacency();
    let cfg = ParallelismConfig::serial();
    let path = tmp("damaged.lsbp");
    drop(PagedCsr::spill(&adj, &path, 3, PagedOptions::default()).unwrap());
    let full = std::fs::read(&path).unwrap();

    // Truncations at every granularity: header, directory, mid-block.
    for keep in [0usize, 4, 40, full.len() / 2, full.len() - 1] {
        let tpath = tmp(&format!("trunc-{keep}.lsbp"));
        std::fs::write(&tpath, &full[..keep]).unwrap();
        let verdict = open_paged(&tpath, &cfg)
            .and_then(|p| (0..p.num_shards()).try_for_each(|i| p.load_shard(i)));
        assert!(
            verdict.is_err(),
            "truncated to {keep} of {} bytes must fail typed",
            full.len()
        );
    }

    // A flipped bit in the payload fails the block checksum on load.
    let mut flipped = full.clone();
    let last = flipped.len() - 5;
    flipped[last] ^= 0x40;
    let fpath = tmp("flipped.lsbp");
    std::fs::write(&fpath, &flipped).unwrap();
    let paged = open_paged(&fpath, &cfg).unwrap();
    let verdict = (0..paged.num_shards()).try_for_each(|i| paged.load_shard(i));
    assert!(matches!(verdict, Err(ShardFileError::ChecksumMismatch(_))));

    // Not a shard file at all.
    let gpath = tmp("garbage.lsbp");
    std::fs::write(&gpath, b"definitely not a shard store").unwrap();
    assert!(open_paged(&gpath, &cfg).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs × random budgets × random shard counts: the paged
    /// LinBP run equals the resident run bitwise, and the store
    /// round-trips the exact matrix.
    #[test]
    fn paged_linbp_random(
        seed in 0u64..500,
        shards in 1usize..10,
        threads in 1usize..5,
        budget_frac in 0usize..4,
    ) {
        let n = 36;
        let adj = erdos_renyi_gnm(n, 90, seed).adjacency();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
        let e = seeds(n, 3, &[(seed as usize % n, 0), ((seed as usize * 5 + 2) % n, 1)]);
        let budget = match budget_frac {
            0 => 1,                      // thrash
            1 => csr_bytes(&adj) / 4,
            2 => csr_bytes(&adj) / 2,
            _ => usize::MAX,             // never evict
        };
        let base_opts = LinBpOptions {
            max_iter: 120,
            tol: 1e-10,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        let want = linbp_on(&adj, &e, &h, &base_opts).unwrap();
        let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
        let path = tmp(&format!("prop-{seed}-{shards}-{threads}-{budget_frac}.lsbp"));
        let opts = PagedOptions::default().with_budget(Some(budget));
        let paged = PagedCsr::spill(&adj, &path, shards, opts).unwrap();
        prop_assert_eq!(paged.to_csr(), adj.clone());
        let got = linbp_on(&paged, &e, &h, &LinBpOptions { parallelism: cfg, ..base_opts }).unwrap();
        prop_assert_eq!(got.iterations, want.iterations);
        prop_assert!(bits_equal(got.beliefs.residual(), want.beliefs.residual()));
        let _ = std::fs::remove_file(&path);
    }

    /// The `shards > n_rows` edge: both the in-memory sharded layout and
    /// the spilled store collapse to at most one shard per row, tile the
    /// row space exactly, and still solve bitwise-identically.
    #[test]
    fn more_shards_than_rows_is_well_formed(
        n in 1usize..7,
        extra in 1usize..60,
        seed in 0u64..100,
    ) {
        let m = (n * n.saturating_sub(1) / 2).min(12);
        let adj = erdos_renyi_gnm(n, m, seed).adjacency();
        let shards = n + extra;
        let sharded = ShardedCsr::from_csr(&adj, shards);
        prop_assert!(sharded.num_shards() <= n.max(1));
        // Shards tile 0..n contiguously.
        let mut next = 0;
        for i in 0..sharded.num_shards() {
            let r = sharded.shard_rows(i);
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end >= r.start);
            next = r.end;
        }
        prop_assert_eq!(next, n);
        prop_assert_eq!(sharded.to_csr(), adj.clone());
        // Same edge through the paged store.
        let path = tmp(&format!("edge-{n}-{extra}-{seed}.lsbp"));
        let paged = PagedCsr::spill(&adj, &path, shards, PagedOptions::default()).unwrap();
        prop_assert!(paged.num_shards() <= n.max(1));
        prop_assert_eq!(paged.to_csr(), adj.clone());
        let _ = std::fs::remove_file(&path);
    }
}
