//! Property tests for the partitioners behind every parallel kernel and
//! graph shard layout: [`even_ranges`] and [`weight_balanced_ranges`].
//!
//! Whatever the weights — all zero, more parts than items, one hub item
//! holding nearly all the weight — the returned ranges must be **sorted,
//! disjoint, individually nonempty, and exactly cover `0..n`**. A
//! violation here is silent data corruption downstream: a dropped row
//! range means a row of the propagation matrix is never multiplied.

use lsbp_linalg::{even_ranges, weight_balanced_ranges};
use proptest::prelude::*;
use std::ops::Range;

/// The partition contract. `parts` bounds the count; coverage of `0..n`
/// is exact (the empty partition covers `n == 0`).
fn assert_partition(ranges: &[Range<usize>], n: usize, parts: usize) -> Result<(), TestCaseError> {
    if n == 0 {
        prop_assert!(
            ranges.is_empty(),
            "n=0 must yield no ranges, got {ranges:?}"
        );
        return Ok(());
    }
    prop_assert!(!ranges.is_empty(), "n={n} must be covered");
    prop_assert!(
        ranges.len() <= parts.max(1),
        "{} ranges exceed parts={parts}",
        ranges.len()
    );
    prop_assert_eq!(ranges[0].start, 0, "first range must start at 0");
    prop_assert_eq!(
        ranges[ranges.len() - 1].end,
        n,
        "last range must end at n={n}"
    );
    for (i, r) in ranges.iter().enumerate() {
        prop_assert!(r.start < r.end, "range {i} is empty: {r:?}");
        if i > 0 {
            // Contiguity gives sortedness, disjointness, and coverage in
            // one check.
            prop_assert_eq!(
                r.start,
                ranges[i - 1].end,
                "gap or overlap between {:?} and {:?}",
                &ranges[i - 1],
                r
            );
        }
    }
    Ok(())
}

/// Weight profiles the partitioner must survive. The selector integer
/// picks the shape (the vendored proptest has no `prop_oneof!`).
fn weights_strategy() -> impl Strategy<Value = Vec<usize>> {
    (0u8..4, 0usize..80, 0usize..80).prop_flat_map(|(mode, n, hub_at)| {
        proptest::collection::vec(0usize..5, n).prop_map(move |mut w| {
            match mode {
                // All-zero weights: must fall back to even splitting.
                0 => w.iter_mut().for_each(|x| *x = 0),
                // One hub holds ~all weight (a celebrity row in a
                // power-law graph).
                1 if !w.is_empty() => {
                    let at = hub_at % w.len();
                    w[at] = 1_000_000;
                }
                // Hub at the boundary: first item.
                2 if !w.is_empty() => w[0] = 1_000_000,
                // Mode 3 (and empty vecs): the small random weights as-is.
                _ => {}
            }
            w
        })
    })
}

fn cumulate(weights: &[usize]) -> Vec<usize> {
    let mut cum = Vec::with_capacity(weights.len() + 1);
    let mut acc = 0usize;
    cum.push(0);
    for &w in weights {
        acc += w;
        cum.push(acc);
    }
    cum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn even_ranges_satisfy_partition_contract((n, parts) in (0usize..200, 0usize..64)) {
        assert_partition(&even_ranges(n, parts), n, parts)?;
    }

    #[test]
    fn weight_balanced_ranges_satisfy_partition_contract(
        (weights, parts) in (weights_strategy(), 0usize..64)
    ) {
        let cum = cumulate(&weights);
        let ranges = weight_balanced_ranges(&cum, parts);
        assert_partition(&ranges, weights.len(), parts)?;
    }

    /// Balance claim: with positive total weight and no single item
    /// heavier than the ideal share, no range exceeds twice that share.
    #[test]
    fn weight_balanced_ranges_actually_balance(
        (weights, parts) in (proptest::collection::vec(1usize..8, 1..120), 2usize..9)
    ) {
        let cum = cumulate(&weights);
        let total = *cum.last().unwrap();
        let share = total.div_ceil(parts);
        let max_item = *weights.iter().max().unwrap();
        let ranges = weight_balanced_ranges(&cum, parts);
        for r in &ranges {
            let load = cum[r.end] - cum[r.start];
            // A range is grown past the target only by its final item.
            prop_assert!(
                load <= share + max_item,
                "range {r:?} carries {load} of {total} (share {share}, max item {max_item})"
            );
        }
    }
}

/// `parts` far beyond `n` collapses to singleton ranges, never empties.
#[test]
fn parts_beyond_n_collapse_to_singletons() {
    let ranges = even_ranges(5, 65_536);
    assert_eq!(ranges.len(), 5);
    assert!(ranges.iter().enumerate().all(|(i, r)| *r == (i..i + 1)));

    let cum = cumulate(&[3, 0, 0, 7, 1]);
    let ranges = weight_balanced_ranges(&cum, 1000);
    assert_eq!(ranges.first().map(|r| r.start), Some(0));
    assert_eq!(ranges.last().map(|r| r.end), Some(5));
    assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
}

/// Overflow regression: `n * parts` exceeding `usize` used to wrap and
/// mis-partition. The structural invariants must hold for huge `n` too.
#[test]
fn even_ranges_survive_huge_n() {
    let n = usize::MAX - 1;
    for parts in [2, 3, 7] {
        let ranges = even_ranges(n, parts);
        assert_eq!(ranges.len(), parts);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[parts - 1].end, n);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert!(ranges.iter().all(|r| r.start < r.end));
    }
}

/// The all-zero-weight fallback must behave exactly like `even_ranges`.
#[test]
fn zero_total_weight_matches_even_split() {
    for n in [0usize, 1, 2, 17] {
        let cum = vec![0usize; n + 1];
        for parts in [0usize, 1, 2, 5, 100] {
            assert_eq!(weight_balanced_ranges(&cum, parts), even_ranges(n, parts));
        }
    }
}
