//! Tier-1: the four methods agree on what they compute and on what they
//! charge for it.
//!
//! All four methods must return *byte-identical* result sets (exact
//! `MatchRecord` equality, not tolerance-based diffing) on the Merger and
//! Random-dense scenario generators, and each method's comparison count is
//! pinned: the temporal prefilter rejects inside a comparison, it must not
//! skip one.

use tdts::prelude::*;

mod common;
use common::assert_byte_identical;

fn methods() -> Vec<Method> {
    common::methods(40, 500_000)
}

/// `comparisons[i][j]` is the pinned count of `methods()[j]` at
/// `distances[i]`.
fn check_scenario(
    store: SegmentStore,
    queries: SegmentStore,
    distances: &[f64],
    comparisons: &[[u64; 4]],
    label: &str,
) {
    let dataset = PreparedDataset::new(store);
    for (&d, pinned) in distances.iter().zip(comparisons) {
        let mut reference: Option<Vec<MatchRecord>> = None;
        for (method, &pinned) in methods().into_iter().zip(pinned) {
            let device = Device::new(DeviceConfig::tesla_c2075()).unwrap();
            let engine = SearchEngine::build(&dataset, method, device).unwrap();
            let (got, report) = engine.search(&queries, d, 2_000_000).unwrap();
            let name = method.name();
            assert_eq!(report.comparisons, pinned, "{label}/{name} d={d}: comparisons");
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    assert_byte_identical(&got, r, &format!("{label}/{name} vs reference d={d}"))
                }
            }
        }
        assert!(
            reference.as_ref().is_some_and(|r| !r.is_empty()),
            "{label} d={d}: scenario must produce matches for the test to mean anything"
        );
    }
}

#[test]
fn merger_scenario_byte_identical() {
    let store = MergerConfig { particles: 60, timesteps: 25, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 12, timesteps: 25, seed: 77, ..Default::default() }.generate();
    let comparisons = [[2_017, 29_329, 50_400, 21_940], [10_805, 87_437, 50_400, 33_594]];
    check_scenario(store, queries, &[1.0, 4.0], &comparisons, "merger");
}

#[test]
fn random_dense_scenario_byte_identical() {
    let store = RandomDenseConfig { particles: 64, timesteps: 20, ..Default::default() }.generate();
    let queries =
        RandomDenseConfig { particles: 12, timesteps: 20, seed: 55, ..Default::default() }
            .generate();
    let comparisons = [[22_191, 6_310_153, 42_240, 42_240], [42_240, 18_166_356, 42_240, 42_240]];
    check_scenario(store, queries, &[2.0, 12.0], &comparisons, "random-dense");
}
