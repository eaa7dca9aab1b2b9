//! A contiguous candidate range refined as one scan equals the same range
//! refined one element at a time — the records (positions, interval bits,
//! order), the lane's counters and the warp's commit charges.
//!
//! The element path is the `compare_and_stage` loop the thread-per-query
//! kernels ran before the range form existed, so these tests are what lets
//! the closed-form charge replace the per-element sum.

use proptest::prelude::*;
use tdts_geom::{MatchRecord, Point3, PreparedQuery, SegId, Segment, TrajId};
use tdts_gpu_sim::{Counters, Device, DeviceConfig, Warp};
use tdts_kernels::{
    compare_and_stage, refine_range_and_stage, DeviceSegments, COLUMNAR_ROW_BYTES, COMPARE_INSTR,
};

const QUERY_POS: u32 = 7;

fn seg(start: Point3, end: Point3, t_start: f64, t_end: f64) -> Segment {
    Segment::new(start, end, t_start, t_end, SegId(0), TrajId(0))
}

fn p(x: f64, y: f64, z: f64) -> Point3 {
    Point3::new(x, y, z)
}

/// Everything one lane's refinement leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(query, entry, interval.start bits, interval.end bits)` in commit order.
    records: Vec<(u32, u32, u64, u64)>,
    compared: u64,
    lane: Counters,
    warp: Counters,
}

#[derive(Clone, Copy)]
enum Path {
    Elements,
    Range,
}

fn refine(entries: &[Segment], range: [u32; 2], q: &Segment, d: f64, path: Path) -> Outcome {
    let dev = Device::new(DeviceConfig::test_tiny()).unwrap();
    let resident = DeviceSegments::alloc(&dev, entries).unwrap();
    let mut results = dev.alloc_result::<MatchRecord>(entries.len()).unwrap();
    let mut warp = Warp::standalone(1);
    let mut compared = 0u64;
    let mut lane_counters = Counters::default();
    {
        let mut stash = results.warp_stash();
        warp.for_each_lane(|lane| {
            match path {
                Path::Elements => {
                    for pos in range[0]..range[1] {
                        compared += 1;
                        compare_and_stage(lane, &resident, pos, q, QUERY_POS, d, &mut stash);
                    }
                }
                Path::Range => {
                    let q = PreparedQuery::new(q, d);
                    compared =
                        refine_range_and_stage(lane, &resident, range, &q, QUERY_POS, &mut stash);
                }
            }
            lane_counters = *lane.counters();
        });
        assert_eq!(stash.commit(&mut warp), 0, "the result buffer holds every entry");
    }
    let records = results
        .drain_to_host()
        .into_iter()
        .map(|r| (r.query, r.entry, r.interval.start.to_bits(), r.interval.end.to_bits()))
        .collect();
    Outcome { records, compared, lane: lane_counters, warp: *warp.counters() }
}

/// Refine both ways, require identical outcomes, and hand back the outcome.
fn both(entries: &[Segment], range: [u32; 2], q: &Segment, d: f64) -> Outcome {
    let elements = refine(entries, range, q, d, Path::Elements);
    let ranged = refine(entries, range, q, d, Path::Range);
    assert_eq!(ranged, elements, "range {range:?}, d = {d}");
    ranged
}

/// The query every fixture refines against: t in [2, 6], moving along +x.
fn query() -> Segment {
    seg(p(0.0, 0.0, 0.0), p(4.0, 0.0, 0.0), 2.0, 6.0)
}

/// A store mixing ordinary entries with every degenerate kind.
fn mixed_store() -> Vec<Segment> {
    let q = query();
    vec![
        seg(p(1.0, 1.0, 0.0), p(3.0, -1.0, 0.5), 1.0, 5.0), // crossing
        seg(p(9.0, 9.0, 9.0), p(8.0, 9.0, 9.0), 7.0, 8.0),  // temporally disjoint
        seg(p(2.0, 0.5, 0.0), p(2.0, 0.5, 0.0), 4.0, 4.0),  // zero duration, stationary
        q,                                                  // identical to the query
        seg(p(0.0, 3.0, 0.0), p(4.0, 3.0, 0.0), 2.0, 6.0),  // parallel, separation 3
        seg(p(4.0, 1.0, 0.0), p(0.0, 1.0, 0.0), 2.0, 6.0),  // head-on, closest approach 1
        seg(p(0.0, 0.0, 50.0), p(1.0, 0.0, 50.0), 0.0, 9.0), // overlapping but far
        seg(p(1.0, 0.0, 0.0), p(1.0, 0.0, 0.0), 6.0, 6.0),  // zero duration at the span's edge
    ]
}

#[test]
fn empty_and_inverted_ranges_do_nothing() {
    let store = mixed_store();
    for range in [[0, 0], [3, 3], [8, 8], [5, 2]] {
        let out = both(&store, range, &query(), 2.0);
        assert_eq!(out.compared, 0);
        assert!(out.records.is_empty());
        assert!(out.lane.is_zero() && out.warp.is_zero());
    }
}

#[test]
fn single_elements_and_a_range_ending_at_len() {
    let store = mixed_store();
    let len = store.len() as u32;
    for pos in 0..len {
        let out = both(&store, [pos, pos + 1], &query(), 2.0);
        assert_eq!(out.compared, 1);
    }
    for lo in 0..len {
        let out = both(&store, [lo, len], &query(), 2.0);
        assert_eq!(out.compared, u64::from(len - lo));
    }
}

#[test]
fn temporally_disjoint_entries_cost_their_timestamps_only() {
    let store: Vec<Segment> = (0..9)
        .map(|i| {
            seg(p(i as f64, 0.0, 0.0), p(i as f64, 1.0, 0.0), 10.0 + i as f64, 11.0 + i as f64)
        })
        .collect();
    let out = both(&store, [0, 9], &query(), 100.0);
    assert!(out.records.is_empty());
    assert_eq!(out.lane.gmem_read_bytes, 9 * 16);
    assert_eq!(out.lane.instructions, 9 * COMPARE_INSTR);
}

#[test]
fn overlapping_entries_cost_the_full_row_and_hits_one_more_instruction() {
    let store = mixed_store();
    // d = 3: the crossing, the stationary point, the twin, the parallel
    // entry at exactly 3, the head-on entry and the edge point hit; the far
    // entry overlaps in time but misses; one entry is temporally disjoint.
    let out = both(&store, [0, 8], &query(), 3.0);
    let hit: Vec<u32> = out.records.iter().map(|r| r.1).collect();
    assert_eq!(hit, vec![0, 2, 3, 4, 5, 7]);
    assert_eq!(out.lane.gmem_read_bytes, 7 * COLUMNAR_ROW_BYTES + 16);
    assert_eq!(out.lane.instructions, 8 * COMPARE_INSTR + 6);
}

#[test]
fn separation_exactly_d_and_d_zero() {
    let store = mixed_store();
    // Parallel motion (c2 = 0) at constant separation 3: in at d = 3, out
    // just below it. Head-on at closest approach 1: a point interval at
    // d = 1.
    let at = both(&store, [4, 6], &query(), 3.0);
    assert_eq!(at.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![4, 5]);
    let below = both(&store, [4, 5], &query(), 3.0 - 1e-12);
    assert!(below.records.is_empty());
    let touch = both(&store, [5, 6], &query(), 1.0);
    assert_eq!(touch.records.len(), 1);
    assert_eq!(touch.records[0].2, touch.records[0].3, "a point interval");
    // d = 0: only the twin (everywhere) and nothing else.
    let zero = both(&store, [0, 8], &query(), 0.0);
    assert_eq!(zero.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![3]);
    assert_eq!(zero.records[0].2, 2.0f64.to_bits());
    assert_eq!(zero.records[0].3, 6.0f64.to_bits());
}

/// One generated entry: a kind selector plus free parameters, resolved
/// against the case's query in [`entry_of`].
type Recipe = (u32, (f64, f64, f64), (f64, f64, f64), f64, f64);

fn arb_triple() -> impl Strategy<Value = (f64, f64, f64)> {
    (-20.0f64..20.0, -20.0f64..20.0, -20.0f64..20.0)
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (0u32..6, arb_triple(), arb_triple(), 0.0f64..10.0, 0.001f64..5.0)
}

fn entry_of(q: &Segment, (kind, a, b, t0, dt): Recipe) -> Segment {
    let (a, b) = (p(a.0, a.1, a.2), p(b.0, b.1, b.2));
    match kind {
        // Temporally disjoint, after the query.
        0 => seg(a, b, q.t_end + 0.5 + t0, q.t_end + 0.5 + t0 + dt),
        // Zero duration: `velocity()` takes its zero branch.
        1 => seg(a, a, t0, t0),
        // The query itself.
        2 => *q,
        // Parallel motion: the query translated, same timestamps (c2 = 0).
        3 => seg(q.start + a * 0.1, q.end + a * 0.1, q.t_start, q.t_end),
        // Ordinary segments.
        _ => seg(a, b, t0, t0 + dt),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn range_path_equals_element_path(
        qa in arb_triple(),
        qb in arb_triple(),
        qt in (0.0f64..10.0, 0.0f64..5.0, 0u32..4),
        recipes in proptest::collection::vec(arb_recipe(), 1..40),
        cut in (0.0f64..1.0, 0.0f64..1.0),
        d in (0u32..4, 0.0f64..30.0),
    ) {
        // One query in four is itself instantaneous.
        let duration = if qt.2 == 0 { 0.0 } else { qt.1 };
        let q = seg(p(qa.0, qa.1, qa.2), p(qb.0, qb.1, qb.2), qt.0, qt.0 + duration);
        let store: Vec<Segment> = recipes.iter().map(|r| entry_of(&q, *r)).collect();
        let len = store.len() as f64;
        // Any pair of cut points, inverted ones included; `1.0` is excluded
        // by the strategy, so stretch to reach `len` itself.
        let at = |f: f64| ((f * (len + 1.0)) as u32).min(store.len() as u32);
        let d = if d.0 == 0 { 0.0 } else { d.1 };
        both(&store, [at(cut.0), at(cut.1)], &q, d);
        both(&store, [0, store.len() as u32], &q, d);
    }
}
