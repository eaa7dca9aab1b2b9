//! The refinement scans equal an element-at-a-time model of the same work —
//! the records (positions, interval bits, order), the comparison count, the
//! lane's counters and the warp's commit charges.
//!
//! The model is written here from the accounting rules alone: per
//! candidate, `4` bytes for a gathered id, `16` bytes of timestamps, `48`
//! more for a temporal overlap, `COMPARE_INSTR` instructions, and one more
//! for a staged hit. The scans post all of that as one closed-form charge,
//! so these tests are what lets the closed form stand for the per-element
//! sum — for contiguous ranges, for the strided share a warp-per-tile lane
//! walks, and for ids gathered through an index array.

use proptest::prelude::*;
use std::sync::Arc;
use tdts_geom::{within_distance, MatchRecord, Point3, PreparedQuery, SegId, Segment, TrajId};
use tdts_gpu_sim::{
    Counters, Device, DeviceBuffer, DeviceConfig, FindingKind, SanitizerMode, Warp,
};
use tdts_kernels::{DeviceSegments, COLUMNAR_ROW_BYTES, COMPARE_INSTR};

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

/// How the lane reaches its candidates.
#[derive(Debug, Clone)]
enum Walk {
    /// Every `step`-th entry of `lo..hi`.
    Range { lo: u32, hi: u32, step: usize },
    /// Every `step`-th id of `ids[lo..hi]`.
    Gather { ids: Vec<u32>, lo: u32, hi: u32, step: usize },
    /// Positions the lane already holds (`U_k`).
    Positions(Vec<u32>),
}

impl Walk {
    /// The entry positions the walk visits, in order, and whether each one
    /// was gathered through an id read.
    fn positions(&self) -> (Vec<u32>, bool) {
        let stepped = |lo: u32, hi: u32, step: usize| (lo..hi.max(lo)).step_by(step);
        match self {
            Walk::Range { lo, hi, step } => (stepped(*lo, *hi, *step).collect(), false),
            Walk::Gather { ids, lo, hi, step } => {
                (stepped(*lo, *hi, *step).map(|i| ids[i as usize]).collect(), true)
            }
            Walk::Positions(positions) => (positions.clone(), false),
        }
    }
}

/// The element-at-a-time model of one lane's refinement.
fn model(entries: &[Segment], walk: &Walk, q: &Segment, d: f64) -> Outcome {
    let (positions, gathered) = walk.positions();
    let mut out = Outcome {
        records: Vec::new(),
        compared: positions.len() as u64,
        lane: Counters::default(),
        warp: Counters::default(),
    };
    for &pos in &positions {
        let e = &entries[pos as usize];
        out.lane.instructions += COMPARE_INSTR;
        out.lane.gmem_read_bytes += if gathered { 4 } else { 0 };
        out.lane.gmem_read_bytes +=
            if q.time_span().intersect(&e.time_span()).is_some() { COLUMNAR_ROW_BYTES } else { 16 };
        if let Some(iv) = within_distance(q, e, d) {
            out.lane.instructions += 1;
            out.records.push((QUERY_POS, pos, iv.start.to_bits(), iv.end.to_bits()));
        }
    }
    if !out.records.is_empty() {
        // Flush rounds of the stash's capacity: 8 converged instructions and
        // one atomic each, plus the coalesced writes.
        let capacity = DeviceConfig::test_tiny().warp_stash_capacity;
        let flushes = out.records.len().div_ceil(capacity) as u64;
        out.warp.instructions = 8 * flushes;
        out.warp.atomics = flushes;
        out.warp.gmem_write_bytes = (out.records.len() * std::mem::size_of::<MatchRecord>()) as u64;
    }
    out
}

/// The scan under test, on a one-lane warp.
fn refine(entries: &[Segment], walk: &Walk, q: &Segment, d: f64) -> Outcome {
    let dev = Device::new(DeviceConfig::test_tiny()).unwrap();
    let resident = DeviceSegments::alloc(&dev, entries).unwrap();
    let ids = match walk {
        Walk::Gather { ids, .. } => ids.clone(),
        _ => Vec::new(),
    };
    let ids: DeviceBuffer<u32> = dev.alloc_from_host(ids).unwrap();
    let mut results = dev.alloc_result::<MatchRecord>(walk.positions().0.len().max(1)).unwrap();
    let mut warp = Warp::standalone(1);
    let q = PreparedQuery::new(q, d);
    let mut compared = 0;
    let mut lane_counters = Counters::default();
    {
        let mut stash = results.warp_stash();
        warp.for_each_lane(|lane| {
            let stage = |lane: &mut tdts_gpu_sim::Lane, pos, interval| {
                stash.stage(lane, MatchRecord::new(QUERY_POS, pos, interval))
            };
            compared = match walk {
                Walk::Range { lo, hi, step } => {
                    resident.refine_range(lane, *lo..*hi, *step, &q, stage)
                }
                Walk::Gather { lo, hi, step, .. } => {
                    resident.refine_gather(lane, &ids, *lo..*hi, *step, &q, stage)
                }
                Walk::Positions(positions) => resident.refine_positions(lane, positions, &q, stage),
            };
            lane_counters = *lane.counters();
        });
        assert_eq!(stash.commit(&mut warp), 0, "the result buffer holds every hit");
    }
    let records = results
        .drain_to_host()
        .into_iter()
        .map(|r| (r.query, r.entry, r.interval.start.to_bits(), r.interval.end.to_bits()))
        .collect();
    Outcome { records, compared, lane: lane_counters, warp: *warp.counters() }
}

/// Refine, require the model's outcome, and hand it back.
fn check(entries: &[Segment], walk: Walk, q: &Segment, d: f64) -> Outcome {
    let got = refine(entries, &walk, q, d);
    assert_eq!(got, model(entries, &walk, q, d), "{walk:?}, d = {d}");
    got
}

fn range(lo: u32, hi: u32) -> Walk {
    Walk::Range { lo, hi, step: 1 }
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
    let ids: Vec<u32> = (0..8).rev().collect();
    for (lo, hi) in [(0, 0), (3, 3), (8, 8), (5, 2)] {
        for walk in [range(lo, hi), Walk::Gather { ids: ids.clone(), lo, hi, step: 3 }] {
            let out = check(&store, walk, &query(), 2.0);
            assert_eq!(out.compared, 0);
            assert!(out.records.is_empty());
            assert!(out.lane.is_zero() && out.warp.is_zero());
        }
    }
    let out = check(&store, Walk::Positions(Vec::new()), &query(), 2.0);
    assert!(out.lane.is_zero());
}

#[test]
fn single_elements_and_a_range_ending_at_len() {
    let store = mixed_store();
    let len = store.len() as u32;
    for pos in 0..len {
        assert_eq!(check(&store, range(pos, pos + 1), &query(), 2.0).compared, 1);
        assert_eq!(check(&store, Walk::Positions(vec![pos]), &query(), 2.0).compared, 1);
    }
    for lo in 0..len {
        assert_eq!(check(&store, range(lo, len), &query(), 2.0).compared, u64::from(len - lo));
    }
}

#[test]
fn strided_shares_partition_the_range() {
    // The lanes of a warp striding one tile together visit every candidate
    // exactly once, and their charges add up to the whole range's.
    let store = mixed_store();
    let whole = check(&store, range(1, 8), &query(), 3.0);
    for step in 1..=4u32 {
        let mut records = Vec::new();
        let mut bytes = 0;
        for lane in 0..step {
            let share = check(
                &store,
                Walk::Range { lo: 1 + lane, hi: 8, step: step as usize },
                &query(),
                3.0,
            );
            records.extend(share.records);
            bytes += share.lane.gmem_read_bytes;
        }
        records.sort_by_key(|r| r.1);
        assert_eq!(records, whole.records, "step {step}");
        assert_eq!(bytes, whole.lane.gmem_read_bytes, "step {step}");
    }
}

#[test]
fn gathered_ids_cost_four_bytes_each_and_keep_their_order() {
    let store = mixed_store();
    // Out of order, with a repeat: both survive into the records.
    let ids = vec![5, 3, 0, 3, 1, 7];
    let out =
        check(&store, Walk::Gather { ids: ids.clone(), lo: 0, hi: 6, step: 1 }, &query(), 3.0);
    assert_eq!(out.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![5, 3, 0, 3, 7]);
    assert_eq!(out.lane.gmem_read_bytes, 6 * 4 + 5 * COLUMNAR_ROW_BYTES + 16);
    let stepped = check(&store, Walk::Gather { ids, lo: 1, hi: 6, step: 2 }, &query(), 3.0);
    assert_eq!(stepped.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![3, 3, 7]);
}

#[test]
fn temporally_disjoint_entries_cost_their_timestamps_only() {
    let store: Vec<Segment> = (0..9)
        .map(|i| {
            seg(p(i as f64, 0.0, 0.0), p(i as f64, 1.0, 0.0), 10.0 + i as f64, 11.0 + i as f64)
        })
        .collect();
    let out = check(&store, range(0, 9), &query(), 100.0);
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
    let out = check(&store, range(0, 8), &query(), 3.0);
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
    let at = check(&store, range(4, 6), &query(), 3.0);
    assert_eq!(at.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![4, 5]);
    let below = check(&store, range(4, 5), &query(), 3.0 - 1e-12);
    assert!(below.records.is_empty());
    let touch = check(&store, range(5, 6), &query(), 1.0);
    assert_eq!(touch.records.len(), 1);
    assert_eq!(touch.records[0].2, touch.records[0].3, "a point interval");
    // d = 0: only the twin (everywhere) and nothing else.
    let zero = check(&store, range(0, 8), &query(), 0.0);
    assert_eq!(zero.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![3]);
    assert_eq!(zero.records[0].2, 2.0f64.to_bits());
    assert_eq!(zero.records[0].3, 6.0f64.to_bits());
}

fn sanitized() -> Arc<Device> {
    Device::new(DeviceConfig { sanitizer: SanitizerMode::Full, ..DeviceConfig::test_tiny() })
        .unwrap()
}

#[test]
fn out_of_bounds_gathers_are_reported_element_by_element() {
    let q = PreparedQuery::new(&query(), 3.0);
    // An id range past the end of the index array, then an id past the end
    // of the entries: each bad read is a finding, neutralised, and still
    // counted as a comparison.
    for (ids, range) in [(vec![0u32, 3], 0..3), (vec![3, 99], 0..2)] {
        let dev = sanitized();
        let resident = DeviceSegments::alloc(&dev, &mixed_store()).unwrap();
        let ids = dev.alloc_from_host(ids).unwrap();
        dev.launch(1, |lane| {
            let compared = resident.refine_gather(lane, &ids, range.clone(), 1, &q, |_, _, _| {});
            assert_eq!(compared, range.len() as u64);
        });
        let report = dev.sanitizer_report();
        assert!(!report.findings.is_empty());
        assert!(report.findings.iter().all(|f| f.kind == FindingKind::OutOfBoundsRead));
    }
    // Without a sanitizer the same gather panics like a slice index.
    let dev = Device::new(DeviceConfig::test_tiny()).unwrap();
    let resident = DeviceSegments::alloc(&dev, &mixed_store()).unwrap();
    let ids = dev.alloc_from_host(vec![3u32, 99]).unwrap();
    let mut lane = tdts_gpu_sim::Lane::new(0);
    let gather = std::panic::AssertUnwindSafe(|| {
        resident.refine_gather(&mut lane, &ids, 0..2, 1, &q, |_, _, _| {})
    });
    assert!(std::panic::catch_unwind(gather).is_err());
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
    fn scans_equal_the_element_model(
        qa in arb_triple(),
        qb in arb_triple(),
        qt in (0.0f64..10.0, 0.0f64..5.0, 0u32..4),
        recipes in proptest::collection::vec(arb_recipe(), 1..40),
        cut in (0.0f64..1.0, 0.0f64..1.0),
        d in (0u32..4, 0.0f64..30.0),
        step in 1usize..6,
        picks in proptest::collection::vec(0u32..1_000, 0..40),
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
        let (lo, hi) = (at(cut.0), at(cut.1));
        check(&store, Walk::Range { lo, hi, step }, &q, d);
        check(&store, range(0, store.len() as u32), &q, d);
        // Arbitrary ids into the store, repeats and any order included.
        let ids: Vec<u32> = picks.iter().map(|&i| i % store.len() as u32).collect();
        let n = ids.len() as u32;
        check(&store, Walk::Gather { ids: ids.clone(), lo: lo.min(n), hi: hi.min(n), step }, &q, d);
        check(&store, Walk::Positions(ids), &q, d);
    }
}
