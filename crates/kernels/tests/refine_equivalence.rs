//! The refinement scans equal an element-at-a-time model of the same work —
//! the records (positions, interval bits, order), the comparison count,
//! every lane's counters and the warp's commit charges.
//!
//! The model is written here from the accounting rules alone: per
//! candidate, `4` bytes for a gathered id, `16` bytes of timestamps, `48`
//! more for a temporal overlap, `COMPARE_INSTR` instructions, and one more
//! for a staged hit. It walks each lane's share separately — lane `l` of
//! `w` takes candidates `l`, `l + w`, … — the way the lanes of a warp
//! stride a tile together. The scans visit the candidates once, in order,
//! deal candidate `j` to lane `j % w`, and post each lane's charge in
//! closed form, so these tests are what lets the one scan and the closed
//! form stand for the per-lane, per-element sum — for contiguous ranges,
//! for a warp's whole tile, and for ids gathered through an index array.

use proptest::prelude::*;
use std::sync::Arc;
use tdts_geom::{within_distance, MatchRecord, Point3, PreparedQuery, SegId, Segment, TrajId};
use tdts_gpu_sim::{
    Counters, Device, DeviceBuffer, DeviceConfig, FindingKind, SanitizerMode, Warp,
};
use tdts_kernels::{DeviceSegments, COLUMNAR_ROW_BYTES, COMPARE_INSTR, SCAN_CHUNK};

const QUERY_POS: u32 = 7;

fn seg(start: Point3, end: Point3, t_start: f64, t_end: f64) -> Segment {
    Segment::new(start, end, t_start, t_end, SegId(0), TrajId(0))
}

fn p(x: f64, y: f64, z: f64) -> Point3 {
    Point3::new(x, y, z)
}

/// Everything one refinement leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(query, entry, interval.start bits, interval.end bits)` in commit order.
    records: Vec<(u32, u32, u64, u64)>,
    compared: u64,
    /// Each lane's counters, in lane order.
    lanes: Vec<Counters>,
    warp: Counters,
}

/// How the lanes reach their candidates.
#[derive(Debug, Clone)]
enum Walk {
    /// The entries `lo..hi`.
    Range { lo: u32, hi: u32 },
    /// The ids `ids[lo..hi]`, entry positions, stored on the device as
    /// `position + origin` (wrapping) and gathered with that `origin`.
    Gather { ids: Vec<u32>, origin: u32, lo: u32, hi: u32 },
    /// Positions the lane already holds (`U_k`).
    Positions(Vec<u32>),
}

impl Walk {
    /// The entry positions the walk visits, in order, and whether each one
    /// was gathered through an id read.
    fn positions(&self) -> (Vec<u32>, bool) {
        match self {
            Walk::Range { lo, hi } => ((*lo..*hi).collect(), false),
            Walk::Gather { ids, lo, hi, .. } => {
                ((*lo..*hi).map(|i| ids[i as usize]).collect(), true)
            }
            Walk::Positions(positions) => (positions.clone(), false),
        }
    }
}

/// The element-at-a-time model of a refinement on `w` lanes, each lane
/// walking its share with stride `w`.
fn model(entries: &[Segment], walk: &Walk, q: &Segment, d: f64, w: usize) -> Outcome {
    let (positions, gathered) = walk.positions();
    let mut lanes = vec![Counters::default(); w];
    let mut staged = vec![Vec::new(); w];
    for (l, lane) in lanes.iter_mut().enumerate() {
        for &pos in positions.iter().skip(l).step_by(w) {
            let e = &entries[pos as usize];
            lane.instructions += COMPARE_INSTR;
            lane.gmem_read_bytes += if gathered { 4 } else { 0 };
            lane.gmem_read_bytes += if q.time_span().intersect(&e.time_span()).is_some() {
                COLUMNAR_ROW_BYTES
            } else {
                16
            };
            if let Some(iv) = within_distance(q, e, d) {
                lane.instructions += 1;
                staged[l].push((QUERY_POS, pos, iv.start.to_bits(), iv.end.to_bits()));
            }
        }
    }
    let mut warp = Counters::default();
    let records: Vec<_> = staged.iter().flatten().copied().collect();
    if !records.is_empty() {
        // Flush rounds of the stash's capacity, set by the fullest lane: 8
        // converged instructions and one atomic each, plus the coalesced
        // writes of every record, lane by lane.
        let capacity = DeviceConfig::test_tiny().warp_stash_capacity;
        let flushes = staged.iter().map(|s| s.len().div_ceil(capacity)).max().unwrap() as u64;
        warp.instructions = 8 * flushes;
        warp.atomics = flushes;
        warp.gmem_write_bytes = (records.len() * std::mem::size_of::<MatchRecord>()) as u64;
    }
    Outcome { records, compared: positions.len() as u64, lanes, warp }
}

/// The scan under test, on a warp of `w` lanes.
fn refine(entries: &[Segment], walk: &Walk, q: &Segment, d: f64, w: usize) -> Outcome {
    refine_on(&Device::new(DeviceConfig::test_tiny()).unwrap(), entries, walk, q, d, w)
}

/// [`refine`] on device `dev`.
fn refine_on(
    dev: &Arc<Device>,
    entries: &[Segment],
    walk: &Walk,
    q: &Segment,
    d: f64,
    w: usize,
) -> Outcome {
    let resident = DeviceSegments::alloc(dev, entries).unwrap();
    let (ids, origin) = match walk {
        Walk::Gather { ids, origin, .. } => {
            (ids.iter().map(|pos| pos.wrapping_add(*origin)).collect(), *origin)
        }
        _ => (Vec::new(), 0),
    };
    let ids: DeviceBuffer<u32> = dev.alloc_from_host(ids).unwrap();
    let mut results = dev.alloc_result::<MatchRecord>(walk.positions().0.len().max(1)).unwrap();
    let mut warp = Warp::standalone(w);
    let q = PreparedQuery::new(q, d);
    let (compared, lanes) = {
        let mut stash = results.warp_stash();
        let stage = |lane: &mut tdts_gpu_sim::Lane, pos, interval| {
            stash.stage(lane, MatchRecord::new(QUERY_POS, pos, interval))
        };
        let lanes = warp.lanes_mut();
        let compared = match walk {
            Walk::Range { lo, hi } => resident.refine_range(lanes, *lo..*hi, &q, stage),
            Walk::Gather { lo, hi, .. } => {
                resident.refine_gather(lanes, &ids, origin, *lo..*hi, &q, stage)
            }
            Walk::Positions(positions) => resident.refine_positions(lanes, positions, &q, stage),
        };
        let lanes = warp.lanes_mut().iter().map(|lane| *lane.counters()).collect();
        assert_eq!(stash.commit(&mut warp), 0, "the result buffer holds every hit");
        (compared, lanes)
    };
    // Charged like a search's download, so a sanitized device balances.
    dev.charge_download(results.len() * std::mem::size_of::<MatchRecord>());
    let records = results
        .drain_to_host()
        .into_iter()
        .map(|r| (r.query, r.entry, r.interval.start.to_bits(), r.interval.end.to_bits()))
        .collect();
    Outcome { records, compared, lanes, warp: *warp.counters() }
}

/// Refine on `w` lanes, require the model's outcome, and hand it back.
fn check_on(entries: &[Segment], walk: Walk, q: &Segment, d: f64, w: usize) -> Outcome {
    let got = refine(entries, &walk, q, d, w);
    assert_eq!(got, model(entries, &walk, q, d, w), "{walk:?}, d = {d}, {w} lanes");
    got
}

/// [`check_on`] a single lane: a thread-per-query walk.
fn check(entries: &[Segment], walk: Walk, q: &Segment, d: f64) -> Outcome {
    check_on(entries, walk, q, d, 1)
}

fn range(lo: u32, hi: u32) -> Walk {
    Walk::Range { lo, hi }
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
        for walk in [range(lo, hi), Walk::Gather { ids: ids.clone(), origin: 0, lo, hi }] {
            for w in [1, 4] {
                let out = check_on(&store, walk.clone(), &query(), 2.0, w);
                assert_eq!(out.compared, 0);
                assert!(out.records.is_empty());
                assert!(out.lanes.iter().all(Counters::is_zero) && out.warp.is_zero());
            }
        }
    }
    let out = check(&store, Walk::Positions(Vec::new()), &query(), 2.0);
    assert!(out.lanes[0].is_zero());
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

/// `n` entries cycling through [`mixed_store`]'s kinds.
fn long_store(n: usize) -> Vec<Segment> {
    mixed_store().into_iter().cycle().take(n).collect()
}

#[test]
fn a_warp_scans_its_tile_like_lanes_striding_it() {
    // A tile of every length from empty to three warps and one, contiguous
    // or gathered through ids that are out of order and repeat: the one scan
    // gives every lane the counters and records of its strided walk.
    for w in 1..=5usize {
        let store = long_store(3 * w + 4);
        for len in 0..=(3 * w + 1) as u32 {
            for lo in [0, 2] {
                check_on(&store, range(lo, lo + len), &query(), 3.0, w);
                let ids: Vec<u32> = (0..lo + len).map(|i| (i * 7 + 3) % 11 % len.max(1)).collect();
                let walk = Walk::Gather { ids, origin: 0, lo, hi: lo + len };
                check_on(&store, walk, &query(), 3.0, w);
            }
        }
    }
}

#[test]
fn lane_shares_partition_the_tile() {
    // The lanes of a warp scanning one tile together visit every candidate
    // exactly once, and their charges add up to one lane walking it all.
    let store = mixed_store();
    let whole = check(&store, range(1, 8), &query(), 3.0);
    for w in 1..=4 {
        let shared = check_on(&store, range(1, 8), &query(), 3.0, w);
        let mut records = shared.records.clone();
        records.sort_by_key(|r| r.1);
        assert_eq!(records, whole.records, "{w} lanes");
        let mut sum = Counters::default();
        shared.lanes.iter().for_each(|c| sum.add(c));
        assert_eq!(sum, whole.lanes[0], "{w} lanes");
    }
}

/// The lengths around the scan's chunk size `C`: empty, one row, one
/// short of a chunk, a chunk, one past it, and three chunks and a tail.
fn chunk_boundary_lengths() -> [u32; 6] {
    let c = SCAN_CHUNK as u32;
    [0, 1, c - 1, c, c + 1, 3 * c + 5]
}

/// `len` ids into the first `len / 2 + 1` entries, out of order and
/// repeating.
fn scrambled_ids(len: u32) -> Vec<u32> {
    (0..len).map(|i| (i * 37 + 11) % (len / 2 + 1)).collect()
}

#[test]
fn chunk_boundaries_equal_the_element_model() {
    // Every walk at every length around the chunk size, on one lane, on
    // three (whose chunks hold 63 rows, so the boundaries shift) and on a
    // full warp: hits, their per-lane order and every counter match the
    // element-at-a-time model.
    for len in chunk_boundary_lengths() {
        let store = long_store(len as usize + 3);
        let ids = scrambled_ids(len + 3);
        for w in [1, 3, 32] {
            check_on(&store, range(0, len), &query(), 3.0, w);
            check_on(&store, range(3, len + 3), &query(), 3.0, w);
            for origin in [0, 1000, u32::MAX - 4] {
                let walk = Walk::Gather { ids: ids.clone(), origin, lo: 3, hi: len + 3 };
                check_on(&store, walk, &query(), 3.0, w);
            }
            check_on(&store, Walk::Positions(ids[3..].to_vec()), &query(), 3.0, w);
        }
    }
}

/// `n` entries cycling through those of [`mixed_store`]'s kinds that
/// overlap the query in time.
fn overlapping_store(n: usize) -> Vec<Segment> {
    let span = query().time_span();
    let kinds = mixed_store().into_iter().filter(|e| e.time_span().intersect(&span).is_some());
    kinds.collect::<Vec<_>>().into_iter().cycle().take(n).collect()
}

#[test]
fn chunks_whose_every_row_overlaps_equal_the_element_model() {
    // Stores whose every row overlaps the query, so each full chunk of a
    // walk is counted whole, and one whose second chunk holds a single
    // disjoint row, counted row by row like every tail: on one lane, on
    // three (63-row chunks) and on a full warp, every walk's records, their
    // per-lane order and every counter match the element-at-a-time model.
    let mut stores = [0, 1, 63, 64, 65, 197].map(overlapping_store).to_vec();
    let span = query().time_span();
    assert!(stores.iter().flatten().all(|e| e.time_span().intersect(&span).is_some()));
    let mut one_disjoint = overlapping_store(197);
    one_disjoint[SCAN_CHUNK + SCAN_CHUNK / 2] = mixed_store()[1];
    assert!(one_disjoint[SCAN_CHUNK + SCAN_CHUNK / 2].time_span().intersect(&span).is_none());
    stores.push(one_disjoint);
    for store in &stores {
        let len = store.len() as u32;
        let in_order: Vec<u32> = (0..len).collect();
        for w in [1, 3, 32] {
            check_on(store, range(0, len), &query(), 3.0, w);
            let walk = Walk::Gather { ids: in_order.clone(), origin: 0, lo: 0, hi: len };
            check_on(store, walk, &query(), 3.0, w);
            let walk = Walk::Gather { ids: scrambled_ids(len), origin: 1000, lo: 0, hi: len };
            check_on(store, walk, &query(), 3.0, w);
            check_on(store, Walk::Positions(in_order.clone()), &query(), 3.0, w);
        }
    }
}

#[test]
fn a_bad_id_mid_chunk_is_one_finding_and_a_temporal_reject() {
    // A gathered id past the entries in the middle of the second chunk: one
    // out-of-bounds finding on the lane it is dealt to, and otherwise the
    // outcome of gathering a temporally disjoint entry in its place.
    let len = 3 * SCAN_CHUNK as u32 + 5;
    let store = long_store(len as usize);
    let disjoint = 1;
    assert!(store[disjoint as usize].time_span().intersect(&query().time_span()).is_none());
    let bad_at = SCAN_CHUNK + SCAN_CHUNK / 2;
    for w in [1, 3, 32] {
        let mut ids = scrambled_ids(len);
        ids[bad_at] = 10_000;
        let dev = sanitized();
        let walk = Walk::Gather { ids: ids.clone(), origin: 7, lo: 0, hi: len };
        let got = refine_on(&dev, &store, &walk, &query(), 3.0, w);
        ids[bad_at] = disjoint;
        let walk = Walk::Gather { ids, origin: 7, lo: 0, hi: len };
        assert_eq!(got, model(&store, &walk, &query(), 3.0, w), "{w} lanes");
        let report = dev.sanitizer_report();
        assert_eq!(report.findings.len(), 1, "{report}");
        let finding = &report.findings[0];
        assert_eq!(finding.kind, FindingKind::OutOfBoundsRead);
        assert_eq!((finding.offset, finding.lanes.as_slice()), (10_000, &[bad_at % w][..]));
    }
}

#[test]
fn gathered_ids_cost_four_bytes_each_and_keep_their_order() {
    let store = mixed_store();
    // Out of order, with a repeat: both survive into the records.
    let ids = vec![5, 3, 0, 3, 1, 7];
    let out =
        check(&store, Walk::Gather { ids: ids.clone(), origin: 0, lo: 0, hi: 6 }, &query(), 3.0);
    assert_eq!(out.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![5, 3, 0, 3, 7]);
    assert_eq!(out.lanes[0].gmem_read_bytes, 6 * 4 + 5 * COLUMNAR_ROW_BYTES + 16);
    // On two lanes, lane 0 takes ids 3, 3, 7 and lane 1 takes 0, 1: lane 0's
    // records commit first.
    let shared = check_on(&store, Walk::Gather { ids, origin: 0, lo: 1, hi: 6 }, &query(), 3.0, 2);
    assert_eq!(shared.records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![3, 3, 7, 0]);
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
    assert_eq!(out.lanes[0].gmem_read_bytes, 9 * 16);
    assert_eq!(out.lanes[0].instructions, 9 * COMPARE_INSTR);
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
    assert_eq!(out.lanes[0].gmem_read_bytes, 7 * COLUMNAR_ROW_BYTES + 16);
    assert_eq!(out.lanes[0].instructions, 8 * COMPARE_INSTR + 6);
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
        dev.launch_warps_ordered(
            1,
            |warp| {
                let lanes = warp.lanes_mut();
                let compared =
                    resident.refine_gather(lanes, &ids, 0, range.clone(), &q, |_, _, _| {});
                assert_eq!(compared, range.len() as u64);
            },
            |_, ()| {},
        );
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
        resident.refine_gather(std::slice::from_mut(&mut lane), &ids, 0, 0..2, &q, |_, _, _| {})
    });
    assert!(std::panic::catch_unwind(gather).is_err());
}

#[test]
fn a_tile_leaving_its_buffer_is_reported_and_still_counted() {
    // A warp's tile whose id run leaves the index array, and one whose
    // entry range leaves the database: every missing read is an
    // out-of-bounds finding, neutralised, and its comparison still counts
    // on the lane it was dealt to.
    let q = PreparedQuery::new(&query(), 3.0);
    let dev = sanitized();
    let resident = DeviceSegments::alloc(&dev, &mixed_store()).unwrap();
    let ids = dev.alloc_from_host(vec![0u32, 3, 5]).unwrap();
    dev.launch_warps_ordered(
        4,
        |warp| {
            let mut hits = Vec::new();
            let lanes = warp.lanes_mut();
            let compared =
                resident.refine_gather(lanes, &ids, 0, 1..6, &q, |_, pos, _| hits.push(pos));
            assert_eq!(compared, 5);
            // Lanes 0..4 take ids 1..5, lane 0 also id 5: the three missing ids
            // neutralise to the first id (entry 0, a hit), so the hits are the
            // two real ids, 3 and 5, then entry 0 three times.
            assert_eq!(hits, vec![3, 5, 0, 0, 0]);
            // Each lane is charged its share of the comparisons (the callback
            // here stages nothing).
            let shares: Vec<u64> = lanes.iter().map(|l| l.counters().instructions).collect();
            assert_eq!(shares, [2, 1, 1, 1].map(|k| k * COMPARE_INSTR));
        },
        |_, ()| {},
    );
    let report = dev.sanitizer_report();
    assert_eq!(report.findings.len(), 4, "{report}");
    assert!(report.findings.iter().all(|f| f.kind == FindingKind::OutOfBoundsRead));

    let dev = sanitized();
    let resident = DeviceSegments::alloc(&dev, &mixed_store()).unwrap();
    dev.launch_warps_ordered(
        4,
        |warp| {
            let mut hits = Vec::new();
            let lanes = warp.lanes_mut();
            let compared = resident.refine_range(lanes, 6..11, &q, |_, pos, _| hits.push(pos));
            assert_eq!(compared, 5);
            // Entries 6 and 7 exist (only 7 is within 3); 8..11 do not.
            assert_eq!(hits, vec![7]);
            // Lane 0 takes entries 6 (overlapping, far) and 10 (missing).
            assert_eq!(lanes[0].counters().gmem_read_bytes, COLUMNAR_ROW_BYTES + 16);
            assert_eq!(lanes[0].counters().instructions, 2 * COMPARE_INSTR);
        },
        |_, ()| {},
    );
    let report = dev.sanitizer_report();
    assert_eq!(report.findings.len(), 3, "{report}");
    assert!(report.findings.iter().all(|f| f.kind == FindingKind::OutOfBoundsRead));

    // Without a sanitizer both panic like a slice index.
    let dev = Device::new(DeviceConfig::test_tiny()).unwrap();
    let resident = DeviceSegments::alloc(&dev, &mixed_store()).unwrap();
    let ids = dev.alloc_from_host(vec![0u32, 3, 5]).unwrap();
    let mut warp = Warp::standalone(4);
    let mut scan = |f: &mut dyn FnMut(&mut Warp) -> u64| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut warp))).is_err()
    };
    assert!(scan(&mut |w| resident.refine_gather(w.lanes_mut(), &ids, 0, 1..6, &q, |_, _, _| {})));
    assert!(scan(&mut |w| resident.refine_range(w.lanes_mut(), 6..11, &q, |_, _, _| {})));
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
        w in 1usize..6,
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
        check_on(&store, range(lo, hi), &q, d, w);
        check(&store, range(0, store.len() as u32), &q, d);
        // Arbitrary ids into the store, repeats and any order included.
        let ids: Vec<u32> = picks.iter().map(|&i| i % store.len() as u32).collect();
        let n = ids.len() as u32;
        let walk = Walk::Gather { ids: ids.clone(), origin: picks.len() as u32, lo: lo.min(n), hi: hi.min(n) };
        check_on(&store, walk, &q, d, w);
        check_on(&store, Walk::Positions(ids), &q, d, w);
    }
}
