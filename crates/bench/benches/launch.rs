//! Micro-benchmark of what a persistent warp-per-tile launch costs the
//! host per tile, beside the scan it runs. Each bench covers 50,000 tiles
//! of 128 contiguous rows; divide its time by 50,000 for the cost of one
//! tile.
//!
//! * `launch/persistent-empty` — a persistent launch whose tiles stage
//!   nothing: a tile's bookkeeping alone (its grab, its lanes' reduction,
//!   an empty stash commit and its dispatch replay).
//! * `launch/persistent-scan-128` — the same launch with each tile's rows
//!   refined on the warp's lanes and the hits staged and committed, the
//!   shape of the warp-per-tile search kernels.
//! * `launch/serial-scan-128` — the same `refine_range` calls on one
//!   32-lane warp, one tile after another on the calling thread, without a
//!   launch.
//!
//! The tiles run over a 65,536-row database, each a 128-row window of it;
//! every entry overlaps the query in time and about one in a hundred comes
//! within the distance.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdts_geom::{MatchRecord, Point3, PreparedQuery, SegId, Segment, TrajId};
use tdts_gpu_sim::{Device, DeviceConfig, Tile, Warp, WarpStash};
use tdts_kernels::DeviceSegments;

const ROWS: u32 = 1 << 16;
const TILES: u32 = 50_000;
const TILE_ROWS: u32 = 128;

fn make_segments(n: u32) -> Vec<Segment> {
    // Deterministic pseudo-random segments via an LCG: starts spread over a
    // 100-unit box, each moving about one unit over t in [0, 1].
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    (0..n)
        .map(|i| {
            let start = Point3::new(next() * 100.0 - 50.0, next() * 100.0 - 50.0, next() * 20.0);
            let step = Point3::new(next() - 0.5, next() - 0.5, next() - 0.5);
            Segment::new(start, start + step, 0.0, 1.0, SegId(i), TrajId(i))
        })
        .collect()
}

/// `TILES` tiles of `TILE_ROWS` rows, consecutive windows wrapping around
/// the database.
fn make_tiles() -> Vec<Tile> {
    (0..TILES)
        .map(|i| {
            let lo = i * TILE_ROWS % ROWS;
            Tile { query: i, lo, hi: lo + TILE_ROWS, tag: 0 }
        })
        .collect()
}

fn bench_launch(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::tesla_c2075()).expect("valid device");
    let entries = DeviceSegments::alloc(&device, &make_segments(ROWS)).expect("fits the device");
    let query = Segment::new(
        Point3::new(-1.0, 2.0, 10.0),
        Point3::new(0.5, 1.5, 10.5),
        0.0,
        1.0,
        SegId(0),
        TrajId(0),
    );
    let q = PreparedQuery::new(&query, 5.0);
    let tiles = make_tiles();
    let mut results = device.alloc_result::<MatchRecord>(1 << 20).expect("fits the device");

    let mut group = c.benchmark_group("launch");
    // As the search kernels do, each host worker stages its tiles' hits in
    // one stash, and each tile's epilogue commits the oldest ones: its own.
    group.bench_function("persistent-empty", |b| {
        b.iter(|| {
            let queue = device.work_queue(tiles.clone()).expect("fits the device");
            let report = device.launch_persistent_ordered(
                &queue,
                |_, stash: &mut Option<WarpStash<'_, MatchRecord>>, _| {
                    stash.get_or_insert_with(|| results.warp_stash());
                    0
                },
                |warp, stash, staged| {
                    stash.as_mut().expect("the body ran here").commit_oldest(warp, staged);
                },
            );
            black_box(report)
        })
    });
    group.bench_function("persistent-scan-128", |b| {
        b.iter(|| {
            let queue = device.work_queue(tiles.clone()).expect("fits the device");
            let report = device.launch_persistent_ordered(
                &queue,
                |warp, stash: &mut Option<WarpStash<'_, MatchRecord>>, tile| {
                    let stash = stash.get_or_insert_with(|| results.warp_stash());
                    let before = stash.len();
                    entries.refine_range(warp.lanes_mut(), tile.lo..tile.hi, &q, |lane, pos, t| {
                        stash.stage(lane, MatchRecord::new(tile.query, pos, t))
                    });
                    stash.len() - before
                },
                |warp, stash, staged| {
                    stash.as_mut().expect("the body ran here").commit_oldest(warp, staged);
                },
            );
            black_box(results.drain_to_host().len());
            black_box(report)
        })
    });
    group.bench_function("serial-scan-128", |b| {
        let mut warp = Warp::standalone(32);
        b.iter(|| {
            let mut hits = 0u32;
            let mut compared = 0;
            for tile in &tiles {
                compared += entries.refine_range(
                    warp.lanes_mut(),
                    tile.lo..tile.hi,
                    black_box(&q),
                    |_, _, _| hits += 1,
                );
            }
            black_box((compared, hits))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_launch);
criterion_main!(benches);
