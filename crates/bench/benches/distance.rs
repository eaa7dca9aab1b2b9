//! Micro-benchmark of the refinement scan — the loop every GPU method
//! spends its host time in: one query against a run of prepared rows,
//! pre-tested a chunk at a time, with the exact solver on the rows that
//! pass.
//!
//! * `scan/pretest-64` — the pre-test alone over the 65,536 rows in chunks
//!   of 64, as the scan calls it: its cost per row apart from the solver
//!   and the lanes.
//! * `scan/range-1-lane` — one lane walks 65,536 contiguous rows, the
//!   thread-per-query refinement of GPUTemporal.
//! * `scan/gather-32-lanes` — a 32-lane warp scans the same rows reached
//!   through a shuffled id array, the warp-per-tile gather of
//!   GPUSpatioTemporal.
//!
//! Each id ends in the copy of the pre-test loop the host runs
//! (`tdts_geom::scan_isa`: `avx512`, `avx2` or `portable`), so a number
//! says which loop produced it.
//!
//! Every entry overlaps the query in time and about one in a hundred comes
//! within the distance, so nearly every row is rejected by the arithmetic
//! of the quadratic rather than by its timestamps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdts_geom::{scan_isa, Point3, PreparedEntry, PreparedQuery, SegId, Segment, TrajId};
use tdts_gpu_sim::{Device, DeviceConfig, Warp};
use tdts_kernels::{DeviceSegments, SCAN_CHUNK};

const ROWS: u32 = 1 << 16;

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

fn bench_scan(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::tesla_c2075()).expect("valid device");
    let segments = make_segments(ROWS);
    let entries = DeviceSegments::alloc(&device, &segments).expect("fits the device");
    let rows: Vec<[f64; 8]> = segments.iter().map(|s| PreparedEntry::new(s).to_row()).collect();
    let columns: [Vec<f64>; 8] = std::array::from_fn(|c| rows.iter().map(|r| r[c]).collect());
    let query = Segment::new(
        Point3::new(-1.0, 2.0, 10.0),
        Point3::new(0.5, 1.5, 10.5),
        0.0,
        1.0,
        SegId(0),
        TrajId(0),
    );
    let q = PreparedQuery::new(&query, 5.0);
    // A fixed permutation of the rows: ROWS is a power of two and the
    // multiplier odd.
    let ids = device
        .alloc_from_host((0..ROWS).map(|i| i.wrapping_mul(40_503) % ROWS).collect())
        .expect("fits the device");

    let isa = scan_isa();
    let mut group = c.benchmark_group("scan");
    group.bench_function(format!("pretest-{SCAN_CHUNK}/{isa}"), |b| {
        b.iter(|| {
            for at in (0..ROWS as usize).step_by(SCAN_CHUNK) {
                let chunk = columns.each_ref().map(|c| &c[at..at + SCAN_CHUNK]);
                black_box(black_box(&q).pretest(chunk));
            }
        })
    });
    group.bench_function(format!("range-1-lane/{isa}"), |b| {
        let mut warp = Warp::standalone(1);
        b.iter(|| {
            let mut hits = 0u32;
            let compared =
                entries.refine_range(warp.lanes_mut(), 0..ROWS, black_box(&q), |_, _, _| hits += 1);
            black_box((compared, hits))
        })
    });
    group.bench_function(format!("gather-32-lanes/{isa}"), |b| {
        let mut warp = Warp::standalone(32);
        b.iter(|| {
            let mut hits = 0u32;
            let compared = entries.refine_gather(
                warp.lanes_mut(),
                &ids,
                0,
                0..ROWS,
                black_box(&q),
                |_, _, _| hits += 1,
            );
            black_box((compared, hits))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
