//! Micro-benchmark of the continuous distance comparison — the innermost
//! operation every implementation spends its time in.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdts_geom::{within_distance, Point3, SegId, Segment, TrajId};

fn make_segments(n: usize) -> Vec<Segment> {
    // Deterministic pseudo-random segments via an LCG.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) * 100.0 - 50.0
    };
    (0..n)
        .map(|i| {
            Segment::new(
                Point3::new(next(), next(), next()),
                Point3::new(next(), next(), next()),
                0.0,
                1.0,
                SegId(i as u32),
                TrajId(i as u32),
            )
        })
        .collect()
}

fn bench_within_distance(c: &mut Criterion) {
    let segs = make_segments(1024);
    let mut group = c.benchmark_group("within_distance");
    for d in [1.0, 10.0, 100.0] {
        group.bench_function(format!("d={d}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let a = &segs[i % segs.len()];
                let q = &segs[(i * 7 + 1) % segs.len()];
                i += 1;
                black_box(within_distance(black_box(a), black_box(q), d))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_within_distance);
criterion_main!(benches);
