//! Micro-benchmark of the cold-start steps every engine, sharded index and
//! query service pays before its first answer, on the 0.02-scaled Merger
//! database (503,232 segments, the perf database):
//! * `sort_by_t_start`: canonicalising the generated store. Each iteration
//!   clones the unsorted store first, so the time includes one copy;
//! * `spatiotemporal-build`: `SpatioTemporalIndex::build_with_stats`
//!   (1,000 bins, 16 subbins requested) over the sorted store, the temporal
//!   directory included;
//! * `partition`: `ShardedStore::partition` into four temporal slabs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdts_data::MergerConfig;
use tdts_geom::{PartitionStrategy, ShardedStore};
use tdts_index_spatiotemporal::{SpatioTemporalIndex, SpatioTemporalIndexConfig};

fn bench_setup(c: &mut Criterion) {
    let generated = MergerConfig::default().scaled(0.02).generate();
    let mut sorted = generated.clone();
    sorted.sort_by_t_start();
    let stats = sorted.stats().expect("non-empty store");
    let config = SpatioTemporalIndexConfig { bins: 1_000, subbins: 16, sort_by_selector: true };

    let mut group = c.benchmark_group("setup");
    group.bench_function(format!("sort_by_t_start ({} segments)", generated.len()), |b| {
        b.iter(|| {
            let mut store = generated.clone();
            store.sort_by_t_start();
            black_box(store)
        })
    });
    group.bench_function("spatiotemporal-build", |b| {
        b.iter(|| {
            black_box(
                SpatioTemporalIndex::build_with_stats(&sorted, &stats, config).expect("build"),
            )
        })
    });
    group.bench_function("partition (4 temporal slabs)", |b| {
        b.iter(|| {
            black_box(ShardedStore::partition(&sorted, &stats, 4, PartitionStrategy::Temporal))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
