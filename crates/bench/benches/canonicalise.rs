//! Micro-benchmark of result-set canonicalisation (`dedup_matches`): the
//! host-side sort and duplicate filter every search runs on its raw
//! records, and the shard merge runs once more on the concatenated shard
//! results.
//!
//! Three input shapes of about 51k records (768 queries × 67 matches, the
//! size of one perf batch's per-shard result set), each as a search hands
//! them over:
//! * `thread-per-query`: grouped by query in sorted-query order (query ids
//!   permuted, as `unpermute` leaves them), entries ascending per query;
//! * `warp-per-tile`: the same records, lane-major inside each 128-entry
//!   tile (candidate `j` of a tile on lane `j % 32`);
//! * `shard-merge`: four canonical shard runs concatenated, records near
//!   a slab boundary replicated into both neighbouring runs.
//!
//! Each iteration clones the input before canonicalising it, so the times
//! include one copy of the records.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdts_geom::{dedup_matches, MatchRecord, TimeInterval};

const QUERIES: u32 = 768;
const PER_QUERY: u32 = 67;
/// Candidate stride: query `q`'s matches are every third candidate.
const STRIDE: u32 = 3;
const TILE: u32 = 128;
const WARP: u32 = 32;
const ENTRIES: u32 = 100_000;
const SHARDS: u32 = 4;
/// Entries this close to a slab boundary are resident in both slabs.
const MARGIN: u32 = 500;

/// Query id at sorted position `p` (389 is coprime with 768).
fn query_at(p: u32) -> u32 {
    p * 389 % QUERIES
}

/// Matches of query `q` as candidate indices `j` and their records.
fn record(q: u32, j: u32) -> MatchRecord {
    let entry = (q * 131 + j * STRIDE) % ENTRIES;
    let start = f64::from(entry % 97) / 97.0;
    MatchRecord::new(q, entry, TimeInterval::new(start, start + 0.01))
}

fn thread_per_query() -> Vec<MatchRecord> {
    (0..QUERIES)
        .map(query_at)
        .flat_map(|q| {
            let mut run: Vec<MatchRecord> = (0..PER_QUERY).map(|k| record(q, k)).collect();
            run.sort_by_key(|m| m.entry);
            run
        })
        .collect()
}

fn warp_per_tile() -> Vec<MatchRecord> {
    (0..QUERIES)
        .map(query_at)
        .flat_map(|q| {
            let mut candidates: Vec<u32> = (0..PER_QUERY).map(|k| k * STRIDE).collect();
            candidates.sort_by_key(|&j| (j / TILE, j % WARP, j));
            candidates.into_iter().map(move |j| record(q, j / STRIDE))
        })
        .collect()
}

fn shard_merge() -> Vec<MatchRecord> {
    let width = ENTRIES / SHARDS;
    let all = thread_per_query();
    (0..SHARDS)
        .flat_map(|s| {
            let lo = (s * width).saturating_sub(MARGIN);
            let hi = ((s + 1) * width + MARGIN).min(ENTRIES);
            let mut run: Vec<MatchRecord> =
                all.iter().filter(|m| (lo..hi).contains(&m.entry)).copied().collect();
            run.sort_by_key(|m| m.key());
            run
        })
        .collect()
}

fn bench_canonicalise(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonicalise");
    let shapes = [
        ("thread-per-query", thread_per_query()),
        ("warp-per-tile", warp_per_tile()),
        ("shard-merge", shard_merge()),
    ];
    for (name, records) in shapes {
        group.bench_function(format!("{name} ({} records)", records.len()), |b| {
            b.iter(|| {
                let mut v = records.clone();
                dedup_matches(&mut v);
                black_box(v)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_canonicalise);
criterion_main!(benches);
