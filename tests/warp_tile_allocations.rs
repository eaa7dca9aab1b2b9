//! Tier-1: a warp-per-tile search allocates nothing on the host per tile,
//! neither once per lane with a match nor once per tile. Each host worker
//! stages its tiles' matches in one warp stash, which grows to what the
//! worker has awaiting its in-order commits and is then reused, so the
//! allocation count is a fixed cost per launch: the stashes, the work
//! queue, and one staging list per block of 64 tiles a worker claims.
//!
//! The binary holds this one test so that the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdts::prelude::*;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter itself never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` contract is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for this method, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for this method, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for this method, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one dispatched tile may cost the host.
const PER_TILE: u64 = 0;
/// Allocations one launch (query sort, tile list, uploads, worker spawns,
/// stashes, blocks of tiles, drains, deduplication) may cost: the fixture's
/// 5,000-odd tiles make about 80 blocks.
const PER_LAUNCH: u64 = 1_000;

#[test]
fn warp_per_tile_search_allocates_about_once_per_tile() {
    let store = MergerConfig { particles: 240, timesteps: 25, ..Default::default() }.generate();
    let queries: SegmentStore = store.iter().step_by(3).copied().collect();
    let dataset = PreparedDataset::new(store);
    let method = Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
        bins: 50,
        subbins: 4,
        sort_by_selector: true,
    });
    let device = Device::new(DeviceConfig::tesla_c2075()).unwrap();
    let engine = SearchEngine::build(&dataset, method, device).expect("build");
    let d = 1.0;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (got, report) = engine
        .search_shaped(&queries, d, 2_000_000, Some(KernelShape::WarpPerTile))
        .expect("search");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let tiles = report.load.tiles_dispatched;
    let launches = 1 + u64::from(report.redo_rounds);
    eprintln!(
        "{allocations} allocations, {tiles} tiles, {launches} launches, {} matches",
        got.len()
    );
    assert!(tiles >= 2_000, "the fixture must dispatch many tiles, got {tiles}");
    assert!(got.len() as u64 >= tiles, "the fixture must average a match per tile");
    assert!(
        allocations <= PER_TILE * tiles + PER_LAUNCH * launches,
        "{allocations} allocations for {tiles} tiles over {launches} launches"
    );
}
