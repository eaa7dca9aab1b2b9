//! Device-side work queue for persistent-warp launches.
//!
//! The paper's kernels map one thread to one query (§IV-B/C), so a warp's
//! cost is the maximum over 32 arbitrarily different candidate-range
//! lengths. The work queue replaces that static mapping with dynamic
//! dispatch: the host splits every candidate range into [`Tile`]s of at
//! most [`crate::DeviceConfig::tile_size`] entries, uploads them, and a
//! persistent grid of warps ([`crate::Device::launch_persistent`]) loops
//! grabbing tiles off a single global atomic cursor until the queue is
//! empty. The host keeps no copy of that cursor: the launch replays the
//! grabs in queue order and counts the probes from the tile and warp
//! counts.
//!
//! The cost model charges **one global atomic per grab** (plus one
//! converged 16-byte tile read). That is the faithful price of the
//! canonical CUDA persistent-kernel idiom — the warp leader performs
//! `atomicAdd(&cursor, 1)` and broadcasts the tile index via
//! `__shfl_sync` — and it is why tiles, not individual candidates, are the
//! dispatch unit: the atomic's cost is amortised over `tile_size`
//! candidate comparisons instead of being paid per entry.

use crate::memory::DeviceBuffer;
use crate::sanitizer::Sanitizer;

/// Sanitizer pass over a host-built tile list before upload: a tile with
/// `hi < lo` would underflow [`Tile::len`] and drive a kernel through a
/// 4-billion-entry range. Each malformed tile is recorded as a
/// [`crate::FindingKind::MalformedTile`] finding and neutralised by
/// clamping `hi` to `lo` (an empty tile), so one run surfaces every bad
/// tile instead of crashing on the first.
pub(crate) fn validate_tiles(san: &Sanitizer, tiles: &mut [Tile]) {
    for (i, t) in tiles.iter_mut().enumerate() {
        if t.hi < t.lo {
            san.note_malformed_tile(i, t.query, t.lo, t.hi);
            t.hi = t.lo;
        }
    }
}

/// One unit of warp-cooperative work: `query` against the candidate
/// positions `lo..hi`. `tag` disambiguates what the range indexes when an
/// index has several candidate arrays (GPUSpatioTemporal stores the X/Y/Z
/// selector or the temporal-fallback marker here); single-array schemes
/// leave it 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Query index this tile belongs to.
    pub query: u32,
    /// First candidate position (inclusive).
    pub lo: u32,
    /// Last candidate position (exclusive).
    pub hi: u32,
    /// Scheme-specific interpretation of the range (0 when unused).
    pub tag: u32,
}

impl Tile {
    /// Number of candidate entries in this tile.
    #[inline]
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the tile covers no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Append tiles covering `lo..hi` for `query` in chunks of at most
    /// `tile_size` entries. Appends nothing for an empty range. A
    /// `tile_size` beyond the `u32` position range makes one tile per range.
    pub fn split_into(
        out: &mut Vec<Tile>,
        query: u32,
        lo: u32,
        hi: u32,
        tag: u32,
        tile_size: usize,
    ) {
        debug_assert!(tile_size >= 1);
        debug_assert!(lo <= hi);
        let tile_size = u32::try_from(tile_size).unwrap_or(u32::MAX);
        let mut start = lo;
        while start < hi {
            let end = hi.min(start.saturating_add(tile_size));
            out.push(Tile { query, lo: start, hi: end, tag });
            start = end;
        }
    }
}

/// A queue of [`Tile`]s in device memory, drained through one global
/// atomic cursor.
///
/// Created via [`crate::Device::work_queue`] (which charges the tile
/// upload as a host→device transfer) and consumed by a single
/// [`crate::Device::launch_persistent`], which charges every cursor probe
/// — one per dispatched tile plus the failed probe each persistent warp
/// pays to discover the queue is empty — as a global atomic. The cursor
/// itself is never kept: a drained queue of `n` tiles and a grid of `g`
/// warps always took `n + g` probes, and the launch reports them.
#[derive(Debug)]
pub struct WorkQueue {
    pub(crate) tiles: DeviceBuffer<Tile>,
}

impl WorkQueue {
    /// Total tiles enqueued.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the queue was created empty.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tile at queue position `i` (after any sanitizer clamping).
    pub fn tile_at(&self, i: usize) -> Tile {
        self.tiles.as_slice()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceConfig};
    use std::sync::Arc;

    fn tiny() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn split_covers_range_exactly_once() {
        let mut tiles = Vec::new();
        Tile::split_into(&mut tiles, 7, 10, 35, 2, 8);
        assert_eq!(tiles.len(), 4); // 8 + 8 + 8 + 1
        let mut pos = 10;
        for t in &tiles {
            assert_eq!(t.query, 7);
            assert_eq!(t.tag, 2);
            assert_eq!(t.lo, pos);
            assert!(t.len() <= 8 && !t.is_empty());
            pos = t.hi;
        }
        assert_eq!(pos, 35);
    }

    #[test]
    fn split_with_a_tile_size_past_u32_makes_one_tile() {
        // `tile_size as u32` would truncate 2^32 to 0: an empty tile, forever.
        for tile_size in [u32::MAX as usize + 1, u32::MAX as usize + 2, usize::MAX] {
            let mut tiles = Vec::new();
            Tile::split_into(&mut tiles, 2, 10, 35, 0, tile_size);
            assert_eq!(tiles, vec![Tile { query: 2, lo: 10, hi: 35, tag: 0 }], "{tile_size}");
        }
    }

    #[test]
    fn split_empty_range_appends_nothing() {
        let mut tiles = Vec::new();
        Tile::split_into(&mut tiles, 0, 5, 5, 0, 8);
        assert!(tiles.is_empty());
    }

    #[test]
    fn queue_holds_its_tiles_in_order() {
        let dev = tiny();
        let mut tiles = Vec::new();
        Tile::split_into(&mut tiles, 0, 0, 20, 0, 4);
        let queue = dev.work_queue(tiles.clone()).unwrap();
        assert_eq!(queue.len(), 5);
        let got: Vec<Tile> = (0..queue.len()).map(|i| queue.tile_at(i)).collect();
        assert_eq!(got, tiles);
    }

    #[test]
    fn work_queue_upload_is_charged() {
        let dev = tiny();
        let before = dev.ledger().get(crate::Phase::HostToDevice);
        let _q = dev.work_queue(vec![Tile { query: 0, lo: 0, hi: 4, tag: 0 }; 10]).unwrap();
        assert!(dev.ledger().get(crate::Phase::HostToDevice) > before);
        assert_eq!(dev.mem_used(), 10 * std::mem::size_of::<Tile>());
    }
}
