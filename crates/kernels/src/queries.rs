//! Query-set preprocessing shared by the temporally-sorted drivers.

use tdts_geom::{t_start_order, MatchRecord, Segment, SegmentStore};

/// A query set sorted by non-decreasing `t_start`, with the permutation
/// back to original positions (results are reported against the caller's
/// ordering). Shared by the temporal and spatiotemporal drivers;
/// `GPUSpatial` leaves queries unsorted (§IV-A2).
#[derive(Debug, Clone)]
pub struct SortedQueries {
    /// Query segments in sorted order.
    pub segments: Vec<Segment>,
    /// `original_pos[sorted_idx]` = position in the caller's query store.
    pub original_pos: Vec<u32>,
}

impl SortedQueries {
    /// Sort a query store by `t_start` in the order a database is sorted
    /// in ([`t_start_order`]: stable, signed zeros tied, NaN last).
    pub fn from_store(queries: &SegmentStore) -> SortedQueries {
        let order = t_start_order(queries.segments());
        let segments = order.iter().map(|&i| *queries.get(i as usize)).collect();
        SortedQueries { segments, original_pos: order }
    }

    /// Rewrite `query` fields of `matches` from sorted positions back to the
    /// caller's original positions.
    pub fn unpermute(&self, matches: &mut [MatchRecord]) {
        for m in matches {
            m.query = self.original_pos[m.query as usize];
        }
    }
}

/// The sorted segments.
impl std::ops::Deref for SortedQueries {
    type Target = [Segment];

    fn deref(&self) -> &[Segment] {
        &self.segments
    }
}
