//! Host steps of a search, priced from the work they count, so that
//! [`Phase::HostCompute`](crate::Phase) repeats bit for bit like every other
//! phase. The prices were fitted once to the traced wall of these steps
//! (DESIGN.md §4c).

/// One counted host step of a search; each caller passes a length it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWork {
    /// Sorting `n` queries by `t_start`, charged as n·⌈log₂ n⌉ comparisons.
    SortQueries(usize),
    /// Building `n` entries of a batch plan (a scheme's schedule rows or
    /// candidate-cell lists, one per query).
    PlanEntries(usize),
    /// Cutting `n` work-queue tiles.
    Tiles(usize),
    /// Mapping `n` result records from sorted positions back to the
    /// caller's query order.
    UnpermuteRecords(usize),
    /// Canonicalising `n` result records (sort and dedup).
    DedupRecords(usize),
    /// Testing `n` (query, shard) pairs: whether the query's reach touches
    /// the shard's slab.
    RoutePairs(usize),
    /// Translating, concatenating and canonicalising `n` shard records.
    MergeRecords(usize),
}

// Nanoseconds per unit of each step.
const SORT_COMPARISON_NS: f64 = 6.0;
const PLAN_ENTRY_NS: f64 = 650.0;
const TILE_NS: f64 = 8.0;
const UNPERMUTE_RECORD_NS: f64 = 1.9;
const DEDUP_RECORD_NS: f64 = 6.6;
const ROUTE_PAIR_NS: f64 = 12.0;
const MERGE_RECORD_NS: f64 = 36.5;

impl HostWork {
    /// The step's price in seconds.
    pub fn seconds(self) -> f64 {
        let (units, ns) = match self {
            HostWork::SortQueries(n) => {
                (n * n.next_power_of_two().trailing_zeros() as usize, SORT_COMPARISON_NS)
            }
            HostWork::PlanEntries(n) => (n, PLAN_ENTRY_NS),
            HostWork::Tiles(n) => (n, TILE_NS),
            HostWork::UnpermuteRecords(n) => (n, UNPERMUTE_RECORD_NS),
            HostWork::DedupRecords(n) => (n, DEDUP_RECORD_NS),
            HostWork::RoutePairs(n) => (n, ROUTE_PAIR_NS),
            HostWork::MergeRecords(n) => (n, MERGE_RECORD_NS),
        };
        units as f64 * ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_is_charged_n_ceil_log2_n() {
        let at = |n| HostWork::SortQueries(n).seconds() / (SORT_COMPARISON_NS * 1e-9);
        let got = [0, 1, 2, 3, 768, 1024].map(|n| at(n).round());
        assert_eq!(got, [0.0, 0.0, 2.0, 6.0, 7680.0, 10240.0]);
    }

    #[test]
    fn prices_are_linear_in_the_count() {
        for work in [HostWork::PlanEntries, HostWork::Tiles, HostWork::MergeRecords] {
            assert_eq!(work(0).seconds(), 0.0);
            assert!((work(2000).seconds() - 2.0 * work(1000).seconds()).abs() < 1e-15);
        }
    }
}
