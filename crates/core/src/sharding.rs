//! Sharded multi-device execution: one [`TrajectoryIndex`] over N devices.
//!
//! [`ShardedIndex`] partitions the entry database with
//! [`ShardedStore`] into equal-width temporal slabs (boundary segments
//! replicated so every shard is self-sufficient), builds one inner index
//! per shard on its *own* simulated device, and routes each
//! [`QueryBatch`]: it takes each query's time span against the
//! [`ShardPlan`] slab geometry
//! ([`ShardPlan::reach_span`](tdts_geom::ShardPlan::reach_span)) and sends
//! each shard only the sub-batch of queries whose span touches its slab;
//! shards no query can reach are never probed. Boundary replication is what
//! makes this exact: every entry is resident in all slabs its time span
//! touches, so probing exactly the reach span loses nothing, and the usual
//! merge dedup collapses the straddler duplicates.
//!
//! Device concurrency is modeled in the merged ledger, not raced on host
//! threads. The per-shard result slices come back in shard-local query and
//! entry positions; the merge path translates both back (sub-batch query
//! ids via the shard's routing map, entry positions via `to_global`),
//! concatenates, and canonicalises with [`dedup_matches`]. Each shard's
//! slice is already a canonical run, and the dedup counting-sorts the
//! concatenation by query id and sorts each query's run alone, so the
//! merge is linear in the records and runs on the calling thread. The
//! canonical order is total, its only ties byte-identical records, so the
//! result set is *byte-identical* to running the same method unsharded on
//! one device — the single-device simulator stays the oracle.
//!
//! Accounting follows the same discipline: per-device ledgers aggregate
//! through [`SearchReport::merge_concurrent`] (work counters and transfer
//! bytes sum, response time is the slowest *probed* shard's, because the
//! merge point waits for the last device), and the host-side routing and
//! merge, priced from the (query, shard) pairs routed and the records
//! merged ([`HostWork`]), are charged to [`Phase::HostCompute`] on top. The
//! dispatch decisions themselves land in [`RoutingSummary`] on the report
//! and in the per-shard [`ShardStats`] counters.
//!
//! A sharded index takes every delta the way CPU-RTree does: it rebuilds,
//! re-partitioning the new store with the same [`ShardedIndex::build`].
//!
//! The device result buffer is also *budgeted*: each probed shard gets a
//! share of `result_capacity` proportional to its routed-query count times
//! its resident entries (a candidate-volume proxy), floored at an even
//! split. A shard whose share proves too small for even one query's
//! results is retried once at full capacity and counted in `budget_redos`
//! — so budgeting can never fail a search one device would have served.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tdts_geom::{
    dedup_matches, AppendDelta, ExpireDelta, PartitionStrategy, SegmentStore, ShardPlan,
    ShardedStore, StoreStats,
};
use tdts_gpu_sim::{
    Device, DeviceConfig, HostWork, KernelShape, Phase, RoutingSummary, SearchError, SearchReport,
};

use crate::engine::{check_database, Method};
use crate::error::TdtsError;
use crate::traits::{QueryBatch, SearchOutcome, TrajectoryIndex};

/// How to shard a dataset across simulated devices.
///
/// Construct with [`ShardedIndexConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so a new knob never breaks downstream construction
/// sites):
///
/// ```
/// use tdts_core::ShardedIndexConfig;
///
/// let cfg = ShardedIndexConfig::builder().shards(8).build().unwrap();
/// assert_eq!(cfg.shards, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardedIndexConfig {
    /// Number of temporal slabs to split the store into (≥ 1). Empty slabs
    /// are skipped, so fewer devices than `shards` may be instantiated.
    pub shards: usize,
}

impl Default for ShardedIndexConfig {
    fn default() -> Self {
        ShardedIndexConfig { shards: 1 }
    }
}

impl ShardedIndexConfig {
    /// Start a builder seeded with the default of 1 shard.
    pub fn builder() -> ShardedIndexConfigBuilder {
        ShardedIndexConfigBuilder { cfg: ShardedIndexConfig::default() }
    }
}

/// Builder for [`ShardedIndexConfig`]; see its docs for an example.
#[derive(Debug, Clone)]
pub struct ShardedIndexConfigBuilder {
    cfg: ShardedIndexConfig,
}

impl ShardedIndexConfigBuilder {
    /// Number of slabs to split the store into (≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ShardedIndexConfig, TdtsError> {
        if self.cfg.shards == 0 {
            return Err(TdtsError::InvalidConfig("shard count must be at least 1".into()));
        }
        Ok(self.cfg)
    }
}

/// One shard: an inner index over the shard-local store, pinned to its own
/// device, plus the local→global position map.
struct ShardMember {
    /// Slab id in the [`ShardPlan`] (shards with empty slabs are skipped,
    /// so this is not necessarily the member's vector index).
    slab: usize,
    index: Box<dyn TrajectoryIndex>,
    to_global: Arc<Vec<u32>>,
    entries: usize,
}

/// A point-in-time view of one shard's configuration and its work since the
/// index last re-partitioned: every delta rebuilds the shards and moves the
/// slabs, so these counters restart at each one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct ShardStats {
    /// Slab id in the shard plan.
    pub shard: usize,
    /// Lower edge of this shard's slab in time.
    pub slab_lo: f64,
    /// Upper edge of this shard's slab.
    pub slab_hi: f64,
    /// Segments resident on this shard (including boundary replicas).
    pub entries: usize,
    /// Of those, boundary replicas also present on another shard.
    pub replicated: usize,
    /// Searches this shard has served (batches it was probed for).
    pub searches: u64,
    /// Simulated response seconds accumulated by this shard alone.
    pub response_seconds: f64,
    /// Segment comparisons performed by this shard.
    pub comparisons: u64,
    /// Result records this shard produced before cross-shard dedup.
    pub raw_matches: u64,
    /// Queries dispatched to this shard: those whose time span touched
    /// this slab.
    pub queries_routed: u64,
    /// Queries whose time span missed this slab (never dispatched here).
    pub queries_skipped: u64,
    /// Searches re-run at full result capacity after this shard's routed
    /// budget share proved too small.
    pub budget_redos: u64,
}

/// A [`TrajectoryIndex`] that runs any inner [`Method`] partitioned across
/// N simulated devices. See the [module docs](self) for the execution and
/// accounting model.
pub struct ShardedIndex {
    /// What every rebuild repeats: the inner method, the device each member
    /// is created from, and the requested shard count (instantiated members
    /// may be fewer when slabs come up empty).
    method: Method,
    device_config: DeviceConfig,
    config: ShardedIndexConfig,
    /// The slab geometry the members were partitioned under; also the
    /// routing table ([`ShardPlan::reach_span`]).
    plan: ShardPlan,
    source_entries: usize,
    members: Vec<ShardMember>,
    /// Free bytes on the fullest shard device once its index was resident,
    /// as of the last partition.
    free_device_bytes: usize,
    /// The store generation the members were partitioned from.
    generation: u64,
    /// Cumulative across rebuilds, unlike the per-shard counters.
    duplicates_dropped: AtomicU64,
    /// One record per member, seeded with its slab and entries at build
    /// and updated once per search.
    stats: Mutex<Vec<ShardStats>>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("method", &self.method.name())
            .field("shards", &self.members.len())
            .field("requested_shards", &self.config.shards)
            .field("resident_entries", &self.resident_entries())
            .finish_non_exhaustive()
    }
}

/// Work a single shard contributed to one batch search, staged before the
/// stats lock is taken.
#[derive(Clone, Copy, Default)]
struct ShardWork {
    routed: u64,
    skipped: u64,
    budget_redo: bool,
    response_seconds: f64,
    comparisons: u64,
    raw_matches: usize,
}

impl ShardedIndex {
    /// Partition `store` per `config`, create one device per non-empty
    /// shard from `device_config`, and build `method`'s index over each
    /// shard-local store (with shard-local [`StoreStats`], so grid and bin
    /// geometry adapt to each shard's own extent).
    ///
    /// `stats` is the *global* store's statistics and only drives the slab
    /// plan; per-shard index parameters come from per-shard scans. A store
    /// holding a segment that is not [valid](tdts_geom::Segment::is_valid) is refused
    /// before it is partitioned, with its global position.
    pub fn build(
        method: Method,
        store: &Arc<SegmentStore>,
        stats: &StoreStats,
        device_config: &DeviceConfig,
        config: &ShardedIndexConfig,
    ) -> Result<ShardedIndex, TdtsError> {
        if config.shards == 0 {
            return Err(TdtsError::InvalidConfig("shard count must be at least 1".into()));
        }
        // The whole store is checked once, so an error names the global
        // position; the slices hold only its segments.
        check_database(store, 0)?;
        ShardedIndex::build_checked(method, store, stats, device_config, config)
    }

    /// [`build`](ShardedIndex::build) over a store [`check_database`] has
    /// passed; every rebuild runs it.
    fn build_checked(
        method: Method,
        store: &Arc<SegmentStore>,
        stats: &StoreStats,
        device_config: &DeviceConfig,
        config: &ShardedIndexConfig,
    ) -> Result<ShardedIndex, TdtsError> {
        let sharded =
            ShardedStore::partition(store, stats, config.shards, PartitionStrategy::Temporal);
        // The members build side by side on the host's cores (an index's
        // own parallel steps then run inline); the results come back in
        // shard order, so the first error is the first failing shard's.
        let built = tdts_geom::par::par_map(sharded.slices.len(), |i| {
            let slice = &sharded.slices[i];
            // One device per shard: the slab is resident in that device's
            // memory, and the merged response time models N devices
            // answering side by side.
            let device = Device::new(device_config.clone()).map_err(TdtsError::InvalidConfig)?;
            let index = method.build_checked_index(&slice.store, Arc::clone(&device))?;
            let member = ShardMember {
                slab: slice.slab,
                index,
                to_global: Arc::clone(&slice.to_global),
                entries: slice.store.len(),
            };
            Ok::<_, TdtsError>((member, device.mem_available()))
        });
        let mut members = Vec::with_capacity(built.len());
        let mut shard_stats = Vec::with_capacity(built.len());
        let mut free_device_bytes = usize::MAX;
        for (result, slice) in built.into_iter().zip(&sharded.slices) {
            let (member, free) = result?;
            free_device_bytes = free_device_bytes.min(free);
            let (slab_lo, slab_hi) = sharded.plan.slab_bounds(slice.slab);
            shard_stats.push(ShardStats {
                shard: slice.slab,
                slab_lo,
                slab_hi,
                entries: member.entries,
                replicated: slice.replicated,
                ..ShardStats::default()
            });
            members.push(member);
        }
        if members.is_empty() {
            return Err(TdtsError::Search(SearchError::EmptyDataset));
        }
        Ok(ShardedIndex {
            method,
            device_config: device_config.clone(),
            config: *config,
            plan: sharded.plan,
            source_entries: store.len(),
            members,
            free_device_bytes,
            generation: store.generation(),
            duplicates_dropped: AtomicU64::new(0),
            stats: Mutex::new(shard_stats),
        })
    }

    /// Re-partition `store`, which has absorbed a delta: build a new index
    /// beside this one and swap it in, keeping the duplicate count. A store
    /// expired to empty leaves no member, so every batch routes nowhere and
    /// answers with no matches; the next ingest re-partitions.
    fn rebuild(&mut self, store: &Arc<SegmentStore>) -> Result<(), TdtsError> {
        let Some(stats) = store.stats() else {
            self.members.clear();
            self.stats.get_mut().unwrap().clear();
            self.source_entries = 0;
            self.generation = store.generation();
            return Ok(());
        };
        let fresh =
            Self::build_checked(self.method, store, &stats, &self.device_config, &self.config)?;
        *self =
            ShardedIndex { duplicates_dropped: AtomicU64::new(self.duplicates_dropped()), ..fresh };
        Ok(())
    }

    /// Shard count actually instantiated (non-empty slabs).
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// Shard count requested at build time.
    pub fn requested_shards(&self) -> usize {
        self.config.shards
    }

    /// Total segments resident across shards, counting boundary replicas.
    pub fn resident_entries(&self) -> usize {
        self.members.iter().map(|m| m.entries).sum()
    }

    /// Storage blow-up from boundary replication (1.0 = none).
    pub fn replication_factor(&self) -> f64 {
        if self.source_entries == 0 {
            1.0
        } else {
            self.resident_entries() as f64 / self.source_entries as f64
        }
    }

    /// Device memory left for per-search buffers: the free bytes of the
    /// fullest shard device with its index resident, as of the last
    /// re-partition (every delta re-partitions).
    pub fn free_device_bytes(&self) -> usize {
        self.free_device_bytes
    }

    /// Cross-shard duplicate records dropped by the merge path so far.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped.load(Ordering::Relaxed)
    }

    /// Per-shard configuration and work counters since the last
    /// re-partition.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.stats.lock().unwrap().clone()
    }

    /// The per-shard sub-batches: for each member, the batch positions of
    /// the queries whose time span touches its slab.
    fn route(&self, queries: &SegmentStore) -> Vec<Vec<u32>> {
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.members.len()];
        let reach: Vec<Option<(usize, usize)>> =
            queries.iter().map(|q| self.plan.reach_span(q)).collect();
        for (mi, member) in self.members.iter().enumerate() {
            for (qi, span) in reach.iter().enumerate() {
                if let Some((lo, hi)) = span {
                    if *lo <= member.slab && member.slab <= *hi {
                        routed[mi].push(qi as u32);
                    }
                }
            }
        }
        routed
    }

    /// Result-buffer share for one probed shard: proportional to its
    /// routed-query count × resident entries (a candidate-volume proxy)
    /// with 2x headroom so ordinary skew does not trigger buffer-overflow
    /// redo rounds, floored at an even split of the batch capacity so a
    /// light shard can never be starved below what uniform sizing would
    /// have given it, and capped at the caller's capacity. Budgeting
    /// bounds the fleet's total result-buffer reservation near the
    /// single-device footprint instead of `capacity x shards`; the
    /// full-capacity escalation retry in [`ShardedIndex::search_sharded`]
    /// covers the pathological tail. Only a probed shard asks, and empty
    /// slabs get no member, so its weight and `probed` are non-zero.
    fn budget_share(capacity: usize, weight: u128, total_weight: u128, probed: usize) -> usize {
        debug_assert!(weight > 0 && total_weight >= weight && probed > 0);
        let floor = (capacity / probed).max(1);
        let share =
            ((capacity as u128).saturating_mul(weight.saturating_mul(2)) / total_weight) as usize;
        share.max(floor).min(capacity)
    }

    fn search_sharded(
        &self,
        batch: &QueryBatch<'_>,
        shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError> {
        let n_queries = batch.queries.len() as u64;

        // Dispatch. Device concurrency is *modeled*, not raced: the ledger
        // merge below takes the slowest probed shard's phase breakdown,
        // exactly as N real devices driven from one host would respond.
        let subs = self.route(batch.queries);

        // Per-shard compacted sub-batches, budgeted result capacity,
        // full-capacity retry on budget misfits.
        let mut work = vec![ShardWork::default(); self.members.len()];
        let mut outcomes: Vec<Option<SearchOutcome>> = Vec::with_capacity(self.members.len());
        let probed = subs.iter().filter(|s| !s.is_empty()).count();
        let weights: Vec<u128> = self
            .members
            .iter()
            .zip(&subs)
            .map(|(m, s)| (s.len() as u128) * (m.entries as u128))
            .collect();
        let total_weight: u128 = weights.iter().sum();
        for (mi, (member, sub)) in self.members.iter().zip(&subs).enumerate() {
            if sub.is_empty() {
                work[mi] = ShardWork { skipped: n_queries, ..ShardWork::default() };
                outcomes.push(None);
                continue;
            }
            let sub_queries: SegmentStore =
                sub.iter().map(|&qi| *batch.queries.get(qi as usize)).collect();
            let capacity = ShardedIndex::budget_share(
                batch.result_capacity,
                weights[mi],
                total_weight,
                probed,
            );
            let sub_batch =
                QueryBatch { queries: &sub_queries, d: batch.d, result_capacity: capacity };
            let (o, redo) = match member.index.search_shaped(&sub_batch, shape) {
                // The budgeted share cannot hold even one query's results:
                // retry at the full batch capacity, so budgeting never fails
                // a search one device would have served.
                Err(TdtsError::Search(SearchError::ResultCapacityTooSmall { .. }))
                    if capacity < batch.result_capacity =>
                {
                    let full = QueryBatch { result_capacity: batch.result_capacity, ..sub_batch };
                    (member.index.search_shaped(&full, shape)?, true)
                }
                r => (r?, false),
            };
            work[mi] = ShardWork {
                routed: sub.len() as u64,
                skipped: n_queries - sub.len() as u64,
                budget_redo: redo,
                ..ShardWork::default()
            };
            outcomes.push(Some(o));
        }

        // Merge: translate shard-local query and entry positions back to
        // batch/global ones, concatenate, and canonicalise. Boundary-
        // replicated segments report byte-identical records from every
        // shard that holds them; dedup_matches collapses those on
        // (query, entry, interval) keys.
        let mut merged = Vec::new();
        let mut aggregate: Option<SearchReport> = None;
        let mut raw_total = 0usize;
        let shards = self.members.iter().zip(&subs).zip(outcomes).zip(work.iter_mut());
        for (((member, q_map), outcome), w) in shards {
            let Some(mut o) = outcome else { continue };
            w.response_seconds = o.report.response_seconds();
            w.comparisons = o.report.comparisons;
            w.raw_matches = o.matches.len();
            raw_total += o.matches.len();
            for rec in &mut o.matches {
                rec.query = q_map[rec.query as usize];
                rec.entry = member.to_global[rec.entry as usize];
            }
            merged.append(&mut o.matches);
            match &mut aggregate {
                None => aggregate = Some(o.report),
                Some(agg) => agg.merge_concurrent(&o.report),
            }
        }
        dedup_matches(&mut merged);
        let dropped = (raw_total - merged.len()) as u64;

        // Every shard was skipped (every query's reach missed the extent):
        // the correct result is empty, with an all-skip routing summary.
        let mut report = aggregate.unwrap_or_default();
        report.matches = merged.len() as u64;
        report.routing = RoutingSummary::default();
        for w in &work {
            report.routing.shard_queries_routed += w.routed;
            report.routing.shard_queries_skipped += w.skipped;
            if w.routed > 0 {
                report.routing.shards_probed += 1;
            } else {
                report.routing.shards_skipped += 1;
            }
            report.routing.budget_redos += u64::from(w.budget_redo);
        }
        let host = HostWork::RoutePairs(subs.len() * batch.queries.len()).seconds()
            + HostWork::MergeRecords(raw_total).seconds();
        report.response.add(Phase::HostCompute, host);

        self.duplicates_dropped.fetch_add(dropped, Ordering::Relaxed);
        for (s, w) in self.stats.lock().unwrap().iter_mut().zip(&work) {
            s.searches += u64::from(w.routed > 0);
            s.response_seconds += w.response_seconds;
            s.comparisons += w.comparisons;
            s.raw_matches += w.raw_matches as u64;
            s.queries_routed += w.routed;
            s.queries_skipped += w.skipped;
            s.budget_redos += u64::from(w.budget_redo);
        }
        Ok(SearchOutcome { matches: merged, report })
    }
}

impl TrajectoryIndex for ShardedIndex {
    fn search_shaped(
        &self,
        batch: &QueryBatch<'_>,
        shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError> {
        batch.validate()?;
        self.search_sharded(batch, shape)
    }

    /// The inner method's name: a sharded index is a deployment shape, not
    /// a different algorithm, and its result sets are byte-identical to the
    /// inner method's.
    fn name(&self) -> &'static str {
        self.method.name()
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn ingest(&mut self, store: &Arc<SegmentStore>, delta: &AppendDelta) -> Result<(), TdtsError> {
        check_database(store, delta.from)?; // the rows before passed at their build
        self.rebuild(store)
    }

    /// Expiry only removes segments: nothing is checked.
    fn expire_before(
        &mut self,
        store: &Arc<SegmentStore>,
        _delta: &ExpireDelta,
    ) -> Result<(), TdtsError> {
        self.rebuild(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreparedDataset;
    use crate::oracle::brute_force_search;
    use tdts_geom::{Point3, SegId, Segment, TrajId};
    use tdts_index_temporal::TemporalIndexConfig;
    use tdts_rtree::RTreeConfig;

    fn store(n: usize) -> SegmentStore {
        (0..n)
            .map(|i| {
                let t = ((i * 7) % n) as f64 * 0.3;
                Segment::new(
                    Point3::new(i as f64 * 0.5, (i % 5) as f64, 0.0),
                    Point3::new(i as f64 * 0.5 + 1.0, (i % 5) as f64 + 1.0, 1.0),
                    t,
                    t + 1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect()
    }

    fn build(method: Method, shards: usize) -> (PreparedDataset, ShardedIndex) {
        let dataset = PreparedDataset::new(store(80));
        let arc = dataset.store_arc();
        let stats = arc.stats().unwrap();
        let config = ShardedIndexConfig::builder().shards(shards).build().unwrap();
        let index =
            ShardedIndex::build(method, &arc, &stats, &DeviceConfig::test_tiny(), &config).unwrap();
        (dataset, index)
    }

    #[test]
    fn sharded_matches_oracle_and_drops_duplicates() {
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let (dataset, index) = build(method, 4);
        assert!(index.shards() > 1);
        assert!(index.replication_factor() >= 1.0);

        // Narrow-extent queries: each reaches a small t-window, so routing
        // must skip shard-queries while matching the oracle exactly.
        let queries = store(15);
        let batch = QueryBatch { queries: &queries, d: 2.0, result_capacity: 20_000 };
        let outcome = index.search(&batch).unwrap();
        let expect = brute_force_search(dataset.store(), &queries, 2.0);
        assert_eq!(outcome.matches, expect);
        assert_eq!(outcome.report.matches as usize, outcome.matches.len());
        // Replicated boundary segments matched from several shards must
        // have been collapsed.
        assert!(outcome.report.raw_matches >= outcome.report.matches);

        let shard_stats = index.shard_stats();
        assert_eq!(shard_stats.len(), index.shards());
        assert_eq!(shard_stats.iter().map(|s| s.entries).sum::<usize>(), index.resident_entries());
        // Every query is either routed to or skipped by every shard.
        assert!(shard_stats.iter().all(|s| s.queries_routed + s.queries_skipped == 15));
        let routing = outcome.report.routing;
        assert_eq!(routing.shard_queries_routed + routing.shard_queries_skipped, 15 * 4);
        assert!(routing.shard_queries_skipped > 0, "{routing:?}");
    }

    #[test]
    fn zero_reach_batch_returns_empty() {
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let (_, index) = build(method, 4);
        // Entry extent is t ∈ [0, ~24.7]; these queries live far past it.
        let queries: SegmentStore = (0..3)
            .map(|i| {
                Segment::new(
                    Point3::new(0.0, 0.0, 0.0),
                    Point3::new(1.0, 1.0, 1.0),
                    1000.0 + i as f64,
                    1001.0 + i as f64,
                    SegId(i),
                    TrajId(i),
                )
            })
            .collect();
        let batch = QueryBatch { queries: &queries, d: 5.0, result_capacity: 1_000 };
        let outcome = index.search(&batch).unwrap();
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.report.routing.shards_probed, 0);
        assert_eq!(outcome.report.routing.shards_skipped, index.shards() as u64);
        assert_eq!(outcome.report.routing.shard_queries_routed, 0);
    }

    #[test]
    fn budget_escalation_keeps_routed_search_alive() {
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let (dataset, index) = build(method, 4);
        let queries = store(15);
        // A capacity just big enough for the whole batch on one device but
        // whose per-shard shares can fall below a single query's results:
        // the escalation path must keep the search exact.
        let batch = QueryBatch { queries: &queries, d: 2.0, result_capacity: 40 };
        match index.search(&batch) {
            Ok(outcome) => {
                assert_eq!(outcome.matches, brute_force_search(dataset.store(), &queries, 2.0));
            }
            // If even the full capacity is too small for one query, the
            // sharded search fails exactly like the unsharded one would.
            Err(TdtsError::Search(SearchError::ResultCapacityTooSmall { .. })) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn cpu_method_can_be_sharded_too() {
        let method = Method::CpuRTree(RTreeConfig::default());
        let (dataset, index) = build(method, 3);
        let queries = store(10);
        let batch = QueryBatch { queries: &queries, d: 1.5, result_capacity: 20_000 };
        let outcome = index.search(&batch).unwrap();
        assert_eq!(outcome.matches, brute_force_search(dataset.store(), &queries, 1.5));
        assert_eq!(index.name(), "CPU-RTree");
    }

    /// A rebuild checks only the appended tail, and still refuses an
    /// invalid segment there, named by its position in the store, leaving
    /// the old members in place.
    #[test]
    fn ingest_refuses_an_invalid_tail() {
        let (dataset, mut index) = build(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }), 4);
        let mut store = (*dataset.store_arc()).clone();
        let mut bad = *store.get(1);
        bad.t_end = bad.t_start - 1.0;
        let delta = store.append(&[*store.get(0), bad]);
        let err = index.ingest(&Arc::new(store), &delta).unwrap_err();
        let want = format!("database segment {} has t_start > t_end", delta.from + 1);
        assert_eq!(err, TdtsError::InvalidConfig(want));
        assert_eq!(index.generation(), dataset.store_arc().generation());
    }

    #[test]
    fn zero_shards_is_rejected() {
        // The builder rejects it...
        assert!(matches!(
            ShardedIndexConfig::builder().shards(0).build(),
            Err(TdtsError::InvalidConfig(_))
        ));
        // ...and so does build() for a config forged around the builder
        // (in-crate code can still write the fields directly).
        let cfg = ShardedIndexConfig { shards: 0, ..ShardedIndexConfig::default() };
        let dataset = PreparedDataset::new(store(10));
        let arc = dataset.store_arc();
        let stats = arc.stats().unwrap();
        let err = ShardedIndex::build(
            Method::CpuRTree(RTreeConfig::default()),
            &arc,
            &stats,
            &DeviceConfig::test_tiny(),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, TdtsError::InvalidConfig(_)));
    }

    #[test]
    fn response_is_bounded_by_slowest_shard_not_sum() {
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let (_, index) = build(method, 4);
        // Queries over the whole time extent, so every shard does real work.
        let queries = store(80);
        let batch = QueryBatch { queries: &queries, d: 2.0, result_capacity: 20_000 };
        let outcome = index.search(&batch).unwrap();
        assert_eq!(outcome.report.routing.shards_probed, 4);
        let per_shard: f64 = index.shard_stats().iter().map(|s| s.response_seconds).sum();
        // The aggregate adopts the slowest shard's phases plus the host
        // merge charge; stripping all host-compute leaves at most the
        // slowest shard's device time, which with >1 shard doing real work
        // is strictly below the sum of shard responses.
        let host = outcome.report.response.get(Phase::HostCompute);
        assert!(outcome.report.response_seconds() - host < per_shard);
        assert!(per_shard > 0.0);
    }
}
