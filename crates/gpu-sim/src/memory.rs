//! Simulated device global memory: read-only buffers, atomic-append result
//! buffers, and per-thread scratch partitions.
//!
//! Result writes are warp-aggregated: lanes stage matches in a
//! [`WarpStash`] and the warp flushes them together with a single cursor
//! `fetch_add` — the simulated analogue of the ballot/leader-`atomicAdd`/
//! scatter idiom on real hardware, in place of the paper's one `atomicAdd`
//! per record (§III).

use crate::counters::Lane;
use crate::device::{Device, DeviceCore};
use crate::launch::{Warp, MAX_WARP_LANES};
use crate::sanitizer::ShadowRef;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tdts_geom::FrontVec;

/// Converged ALU instructions charged per warp-aggregated flush: ballot,
/// popcount, leader election, base broadcast, and address arithmetic.
const COMMIT_INSTR: u64 = 8;

/// Error returned when a device allocation exceeds the remaining simulated
/// global memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    pub requested: usize,
    pub available: usize,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Accounting guard: holds the number of bytes reserved on a device and
/// releases them when dropped.
#[derive(Debug)]
pub(crate) struct Reservation {
    /// The device's shared core, not a handle: a buffer outlives the search
    /// handle it was allocated through.
    device: Arc<DeviceCore>,
    bytes: usize,
    /// Sanitizer registration; `None` when the device runs without one.
    shadow: Option<ShadowRef>,
}

impl Reservation {
    pub(crate) fn new(
        device: &Arc<Device>,
        bytes: usize,
        kind: &'static str,
        ty: &'static str,
        len: usize,
    ) -> Result<Self, OutOfDeviceMemory> {
        let device = Arc::clone(&device.core);
        device.reserve(bytes)?;
        let shadow = device.sanitizer.as_ref().map(|san| ShadowRef::new(san, kind, ty, len));
        Ok(Reservation { device, bytes, shadow })
    }

    /// The shadow-state handle, when a sanitizer is active.
    #[inline]
    pub(crate) fn shadow(&self) -> Option<&ShadowRef> {
        self.shadow.as_ref()
    }

    /// Return `fewer` bytes to the device (in-place buffer compaction).
    pub(crate) fn shrink(&mut self, fewer: usize) {
        let fewer = fewer.min(self.bytes);
        self.device.release(fewer);
        self.bytes -= fewer;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if let Some(shadow) = &self.shadow {
            shadow.release();
        }
        self.device.release(self.bytes);
    }
}

/// Device bytes reserved ahead of an in-place update, so that a multi-step
/// update can take every allocation it needs before it changes anything:
/// [`DeviceBuffer::extend`] then moves bytes from here into the buffers it
/// grows and cannot fail. Obtained from [`Device::reserve`]; whatever is
/// left when it drops goes back to the device.
#[derive(Debug)]
pub struct Reserved(Reservation);

impl Reserved {
    pub(crate) fn new(device: &Arc<Device>, bytes: usize) -> Result<Self, OutOfDeviceMemory> {
        device.core.reserve(bytes)?;
        Ok(Reserved(Reservation { device: Arc::clone(&device.core), bytes, shadow: None }))
    }
}

/// A buffer resident in simulated device global memory, read-only from
/// kernels.
///
/// Host-side writes go through [`Device::alloc_from_host`], which charges the
/// host→device transfer to the response-time ledger. Kernel lanes read
/// elements through [`DeviceBuffer::read`], which charges the lane's
/// global-memory counter.
///
/// The elements sit behind a front offset ([`FrontVec`]), so an expiry that
/// cuts the buffer's head moves only the survivors of the cut prefix and
/// leaves the rest in place. The device is charged for the live elements
/// alone: the slack in front of them is host memory the simulated device
/// never sees.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: FrontVec<T>,
    reservation: Reservation,
}

impl<T: Copy> DeviceBuffer<T> {
    pub(crate) fn new(data: Vec<T>, reservation: Reservation) -> Self {
        DeviceBuffer { data: data.into(), reservation }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Read element `i` from a kernel lane, charging the memory counter.
    ///
    /// Under the sanitizer an out-of-bounds `i` is recorded as a finding
    /// and neutralised (the first element is returned) so one run can
    /// surface every bad access; without one it panics like a slice index.
    #[inline]
    pub fn read(&self, lane: &mut Lane, i: usize) -> T {
        lane.gmem_read(std::mem::size_of::<T>() as u64);
        if i >= self.data.len() {
            if let Some(shadow) = self.reservation.shadow() {
                shadow.oob_read(i, lane.global_id, self.data.len());
                if let Some(&first) = self.data.first() {
                    return first;
                }
            }
        }
        self.data.as_slice()[i]
    }

    /// Elements `rows`, bounds-tested once for the whole range and *without*
    /// cost accounting: for kernel lanes that scan a run of rows or gather
    /// through a run of ids and post the run's closed-form charge themselves
    /// (see `DeviceSegments::refine_range` and `refine_gather`).
    ///
    /// What [`read`] does per element happens here per range. Under the
    /// sanitizer a range that leaves the buffer is recorded as one
    /// out-of-bounds read at the first missing element and neutralised to
    /// `None`, so the caller can fall back to reads that report each bad
    /// access; without one it panics like a slice index.
    ///
    /// [`read`]: DeviceBuffer::read
    #[inline]
    pub fn row_range(&self, lane: &Lane, rows: std::ops::Range<usize>) -> Option<&[T]> {
        if rows.end > self.data.len() {
            if let Some(shadow) = self.reservation.shadow() {
                let offset = rows.start.max(self.data.len());
                shadow.oob_read(offset, lane.global_id, self.data.len());
                return None;
            }
        }
        Some(&self.data.as_slice()[rows])
    }

    /// Raw slice access *without* cost accounting. Use only on the host
    /// (index construction, verification); kernels should use [`read`].
    ///
    /// [`read`]: DeviceBuffer::read
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Append `more` in place with host data, *offline* (no transfer
    /// charge): the device side of generational ingestion — only the
    /// appended tail is copied, existing elements stay resident. The device
    /// bytes come out of `reserved`, taken before the update began, so the
    /// append cannot fail. Requires `&mut self`, i.e. no kernel running.
    ///
    /// # Panics
    ///
    /// If `reserved` holds fewer bytes than `more` occupies.
    pub fn extend(&mut self, more: &[T], reserved: &mut Reserved) {
        let bytes = std::mem::size_of_val(more);
        assert!(bytes <= reserved.0.bytes, "extend past the bytes reserved for it");
        reserved.0.bytes -= bytes;
        self.reservation.bytes += bytes;
        self.data.extend_from_slice(more);
    }

    /// Cut the first `n` elements in place: keep those `keep(i, &x)` maps
    /// to `Some`, rewritten with the value it returns, in order, and drop
    /// the rest (see [`FrontVec::cut_front`]). The elements past `n` stay
    /// where they are; the dropped bytes go back to the device. Returns the
    /// number dropped. Requires `&mut self`, i.e. no kernel running.
    pub fn cut_front(&mut self, n: usize, keep: impl FnMut(usize, &T) -> Option<T>) -> usize {
        let dropped = self.data.cut_front(n, keep);
        self.reservation.shrink(dropped * std::mem::size_of::<T>());
        dropped
    }

    /// Remove the elements at the ascending positions in `removed`,
    /// preserving survivor order and returning the freed bytes to the
    /// device — the expire side of generational ingestion. Only the
    /// elements up to the last removed one are visited; those past it stay
    /// in place. Positions out of range are ignored. Requires `&mut self`.
    pub fn remove_positions(&mut self, removed: &[u32]) {
        let mut next = removed.partition_point(|&r| (r as usize) < self.len());
        let n = removed[..next].last().map_or(0, |&r| r as usize + 1);
        self.cut_front(n, |i, &x| {
            if next > 0 && removed[next - 1] as usize == i {
                next -= 1;
                None
            } else {
                Some(x)
            }
        });
    }
}

impl<T: Copy> AsRef<[T]> for DeviceBuffer<T> {
    /// [`as_slice`](DeviceBuffer::as_slice): host access without cost
    /// accounting.
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

/// A fixed-capacity device buffer that kernels append to through an atomic
/// cursor — the simulated equivalent of
/// `resultSet[atomicAdd(&cursor, 1)] = item`.
///
/// Appends past capacity are discarded and set the overflow flag; the host
/// driver reacts by re-invoking the kernel or processing the query set
/// incrementally, exactly as in the paper (§III, §V-E).
pub struct ResultBuffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cursor: AtomicUsize,
    overflowed: AtomicBool,
    stash_capacity: usize,
    reservation: Reservation,
}

// SAFETY: slots are only written through unique indices handed out by the
// atomic cursor, and only read after all kernel threads have completed
// (`&mut self` methods), so concurrent access to one slot never occurs.
unsafe impl<T: Send> Sync for ResultBuffer<T> {}
// SAFETY: same argument as `Sync` above — the buffer owns its slots and the
// cursor; moving it across threads moves exclusive ownership with it.
unsafe impl<T: Send> Send for ResultBuffer<T> {}

impl<T> ResultBuffer<T> {
    pub(crate) fn with_capacity(
        capacity: usize,
        stash_capacity: usize,
        reservation: Reservation,
    ) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || UnsafeCell::new(MaybeUninit::uninit()));
        ResultBuffer {
            slots: slots.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
            overflowed: AtomicBool::new(false),
            stash_capacity: stash_capacity.max(1),
            reservation,
        }
    }

    /// Capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store `item` at `idx` without cost accounting; `false` (plus the
    /// overflow flag) when `idx` is past capacity. Callers charge the costs.
    #[inline]
    fn raw_write(&self, idx: usize, item: T) -> bool {
        if idx < self.slots.len() {
            // SAFETY: `idx` was obtained from the atomic cursor, so no other
            // thread writes this slot; reads happen only after the launch.
            unsafe { (*self.slots[idx].get()).write(item) };
            true
        } else {
            self.overflowed.store(true, Ordering::Relaxed);
            false
        }
    }

    /// Begin a warp's staged append session. Lanes [`WarpStash::stage`]
    /// matches during the lane loop; the warp epilogue calls
    /// [`WarpStash::commit`] to flush them with one cursor `fetch_add` for
    /// the whole warp.
    pub fn warp_stash(&self) -> WarpStash<'_, T> {
        WarpStash { buffer: self, staged: VecDeque::new(), dropped: 0, stored: 0, lost: 0 }
    }

    /// True if any append was rejected.
    ///
    /// Checking the flag is the host-driven redo acknowledgement: the
    /// sanitizer's lost-record accounting treats records dropped by this
    /// buffer as handled once the host has observed (or ruled out) the
    /// overflow.
    pub fn overflowed(&self) -> bool {
        if let Some(shadow) = self.reservation.shadow() {
            shadow.ack_losses();
        }
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Number of successfully stored elements.
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// True if no element was stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of append attempts (exceeds `capacity()` on overflow).
    pub fn attempted(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Drain the stored elements to the host, resetting the buffer for the
    /// next kernel invocation. Requires `&mut self`, i.e. no kernel running.
    pub fn drain_to_host(&mut self) -> Vec<T> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for slot in &mut self.slots[..n] {
            // SAFETY: slots [0, n) were initialised by `raw_write`; after this
            // drain the cursor is reset so they are treated as uninit again.
            out.push(unsafe { slot.get_mut().assume_init_read() });
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.overflowed.store(false, Ordering::Relaxed);
        if let Some(shadow) = self.reservation.shadow() {
            shadow.note_drained((out.len() * std::mem::size_of::<T>()) as u64);
        }
        out
    }
}

impl<T> Drop for ResultBuffer<T> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<T>() {
            let n = self.len();
            for slot in &mut self.slots[..n] {
                // SAFETY: slots [0, n) are initialised and never read again.
                unsafe { slot.get_mut().assume_init_drop() };
            }
        }
    }
}

/// One warp's staged appends into a [`ResultBuffer`].
///
/// Lanes stage `(lane, record)` pairs into one flat queue (a
/// register/shared-memory tile on real hardware, sized by
/// [`crate::DeviceConfig::warp_stash_capacity`]); [`commit`] then bumps the
/// shared cursor **once** for the warp's whole batch and scatters the
/// records contiguously, lane-major and in staging order within a lane.
///
/// A host worker of a persistent launch keeps one stash for all its tiles:
/// each tile's body stages behind the records of tiles whose epilogues
/// have not run yet, and each epilogue commits its own tile's records, the
/// oldest ones, with [`commit_oldest`]. The stash's storage then grows to
/// what the worker has outstanding once, instead of once per tile.
///
/// [`commit`]: WarpStash::commit
/// [`commit_oldest`]: WarpStash::commit_oldest
pub struct WarpStash<'a, T> {
    buffer: &'a ResultBuffer<T>,
    /// `(lane index, record)` in staging order, lanes interleaved; commits
    /// take them from the front.
    staged: VecDeque<(usize, T)>,
    dropped: u64,
    /// Records successfully stored through this stash (sanitizer
    /// lost-record accounting; reset at every commit).
    stored: u64,
    /// Records dropped through this stash (overflow or
    /// [`WarpStash::mark_dropped`]).
    lost: u64,
}

impl<'a, T> WarpStash<'a, T> {
    /// Stage `item` from a kernel lane: one ALU op. Capacity is only
    /// checked at [`WarpStash::commit`].
    #[inline]
    pub fn stage(&mut self, lane: &mut Lane, item: T) {
        lane.instr(1);
        self.staged.push_back((lane.lane_index(), item));
    }

    /// Stage `item` on behalf of lane `lane_index` from the warp epilogue
    /// (no `Lane` handle there); flushed at [`WarpStash::commit`]. Used e.g.
    /// to stage redo ids for dropped lanes.
    #[inline]
    pub fn stage_at(&mut self, lane_index: usize, item: T) {
        assert!(lane_index < MAX_WARP_LANES, "lane index {lane_index} out of range");
        self.staged.push_back((lane_index, item));
    }

    /// Record that `lane` lost a record without staging one (e.g. its
    /// scratch overflowed before any result was produced), so it shows up
    /// in the mask returned by the next commit.
    #[inline]
    pub fn mark_dropped(&mut self, lane: &Lane) {
        self.lost += 1;
        self.dropped |= 1 << lane.lane_index();
    }

    /// Records staged and not committed yet.
    #[inline]
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True if nothing awaits a commit.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Flush all staged records and return the dropped-lane bitmask (bit
    /// `i` set ⇔ lane `i` lost at least one record to buffer overflow, or
    /// was [`WarpStash::mark_dropped`]).
    ///
    /// Charges one atomic per *flush round* — a lane staging more than
    /// `warp_stash_capacity` records forces `ceil(n/capacity)` rounds, the
    /// max over lanes — instead of one per record, plus `COMMIT_INSTR`
    /// converged instructions per round and coalesced write bytes for the
    /// stored records.
    pub fn commit(&mut self, warp: &mut Warp) -> u64 {
        self.commit_oldest(warp, self.staged.len())
    }

    /// [`WarpStash::commit`] the `count` oldest staged records alone — one
    /// tile's, when a worker's tiles share the stash — and leave the rest
    /// staged.
    ///
    /// # Panics
    ///
    /// If fewer than `count` records are staged.
    pub fn commit_oldest(&mut self, warp: &mut Warp, count: usize) -> u64 {
        if count > 0 {
            // Records per lane, then each lane's next slot: lane-major.
            let mut next = [0usize; MAX_WARP_LANES];
            let (mut deepest, mut lanes) = (0, 0);
            for &(li, _) in self.staged.range(..count) {
                next[li] += 1;
                deepest = deepest.max(next[li]);
                lanes = lanes.max(li + 1);
            }
            let flushes = deepest.div_ceil(self.buffer.stash_capacity) as u64;
            warp.instr(flushes * COMMIT_INSTR);
            warp.atomics(flushes);
            let mut slot = self.buffer.cursor.fetch_add(count, Ordering::Relaxed);
            for n in &mut next[..lanes] {
                slot += std::mem::replace(n, slot);
            }
            let item_bytes = std::mem::size_of::<T>() as u64;
            for (li, item) in self.staged.drain(..count) {
                if self.buffer.raw_write(next[li], item) {
                    warp.gmem_write(item_bytes);
                    self.stored += 1;
                } else {
                    self.lost += 1;
                    self.dropped |= 1 << li;
                }
                next[li] += 1;
            }
        }
        self.log_commit(warp);
        std::mem::take(&mut self.dropped)
    }

    /// Report this commit's stored/lost counts to the sanitizer's
    /// lost-record accounting and reset them for the next commit.
    fn log_commit(&mut self, warp: &Warp) {
        let stored = std::mem::take(&mut self.stored);
        let lost = std::mem::take(&mut self.lost);
        if let Some(shadow) = self.buffer.reservation.shadow() {
            shadow.log_commit(warp.index(), stored, lost);
        }
    }
}

/// Device memory partitioned into equal per-thread scratch areas — the
/// paper's candidate buffers `U_k` with `|U_k| = s / |Q|` (§IV-A).
///
/// Each kernel thread takes its own partition with [`take_partition`]; the
/// runtime check guarantees a partition is handed out at most once per
/// launch, making the aliasing-free access pattern explicit. Each
/// partition's storage sits behind its own `Mutex` — uncontended by
/// construction, which keeps the type free of `unsafe` aliasing arguments
/// while charging exactly the same simulated costs.
///
/// [`take_partition`]: PartitionedScratch::take_partition
pub struct PartitionedScratch<T> {
    parts: Box<[Mutex<Vec<T>>]>,
    per_thread: usize,
    taken: Box<[AtomicBool]>,
    reservation: Reservation,
}

impl<T: Copy + Default> PartitionedScratch<T> {
    pub(crate) fn new(partitions: usize, per_thread: usize, reservation: Reservation) -> Self {
        let mut parts = Vec::with_capacity(partitions);
        parts.resize_with(partitions, || Mutex::new(Vec::with_capacity(per_thread)));
        let mut taken = Vec::with_capacity(partitions);
        taken.resize_with(partitions, || AtomicBool::new(false));
        PartitionedScratch {
            parts: parts.into_boxed_slice(),
            per_thread,
            taken: taken.into_boxed_slice(),
            reservation,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.taken.len()
    }

    /// Take exclusive access to partition `idx` for the current kernel
    /// thread. Panics if the partition was already taken this launch —
    /// that would be a data race on a real GPU too.
    pub fn take_partition(&self, idx: usize) -> ScratchPartition<'_, T> {
        assert!(
            !self.taken[idx].swap(true, Ordering::AcqRel),
            "scratch partition {idx} taken twice in one launch"
        );
        let mut data = self.parts[idx].lock().unwrap_or_else(PoisonError::into_inner);
        data.clear();
        ScratchPartition {
            data,
            base: idx * self.per_thread,
            cap: self.per_thread,
            pending: 0,
            shadow: self.reservation.shadow().cloned(),
        }
    }

    /// Reset all partitions for the next launch. `&mut self` guarantees no
    /// kernel thread still holds a partition.
    pub fn reset(&mut self) {
        for t in self.taken.iter() {
            t.store(false, Ordering::Relaxed);
        }
    }
}

/// Exclusive view of one scratch partition, used as an append buffer.
pub struct ScratchPartition<'a, T> {
    data: MutexGuard<'a, Vec<T>>,
    /// First word of this partition within the whole scratch allocation
    /// (sanitizer findings report absolute offsets).
    base: usize,
    cap: usize,
    pending: u64,
    shadow: Option<ShadowRef>,
}

impl<'a, T: Copy + Default> ScratchPartition<'a, T> {
    /// Append `item`; returns `false` (buffer full) when the partition's
    /// capacity is exceeded — the paper's `U_k` overflow condition.
    ///
    /// An append costs one ALU op and its write bytes accumulate in
    /// [`ScratchPartition::pending_write_bytes`], which the kernel's warp
    /// epilogue charges as coalesced warp traffic (staged chunk
    /// write-combining).
    #[inline]
    pub fn push(&mut self, lane: &mut Lane, item: T) -> bool {
        if self.data.len() >= self.cap {
            return false;
        }
        lane.instr(1);
        self.pending += std::mem::size_of::<T>() as u64;
        self.data.push(item);
        true
    }

    /// Write bytes accumulated by appends and not yet charged; the caller's
    /// warp epilogue should charge these via [`Warp::gmem_write`].
    #[inline]
    pub fn pending_write_bytes(&self) -> u64 {
        self.pending
    }

    /// Number of elements appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing was appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read back element `i`, charging the lane's memory counter.
    ///
    /// Without a sanitizer a read past the appended length panics. Under
    /// the sanitizer it is recorded — as an uninitialized read when `i` is
    /// inside the partition's capacity but was never written this session,
    /// or as an out-of-bounds read past the capacity — and neutralised by
    /// returning `T::default()`.
    #[inline]
    pub fn read(&self, lane: &mut Lane, i: usize) -> T {
        if i >= self.data.len() {
            let Some(shadow) = &self.shadow else {
                panic!("scratch read {i} out of bounds {}", self.data.len());
            };
            if i >= self.cap {
                shadow.oob_read(self.base + i, lane.global_id, self.cap);
            } else {
                shadow.uninit_read(self.base + i, lane.global_id, self.data.len());
            }
            lane.gmem_read(std::mem::size_of::<T>() as u64);
            return T::default();
        }
        lane.gmem_read(std::mem::size_of::<T>() as u64);
        self.data[i]
    }

    /// Read back everything appended so far in one charged pass: what
    /// [`read`] charges for each of `0..len()`, as one charge. These
    /// elements were all written, so no sanitizer check applies.
    ///
    /// [`read`]: ScratchPartition::read
    #[inline]
    pub fn read_all(&self, lane: &mut Lane) -> &[T] {
        lane.gmem_read((self.data.len() * std::mem::size_of::<T>()) as u64);
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    fn device() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    /// Stage `items` from lane 0 of a one-lane warp and commit them.
    fn commit_all(buf: &ResultBuffer<u32>, items: &[u32]) {
        let mut warp = Warp::standalone(1);
        let mut stash = buf.warp_stash();
        warp.for_each_lane(|lane| items.iter().for_each(|&i| stash.stage(lane, i)));
        stash.commit(&mut warp);
    }

    #[test]
    fn result_buffer_fills_overflows_and_drains() {
        let dev = device();
        let mut buf: ResultBuffer<u32> = dev.alloc_result(4).unwrap();
        commit_all(&buf, &[0, 1, 2, 3, 99]);
        assert!(buf.overflowed());
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.attempted(), 5);
        let got = buf.drain_to_host();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(!buf.overflowed());
        assert_eq!(buf.len(), 0);
        // Reusable after drain.
        commit_all(&buf, &[7]);
        assert_eq!(buf.drain_to_host(), vec![7]);
    }

    #[test]
    fn scratch_partitions_are_disjoint() {
        let dev = device();
        let mut scratch: PartitionedScratch<u32> = dev.alloc_scratch(4, 3).unwrap();
        let mut lane = Lane::new(0);
        {
            let mut p0 = scratch.take_partition(0);
            let mut p1 = scratch.take_partition(1);
            assert!(p0.push(&mut lane, 10));
            assert!(p1.push(&mut lane, 20));
            assert!(p0.push(&mut lane, 11));
            assert_eq!(p0.len(), 2);
            assert_eq!(p0.read(&mut lane, 0), 10);
            assert_eq!(p0.read(&mut lane, 1), 11);
            assert_eq!(p1.read(&mut lane, 0), 20);
        }
        scratch.reset();
        let mut p0 = scratch.take_partition(0);
        assert!(p0.is_empty());
        assert!(p0.push(&mut lane, 1));
    }

    #[test]
    fn scratch_overflow_returns_false() {
        let dev = device();
        let scratch: PartitionedScratch<u32> = dev.alloc_scratch(1, 2).unwrap();
        let mut lane = Lane::new(0);
        let mut p = scratch.take_partition(0);
        assert!(p.push(&mut lane, 1));
        assert!(p.push(&mut lane, 2));
        assert!(!p.push(&mut lane, 3));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn scratch_double_take_panics() {
        let dev = device();
        let scratch: PartitionedScratch<u32> = dev.alloc_scratch(2, 2).unwrap();
        let _a = scratch.take_partition(0);
        let _b = scratch.take_partition(0);
    }

    #[test]
    fn device_buffer_read_charges() {
        let dev = device();
        let buf = dev.alloc_from_host(vec![1.0f64, 2.0, 3.0]).unwrap();
        let mut lane = Lane::new(0);
        assert_eq!(buf.read(&mut lane, 1), 2.0);
        assert_eq!(lane.counters().gmem_read_bytes, 8);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.size_bytes(), 24);
        assert_eq!(buf.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn device_buffer_reserves_and_releases_memory() {
        let dev = device();
        assert_eq!(dev.mem_used(), 0);
        {
            let buf = dev.alloc_from_host(vec![0u8; 100]).unwrap();
            assert_eq!(dev.mem_used(), buf.size_bytes());
        }
        assert_eq!(dev.mem_used(), 0);
    }

    #[test]
    fn device_buffer_extends_and_compacts_in_place() {
        let dev = device();
        let mut buf = dev.alloc_from_host(vec![[1.0f64, 10.0], [2.0, 20.0]]).unwrap();
        let used = dev.mem_used();
        let mut reserved = dev.reserve(24).unwrap();
        buf.extend(&[[3.0, 30.0]], &mut reserved);
        assert_eq!(buf.as_slice(), &[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
        assert_eq!(dev.mem_used(), used + 24);
        // What the extend did not take goes back when the reservation drops.
        drop(reserved);
        assert_eq!(dev.mem_used(), used + 16);
        buf.remove_positions(&[1, 7]);
        assert_eq!(buf.as_slice(), &[[1.0, 10.0], [3.0, 30.0]]);
        assert_eq!(dev.mem_used(), used);
        drop(buf);
        assert_eq!(dev.mem_used(), 0);
    }

    #[test]
    fn reserve_past_device_memory_fails() {
        let dev = device(); // 1 MiB
        let _buf = dev.alloc_from_host(vec![0u8; 1024]).unwrap();
        assert!(dev.reserve(2 * 1024 * 1024).is_err());
        // The failed reservation took nothing.
        assert_eq!(dev.mem_used(), 1024);
    }

    #[test]
    fn out_of_memory() {
        let dev = device(); // 1 MiB
        let big = vec![0u8; 2 * 1024 * 1024];
        let err = dev.alloc_from_host(big).unwrap_err();
        assert_eq!(err.requested, 2 * 1024 * 1024);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn memory_released_on_drop() {
        let dev = device();
        assert_eq!(dev.mem_used(), 0);
        {
            let _buf = dev.alloc_from_host(vec![0u8; 1024]).unwrap();
            assert_eq!(dev.mem_used(), 1024);
        }
        assert_eq!(dev.mem_used(), 0);
    }

    #[test]
    fn warp_stash_commits_with_one_atomic_per_flush() {
        let dev = device();
        let mut buf: ResultBuffer<u32> = dev.alloc_result(16).unwrap();
        let mut warp = Warp::standalone(4);
        {
            let mut stash = buf.warp_stash();
            warp.for_each_lane(|lane| {
                // Lane i stages i records; staging costs ALU, not atomics.
                for i in 0..lane.lane_index() as u32 {
                    stash.stage(lane, lane.lane_index() as u32 * 10 + i);
                }
                assert_eq!(lane.counters().atomics, 0);
            });
            let dropped = stash.commit(&mut warp);
            assert_eq!(dropped, 0);
        }
        // 6 records, deepest lane stages 3 <= stash capacity 4: one flush.
        assert_eq!(warp.counters().atomics, 1);
        assert_eq!(warp.counters().gmem_write_bytes, 6 * 4);
        assert!(warp.counters().instructions >= 1);
        let mut got = buf.drain_to_host();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20, 21, 30, 31, 32]);
    }

    #[test]
    fn warp_stash_deep_lane_forces_extra_flushes() {
        let dev = device();
        let buf: ResultBuffer<u32> = dev.alloc_result(16).unwrap();
        let mut warp = Warp::standalone(2);
        let mut stash = buf.warp_stash();
        warp.for_each_lane(|lane| {
            if lane.lane_index() == 0 {
                for i in 0..9 {
                    stash.stage(lane, i);
                }
            }
        });
        stash.commit(&mut warp);
        // ceil(9 / stash capacity 4) = 3 flush rounds.
        assert_eq!(warp.counters().atomics, 3);
    }

    #[test]
    fn warp_stash_overflow_sets_flag_and_lane_mask() {
        let dev = device();
        let mut buf: ResultBuffer<u32> = dev.alloc_result(3).unwrap();
        let mut warp = Warp::standalone(4);
        let dropped = {
            let mut stash = buf.warp_stash();
            warp.for_each_lane(|lane| {
                // Lane i stages i records: 0 + 1 + 2 + 3 = 6 > capacity 3.
                for i in 0..lane.lane_index() as u32 {
                    stash.stage(lane, i);
                }
            });
            stash.commit(&mut warp)
        };
        assert!(buf.overflowed());
        assert_eq!(buf.len(), 3);
        // Records scatter in lane order: lane 1's record and lane 2's two
        // fill the buffer; lane 3 loses all three of its records.
        assert_eq!(dropped, 1 << 3);
        // Only stored records are charged as writes.
        assert_eq!(warp.counters().gmem_write_bytes, 3 * 4);
        assert_eq!(buf.drain_to_host().len(), 3);
    }

    #[test]
    fn warp_stash_mark_dropped_and_stage_at() {
        let dev = device();
        let mut buf: ResultBuffer<u32> = dev.alloc_result(8).unwrap();
        let mut warp = Warp::standalone(4);
        let dropped = {
            let mut stash = buf.warp_stash();
            warp.for_each_lane(|lane| {
                if lane.lane_index() == 2 {
                    stash.mark_dropped(lane);
                }
            });
            stash.stage_at(1, 41);
            stash.commit(&mut warp)
        };
        assert_eq!(dropped, 1 << 2);
        assert_eq!(buf.drain_to_host(), vec![41]);
    }

    #[test]
    fn scratch_pending_bytes_accumulate() {
        let dev = device();
        let scratch: PartitionedScratch<u32> = dev.alloc_scratch(1, 8).unwrap();
        let mut lane = Lane::new(0);
        let mut p = scratch.take_partition(0);
        for i in 0..3 {
            assert!(p.push(&mut lane, i));
        }
        assert_eq!(p.pending_write_bytes(), 12);
        assert_eq!(lane.counters().gmem_write_bytes, 0, "deferred to the warp epilogue");
        // Reads still charge the lane.
        assert_eq!(p.read(&mut lane, 1), 1);
        assert_eq!(lane.counters().gmem_read_bytes, 4);
    }
}
