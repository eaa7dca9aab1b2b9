//! The simulated device: memory accounting, transfers, and the response-time
//! ledger of one search.

use crate::config::DeviceConfig;
use crate::host::HostWork;
use crate::launch::{run_launch_persistent, run_launch_warps, LaunchReport, Warp};
use crate::ledger::{Phase, ResponseTime};
use crate::memory::{
    DeviceBuffer, OutOfDeviceMemory, PartitionedScratch, Reservation, Reserved, ResultBuffer,
};
use crate::sanitizer::{short_type_name, Sanitizer, SanitizerMode, SanitizerReport};
use crate::workqueue::{Tile, WorkQueue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// What every handle on one simulated GPU shares: the configuration, the
/// global-memory accounting and the sanitizer.
#[derive(Debug)]
pub(crate) struct DeviceCore {
    config: DeviceConfig,
    mem_used: AtomicUsize,
    /// Shadow-state sanitizer; `None` under [`SanitizerMode::Off`], so the
    /// disabled mode allocates nothing and the hot paths skip one pointer
    /// check at most.
    pub(crate) sanitizer: Option<Arc<Sanitizer>>,
    /// True while a [`Device::for_search`] handle is live on a sanitized
    /// device. The sanitizer keeps one device-wide "current launch" and one
    /// charged-vs-drained transfer balance, so — like `compute-sanitizer`
    /// serialising kernels — such a device admits one search at a time.
    searching: Mutex<bool>,
    search_done: Condvar,
}

impl DeviceCore {
    pub(crate) fn reserve(&self, bytes: usize) -> Result<(), OutOfDeviceMemory> {
        let mut used = self.mem_used.load(Ordering::Relaxed);
        loop {
            let available = self.config.global_mem_bytes.saturating_sub(used);
            if bytes > available {
                return Err(OutOfDeviceMemory { requested: bytes, available });
            }
            match self.mem_used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => used = actual,
            }
        }
    }

    pub(crate) fn release(&self, bytes: usize) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A handle on a simulated GPU.
///
/// All allocation, transfer, and launch operations go through a handle.
/// Handles on one GPU share its configuration, simulated-memory accounting
/// and sanitizer; each handle keeps a [`ResponseTime`] ledger of its own. A
/// search opens with [`Device::for_search`] and charges only the handle it
/// gets back, so any number of searches can run on one device — and over
/// the buffers resident on it — without seeing each other's charges.
///
/// ```
/// use tdts_gpu_sim::{Device, DeviceConfig, Warp};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let device = Device::new(DeviceConfig::tesla_c2075()).unwrap();
/// let data = device.alloc_from_host((0..1024u64).collect()).unwrap();
///
/// // A kernel summing the buffer: one thread per element, no epilogue.
/// let sum = AtomicU64::new(0);
/// let kernel = |warp: &mut Warp| {
///     warp.for_each_lane(|lane| {
///         let v = data.read(lane, lane.global_id); // charges the memory counter
///         lane.instr(1);
///         sum.fetch_add(v, Ordering::Relaxed);
///     })
/// };
/// let report = device.launch_warps_ordered(data.len(), kernel, |_, ()| {});
/// assert_eq!(sum.into_inner(), 1024 * 1023 / 2);
/// assert_eq!(report.warps, 1024 / 32);
/// assert!(report.sim_exec_seconds > 0.0); // deterministic simulated time
/// ```
/// Two families of operations exist:
///
/// * **Offline** ([`Device::alloc_from_host`]) — used while building indexes
///   and storing the database `D`; the paper excludes these from response
///   time, so no ledger entry is made.
/// * **Online** ([`Device::upload`], [`Device::charge_upload`],
///   [`Device::charge_download`], [`Device::launch_warps_ordered`],
///   [`Device::launch_persistent_ordered`], [`Device::charge_host`]) —
///   everything between query arrival and the final result set; each
///   records its simulated duration.
pub struct Device {
    pub(crate) core: Arc<DeviceCore>,
    ledger: Mutex<ResponseTime>,
    /// Whether this handle holds the core's one-search-at-a-time gate.
    gated: bool,
}

impl Device {
    /// Create a device, validating the configuration.
    pub fn new(config: DeviceConfig) -> Result<Arc<Device>, String> {
        config.validate()?;
        let sanitizer = (!config.sanitizer.is_off()).then(|| Arc::new(Sanitizer::new()));
        let core = Arc::new(DeviceCore {
            config,
            mem_used: AtomicUsize::new(0),
            sanitizer,
            searching: Mutex::new(false),
            search_done: Condvar::new(),
        });
        Ok(Arc::new(Device { core, ledger: Mutex::new(ResponseTime::new()), gated: false }))
    }

    /// A handle on the same device with a zeroed ledger of its own: what a
    /// search charges, so its report covers exactly that search whatever
    /// else runs on the device. On a sanitized device this blocks until the
    /// previous search's handle is dropped (see `DeviceCore::searching`), so
    /// a search must not open a second handle on the device it is searching.
    pub fn for_search(&self) -> Arc<Device> {
        let gated = self.core.sanitizer.is_some();
        if gated {
            let mut searching = self.core.searching.lock().unwrap_or_else(PoisonError::into_inner);
            while *searching {
                searching =
                    self.core.search_done.wait(searching).unwrap_or_else(PoisonError::into_inner);
            }
            *searching = true;
        }
        Arc::new(Device {
            core: Arc::clone(&self.core),
            ledger: Mutex::new(ResponseTime::new()),
            gated,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.core.config
    }

    /// Snapshot of everything the sanitizer observed so far. Reports an
    /// empty clean report under [`SanitizerMode::Off`].
    pub fn sanitizer_report(&self) -> SanitizerReport {
        match &self.core.sanitizer {
            Some(san) => san.report(),
            None => SanitizerReport {
                mode: SanitizerMode::Off,
                launches: 0,
                findings: Vec::new(),
                live_allocations: Vec::new(),
                d2h_charged_bytes: 0,
                d2h_drained_bytes: 0,
            },
        }
    }

    /// Materialize deferred diagnostics (unacknowledged lost records,
    /// transfer mismatches) and return the number of findings recorded since
    /// the previous checkpoint. Search epilogues call this once per search
    /// and store the delta on `SearchReport::sanitizer_findings`, so merged
    /// reports sum correctly.
    pub fn sanitizer_checkpoint(&self) -> u64 {
        self.core.sanitizer.as_ref().map_or(0, |san| san.checkpoint())
    }

    /// Panic with the full diagnostic listing if the sanitizer recorded any
    /// finding. The hard-failure entry point for tests.
    pub fn assert_sanitizer_clean(&self) {
        let report = self.sanitizer_report();
        assert!(report.is_clean(), "sanitizer found defects:\n{report}");
    }

    /// Bytes of simulated global memory currently allocated.
    pub fn mem_used(&self) -> usize {
        self.core.mem_used.load(Ordering::Relaxed)
    }

    /// Bytes of simulated global memory still free.
    pub fn mem_available(&self) -> usize {
        self.core.config.global_mem_bytes - self.mem_used()
    }

    /// Reserve `bytes` of global memory ahead of an in-place update, so it
    /// can take every allocation before it changes anything (see
    /// [`Reserved`]).
    pub fn reserve(self: &Arc<Self>, bytes: usize) -> Result<Reserved, OutOfDeviceMemory> {
        Reserved::new(self, bytes)
    }

    /// Allocate a read-only device buffer *offline* (no ledger entry).
    /// Used for the database `D` and index structures, which the paper
    /// stores on the GPU before the search begins.
    pub fn alloc_from_host<T: Copy>(
        self: &Arc<Self>,
        data: Vec<T>,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        let bytes = data.len() * std::mem::size_of::<T>();
        let reservation =
            Reservation::new(self, bytes, "DeviceBuffer", short_type_name::<T>(), data.len())?;
        Ok(DeviceBuffer::new(data, reservation))
    }

    /// Allocate and transfer a buffer *online*, charging the host→device
    /// transfer to the ledger. Used for query sets, schedules, redo lists.
    pub fn upload<T: Copy>(
        self: &Arc<Self>,
        data: Vec<T>,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        self.charge_upload(std::mem::size_of_val(data.as_slice()));
        self.alloc_from_host(data)
    }

    /// Charge one host→device transfer of `bytes`: the online half of
    /// [`upload`](Device::upload), for data shipped in one transfer and
    /// placed with [`alloc_from_host`](Device::alloc_from_host) as several
    /// buffers (a database's columns).
    pub fn charge_upload(&self, bytes: usize) {
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        ledger.add(Phase::HostToDevice, self.core.config.h2d_seconds(bytes));
        ledger.h2d_bytes += bytes as u64;
    }

    /// Allocate a fixed-capacity atomic-append result buffer (offline — the
    /// paper pre-allocates the result buffer before searching).
    pub fn alloc_result<T>(
        self: &Arc<Self>,
        capacity: usize,
    ) -> Result<ResultBuffer<T>, OutOfDeviceMemory> {
        let bytes = capacity * std::mem::size_of::<T>();
        let reservation =
            Reservation::new(self, bytes, "ResultBuffer", short_type_name::<T>(), capacity)?;
        Ok(ResultBuffer::with_capacity(capacity, self.core.config.warp_stash_capacity, reservation))
    }

    /// Allocate per-thread scratch partitions (offline): `partitions` areas
    /// of `per_thread` elements each — the paper's buffer `U` split as
    /// `|U_k| = s/|Q|`.
    pub fn alloc_scratch<T: Copy + Default>(
        self: &Arc<Self>,
        partitions: usize,
        per_thread: usize,
    ) -> Result<PartitionedScratch<T>, OutOfDeviceMemory> {
        let bytes = partitions * per_thread * std::mem::size_of::<T>();
        let reservation = Reservation::new(
            self,
            bytes,
            "PartitionedScratch",
            short_type_name::<T>(),
            partitions * per_thread,
        )?;
        Ok(PartitionedScratch::new(partitions, per_thread, reservation))
    }

    /// Launch a kernel over `threads` GPU threads, in warps, and charge
    /// launch overhead plus simulated execution time to the ledger.
    ///
    /// The launch runs in two parts. `body` runs once per [`Warp`], in
    /// parallel over the host's cores (through
    /// [`tdts_geom::par::par_ordered`]): it drives the warp's lanes with
    /// [`Warp::for_each_lane`], each lane recording its costs on its
    /// [`Lane`](crate::Lane), and returns what the warp staged. `epilogue`
    /// then runs once per warp, one at a time and **in warp order**; what it
    /// records on the warp is charged at converged rates. A kernel that
    /// commits to a buffer that can fill (a [`crate::WarpStash`] into a
    /// result buffer, say) does so in the epilogue, so which commit
    /// overflows never depends on host scheduling. Being run one warp at a
    /// time, the epilogue may keep state across warps; a kernel with nothing
    /// to commit passes `|_, ()| {}`.
    pub fn launch_warps_ordered<S, B, E>(
        &self,
        threads: usize,
        body: B,
        epilogue: E,
    ) -> LaunchReport
    where
        B: Fn(&mut Warp) -> S + Sync,
        E: FnMut(&mut Warp, S) + Send,
    {
        let san = self.core.sanitizer.as_deref();
        let report = run_launch_warps(&self.core.config, san, threads, &body, epilogue);
        self.charge_launch(&report);
        report
    }

    /// Upload a tile list *online* (charged as a host→device transfer) and
    /// wrap it in a [`WorkQueue`] for [`Device::launch_persistent_ordered`].
    pub fn work_queue(
        self: &Arc<Self>,
        mut tiles: Vec<Tile>,
    ) -> Result<WorkQueue, OutOfDeviceMemory> {
        if let Some(san) = &self.core.sanitizer {
            crate::workqueue::validate_tiles(san, &mut tiles);
        }
        Ok(WorkQueue { tiles: self.upload(tiles)? })
    }

    /// Launch a persistent warp-per-tile kernel: a fixed grid of
    /// [`crate::DeviceConfig::persistent_warps`] warps (capped by the tile
    /// count) loops pulling tiles from `queue` until it drains, running
    /// `body` once per (warp, tile). Each grab costs one global atomic plus
    /// a converged tile-descriptor read; ledger accounting matches
    /// [`Device::launch_warps_ordered`].
    ///
    /// The per-tile `epilogue` runs in queue order, as there. Each host
    /// worker of the launch keeps one `U::default()` scratch for the kernel:
    /// `body` gets the scratch of the worker running the tile, and the
    /// tile's `epilogue` the same one. A worker's tiles can so stage into
    /// one [`crate::WarpStash`], each epilogue committing the oldest records
    /// ([`crate::WarpStash::commit_oldest`]): its worker's epilogues run in
    /// the order its bodies did.
    pub fn launch_persistent_ordered<U, S, B, E>(
        &self,
        queue: &WorkQueue,
        body: B,
        epilogue: E,
    ) -> LaunchReport
    where
        U: Default,
        B: Fn(&mut Warp, &mut U, Tile) -> S + Sync,
        E: FnMut(&mut Warp, &mut U, S) + Send,
    {
        let san = self.core.sanitizer.as_deref();
        let report = run_launch_persistent(&self.core.config, san, queue, &body, epilogue);
        self.charge_launch(&report);
        report
    }

    fn charge_launch(&self, report: &LaunchReport) {
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        ledger.add(Phase::KernelLaunch, report.launch_overhead_seconds);
        ledger.add(Phase::KernelExec, report.sim_exec_seconds);
        ledger.kernel_invocations += 1;
    }

    /// Charge a device→host transfer of `bytes` (draining result buffers,
    /// reading back redo queues).
    pub fn charge_download(&self, bytes: usize) {
        {
            let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
            ledger.add(Phase::DeviceToHost, self.core.config.d2h_seconds(bytes));
            ledger.d2h_bytes += bytes as u64;
        }
        if let Some(san) = &self.core.sanitizer {
            san.note_d2h_charged(bytes as u64);
        }
    }

    /// Charge a host step of the search (sorting, planning, duplicate
    /// filtering) at its counted price, so the total response time includes
    /// it.
    pub fn charge_host(&self, work: HostWork) {
        let seconds = work.seconds();
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner).add(Phase::HostCompute, seconds);
    }

    /// Snapshot of this handle's response-time ledger.
    pub fn ledger(&self) -> ResponseTime {
        *self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        if self.gated {
            *self.core.searching.lock().unwrap_or_else(PoisonError::into_inner) = false;
            self.core.search_done.notify_one();
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", &self.core.config.name)
            .field("mem_used", &self.mem_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    /// A one-instruction-per-lane kernel over 8 threads, with no epilogue.
    fn launch_one_instr(dev: &Device) -> LaunchReport {
        dev.launch_warps_ordered(8, |warp| warp.for_each_lane(|lane| lane.instr(1)), |_, ()| {})
    }

    #[test]
    fn rejects_invalid_config() {
        let mut c = DeviceConfig::test_tiny();
        c.warp_size = 0;
        assert!(Device::new(c).is_err());
        // Cost parameters that would make a launch report wrong simulated
        // time: zero, NaN or infinite divisors, negative or NaN costs.
        let hostile: [fn(&mut DeviceConfig); 9] = [
            |c| c.gmem_transaction_bytes = 0.0,
            |c| c.cycles_per_atomic = f64::NAN,
            |c| c.clock_hz = f64::INFINITY,
            |c| c.cycles_per_instr = -1.0,
            |c| c.kernel_launch_overhead = -1.0,
            |c| c.transfer_latency = f64::NAN,
            |c| c.cycles_per_gmem_transaction = f64::INFINITY,
            |c| c.uncoalesced_factor = -0.5,
            |c| c.d2h_bandwidth = f64::INFINITY,
        ];
        for (i, spoil) in hostile.iter().enumerate() {
            let mut c = DeviceConfig::test_tiny();
            spoil(&mut c);
            assert!(Device::new(c).is_err(), "hostile config {i} accepted");
        }
    }

    #[test]
    fn offline_alloc_not_charged() {
        let dev = tiny();
        let _d = dev.alloc_from_host(vec![0u8; 1000]).unwrap();
        assert_eq!(dev.ledger().total(), 0.0);
    }

    #[test]
    fn upload_charges_h2d() {
        let dev = tiny();
        let _q = dev.upload(vec![0u8; 1000]).unwrap();
        let t = dev.ledger().get(Phase::HostToDevice);
        // latency 1e-3 + 1000/1e6 = 2e-3
        assert!((t - 2e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn download_and_host_charges() {
        let dev = tiny();
        dev.charge_download(500_000);
        dev.charge_host(HostWork::Tiles(1000));
        let l = dev.ledger();
        assert!((l.get(Phase::DeviceToHost) - 0.501).abs() < 1e-9);
        assert_eq!(l.get(Phase::HostCompute), HostWork::Tiles(1000).seconds());
    }

    #[test]
    fn search_handles_charge_disjoint_ledgers_on_one_device() {
        let mut config = DeviceConfig::test_tiny();
        config.sanitizer = SanitizerMode::Off;
        let dev = Device::new(config).unwrap();
        let (a, b) = (dev.for_search(), dev.for_search());
        a.charge_download(500_000);
        b.charge_host(HostWork::Tiles(1000));
        let _buf = a.upload(vec![0u8; 1000]).unwrap();
        assert!((a.ledger().get(Phase::DeviceToHost) - 0.501).abs() < 1e-9);
        assert_eq!(a.ledger().get(Phase::HostCompute), 0.0);
        assert_eq!(b.ledger().total(), HostWork::Tiles(1000).seconds());
        assert_eq!(dev.ledger().total(), 0.0);
        // Memory accounting is the device's, whichever handle allocated.
        assert_eq!((dev.mem_used(), a.mem_used(), b.mem_used()), (1000, 1000, 1000));
    }

    #[test]
    fn sanitized_device_admits_one_search_at_a_time_and_shares_its_report() {
        let mut config = DeviceConfig::test_tiny();
        config.sanitizer = SanitizerMode::Full;
        let dev = Device::new(config).unwrap();
        let first = dev.for_search();
        launch_one_instr(&first);
        let (entered, entered_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let second = dev.for_search();
                entered.send(()).unwrap();
                launch_one_instr(&second);
            });
            // The second search cannot enter while the first handle lives.
            assert!(entered_rx.recv_timeout(std::time::Duration::from_millis(50)).is_err());
            drop(first);
            entered_rx.recv().unwrap();
        });
        assert_eq!(dev.sanitizer_report().launches, 2);
        dev.assert_sanitizer_clean();
    }

    #[test]
    fn launch_counts_invocations() {
        let dev = tiny();
        launch_one_instr(&dev);
        launch_one_instr(&dev);
        let l = dev.ledger();
        assert_eq!(l.kernel_invocations, 2);
        assert!(l.get(Phase::KernelLaunch) > 0.0);
        assert!(l.get(Phase::KernelExec) > 0.0);
    }

    #[test]
    fn memory_accounting_is_exact() {
        let dev = tiny();
        let a = dev.alloc_from_host(vec![0u64; 100]).unwrap();
        assert_eq!(dev.mem_used(), 800);
        let b = dev.alloc_result::<u32>(50).unwrap();
        assert_eq!(dev.mem_used(), 1000);
        drop(a);
        assert_eq!(dev.mem_used(), 200);
        drop(b);
        assert_eq!(dev.mem_used(), 0);
        assert_eq!(dev.mem_available(), 1024 * 1024);
    }
}
