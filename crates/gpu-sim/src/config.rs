//! Device configuration and the cost-model parameters.

use crate::sanitizer::SanitizerMode;

/// How kernels map queries onto the launch grid.
///
/// The paper assigns one thread per query (§IV-B/C): each thread scans its
/// query's whole scheduled candidate range, so a warp costs as much as its
/// heaviest lane and 31 lanes idle behind it when range lengths are skewed.
/// `WarpPerTile` is the standard manycore fix: the host splits every
/// candidate range into tiles of at most [`DeviceConfig::tile_size`]
/// entries, a persistent grid of warps pulls tiles from a device-side
/// [`crate::WorkQueue`] (one atomic per grab), and the warp's lanes stride
/// one tile's entries together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelShape {
    /// One thread per query, static grid (the paper's mapping).
    #[default]
    ThreadPerQuery,
    /// Persistent warps pulling (query, candidate-subrange) tiles from a
    /// global work queue; lanes cooperate on one tile at a time.
    WarpPerTile,
}

/// Parameters of the simulated device.
///
/// The defaults ([`DeviceConfig::tesla_c2075`]) approximate the NVIDIA Tesla
/// C2075 used in the paper: 14 streaming multiprocessors × 32 cores =
/// 448 CUDA cores at 1.15 GHz, 6 GiB of global memory, on a PCI Express 2.0
/// x16 bus (~6 GB/s effective). Cost-model parameters (cycles per
/// instruction/transaction/atomic, occupancy) are first-order estimates; the
/// paper's comparative results depend on *relative* costs, which these
/// preserve.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name (appears in reports).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Lanes per warp (CUDA fixes this at 32).
    pub warp_size: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Global memory capacity in bytes; allocations beyond it fail.
    pub global_mem_bytes: usize,
    /// Host→device bandwidth in bytes/second.
    pub h2d_bandwidth: f64,
    /// Device→host bandwidth in bytes/second.
    pub d2h_bandwidth: f64,
    /// Fixed per-transfer latency in seconds (DMA setup + driver).
    pub transfer_latency: f64,
    /// Fixed per-launch overhead in seconds (driver + scheduling).
    pub kernel_launch_overhead: f64,
    /// Cycles per scalar ALU instruction.
    pub cycles_per_instr: f64,
    /// Cycles per 128-byte global-memory transaction.
    pub cycles_per_gmem_transaction: f64,
    /// Bytes served by one coalesced global-memory transaction.
    pub gmem_transaction_bytes: f64,
    /// Multiplier on memory transactions when a warp's lanes take different
    /// control paths (uncoalesced access pattern).
    pub uncoalesced_factor: f64,
    /// Cycles per global atomic operation (includes typical contention).
    pub cycles_per_atomic: f64,
    /// Latency-hiding factor: how many warps an SM overlaps effectively.
    /// SM time = (sum of its warp costs) / occupancy_factor.
    pub occupancy_factor: f64,
    /// Per-lane stash capacity of the warp-aggregated result writes (see
    /// [`crate::WarpStash`]): a lane staging
    /// more than this many records in one kernel invocation costs extra
    /// warp flushes (`ceil(n / capacity)` per lane, max over lanes).
    pub warp_stash_capacity: usize,
    /// Default query-to-thread mapping of the search kernels on this device
    /// (see [`KernelShape`]); a search may name the other shape per call.
    pub kernel_shape: KernelShape,
    /// Maximum candidate entries per work-queue tile in
    /// [`KernelShape::WarpPerTile`]; ignored by `ThreadPerQuery`.
    pub tile_size: usize,
    /// Shadow-state sanitizer passes (see [`SanitizerMode`]). `Off` by
    /// default: the device then allocates no shadow state and kernel-visible
    /// behaviour and counters are bit-identical to a sanitizer-free build.
    pub sanitizer: SanitizerMode,
}

impl DeviceConfig {
    /// Configuration approximating the paper's NVIDIA Tesla C2075.
    pub fn tesla_c2075() -> Self {
        DeviceConfig {
            name: "Tesla C2075 (simulated)".to_string(),
            num_sms: 14,
            warp_size: 32,
            clock_hz: 1.15e9,
            global_mem_bytes: 6 * 1024 * 1024 * 1024,
            // PCIe 2.0 x16: 8 GB/s theoretical, ~6 GB/s effective.
            h2d_bandwidth: 6.0e9,
            d2h_bandwidth: 6.0e9,
            transfer_latency: 15e-6,
            kernel_launch_overhead: 10e-6,
            cycles_per_instr: 1.0,
            // Fermi global-memory latency is 400–800 cycles and the random
            // per-lane segment reads of these kernels coalesce poorly, so a
            // transaction costs far more than its pipelined minimum. 320
            // cycles/transaction with an effective 2-warp overlap calibrates
            // the model to the paper's observed ~1.7e8 segment comparisons
            // per second on this card (Fig. 4–6 response times).
            cycles_per_gmem_transaction: 320.0,
            gmem_transaction_bytes: 128.0,
            uncoalesced_factor: 4.0,
            cycles_per_atomic: 120.0,
            occupancy_factor: 2.0,
            warp_stash_capacity: 16,
            kernel_shape: KernelShape::default(),
            tile_size: 128,
            sanitizer: SanitizerMode::default(),
        }
    }

    /// A configuration sketching a modern data-centre GPU (A100-class):
    /// more SMs, faster clock and memory, PCIe 4.0, much larger global
    /// memory. Used to evaluate the paper's closing claim that "future
    /// trends for GPU technology (faster host–GPU bandwidth, increased
    /// memory, etc.) will be a further advantage" (§VI).
    pub fn modern_gpu() -> Self {
        DeviceConfig {
            name: "modern GPU (simulated, A100-class)".to_string(),
            num_sms: 108,
            warp_size: 32,
            clock_hz: 1.41e9,
            global_mem_bytes: 40 * 1024 * 1024 * 1024,
            // PCIe 4.0 x16: ~25 GB/s effective.
            h2d_bandwidth: 25.0e9,
            d2h_bandwidth: 25.0e9,
            transfer_latency: 8e-6,
            kernel_launch_overhead: 5e-6,
            cycles_per_instr: 1.0,
            // HBM2 latency is similar in cycles but far better hidden:
            // higher occupancy and many more concurrent transactions.
            cycles_per_gmem_transaction: 160.0,
            gmem_transaction_bytes: 128.0,
            uncoalesced_factor: 3.0,
            cycles_per_atomic: 60.0,
            occupancy_factor: 4.0,
            warp_stash_capacity: 16,
            kernel_shape: KernelShape::default(),
            tile_size: 128,
            sanitizer: SanitizerMode::default(),
        }
    }

    /// A tiny device for unit tests: 2 SMs, 4-lane warps, small memory, so
    /// overflow and divergence paths are easy to exercise deterministically.
    pub fn test_tiny() -> Self {
        DeviceConfig {
            name: "test-tiny".to_string(),
            num_sms: 2,
            warp_size: 4,
            clock_hz: 1.0e6,
            global_mem_bytes: 1024 * 1024,
            h2d_bandwidth: 1.0e6,
            d2h_bandwidth: 1.0e6,
            transfer_latency: 1e-3,
            kernel_launch_overhead: 2e-3,
            cycles_per_instr: 1.0,
            cycles_per_gmem_transaction: 10.0,
            gmem_transaction_bytes: 16.0,
            uncoalesced_factor: 2.0,
            cycles_per_atomic: 20.0,
            occupancy_factor: 1.0,
            warp_stash_capacity: 4,
            kernel_shape: KernelShape::default(),
            // Small tiles so tiny fixtures still split into several tiles.
            tile_size: 8,
            sanitizer: SanitizerMode::default(),
        }
    }

    /// Grid size (in warps) of a persistent [`KernelShape::WarpPerTile`]
    /// launch: one resident warp per latency-hiding slot on every SM, so
    /// the device is exactly filled and every warp stays busy pulling tiles
    /// until the queue drains.
    pub fn persistent_warps(&self) -> usize {
        ((self.num_sms as f64 * self.occupancy_factor).ceil() as usize).max(1)
    }

    /// Simulated duration of a host→device transfer of `bytes`.
    pub fn h2d_seconds(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.transfer_latency + bytes as f64 / self.h2d_bandwidth
    }

    /// Simulated duration of a device→host transfer of `bytes`.
    pub fn d2h_seconds(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.transfer_latency + bytes as f64 / self.d2h_bandwidth
    }

    /// Validate parameter sanity; used by constructors of [`crate::Device`].
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.warp_size == 0 {
            return Err("device must have at least one SM and one lane".into());
        }
        if self.warp_size > 64 {
            // Warp-aggregated commits track dropped lanes in a u64 bitmask.
            return Err("warp size must be at most 64 lanes".into());
        }
        if self.warp_stash_capacity == 0 {
            return Err("warp stash capacity must be at least one record".into());
        }
        if self.tile_size == 0 {
            return Err("tile size must be at least one entry".into());
        }
        // A NaN vanishes in a max, an infinity zeroes a quotient, and a
        // negative cost breaks the dispatch replay's bit-pattern order: every
        // cost is finite and non-negative, every divisor also positive.
        for (name, value, divisor) in [
            ("clock_hz", self.clock_hz, true),
            ("h2d_bandwidth", self.h2d_bandwidth, true),
            ("d2h_bandwidth", self.d2h_bandwidth, true),
            ("gmem_transaction_bytes", self.gmem_transaction_bytes, true),
            ("occupancy_factor", self.occupancy_factor, true),
            ("transfer_latency", self.transfer_latency, false),
            ("kernel_launch_overhead", self.kernel_launch_overhead, false),
            ("cycles_per_instr", self.cycles_per_instr, false),
            ("cycles_per_gmem_transaction", self.cycles_per_gmem_transaction, false),
            ("uncoalesced_factor", self.uncoalesced_factor, false),
            ("cycles_per_atomic", self.cycles_per_atomic, false),
        ] {
            if !value.is_finite() || value < 0.0 || (divisor && value <= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative (divisors positive), got {value}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::tesla_c2075()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2075_shape() {
        let c = DeviceConfig::tesla_c2075();
        assert_eq!(c.num_sms * c.warp_size, 448);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn modern_gpu_is_strictly_better() {
        let old = DeviceConfig::tesla_c2075();
        let new = DeviceConfig::modern_gpu();
        assert!(new.validate().is_ok());
        assert!(new.num_sms * new.warp_size > old.num_sms * old.warp_size);
        assert!(new.h2d_bandwidth > old.h2d_bandwidth);
        assert!(new.global_mem_bytes > old.global_mem_bytes);
        assert!(new.kernel_launch_overhead < old.kernel_launch_overhead);
        // Same workload must be simulated faster end to end.
        assert!(new.h2d_seconds(1 << 20) < old.h2d_seconds(1 << 20));
    }

    #[test]
    fn transfer_costs() {
        let c = DeviceConfig::test_tiny();
        assert_eq!(c.h2d_seconds(0), 0.0);
        // latency + 1e6 bytes / 1e6 B/s = 1e-3 + 1.0
        assert!((c.h2d_seconds(1_000_000) - 1.001).abs() < 1e-12);
        assert!((c.d2h_seconds(500_000) - 0.501).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = DeviceConfig::test_tiny();
        c.num_sms = 0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.clock_hz = 0.0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.occupancy_factor = 0.0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.h2d_bandwidth = -1.0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.warp_size = 65;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.warp_stash_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::test_tiny();
        c.tile_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn thread_per_query_is_the_default_shape() {
        for c in
            [DeviceConfig::tesla_c2075(), DeviceConfig::modern_gpu(), DeviceConfig::test_tiny()]
        {
            assert_eq!(c.kernel_shape, KernelShape::ThreadPerQuery);
            assert!(c.tile_size >= 1);
        }
        // One resident warp per latency-hiding slot on every SM.
        assert_eq!(DeviceConfig::tesla_c2075().persistent_warps(), 28);
        assert_eq!(DeviceConfig::test_tiny().persistent_warps(), 2);
        assert_eq!(DeviceConfig::modern_gpu().persistent_warps(), 432);
    }
}
