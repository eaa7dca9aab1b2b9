//! Response-time accounting.

use std::fmt;

/// Phases of a distance threshold search that contribute to response time.
///
/// The paper's response time excludes index construction and the initial
/// storage of the database `D` on the GPU (§V-B); the engine therefore only
/// records phases that occur between receiving the query set and returning
/// the final result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Host-side computation (query sorting, schedule construction, dedup).
    HostCompute,
    /// Host→device transfers of the query set, schedules, redo lists.
    HostToDevice,
    /// Fixed driver overhead per kernel invocation.
    KernelLaunch,
    /// Simulated kernel execution time.
    KernelExec,
    /// Device→host transfers of result sets and redo queues.
    DeviceToHost,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::HostCompute,
        Phase::HostToDevice,
        Phase::KernelLaunch,
        Phase::KernelExec,
        Phase::DeviceToHost,
    ];

    fn index(self) -> usize {
        match self {
            Phase::HostCompute => 0,
            Phase::HostToDevice => 1,
            Phase::KernelLaunch => 2,
            Phase::KernelExec => 3,
            Phase::DeviceToHost => 4,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::HostCompute => "host-compute",
            Phase::HostToDevice => "h2d",
            Phase::KernelLaunch => "kernel-launch",
            Phase::KernelExec => "kernel-exec",
            Phase::DeviceToHost => "d2h",
        };
        f.write_str(s)
    }
}

/// Accumulated simulated response time, broken down by [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResponseTime {
    seconds: [f64; 5],
    /// Number of kernel invocations recorded (the paper reports re-invocation
    /// counts for `GPUSpatial` and incremental processing).
    pub kernel_invocations: u32,
    /// Bytes moved host→device (query sets, schedules, redo lists). The
    /// sanitizer's transfer-mismatch check compares these against drained
    /// shadow bytes, and EXPERIMENTS.md reports them alongside times.
    pub h2d_bytes: u64,
    /// Bytes moved device→host (result sets, redo queues).
    pub d2h_bytes: u64,
}

impl ResponseTime {
    /// Zeroed ledger.
    pub fn new() -> Self {
        ResponseTime::default()
    }

    /// Add `secs` to `phase`.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        debug_assert!(secs >= 0.0, "negative duration {secs} for {phase}");
        self.seconds[phase.index()] += secs;
    }

    /// Seconds recorded for `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Total simulated response time.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Component-wise sum of two ledgers.
    pub fn merge(&mut self, other: &ResponseTime) {
        for (a, b) in self.seconds.iter_mut().zip(other.seconds.iter()) {
            *a += b;
        }
        self.kernel_invocations += other.kernel_invocations;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
    }

    /// Fold in the ledger of a search that ran *concurrently* on another
    /// device (one shard of a partitioned store). Transfer bytes and
    /// invocation counts sum — every device really moved those bytes and
    /// launched those kernels — but elapsed simulated time is bounded by
    /// the slowest device (the merge point waits for the last shard), so
    /// the phase breakdown adopts the slower ledger's phases rather than
    /// summing them. "Slower" is judged on the [`simulated`] phases alone —
    /// measured `HostCompute` wall time must not decide which device's
    /// simulated seconds a merged report carries — and a tie keeps `self`.
    ///
    /// [`simulated`]: ResponseTime::simulated
    pub fn merge_concurrent(&mut self, other: &ResponseTime) {
        if other.simulated().total() > self.simulated().total() {
            self.seconds = other.seconds;
        }
        self.kernel_invocations += other.kernel_invocations;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
    }

    /// The simulated phases alone: `HostCompute`, the one phase measured
    /// with a wall clock, is cleared.
    pub fn simulated(&self) -> ResponseTime {
        let mut out = *self;
        out.seconds[Phase::HostCompute.index()] = 0.0;
        out
    }

    /// Total minus kernel-launch overhead — the paper's "optimistic" curve
    /// for `GPUSpatial` in Fig. 4 discounts re-invocation overhead.
    pub fn total_discounting_launches(&self) -> f64 {
        self.total() - self.get(Phase::KernelLaunch)
    }
}

impl fmt::Display for ResponseTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total {:.6}s (", self.total())?;
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p} {:.6}s", self.get(*p))?;
        }
        write!(f, ", {} kernel invocations)", self.kernel_invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_total() {
        let mut r = ResponseTime::new();
        r.add(Phase::HostCompute, 0.5);
        r.add(Phase::KernelExec, 1.0);
        r.add(Phase::KernelExec, 0.25);
        assert_eq!(r.get(Phase::KernelExec), 1.25);
        assert_eq!(r.get(Phase::HostCompute), 0.5);
        assert_eq!(r.get(Phase::DeviceToHost), 0.0);
        assert!((r.total() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ResponseTime::new();
        a.add(Phase::HostToDevice, 1.0);
        a.kernel_invocations = 2;
        let mut b = ResponseTime::new();
        b.add(Phase::HostToDevice, 2.0);
        b.add(Phase::DeviceToHost, 3.0);
        b.kernel_invocations = 1;
        a.merge(&b);
        assert_eq!(a.get(Phase::HostToDevice), 3.0);
        assert_eq!(a.get(Phase::DeviceToHost), 3.0);
        assert_eq!(a.kernel_invocations, 3);
    }

    #[test]
    fn merge_concurrent_takes_slower_device_but_sums_traffic() {
        let mut fast = ResponseTime::new();
        fast.add(Phase::KernelExec, 1.0);
        fast.add(Phase::HostToDevice, 0.1);
        fast.kernel_invocations = 2;
        fast.h2d_bytes = 100;
        let mut slow = ResponseTime::new();
        slow.add(Phase::KernelExec, 3.0);
        slow.kernel_invocations = 1;
        slow.h2d_bytes = 50;
        slow.d2h_bytes = 7;

        let mut a = fast;
        a.merge_concurrent(&slow);
        // Phases come from the slower device wholesale...
        assert_eq!(a.get(Phase::KernelExec), 3.0);
        assert_eq!(a.get(Phase::HostToDevice), 0.0);
        assert_eq!(a.total(), slow.total());
        // ...while traffic and launch counts aggregate across devices.
        assert_eq!(a.kernel_invocations, 3);
        assert_eq!(a.h2d_bytes, 150);
        assert_eq!(a.d2h_bytes, 7);

        // Merging the faster ledger into the slower leaves phases alone.
        let mut b = slow;
        b.merge_concurrent(&fast);
        assert_eq!(b.get(Phase::KernelExec), 3.0);
        assert_eq!(b.total(), a.total());
        assert_eq!(b.kernel_invocations, 3);
    }

    #[test]
    fn merge_concurrent_ignores_measured_host_time() {
        // More host wall time does not make a device slower: the simulated
        // phases decide, and a tie keeps the ledger merged into.
        let mut simulated_slow = ResponseTime::new();
        simulated_slow.add(Phase::KernelExec, 2.0);
        let mut host_heavy = ResponseTime::new();
        host_heavy.add(Phase::KernelExec, 1.0);
        host_heavy.add(Phase::HostCompute, 5.0);
        let mut a = simulated_slow;
        a.merge_concurrent(&host_heavy);
        assert_eq!(a.simulated(), simulated_slow.simulated());

        let mut tie = ResponseTime::new();
        tie.add(Phase::HostToDevice, 2.0);
        tie.add(Phase::HostCompute, 1.0);
        let mut b = simulated_slow;
        b.merge_concurrent(&tie);
        assert_eq!(b.get(Phase::KernelExec), 2.0, "a tie goes to the earlier member");
    }

    #[test]
    fn optimistic_discounts_launch_overhead() {
        let mut r = ResponseTime::new();
        r.add(Phase::KernelLaunch, 0.4);
        r.add(Phase::KernelExec, 1.0);
        assert!((r.total_discounting_launches() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_readable() {
        let mut r = ResponseTime::new();
        r.add(Phase::KernelExec, 0.125);
        let s = r.to_string();
        assert!(s.contains("kernel-exec 0.125"));
    }
}
