//! Per-lane cost counters.

/// Cost counters accumulated by one lane (GPU thread) during a kernel, and
/// also the aggregate over warps/launches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Scalar ALU instructions (arithmetic, comparisons, address math).
    pub instructions: u64,
    /// Bytes read from global memory.
    pub gmem_read_bytes: u64,
    /// Bytes written to global memory.
    pub gmem_write_bytes: u64,
    /// Global atomic operations.
    pub atomics: u64,
}

impl Counters {
    /// Component-wise sum.
    pub fn add(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.gmem_read_bytes += other.gmem_read_bytes;
        self.gmem_write_bytes += other.gmem_write_bytes;
        self.atomics += other.atomics;
    }

    /// Component-wise maximum (used for the SIMT max-over-lanes reduction).
    pub fn max(&self, other: &Counters) -> Counters {
        Counters {
            instructions: self.instructions.max(other.instructions),
            gmem_read_bytes: self.gmem_read_bytes.max(other.gmem_read_bytes),
            gmem_write_bytes: self.gmem_write_bytes.max(other.gmem_write_bytes),
            atomics: self.atomics.max(other.atomics),
        }
    }

    /// True if nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

/// The execution context handed to a kernel closure, one per GPU thread.
///
/// A kernel records its costs through this handle; the launch machinery
/// reduces lane counters into warp costs (see [`crate::launch`]). The `path`
/// tag models control-flow divergence: lanes of one warp that end the kernel
/// with different tags are assumed to have taken different branches, and the
/// warp is charged the serialisation penalty.
#[derive(Debug)]
pub struct Lane {
    /// Global thread id (`blockIdx * blockDim + threadIdx` equivalent).
    pub global_id: usize,
    pub(crate) lane_index: usize,
    pub(crate) counters: Counters,
    pub(crate) path: u64,
}

impl Lane {
    /// Create a standalone lane. Kernels receive lanes from the launch
    /// machinery; this constructor exists so device-side helpers can be unit
    /// tested without a launch. The lane index is derived as
    /// `global_id % 64` (the maximum warp width); launched lanes get their
    /// true in-warp index from the launch machinery instead.
    pub fn new(global_id: usize) -> Self {
        Lane::at(global_id, global_id % 64)
    }

    /// Create a lane with an explicit in-warp index (launch machinery).
    pub(crate) fn at(global_id: usize, lane_index: usize) -> Self {
        Lane { global_id, lane_index, counters: Counters::default(), path: 0 }
    }

    /// Index of this lane within its warp (`threadIdx % warpSize`).
    #[inline]
    pub fn lane_index(&self) -> usize {
        self.lane_index
    }

    /// Record `n` scalar ALU instructions.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    /// Record a global-memory read of `bytes`.
    #[inline]
    pub fn gmem_read(&mut self, bytes: u64) {
        self.counters.gmem_read_bytes += bytes;
    }

    /// Record a global-memory write of `bytes`.
    #[inline]
    pub fn gmem_write(&mut self, bytes: u64) {
        self.counters.gmem_write_bytes += bytes;
    }

    /// Record one global atomic operation.
    #[inline]
    pub fn atomic(&mut self) {
        self.counters.atomics += 1;
    }

    /// Tag the control path this lane has taken. Combine tags from nested
    /// branches by calling this repeatedly; the tag sequence is hashed so
    /// `set_path(a); set_path(b)` differs from `set_path(b); set_path(a)`.
    #[inline]
    pub fn set_path(&mut self, tag: u64) {
        // FNV-style mix so successive tags compose into one path id.
        self.path = self.path.wrapping_mul(0x100000001b3).wrapping_add(tag ^ 0xcbf29ce484222325);
    }

    /// Counters recorded so far (for tests and nested helpers).
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Current path tag.
    #[inline]
    pub fn path(&self) -> u64 {
        self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_arithmetic() {
        let mut a =
            Counters { instructions: 1, gmem_read_bytes: 2, gmem_write_bytes: 3, atomics: 4 };
        let b = Counters { instructions: 10, gmem_read_bytes: 1, gmem_write_bytes: 30, atomics: 2 };
        assert_eq!(
            a.max(&b),
            Counters { instructions: 10, gmem_read_bytes: 2, gmem_write_bytes: 30, atomics: 4 }
        );
        a.add(&b);
        assert_eq!(
            a,
            Counters { instructions: 11, gmem_read_bytes: 3, gmem_write_bytes: 33, atomics: 6 }
        );
        assert!(!a.is_zero());
        assert!(Counters::default().is_zero());
    }

    #[test]
    fn lane_records() {
        let mut l = Lane::new(7);
        l.instr(5);
        l.gmem_read(64);
        l.gmem_write(8);
        l.atomic();
        assert_eq!(l.global_id, 7);
        assert_eq!(
            *l.counters(),
            Counters { instructions: 5, gmem_read_bytes: 64, gmem_write_bytes: 8, atomics: 1 }
        );
    }

    #[test]
    fn path_tags_compose_order_sensitively() {
        let mut a = Lane::new(0);
        let mut b = Lane::new(1);
        a.set_path(1);
        a.set_path(2);
        b.set_path(2);
        b.set_path(1);
        assert_ne!(a.path(), b.path());
        let mut c = Lane::new(2);
        c.set_path(1);
        c.set_path(2);
        assert_eq!(a.path(), c.path());
    }
}
