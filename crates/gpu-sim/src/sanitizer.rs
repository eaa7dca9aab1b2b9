//! Shadow-state device sanitizer for the simulated GPU.
//!
//! The simulated device executes kernels as real Rust closures, so the
//! classic GPU failure modes — out-of-bounds accesses, reads of
//! uninitialized memory, records silently lost to result-buffer overflow —
//! either panic the host process or, worse, stay invisible while corrupting
//! counters and results. This module is the software analogue of NVIDIA's
//! `compute-sanitizer`: a shadow-state layer that every memory type in
//! [`crate::memory`] reports into when the device was created with
//! [`SanitizerMode::Full`] ([`crate::DeviceConfig::sanitizer`]).
//!
//! The detectors:
//!
//! * **Per-buffer shadow bookkeeping** — out-of-bounds reads (recorded and
//!   neutralised instead of panicking, so one run can surface many
//!   findings), reads of never-written scratch words, malformed work-queue
//!   tiles (`hi < lo`, which would underflow [`crate::Tile::len`]),
//!   device→host transfer accounting mismatches (bytes charged to the ledger
//!   vs bytes actually drained), and a live-allocation registry that exposes
//!   leaked buffers.
//! * **Lost-record accounting** — a stash commit that drops records
//!   (`lost > 0`) must be acknowledged: either by a later commit of the same
//!   warp storing redo ids into another buffer (the device-side redo
//!   protocol of `tdts-kernels`), or by the host observing the overflow flag
//!   ([`crate::ResultBuffer::overflowed`], host-driven redo).
//!   Unacknowledged losses surface as
//!   [`FindingKind::LostRecords`].
//!
//! There is no write-race detector because there is no racy write to
//! detect: every device write goes through an atomic cursor
//! ([`crate::ResultBuffer`]/[`crate::WarpStash`], work-queue tile grabs),
//! which hands out unique indices by construction, or into a scratch
//! partition one thread owns ([`crate::PartitionedScratch::take_partition`]
//! panics on a second taker). No device type offers a per-lane write at a
//! caller-chosen index.
//!
//! Findings are structured [`Finding`]s (buffer name, word offset, launch
//! id, kernel shape, lanes) collected into a [`SanitizerReport`]; searches
//! surface the per-search count on `SearchReport::sanitizer_findings` and
//! tests hard-fail via [`crate::Device::assert_sanitizer_clean`].
//!
//! When the mode is `Off` the device holds no `Sanitizer` at all: no shadow
//! allocations exist, no access is logged, and the simulated cost counters
//! are byte-identical to a build without this module.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Whether a device runs the sanitizer (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SanitizerMode {
    /// No shadow state, no checks, zero overhead (the default).
    #[default]
    Off,
    /// Every detector.
    Full,
}

impl SanitizerMode {
    /// True when no detector is active.
    #[inline]
    pub fn is_off(self) -> bool {
        self == SanitizerMode::Off
    }

    /// Parse a mode name as used by CLI flags and `TDTS_SANITIZER`.
    pub fn parse(s: &str) -> Option<SanitizerMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(SanitizerMode::Off),
            "full" => Some(SanitizerMode::Full),
            _ => None,
        }
    }

    /// Mode requested through the `TDTS_SANITIZER` environment variable
    /// (`off`/`full`), if set and well-formed. Never consulted implicitly:
    /// callers (tests, CLI) opt in explicitly.
    pub fn from_env() -> Option<SanitizerMode> {
        std::env::var("TDTS_SANITIZER").ok().and_then(|v| SanitizerMode::parse(&v))
    }
}

impl fmt::Display for SanitizerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SanitizerMode::Off => "off",
            SanitizerMode::Full => "full",
        })
    }
}

/// Classification of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// A kernel read past a buffer's length.
    OutOfBoundsRead,
    /// A read of a scratch word that was never written.
    UninitializedRead,
    /// A stash commit dropped records and neither a device-side redo commit
    /// nor a host overflow check acknowledged them.
    LostRecords,
    /// A work-queue tile with `hi < lo`.
    MalformedTile,
    /// Device→host bytes charged to the ledger disagree with bytes actually
    /// drained from device buffers.
    TransferMismatch,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::OutOfBoundsRead => "out-of-bounds-read",
            FindingKind::UninitializedRead => "uninitialized-read",
            FindingKind::LostRecords => "lost-records",
            FindingKind::MalformedTile => "malformed-tile",
            FindingKind::TransferMismatch => "transfer-mismatch",
        })
    }
}

/// One structured sanitizer diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Name of the buffer involved, e.g. `ResultBuffer<u32>#3`.
    pub buffer: String,
    /// Word offset within the buffer (tile position for
    /// [`FindingKind::MalformedTile`], 0 when not applicable).
    pub offset: usize,
    /// 1-based id of the launch during which the access happened (the
    /// number of launches so far, for host-side findings).
    pub launch: u64,
    /// Kernel shape label of that launch (`static-grid`,
    /// `persistent-warp-per-tile`, or `host`).
    pub shape: String,
    /// The accessing lane's global id, or the warp index for
    /// [`FindingKind::LostRecords`]; empty for host-side findings.
    pub lanes: Vec<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} offset {} (launch {}, shape {}, lanes {:?}): {}",
            self.kind, self.buffer, self.offset, self.launch, self.shape, self.lanes, self.detail
        )
    }
}

/// Snapshot of everything the sanitizer knows, retrievable via
/// [`crate::Device::sanitizer_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerReport {
    /// The mode the device runs under.
    pub mode: SanitizerMode,
    /// Kernel launches observed so far.
    pub launches: u64,
    /// All findings, in deterministic order.
    pub findings: Vec<Finding>,
    /// Names of buffers currently registered (informational: buffers held
    /// alive by an engine are expected here; buffers that outlive every
    /// owner — e.g. via `mem::forget` — are leaks).
    pub live_allocations: Vec<String>,
    /// Device→host bytes charged to the response-time ledger.
    pub d2h_charged_bytes: u64,
    /// Device→host bytes actually drained from device buffers.
    pub d2h_drained_bytes: u64,
}

impl SanitizerReport {
    /// True when no finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer({}): {} finding(s) over {} launch(es), {} live allocation(s)",
            self.mode,
            self.findings.len(),
            self.launches,
            self.live_allocations.len()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// `std::any::type_name` without the module path (generic arguments of the
/// tracked buffer types are plain identifiers, so splitting on `::` is safe).
pub(crate) fn short_type_name<T>() -> &'static str {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full)
}

#[derive(Debug, Clone)]
struct Alloc {
    name: String,
}

#[derive(Debug, Clone, Copy)]
struct CommitEvent {
    warp: usize,
    buffer: u64,
    stored: u64,
    lost: u64,
}

#[derive(Debug)]
struct CurrentLaunch {
    id: u64,
    shape: &'static str,
    /// Stash-commit log, in push order (sequential within each warp).
    commits: Vec<CommitEvent>,
}

/// A commit loss that no redo commit acknowledged inside its launch; cleared
/// when the host checks the buffer's overflow flag, otherwise reported as
/// [`FindingKind::LostRecords`].
#[derive(Debug, Clone)]
struct PendingLoss {
    buffer: u64,
    name: String,
    warp: usize,
    launch: u64,
    shape: &'static str,
    lost: u64,
}

#[derive(Debug, Default)]
struct State {
    next_id: u64,
    allocs: BTreeMap<u64, Alloc>,
    launches: u64,
    current: Option<CurrentLaunch>,
    pending_losses: Vec<PendingLoss>,
    findings: Vec<Finding>,
    /// Findings already consumed by a `checkpoint()` (per-search deltas).
    checkpoint: usize,
    d2h_charged: u64,
    d2h_drained: u64,
    /// The charged-minus-drained byte delta already reported, so a persistent
    /// mismatch produces one finding, not one per checkpoint.
    flagged_transfer_diff: i64,
}

impl State {
    fn buffer_name(&self, id: u64) -> String {
        self.allocs.get(&id).map_or_else(|| format!("buffer#{id}"), |a| a.name.clone())
    }

    fn launch_context(&self) -> (u64, &'static str) {
        self.current.as_ref().map_or((self.launches, "host"), |c| (c.id, c.shape))
    }

    fn transfer_diff(&self) -> i64 {
        self.d2h_charged as i64 - self.d2h_drained as i64
    }

    fn transfer_finding(&self) -> Finding {
        Finding {
            kind: FindingKind::TransferMismatch,
            buffer: "d2h transfers".to_string(),
            offset: 0,
            launch: self.launches,
            shape: "host".to_string(),
            lanes: Vec::new(),
            detail: format!(
                "{} bytes charged to the ledger vs {} bytes drained from device buffers",
                self.d2h_charged, self.d2h_drained
            ),
        }
    }
}

fn loss_finding(p: &PendingLoss) -> Finding {
    Finding {
        kind: FindingKind::LostRecords,
        buffer: p.name.clone(),
        offset: 0,
        launch: p.launch,
        shape: p.shape.to_string(),
        lanes: vec![p.warp],
        detail: format!(
            "commit by warp {} dropped {} record(s) and neither a redo commit nor a host \
             overflow check acknowledged them",
            p.warp, p.lost
        ),
    }
}

/// The shadow-state engine. One per [`crate::Device`] (absent when the mode
/// is [`SanitizerMode::Off`]); all memory types report into it through
/// crate-internal `ShadowRef` handles handed out at registration.
#[derive(Debug)]
pub struct Sanitizer {
    state: Mutex<State>,
}

impl Sanitizer {
    pub(crate) fn new() -> Sanitizer {
        Sanitizer { state: Mutex::new(State::default()) }
    }

    /// The shadow state, poison absorbed: a launch that panicked while
    /// holding it leaves the findings recorded so far readable.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, kind: &'static str, ty: &'static str, _len: usize) -> u64 {
        let mut st = self.state();
        let id = st.next_id;
        st.next_id += 1;
        st.allocs.insert(id, Alloc { name: format!("{kind}<{ty}>#{id}") });
        id
    }

    fn deregister(&self, id: u64) {
        self.state().allocs.remove(&id);
    }

    /// Record a finding of a kernel lane's access to `buffer`.
    fn record(&self, kind: FindingKind, buffer: u64, offset: usize, lane: usize, detail: String) {
        let mut st = self.state();
        let (launch, shape) = st.launch_context();
        let buffer = st.buffer_name(buffer);
        st.findings.push(Finding {
            kind,
            buffer,
            offset,
            launch,
            shape: shape.to_string(),
            lanes: vec![lane],
            detail,
        });
    }

    pub(crate) fn begin_launch(&self, shape: &'static str) {
        let mut st = self.state();
        st.launches += 1;
        let id = st.launches;
        st.current = Some(CurrentLaunch { id, shape, commits: Vec::new() });
    }

    pub(crate) fn end_launch(&self) {
        let mut st = self.state();
        let Some(launch) = st.current.take() else { return };

        // Lost-record accounting: a commit with losses is acknowledged
        // inside the launch by a *later* commit of the same warp that stores
        // records into a different buffer (redo-id staging). Within one warp
        // the commit log is in execution order, so the scan is deterministic
        // even though warps interleave in the log.
        let mut pending = Vec::new();
        for (i, e) in launch.commits.iter().enumerate() {
            if e.lost == 0 {
                continue;
            }
            let acked = launch.commits[i + 1..]
                .iter()
                .any(|f| f.warp == e.warp && f.buffer != e.buffer && f.stored > 0);
            if !acked {
                pending.push(PendingLoss {
                    buffer: e.buffer,
                    name: st.buffer_name(e.buffer),
                    warp: e.warp,
                    launch: launch.id,
                    shape: launch.shape,
                    lost: e.lost,
                });
            }
        }
        pending.sort_by_key(|a| (a.warp, a.buffer));
        st.pending_losses.extend(pending);
    }

    pub(crate) fn note_d2h_charged(&self, bytes: u64) {
        self.state().d2h_charged += bytes;
    }

    pub(crate) fn note_malformed_tile(&self, pos: usize, query: u32, lo: u32, hi: u32) {
        let mut st = self.state();
        let launches = st.launches;
        st.findings.push(Finding {
            kind: FindingKind::MalformedTile,
            buffer: "work-queue tiles".to_string(),
            offset: pos,
            launch: launches,
            shape: "host".to_string(),
            lanes: Vec::new(),
            detail: format!("tile {pos} for query {query} has hi {hi} < lo {lo}"),
        });
    }

    /// Materialize pending losses and transfer mismatches, then return the
    /// number of findings recorded since the previous checkpoint. Called at
    /// the end of every search; `SearchReport::sanitizer_findings` carries
    /// the delta so merged reports sum correctly.
    pub(crate) fn checkpoint(&self) -> u64 {
        let mut st = self.state();
        let pending = std::mem::take(&mut st.pending_losses);
        for p in &pending {
            st.findings.push(loss_finding(p));
        }
        let diff = st.transfer_diff();
        if diff != 0 && diff != st.flagged_transfer_diff {
            let f = st.transfer_finding();
            st.findings.push(f);
            st.flagged_transfer_diff = diff;
        }
        let delta = st.findings.len() - st.checkpoint;
        st.checkpoint = st.findings.len();
        delta as u64
    }

    /// Snapshot everything known so far. Non-destructive: pending losses and
    /// an unflagged transfer mismatch are synthesized into the returned
    /// report without being consumed.
    pub fn report(&self) -> SanitizerReport {
        let st = self.state();
        let mut findings = st.findings.clone();
        findings.extend(st.pending_losses.iter().map(loss_finding));
        let diff = st.transfer_diff();
        if diff != 0 && diff != st.flagged_transfer_diff {
            findings.push(st.transfer_finding());
        }
        SanitizerReport {
            mode: SanitizerMode::Full,
            launches: st.launches,
            findings,
            live_allocations: st.allocs.values().map(|a| a.name.clone()).collect(),
            d2h_charged_bytes: st.d2h_charged,
            d2h_drained_bytes: st.d2h_drained,
        }
    }
}

/// Per-buffer handle into the device's [`Sanitizer`], held by each
/// [`crate::memory`] reservation of a sanitized device. Buffers never
/// consult it on their in-bounds hot paths at all.
#[derive(Debug, Clone)]
pub(crate) struct ShadowRef {
    san: Arc<Sanitizer>,
    id: u64,
}

impl ShadowRef {
    pub(crate) fn new(
        san: &Arc<Sanitizer>,
        kind: &'static str,
        ty: &'static str,
        len: usize,
    ) -> ShadowRef {
        ShadowRef { san: Arc::clone(san), id: san.register(kind, ty, len) }
    }

    pub(crate) fn release(&self) {
        self.san.deregister(self.id);
    }

    /// Record an out-of-bounds read by kernel lane `lane` (global id).
    pub(crate) fn oob_read(&self, offset: usize, lane: usize, len: usize) {
        self.san.record(
            FindingKind::OutOfBoundsRead,
            self.id,
            offset,
            lane,
            format!("read at {offset} beyond length {len}"),
        );
    }

    /// Record a read of a never-written word by kernel lane `lane`.
    pub(crate) fn uninit_read(&self, offset: usize, lane: usize, initialized: usize) {
        self.san.record(
            FindingKind::UninitializedRead,
            self.id,
            offset,
            lane,
            format!("read at {offset} but only {initialized} word(s) were written"),
        );
    }

    /// Log a stash commit's stored/lost counts for the current launch
    /// (lost-record accounting).
    pub(crate) fn log_commit(&self, warp: usize, stored: u64, lost: u64) {
        if stored == 0 && lost == 0 {
            return;
        }
        let mut st = self.san.state();
        if let Some(cur) = st.current.as_mut() {
            cur.commits.push(CommitEvent { warp, buffer: self.id, stored, lost });
        }
    }

    /// The host checked this buffer's overflow flag: pending losses on it
    /// are acknowledged (host-driven redo).
    pub(crate) fn ack_losses(&self) {
        self.san.state().pending_losses.retain(|p| p.buffer != self.id);
    }

    /// Record bytes drained to the host (transfer accounting).
    pub(crate) fn note_drained(&self, bytes: u64) {
        self.san.state().d2h_drained += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_and_display() {
        assert!(SanitizerMode::Off.is_off() && !SanitizerMode::Full.is_off());
        assert_eq!(SanitizerMode::parse(" Full "), Some(SanitizerMode::Full));
        assert_eq!(SanitizerMode::parse("off"), Some(SanitizerMode::Off));
        assert_eq!(SanitizerMode::parse("memcheck"), None, "one switch: off or full");
        assert_eq!(SanitizerMode::parse("bogus"), None);
        assert_eq!(SanitizerMode::Full.to_string(), "full");
    }

    #[test]
    fn registry_tracks_live_allocations() {
        let san = Arc::new(Sanitizer::new());
        let a = ShadowRef::new(&san, "DeviceBuffer", "u32", 8);
        let b = ShadowRef::new(&san, "ResultBuffer", "u64", 4);
        let report = san.report();
        assert_eq!(report.live_allocations, vec!["DeviceBuffer<u32>#0", "ResultBuffer<u64>#1"]);
        a.release();
        assert_eq!(san.report().live_allocations, vec!["ResultBuffer<u64>#1"]);
        b.release();
        assert!(san.report().live_allocations.is_empty());
        assert!(san.report().is_clean());
    }

    #[test]
    fn lost_records_require_acknowledgement() {
        let san = Arc::new(Sanitizer::new());
        let results = ShadowRef::new(&san, "ResultBuffer", "u32", 4);
        let redo = ShadowRef::new(&san, "ResultBuffer", "u32", 4);

        // Launch 1: warp 0's loss is acknowledged by its redo commit; warp
        // 1's is not.
        san.begin_launch("static-grid");
        results.log_commit(0, 2, 3);
        redo.log_commit(0, 1, 0);
        results.log_commit(1, 1, 2);
        san.end_launch();
        let report = san.report();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::LostRecords);
        assert_eq!(report.findings[0].lanes, vec![1]);

        // The host checking the overflow flag acknowledges the remainder.
        results.ack_losses();
        assert!(san.report().is_clean());
    }

    #[test]
    fn checkpoint_returns_per_search_deltas() {
        let san = Arc::new(Sanitizer::new());
        let buf = ShadowRef::new(&san, "ResultBuffer", "u32", 8);
        assert_eq!(san.checkpoint(), 0);
        san.begin_launch("static-grid");
        buf.oob_read(9, 1, 8);
        san.end_launch();
        let report = san.report();
        assert_eq!((report.findings[0].launch, report.findings[0].lanes.clone()), (1, vec![1]));
        assert_eq!(report.findings[0].shape, "static-grid");
        assert_eq!(san.checkpoint(), 1);
        assert_eq!(san.checkpoint(), 0, "no new findings since the last checkpoint");
        // Unacknowledged losses materialize at the checkpoint.
        san.begin_launch("static-grid");
        buf.log_commit(0, 0, 4);
        san.end_launch();
        assert_eq!(san.checkpoint(), 1);
        assert_eq!(san.report().findings.len(), 2);
    }

    #[test]
    fn transfer_mismatch_is_flagged_once_per_delta() {
        let san = Arc::new(Sanitizer::new());
        let buf = ShadowRef::new(&san, "ResultBuffer", "u32", 8);
        san.note_d2h_charged(32);
        buf.note_drained(32);
        assert_eq!(san.checkpoint(), 0, "balanced transfers are clean");
        san.note_d2h_charged(16);
        assert_eq!(san.checkpoint(), 1);
        assert_eq!(san.checkpoint(), 0, "a stale mismatch is not re-reported");
        let report = san.report();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::TransferMismatch);
        assert_eq!(report.d2h_charged_bytes, 48);
        assert_eq!(report.d2h_drained_bytes, 32);
    }

    #[test]
    fn short_type_names() {
        assert_eq!(short_type_name::<u32>(), "u32");
        assert_eq!(short_type_name::<SanitizerMode>(), "SanitizerMode");
    }
}
