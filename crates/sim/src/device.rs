//! Device layer: DRAM write buffer + FTL + flash timeline behind a narrow
//! timing API.
//!
//! The [`Device`] owns every stateful component below the host interface
//! and exposes a handful of operations that return structured
//! [`Completion`]s instead of bare `u64` finish times. It performs **no
//! metrics accounting, sampling or telemetry** — that is the engine's job
//! ([`crate::engine::Engine`]) — and it knows nothing about submit modes or
//! request identity. Keeping the seam this narrow is what lets the host
//! layer reschedule *when* results become visible (queued mode) without
//! touching *how* the device services them: the flash traffic a workload
//! generates is identical under every [`crate::host::SubmitMode`].

use crate::buffer::PolicyBuffer;
use crate::config::SimConfig;
use reqblock_cache::{Access, EvictionBatch, Placement as CachePlacement, WriteBuffer};
use reqblock_flash::{BusyStats, FaultStats, FlashTimeline, IntervalLog, OpCounters};
use reqblock_ftl::{Ftl, FtlObs, FtlStats, Health, Placement as FtlPlacement};
use reqblock_trace::Lpn;

/// Structured completion of one device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the device is done with the operation, ns (never before the
    /// issue time).
    pub ready_ns: u64,
    /// How far past the issue time the operation ran (`ready_ns - at`).
    /// This is the stall a host that waits synchronously would observe.
    pub stall_ns: u64,
    /// Pages actually programmed to flash by this operation — 0 for clean
    /// drops, reads, and batches a degraded (read-only) device rejected.
    pub flushes: u64,
}

impl Completion {
    /// An operation that completed instantly at `at` with no flash traffic.
    fn immediate(at: u64) -> Self {
        Completion { ready_ns: at, stall_ns: 0, flushes: 0 }
    }
}

/// The simulated device below the host interface: cache policy state, FTL
/// and flash timeline. Built from a [`SimConfig`]; driven by the engine.
pub struct Device {
    cache: PolicyBuffer,
    ftl: Ftl,
    timeline: FlashTimeline,
    dram_access_ns: u64,
}

impl Device {
    /// Build a fresh device per `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        cfg.ssd.validate().expect("invalid SSD config");
        assert!(cfg.cache_pages > 0, "cache must hold at least one page");
        Self {
            cache: cfg.policy.build_buffer(cfg.cache_pages, cfg.ssd.pages_per_block),
            ftl: Ftl::with_faults(&cfg.ssd, cfg.fault.clone()),
            timeline: FlashTimeline::new(&cfg.ssd),
            dram_access_ns: cfg.ssd.dram_access_ns,
        }
    }

    /// Reset to the fresh-device state for `cfg`, reusing the large FTL
    /// and timeline allocations when the geometry allows
    /// ([`Ftl::try_reset`]) and rebuilding them otherwise.
    /// Observationally identical to `Device::new(cfg)` — the pooled fleet
    /// engine recycles devices through this path, and `tests/fleet.rs`
    /// pins the equivalence.
    pub fn reset(&mut self, cfg: &SimConfig) {
        cfg.ssd.validate().expect("invalid SSD config");
        assert!(cfg.cache_pages > 0, "cache must hold at least one page");
        self.cache = cfg.policy.build_buffer(cfg.cache_pages, cfg.ssd.pages_per_block);
        if !self.ftl.try_reset(&cfg.ssd, cfg.fault.clone()) {
            self.ftl = Ftl::with_faults(&cfg.ssd, cfg.fault.clone());
        }
        self.timeline.reset(&cfg.ssd);
        self.dram_access_ns = cfg.ssd.dram_access_ns;
    }

    /// Cost of one DRAM (buffer) access, ns.
    pub fn dram_access_ns(&self) -> u64 {
        self.dram_access_ns
    }

    /// Record a page write in the buffer. Returns whether it hit; any
    /// eviction batches the policy decided on are appended to `evictions`
    /// for the caller to [`Device::flush`].
    #[inline]
    pub fn buffer_write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        self.cache.write(a, evictions)
    }

    /// Record a page read in the buffer. Returns whether it hit. A miss
    /// must be followed by a [`Device::flash_read`] to obtain its timing.
    ///
    /// Reads never insert, so this never appends to `evictions`. The
    /// parameter stays so the signature matches [`Device::buffer_write`]
    /// for the repository benchmark, which compiles against it.
    #[inline]
    pub fn buffer_read(&mut self, a: &Access, _evictions: &mut Vec<EvictionBatch>) -> bool {
        self.cache.read(a)
    }

    /// Hint that `lpn` may shortly need a [`Device::flash_read`]: warms the
    /// FTL mapping entry while the caller is still doing buffer work.
    #[inline]
    pub fn prefetch_read(&self, lpn: Lpn) {
        self.ftl.prefetch_lpn(lpn);
    }

    /// Service a read miss of `lpn` from flash at `at`.
    pub fn flash_read(&mut self, lpn: Lpn, at: u64) -> Completion {
        let io = self.ftl.read_page_completion(lpn, at, &mut self.timeline);
        Completion { ready_ns: io.done_ns, stall_ns: io.service_ns, flushes: 0 }
    }

    /// Chip currently backing `lpn` (`None` when unmapped) — the chip a
    /// [`Device::flash_read`] of that LPN is serviced by, for the host's
    /// per-chip outstanding-read ledger.
    #[inline]
    pub fn chip_of_lpn(&self, lpn: Lpn) -> Option<usize> {
        self.ftl.chip_of_lpn(lpn)
    }

    /// Flush one eviction batch at `at`: clean batches are dropped for
    /// free; dirty batches pad-read any missing pages (BPLRU) and then
    /// program every page per the batch's placement.
    pub fn flush(&mut self, batch: &EvictionBatch, at: u64) -> Completion {
        if !batch.dirty {
            return Completion::immediate(at);
        }
        let mut done = at;
        // BPLRU padding: fetch the block's missing pages before programming.
        for &lpn in &batch.pad_reads {
            done = done.max(self.ftl.read_page_completion(lpn, at, &mut self.timeline).done_ns);
        }
        let io =
            self.ftl.write_pages_completion(&batch.lpns, done, placement_of(batch), &mut self.timeline);
        let ready_ns = done.max(io.done_ns);
        Completion { ready_ns, stall_ns: ready_ns.saturating_sub(at), flushes: io.flash_ops }
    }

    /// Program a drained batch's pages at `at`, with no pad reads — the
    /// end-of-trace write-back path.
    pub fn write_back(&mut self, batch: &EvictionBatch, at: u64) -> Completion {
        let io =
            self.ftl.write_pages_completion(&batch.lpns, at, placement_of(batch), &mut self.timeline);
        Completion { ready_ns: io.done_ns, stall_ns: io.service_ns, flushes: io.flash_ops }
    }

    /// Hand a flushed batch back to the policy for reuse.
    #[inline]
    pub fn recycle(&mut self, batch: EvictionBatch) {
        self.cache.recycle(batch)
    }

    /// Remove and return everything still buffered (end-of-trace).
    pub fn drain_buffer(&mut self) -> Vec<EvictionBatch> {
        self.cache.drain()
    }

    /// The latest instant any flash resource stays busy — when the last
    /// scheduled operation completes. See [`FlashTimeline::horizon_ns`].
    pub fn completion_horizon_ns(&self) -> u64 {
        self.timeline.horizon_ns()
    }

    /// The cache policy (occupancy queries and event counters).
    pub fn cache(&self) -> &dyn WriteBuffer {
        self.cache.as_dyn()
    }

    /// Flash operation counters (user/GC programs, reads, erases).
    pub fn flash_counters(&self) -> &OpCounters {
        self.timeline.counters()
    }

    /// Flash busy-time accounting.
    pub fn busy(&self) -> &BusyStats {
        self.timeline.busy()
    }

    /// FTL/GC statistics.
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// FTL observability aggregates (GC busy time, max pause).
    pub fn ftl_obs(&self) -> &FtlObs {
        self.ftl.obs()
    }

    /// Reliability counters (all zero with the default zero-fault config).
    pub fn fault_stats(&self) -> &FaultStats {
        self.ftl.fault_stats()
    }

    /// Current device health (degrades under fault injection).
    pub fn health(&self) -> Health {
        self.ftl.health()
    }

    /// Free flash blocks across all chips.
    pub fn free_blocks_total(&self) -> usize {
        self.ftl.free_blocks_total()
    }

    /// Retired (bad) flash blocks across all chips.
    pub fn bad_blocks_total(&self) -> usize {
        self.ftl.bad_blocks_total()
    }

    /// Whether the device has degraded to read-only.
    pub fn is_read_only(&self) -> bool {
        self.ftl.is_read_only()
    }

    /// Earliest time `chip` can start an array operation (diagnostics).
    pub fn chip_free_at(&self, chip: usize) -> u64 {
        self.timeline.chip_free_at(chip)
    }

    /// Start capturing per-chip / per-channel busy intervals (trace
    /// export). Idempotent; the plain path never pays for this — the
    /// engine enables it lazily on attribution-recorded runs only.
    pub fn enable_busy_intervals(&mut self) {
        self.timeline.enable_interval_capture();
    }

    /// Captured busy intervals, when [`Device::enable_busy_intervals`] was
    /// called.
    pub fn busy_intervals(&self) -> Option<&IntervalLog> {
        self.timeline.intervals()
    }
}

/// Map a batch's cache-level placement to the FTL's.
fn placement_of(batch: &EvictionBatch) -> FtlPlacement {
    match batch.placement {
        CachePlacement::Striped => FtlPlacement::Striped,
        CachePlacement::SingleBlock => FtlPlacement::SingleBlock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, SimConfig};

    fn tiny_device() -> Device {
        Device::new(&SimConfig::tiny(16, PolicyKind::Lru))
    }

    #[test]
    fn clean_batch_flushes_for_free() {
        let mut dev = tiny_device();
        let mut batch = EvictionBatch::striped(vec![1, 2, 3]);
        batch.dirty = false;
        let c = dev.flush(&batch, 500);
        assert_eq!(c, Completion { ready_ns: 500, stall_ns: 0, flushes: 0 });
        assert_eq!(dev.flash_counters().user_programs, 0);
    }

    #[test]
    fn dirty_batch_reports_stall_and_flush_count() {
        let mut dev = tiny_device();
        let batch = EvictionBatch::striped(vec![1, 2, 3]);
        let c = dev.flush(&batch, 100);
        assert_eq!(c.flushes, 3);
        assert_eq!(c.ready_ns, 100 + c.stall_ns);
        assert!(c.stall_ns > 0, "programs take time");
        assert_eq!(dev.flash_counters().user_programs, 3);
        assert_eq!(dev.completion_horizon_ns(), c.ready_ns);
    }
}
