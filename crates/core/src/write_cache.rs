//! The write cache — paper §3.2.
//!
//! Survivor allocation is redirected to DRAM *cache regions*, each mapped
//! 1:1 to a reserved NVM survivor region at identical offsets. References
//! to copied objects are updated with their final NVM addresses
//! immediately (the region mapping makes the translation a constant-time
//! offset calculation), so nothing needs re-walking at write-back time.
//! The cache is bounded: when the budget is exhausted the collector copies
//! directly to NVM, exactly as the paper's fallback does.
//!
//! With asynchronous flushing enabled (§4.2), a cache region becomes
//! *ready* once it is full and every reference slot inside it has been
//! processed (tracked by the per-region pending-slot counter, our precise
//! implementation of the paper's Fig. 4 LIFO tracking), unless a reference
//! in it was stolen by another worker — stolen regions opt out and wait
//! for the final write-back phase.

use crate::config::WriteCacheConfig;
use crate::oracle::OracleViolation;
use nvmgc_heap::{Addr, Heap, HeapError, RegionId, RegionKind};
use nvmgc_memsim::DeviceId;
use std::collections::VecDeque;

/// Manages the DRAM cache regions of one GC cycle.
#[derive(Debug)]
pub struct WriteCachePool {
    cfg: WriteCacheConfig,
    /// All cache regions allocated this cycle that are not yet flushed.
    active: Vec<RegionId>,
    /// Regions ready for asynchronous flushing.
    ready: VecDeque<RegionId>,
    /// Regions retired from allocation (full); eligibility gate for async
    /// flushing.
    retired: nvmgc_memsim::FxHashSet<RegionId>,
    bytes_in_use: u64,
    peak_bytes: u64,
    regions_allocated: u64,
    async_flushed: u64,
}

impl WriteCachePool {
    /// Creates an empty pool.
    pub fn new(cfg: WriteCacheConfig) -> Self {
        WriteCachePool {
            cfg,
            active: Vec::new(),
            ready: VecDeque::new(),
            retired: nvmgc_memsim::FxHashSet::default(),
            bytes_in_use: 0,
            peak_bytes: 0,
            regions_allocated: 0,
            async_flushed: 0,
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &WriteCacheConfig {
        &self.cfg
    }

    /// Whether the write cache is enabled at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Current DRAM bytes held.
    pub fn bytes_in_use(&self) -> u64 {
        self.bytes_in_use
    }

    /// Peak DRAM bytes held this cycle.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Cache regions allocated this cycle.
    pub fn regions_allocated(&self) -> u64 {
        self.regions_allocated
    }

    /// Regions flushed asynchronously this cycle.
    pub fn async_flushed(&self) -> u64 {
        self.async_flushed
    }

    /// Allocates a (DRAM cache region, NVM survivor region) pair, or
    /// `None` when the budget is exhausted (the caller then copies
    /// directly to NVM) or the heap is out of survivor regions.
    pub fn alloc_pair(&mut self, heap: &mut Heap) -> Option<(RegionId, RegionId)> {
        self.alloc_pair_pressured(heap, 0)
    }

    /// [`alloc_pair`](Self::alloc_pair) with `reserve` bytes of the budget
    /// made unavailable — the fault plane's cache-pressure hook. With
    /// `reserve == 0` this is the normal allocation path.
    pub fn alloc_pair_pressured(
        &mut self,
        heap: &mut Heap,
        reserve: u64,
    ) -> Option<(RegionId, RegionId)> {
        if !self.cfg.enabled {
            return None;
        }
        let rsize = heap.config().region_size as u64;
        let budget = self.cfg.max_bytes.saturating_sub(reserve);
        if self.bytes_in_use + rsize > budget {
            return None;
        }
        let nvm = match heap.take_region(RegionKind::Survivor) {
            Ok(r) => r,
            Err(HeapError::OutOfRegions) => return None,
            Err(_) => unreachable!(),
        };
        let cache = heap.alloc_aux_region(DeviceId::Dram);
        heap.region_mut(cache).mapped_to = Some(nvm);
        self.bytes_in_use += rsize;
        self.peak_bytes = self.peak_bytes.max(self.bytes_in_use);
        self.regions_allocated += 1;
        self.active.push(cache);
        Some((cache, nvm))
    }

    /// Translates an address inside a cache region to its final NVM
    /// address via the region mapping.
    pub fn translate(heap: &Heap, cache_addr: Addr) -> Addr {
        let shift = heap.shift();
        let region = cache_addr.region(shift);
        let nvm = heap
            .region(region)
            .mapped_to
            .expect("translate called on an unmapped region");
        heap.addr_of(nvm, cache_addr.offset(shift))
    }

    /// Async flushing only: queues `region` for flushing once it is
    /// ready — retired from allocation, no pending slots, no open LABs,
    /// never stolen, not yet flushed and still mapped to its NVM twin.
    /// [`check_drain_order`](Self::check_drain_order) re-checks the queue
    /// against its own copy of these conditions.
    fn enqueue_if_ready(&mut self, heap: &Heap, region: RegionId) {
        let r = heap.region(region);
        if self.cfg.async_flush
            && self.retired.contains(&region)
            && r.pending_slots == 0
            && r.open_labs == 0
            && !r.stolen
            && !r.flushed
            && r.mapped_to.is_some()
        {
            self.ready.push_back(region);
        }
    }

    /// Reports that a pending slot in `region` was processed; enqueues the
    /// region for async flushing when it has become ready.
    ///
    /// A decrement with no pending slot outstanding is rejected as a typed
    /// error rather than debug-asserted: in release builds the old
    /// assertion was silent and the `u32` counter wrapped to `u32::MAX`,
    /// so the region's readiness condition (`pending_slots == 0`) could
    /// never hold again — the region was never flushed and its DRAM
    /// budget silently leaked for the rest of the run.
    pub fn note_slot_done(
        &mut self,
        heap: &mut Heap,
        region: RegionId,
    ) -> Result<(), OracleViolation> {
        let r = heap.region_mut(region);
        if r.pending_slots == 0 {
            return Err(drain_order(
                region,
                "it has no pending reference slots to retire",
            ));
        }
        r.pending_slots -= 1;
        self.enqueue_if_ready(heap, region);
        Ok(())
    }

    /// Reports that a PS local allocation buffer carved from `region` has
    /// been closed; the region may become flushable.
    ///
    /// Closing a LAB in a region with no open LABs is a typed error for
    /// the same reason as in [`note_slot_done`](Self::note_slot_done):
    /// the release-build wraparound would pin `open_labs` at `u32::MAX`
    /// and leak the region's DRAM budget silently.
    pub fn note_lab_closed(
        &mut self,
        heap: &mut Heap,
        region: RegionId,
    ) -> Result<(), OracleViolation> {
        let r = heap.region_mut(region);
        if r.open_labs == 0 {
            return Err(drain_order(region, "it has no open LABs to close"));
        }
        r.open_labs -= 1;
        self.enqueue_if_ready(heap, region);
        Ok(())
    }

    /// Marks a region retired from allocation (full); it may become
    /// flushable immediately if it has no pending slots.
    pub fn note_retired(&mut self, heap: &Heap, region: RegionId) {
        self.retired.insert(region);
        self.enqueue_if_ready(heap, region);
    }

    /// Takes the next region ready for asynchronous flushing.
    pub fn take_ready(&mut self) -> Option<RegionId> {
        self.ready.pop_front()
    }

    /// Whether any region awaits asynchronous flushing.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Marks a region flushed, releasing its DRAM budget, and removes it
    /// from the active list.
    ///
    /// A double flush is rejected as a typed error rather than debug-
    /// asserted: in release builds the old assertion was silent and a
    /// second flush of the same region would release its DRAM budget
    /// twice, letting the pool over-allocate for the rest of the run.
    pub fn note_flushed(
        &mut self,
        heap: &mut Heap,
        region: RegionId,
        during_scan: bool,
    ) -> Result<(), OracleViolation> {
        let rsize = heap.config().region_size as u64;
        let r = heap.region_mut(region);
        if r.flushed {
            return Err(drain_order(region, "it was already flushed"));
        }
        if !self.active.contains(&region) {
            return Err(drain_order(region, "it is not an active cache region"));
        }
        r.flushed = true;
        self.bytes_in_use = self.bytes_in_use.saturating_sub(rsize);
        self.active.retain(|&x| x != region);
        // The region id may be recycled for a fresh cache region; it must
        // not inherit this life's retirement.
        self.retired.remove(&region);
        if during_scan {
            self.async_flushed += 1;
        }
        Ok(())
    }

    /// The cache regions still holding unflushed data (the write-back
    /// phase work list).
    pub fn unflushed(&self) -> Vec<RegionId> {
        self.active.clone()
    }

    /// Crash abort: returns every still-unflushed cache region with its
    /// mapped NVM twin and clears all pool state, bypassing the
    /// drain-order and double-flush gates — the cycle is aborting into
    /// crash recovery, not completing, and the caller materializes each
    /// pair (the simulator's stand-in for re-copying from intact
    /// from-space) and releases the DRAM region. Regions whose counters
    /// were mid-update (pending slots, open LABs, stolen) are discarded
    /// like any other: none of that transient state survives a power
    /// failure.
    pub fn discard_for_crash(&mut self, heap: &Heap) -> Vec<(RegionId, RegionId)> {
        let pairs = self
            .active
            .iter()
            .filter_map(|&c| heap.region(c).mapped_to.map(|n| (c, n)))
            .collect();
        self.active.clear();
        self.ready.clear();
        self.retired.clear();
        self.bytes_in_use = 0;
        pairs
    }

    /// Crash-point oracle hook: verifies that every region queued for
    /// asynchronous flushing is actually drainable, and that the DRAM
    /// budget accounting matches the active set. It keeps its own copy of
    /// the readiness conditions rather than calling the rule that queued
    /// the region: a region can go stale after it was queued, and the
    /// oracle must not share the rule it checks.
    pub fn check_drain_order(&self, heap: &Heap) -> Result<(), OracleViolation> {
        for &region in &self.ready {
            let r = heap.region(region);
            let reason = if !self.retired.contains(&region) {
                "it was never retired from allocation"
            } else if r.pending_slots > 0 {
                "it still has pending reference slots"
            } else if r.open_labs > 0 {
                "it still has open LABs"
            } else if r.stolen {
                "a reference in it was stolen"
            } else if r.flushed {
                "it was already flushed"
            } else if r.mapped_to.is_none() {
                "it is no longer mapped to an NVM region"
            } else {
                continue;
            };
            return Err(drain_order(region, reason));
        }
        let rsize = heap.config().region_size as u64;
        if self.bytes_in_use != self.active.len() as u64 * rsize {
            let witness = self.active.first().copied().unwrap_or(0);
            return Err(drain_order(
                witness,
                "budget accounting diverged from the active set",
            ));
        }
        Ok(())
    }
}

fn drain_order(region: RegionId, reason: &'static str) -> OracleViolation {
    OracleViolation::DrainOrder { region, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_heap::{ClassTable, DevicePlacement, HeapConfig};

    fn heap() -> Heap {
        let mut classes = ClassTable::new();
        classes.register("x", 1, 8);
        Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: 8,
                young_regions: 8,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        )
    }

    fn cfg(max: u64, async_flush: bool) -> WriteCacheConfig {
        WriteCacheConfig {
            enabled: true,
            max_bytes: max,
            async_flush,
            nt_store: true,
        }
    }

    #[test]
    fn alloc_pair_maps_cache_to_nvm() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, false));
        let (c, n) = p.alloc_pair(&mut h).unwrap();
        assert_eq!(h.region(c).device(), DeviceId::Dram);
        assert_eq!(h.region(n).device(), DeviceId::Nvm);
        assert_eq!(h.region(c).mapped_to, Some(n));
        assert_eq!(h.region(n).kind(), RegionKind::Survivor);
        assert_eq!(p.bytes_in_use(), 1 << 12);
    }

    #[test]
    fn budget_limits_allocation() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(2 << 12, false));
        assert!(p.alloc_pair(&mut h).is_some());
        assert!(p.alloc_pair(&mut h).is_some());
        assert!(p.alloc_pair(&mut h).is_none(), "budget exhausted");
        assert_eq!(p.regions_allocated(), 2);
    }

    #[test]
    fn disabled_pool_never_allocates() {
        let mut h = heap();
        let mut p = WriteCachePool::new(WriteCacheConfig::disabled());
        assert!(p.alloc_pair(&mut h).is_none());
    }

    #[test]
    fn translate_maps_offsets_identically() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, false));
        let (c, n) = p.alloc_pair(&mut h).unwrap();
        let cache_addr = h.addr_of(c, 0x128);
        let nvm_addr = WriteCachePool::translate(&h, cache_addr);
        assert_eq!(nvm_addr, h.addr_of(n, 0x128));
    }

    #[test]
    fn readiness_requires_retired_zero_pending_unstolen() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        h.region_mut(c).pending_slots = 2;
        p.note_slot_done(&mut h, c).unwrap(); // not retired yet
        assert!(!p.has_ready());
        p.note_retired(&h, c); // retired but one slot pending
        assert!(!p.has_ready());
        p.note_slot_done(&mut h, c).unwrap(); // pending now 0
        assert!(p.has_ready());
        assert_eq!(p.take_ready(), Some(c));
        assert!(!p.has_ready());
    }

    #[test]
    fn stolen_regions_never_become_ready() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        h.region_mut(c).pending_slots = 1;
        h.region_mut(c).stolen = true;
        p.note_retired(&h, c);
        p.note_slot_done(&mut h, c).unwrap();
        assert!(!p.has_ready());
        assert_eq!(p.unflushed(), vec![c], "still awaits final write-back");
    }

    #[test]
    fn flush_releases_budget() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 12, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        assert!(p.alloc_pair(&mut h).is_none());
        p.note_flushed(&mut h, c, true).unwrap();
        assert_eq!(p.async_flushed(), 1);
        assert_eq!(p.bytes_in_use(), 0);
        assert!(p.alloc_pair(&mut h).is_some(), "budget reclaimed");
        assert!(p.peak_bytes() >= 1 << 12);
    }

    #[test]
    fn double_flush_is_a_typed_error_not_a_budget_leak() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 12, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        p.note_flushed(&mut h, c, false).unwrap();
        assert_eq!(p.bytes_in_use(), 0);
        let OracleViolation::DrainOrder { region, reason } =
            p.note_flushed(&mut h, c, false).unwrap_err()
        else {
            unreachable!("a drain-order violation")
        };
        assert_eq!(region, c);
        assert!(reason.contains("already flushed"), "{reason}");
        // The budget did not underflow or release twice.
        assert_eq!(p.bytes_in_use(), 0);
        assert!(p.check_drain_order(&h).is_ok());
    }

    #[test]
    fn flushing_a_non_cache_region_is_rejected() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        let _ = c;
        // A region id the pool never allocated (and not flushed either).
        let bogus = h.take_region(nvmgc_heap::RegionKind::Eden).unwrap();
        let OracleViolation::DrainOrder { region, reason } =
            p.note_flushed(&mut h, bogus, false).unwrap_err()
        else {
            unreachable!("a drain-order violation")
        };
        assert_eq!(region, bogus);
        assert!(reason.contains("not an active"), "{reason}");
    }

    #[test]
    fn sync_mode_never_queues_ready() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, false));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        h.region_mut(c).pending_slots = 1;
        p.note_retired(&h, c);
        p.note_slot_done(&mut h, c).unwrap();
        assert!(!p.has_ready());
    }

    #[test]
    fn crash_discard_clears_all_pool_state() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c1, n1) = p.alloc_pair(&mut h).unwrap();
        let (c2, n2) = p.alloc_pair(&mut h).unwrap();
        h.region_mut(c1).pending_slots = 3; // transient mid-scan state
        p.note_retired(&h, c2);
        let mut pairs = p.discard_for_crash(&h);
        pairs.sort_unstable();
        let mut want = vec![(c1, n1), (c2, n2)];
        want.sort_unstable();
        assert_eq!(pairs, want);
        assert_eq!(p.bytes_in_use(), 0);
        assert!(!p.has_ready());
        assert!(p.unflushed().is_empty());
        assert!(p.check_drain_order(&h).is_ok());
    }

    #[test]
    fn slot_underflow_is_a_typed_error_not_a_wrap() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        // No slot was ever registered: retiring one must not wrap to
        // u32::MAX (which would make the region permanently unflushable).
        let OracleViolation::DrainOrder { region, reason } =
            p.note_slot_done(&mut h, c).unwrap_err()
        else {
            unreachable!("a drain-order violation")
        };
        assert_eq!(region, c);
        assert!(reason.contains("pending"), "{reason}");
        assert_eq!(h.region(c).pending_slots, 0, "counter untouched");
    }

    #[test]
    fn lab_underflow_is_a_typed_error_not_a_wrap() {
        let mut h = heap();
        let mut p = WriteCachePool::new(cfg(1 << 20, true));
        let (c, _) = p.alloc_pair(&mut h).unwrap();
        let OracleViolation::DrainOrder { region, reason } =
            p.note_lab_closed(&mut h, c).unwrap_err()
        else {
            unreachable!("a drain-order violation")
        };
        assert_eq!(region, c);
        assert!(reason.contains("LAB"), "{reason}");
        assert_eq!(h.region(c).open_labs, 0, "counter untouched");
    }
}
