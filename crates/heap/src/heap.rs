//! The heap: region table, spaces, and object-level operations.
//!
//! The heap owns all regions (young, old, free, and auxiliary DRAM cache
//! regions used by the write cache), the class table, and the raw object
//! operations the collectors and mutators build on. It deliberately knows
//! nothing about timing: callers in `nvmgc-core` charge every operation to
//! the memory model.

use crate::addr::Addr;
use crate::alloc::RegionAllocator;
use crate::cardtable::CardTable;
use crate::class::{ClassId, ClassTable};
use crate::object::{Header, HEADER_BYTES};
use crate::region::{Region, RegionId, RegionKind};
use crate::HeapError;
use nvmgc_memsim::DeviceId;

/// Where heap spaces are placed among the simulated devices.
#[derive(Debug, Clone, Copy)]
pub struct DevicePlacement {
    /// Default device for the Java heap (old space and, unless overridden,
    /// young space).
    pub heap: DeviceId,
    /// Optional override for young-generation regions (the paper's
    /// "young-gen-dram" comparison point places only the young space on
    /// DRAM).
    pub young: Option<DeviceId>,
}

impl DevicePlacement {
    /// Everything on NVM (the paper's main evaluated setting).
    pub fn all_nvm() -> Self {
        DevicePlacement {
            heap: DeviceId::Nvm,
            young: None,
        }
    }

    /// Everything on DRAM (the "vanilla-dram" baseline).
    pub fn all_dram() -> Self {
        DevicePlacement {
            heap: DeviceId::Dram,
            young: None,
        }
    }

    /// Old space on NVM, young space on DRAM ("young-gen-dram").
    pub fn young_dram() -> Self {
        DevicePlacement {
            heap: DeviceId::Nvm,
            young: Some(DeviceId::Dram),
        }
    }

    /// The device young regions are placed on.
    pub fn young_device(&self) -> DeviceId {
        self.young.unwrap_or(self.heap)
    }
}

/// Static heap configuration.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Region size in bytes; must be a power of two.
    pub region_size: u32,
    /// Number of Java-heap regions (young + old capacity).
    pub heap_regions: u32,
    /// Maximum regions the young generation may occupy.
    pub young_regions: u32,
    /// Space placement policy.
    pub placement: DevicePlacement,
    /// Use a card table instead of precise remembered sets (the stock
    /// Parallel Scavenge design; see `cardtable`).
    pub card_table: bool,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            region_size: 256 << 10,
            heap_regions: 256, // 64 MiB heap
            young_regions: 64, // 16 MiB young space
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        }
    }
}

impl HeapConfig {
    /// log2 of the region size.
    pub fn region_shift(&self) -> u32 {
        debug_assert!(self.region_size.is_power_of_two());
        self.region_size.trailing_zeros()
    }
}

/// The managed heap.
#[derive(Debug, Clone)]
pub struct Heap {
    cfg: HeapConfig,
    shift: u32,
    classes: ClassTable,
    regions: Vec<Region>,
    alloc: RegionAllocator,
    free_aux: Vec<RegionId>,
    eden: Vec<RegionId>,
    survivor: Vec<RegionId>,
    old: Vec<RegionId>,
    card_table: Option<CardTable>,
}

impl Heap {
    /// Creates a heap with all Java-heap regions initially free.
    ///
    /// # Panics
    ///
    /// Panics if the region size is not a power of two.
    pub fn new(cfg: HeapConfig, classes: ClassTable) -> Heap {
        assert!(
            cfg.region_size.is_power_of_two(),
            "region size must be a power of two"
        );
        let shift = cfg.region_shift();
        let card_table = cfg
            .card_table
            .then(|| CardTable::new(cfg.heap_regions, shift));
        let regions: Vec<Region> = (0..cfg.heap_regions)
            .map(|i| Region::new(i, cfg.region_size, cfg.placement.heap))
            .collect();
        // Two-level allocator: its upper free-stack pops lowest ids
        // first for determinism, and its lower table is the journaled
        // persistent truth about every region.
        let alloc = RegionAllocator::new(cfg.heap_regions);
        Heap {
            cfg,
            shift,
            classes,
            regions,
            alloc,
            free_aux: Vec::new(),
            eden: Vec::new(),
            survivor: Vec::new(),
            old: Vec::new(),
            card_table,
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// The class table.
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// log2 of the region size (for address decoding).
    pub fn shift(&self) -> u32 {
        self.shift
    }

    // ----- region management -------------------------------------------

    /// Borrows a region.
    #[inline]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id as usize]
    }

    /// Mutably borrows a region.
    #[inline]
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id as usize]
    }

    /// Mutably borrows two distinct regions at once (copy source/target).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two_regions_mut(&mut self, a: RegionId, b: RegionId) -> (&mut Region, &mut Region) {
        assert_ne!(a, b, "cannot borrow the same region twice");
        let (a, b) = (a as usize, b as usize);
        if a < b {
            let (lo, hi) = self.regions.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.regions.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// The ids of the current eden regions.
    pub fn eden(&self) -> &[RegionId] {
        &self.eden
    }

    /// The ids of the current survivor regions.
    pub fn survivor(&self) -> &[RegionId] {
        &self.survivor
    }

    /// The ids of the current old regions.
    pub fn old(&self) -> &[RegionId] {
        &self.old
    }

    /// Number of free Java-heap regions.
    pub fn free_count(&self) -> usize {
        self.alloc.free_count()
    }

    /// The two-level region allocator (journal inspection, recovery).
    pub fn allocator(&self) -> &RegionAllocator {
        &self.alloc
    }

    /// The region allocator, mutable (journal drains, recovery rebuild).
    pub fn allocator_mut(&mut self) -> &mut RegionAllocator {
        &mut self.alloc
    }

    /// Total regions currently backed (Java heap + auxiliary).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of young regions in use (eden + survivor).
    pub fn young_count(&self) -> usize {
        self.eden.len() + self.survivor.len()
    }

    /// Whether the young generation has reached its region budget.
    pub fn young_full(&self) -> bool {
        self.young_count() >= self.cfg.young_regions as usize
    }

    /// Takes a free region for the given role, placing it per policy.
    pub fn take_region(&mut self, kind: RegionKind) -> Result<RegionId, HeapError> {
        if matches!(kind, RegionKind::Free | RegionKind::Cache) {
            return Err(HeapError::BadTakeKind(kind));
        }
        let id = self.alloc.take(kind).ok_or(HeapError::OutOfRegions)?;
        let device = if kind.is_young() {
            self.cfg.placement.young_device()
        } else {
            self.cfg.placement.heap
        };
        let r = &mut self.regions[id as usize];
        r.set_device(device);
        r.reset(kind);
        match kind {
            RegionKind::Eden => self.eden.push(id),
            RegionKind::Survivor => self.survivor.push(id),
            RegionKind::Old => self.old.push(id),
            // Rejected above; repeated here so the match stays total.
            RegionKind::Free | RegionKind::Cache => return Err(HeapError::BadTakeKind(kind)),
        }
        Ok(id)
    }

    /// Returns a region to the free list.
    ///
    /// Releasing an already-free region is a typed error: before PR 8 it
    /// silently returned, so a double-release in release builds
    /// corrupted free-count accounting with no signal.
    pub fn release_region(&mut self, id: RegionId) -> Result<(), HeapError> {
        let kind = self.regions[id as usize].kind();
        match kind {
            RegionKind::Eden => self.eden.retain(|&r| r != id),
            RegionKind::Survivor => self.survivor.retain(|&r| r != id),
            RegionKind::Old => self.old.retain(|&r| r != id),
            RegionKind::Cache => {
                self.regions[id as usize].reset(RegionKind::Free);
                self.free_aux.push(id);
                return Ok(());
            }
            RegionKind::Free => return Err(HeapError::DoubleRelease(id)),
        }
        let watermark = self.regions[id as usize].used();
        self.regions[id as usize].reset(RegionKind::Free);
        self.alloc.release(id, watermark)
    }

    /// Allocates an auxiliary (non-Java-heap) region on `device`, used for
    /// DRAM write-cache regions. Reuses previously released aux regions.
    pub fn alloc_aux_region(&mut self, device: DeviceId) -> RegionId {
        if let Some(id) = self.free_aux.pop() {
            let r = &mut self.regions[id as usize];
            r.set_device(device);
            r.reset(RegionKind::Cache);
            return id;
        }
        let id = self.regions.len() as RegionId;
        let mut r = Region::new(id, self.cfg.region_size, device);
        r.set_kind(RegionKind::Cache);
        self.regions.push(r);
        id
    }

    /// Promotes all current survivor regions into the survivor role for
    /// the next cycle — i.e. after GC, newly filled survivor regions stay
    /// listed; eden regions must have been released by the collector.
    ///
    /// A non-survivor region on the survivor list is a typed error
    /// (release-silent `debug_assert!` before PR 8).
    pub fn survivors_to_young(&mut self) -> Result<(), HeapError> {
        // Survivor regions remain survivors until the next GC collects
        // them; nothing to do beyond the invariant check.
        for &r in &self.survivor {
            let found = self.regions[r as usize].kind();
            if found != RegionKind::Survivor {
                return Err(HeapError::KindMismatch {
                    region: r,
                    expected: RegionKind::Survivor,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Turns an eden region into a survivor region, moving it from the
    /// eden list to the survivor list (evacuation-failure retention).
    pub fn eden_to_survivor(&mut self, id: RegionId) -> Result<(), HeapError> {
        let found = self.regions[id as usize].kind();
        if found != RegionKind::Eden {
            return Err(HeapError::KindMismatch {
                region: id,
                expected: RegionKind::Eden,
                found,
            });
        }
        self.regions[id as usize].set_kind(RegionKind::Survivor);
        self.alloc.reclassify(id, RegionKind::Survivor);
        self.eden.retain(|&r| r != id);
        if !self.survivor.contains(&id) {
            self.survivor.push(id);
        }
        Ok(())
    }

    // ----- addressing ---------------------------------------------------

    /// Builds an address from a region and offset.
    #[inline]
    pub fn addr_of(&self, region: RegionId, offset: u32) -> Addr {
        Addr::from_parts(region, offset, self.shift)
    }

    /// The region an address points into.
    ///
    /// Returns an error for null or out-of-range addresses.
    #[inline]
    pub fn region_of(&self, addr: Addr) -> Result<RegionId, HeapError> {
        // Guard both ends: addresses below the first region (raw values
        // that are not heap pointers, e.g. payload bytes misread as
        // references) and past the region table.
        if addr.is_null() || addr.raw() < (1u64 << self.shift) {
            return Err(HeapError::BadAddress(addr));
        }
        let r = addr.region(self.shift);
        if (r as usize) < self.regions.len() {
            Ok(r)
        } else {
            Err(HeapError::BadAddress(addr))
        }
    }

    /// The device backing an address.
    #[inline]
    pub fn device_of(&self, addr: Addr) -> DeviceId {
        let r = addr.region(self.shift);
        self.regions[r as usize].device()
    }

    /// Whether `addr` lies in a young (eden/survivor) region.
    #[inline]
    pub fn is_young(&self, addr: Addr) -> bool {
        !addr.is_null() && self.region(addr.region(self.shift)).kind().is_young()
    }

    // ----- object operations ---------------------------------------------

    /// Allocates an object of `class` in `region`, zeroing its fields.
    ///
    /// Returns `None` when the region is too full.
    pub fn alloc_object(&mut self, region: RegionId, class: ClassId) -> Option<Addr> {
        let size = self.classes.get(class).size();
        let shift = self.shift;
        let r = &mut self.regions[region as usize];
        let off = r.bump(size)?;
        r.bytes_mut(off, size).fill(0);
        r.write_u64(off, Header::new(class, 0).raw());
        Some(Addr::from_parts(region, off, shift))
    }

    /// Reads an object's header.
    #[inline]
    pub fn header(&self, obj: Addr) -> Header {
        let r = obj.region(self.shift);
        Header(self.regions[r as usize].read_u64(obj.offset(self.shift)))
    }

    /// Hints the host to load the line holding the word at `obj` — an
    /// object's header, or a reference slot — ahead of a later read. A
    /// null or out-of-heap address is a no-op; nothing is read or changed.
    #[inline]
    pub fn prefetch_header(&self, obj: Addr) {
        if let Ok(r) = self.region_of(obj) {
            self.regions[r as usize].host_prefetch(obj.offset(self.shift));
        }
    }

    /// Overwrites an object's header.
    #[inline]
    pub fn set_header(&mut self, obj: Addr, h: Header) {
        let r = obj.region(self.shift);
        let off = obj.offset(self.shift);
        self.regions[r as usize].write_u64(off, h.raw());
    }

    /// The class of a (non-forwarded) object.
    #[inline]
    pub fn class_of(&self, obj: Addr) -> ClassId {
        self.header(obj).class_id()
    }

    /// Total size in bytes of the object at `obj`.
    #[inline]
    pub fn object_size(&self, obj: Addr) -> u32 {
        self.classes.get(self.class_of(obj)).size()
    }

    /// The address of reference slot `i` of `obj`.
    #[inline]
    pub fn ref_slot(&self, obj: Addr, i: u32) -> Addr {
        obj.offset_by(HEADER_BYTES + i * 8)
    }

    /// Number of reference slots in `obj`.
    #[inline]
    pub fn num_refs(&self, obj: Addr) -> u32 {
        self.classes.get(self.class_of(obj)).num_refs
    }

    /// Reads the reference stored at `slot`.
    #[inline]
    pub fn read_ref(&self, slot: Addr) -> Addr {
        let r = slot.region(self.shift);
        Addr(self.regions[r as usize].read_u64(slot.offset(self.shift)))
    }

    /// Stores a reference at `slot` (no write barrier; see
    /// [`Heap::write_ref_with_barrier`]).
    #[inline]
    pub fn write_ref(&mut self, slot: Addr, value: Addr) {
        let r = slot.region(self.shift);
        let off = slot.offset(self.shift);
        self.regions[r as usize].write_u64(off, value.raw());
    }

    /// Stores a reference with the G1-style write barrier: a cross-region
    /// reference written into an old-space slot is recorded in the target
    /// region's remembered set. Returns `true` when a remset entry was
    /// added (the caller charges the extra cost).
    ///
    /// References *from* young regions are never recorded — the young
    /// generation is in every collection set, so they are always found by
    /// tracing (this is exactly G1's policy).
    pub fn write_ref_with_barrier(&mut self, slot: Addr, value: Addr) -> bool {
        self.write_ref(slot, value);
        if value.is_null() {
            return false;
        }
        let src_region = slot.region(self.shift);
        let dst_region = value.region(self.shift);
        if src_region == dst_region {
            return false;
        }
        let src_old = self.regions[src_region as usize].kind() == RegionKind::Old;
        let dst_tracked = matches!(
            self.regions[dst_region as usize].kind(),
            RegionKind::Eden | RegionKind::Survivor | RegionKind::Old
        );
        if !(src_old && dst_tracked) {
            return false;
        }
        match &mut self.card_table {
            Some(ct) => {
                // Card-table mode: blindly dirty the slot's card (the
                // cheap PS barrier). Only old→young matters for young
                // collection; old→old refs are not tracked, so this mode
                // does not support mixed collections.
                if self.regions[dst_region as usize].kind().is_young() {
                    ct.dirty(slot);
                    true
                } else {
                    false
                }
            }
            None => self.regions[dst_region as usize].remset.insert(slot),
        }
    }

    /// Reads the data word `w` (64-bit index into the payload) of `obj`.
    #[inline]
    pub fn read_data(&self, obj: Addr, w: u32) -> u64 {
        let nrefs = self.num_refs(obj);
        let off = obj.offset(self.shift) + HEADER_BYTES + nrefs * 8 + w * 8;
        self.regions[obj.region(self.shift) as usize].read_u64(off)
    }

    /// Writes the data word `w` of `obj`.
    #[inline]
    pub fn write_data(&mut self, obj: Addr, w: u32, value: u64) {
        self.write_data_at(obj, self.num_refs(obj), w, value);
    }

    /// Writes the data word `w` of `obj` for a caller that already knows
    /// the object has `nrefs` reference slots, without loading its header.
    #[inline]
    pub fn write_data_at(&mut self, obj: Addr, nrefs: u32, w: u32, value: u64) {
        debug_assert_eq!(nrefs, self.num_refs(obj));
        let off = obj.offset(self.shift) + HEADER_BYTES + nrefs * 8 + w * 8;
        self.regions[obj.region(self.shift) as usize].write_u64(off, value);
    }

    /// Copies the raw bytes of the object at `from` into `to_region`,
    /// returning the copy's address. The source header is copied verbatim
    /// (the caller ages/forwards as needed).
    ///
    /// Returns `None` when `to_region` is too full.
    pub fn copy_object(&mut self, from: Addr, to_region: RegionId) -> Option<Addr> {
        let size = self.object_size(from);
        let off = self.region_mut(to_region).bump(size)?;
        Some(self.copy_object_to_offset(from, to_region, off, size))
    }

    /// Scrubs every remembered set of entries whose source slot lies in
    /// one of `freed` regions (which are being released or have been
    /// repurposed). G1 performs the same scrubbing during cleanup — a
    /// stale entry into a recycled region would otherwise read arbitrary
    /// bytes as a reference.
    pub fn scrub_remset_sources(&mut self, freed: &nvmgc_memsim::FxHashSet<RegionId>) {
        if freed.is_empty() {
            return;
        }
        let shift = self.shift;
        for region in &mut self.regions {
            if region.remset.is_empty() {
                continue;
            }
            region
                .remset
                .retain(|slot| !freed.contains(&slot.region(shift)));
        }
    }

    /// The card table, when enabled.
    pub fn card_table(&self) -> Option<&CardTable> {
        self.card_table.as_ref()
    }

    /// The card table, mutable (collection-time clearing).
    pub fn card_table_mut(&mut self) -> Option<&mut CardTable> {
        self.card_table.as_mut()
    }

    /// Copies the raw bytes of the object at `from`, whose size the caller
    /// already looked up as `size`, to `to_region` at a caller-chosen
    /// `offset` (which must lie within already-bumped space, e.g. a PS
    /// local allocation buffer). Returns the copy's address.
    ///
    /// # Panics
    ///
    /// Panics if `from` lies in `to_region`: sources are in the collection
    /// set, targets are fresh survivor/cache regions.
    pub fn copy_object_to_offset(
        &mut self,
        from: Addr,
        to_region: RegionId,
        offset: u32,
        size: u32,
    ) -> Addr {
        debug_assert_eq!(size, self.object_size(from));
        let shift = self.shift;
        let from_region = from.region(shift);
        let from_off = from.offset(shift);
        assert_ne!(from_region, to_region, "copy within a single region");
        let (src, dst) = self.two_regions_mut(from_region, to_region);
        debug_assert!(
            offset + size <= dst.used(),
            "offset must be inside bumped space"
        );
        let bytes = src.bytes(from_off, size);
        dst.bytes_mut(offset, size).copy_from_slice(bytes);
        Addr::from_parts(to_region, offset, shift)
    }

    /// Copies the used contents of region `from` into the (empty) region
    /// `to` at identical offsets — the write-back operation of the write
    /// cache. `to`'s bump pointer is advanced to match.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not empty or cannot hold the bytes.
    pub fn blit_region(&mut self, from: RegionId, to: RegionId) {
        let used = self.regions[from as usize].used();
        if used == 0 {
            return;
        }
        let (src, dst) = self.two_regions_mut(from, to);
        assert_eq!(dst.used(), 0, "write-back target must be empty");
        // invariant: regions are uniformly `region_size`, so an empty target
        // (asserted above) always holds `used <= region_size` bytes.
        let off = dst.bump(used).expect("target region large enough");
        debug_assert_eq!(off, 0);
        let bytes = src.bytes(0, used);
        dst.bytes_mut(0, used).copy_from_slice(bytes);
    }

    /// Iterates over the objects in a region in address order, calling
    /// `f(addr, class)`. Only valid for regions fully populated by
    /// allocation (not mid-copy).
    pub fn walk_region<F: FnMut(Addr, ClassId)>(&self, region: RegionId, mut f: F) {
        let r = self.region(region);
        let mut off = 0;
        while off < r.used() {
            let addr = self.addr_of(region, off);
            let h = Header(r.read_u64(off));
            debug_assert!(!h.is_forwarded(), "walking a region mid-collection");
            let class = h.class_id();
            f(addr, class);
            off += self.classes.get(class).size();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_heap() -> Heap {
        let mut classes = ClassTable::new();
        classes.register("pair", 2, 16); // size 8+16+16 = 40
        classes.register("leaf", 0, 8); // size 16
        Heap::new(
            HeapConfig {
                region_size: 1 << 12, // 4 KiB regions
                heap_regions: 8,
                young_regions: 4,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        )
    }

    #[test]
    fn take_and_release_regions() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        assert_eq!(h.eden(), &[e]);
        assert_eq!(h.free_count(), 7);
        h.release_region(e).unwrap();
        assert_eq!(h.eden().len(), 0);
        assert_eq!(h.free_count(), 8);
    }

    #[test]
    fn prefetch_header_never_panics_and_changes_nothing() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let obj = h.alloc_object(e, 0).unwrap();
        let before = format!("{h:?}");
        let size = h.config().region_size;
        let last = h.region_count() as RegionId - 1;
        for addr in [
            Addr::NULL,
            Addr(8),                   // below the first region
            h.addr_of(last + 1, 0),    // past the last region
            Addr(u64::MAX),            // far past it
            h.addr_of(last, size - 8), // a region's last word
            h.addr_of(e, size - 8),
            obj,
        ] {
            h.prefetch_header(addr);
        }
        assert_eq!(format!("{h:?}"), before);
    }

    #[test]
    fn double_release_is_a_typed_error() {
        // Pinned regression: before PR 8 a second release of the same
        // region silently returned, corrupting free-count accounting in
        // release builds.
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        h.release_region(e).unwrap();
        assert_eq!(h.release_region(e), Err(HeapError::DoubleRelease(e)));
        assert_eq!(h.free_count(), 8, "failed release must not double-push");
    }

    #[test]
    fn take_region_rejects_unservable_roles() {
        let mut h = test_heap();
        for kind in [RegionKind::Free, RegionKind::Cache] {
            assert_eq!(h.take_region(kind), Err(HeapError::BadTakeKind(kind)));
        }
        assert_eq!(h.free_count(), 8, "rejected takes must not consume regions");
    }

    #[test]
    fn kind_transitions_are_typed_errors() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let o = h.take_region(RegionKind::Old).unwrap();
        // eden_to_survivor accepts an eden region only.
        assert_eq!(
            h.eden_to_survivor(o),
            Err(HeapError::KindMismatch {
                region: o,
                expected: RegionKind::Eden,
                found: RegionKind::Old,
            })
        );
        h.eden_to_survivor(e).unwrap();
        assert_eq!(h.region(e).kind(), RegionKind::Survivor);
        assert_eq!(h.allocator().lower(e).kind, RegionKind::Survivor);
        assert_eq!((h.eden(), h.survivor()), (&[][..], &[e][..]));
        // A second transition finds a survivor, not an eden region.
        assert_eq!(
            h.eden_to_survivor(e),
            Err(HeapError::KindMismatch {
                region: e,
                expected: RegionKind::Eden,
                found: RegionKind::Survivor,
            })
        );
    }

    #[test]
    fn allocator_lower_table_tracks_region_lifecycle() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        assert_eq!(h.allocator().lower(e).kind, RegionKind::Eden);
        h.alloc_object(e, 1).unwrap();
        h.release_region(e).unwrap();
        let entry = h.allocator().lower(e);
        assert_eq!(entry.kind, RegionKind::Free);
        assert_eq!(entry.watermark, 16, "release records the final used bytes");
    }

    #[test]
    fn out_of_regions_is_an_error() {
        let mut h = test_heap();
        for _ in 0..8 {
            h.take_region(RegionKind::Old).unwrap();
        }
        assert_eq!(
            h.take_region(RegionKind::Eden),
            Err(HeapError::OutOfRegions)
        );
    }

    #[test]
    fn young_placement_override() {
        let mut classes = ClassTable::new();
        classes.register("x", 0, 0);
        let mut h = Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: 4,
                young_regions: 2,
                placement: DevicePlacement::young_dram(),
                card_table: false,
            },
            classes,
        );
        let e = h.take_region(RegionKind::Eden).unwrap();
        let o = h.take_region(RegionKind::Old).unwrap();
        assert_eq!(h.region(e).device(), DeviceId::Dram);
        assert_eq!(h.region(o).device(), DeviceId::Nvm);
    }

    #[test]
    fn alloc_object_and_field_access() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(e, 1).unwrap();
        assert_eq!(h.class_of(a), 0);
        assert_eq!(h.object_size(a), 40);
        assert_eq!(h.num_refs(a), 2);
        // Fields start as null/zero.
        assert!(h.read_ref(h.ref_slot(a, 0)).is_null());
        assert_eq!(h.read_data(a, 0), 0);
        // Link a -> b and store payload.
        h.write_ref(h.ref_slot(a, 0), b);
        h.write_data(a, 1, 0xAB);
        assert_eq!(h.read_ref(h.ref_slot(a, 0)), b);
        assert_eq!(h.read_data(a, 1), 0xAB);
    }

    #[test]
    fn alloc_object_zeroes_recycled_memory() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        h.write_data(a, 0, u64::MAX);
        h.release_region(e).unwrap();
        let e2 = h.take_region(RegionKind::Eden).unwrap();
        assert_eq!(e2, e, "LIFO free list reuses the region");
        let a2 = h.alloc_object(e2, 0).unwrap();
        assert_eq!(h.read_data(a2, 0), 0);
    }

    #[test]
    fn write_barrier_records_old_to_young_only() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let o = h.take_region(RegionKind::Old).unwrap();
        let young_obj = h.alloc_object(e, 1).unwrap();
        let old_obj = h.alloc_object(o, 0).unwrap();
        let young_holder = h.alloc_object(e, 0).unwrap();

        // old -> young: recorded.
        let slot = h.ref_slot(old_obj, 0);
        assert!(h.write_ref_with_barrier(slot, young_obj));
        let yr = young_obj.region(h.shift());
        assert_eq!(h.region(yr).remset.len(), 1);

        // young -> young: not recorded.
        let slot2 = h.ref_slot(young_holder, 0);
        assert!(!h.write_ref_with_barrier(slot2, young_obj));

        // null store: not recorded.
        assert!(!h.write_ref_with_barrier(slot, Addr::NULL));
    }

    #[test]
    fn copy_object_preserves_bytes() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let s = h.take_region(RegionKind::Survivor).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        h.write_data(a, 0, 111);
        h.write_data(a, 1, 222);
        let copy = h.copy_object(a, s).unwrap();
        assert_ne!(copy, a);
        assert_eq!(h.read_data(copy, 0), 111);
        assert_eq!(h.read_data(copy, 1), 222);
        assert_eq!(h.class_of(copy), 0);
    }

    #[test]
    fn walk_region_visits_all_objects() {
        let mut h = test_heap();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let mut expect = Vec::new();
        for i in 0..5 {
            expect.push(h.alloc_object(e, (i % 2) as u32).unwrap());
        }
        let mut seen = Vec::new();
        h.walk_region(e, |a, _| seen.push(a));
        assert_eq!(seen, expect);
    }

    #[test]
    fn aux_regions_recycle() {
        let mut h = test_heap();
        let c1 = h.alloc_aux_region(DeviceId::Dram);
        assert_eq!(h.region(c1).kind(), RegionKind::Cache);
        h.release_region(c1).unwrap();
        let c2 = h.alloc_aux_region(DeviceId::Dram);
        assert_eq!(c1, c2, "aux region is reused");
    }
}
