//! Fixed-size heap regions.
//!
//! G1 manages its heap in equal-sized regions; so do we. A region carries
//! real backing memory (objects are actually stored and copied), a bump
//! pointer, the device it is placed on, and the bookkeeping the NVM-aware
//! optimizations need: the write-cache mapping (paper §3.2) and the
//! asynchronous-flush tracking state (paper §4.2, Fig. 4).
//!
//! A region owns its backing memory only once it is used: `Region::new`
//! allocates nothing, and the first `bump` allocates the region's full,
//! zero-filled capacity, which it keeps from then on (`reset` leaves the
//! bytes as they were). A heap whose regions are mostly free therefore
//! clones — and a warm snapshot restores or forks — in proportion to the
//! regions it has used, not to its size. The contract that makes this
//! invisible: every read and write lands inside a region that has been
//! bumped, which allocation, copying and write-back all keep by bumping
//! before they write.

use crate::addr::Addr;
use crate::remset::RememberedSet;
use nvmgc_memsim::DeviceId;

/// Index of a region within the heap's region table.
pub type RegionId = u32;

/// The role a region currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Unused, available for allocation.
    Free,
    /// Young-generation allocation region (mutator TLABs point here).
    Eden,
    /// Young-generation to-space: survivors of the current/last GC.
    Survivor,
    /// Old generation (promoted objects).
    Old,
    /// A DRAM write-cache region (not part of the Java heap proper).
    Cache,
}

impl RegionKind {
    /// Whether the region belongs to the young generation.
    pub fn is_young(self) -> bool {
        matches!(self, RegionKind::Eden | RegionKind::Survivor)
    }
}

/// One fixed-size region with real backing storage.
#[derive(Debug, Clone)]
pub struct Region {
    id: RegionId,
    kind: RegionKind,
    device: DeviceId,
    /// Backing bytes: empty until the first `bump`, then `size` bytes.
    data: Box<[u8]>,
    size: u32,
    top: u32,
    /// Remembered set: old-space slots that point into this region.
    pub remset: RememberedSet,
    /// Candidate last reference for async-flush tracking (Fig. 4).
    pub last_ref: Addr,
    /// Set when a reference targeting this region was stolen; stolen
    /// regions opt out of asynchronous flushing (paper §4.2).
    pub stolen: bool,
    /// Whether this (cache) region has been written back to NVM.
    pub flushed: bool,
    /// For cache regions: the NVM region this one is mapped to.
    pub mapped_to: Option<RegionId>,
    /// Whether the region is part of the current collection set.
    pub in_cset: bool,
    /// Unprocessed work-stack entries (reference slots) residing in this
    /// region — the async-flush readiness tracker (paper §4.2, Fig. 4).
    pub pending_slots: u32,
    /// PS: local allocation buffers currently carved from this region and
    /// still open for copying; the region must not flush while nonzero.
    pub open_labs: u32,
}

impl Region {
    /// Creates a free region of `size` bytes on `device`. Its backing
    /// memory is allocated at its first `bump`.
    pub fn new(id: RegionId, size: u32, device: DeviceId) -> Region {
        Region {
            id,
            kind: RegionKind::Free,
            device,
            data: Box::default(),
            size,
            top: 0,
            remset: RememberedSet::new(),
            last_ref: Addr::NULL,
            stolen: false,
            flushed: false,
            mapped_to: None,
            in_cset: false,
            pending_slots: 0,
            open_labs: 0,
        }
    }

    /// The region's id.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's current role.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// The device the region is placed on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Re-places the region on a different device (used when recycling a
    /// free region for a differently-placed space).
    pub fn set_device(&mut self, device: DeviceId) {
        debug_assert_eq!(self.kind, RegionKind::Free);
        self.device = device;
    }

    /// Changes the region's role.
    pub fn set_kind(&mut self, kind: RegionKind) {
        self.kind = kind;
    }

    /// The region capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.size
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u32 {
        self.top
    }

    /// Bytes still free.
    pub fn free_bytes(&self) -> u32 {
        self.capacity() - self.top
    }

    /// Bump-allocates `size` bytes, returning the offset, or `None` if the
    /// region is too full. The region's first bump allocates its backing
    /// memory, zero-filled.
    pub fn bump(&mut self, size: u32) -> Option<u32> {
        debug_assert_eq!(size % 8, 0);
        if self.free_bytes() < size {
            return None;
        }
        if self.data.is_empty() {
            self.data = vec![0u8; self.size as usize].into_boxed_slice();
        }
        let off = self.top;
        self.top += size;
        Some(off)
    }

    /// Resets the region to an empty state with a new role. The backing
    /// bytes are kept as they are: a reused region reads its stale contents.
    pub fn reset(&mut self, kind: RegionKind) {
        self.kind = kind;
        self.top = 0;
        self.remset.clear();
        self.last_ref = Addr::NULL;
        self.stolen = false;
        self.flushed = false;
        self.mapped_to = None;
        self.in_cset = false;
        self.pending_slots = 0;
        self.open_labs = 0;
    }

    /// Reads the 64-bit word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds or unaligned, or if the region
    /// has never been bumped (it has no backing memory yet).
    #[inline]
    pub fn read_u64(&self, offset: u32) -> u64 {
        let o = offset as usize;
        u64::from_le_bytes(self.data[o..o + 8].try_into().expect("aligned read"))
    }

    /// Hints the host to load the line holding byte `offset`; a no-op past
    /// the region's end or on a region never bumped. Reads and changes
    /// nothing.
    #[inline]
    pub fn host_prefetch(&self, offset: u32) {
        if let Some(byte) = self.data.get(offset as usize) {
            nvmgc_memsim::host_prefetch(byte);
        }
    }

    /// Writes the 64-bit word at `offset`.
    ///
    /// # Panics
    ///
    /// As `read_u64`: the region must have been bumped.
    #[inline]
    pub fn write_u64(&mut self, offset: u32, value: u64) {
        let o = offset as usize;
        self.data[o..o + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Borrows `len` raw bytes starting at `offset` of a bumped region.
    pub fn bytes(&self, offset: u32, len: u32) -> &[u8] {
        &self.data[offset as usize..(offset + len) as usize]
    }

    /// Mutably borrows `len` raw bytes starting at `offset` of a bumped
    /// region.
    pub fn bytes_mut(&mut self, offset: u32, len: u32) -> &mut [u8] {
        &mut self.data[offset as usize..(offset + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_until_full() {
        let mut r = Region::new(0, 64, DeviceId::Nvm);
        assert_eq!(r.bump(24), Some(0));
        assert_eq!(r.bump(24), Some(24));
        assert_eq!(r.bump(24), None, "only 16 bytes left");
        assert_eq!(r.bump(16), Some(48));
        assert_eq!(r.free_bytes(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut r = Region::new(0, 64, DeviceId::Dram);
        assert_eq!(r.bump(16), Some(0));
        r.write_u64(8, 0xFEED_BEEF_1234_5678);
        assert_eq!(r.read_u64(8), 0xFEED_BEEF_1234_5678);
        assert_eq!(r.read_u64(0), 0, "untouched memory is zero");
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Region::new(0, 64, DeviceId::Nvm);
        r.bump(32);
        r.stolen = true;
        r.flushed = true;
        r.mapped_to = Some(9);
        r.last_ref = Addr(0x40);
        r.in_cset = true;
        r.pending_slots = 3;
        r.remset.insert(Addr(0x99));
        r.reset(RegionKind::Eden);
        assert_eq!(r.kind(), RegionKind::Eden);
        assert_eq!(r.used(), 0);
        assert!(!r.stolen && !r.flushed);
        assert_eq!(r.mapped_to, None);
        assert!(r.last_ref.is_null());
        assert!(!r.in_cset);
        assert_eq!(r.pending_slots, 0);
        assert!(r.remset.is_empty());
    }

    #[test]
    fn kind_is_young() {
        assert!(RegionKind::Eden.is_young());
        assert!(RegionKind::Survivor.is_young());
        assert!(!RegionKind::Old.is_young());
        assert!(!RegionKind::Cache.is_young());
        assert!(!RegionKind::Free.is_young());
    }

    #[test]
    fn bytes_slices_are_consistent_with_words() {
        let mut r = Region::new(0, 64, DeviceId::Dram);
        assert_eq!(r.bump(24), Some(0));
        r.bytes_mut(16, 8).copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(r.read_u64(16), 7);
        assert_eq!(r.bytes(16, 8), &7u64.to_le_bytes());
    }

    #[test]
    fn a_region_owns_no_storage_until_its_first_bump() {
        let mut r = Region::new(0, 64, DeviceId::Nvm);
        assert_eq!((r.data.len(), r.capacity(), r.free_bytes()), (0, 64, 64));
        let twin = r.clone();
        assert_eq!((twin.data.len(), twin.capacity()), (0, 64));
        r.host_prefetch(0); // a no-op, not a panic
        assert_eq!(r.bump(16), Some(0));
        assert_eq!(r.data.len(), 64);
        r.write_u64(8, 0xC0DE);
        // A released region keeps its bytes: reuse reads them stale.
        r.reset(RegionKind::Survivor);
        assert_eq!((r.data.len(), r.used()), (64, 0));
        assert_eq!(r.bump(16), Some(0));
        assert_eq!(r.read_u64(8), 0xC0DE);
    }
}
