//! Metered heap access.
//!
//! The heap itself is cost-agnostic; every actor (GC workers, the mutator)
//! goes through [`Gx`], which performs the real heap operation *and*
//! charges the corresponding traffic to the memory model, returning the
//! actor's advanced clock. Keeping the pairing in one place guarantees no
//! heap operation escapes accounting.

use crate::collector::REMSET_META_BASE;
use nvmgc_heap::{Addr, ClassId, Header, Heap, HeapError, RegionId};
use nvmgc_memsim::{DeviceId, MemorySystem, Ns};

/// A heap + memory-model execution context.
///
/// Borrowed mutably for the duration of one simulated operation; the
/// naming is short because it appears on nearly every line of the
/// collectors.
pub struct Gx<'a> {
    /// The managed heap.
    pub heap: &'a mut Heap,
    /// The memory timing model.
    pub mem: &'a mut MemorySystem,
}

impl<'a> Gx<'a> {
    /// Creates a context.
    pub fn new(heap: &'a mut Heap, mem: &'a mut MemorySystem) -> Self {
        Gx { heap, mem }
    }

    /// Reads a reference slot, charging a word read on the slot's device.
    pub fn read_ref(&mut self, tid: usize, slot: Addr, now: Ns) -> (Addr, Ns) {
        let dev = self.heap.device_of(slot);
        let t = self.mem.read_word(tid, dev, slot.raw(), now);
        (self.heap.read_ref(slot), t)
    }

    /// Writes a reference slot through the write barrier, charging the
    /// word write plus a small DRAM update when a remembered-set entry is
    /// recorded.
    pub fn write_ref(&mut self, tid: usize, slot: Addr, value: Addr, now: Ns) -> Ns {
        let dev = self.heap.device_of(slot);
        let mut t = self.mem.write_word(tid, dev, slot.raw(), now);
        if self.heap.write_ref_with_barrier(slot, value) {
            // Remset insertion: card-table-like DRAM metadata update.
            t = self
                .mem
                .write_word(tid, DeviceId::Dram, REMSET_META_BASE | slot.raw(), t);
        }
        t
    }

    /// Reads an object header, charging a word read.
    pub fn read_header(&mut self, tid: usize, obj: Addr, now: Ns) -> (Header, Ns) {
        let dev = self.heap.device_of(obj);
        let t = self.mem.read_word(tid, dev, obj.raw(), now);
        (self.heap.header(obj), t)
    }

    /// Overwrites an object header, charging a word write. Used both for
    /// forwarding-pointer installation (a random NVM write the header map
    /// exists to avoid) and for ageing the new copy's header.
    pub fn write_header(&mut self, tid: usize, obj: Addr, h: Header, now: Ns) -> Ns {
        let dev = self.heap.device_of(obj);
        self.heap.set_header(obj, h);
        self.mem.write_word(tid, dev, obj.raw(), now)
    }

    /// Installs a forwarding pointer over a header the caller believes is
    /// not yet forwarded, charging a word write. Unlike
    /// [`Gx::write_header`], which overwrites unconditionally, this
    /// rejects an already-forwarded header as a typed error: silently
    /// replacing a forwarding word would lose the original forwardee and
    /// split the object graph (a `debug_assert!`-only guard before —
    /// invisible in release builds). The state check itself is free; the
    /// happy path charges exactly the same single word write.
    pub fn install_forward(
        &mut self,
        tid: usize,
        obj: Addr,
        new: Addr,
        now: Ns,
    ) -> Result<Ns, HeapError> {
        let h = self.heap.header(obj).forward_to(new)?;
        Ok(self.write_header(tid, obj, h, now))
    }

    /// Bump-allocates room in `to_region` and copies the object at `from`
    /// there, charged as [`Gx::copy_object_at`].
    ///
    /// Returns the copy address (or `None` when `to_region` is full).
    pub fn copy_object(&mut self, from: Addr, to_region: RegionId, now: Ns) -> (Option<Addr>, Ns) {
        let size = self.heap.object_size(from);
        match self.heap.region_mut(to_region).bump(size) {
            Some(offset) => {
                let (copy, t) = self.copy_object_at(from, to_region, offset, size, now);
                (Some(copy), t)
            }
            None => (None, now),
        }
    }

    /// Copies the `size`-byte object at `from` to `offset` of `region`
    /// (space the caller already bumped for that size, e.g. a PS local
    /// allocation buffer), charging a streaming read from the source
    /// device and a streaming write to the target device (overlapped).
    /// The copy's lines are installed in the LLC — a regular-store memcpy
    /// leaves the destination cache-hot.
    pub fn copy_object_at(
        &mut self,
        from: Addr,
        region: RegionId,
        offset: u32,
        size: u32,
        now: Ns,
    ) -> (Addr, Ns) {
        let src_dev = self.heap.device_of(from);
        let dst_dev = self.heap.region(region).device();
        let copy = self.heap.copy_object_to_offset(from, region, offset, size);
        let tr = self
            .mem
            .read_bulk(src_dev, from.raw(), u64::from(size), now);
        let tw = self
            .mem
            .write_bulk(dst_dev, copy.raw(), u64::from(size), now);
        (copy, tr.max(tw))
    }

    /// Allocates and zero-initializes an object for the mutator, charging
    /// a streaming write of the object's size.
    pub fn alloc_object(
        &mut self,
        region: RegionId,
        class: ClassId,
        now: Ns,
    ) -> (Option<Addr>, Ns) {
        let dev = self.heap.region(region).device();
        match self.heap.alloc_object(region, class) {
            Some(obj) => {
                let size = self.heap.object_size(obj) as u64;
                let t = self.mem.write_bulk(dev, obj.raw(), size, now);
                (Some(obj), t)
            }
            None => (None, now),
        }
    }

    /// The address the model charges for payload word `w` of `obj`.
    ///
    /// Known quirk, kept because moving it re-blesses every result: this
    /// is `obj + 8 + w*8`, while the heap stores payload word `w` at
    /// `obj + 8 + num_refs*8 + w*8`. For a class with reference slots the
    /// model touches the line of ref slot `w`, not of the payload word
    /// (DESIGN.md, "Model simplifications").
    #[inline]
    fn data_model_addr(obj: Addr, w: u32) -> u64 {
        obj.raw() + 8 + (w as u64) * 8
    }

    /// Touches a payload word of an object (mutator work), charging a
    /// word read. No caller uses the word's value, so none is loaded.
    pub fn touch_data(&mut self, tid: usize, obj: Addr, w: u32, now: Ns) -> Ns {
        let dev = self.heap.device_of(obj);
        self.mem
            .read_word(tid, dev, Self::data_model_addr(obj, w), now)
    }

    /// Writes payload word `w` of an object the caller knows to have
    /// `nrefs` reference slots, charging a word write.
    pub fn write_data(
        &mut self,
        tid: usize,
        obj: Addr,
        nrefs: u32,
        w: u32,
        value: u64,
        now: Ns,
    ) -> Ns {
        let dev = self.heap.device_of(obj);
        self.heap.write_data_at(obj, nrefs, w, value);
        self.mem
            .write_word(tid, dev, Self::data_model_addr(obj, w), now)
    }

    /// Issues a software prefetch for the object at `addr`.
    pub fn prefetch_obj(&mut self, tid: usize, addr: Addr, now: Ns) -> Ns {
        if addr.is_null() {
            return now;
        }
        let dev = self.heap.device_of(addr);
        self.mem.prefetch(tid, dev, addr.raw(), now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_heap::{ClassTable, DevicePlacement, HeapConfig, RegionKind};
    use nvmgc_memsim::MemConfig;

    fn setup() -> (Heap, MemorySystem) {
        let mut classes = ClassTable::new();
        classes.register("pair", 2, 16);
        classes.register("blob", 0, 24);
        let heap = Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: 8,
                young_regions: 4,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        );
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.set_threads(2);
        (heap, mem)
    }

    #[test]
    fn ref_roundtrip_advances_time() {
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        let a = heap.alloc_object(e, 0).unwrap();
        let b = heap.alloc_object(e, 0).unwrap();
        let mut gx = Gx::new(&mut heap, &mut mem);
        let slot = gx.heap.ref_slot(a, 0);
        let t1 = gx.write_ref(0, slot, b, 0);
        assert!(t1 > 0);
        let (v, t2) = gx.read_ref(0, slot, t1);
        assert_eq!(v, b);
        assert!(t2 > t1);
    }

    #[test]
    fn barrier_cost_charged_for_old_to_young() {
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        let o = heap.take_region(RegionKind::Old).unwrap();
        let young = heap.alloc_object(e, 0).unwrap();
        let old = heap.alloc_object(o, 0).unwrap();
        let mut gx = Gx::new(&mut heap, &mut mem);
        let slot = gx.heap.ref_slot(old, 0);
        gx.write_ref(0, slot, young, 0);
        let yr = young.region(gx.heap.shift());
        assert_eq!(gx.heap.region(yr).remset.len(), 1);
    }

    #[test]
    fn copy_object_charges_both_devices() {
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        let s = heap.take_region(RegionKind::Survivor).unwrap();
        let a = heap.alloc_object(e, 0).unwrap();
        heap.write_data(a, 0, 7);
        let nvm = DeviceId::Nvm.index();
        let before = mem.stats();
        let mut gx = Gx::new(&mut heap, &mut mem);
        let (copy, t) = gx.copy_object(a, s, 0);
        let copy = copy.unwrap();
        assert!(t > 0);
        assert_eq!(heap.read_data(copy, 0), 7);
        let after = mem.stats();
        assert!(after.read_bytes[nvm] > before.read_bytes[nvm]);
        assert!(after.write_bytes[nvm] > before.write_bytes[nvm]);
    }

    /// What `Gx::read_data`/`write_data` charged before they stopped
    /// loading the object: the address of payload word `w` in the model.
    fn charged_addr(obj: Addr, w: u32) -> u64 {
        obj.raw() + 8 + u64::from(w) * 8
    }

    #[test]
    fn touch_data_charges_the_read_read_data_charged() {
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        let a = heap.alloc_object(e, 0).unwrap();
        let mut twin = mem.clone();
        let mut now = 0;
        // A miss, then a hit on the same line.
        for w in [1, 0] {
            let expected = twin.read_word(1, DeviceId::Nvm, charged_addr(a, w), now);
            let got = Gx::new(&mut heap, &mut mem).touch_data(1, a, w, now);
            assert_eq!(got, expected, "word {w}");
            assert_eq!(format!("{:?}", mem.stats()), format!("{:?}", twin.stats()));
            now = got;
        }
        assert_eq!((mem.stats().llc_misses, mem.stats().llc_hits), (1, 1));
    }

    #[test]
    fn write_data_with_known_ref_count_stores_and_charges_as_before() {
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        // `setup` registers "pair" (2 refs) as class 0, "blob" (none) as 1.
        for (class, nrefs) in [(0, 2), (1, 0)] {
            let a = heap.alloc_object(e, class).unwrap();
            let (mut old_heap, mut twin) = (heap.clone(), mem.clone());
            old_heap.write_data(a, 1, 0xABCD);
            let expected = twin.write_word(1, DeviceId::Nvm, charged_addr(a, 1), 5);
            let got = Gx::new(&mut heap, &mut mem).write_data(1, a, nrefs, 1, 0xABCD, 5);
            assert_eq!(got, expected, "{nrefs} refs");
            assert_eq!(format!("{:?}", mem.stats()), format!("{:?}", twin.stats()));
            // The same word at the same heap offset: past the ref slots.
            assert_eq!(heap.read_data(a, 1), 0xABCD);
            let r = a.region(heap.shift());
            let size = heap.object_size(a);
            let off = a.offset(heap.shift());
            assert_eq!(
                heap.region(r).bytes(off, size),
                old_heap.region(r).bytes(off, size),
                "{nrefs} refs"
            );
            // The same model line: a read of the charged address now hits.
            let hits = mem.stats().llc_hits;
            mem.read_word(1, DeviceId::Nvm, charged_addr(a, 1), got);
            assert_eq!(mem.stats().llc_hits, hits + 1);
        }
    }

    #[test]
    fn install_forward_rejects_double_forward() {
        // Pinned regression: the unchecked install path silently
        // overwrote an existing forwarding word in release builds,
        // losing the first forwardee. install_forward surfaces it.
        let (mut heap, mut mem) = setup();
        let e = heap.take_region(RegionKind::Eden).unwrap();
        let s = heap.take_region(RegionKind::Survivor).unwrap();
        let a = heap.alloc_object(e, 0).unwrap();
        let c1 = heap.alloc_object(s, 0).unwrap();
        let c2 = heap.alloc_object(s, 0).unwrap();
        let mut gx = Gx::new(&mut heap, &mut mem);
        let t = gx.install_forward(0, a, c1, 0).expect("first install");
        assert!(t > 0);
        let raw = gx.heap.header(a).raw();
        assert_eq!(
            gx.install_forward(0, a, c2, t),
            Err(HeapError::AlreadyForwarded { raw })
        );
        // The original forwarding word survived the rejected install.
        assert_eq!(gx.heap.header(a).forwardee(), Some(c1));
    }

    #[test]
    fn prefetch_null_is_noop() {
        let (mut heap, mut mem) = setup();
        let mut gx = Gx::new(&mut heap, &mut mem);
        assert_eq!(gx.prefetch_obj(0, Addr::NULL, 55), 55);
    }
}
