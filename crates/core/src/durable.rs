//! The durable-record primitive: how a GC record becomes durable and how
//! recovery judges it. Every client of the durability ledger goes through
//! this module; nothing else in the crate touches the ledger's persist,
//! drain or crash-image calls (CI greps for it).
//!
//! **Keys.** A record is named by a typed [`RecordKey`]; its `u64`
//! encoding is the ledger key *and* the `arg` of the `"persist-fence"`
//! trace instant, so it is part of the byte-identity contract:
//!
//! | kind | raw key | entry bytes on the device | published by |
//! |---|---|---|---|
//! | `Region(r)` | `0x7000… \| r << 6` | none — stamp only | fresh GC destination regions (durable map), flush start, recovery |
//! | `MapEntry(idx)` | `0x7400… \| idx << 6` | the 16 B map entry | durable header-map installs, recovery |
//! | `Header(obj)` | `0x7800… \| obj` | the 8 B from-space header | map-overflow fallback installs, recovery |
//! | `AllocEntry(r)` | `0x7C00… \| r << 6` | 8 B at the key itself | safepoint allocator-journal drains |
//!
//! **Publish order** (the durable-linearizable order of Sela & Petrank):
//! payload [`write_back`] → [`publish`] of the destination's `Region`
//! record → [`publish`] of the forwarding record, where a publish is the
//! entry write-back followed by one blocking fence — `persist_meta`
//! stamping the key when the ledger is on, the plain fence otherwise.
//! Stamp-only kinds have no entry to fence and are free in volatile mode.
//!
//! **Classification.** A [`Classifier`] judges a crash image at an
//! instant `t`: a key is fenced at `t`, a payload range is durable at
//! `t`. Recovery's prefix walk asks at the crash instant; the
//! power-failure oracle asks the same questions at `t = ∞`.

use crate::error::{accounting, GcError};
use crate::header_map::{HeaderMap, ENTRY_BYTES};
use nvmgc_heap::verify::{classify_lines, LineCoverage};
use nvmgc_heap::{Addr, Heap, RegionId};
use nvmgc_memsim::{CrashImage, DeviceId, LineRec, MemorySystem, Ns};

/// The typed key of one durable record (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKey {
    /// Region `r`'s allocation metadata, persisted ahead of any payload
    /// that lands in it.
    Region(RegionId),
    /// The durable-mode header-map install at entry `idx`.
    MapEntry(u64),
    /// A forwarding install that overflowed the map into the NVM header
    /// of the from-space object.
    Header(Addr),
    /// Region `r`'s lower-table entry in the durable region allocator's
    /// journal; the key doubles as the entry's synthetic NVM line address.
    AllocEntry(RegionId),
}

impl RecordKey {
    /// The ledger key. The four kinds occupy disjoint reserved ranges far
    /// above any simulated heap address.
    pub fn raw(self) -> u64 {
        match self {
            RecordKey::Region(r) => 0x7000_0000_0000_0000 | (u64::from(r) << 6),
            RecordKey::MapEntry(idx) => 0x7400_0000_0000_0000 | (idx << 6),
            RecordKey::Header(obj) => 0x7800_0000_0000_0000 | obj.raw(),
            RecordKey::AllocEntry(r) => 0x7C00_0000_0000_0000 | (u64::from(r) << 6),
        }
    }

    /// The record's own bytes on the device as `(addr, len)`; `None` for
    /// stamp-only kinds.
    pub(crate) fn entry(self) -> Option<(u64, u64)> {
        match self {
            RecordKey::Region(_) => None,
            RecordKey::MapEntry(idx) => Some((HeaderMap::entry_addr(idx), ENTRY_BYTES)),
            RecordKey::Header(obj) => Some((obj.raw(), 8)),
            RecordKey::AllocEntry(_) => Some((self.raw(), 8)),
        }
    }
}

/// Hands the payload `[addr, addr + len)` to the device's write-combining
/// buffer (CLWB) — the step that precedes publishing a record that points
/// at it. Free, and a no-op when the ledger is off.
pub(crate) fn write_back(mem: &mut MemorySystem, dev: DeviceId, addr: u64, len: u64, now: Ns) {
    mem.persist_write_back(dev, addr, len, now);
}

/// Publishes one record whose entry bytes the caller has already stored
/// and charged: entry write-back, then one blocking fence. Returns the
/// fence's completion time (`now` for a stamp-only kind in volatile mode).
pub(crate) fn publish(mem: &mut MemorySystem, dev: DeviceId, key: RecordKey, now: Ns) -> Ns {
    if let Some((addr, len)) = key.entry() {
        mem.persist_write_back(dev, addr, len, now);
        if !mem.persist_enabled(dev) {
            return mem.fence(now);
        }
    }
    mem.persist_meta(dev, key.raw(), now)
}

/// Publishes a batch of journal records under one fence (the safepoint
/// allocator-journal drain): each entry word is stored — charged here,
/// the journal has no other writer — and written back, then a single
/// fence stamps every key at one watermark.
pub(crate) fn publish_batch(
    mem: &mut MemorySystem,
    dev: DeviceId,
    keys: &[RecordKey],
    now: Ns,
) -> Ns {
    let mut t = now;
    for key in keys {
        let (addr, len) = key.entry().expect("stamp-only records are not journaled");
        t = mem.write_word(0, dev, addr, t);
        mem.persist_write_back(dev, addr, len, t);
    }
    if !mem.persist_enabled(dev) {
        return mem.fence(t);
    }
    mem.persist_meta_many(dev, keys.iter().map(|k| k.raw()), t)
}

/// The cycle-end fence lands in the ADR domain: everything the device's
/// write-combining buffer has accepted by `now` drains to the medium
/// before mutators resume. Volatile cache lines are *not* flushed. Free —
/// it moves durability state, not time — and a no-op when the ledger is
/// off.
pub(crate) fn cycle_end_drain(mem: &mut MemorySystem, dev: DeviceId, now: Ns) {
    mem.persist_drain_all(dev, now);
}

/// Returns `region` to the allocator and ends this life of its address
/// range: the LLC drops its lines and the ledger forgets its durability
/// state, so the range's next incarnation inherits neither. (A DRAM cache
/// region has nothing in the ledger; forgetting it is free.)
pub(crate) fn release_region(
    heap: &mut Heap,
    mem: &mut MemorySystem,
    region: RegionId,
) -> Result<(), GcError> {
    let base = heap.addr_of(region, 0).raw();
    let len = heap.config().region_size as u64;
    heap.release_region(region).map_err(accounting)?;
    mem.invalidate_range(base, len);
    mem.persist_forget_range(base, len);
    Ok(())
}

/// One forwarding record an evacuation established: `old → new`,
/// published under `key`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ForwardingRecord {
    pub(crate) key: RecordKey,
    pub(crate) old: Addr,
    pub(crate) new: Addr,
}

/// Every forwarding record in flight: the header map's entries in index
/// order, then the NVM-header fallback installs in install order.
pub(crate) fn forwarding_records(
    hmap: Option<&HeaderMap>,
    full_installs: &[(Addr, Addr)],
) -> Vec<ForwardingRecord> {
    let mut records = Vec::new();
    for (idx, old, new) in hmap.map_or_else(Vec::new, HeaderMap::snapshot_indexed) {
        let key = RecordKey::MapEntry(idx);
        records.push(ForwardingRecord { key, old, new });
    }
    for &(old, new) in full_installs {
        let key = RecordKey::Header(old);
        records.push(ForwardingRecord { key, old, new });
    }
    records
}

impl ForwardingRecord {
    /// Resolves the record to a real move — its destination region and the
    /// object's size — or `None` when there is nothing to classify: a
    /// self-forward (the object never moved; retention is the crash-point
    /// oracle's concern), a stale address (likewise), or no readable
    /// header on either side.
    pub(crate) fn resolve(&self, heap: &Heap) -> Option<(RegionId, u32)> {
        if self.old == self.new {
            return None;
        }
        let dst = heap.region_of(self.new).ok()?;
        heap.region_of(self.old).ok()?;
        // Size from whichever copy still has a readable header
        // (full-fallback installs forwarded the from-space one).
        let size = if !heap.header(self.old).is_forwarded() {
            heap.object_size(self.old)
        } else if !heap.header(self.new).is_forwarded() {
            heap.object_size(self.new)
        } else {
            return None;
        };
        Some((dst, size))
    }
}

/// A device's crash image judged at instant `at`: what a power failure
/// at `at` would have left on the medium. Ledger entries stamped later
/// are phantoms of workers that had not yet observed the crash;
/// `Ns::MAX` judges the image as it stands.
pub(crate) struct Classifier<'a> {
    /// The image under judgment (loss counters).
    pub(crate) img: CrashImage<'a>,
    at: Ns,
}

impl<'a> Classifier<'a> {
    /// `None` when the persistence model is inactive for `dev`.
    pub(crate) fn new(mem: &'a MemorySystem, dev: DeviceId, at: Ns) -> Option<Self> {
        mem.crash_image(dev).map(|img| Classifier { img, at })
    }

    /// When `key`'s publish fence completed, if it did by `at`.
    pub(crate) fn fenced_at(&self, key: RecordKey) -> Option<Ns> {
        self.img.meta_at(key.raw()).filter(|&m| m <= self.at)
    }

    /// Lines of `[start, start + len)` that reached the medium by `at`,
    /// ascending.
    fn lines_in(&self, start: u64, len: u64) -> Vec<(u64, LineRec)> {
        let mut lines = self.img.durable_lines_in(start, len);
        lines.retain(|&(_, rec)| rec.first_at <= self.at);
        lines
    }

    /// Whether every line of the object `[addr, addr + size)` reached the
    /// medium by `at`.
    pub(crate) fn payload_durable(&self, addr: Addr, size: u32) -> bool {
        let base = addr.raw() & !63;
        let lines = self.lines_in(base, u64::from(size) + (addr.raw() - base));
        let mut durable = |line: u64| lines.binary_search_by_key(&line, |&(l, _)| l).is_ok();
        classify_lines(addr.raw(), size, &mut durable) == LineCoverage::Full
    }

    /// Drain-path persistence order for NVM region `region`: every
    /// durable NT-written line (NT stores are the write-cache drain path)
    /// must have drained at or after the region's `Region` record was
    /// fenced. Returns which part of the order failed.
    pub(crate) fn drain_order(&self, heap: &Heap, region: RegionId) -> Result<(), &'static str> {
        let stamp = self.fenced_at(RecordKey::Region(region));
        let base = heap.addr_of(region, 0).raw();
        for (_, rec) in self.lines_in(base, u64::from(heap.config().region_size)) {
            if !rec.via_nt {
                continue;
            }
            match stamp {
                None => return Err("durable NT payload but no persisted allocation metadata"),
                Some(m) if rec.first_at < m => {
                    return Err("durable NT payload line drained before the allocation metadata")
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_memsim::MemConfig;
    use proptest::prelude::*;
    use RecordKey::*;

    const NVM: DeviceId = DeviceId::Nvm;

    fn mem(ledger: bool) -> (MemorySystem, Ns) {
        let mut cfg = MemConfig::default();
        cfg.persist.enabled = ledger;
        (MemorySystem::new(cfg), nvmgc_memsim::FENCE_NS)
    }

    #[test]
    fn publish_costs_one_fence_and_stamps_the_key() {
        for key in [Region(3), MapEntry(17), Header(Addr(0x2040)), AllocEntry(5)] {
            let (mut on, fence) = mem(true);
            assert_eq!(publish(&mut on, NVM, key, 1_000), 1_000 + fence, "{key:?}");
            let fenced = |at| Classifier::new(&on, NVM, at).unwrap().fenced_at(key);
            assert_eq!(fenced(Ns::MAX), Some(1_000), "{key:?}");
            assert_eq!(fenced(1_000), Some(1_000), "{key:?}");
            assert_eq!(fenced(999), None, "a crash before the fence: {key:?}");

            // Ledger off: fenced kinds pay the plain fence, stamp-only
            // kinds are free, and there is no image to judge.
            let (mut off, fence) = mem(false);
            let cost = if key.entry().is_some() { fence } else { 0 };
            assert_eq!(publish(&mut off, NVM, key, 1_000), 1_000 + cost, "{key:?}");
            assert!(Classifier::new(&off, NVM, Ns::MAX).is_none());
        }
    }

    #[test]
    fn batch_costs_one_fence_and_stamps_every_key_at_one_watermark() {
        let keys: Vec<RecordKey> = (0..5).map(AllocEntry).collect();
        for ledger in [true, false] {
            let (mut m, fence) = mem(ledger);
            // The entry-word stores alone, on an identical system.
            let mut stores = m.clone();
            let stored = keys.iter().fold(1_000, |t, k| {
                stores.write_word(0, NVM, k.entry().unwrap().0, t)
            });
            assert_eq!(publish_batch(&mut m, NVM, &keys, 1_000), stored + fence);
            if let Some(c) = Classifier::new(&m, NVM, Ns::MAX) {
                for &k in &keys {
                    assert_eq!(c.fenced_at(k), Some(stored), "{k:?}");
                }
            }
        }
    }

    proptest! {
        /// The encoding equals the literal reserved ranges and is
        /// injective within and across kinds.
        #[test]
        fn key_encoding_is_literal_and_injective(
            r in any::<u32>(),
            r2 in any::<u32>(),
            idx in 0u64..1 << 40,
            word in 1u64..1 << 37,
        ) {
            let obj = Addr(word * 8);
            let raws = [Region(r), MapEntry(idx), Header(obj), AllocEntry(r)].map(RecordKey::raw);
            prop_assert_eq!(raws[0], 0x7000_0000_0000_0000 | (u64::from(r) << 6));
            prop_assert_eq!(raws[1], 0x7400_0000_0000_0000 | (idx << 6));
            prop_assert_eq!(raws[2], 0x7800_0000_0000_0000 | obj.raw());
            prop_assert_eq!(raws[3], 0x7C00_0000_0000_0000 | (u64::from(r) << 6));
            prop_assert!(raws.windows(2).all(|w| w[0] < w[1]), "{:x?}", raws);
            prop_assert_eq!(raws[0] == Region(r2).raw(), r == r2);
            prop_assert_eq!(raws[3] == AllocEntry(r2).raw(), r == r2);
        }
    }
}
