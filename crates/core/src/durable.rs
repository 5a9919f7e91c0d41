//! The durable-record primitive: how a GC record becomes durable and how
//! recovery judges it. Durability is a fact about NVM — Optane behind ADR;
//! no DRAM store survives a power failure — so the one ledger is NVM's
//! ([`MemorySystem::ledger`]), and this module is its only driver: nothing
//! else in the crate reaches the ledger, its fences or its crash image (CI
//! greps for it). The fences it adds and the `"persist-fence"` /
//! `"persist-drain"` trace instants on the NVM lane are emitted here too.
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
//! entry write-back followed by one blocking fence — stamping the key in
//! the ledger when it is on, the plain fence otherwise. Stamp-only kinds
//! have no entry to fence and are free in volatile mode.
//!
//! **Classification.** A [`Classifier`] judges a crash image at an
//! instant `t`: a key is fenced at `t`, a payload range is durable at
//! `t`. Recovery's prefix walk asks at the crash instant; the
//! power-failure oracle asks the same questions at `t = ∞`.

use crate::error::{accounting, GcError};
use crate::header_map::{HeaderMap, ENTRY_BYTES};
use nvmgc_heap::{Addr, Heap, RegionId};
use nvmgc_memsim::{
    device_track, CrashImage, DeviceId, LineRec, MemorySystem, Ns, TraceCat, FENCE_NS,
};

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

/// Hands the payload `[addr, addr + len)` to NVM's write-combining
/// buffer (CLWB) — the step that precedes publishing a record that points
/// at it. Free, and a no-op when the ledger is off.
pub(crate) fn write_back(mem: &mut MemorySystem, addr: u64, len: u64, now: Ns) {
    if let Some(ledger) = mem.ledger_mut() {
        ledger.write_back(addr, len, now);
    }
}

/// Publishes one record whose entry bytes the caller has already stored
/// and charged: entry write-back, then one blocking fence. Returns the
/// fence's completion time (`now` for a stamp-only kind in volatile mode).
pub(crate) fn publish(mem: &mut MemorySystem, key: RecordKey, now: Ns) -> Ns {
    if let Some((addr, len)) = key.entry() {
        write_back(mem, addr, len, now);
        if mem.ledger().is_none() {
            return mem.fence(now);
        }
    }
    stamp(mem, &[key], key.raw(), now)
}

/// Publishes a batch of journal records under one fence (the safepoint
/// allocator-journal drain): each entry word is stored — charged here,
/// the journal has no other writer — and written back, then a single
/// fence stamps every key at one watermark.
pub(crate) fn publish_batch(mem: &mut MemorySystem, keys: &[RecordKey], now: Ns) -> Ns {
    let mut t = now;
    for key in keys {
        let (addr, len) = key.entry().expect("stamp-only records are not journaled");
        t = mem.write_word(0, DeviceId::Nvm, addr, t);
        write_back(mem, addr, len, t);
    }
    if mem.ledger().is_none() {
        return mem.fence(t);
    }
    stamp(mem, keys, keys.len() as u64, t)
}

/// Stamps every key in the ledger under one blocking fence at `now`,
/// marked by a `"persist-fence"` instant whose arg is `arg` (the raw key
/// of a single publish, the count of a batch). Returns the fence's
/// completion time; `now` when the ledger is off or `keys` is empty.
fn stamp(mem: &mut MemorySystem, keys: &[RecordKey], arg: u64, now: Ns) -> Ns {
    let Some(ledger) = mem.ledger_mut().filter(|_| !keys.is_empty()) else {
        return now;
    };
    for key in keys {
        ledger.persist_meta(key.raw(), now);
    }
    let lane = device_track(DeviceId::Nvm);
    mem.trace_mut()
        .instant("persist-fence", TraceCat::Fence, lane, now, arg);
    now + FENCE_NS
}

/// The cycle-end fence lands in the ADR domain: everything NVM's
/// write-combining buffer has accepted by `now` drains to the medium
/// before mutators resume. Volatile cache lines are *not* flushed. Free —
/// it moves durability state, not time — and a no-op when the ledger is
/// off.
pub(crate) fn cycle_end_drain(mem: &mut MemorySystem, now: Ns) {
    if let Some(ledger) = mem.ledger_mut() {
        ledger.drain_all(now);
        let lane = device_track(DeviceId::Nvm);
        mem.trace_mut()
            .instant("persist-drain", TraceCat::Fence, lane, now, 0);
    }
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
    if let Some(ledger) = mem.ledger_mut() {
        ledger.forget_range(base, len);
    }
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

/// NVM's crash image judged at instant `at`: what a power failure
/// at `at` would have left on the medium. Ledger entries stamped later
/// are phantoms of workers that had not yet observed the crash;
/// `Ns::MAX` judges the image as it stands.
pub(crate) struct Classifier<'a> {
    /// The image under judgment (loss counters).
    pub(crate) img: CrashImage<'a>,
    at: Ns,
}

impl<'a> Classifier<'a> {
    /// `None` when the persistence model is off.
    pub(crate) fn new(mem: &'a MemorySystem, at: Ns) -> Option<Self> {
        let img = mem.ledger()?.crash_image();
        Some(Classifier { img, at })
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

    /// Whether every line the object `[addr, addr + size)` spans — at
    /// least one — reached the medium by `at`.
    pub(crate) fn payload_durable(&self, addr: Addr, size: u32) -> bool {
        let (addr, size) = (addr.raw(), u64::from(size));
        let base = addr & !63;
        // Every durable line of `[base, addr + size)` is one the object
        // spans, so the counts agree exactly when none is missing.
        let spans = (addr + size.max(1) - 1) / 64 - base / 64 + 1;
        self.lines_in(base, size + (addr - base)).len() as u64 == spans
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
    use nvmgc_memsim::{MemConfig, TraceEvent};
    use proptest::prelude::*;
    use RecordKey::*;

    fn mem(ledger: bool) -> MemorySystem {
        let mut cfg = MemConfig::default();
        cfg.persist.enabled = ledger;
        let mut m = MemorySystem::new(cfg);
        m.trace_mut().set_enabled(true);
        m
    }

    /// An instant on the NVM trace lane — what `trace_timeline.json`
    /// shows of a fence or a drain.
    fn nvm_instant(name: &'static str, ts: Ns, arg: u64) -> TraceEvent {
        TraceEvent {
            ts,
            dur: 0,
            track: device_track(DeviceId::Nvm),
            name,
            cat: TraceCat::Fence,
            arg,
        }
    }

    /// With the ledger on, a publish costs one fence, stamps the key at
    /// its start and marks it with one `"persist-fence"` instant whose arg
    /// is the raw key. With it off, fenced kinds pay the plain fence,
    /// stamp-only kinds are free, nothing is marked and there is no image.
    #[test]
    fn publish_costs_one_fence_and_stamps_the_key() {
        for key in [Region(3), MapEntry(17), Header(Addr(0x2040)), AllocEntry(5)] {
            let mut on = mem(true);
            assert_eq!(publish(&mut on, key, 1_000), 1_000 + FENCE_NS, "{key:?}");
            let fence = nvm_instant("persist-fence", 1_000, key.raw());
            assert_eq!(on.trace().events(), [fence], "{key:?}");
            let fenced = |at| Classifier::new(&on, at).unwrap().fenced_at(key);
            assert_eq!(fenced(Ns::MAX), Some(1_000), "{key:?}");
            assert_eq!(fenced(1_000), Some(1_000), "{key:?}");
            assert_eq!(fenced(999), None, "a crash before the fence: {key:?}");

            let mut off = mem(false);
            let cost = if key.entry().is_some() { FENCE_NS } else { 0 };
            assert_eq!(publish(&mut off, key, 1_000), 1_000 + cost, "{key:?}");
            assert!(off.trace().events().is_empty(), "{key:?}");
            assert!(Classifier::new(&off, Ns::MAX).is_none());
        }
    }

    /// A batch pays its entry-word stores and one fence, stamps every key
    /// at one watermark and, with the ledger on, is marked by one
    /// `"persist-fence"` instant whose arg is the key count. An empty
    /// batch costs nothing with the ledger on and the plain fence without.
    #[test]
    fn batch_costs_one_fence_and_stamps_every_key_at_one_watermark() {
        let keys: Vec<RecordKey> = (0..5).map(AllocEntry).collect();
        for ledger in [true, false] {
            let mut m = mem(ledger);
            // The entry-word stores alone, on an identical system.
            let mut stores = m.clone();
            let stored = keys.iter().fold(1_000, |t, k| {
                stores.write_word(0, DeviceId::Nvm, k.entry().unwrap().0, t)
            });
            assert_eq!(publish_batch(&mut m, &keys, 1_000), stored + FENCE_NS);
            if let Some(c) = Classifier::new(&m, Ns::MAX) {
                for &k in &keys {
                    assert_eq!(c.fenced_at(k), Some(stored), "{k:?}");
                }
                let fence = nvm_instant("persist-fence", stored, keys.len() as u64);
                assert_eq!(m.trace().events(), [fence]);
            } else {
                assert!(m.trace().events().is_empty());
            }
            let empty = if ledger { 0 } else { FENCE_NS };
            assert_eq!(publish_batch(&mut mem(ledger), &[], 1_000), 1_000 + empty);
        }
    }

    /// The cycle-end drain is free, makes every NT-accepted line durable
    /// and marks the NVM lane with one `"persist-drain"` instant; with the
    /// ledger off it does nothing.
    #[test]
    fn cycle_end_drain_drains_the_buffer_and_marks_the_lane() {
        let mut on = mem(true);
        on.nt_write_bulk(DeviceId::Nvm, 0x4000, 4096, 10);
        cycle_end_drain(&mut on, 20);
        assert_eq!(on.trace().events(), [nvm_instant("persist-drain", 20, 0)]);
        let img = on.ledger().unwrap().crash_image();
        assert_eq!((img.durable_lines(), img.discarded_lines), (64, 0));

        let mut off = mem(false);
        cycle_end_drain(&mut off, 20);
        assert!(off.trace().events().is_empty());
    }

    /// An object's payload is durable when every line it spans is: three
    /// of three, not three of four, not none; a zero-size object spans
    /// one line, and an unaligned one may straddle two.
    #[test]
    fn payload_durable_counts_the_lines_an_object_spans() {
        let mut m = mem(true);
        // 0x2000..0x20C0 durable, 0x20C0 onwards not.
        m.nt_write_bulk(DeviceId::Nvm, 0x2000, 192, 10);
        cycle_end_drain(&mut m, 20);
        let c = Classifier::new(&m, Ns::MAX).unwrap();
        let durable = |addr: u64, size: u32| c.payload_durable(Addr(addr), size);
        assert!(durable(0x2000, 192), "full");
        assert!(!durable(0x2000, 256), "one line missing");
        assert!(!durable(0x3000, 256), "none");
        assert!(durable(0x2010, 0), "zero size");
        assert!(
            !durable(0x20B0, 32),
            "unaligned, straddling into a missing line"
        );
        assert!(
            durable(0x2030, 32),
            "unaligned, straddling two durable lines"
        );
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
