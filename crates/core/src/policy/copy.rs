//! Copy/evacuate policies: where an evacuated object's bytes land.
//!
//! Each plan ([`crate::plan`]) selects one survivor-space policy; the
//! promotion (old-space) path is shared by every plan. The policies are
//! the paper's three survivor-allocation disciplines:
//!
//! - [`g1_survivor_copy`] — per-worker survivor regions, cache-backed
//!   when the write cache is enabled (G1);
//! - [`ps_survivor_copy`] — small LABs carved from shared regions, with
//!   direct uncached copies for large objects (Parallel Scavenge);
//! - [`shared_bump_copy`] — a single shared bump destination for every
//!   object: the semispace baseline with no regional machinery, the
//!   control that isolates what the per-worker/LAB structure itself
//!   contributes on NVM.
//!
//! All destination-region acquisition goes through the same race-explored
//! allocator sites and the same durable-mode region-metadata fences, so a
//! new policy inherits the fault plane and crash recovery for free.

use crate::access::Gx;
use crate::collector::{
    race_sync, CycleShared, Worker, DIRECT_COPY_BYTES, LAB_BYTES, RACE_SITE_ALLOC_TAKE,
    REGION_SYNC_NS,
};
use crate::durable::{self, RecordKey};
use crate::error::GcError;
use crate::oracle;
use crate::plan::CopyPolicyKind;
use nvmgc_heap::{Addr, HeapError, RegionId, RegionKind};
use nvmgc_memsim::DeviceId;

/// A PS local allocation buffer carved out of a shared region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lab {
    region: RegionId,
    cursor: u32,
    end: u32,
    cached: bool,
}

/// Durable-map mode: persists a fresh GC destination region's allocation
/// metadata before any payload lands in it, so recovery never has to
/// classify payload for a region the persistence order has no record of.
/// Free in volatile mode.
pub(crate) fn note_fresh_gc_region(w: &mut Worker, sh: &mut CycleShared<'_>, region: RegionId) {
    if sh.cfg.durable_map_active() {
        w.clock = durable::publish(sh.mem, DeviceId::Nvm, RecordKey::Region(region), w.clock);
    }
}

/// Copies `obj` into an appropriate destination, returning the physical
/// copy address and whether it lives in a DRAM cache region. The survivor
/// path dispatches on the plan's copy policy; promotion is plan-agnostic.
pub(crate) fn copy_into_dest(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    size: u32,
    promote: bool,
) -> Result<(Addr, bool), GcError> {
    if promote {
        let region = promo_region(w, sh)?;
        if let Some(copy) = do_copy(w, sh, obj, region) {
            return Ok((copy, false));
        }
        // Shared promotion region full: take a fresh one and retry.
        race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
        *sh.promo_region = Some(sh.heap.take_region(RegionKind::Old)?);
        w.clock += REGION_SYNC_NS;
        let region = sh.promo_region.expect("just set");
        note_fresh_gc_region(w, sh, region);
        let copy = do_copy(w, sh, obj, region).ok_or(HeapError::ObjectTooLarge {
            size: size as usize,
        })?;
        return Ok((copy, false));
    }
    match crate::plan::plan_of(sh.cfg.collector).copy {
        CopyPolicyKind::G1Survivor => g1_survivor_copy(w, sh, obj, size),
        CopyPolicyKind::PsLab => ps_survivor_copy(w, sh, obj, size),
        CopyPolicyKind::SharedBump => shared_bump_copy(w, sh, obj, size),
    }
}

fn promo_region(w: &mut Worker, sh: &mut CycleShared<'_>) -> Result<RegionId, HeapError> {
    if let Some(r) = *sh.promo_region {
        return Ok(r);
    }
    race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
    let r = sh.heap.take_region(RegionKind::Old)?;
    *sh.promo_region = Some(r);
    w.clock += REGION_SYNC_NS;
    note_fresh_gc_region(w, sh, r);
    Ok(r)
}

/// Bump-copies `obj` into `region`, charging the streaming traffic.
fn do_copy(w: &mut Worker, sh: &mut CycleShared<'_>, obj: Addr, region: RegionId) -> Option<Addr> {
    let clock = w.clock;
    let (copy, t) = sh.gx().copy_object(obj, region, clock);
    if copy.is_some() {
        w.clock = t;
    }
    copy
}

/// G1: per-worker survivor region, cache-backed when enabled.
fn g1_survivor_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    size: u32,
) -> Result<(Addr, bool), GcError> {
    // Try the worker's cache region first.
    if sh.cache.enabled() {
        loop {
            if let Some((cache, _nvm)) = w.cache_pair {
                if let Some(copy) = do_copy(w, sh, obj, cache) {
                    return Ok((copy, true));
                }
                // Retire the full cache region.
                sh.cache.note_retired(sh.heap, cache);
                w.cache_pair = None;
            }
            let reserve = sh.fault.cache_reserve(w.clock);
            match sh.cache.alloc_pair_pressured(sh.heap, reserve) {
                Some(pair) => {
                    w.cache_pair = Some(pair);
                    w.clock += REGION_SYNC_NS;
                }
                None => {
                    // Budget exhausted (or squeezed by injected pressure):
                    // fall back to a direct NVM copy.
                    if reserve > 0 {
                        sh.fault.note_pressure_denial();
                    }
                    sh.stats.cache_overflow_copies += 1;
                    break;
                }
            }
        }
    }
    // Direct copy into a per-worker NVM survivor region (vanilla path).
    loop {
        if let Some(region) = w.survivor {
            if let Some(copy) = do_copy(w, sh, obj, region) {
                return Ok((copy, false));
            }
        }
        race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
        w.survivor = Some(sh.heap.take_region(RegionKind::Survivor)?);
        w.clock += REGION_SYNC_NS;
        note_fresh_gc_region(w, sh, w.survivor.expect("just set"));
        if sh.heap.region(w.survivor.expect("just set")).capacity() < size {
            return Err(GcError::Heap(HeapError::ObjectTooLarge {
                size: size as usize,
            }));
        }
    }
}

/// PS: LABs carved from shared regions; large objects copy directly.
fn ps_survivor_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    size: u32,
) -> Result<(Addr, bool), GcError> {
    // Direct (un-LAB'd, uncached) copy for large objects — PS copies these
    // straight to the target space, so the write cache cannot absorb them
    // (paper §4.4: only address-contiguous buffers are cached). Anything
    // that cannot fit a LAB must also go direct, whatever the threshold.
    let lab_bytes = LAB_BYTES.min(sh.heap.config().region_size);
    if size >= DIRECT_COPY_BYTES || size > lab_bytes {
        if size > sh.heap.config().region_size {
            return Err(GcError::Heap(HeapError::ObjectTooLarge {
                size: size as usize,
            }));
        }
        loop {
            if let Some(region) = sh.shared_survivor {
                w.clock += REGION_SYNC_NS; // shared bump is synchronized
                if let Some(copy) = do_copy(w, sh, obj, region) {
                    return Ok((copy, false));
                }
            }
            race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
            let fresh = sh.heap.take_region(RegionKind::Survivor)?;
            sh.shared_survivor = Some(fresh);
            note_fresh_gc_region(w, sh, fresh);
        }
    }
    // LAB allocation.
    loop {
        if let Some(lab) = &mut w.lab {
            if lab.cursor + size <= lab.end {
                let off = lab.cursor;
                lab.cursor += size;
                let region = lab.region;
                let cached = lab.cached;
                let id = w.id;
                let clock = w.clock;
                let gx = Gx {
                    heap: sh.heap,
                    mem: sh.mem,
                };
                let copy = gx.heap.copy_object_to_offset(obj, region, off);
                let src_dev = gx.heap.device_of(obj);
                let dst_dev = gx.heap.region(region).device();
                let tr = gx.mem.read_bulk(src_dev, obj.raw(), size as u64, clock);
                let tw = gx.mem.write_bulk(dst_dev, copy.raw(), size as u64, clock);
                let _ = id;
                w.clock = tr.max(tw);
                return Ok((copy, cached));
            }
            let closed = *lab;
            w.lab = None;
            if closed.cached {
                if let Err((region, reason)) = sh.cache.note_lab_closed(sh.heap, closed.region) {
                    return Err(GcError::Oracle(oracle::OracleViolation::DrainOrder {
                        region,
                        reason,
                    }));
                }
            }
        }
        // Carve a new LAB from a shared (cache or survivor) region.
        w.clock += REGION_SYNC_NS;
        if sh.cache.enabled() {
            if let Some((cache, _nvm)) = sh.shared_cache {
                if let Some(off) = sh.heap.region_mut(cache).bump(lab_bytes) {
                    sh.heap.region_mut(cache).open_labs += 1;
                    w.lab = Some(Lab {
                        region: cache,
                        cursor: off,
                        end: off + lab_bytes,
                        cached: true,
                    });
                    continue;
                }
                sh.cache.note_retired(sh.heap, cache);
                sh.shared_cache = None;
            }
            let reserve = sh.fault.cache_reserve(w.clock);
            if let Some(pair) = sh.cache.alloc_pair_pressured(sh.heap, reserve) {
                sh.shared_cache = Some(pair);
                continue;
            }
            if reserve > 0 {
                sh.fault.note_pressure_denial();
            }
            sh.stats.cache_overflow_copies += 1;
        }
        // Uncached LAB from the shared survivor region.
        loop {
            if let Some(region) = sh.shared_survivor {
                if let Some(off) = sh.heap.region_mut(region).bump(lab_bytes) {
                    w.lab = Some(Lab {
                        region,
                        cursor: off,
                        end: off + lab_bytes,
                        cached: false,
                    });
                    break;
                }
            }
            race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
            let fresh = sh.heap.take_region(RegionKind::Survivor)?;
            sh.shared_survivor = Some(fresh);
            note_fresh_gc_region(w, sh, fresh);
        }
    }
}

/// Semispace baseline: every survivor copy goes through one shared bump
/// region — no per-worker regions, no LABs. Cache-enabled configurations
/// stage the shared region in DRAM exactly like the other plans (same
/// pressure faults, same retire/flush lifecycle), and every fresh region
/// passes through the same race-explored allocator site and durable-mode
/// metadata fence, so the baseline inherits the fault plane and crash
/// recovery with no persistence code of its own.
fn shared_bump_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    size: u32,
) -> Result<(Addr, bool), GcError> {
    if size > sh.heap.config().region_size {
        return Err(GcError::Heap(HeapError::ObjectTooLarge {
            size: size as usize,
        }));
    }
    if sh.cache.enabled() {
        loop {
            if let Some((cache, _nvm)) = sh.shared_cache {
                w.clock += REGION_SYNC_NS; // shared bump is synchronized
                if let Some(copy) = do_copy(w, sh, obj, cache) {
                    return Ok((copy, true));
                }
                sh.cache.note_retired(sh.heap, cache);
                sh.shared_cache = None;
            }
            let reserve = sh.fault.cache_reserve(w.clock);
            match sh.cache.alloc_pair_pressured(sh.heap, reserve) {
                Some(pair) => {
                    sh.shared_cache = Some(pair);
                }
                None => {
                    if reserve > 0 {
                        sh.fault.note_pressure_denial();
                    }
                    sh.stats.cache_overflow_copies += 1;
                    break;
                }
            }
        }
    }
    // Uncached copy into the shared survivor region.
    loop {
        if let Some(region) = sh.shared_survivor {
            w.clock += REGION_SYNC_NS; // shared bump is synchronized
            if let Some(copy) = do_copy(w, sh, obj, region) {
                return Ok((copy, false));
            }
        }
        race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
        let fresh = sh.heap.take_region(RegionKind::Survivor)?;
        sh.shared_survivor = Some(fresh);
        note_fresh_gc_region(w, sh, fresh);
    }
}
