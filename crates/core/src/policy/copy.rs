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
//! Each rule the policies share is one function here: a destination
//! region is taken only by [`take_dest`] (the race-explored allocator site
//! and the durable-mode region-metadata fence), a write-cache pair comes
//! only from [`next_cache_pair`] (the injected-pressure hook), and a
//! shared survivor region is bumped only by [`shared_survivor_copy`]. A
//! new policy inherits the fault plane and crash recovery for free.

use crate::collector::{
    race_sync, CycleShared, Worker, DIRECT_COPY_BYTES, LAB_BYTES, RACE_SITE_ALLOC_TAKE,
    REGION_SYNC_NS,
};
use crate::durable::{self, RecordKey};
use crate::error::GcError;
use crate::plan::CopyPolicyKind;
use nvmgc_heap::{Addr, HeapError, RegionId, RegionKind};
use nvmgc_memsim::Ns;

/// A PS local allocation buffer carved out of a shared region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lab {
    region: RegionId,
    cursor: u32,
    end: u32,
    cached: bool,
}

/// Takes a fresh GC destination region of `kind`: the race-explored
/// allocator site, the take, `sync` ns of synchronization, and — in
/// durable-map mode — the region's allocation metadata persisted before
/// any payload lands in it, so recovery never has to classify payload for
/// a region the persistence order has no record of.
fn take_dest(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    kind: RegionKind,
    sync: Ns,
) -> Result<RegionId, HeapError> {
    race_sync(w, sh, RACE_SITE_ALLOC_TAKE);
    let region = sh.heap.take_region(kind)?;
    w.clock += sync;
    if sh.cfg.durable_map_active() {
        w.clock = durable::publish(sh.mem, RecordKey::Region(region), w.clock);
    }
    Ok(region)
}

/// The next write-cache (cache, nvm) pair, with the injected cache
/// pressure read at the worker's clock. `None` when the budget is
/// exhausted or squeezed: the caller falls back to an uncached copy,
/// counted as a cache-overflow copy (and a pressure denial when pressure
/// was on).
fn next_cache_pair(w: &Worker, sh: &mut CycleShared<'_>) -> Option<(RegionId, RegionId)> {
    let reserve = sh.fault.cache_reserve(w.clock);
    let pair = sh.cache.alloc_pair_pressured(sh.heap, reserve);
    if pair.is_none() {
        if reserve > 0 {
            sh.fault.note_pressure_denial();
        }
        sh.stats.cache_overflow_copies += 1;
    }
    pair
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
    // No region, fresh or not, holds an object larger than a region.
    if size > sh.heap.config().region_size {
        return Err(GcError::Heap(HeapError::ObjectTooLarge {
            size: size as usize,
        }));
    }
    if promote {
        // The shared promotion region: bumped free, taken synchronized.
        loop {
            if let Some(region) = *sh.promo_region {
                if let Some(copy) = do_copy(w, sh, obj, region) {
                    return Ok((copy, false));
                }
            }
            *sh.promo_region = Some(take_dest(w, sh, RegionKind::Old, REGION_SYNC_NS)?);
        }
    }
    match crate::plan::plan_of(sh.cfg.collector).copy {
        CopyPolicyKind::G1Survivor => g1_survivor_copy(w, sh, obj),
        CopyPolicyKind::PsLab => ps_survivor_copy(w, sh, obj, size),
        CopyPolicyKind::SharedBump => shared_bump_copy(w, sh, obj),
    }
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

/// Bump-copies `obj` into the shared survivor region, taking a fresh one
/// when it is absent or full. Every bump of a shared region is
/// synchronized, so the take itself adds no sync.
fn shared_survivor_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
) -> Result<(Addr, bool), GcError> {
    loop {
        if let Some(region) = sh.shared_survivor {
            w.clock += REGION_SYNC_NS; // shared bump is synchronized
            if let Some(copy) = do_copy(w, sh, obj, region) {
                return Ok((copy, false));
            }
        }
        sh.shared_survivor = Some(take_dest(w, sh, RegionKind::Survivor, 0)?);
    }
}

/// G1: per-worker survivor region, cache-backed when enabled. A region
/// one worker owns is bumped free; taking it is synchronized.
fn g1_survivor_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
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
            let Some(pair) = next_cache_pair(w, sh) else {
                break; // direct NVM copy below
            };
            w.cache_pair = Some(pair);
            w.clock += REGION_SYNC_NS;
        }
    }
    // Direct copy into a per-worker NVM survivor region (vanilla path).
    loop {
        if let Some(region) = w.survivor {
            if let Some(copy) = do_copy(w, sh, obj, region) {
                return Ok((copy, false));
            }
        }
        w.survivor = Some(take_dest(w, sh, RegionKind::Survivor, REGION_SYNC_NS)?);
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
        return shared_survivor_copy(w, sh, obj);
    }
    // LAB allocation.
    loop {
        if let Some(lab) = &mut w.lab {
            if lab.cursor + size <= lab.end {
                let (region, offset, cached) = (lab.region, lab.cursor, lab.cached);
                lab.cursor += size;
                let clock = w.clock;
                let (copy, t) = sh.gx().copy_object_at(obj, region, offset, size, clock);
                w.clock = t;
                return Ok((copy, cached));
            }
            let closed = *lab;
            w.lab = None;
            if closed.cached {
                sh.cache.note_lab_closed(sh.heap, closed.region)?;
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
            if let Some(pair) = next_cache_pair(w, sh) {
                sh.shared_cache = Some(pair);
                continue;
            }
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
            sh.shared_survivor = Some(take_dest(w, sh, RegionKind::Survivor, 0)?);
        }
    }
}

/// Semispace baseline: every survivor copy goes through one shared bump
/// region — no per-worker regions, no LABs. Cache-enabled configurations
/// stage the shared region in DRAM exactly like the other plans (same
/// pressure faults, same retire/flush lifecycle), and every fresh region
/// comes from [`take_dest`], so the baseline inherits the fault plane and
/// crash recovery with no persistence code of its own.
fn shared_bump_copy(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
) -> Result<(Addr, bool), GcError> {
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
            let Some(pair) = next_cache_pair(w, sh) else {
                break; // uncached copy below
            };
            sh.shared_cache = Some(pair);
        }
    }
    shared_survivor_copy(w, sh, obj)
}
