//! Write-cache flush policy and the cleanup packets' step functions.
//!
//! Flushing streams DRAM cache regions back to their mapped NVM regions
//! in chunks (asynchronously during the scan packet, exhaustively during
//! the write-back packet), honoring the drain-path persistence order:
//! region metadata reaches the medium before any payload. The header-map
//! cleanup packet's parallel zeroing lives here too. All of it is shared
//! policy code — every plan runs the same flush discipline.

use crate::collector::{race_sync, CycleShared, Worker, RACE_SITE_ALLOC_RELEASE};
use crate::durable::{self, RecordKey};
use crate::header_map::{HeaderMap, ENTRY_BYTES};
use crate::policy::install::map_device;
use nvmgc_heap::RegionId;
use nvmgc_memsim::{DeviceId, TraceCat};

/// An in-progress region flush (chunked so other work interleaves).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushTask {
    pub(crate) region: RegionId,
    pub(crate) cursor: u32,
}

/// Executes one write-back-phase step: flush a chunk of a cache region or
/// pick up the next one; fence and finish when the queue drains.
pub(crate) fn step_writeback(w: &mut Worker, sh: &mut CycleShared<'_>) {
    if w.flush.is_some() {
        flush_chunk(w, sh, false);
        return;
    }
    match sh.writeback_queue.pop_front() {
        Some(region) => {
            w.flush = Some(FlushTask { region, cursor: 0 });
            flush_chunk(w, sh, false);
        }
        None => {
            // One fence before GC ends covers all NT stores (paper §4.1).
            sh.mem
                .trace_mut()
                .instant("fence", TraceCat::Fence, w.id as u32, w.clock, 0);
            w.clock = sh.mem.fence(w.clock);
            w.done = true;
        }
    }
}

/// Streams one chunk of a cache region back to its mapped NVM region.
pub(crate) fn flush_chunk(w: &mut Worker, sh: &mut CycleShared<'_>, during_scan: bool) {
    let task = w.flush.expect("flush task present");
    let region = task.region;
    let used = sh.heap.region(region).used();
    let nvm_region = sh
        .heap
        .region(region)
        .mapped_to
        .expect("cache region is mapped");
    let chunk = sh.cfg.flush_chunk_bytes.min(used - task.cursor);
    if chunk > 0 {
        let src = sh.heap.addr_of(region, task.cursor).raw();
        let tr = sh.mem.read_bulk(DeviceId::Dram, src, chunk as u64, w.clock);
        let nvm = sh.heap.region(nvm_region).device();
        let dst = sh.heap.addr_of(nvm_region, task.cursor).raw();
        // Drain-path persistence ordering: the target region's allocation
        // metadata reaches the medium before any of its payload (one
        // synchronous fence at the start of the region's flush).
        if task.cursor == 0 {
            w.clock = durable::publish(sh.mem, RecordKey::Region(nvm_region), w.clock);
        }
        let tw = if sh.cache.config().nt_store {
            sh.mem.nt_write_bulk(nvm, dst, chunk as u64, w.clock)
        } else {
            let t = sh.mem.write_bulk(nvm, dst, chunk as u64, w.clock);
            // Regular-store drains are explicitly written back (CLWB
            // over the chunk) so the flush still advances durability.
            durable::write_back(sh.mem, dst, chunk as u64, t);
            t
        };
        w.clock = tr.max(tw);
    }
    let cursor = task.cursor + chunk;
    if cursor < used {
        w.flush = Some(FlushTask { region, cursor });
        return;
    }
    // Chunk done: materialize the bytes in the NVM region and release the
    // DRAM cache region.
    sh.heap.blit_region(region, nvm_region);
    if let Err(v) = sh.cache.note_flushed(sh.heap, region, during_scan) {
        sh.fail(w, v);
        w.flush = None;
        return;
    }
    race_sync(w, sh, RACE_SITE_ALLOC_RELEASE);
    if let Err(e) = durable::release_region(sh.heap, sh.mem, region) {
        // A cache region vanishing from under its own flush means the
        // free-count bookkeeping is already corrupt; surface it instead
        // of silently double-freeing.
        sh.fail(w, e);
    }
    w.flush = None;
}

/// Executes one header-map-cleanup step (parallel zeroing, paper §3.3).
pub(crate) fn step_clear(w: &mut Worker, sh: &mut CycleShared<'_>) {
    let Some(map) = sh.hmap else {
        w.done = true;
        return;
    };
    let Some((start, end)) = w.clear_range else {
        w.done = true;
        return;
    };
    // Zero up to 4096 entries (64 KiB) per step.
    let step_entries = 4096.min(end - start);
    map.clear_range(start, start + step_entries);
    let bytes = (step_entries as u64) * ENTRY_BYTES;
    let dev = map_device(sh);
    w.clock = sh
        .mem
        .write_bulk(dev, HeaderMap::entry_addr(start as u64), bytes, w.clock);
    let next = start + step_entries;
    w.clear_range = if next < end { Some((next, end)) } else { None };
    if w.clear_range.is_none() {
        w.done = true;
    }
}

/// Assigns header-map clear ranges to workers.
pub(crate) fn assign_clear_ranges(workers: &mut [Worker], capacity: usize) {
    let n = workers.len().max(1);
    let per = capacity.div_ceil(n);
    for (i, w) in workers.iter_mut().enumerate() {
        let start = (i * per).min(capacity);
        let end = ((i + 1) * per).min(capacity);
        w.clear_range = if start < end {
            Some((start, end))
        } else {
            None
        };
    }
}
