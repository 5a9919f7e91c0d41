//! Scan/trace policy: the copy-and-traverse loop (paper §3.1).
//!
//! One scan step fetches a reference, resolves or establishes the
//! referent's forwarding (delegating the bytes to the plan's copy policy
//! — [`crate::policy::copy`] — and the pointer to the install policy —
//! [`crate::policy::install`]), updates the reference, and pushes the
//! copy's own slots. Work stealing, card-region scanning, injected worker
//! faults and the async-flush interleave all live here and are shared by
//! every plan.

use crate::collector::{
    CycleShared, Worker, CPU_COPY_NS, CPU_SLOT_NS, FLUSH_INTERLEAVE, IDLE_STEP_NS,
    REMSET_META_BASE, ROOT_ARRAY_BASE, STEAL_NS,
};
use crate::config::Traversal;
use crate::error::GcError;
use crate::header_map::HeaderMap;
use crate::oracle;
use crate::policy::copy::copy_into_dest;
use crate::policy::flush::{flush_chunk, FlushTask};
use crate::policy::install::{charge_map_probes, install_forwarding, map_device, InstallOutcome};
use crate::stack::Task;
use crate::write_cache::WriteCachePool;
use nvmgc_heap::{Addr, Header, HeapError, RegionKind};
use nvmgc_memsim::{DeviceId, TraceCat};

/// Executes one scan-phase step for `w`: an async-flush chunk, one task,
/// one steal attempt, or an idle wait.
pub(crate) fn step_scan(w: &mut Worker, sh: &mut CycleShared<'_>) {
    // Continue or pick up an asynchronous flush.
    if w.flush.is_some() {
        flush_chunk(w, sh, true);
        return;
    }
    if sh.cache.config().async_flush && sh.cache.has_ready() {
        let due = sh.pool.depth(w.id) == 0
            || w.slots_since_flush_check >= FLUSH_INTERLEAVE
            || sh.fault.take_forced_drain(w.clock);
        if due {
            w.slots_since_flush_check = 0;
            let region = sh.cache.take_ready().expect("has_ready checked");
            sh.mem.trace_mut().instant(
                "async-flush",
                TraceCat::Phase,
                w.id as u32,
                w.clock,
                region as u64,
            );
            w.flush = Some(FlushTask { region, cursor: 0 });
            flush_chunk(w, sh, true);
            return;
        }
    }
    // Normal work.
    let task = match sh.cfg.traversal {
        Traversal::Dfs => sh.pool.pop(w.id),
        Traversal::Bfs => sh.pool.pop_front(w.id),
    };
    if let Some(task) = task {
        host_lookahead(sh, w.id);
        w.slots_since_flush_check += 1;
        process_task(w, sh, task);
        return;
    }
    // Steal.
    if let Some((task, _victim)) = sh.pool.steal(w.id) {
        w.clock += STEAL_NS;
        if let Task::Slot(a) = task {
            let rid = a.region(sh.heap.shift());
            if sh.heap.region(rid).kind() == RegionKind::Cache {
                sh.heap.region_mut(rid).stolen = true;
            }
        }
        process_task(w, sh, task);
        return;
    }
    if sh.pool.outstanding() == 0 {
        // No live work anywhere: the phase is over for this worker.
        w.done = true;
        return;
    }
    w.clock += IDLE_STEP_NS;
}

/// Host-prefetches what the tasks `worker` pops next will load: the next
/// task's referent header and first header-map probe entry, and the slot
/// lines of the two after it. This is the simulated collector's own
/// lookahead (`cfg.prefetch`, paper §4.3) given to the host running it;
/// unlike that one it is charged nothing and feeds no simulated quantity.
fn host_lookahead(sh: &CycleShared<'_>, worker: usize) {
    let traversal = sh.cfg.traversal;
    let referent = match sh.pool.peek(worker, traversal, 0) {
        Some(Task::Slot(a)) => sh.heap.read_ref(a),
        Some(Task::Root(i)) => sh.roots.get(i as usize).copied().unwrap_or(Addr::NULL),
        Some(Task::CardRegion(_)) => Addr::NULL,
        None => return,
    };
    sh.heap.prefetch_header(referent);
    if let Some(map) = sh.hmap {
        map.host_prefetch(referent);
    }
    for k in 1..=2 {
        if let Some(Task::Slot(a)) = sh.pool.peek(worker, traversal, k) {
            sh.heap.prefetch_header(a);
        }
    }
}

/// Applies injected worker faults (pauses, slowdowns, crash points) to
/// `w` at the top of a step. Returns `true` when a crash-point oracle
/// violation was recorded — the worker stops and the cycle aborts with a
/// typed error.
pub(crate) fn apply_worker_faults(w: &mut Worker, sh: &mut CycleShared<'_>) -> bool {
    if sh.fault.is_empty() {
        return false;
    }
    w.clock = sh.fault.worker_tax(w.id, w.clock);
    if sh.fault.take_crash_point(w.clock) {
        if let Err(v) = oracle::check_crash_point(
            sh.heap,
            sh.hmap,
            &sh.cache,
            &sh.self_forwarded,
            &sh.retained,
        ) {
            sh.fail(w, v);
            return true;
        }
    }
    if sh.fault.take_power_failure(w.clock) {
        if sh.cfg.durable_map_active() {
            // Durable mode: the failure is survivable. Record the crash
            // instant — every worker fast-finishes and the cycle aborts
            // into crash recovery instead of completing.
            sh.crashed_at.get_or_insert(w.clock);
            w.done = true;
            return true;
        }
        match oracle::check_power_failure(sh.heap, sh.hmap, &sh.cache, sh.mem) {
            Ok(Some(report)) => {
                sh.fault.observations.discarded_lines += report.discarded_lines;
                sh.fault.observations.torn_lines += report.torn_lines;
            }
            Ok(None) => {}
            Err(v) => {
                sh.fail(w, v);
                return true;
            }
        }
    }
    false
}

/// Processes one reference location (paper §3.1 steps 1–4).
fn process_task(w: &mut Worker, sh: &mut CycleShared<'_>, task: Task) {
    if let Task::CardRegion(region) = task {
        scan_card_region(w, sh, region);
        return;
    }
    sh.stats.slots_processed += 1;
    w.clock += CPU_SLOT_NS;
    // Step 1: load the reference.
    let (slot, referent) = match task {
        Task::Root(i) => {
            w.clock = sh.mem.read_word(
                w.id,
                DeviceId::Dram,
                ROOT_ARRAY_BASE + (i as u64) * 8,
                w.clock,
            );
            (None, sh.roots[i as usize])
        }
        Task::Slot(a) => {
            let rid = a.region(sh.heap.shift());
            let is_cache = sh.heap.region(rid).kind() == RegionKind::Cache;
            let id = w.id;
            let clock = w.clock;
            let (v, t) = sh.gx().read_ref(id, a, clock);
            w.clock = t;
            if is_cache {
                if let Err(e) = sh.cache.note_slot_done(sh.heap, rid) {
                    sh.fail(w, e);
                    return;
                }
            }
            (Some((a, rid)), v)
        }
        Task::CardRegion(_) => unreachable!("handled above"),
    };
    // Filter dead/stale entries: null references, references that no
    // longer point into the collection set (stale remset entries).
    let in_cset = !referent.is_null()
        && sh
            .heap
            .region_of(referent)
            .map(|r| sh.heap.region(r).in_cset)
            .unwrap_or(false);
    if !in_cset {
        sh.stats.slots_filtered += 1;
        return;
    }
    // Steps 2–3: forward (copying if we are first).
    let Some(new_addr) = resolve_forward(w, sh, referent) else {
        return; // fatal error recorded
    };
    // Step 4: update the reference.
    match slot {
        None => {
            if let Task::Root(i) = task {
                sh.roots[i as usize] = new_addr;
                w.clock = sh.mem.write_word(
                    w.id,
                    DeviceId::Dram,
                    ROOT_ARRAY_BASE + (i as u64) * 8,
                    w.clock,
                );
            }
        }
        Some((a, _rid)) => {
            let id = w.id;
            let clock = w.clock;
            w.clock = sh.gx().write_ref(id, a, new_addr, clock);
        }
    }
}

/// Returns the referent's final (public NVM) address, copying it if it has
/// not been copied yet. `None` means a fatal heap error was recorded.
fn resolve_forward(w: &mut Worker, sh: &mut CycleShared<'_>, obj: Addr) -> Option<Addr> {
    // Header-map lookup first (paper §3.3).
    if let Some(map) = sh.hmap {
        let (found, probes) = map.get(obj);
        charge_map_probes(w, sh, map, obj, probes);
        if let Some(addr) = found {
            sh.stats.hm_hits += 1;
            return Some(addr);
        }
        // Fall through: must still check the NVM header (the map may have
        // been full when the forwarding pointer was installed).
    }
    let id = w.id;
    let clock = w.clock;
    let (hdr, t) = sh.gx().read_header(id, obj, clock);
    w.clock = t;
    if let Some(fwd) = hdr.forwardee() {
        return Some(fwd);
    }
    copy_and_forward(w, sh, obj, hdr)
}

/// Copies `obj` to the survivor space (or promotes it), installs the
/// forwarding pointer, and pushes the copy's reference slots.
fn copy_and_forward(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    hdr: Header,
) -> Option<Addr> {
    let class = hdr.class_id();
    let size = sh.heap.classes().get(class).size();
    let age = hdr.age().saturating_add(1);
    let from_old = sh.heap.region(obj.region(sh.heap.shift())).kind() == RegionKind::Old;
    let promote = age >= sh.cfg.tenure_age || from_old;
    w.clock += CPU_COPY_NS;
    // Host hint: the children's headers load while the copy runs.
    for i in 0..sh.heap.classes().get(class).num_refs {
        sh.heap
            .prefetch_header(sh.heap.read_ref(sh.heap.ref_slot(obj, i)));
    }

    let (copy, cached) = match copy_into_dest(w, sh, obj, size, promote) {
        Ok(pair) => pair,
        Err(GcError::Heap(HeapError::OutOfRegions)) => {
            // Evacuation failure: leave the object in place, self-forward
            // it (G1's handling), and retain its region at cycle end.
            sh.stats.evac_failures += 1;
            sh.self_forwarded.push((obj, hdr));
            let region = obj.region(sh.heap.shift());
            if !sh.retained.contains(&region) {
                sh.retained.push(region);
            }
            (obj, false)
        }
        Err(e) => {
            sh.fail(w, e);
            return None;
        }
    };
    // The copy's public address: cache regions translate through the
    // region mapping; direct copies are already at their final address.
    let public = if cached {
        WriteCachePool::translate(sh.heap, copy)
    } else {
        copy
    };
    // Refresh the copy's header with the new age (cheap: the copy is
    // cache-hot after the memcpy).
    {
        let id = w.id;
        let clock = w.clock;
        let t = sh
            .gx()
            .write_header(id, copy, Header::new(class, age), clock);
        w.clock = t;
    }
    // Install the forwarding pointer (paper §3.1 step 3 / Algorithm 1).
    match install_forwarding(w, sh, obj, public)? {
        InstallOutcome::Won(other) => return Some(other),
        InstallOutcome::Installed => {}
    }

    sh.stats.copied_objects += 1;
    if promote {
        sh.stats.promoted_bytes += size as u64;
    } else {
        sh.stats.copied_bytes += size as u64;
    }

    // Push the copy's reference slots (paper §3.1 step 4, second half).
    let nrefs = sh.heap.classes().get(class).num_refs;
    let shift = sh.heap.shift();
    let copy_rid = copy.region(shift);
    let copy_is_cache = sh.heap.region(copy_rid).kind() == RegionKind::Cache;
    let copy_is_old = sh.heap.region(copy_rid).kind() == RegionKind::Old;
    for i in 0..nrefs {
        let child_slot = sh.heap.ref_slot(copy, i);
        // Reading the just-copied slot is cheap (cache-hot).
        let id = w.id;
        let clock = w.clock;
        let (child, t) = sh.gx().read_ref(id, child_slot, clock);
        w.clock = t;
        if child.is_null() {
            continue;
        }
        let child_in_cset = sh
            .heap
            .region_of(child)
            .map(|r| sh.heap.region(r).in_cset)
            .unwrap_or(false);
        if !child_in_cset {
            // Promotion remset maintenance: an old-located slot now holds
            // a cross-region reference to a non-collected region; record
            // it so a future mixed collection of that region finds it
            // (real G1 enqueues these for remset refinement).
            if copy_is_old {
                if let Ok(child_region) = sh.heap.region_of(child) {
                    if child_region != copy_rid
                        && sh.heap.region_mut(child_region).remset.insert(child_slot)
                    {
                        w.clock = sh.mem.write_word(
                            w.id,
                            DeviceId::Dram,
                            REMSET_META_BASE | child_slot.raw(),
                            w.clock,
                        );
                    }
                }
            }
            continue;
        }
        sh.pool.push(w.id, Task::Slot(child_slot));
        if copy_is_cache {
            sh.heap.region_mut(copy_rid).pending_slots += 1;
        }
        if sh.cfg.prefetch {
            let id = w.id;
            let clock = w.clock;
            let t = sh.gx().prefetch_obj(id, child, clock);
            w.clock = t;
            // Extended prefetching: warm the header-map probe line for
            // the child (paper §4.3).
            if let Some(map) = sh.hmap {
                let entry = HeaderMap::entry_addr(map.probe_base(child));
                let dev = map_device(sh);
                w.clock = sh.mem.prefetch(w.id, dev, entry, w.clock);
            }
        }
    }
    Some(public)
}

/// Scans the dirty cards of an old region (card-table remset
/// mode): walk the region's objects, and for every reference slot whose
/// card is dirty and whose target is in the collection set, process the
/// slot. Cards are cleared first; slots that still point to young objects
/// after the update are re-dirtied by the write barrier.
fn scan_card_region(w: &mut Worker, sh: &mut CycleShared<'_>, region: u32) {
    let Some(ct) = sh.heap.card_table_mut() else {
        return;
    };
    let dirty = ct.clear_region(region);
    if dirty == 0 {
        return;
    }
    let cards = u64::from(ct.cards_per_region());
    // Charge: read the region's card bytes + stream over the used part of
    // the region to find reference slots (the card-scanning cost that the
    // precise remset avoids).
    let dev = sh.heap.region(region).device();
    let used = sh.heap.region(region).used() as u64;
    w.clock = sh.mem.read_bulk(
        DeviceId::Dram,
        REMSET_META_BASE | (u64::from(region) * cards),
        cards,
        w.clock,
    );
    let base = sh.heap.addr_of(region, 0).raw();
    w.clock = sh.mem.read_bulk(dev, base, used, w.clock);

    // Collect the interesting slots first (cheap pass over real memory),
    // then process each like a remset entry.
    let mut slots: Vec<Addr> = Vec::new();
    let heap = &mut *sh.heap;
    let shift = heap.shift();
    let mut scan_offsets: Vec<(Addr, u32)> = Vec::new();
    heap.walk_region(region, |obj, class| {
        let nrefs = heap.classes().get(class).num_refs;
        if nrefs > 0 {
            scan_offsets.push((obj, nrefs));
        }
    });
    for (obj, nrefs) in scan_offsets {
        for i in 0..nrefs {
            let slot = heap.ref_slot(obj, i);
            let value = heap.read_ref(slot);
            if value.is_null() {
                continue;
            }
            let vr = value.region(shift);
            if heap.region(vr).in_cset {
                slots.push(slot);
            }
        }
    }
    for slot in slots {
        process_task(w, sh, Task::Slot(slot));
    }
}
