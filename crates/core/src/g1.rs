//! Young-generation collection orchestration (G1-like front end).
//!
//! A collection cycle runs up to three sub-phases under the deterministic
//! engine:
//!
//! 1. **copy-and-traverse** (read-mostly when the write cache is active):
//!    roots and remembered-set entries are distributed over per-worker
//!    stacks; workers copy live objects out of the collection set,
//!    stealing work when idle, optionally flushing ready cache regions
//!    asynchronously;
//! 2. **write-back** (write-only): remaining cache regions stream to their
//!    mapped NVM survivor regions (non-temporal stores + one fence);
//! 3. **header-map cleanup**: all workers zero the map in parallel.
//!
//! The same front end drives every plan ([`crate::plan`]): the PS-like and
//! semispace collectors differ from G1 only in the survivor-space copy
//! policy their plan names, which lives in [`crate::policy::copy`].

use crate::collector::{CycleShared, Worker};
use crate::config::GcConfig;
use crate::durable;
use crate::error::{accounting, GcError};
use crate::fault::FaultState;
use crate::header_map::HeaderMap;
use crate::marking::{self, MarkState};
use crate::oracle;
use crate::plan;
use crate::policy::drain::drain_allocator_journal;
use crate::recovery::{self, CrashState};
use crate::scheduler::{self, PacketKind};
use crate::stack::{Task, WorkPool};
use crate::stats::{GcStats, RunGcStats};
use crate::write_cache::WriteCachePool;
use nvmgc_heap::{Addr, Heap, RegionId, RegionKind};
use nvmgc_memsim::{DeviceId, MemorySystem, Ns, PhaseKind, TraceCat, TRACK_CYCLE};
use std::collections::VecDeque;

/// Result of one collection cycle.
#[derive(Debug)]
pub struct GcCycleOutcome {
    /// Cycle statistics (pause length, copy volume, optimization counters).
    pub stats: GcStats,
    /// Simulated time at which mutators resume.
    pub end_ns: Ns,
}

/// A young-generation copying collector with the paper's NVM-aware
/// optimizations, usable in either G1 or PS mode (see
/// [`GcConfig::collector`]).
///
/// The collector persists across cycles: it owns the header map (a
/// long-lived DRAM structure) and the shared promotion region.
#[derive(Debug)]
pub struct G1Collector {
    cfg: GcConfig,
    hmap: Option<HeaderMap>,
    promo_region: Option<RegionId>,
    /// Accumulated statistics over all cycles.
    pub run_stats: RunGcStats,
}

impl G1Collector {
    /// Creates a collector for the given configuration.
    ///
    /// The header map is allocated once here when the configuration
    /// activates it (enabled and at or above the thread threshold).
    pub fn new(cfg: GcConfig) -> Self {
        let hmap = if cfg.header_map_active() {
            Some(HeaderMap::new(
                cfg.header_map.max_bytes,
                cfg.header_map.search_bound,
            ))
        } else {
            None
        };
        G1Collector {
            cfg,
            hmap,
            promo_region: None,
            run_stats: RunGcStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// The header map, if active (exposed for tests and diagnostics).
    pub fn header_map(&self) -> Option<&HeaderMap> {
        self.hmap.as_ref()
    }

    /// Runs one stop-the-world young collection starting at simulated time
    /// `start`. `roots` are the mutator's root references, updated in
    /// place.
    ///
    /// Evacuation failures (no space for a copy) are handled like G1's:
    /// the object is self-forwarded in place and its region retained for
    /// the next collection. An error is returned only when even the GC's
    /// own bookkeeping cannot proceed — or when an injected crash point
    /// catches a recoverability invariant violated (see [`crate::oracle`]).
    pub fn collect(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        start: Ns,
    ) -> Result<GcCycleOutcome, GcError> {
        self.collect_with_cset(heap, mem, roots, start, &[], None)
    }

    /// Recovers from a power failure that interrupted a durable-mode
    /// evacuation (a [`GcError::PowerCrash`]) and finishes the crashed
    /// cycle.
    ///
    /// The durable header map fences every install (key CAS → value
    /// publish → fence), so the [`nvmgc_memsim::CrashImage`] holds a
    /// well-defined durable prefix of forwarding records. Recovery walks
    /// that prefix: a record whose install fence, destination-region
    /// metadata and payload lines all predate the crash instant is
    /// *replayed* as-is; every other forwarded object is *re-evacuated*
    /// from its intact from-space copy (copy-based GC never mutates
    /// from-space before the cycle commits, which is what makes the
    /// crashed cycle recoverable at all). The interrupted cycle is then
    /// re-run to completion with a reconstructed work list, and
    /// [`oracle::check_recovery_completion`] asserts that no object was
    /// lost, duplicated, or double-forwarded across the crash boundary.
    ///
    /// The returned outcome has `stats.recovered_cycles == 1`;
    /// `stats.replayed_map_entries` / `stats.resumed_evacuations` break
    /// down the prefix walk. A second power failure during the resumed
    /// cycle surfaces as another [`GcError::PowerCrash`], which can be
    /// recovered the same way.
    pub fn recover_from_crash(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        crash: CrashState,
    ) -> Result<GcCycleOutcome, GcError> {
        let cycle_idx = self.run_stats.cycles() as u64;
        let (seed, now) =
            recovery::recover(&self.cfg, self.hmap.as_ref(), heap, mem, &crash, cycle_idx)?;
        let extra_old = crash.extra_old.clone();
        self.collect_with_cset(heap, mem, roots, now, &extra_old, Some((crash, seed)))
    }

    /// Runs a *mixed* collection (paper §2.1): a stop-the-world marking
    /// pass computes per-region liveness, the garbage-first heuristic
    /// selects the old regions with the most reclaimable space (up to a
    /// quarter of the old generation, liveness below 85 %), dead
    /// humongous regions are freed whole, and the young collection
    /// evacuates the combined collection set.
    ///
    /// The marking time is reported in `stats.mark_ns` and excluded from
    /// the pause (real G1 marks concurrently with the mutator).
    pub fn collect_mixed(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        start: Ns,
    ) -> Result<GcCycleOutcome, GcError> {
        assert!(
            heap.card_table().is_none(),
            "mixed collections require precise remembered sets"
        );
        // Garbage-first selection of old regions.
        self.collect_marked(heap, mem, roots, start, |heap, state| {
            let mut candidates: Vec<(RegionId, f64)> = heap
                .old()
                .iter()
                .copied()
                .map(|r| (r, state.liveness(heap, r)))
                .filter(|&(_, live)| live < 0.85)
                .collect();
            candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN liveness"));
            let budget = (heap.old().len() / 4).max(1);
            candidates.iter().take(budget).map(|&(r, _)| r).collect()
        })
    }

    /// Runs the bottom-line *full* collection (paper §2.1): a
    /// stop-the-world mark over the whole heap followed by evacuation of
    /// every young and old region, compacting all live data into fresh
    /// regions and freeing everything else. Dead humongous regions are
    /// reclaimed whole.
    ///
    /// Unlike [`G1Collector::collect_mixed`], the marking time *is* part
    /// of the pause (full GC is fully stop-the-world); it is still
    /// reported in `stats.mark_ns`, so `pause = mark_ns + phases.total()`.
    ///
    /// If the free space cannot hold all live data, the remainder is
    /// self-forwarded in place and the affected regions are retained —
    /// a degraded but safe partial compaction.
    pub fn collect_full(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        start: Ns,
    ) -> Result<GcCycleOutcome, GcError> {
        self.collect_marked(heap, mem, roots, start, |heap, _| heap.old().to_vec())
    }

    /// The shared body of the marked collections: a stop-the-world mark,
    /// eager reclaim of dead humongous regions, then a young collection
    /// that also evacuates the old regions `select` picks from the
    /// marking result.
    fn collect_marked(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        start: Ns,
        select: impl FnOnce(&Heap, &MarkState) -> Vec<RegionId>,
    ) -> Result<GcCycleOutcome, GcError> {
        let threads = self.cfg.threads.max(1);
        let mark = marking::mark_heap(heap, mem, threads, roots, start)?;
        mem.trace_mut().span(
            "mark",
            TraceCat::Phase,
            TRACK_CYCLE,
            start,
            mark.end_ns,
            self.run_stats.cycles() as u64,
        );

        // Reclaim dead humongous regions immediately (G1's eager reclaim).
        let mut humongous_freed = 0u64;
        let dead_humongous: Vec<RegionId> = heap
            .humongous()
            .iter()
            .copied()
            .filter(|&r| mark.state.live_bytes(r) == 0)
            .collect();
        let region_size = heap.config().region_size as u64;
        let mut freed: nvmgc_memsim::FxHashSet<RegionId> = nvmgc_memsim::FxHashSet::default();
        for r in dead_humongous {
            let base = heap.addr_of(r, 0).raw();
            heap.release_region(r).map_err(accounting)?;
            mem.invalidate_range(base, region_size);
            mem.persist_forget_range(base, region_size);
            humongous_freed += 1;
            freed.insert(r);
        }
        heap.scrub_remset_sources(&freed);

        // Retire the shared promotion region so it is selectable (a fresh
        // one is taken on the first promotion of the evacuation phase).
        self.promo_region = None;

        let old_cset = select(heap, &mark.state);
        let mut out = self.collect_with_cset(heap, mem, roots, mark.end_ns, &old_cset, None)?;
        out.stats.mark_ns = mark.end_ns - start;
        out.stats.engine_steps += mark.steps;
        out.stats.humongous_freed = humongous_freed;
        Ok(out)
    }

    /// One evacuation cycle; a resumed one passes the crash it recovers
    /// from and the statistics [`recovery::recover`] seeded.
    fn collect_with_cset(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        roots: &mut [Addr],
        start: Ns,
        extra_old: &[RegionId],
        resume: Option<(CrashState, GcStats)>,
    ) -> Result<GcCycleOutcome, GcError> {
        let threads = self.cfg.threads.max(1);
        let cycle_idx = self.run_stats.cycles() as u64;

        // --- Collection set: every young region + selected old regions;
        // on resume, the crashed cycle's saved set (the abort leaves the
        // eden/survivor lists and `in_cset` flags untouched). ------------
        let cset: Vec<RegionId> = match &resume {
            Some((crash, _)) => crash.cset.clone(),
            None => heap
                .eden()
                .iter()
                .chain(heap.survivor().iter())
                .chain(extra_old.iter())
                .copied()
                .collect(),
        };
        for &r in &cset {
            heap.region_mut(r).in_cset = true;
        }

        // --- Gather initial work: roots + remembered sets / dirty cards. ---
        let mut tasks: Vec<Task> = (0..roots.len() as u32).map(Task::Root).collect();
        let mut remset_bytes = 0u64;
        if let Some((crash, _)) = &resume {
            // The crashed cycle's initial work list (remsets were drained
            // destructively, so durable mode saves it up front), plus a
            // re-scan of every established copy and every self-forwarded
            // object — the interrupted transitive closure completes from
            // there. Already-processed slots point out of the collection
            // set and filter as no-ops, so the replay is idempotent.
            tasks = crash.initial_tasks.clone();
            let rescan = |tasks: &mut Vec<Task>, heap: &Heap, obj: Addr, n: u32| {
                for i in 0..n {
                    tasks.push(Task::Slot(heap.ref_slot(obj, i)));
                }
            };
            for rec in durable::forwarding_records(self.hmap.as_ref(), &crash.full_installs) {
                if rec.old != rec.new {
                    rescan(&mut tasks, heap, rec.new, heap.num_refs(rec.new));
                }
            }
            for &(obj, hdr) in &crash.self_forwarded {
                // The live header is a self-forward; the saved original
                // header supplies the class.
                rescan(
                    &mut tasks,
                    heap,
                    obj,
                    heap.classes().get(hdr.class_id()).num_refs,
                );
            }
        } else if heap.card_table().is_some() {
            // Card-table mode (stock PS design): one scan task per old or
            // humongous region with dirty cards. Mixed collections need
            // precise remsets, so extra_old must be empty here.
            assert!(
                extra_old.is_empty(),
                "mixed collections require precise remembered sets"
            );
            let dirty: Vec<RegionId> = heap
                .old()
                .iter()
                .chain(heap.humongous().iter())
                .copied()
                .filter(|&r| heap.card_table().expect("checked").region_dirty(r))
                .collect();
            for r in dirty {
                tasks.push(Task::CardRegion(r));
            }
        } else {
            for &r in &cset {
                remset_bytes += heap.region(r).remset.approx_bytes();
                for slot in heap.region_mut(r).remset.drain_sorted() {
                    tasks.push(Task::Slot(slot));
                }
            }
            // Scrub stale entries: a recorded slot is only valid while its
            // containing region is still old-like and the slot lies below
            // the allocation watermark — regions freed by earlier mixed
            // collections may have been recycled for anything (G1 scrubs
            // remsets during cleanup for the same reason).
            let shift = heap.shift();
            tasks.retain(|t| match *t {
                Task::Slot(slot) => {
                    let region = slot.region(shift);
                    let r = heap.region(region);
                    // Slots in collection-set regions are doomed locations:
                    // their containing objects are being evacuated and the
                    // copies' slots are handled by tracing (processing the
                    // doomed slot would also re-record it into a remset,
                    // where it would dangle after the region is freed).
                    matches!(r.kind(), RegionKind::Old | RegionKind::Humongous)
                        && !r.in_cset
                        && slot.offset(shift) + 8 <= r.used()
                }
                _ => true,
            });
        }

        // Durable mode must be able to rebuild this exact work list after
        // a power failure (the remsets above were consumed), so the crash
        // state keeps a copy.
        let saved_tasks = self.cfg.durable_map_active().then(|| tasks.clone());
        let mut pool = WorkPool::new(threads);
        for (i, t) in tasks.into_iter().enumerate() {
            pool.push(i % threads, t);
        }

        // Safepoint journal drain: allocator mutations accumulated since
        // the last safepoint (mutator-phase eden takes, humongous frees)
        // are journaled in one batch before workers start — fences stay
        // off the mutator's hot path, paper-style.
        let mut pre_fences = 0u64;
        let start = drain_allocator_journal(&self.cfg, heap, mem, &mut pre_fences, start);

        // --- Workers. ------------------------------------------------------
        // All workers begin after the fixed STW entry overhead (safepoint
        // + phase setup); it is part of the pause.
        let work_start = start + self.cfg.safepoint_ns;
        let mut workers: Vec<Worker> = (0..threads).map(|i| Worker::new(i, work_start)).collect();
        // Charge the remembered-set scan (DRAM metadata) split over workers.
        let share = remset_bytes / threads as u64;
        for w in workers.iter_mut() {
            let base = 0x6000_0000_0000_0000 | (w.id as u64 * share);
            w.clock = mem.read_bulk(DeviceId::Dram, base, share, w.clock);
        }

        let mut sh = CycleShared {
            heap,
            mem,
            cfg: &self.cfg,
            pool,
            cache: WriteCachePool::new(self.cfg.write_cache),
            hmap: self.hmap.as_ref(),
            roots,
            promo_region: &mut self.promo_region,
            shared_survivor: None,
            shared_cache: None,
            writeback_queue: VecDeque::new(),
            stats: resume
                .as_ref()
                .map_or_else(GcStats::default, |(_, seed)| seed.clone()),
            fault: FaultState::new(&self.cfg.fault.gc),
            error: None,
            self_forwarded: Vec::new(),
            retained: Vec::new(),
            full_installs: Vec::new(),
            crashed_at: None,
        };
        sh.stats.alloc_fences += pre_fences;
        if let Some((crash, seed)) = &resume {
            // Re-seed the crashed cycle's carried state (its counters seeded
            // `sh.stats` above).
            sh.self_forwarded = crash.self_forwarded.clone();
            sh.retained = crash.retained.clone();
            sh.full_installs = crash.full_installs.clone();
            sh.fault.restore_fired(&crash.fired);
            sh.fault.observations = seed.fault_events;
        }

        // --- Work packets (plan-declared, scheduler-executed). --------------
        // The plan names the packets; the scheduler runs each one with its
        // exact protocol (barriers, spans, error/crash ordering). The glue
        // between packets — allocator journal drains, cache-region
        // retirement, occupancy snapshots — is packet-specific and stays
        // here in the front end.
        let plan = plan::plan_of(self.cfg.collector);
        let mut boundary = work_start;
        let mut scan_end = work_start;
        let mut wb_end = work_start;
        let mut clear_end = work_start;
        let mut recovery_forwards = None;
        for &kind in plan.packets {
            let run = scheduler::run_packet(kind, &mut workers, &mut sh, boundary, cycle_idx)?;
            if run.crashed {
                return Err(crash_abort(
                    sh,
                    &mut workers,
                    &cset,
                    extra_old,
                    start,
                    saved_tasks,
                ));
            }
            boundary = match kind {
                PacketKind::Scan => {
                    // Journal the worker-phase allocator takes (survivor,
                    // promotion) before the write-back packet begins.
                    let end = drain_allocator_journal(
                        &self.cfg,
                        sh.heap,
                        sh.mem,
                        &mut sh.stats.alloc_fences,
                        run.end,
                    );
                    // Retire workers' still-open cache regions and queue
                    // everything unflushed for write-back.
                    for w in &mut workers {
                        if let Some((cache, _)) = w.take_cache_pair() {
                            sh.cache.note_retired(sh.heap, cache);
                        }
                        w.reset_alloc_state();
                    }
                    if let Some((cache, _)) = sh.shared_cache.take() {
                        sh.cache.note_retired(sh.heap, cache);
                    }
                    sh.writeback_queue = sh.cache.unflushed().into();
                    scan_end = end;
                    end
                }
                PacketKind::WriteBack => {
                    // The cycle-end fence lands in the ADR domain:
                    // everything the write-combining buffer has accepted
                    // drains to the medium before mutators resume. Volatile
                    // cache lines are *not* flushed here.
                    if self.cfg.write_cache.enabled {
                        sh.mem.persist_drain_all(DeviceId::Nvm, run.end);
                    }
                    // Journal the write-back packet's cache-region releases.
                    let end = drain_allocator_journal(
                        &self.cfg,
                        sh.heap,
                        sh.mem,
                        &mut sh.stats.alloc_fences,
                        run.end,
                    );
                    // Header-map occupancy is measured before cleanup.
                    sh.stats.hm_occupancy = self.hmap.as_ref().map_or(0, |m| m.occupancy() as u64);
                    // The recovery oracle needs the forwarding table before
                    // the cleanup packet zeroes it.
                    recovery_forwards = resume.as_ref().map(|_| {
                        durable::forwarding_records(self.hmap.as_ref(), &sh.full_installs)
                            .iter()
                            .map(|rec| (rec.old, rec.new))
                            .collect::<Vec<_>>()
                    });
                    wb_end = end;
                    end
                }
                PacketKind::MapClear => {
                    clear_end = run.end;
                    run.end
                }
            };
        }
        let _ = boundary;

        // --- Post-processing. ------------------------------------------------
        for w in &workers {
            sh.absorb_worker(w);
        }
        sh.stats.steals = sh.pool.steals();
        sh.stats.cache_regions = sh.cache.regions_allocated();
        sh.stats.cache_peak_bytes = sh.cache.peak_bytes();
        sh.stats.async_flushed = sh.cache.async_flushed();
        sh.stats.phases.scan_ns = scan_end - start;
        sh.stats.phases.writeback_ns = wb_end - scan_end;
        sh.stats.phases.clear_ns = clear_end - wb_end;
        sh.stats.old_regions_collected = extra_old
            .iter()
            .filter(|r| !sh.retained.contains(r))
            .count() as u64;
        sh.stats.fault_events = sh.fault.observations;

        // Restore the original headers of self-forwarded objects (G1's
        // "remove self-forwards" step) before the regions are reused.
        let self_forwarded = std::mem::take(&mut sh.self_forwarded);
        for (obj, hdr) in self_forwarded {
            sh.heap.set_header(obj, hdr);
        }

        // Recovery oracle: the resumed cycle must account for every
        // forwarding exactly once — no object lost, duplicated, or
        // double-forwarded across the crash boundary, no survivor slot or
        // root left pointing into an evacuated region.
        if let Some(forwards) = &recovery_forwards {
            oracle::check_recovery_completion(sh.heap, forwards, &cset, &sh.retained, sh.roots)
                .map_err(GcError::Oracle)?;
        }

        // Free the collection set — except retained regions, which hold
        // self-forwarded objects and stay live for the next collection.
        let region_size = sh.heap.config().region_size as u64;
        let retained = std::mem::take(&mut sh.retained);
        // Old regions about to be freed were remset *sources*; their
        // entries in other regions' remsets must be scrubbed before the
        // regions are recycled.
        let freed_old: nvmgc_memsim::FxHashSet<RegionId> = cset
            .iter()
            .copied()
            .filter(|r| !retained.contains(r))
            .filter(|&r| {
                matches!(
                    sh.heap.region(r).kind(),
                    RegionKind::Old | RegionKind::Humongous
                )
            })
            .collect();
        sh.heap.scrub_remset_sources(&freed_old);
        for &r in &cset {
            debug_assert_eq!(sh.heap.region(r).pending_slots, 0);
            if retained.contains(&r) {
                let region = sh.heap.region_mut(r);
                region.in_cset = false;
                if region.kind() == RegionKind::Eden {
                    // Retained eden becomes survivor so the next young
                    // collection re-evacuates it.
                    region.set_kind(RegionKind::Survivor);
                    sh.heap.eden_to_survivor(r).map_err(accounting)?;
                }
                continue;
            }
            let base = sh.heap.addr_of(r, 0).raw();
            sh.heap.release_region(r).map_err(accounting)?;
            sh.mem.invalidate_range(base, region_size);
            sh.mem.persist_forget_range(base, region_size);
        }
        sh.heap.survivors_to_young().map_err(accounting)?;

        // Journal the cycle-end frees and retention reclassifications so
        // the next mutator phase starts from a drained journal.
        let clear_end = drain_allocator_journal(
            &self.cfg,
            sh.heap,
            sh.mem,
            &mut sh.stats.alloc_fences,
            clear_end,
        );

        // Phase marks for the bandwidth figures.
        let sampler = sh.mem.sampler_mut();
        if self.cfg.write_cache.enabled {
            sampler.mark_phase(start, scan_end, PhaseKind::GcReadMostly);
            sampler.mark_phase(scan_end, wb_end, PhaseKind::GcWriteBack);
        }
        sampler.mark_phase(start, clear_end, PhaseKind::Gc);
        // The whole-cycle trace span: start/end are the exact interval the
        // GC log records, which the trace determinism tests cross-check.
        sh.mem.trace_mut().span(
            "cycle",
            TraceCat::Cycle,
            TRACK_CYCLE,
            start,
            clear_end,
            cycle_idx,
        );

        // Allow the bandwidth ledgers to forget the distant past.
        sh.mem.retire_before(start.saturating_sub(1_000_000));

        let stats = sh.stats.clone();
        self.run_stats.absorb(&stats);
        Ok(GcCycleOutcome {
            stats,
            end_ns: clear_end,
        })
    }
}

/// Aborts a durable-mode cycle at an injected power failure: all volatile
/// collector state is thrown away and the surviving facts are packaged
/// into a [`CrashState`] for [`G1Collector::recover_from_crash`].
///
/// DRAM-staged cache regions are lost at a real power failure. The
/// simulator keeps the object graph intact by materializing each
/// discarded pair (recovery re-charges those copies as re-evacuations);
/// crucially, the blit leaves the NVM lines *out* of the durability
/// ledger, so the crash image classifies them as lost.
fn crash_abort(
    mut sh: CycleShared<'_>,
    workers: &mut [Worker],
    cset: &[RegionId],
    extra_old: &[RegionId],
    start: Ns,
    saved_tasks: Option<Vec<Task>>,
) -> GcError {
    let at_ns = sh.crashed_at.expect("crash abort without a crash");
    for w in workers.iter_mut() {
        if let Some((cache, _)) = w.take_cache_pair() {
            sh.cache.note_retired(sh.heap, cache);
        }
        w.reset_alloc_state();
    }
    if let Some((cache, _)) = sh.shared_cache.take() {
        sh.cache.note_retired(sh.heap, cache);
    }
    let region_size = sh.heap.config().region_size as u64;
    for (cache, nvm) in sh.cache.discard_for_crash(sh.heap) {
        sh.heap.blit_region(cache, nvm);
        let base = sh.heap.addr_of(cache, 0).raw();
        if let Err(e) = sh.heap.release_region(cache) {
            // Corrupt bookkeeping outranks the crash itself: surface it.
            return accounting(e);
        }
        sh.mem.invalidate_range(base, region_size);
    }
    GcError::PowerCrash(Box::new(CrashState {
        at_ns,
        start_ns: start,
        cset: cset.to_vec(),
        extra_old: extra_old.to_vec(),
        initial_tasks: saved_tasks.unwrap_or_default(),
        full_installs: std::mem::take(&mut sh.full_installs),
        self_forwarded: std::mem::take(&mut sh.self_forwarded),
        retained: std::mem::take(&mut sh.retained),
        fired: sh.fault.fired_flags(),
    }))
}
