//! The one evacuation cycle every plan runs.
//!
//! G1, PS and semispace share one stop-the-world pause (paper §3.1–3.3);
//! they differ only in the survivor-space copy policy their plan names
//! ([`crate::plan`], [`crate::policy::copy`]). This module is that pause,
//! written once as straight-line code:
//!
//! 1. a [`Seed`] says what the cycle starts from — [`Seed::fresh`] builds
//!    the collection set and the initial work from the heap,
//!    [`Seed::resumed`] rebuilds both from a [`CrashState`] — and is the
//!    only place that knows which of the two it is;
//! 2. [`run`] drains the allocator journal at the safepoint, starts the
//!    workers and runs the three work packets in their fixed order:
//!    **copy-and-traverse** (read-mostly when the write cache is active:
//!    roots and remembered-set entries are distributed over per-worker
//!    stacks; workers copy live objects out of the collection set,
//!    stealing work when idle, optionally flushing ready cache regions
//!    asynchronously), **write-back** (write-only: remaining cache
//!    regions stream to their mapped NVM survivor regions, non-temporal
//!    stores + one fence) and **header-map cleanup** (all workers zero
//!    the map in parallel). A packet whose feature is off (no write
//!    cache, no header map) is skipped at zero simulated cost;
//! 3. the glue between packets — allocator journal drains, cache-region
//!    retirement, the ADR drain, occupancy snapshots — sits between the
//!    calls, and post-processing frees the collection set.
//!
//! A power failure injected in durable-map mode aborts the cycle from
//! inside any packet into a [`CrashState`] ([`crash_abort`]).

use crate::collector::{CycleShared, Worker, REMSET_META_BASE, SAFEPOINT_NS};
use crate::config::GcConfig;
use crate::durable;
use crate::engine;
use crate::error::{accounting, GcError};
use crate::fault::FaultState;
use crate::g1::{G1Collector, GcCycleOutcome};
use crate::header_map::HeaderMap;
use crate::oracle;
use crate::policy::drain::drain_allocator_journal;
use crate::policy::trace::apply_worker_faults;
use crate::policy::{flush, trace};
use crate::recovery::{CrashState, MarkPrelude};
use crate::stack::{Task, WorkPool};
use crate::stats::GcStats;
use crate::write_cache::WriteCachePool;
use nvmgc_heap::{Addr, Header, Heap, RegionId, RegionKind};
use nvmgc_memsim::{DeviceId, Ns, TraceCat, TRACK_CYCLE};
use std::collections::VecDeque;

/// What one cycle starts from: its collection set, its initial work and
/// the state it carries in. Built by exactly one of [`Seed::fresh`] and
/// [`Seed::resumed`]; [`run`] never asks which.
pub(crate) struct Seed {
    /// When the cycle stopped the mutators: `start` for a fresh cycle,
    /// the first crashed attempt's start for a resumed one.
    origin: Ns,
    /// When this pass over the cycle begins.
    start: Ns,
    /// The collection set; every member has its `in_cset` flag set.
    cset: Vec<RegionId>,
    /// The old-generation members of `cset`.
    extra_old: Vec<RegionId>,
    /// The initial root/remset/card tasks.
    tasks: Vec<Task>,
    /// Remembered-set metadata the workers scan on entry, bytes.
    remset_bytes: u64,
    /// What the cycle's statistics start from.
    stats: GcStats,
    /// Per-cycle fault-injection state.
    fault: FaultState,
    /// Carried evacuation-failure and NVM-header-install state (empty
    /// unless resumed).
    self_forwarded: Vec<(Addr, Header)>,
    retained: Vec<RegionId>,
    full_installs: Vec<(Addr, Addr)>,
}

impl Seed {
    /// The seed of a cycle starting at `start`: every young region plus
    /// the old regions `extra_old` form the collection set; the initial
    /// work is the `n_roots` roots plus the collection set's drained and
    /// scrubbed remembered sets (or, in card-table mode, one scan task
    /// per dirty old region).
    pub(crate) fn fresh(
        cfg: &GcConfig,
        heap: &mut Heap,
        n_roots: usize,
        start: Ns,
        extra_old: &[RegionId],
    ) -> Seed {
        let cset: Vec<RegionId> = heap
            .eden()
            .iter()
            .chain(heap.survivor().iter())
            .chain(extra_old.iter())
            .copied()
            .collect();
        for &r in &cset {
            heap.region_mut(r).in_cset = true;
        }

        let mut tasks: Vec<Task> = (0..n_roots as u32).map(Task::Root).collect();
        let mut remset_bytes = 0u64;
        if heap.card_table().is_some() {
            // Card-table mode (stock PS design): one scan task per old
            // region with dirty cards. Mixed collections need precise
            // remsets, so extra_old must be empty here.
            assert!(
                extra_old.is_empty(),
                "mixed collections require precise remembered sets"
            );
            let dirty: Vec<RegionId> = heap
                .old()
                .iter()
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
                    r.kind() == RegionKind::Old && !r.in_cset && slot.offset(shift) + 8 <= r.used()
                }
                _ => true,
            });
        }

        Seed {
            origin: start,
            start,
            cset,
            extra_old: extra_old.to_vec(),
            tasks,
            remset_bytes,
            stats: GcStats::default(),
            fault: FaultState::new(&cfg.fault.gc),
            self_forwarded: Vec::new(),
            retained: Vec::new(),
            full_installs: Vec::new(),
        }
    }

    /// The seed that finishes the cycle `crash` interrupted, starting at
    /// `start` (the end of [`crate::recovery::recover`]'s pass) from the
    /// statistics `stats` that pass seeded.
    ///
    /// The collection set is the crashed cycle's saved one (the abort
    /// leaves the eden/survivor lists and the `in_cset` flags untouched).
    /// The work is the crashed cycle's initial list (remsets were drained
    /// destructively, so durable mode saves it up front), plus a re-scan
    /// of every established copy and every self-forwarded object — the
    /// interrupted transitive closure completes from there.
    /// Already-processed slots point out of the collection set and filter
    /// as no-ops, so the replay is idempotent.
    pub(crate) fn resumed(
        cfg: &GcConfig,
        hmap: Option<&HeaderMap>,
        heap: &Heap,
        crash: CrashState,
        stats: GcStats,
        start: Ns,
    ) -> Seed {
        debug_assert!(crash.cset.iter().all(|&r| heap.region(r).in_cset));
        let mut tasks = crash.initial_tasks;
        let mut rescan = |obj: Addr, n: u32| {
            for i in 0..n {
                tasks.push(Task::Slot(heap.ref_slot(obj, i)));
            }
        };
        for rec in durable::forwarding_records(hmap, &crash.full_installs) {
            if rec.old != rec.new {
                rescan(rec.new, heap.num_refs(rec.new));
            }
        }
        for &(obj, hdr) in &crash.self_forwarded {
            // The live header is a self-forward; the saved original
            // header supplies the class.
            rescan(obj, heap.classes().get(hdr.class_id()).num_refs);
        }

        // The crashed cycle's one-shot fault events stay fired, so the
        // resumed cycle does not re-fire the same power failure.
        let mut fault = FaultState::new(&cfg.fault.gc);
        fault.restore_fired(&crash.fired);
        fault.observations = stats.fault_events;

        Seed {
            origin: crash.start_ns,
            start,
            cset: crash.cset,
            extra_old: crash.extra_old,
            tasks,
            remset_bytes: 0,
            stats,
            fault,
            self_forwarded: crash.self_forwarded,
            retained: crash.retained,
            full_installs: crash.full_installs,
        }
    }
}

/// Runs the cycle `seed` describes to completion on `gc`'s configuration,
/// header map and promotion region, and adds it to `gc`'s run statistics.
pub(crate) fn run(
    gc: &mut G1Collector,
    heap: &mut Heap,
    mem: &mut nvmgc_memsim::MemorySystem,
    roots: &mut [Addr],
    seed: Seed,
) -> Result<GcCycleOutcome, GcError> {
    let cfg = &gc.cfg;
    let threads = cfg.threads.max(1);
    let cycle_idx = gc.run_stats.cycles() as u64;
    let cset = seed.cset;
    let extra_old = seed.extra_old;

    // Durable mode must be able to rebuild this exact work list after
    // a power failure (the remsets were consumed), so the crash state
    // keeps a copy.
    let saved_tasks = cfg.durable_map_active().then(|| seed.tasks.clone());
    let mut pool = WorkPool::new(threads);
    for (i, t) in seed.tasks.into_iter().enumerate() {
        pool.push(i % threads, t);
    }
    let mut sh = CycleShared {
        heap,
        mem,
        cfg,
        pool,
        cache: WriteCachePool::new(cfg.write_cache),
        hmap: gc.hmap.as_ref(),
        roots,
        promo_region: &mut gc.promo_region,
        shared_survivor: None,
        shared_cache: None,
        writeback_queue: VecDeque::new(),
        stats: seed.stats,
        fault: seed.fault,
        error: None,
        self_forwarded: seed.self_forwarded,
        retained: seed.retained,
        full_installs: seed.full_installs,
        crashed_at: None,
    };

    // What a resumed cycle's statistics would otherwise lose: the
    // crashed attempts and recovery passes that came before this pass.
    sh.stats.recovery_ns = seed.start - seed.origin;

    // Safepoint journal drain: allocator mutations accumulated since
    // the last safepoint (mutator-phase eden takes) are journaled in one
    // batch before workers start — fences stay off the mutator's hot
    // path, paper-style.
    let start = drain_journal(&mut sh, seed.start);

    // --- Workers. ------------------------------------------------------
    // All workers begin after the fixed STW entry overhead (safepoint
    // + phase setup); it is part of the pause.
    let work_start = start + SAFEPOINT_NS;
    let mut workers: Vec<Worker> = (0..threads).map(|i| Worker::new(i, work_start)).collect();
    // Charge the remembered-set scan (DRAM metadata) split over workers.
    let share = seed.remset_bytes / threads as u64;
    for w in workers.iter_mut() {
        let base = REMSET_META_BASE | (w.id as u64 * share);
        w.clock = sh.mem.read_bulk(DeviceId::Dram, base, share, w.clock);
    }
    let abort = |sh: CycleShared<'_>, workers: &mut [Worker]| {
        crash_abort(sh, workers, &cset, &extra_old, seed.origin, saved_tasks)
    };

    // --- Copy-and-traverse (the only packet every configuration runs). --
    let scan = run_packet(
        "scan",
        &mut workers,
        &mut sh,
        work_start,
        cycle_idx,
        trace::step_scan,
    )?;
    let Some(scan_end) = scan else {
        return Err(abort(sh, &mut workers));
    };
    debug_assert_eq!(sh.pool.outstanding(), 0);
    // Journal the worker-phase allocator takes (survivor, promotion)
    // before the write-back packet begins.
    let scan_end = drain_journal(&mut sh, scan_end);
    // Queue everything unflushed for write-back.
    retire_open_cache_pairs(&mut workers, &mut sh);
    sh.writeback_queue = sh.cache.unflushed().into();

    // --- Write-back: skipped entirely for vanilla collectors (no cache
    // regions, no NT stores to fence). ------------------------------------
    let wb_end = if cfg.write_cache.enabled {
        let wb = run_packet(
            "write-back",
            &mut workers,
            &mut sh,
            scan_end,
            cycle_idx,
            flush::step_writeback,
        )?;
        let Some(end) = wb else {
            return Err(abort(sh, &mut workers));
        };
        durable::cycle_end_drain(sh.mem, end);
        end
    } else {
        scan_end
    };
    // Journal the write-back packet's cache-region releases.
    let wb_end = drain_journal(&mut sh, wb_end);
    // Header-map occupancy is measured before cleanup.
    sh.stats.hm_occupancy = sh.hmap.map_or(0, |m| m.occupancy() as u64);
    // A cycle that crossed a crash owes the recovery oracle, which needs
    // the forwarding table before the cleanup packet zeroes it.
    let recovery_forwards = (sh.stats.recovered_cycles > 0).then(|| {
        durable::forwarding_records(sh.hmap, &sh.full_installs)
            .iter()
            .map(|rec| (rec.old, rec.new))
            .collect::<Vec<_>>()
    });

    // --- Header-map cleanup: skipped when no map is armed. ---------------
    let clear_end = if let Some(map) = sh.hmap {
        flush::assign_clear_ranges(&mut workers, map.capacity());
        let clear = run_packet(
            "map-clear",
            &mut workers,
            &mut sh,
            wb_end,
            cycle_idx,
            flush::step_clear,
        )?;
        let Some(end) = clear else {
            return Err(abort(sh, &mut workers));
        };
        end
    } else {
        wb_end
    };

    // --- Post-processing. ------------------------------------------------
    sh.stats.engine_steps += workers.iter().map(|w| w.steps).sum::<u64>();
    sh.stats.steals = sh.pool.steals();
    sh.stats.cache_regions = sh.cache.regions_allocated();
    sh.stats.cache_peak_bytes = sh.cache.peak_bytes();
    sh.stats.async_flushed = sh.cache.async_flushed();
    sh.stats.phases.scan_ns = scan_end - seed.start;
    sh.stats.phases.writeback_ns = wb_end - scan_end;
    sh.stats.old_regions_collected = extra_old
        .iter()
        .filter(|r| !sh.retained.contains(r))
        .count() as u64;
    sh.stats.fault_events = sh.fault.observations;

    // Restore the original headers of self-forwarded objects (G1's
    // "remove self-forwards" step) before the regions are reused.
    for (obj, hdr) in std::mem::take(&mut sh.self_forwarded) {
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

    free_cset(&mut sh, &cset)?;

    // Journal the cycle-end frees and retention reclassifications so
    // the next mutator phase starts from a drained journal. The phases
    // tile the pause: each drain sits inside the phase it precedes or
    // follows, so `origin + pause_ns() == end` in every mode.
    let end = drain_journal(&mut sh, clear_end);
    sh.stats.phases.clear_ns = end - wb_end;

    // The whole-cycle trace span, from the instant the cycle stopped the
    // mutators (a mixed cycle's mark runs before its seed) to the instant
    // they resume: the runner's `PauseSpan` of the cycle is this interval
    // plus the mark, which the trace determinism tests cross-check.
    sh.mem.trace_mut().span(
        "cycle",
        TraceCat::Cycle,
        TRACK_CYCLE,
        seed.origin,
        end,
        cycle_idx,
    );

    // Allow the bandwidth ledgers to forget the distant past.
    sh.mem.retire_before(start.saturating_sub(1_000_000));

    let stats = sh.stats;
    gc.run_stats.absorb(&stats);
    Ok(GcCycleOutcome { stats, end_ns: end })
}

/// Runs one stop-the-world work packet on the deterministic engine from
/// its start barrier `from` and returns its end (the maximum worker
/// clock) — or `None` when an injected power failure fired inside it, so
/// the caller aborts the cycle into crash-state capture.
///
/// Every packet follows this one protocol, so every plan — G1, PS,
/// semispace — schedules byte-identically and none can reorder a crash
/// check against a span emission:
///
/// - the workers re-barrier to `from` (a no-op for the scan packet, whose
///   workers were constructed at `from` and carry the pre-charged
///   safepoint and remset-scan entry costs);
/// - each step first fast-finishes its worker if any worker has surfaced
///   an error or a power failure, then applies the injected worker
///   faults, then runs the packet's own `step`;
/// - the per-worker spans are emitted before the error and crash checks,
///   so a crashed packet still records how far each worker got. A span
///   ends at its worker's final clock, which under the engine's (clock,
///   worker id) step order is a deterministic function of configuration
///   and workload — why trace output is byte-identical regardless of
///   host parallelism;
/// - a typed error a policy surfaced into [`CycleShared::error`]
///   outranks a crash.
///
/// # Errors
///
/// Propagates a stuck-worker engine error or the surfaced typed error.
fn run_packet(
    name: &'static str,
    workers: &mut [Worker],
    sh: &mut CycleShared<'_>,
    from: Ns,
    cycle_idx: u64,
    step: impl Fn(&mut Worker, &mut CycleShared<'_>),
) -> Result<Option<Ns>, GcError> {
    engine::rebarrier(workers, from);
    let end = engine::run_phase(workers, |w| {
        debug_assert!(!w.done);
        if sh.error.is_some() || sh.crashed_at.is_some() {
            w.done = true;
        } else if !apply_worker_faults(w, sh) {
            step(w, sh);
        }
    })?;
    for w in workers.iter() {
        // Re-barriered, so no clock precedes `from`: a worker that never
        // stepped yields an empty span, never a negative one.
        sh.mem
            .trace_mut()
            .span(name, TraceCat::Phase, w.id as u32, from, w.clock, cycle_idx);
    }
    if let Some(e) = sh.error.take() {
        return Err(e);
    }
    Ok(sh.crashed_at.is_none().then_some(end))
}

/// Journals the allocator's pending lower-table mutations at `now` and
/// counts the fences into the cycle's statistics.
fn drain_journal(sh: &mut CycleShared<'_>, now: Ns) -> Ns {
    drain_allocator_journal(sh.cfg, sh.heap, sh.mem, &mut sh.stats.alloc_fences, now)
}

/// Retires every worker's and the shared still-open cache pair, so the
/// pool's unflushed list names every staged region.
fn retire_open_cache_pairs(workers: &mut [Worker], sh: &mut CycleShared<'_>) {
    for w in workers {
        if let Some((cache, _)) = w.take_cache_pair() {
            sh.cache.note_retired(sh.heap, cache);
        }
        w.reset_alloc_state();
    }
    if let Some((cache, _)) = sh.shared_cache.take() {
        sh.cache.note_retired(sh.heap, cache);
    }
}

/// Frees the collection set — except retained regions, which hold
/// self-forwarded objects and stay live for the next collection.
fn free_cset(sh: &mut CycleShared<'_>, cset: &[RegionId]) -> Result<(), GcError> {
    let retained = std::mem::take(&mut sh.retained);
    // Old regions about to be freed were remset *sources*; their
    // entries in other regions' remsets must be scrubbed before the
    // regions are recycled.
    let freed_old: nvmgc_memsim::FxHashSet<RegionId> = cset
        .iter()
        .copied()
        .filter(|r| !retained.contains(r))
        .filter(|&r| sh.heap.region(r).kind() == RegionKind::Old)
        .collect();
    sh.heap.scrub_remset_sources(&freed_old);
    for &r in cset {
        debug_assert_eq!(sh.heap.region(r).pending_slots, 0);
        if retained.contains(&r) {
            let region = sh.heap.region_mut(r);
            region.in_cset = false;
            if region.kind() == RegionKind::Eden {
                // Retained eden becomes survivor so the next young
                // collection re-evacuates it.
                sh.heap.eden_to_survivor(r).map_err(accounting)?;
            }
            continue;
        }
        durable::release_region(sh.heap, sh.mem, r)?;
    }
    sh.heap.survivors_to_young().map_err(accounting)
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
    origin: Ns,
    saved_tasks: Option<Vec<Task>>,
) -> GcError {
    let at_ns = sh.crashed_at.expect("crash abort without a crash");
    retire_open_cache_pairs(workers, &mut sh);
    for (cache, nvm) in sh.cache.discard_for_crash(sh.heap) {
        sh.heap.blit_region(cache, nvm);
        if let Err(e) = durable::release_region(sh.heap, sh.mem, cache) {
            // Corrupt bookkeeping outranks the crash itself: surface it.
            return e;
        }
    }
    GcError::PowerCrash(Box::new(CrashState {
        at_ns,
        start_ns: origin,
        cset: cset.to_vec(),
        extra_old: extra_old.to_vec(),
        initial_tasks: saved_tasks.unwrap_or_default(),
        full_installs: sh.full_installs,
        self_forwarded: sh.self_forwarded,
        retained: sh.retained,
        fired: sh.fault.fired_flags(),
        mark: MarkPrelude::default(),
    }))
}
