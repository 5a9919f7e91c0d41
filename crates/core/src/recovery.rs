//! Crash state captured when a power failure interrupts a durable-mode
//! evacuation.
//!
//! In durable header-map mode every forwarding-pointer install is
//! persistence-fenced (key CAS → value publish → fence — the
//! durable-linearizable order of Sela & Petrank), so the NVM crash image
//! taken at the failure instant contains a *well-defined durable prefix*
//! of the forwarding table. When the collector detects the failure it
//! aborts the cycle before any post-processing, packages everything the
//! resumed cycle needs into a [`CrashState`], and returns it inside
//! [`GcError::PowerCrash`](crate::error::GcError). The runner hands the
//! state to [`recover_from_crash`], which replays the durable prefix,
//! re-evacuates the torn/undurable objects from intact from-space
//! ([`recover`], below), and re-runs the interrupted cycle to completion.
//!
//! [`recover_from_crash`]: crate::g1::G1Collector::recover_from_crash

use crate::config::GcConfig;
use crate::durable::{self, Classifier, RecordKey};
use crate::error::{accounting, GcError};
use crate::header_map::HeaderMap;
use crate::oracle;
use crate::policy::drain::drain_allocator_journal;
use crate::stack::Task;
use crate::stats::GcStats;
use nvmgc_heap::{Addr, Header, Heap, RegionId};
use nvmgc_memsim::{DeviceId, MemorySystem, Ns, TraceCat, TRACK_CYCLE};

/// Everything a crashed evacuation cycle leaves behind for recovery.
///
/// The state is deliberately *replayable* rather than minimal: the
/// initial task list is the saved pre-crash snapshot (remembered sets are
/// drained destructively at cycle start, so it cannot be rebuilt), and
/// re-running it is idempotent — slots already processed before the crash
/// now point out of the collection set and are filtered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashState {
    /// Simulated instant the power failure fired, ns. Durability is
    /// judged against this clock: ledger entries whose watermark is later
    /// are phantoms of workers that had not yet observed the crash.
    pub at_ns: Ns,
    /// When the interrupted cycle started, ns: the `start` its first
    /// attempt was handed (after the mark of a mixed cycle). A
    /// second crash inside the resumed cycle keeps the first one's, so
    /// the completing cycle can report every crashed attempt and recovery
    /// pass as [`GcStats::recovery_ns`].
    pub start_ns: Ns,
    /// The interrupted cycle's collection set (its regions still carry
    /// their in-cset flags; from-space is intact).
    pub cset: Vec<RegionId>,
    /// The old-generation members of the cset (a mixed collection's
    /// garbage-first picks), needed to rebuild per-cycle statistics.
    pub extra_old: Vec<RegionId>,
    /// The cycle's initial root/remset/card tasks, saved before the work
    /// pool consumed them.
    pub initial_tasks: Vec<Task>,
    /// Forwarding installs that overflowed the map into NVM headers
    /// (`old → new`); durable mode fences these too, so recovery
    /// classifies them exactly like map entries.
    pub full_installs: Vec<(Addr, Addr)>,
    /// Objects self-forwarded by evacuation failure before the crash,
    /// with their saved pre-install headers (restored by the resumed
    /// cycle's post-processing, never by the crashed one).
    pub self_forwarded: Vec<(Addr, Header)>,
    /// Regions retained by evacuation failure before the crash.
    pub retained: Vec<RegionId>,
    /// Which one-shot fault events had fired, so the resumed cycle does
    /// not re-fire the same power failure.
    pub fired: Vec<bool>,
    /// What the mark before a mixed cycle contributes to the
    /// cycle's statistics (all zero for a young cycle), carried so the
    /// resumed cycle still reports it.
    pub mark: MarkPrelude,
}

/// What the stop-the-world mark that precedes a mixed cycle adds
/// to that cycle's statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkPrelude {
    /// Marking time, ns ([`GcStats::mark_ns`]).
    pub mark_ns: Ns,
    /// Engine scheduler steps of the marking pass.
    pub steps: u64,
}

/// The recovery pass that precedes the resumed cycle: walks the durable
/// prefix of the crashed cycle's forwarding records, re-evacuates every
/// lost copy, then runs the allocator recovery scan. Returns the instant
/// the resumed cycle starts and what its statistics start from: the
/// pass's own counters and, in `fault_events`, the handled power failure
/// with the lines its crash image reports discarded and torn.
pub(crate) fn recover(
    cfg: &GcConfig,
    hmap: Option<&HeaderMap>,
    heap: &mut Heap,
    mem: &mut MemorySystem,
    crash: &CrashState,
    cycle_idx: u64,
) -> Result<(GcStats, Ns), GcError> {
    let at = crash.at_ns;
    let nvm = DeviceId::Nvm;
    let mut stats = GcStats {
        recovered_cycles: 1,
        ..GcStats::default()
    };
    // The power-failure observation marks the crash as *handled* — the
    // fault matrix's silent-pass gate keys on it.
    stats.fault_events.power_failure_checks = 1;
    // Every forwarding record the crashed cycle established that names a
    // real move, and whether it lies inside the durable prefix.
    let decisions: Vec<_> = {
        let judge = Classifier::new(mem, at);
        if let Some(j) = &judge {
            stats.fault_events.discarded_lines = j.img.discarded_lines;
            stats.fault_events.torn_lines = j.img.torn_lines;
        }
        durable::forwarding_records(hmap, &crash.full_installs)
            .into_iter()
            .filter_map(|rec| {
                let (dst, size) = rec.resolve(heap)?;
                // Durable iff the install fence, the destination region's
                // allocation metadata, and every payload line reached the
                // medium no later than the crash instant.
                let durable = judge.as_ref().is_some_and(|j| {
                    heap.device_of(rec.new) == nvm
                        && j.fenced_at(rec.key).is_some()
                        && j.fenced_at(RecordKey::Region(dst)).is_some()
                        && j.payload_durable(rec.new, size)
                });
                Some((rec, dst, size, durable))
            })
            .collect()
    };

    // Charge the recovery pass: the classification read of each
    // record, then the re-evacuation of every lost copy. The
    // simulated bytes are already in place (from-space was never
    // mutated and the crash abort materialized discarded cache
    // regions), so recovery re-charges the traffic and re-establishes
    // durability — copy, region metadata, then the forwarding record,
    // the same install order the cycle itself uses.
    let mut now = at;
    for &(rec, dst, size, durable) in &decisions {
        let (entry, len) = rec.key.entry().expect("forwarding records have entries");
        now = match rec.key {
            RecordKey::Header(_) => mem.read_word(0, nvm, entry, now),
            _ => mem.read_bulk(nvm, entry, len, now),
        };
        if durable {
            stats.replayed_map_entries += 1;
            continue;
        }
        stats.resumed_evacuations += 1;
        let size = u64::from(size);
        now = mem.read_bulk(heap.device_of(rec.old), rec.old.raw(), size, now);
        now = mem.write_bulk(nvm, rec.new.raw(), size, now);
        durable::write_back(mem, rec.new.raw(), size, now);
        now = durable::publish(mem, RecordKey::Region(dst), now);
        now = durable::publish(mem, rec.key, now);
    }
    // --- Allocator recovery scan (durable-allocator mode). The crash
    // caught the lower-table journal partially durable: entries dirtied
    // since the last safepoint drain never reached the ledger. Compute
    // the durable view at the crash instant, reconcile every diverged
    // region against the surviving volatile truth (re-journaling it as
    // real charged traffic), rebuild the upper free-stack from the
    // lower tables, and let the oracle assert the rebuild is exact —
    // and that no rebuilt-free region doubles as the destination of a
    // durable forwarding record the resumed cycle will replay.
    if cfg.durable_alloc_active() {
        let view = heap.allocator().durable_view(at);
        let diverged = heap.allocator().diverged(&view).map_err(accounting)?;
        stats.alloc_reconciled = diverged.len() as u64;
        for r in diverged {
            heap.allocator_mut().mark_dirty(r);
        }
        now = drain_allocator_journal(cfg, heap, mem, &mut stats.alloc_fences, now);
        let (previous, rebuilt) = heap.allocator_mut().rebuild_free();
        stats.alloc_rebuilt_regions = rebuilt.len() as u64;
        let durable_dsts: Vec<RegionId> = decisions
            .iter()
            .filter_map(|&(_, dst, _, durable)| durable.then_some(dst))
            .collect();
        oracle::check_allocator_recovery(heap, &previous, &rebuilt, &durable_dsts)
            .map_err(GcError::Oracle)?;
    }
    mem.trace_mut()
        .span("recover", TraceCat::Phase, TRACK_CYCLE, at, now, cycle_idx);

    Ok((stats, now))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_state_is_comparable_and_clonable() {
        let a = CrashState {
            at_ns: 100,
            start_ns: 10,
            cset: vec![1, 2],
            extra_old: vec![2],
            initial_tasks: vec![Task::Root(0)],
            full_installs: vec![(Addr(8), Addr(16))],
            self_forwarded: vec![(Addr(24), Header(7))],
            retained: vec![1],
            fired: vec![true, false],
            mark: MarkPrelude::default(),
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
