//! The collector front end and what is G1's own: the garbage-first
//! selection of mixed collections and the stop-the-world mark it starts
//! from.
//!
//! Every entry point here is a thin call into the one evacuation cycle
//! ([`crate::cycle`]) that every plan ([`crate::plan`]) runs: the PS-like
//! and semispace collectors differ from G1 only in the survivor-space
//! copy policy their plan names, which lives in [`crate::policy::copy`].

use crate::config::GcConfig;
use crate::cycle::{self, Seed};
use crate::error::GcError;
use crate::header_map::HeaderMap;
use crate::marking;
use crate::recovery::{self, CrashState, MarkPrelude};
use crate::stats::{GcStats, RunGcStats};
use nvmgc_heap::{Addr, Heap, RegionId};
use nvmgc_memsim::{MemorySystem, Ns, TraceCat, TRACK_CYCLE};

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
    pub(crate) cfg: GcConfig,
    pub(crate) hmap: Option<HeaderMap>,
    /// The shared promotion (old-space) allocation region, kept across
    /// cycles.
    pub(crate) promo_region: Option<RegionId>,
    /// Accumulated statistics over all cycles.
    pub run_stats: RunGcStats,
}

impl G1Collector {
    /// Creates a collector for the given configuration.
    ///
    /// The header map is allocated once here when the configuration
    /// activates it (enabled and above the thread threshold).
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
        let seed = Seed::fresh(&self.cfg, heap, roots.len(), start, &[]);
        cycle::run(self, heap, mem, roots, seed)
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
        let hmap = self.hmap.as_ref();
        let (stats, now) = recovery::recover(&self.cfg, hmap, heap, mem, &crash, cycle_idx)?;
        let mark = crash.mark;
        let seed = Seed::resumed(&self.cfg, hmap, heap, crash, stats, now);
        stamp_mark(cycle::run(self, heap, mem, roots, seed), mark)
    }

    /// Runs a *mixed* collection (paper §2.1): a stop-the-world marking
    /// pass computes per-region liveness, the garbage-first heuristic
    /// selects the old regions with the most reclaimable space (up to a
    /// quarter of the old generation, liveness below 85 %), and the young
    /// collection evacuates the combined collection set.
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

        // Retire the shared promotion region so it is selectable (a fresh
        // one is taken on the first promotion of the evacuation phase).
        self.promo_region = None;

        // Garbage-first selection of old regions.
        let mut candidates: Vec<(RegionId, f64)> = heap
            .old()
            .iter()
            .copied()
            .map(|r| (r, mark.state.liveness(heap, r)))
            .filter(|&(_, live)| live < 0.85)
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN liveness"));
        let budget = (heap.old().len() / 4).max(1);
        let old_cset: Vec<RegionId> = candidates.iter().take(budget).map(|&(r, _)| r).collect();

        let seed = Seed::fresh(&self.cfg, heap, roots.len(), mark.end_ns, &old_cset);
        let prelude = MarkPrelude {
            mark_ns: mark.end_ns - start,
            steps: mark.steps,
        };
        stamp_mark(cycle::run(self, heap, mem, roots, seed), prelude)
    }
}

/// Stamps what the mark before a mixed cycle contributes onto the
/// cycle's outcome — or, when the cycle crashed, onto its crash state, so
/// that the resumed cycle stamps it instead of losing it. All zero for a
/// young cycle. (The run totals absorbed the cycle before this; they keep
/// only its pause, which the mark is not part of.)
fn stamp_mark(
    cycle: Result<GcCycleOutcome, GcError>,
    mark: MarkPrelude,
) -> Result<GcCycleOutcome, GcError> {
    match cycle {
        Ok(mut out) => {
            out.stats.mark_ns = mark.mark_ns;
            out.stats.engine_steps += mark.steps;
            Ok(out)
        }
        Err(GcError::PowerCrash(mut crash)) => {
            crash.mark = mark;
            Err(GcError::PowerCrash(crash))
        }
        Err(e) => Err(e),
    }
}
