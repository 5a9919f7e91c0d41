//! Per-cycle and accumulated GC statistics.

use crate::fault::GcFaultObservations;
use nvmgc_memsim::Ns;

/// Simulated durations of the pause's sub-phases. They tile the cycle:
/// each safepoint allocator-journal drain belongs to the phase it
/// precedes or follows, so nothing between the cycle's start and the
/// mutators' resumption falls outside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcPhaseTimes {
    /// Copy-and-traverse (the read-mostly sub-phase when the write cache
    /// is enabled), from the cycle's start: the cycle-start journal
    /// drain, the safepoint entry, the scan packet and the drain after
    /// it.
    pub scan_ns: Ns,
    /// Write-back of cache regions (the write-only sub-phase) and the
    /// drain after it; zero for vanilla collectors.
    pub writeback_ns: Ns,
    /// Parallel header-map cleanup, then the cycle-end journal drain;
    /// zero when the map is inactive and the journal volatile.
    pub clear_ns: Ns,
}

impl GcPhaseTimes {
    /// Total length of the sub-phases: the pause of a cycle that never
    /// crashed.
    pub fn total(&self) -> Ns {
        self.scan_ns + self.writeback_ns + self.clear_ns
    }

    /// The sub-phases as `(label, duration)` pairs, in execution order.
    ///
    /// The labels are the canonical sub-phase names shared by the GC log
    /// renderer and the trace layer's span events, so the two outputs can
    /// be cross-checked mechanically.
    pub fn named(&self) -> [(&'static str, Ns); 3] {
        [
            ("scan", self.scan_ns),
            ("write-back", self.writeback_ns),
            ("map-clear", self.clear_ns),
        ]
    }
}

/// One stop-the-world pause, positioned on the simulated timeline.
///
/// `RunGcStats::pauses_ns` keeps only durations; latency attribution
/// (the scenario suite's SLO-violation windows), in-pause bandwidth and
/// the GC log additionally need *when* each pause ran and what kind of
/// cycle caused it, so the app runner records one `PauseSpan` per cycle
/// alongside the stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseSpan {
    /// Simulated time the mutators stopped.
    pub start_ns: Ns,
    /// Simulated time the mutators resumed: `start_ns` plus the cycle's
    /// `mark_ns` plus its [`GcStats::pause_ns`].
    pub end_ns: Ns,
    /// `true` for a mixed (young + old) collection, `false` for young.
    pub mixed: bool,
    /// `true` when this cycle resumed a crashed durable-mode evacuation.
    pub recovered: bool,
    /// Bytes of occupied young and old regions when the mutators stopped.
    pub before_bytes: u64,
    /// Bytes of occupied young and old regions when they resumed.
    pub after_bytes: u64,
}

impl PauseSpan {
    /// Whether this span overlaps the half-open window `[start, end)`.
    pub fn overlaps(&self, start: Ns, end: Ns) -> bool {
        self.start_ns < end && start < self.end_ns
    }

    /// The canonical label the scenario suite attributes violations to.
    pub fn kind(&self) -> &'static str {
        match (self.recovered, self.mixed) {
            (true, _) => "gc-recovery",
            (false, true) => "gc-mixed",
            (false, false) => "gc-young",
        }
    }
}

/// Statistics for one young-GC cycle.
#[derive(Debug, Clone, Default)]
pub struct GcStats {
    /// Sub-phase durations; `phases.total()` is the pause of a cycle that
    /// never crashed (see [`GcStats::pause_ns`]).
    pub phases: GcPhaseTimes,
    /// Live objects copied (survivor + promoted).
    pub copied_objects: u64,
    /// Bytes copied to the survivor space.
    pub copied_bytes: u64,
    /// Bytes promoted to the old generation.
    pub promoted_bytes: u64,
    /// Reference slots processed (roots + remset + traversal).
    pub slots_processed: u64,
    /// Stale remembered-set/root entries filtered.
    pub slots_filtered: u64,
    /// Successful work steals.
    pub steals: u64,
    /// Header-map installs that succeeded.
    pub hm_installs: u64,
    /// Header-map lookups that found a forwarding pointer.
    pub hm_hits: u64,
    /// Header-map puts that overflowed to the NVM header.
    pub hm_full: u64,
    /// Header-map occupancy at end of cycle (entries).
    pub hm_occupancy: u64,
    /// Cache regions allocated this cycle.
    pub cache_regions: u64,
    /// Peak bytes of DRAM held by the write cache.
    pub cache_peak_bytes: u64,
    /// Cache regions flushed asynchronously (during the scan sub-phase).
    pub async_flushed: u64,
    /// Copies that bypassed the (full) write cache straight to NVM.
    pub cache_overflow_copies: u64,
    /// Objects left in place (self-forwarded) because the heap could not
    /// hold their copy — G1's evacuation-failure handling.
    pub evac_failures: u64,
    /// Old regions evacuated by this (mixed) collection.
    pub old_regions_collected: u64,
    /// Marking time preceding a mixed collection, ns. Real G1 marks
    /// concurrently; this reproduction runs it stop-the-world but reports
    /// it separately from the evacuation pause.
    pub mark_ns: Ns,
    /// Engine scheduler steps executed for this cycle (evacuation phases
    /// plus any preceding marking pass). A deterministic work counter:
    /// it depends only on configuration and workload, never wall-clock.
    pub engine_steps: u64,
    /// Injected-fault events the collector absorbed this cycle (all zero
    /// when no fault plan is configured).
    pub fault_events: GcFaultObservations,
    /// 1 if this cycle is the resumed completion of a crashed durable-mode
    /// evacuation (0 otherwise; summed across a run).
    pub recovered_cycles: u64,
    /// Stop-the-world time a resumed cycle spent before its own phases
    /// began: every crashed attempt plus every recovery pass, from the
    /// instant the first attempt started to the instant the completing
    /// one did. Zero for a cycle that never crashed.
    pub recovery_ns: Ns,
    /// Forwarded objects whose copy or install missed the crash image's
    /// durable prefix and were re-evacuated from intact from-space during
    /// recovery.
    pub resumed_evacuations: u64,
    /// Forwarding entries (map entries and fenced NVM-header fallbacks)
    /// found inside the durable prefix and replayed as-is.
    pub replayed_map_entries: u64,
    /// Allocator lower-table entries journaled to the durability ledger
    /// this cycle (each one NVM line write + fence at the safepoint
    /// drains; zero when the durable allocator is off).
    pub alloc_fences: u64,
    /// Allocator regions whose durable lower-table entry diverged from
    /// the volatile truth at crash time and was reconciled during
    /// recovery (the proof that the crash caught the journal
    /// partially-durable).
    pub alloc_reconciled: u64,
    /// Free regions on the allocator's free-stack rebuilt from the
    /// durable lower tables during crash recovery.
    pub alloc_rebuilt_regions: u64,
    /// Race-exploration synchronization points crossed this cycle (zero
    /// when no exploration seed is configured).
    pub race_sync_points: u64,
    /// Order-sensitive digest of the interleaving the race-exploration
    /// layer drove this cycle (0 when off). Distinct digests across
    /// seeds prove distinct adversarial schedules were explored.
    pub race_digest: u64,
}

impl GcStats {
    /// The pause duration: everything between the start of the cycle's
    /// evacuation and the mutators' resumption — the sub-phases, preceded
    /// in a resumed cycle by the crashed attempts and recovery passes.
    /// The mark before a mixed cycle is `mark_ns`, beside it.
    pub fn pause_ns(&self) -> Ns {
        self.recovery_ns + self.phases.total()
    }
}

/// The pauses of an application run, as the collector accumulates them.
/// Per-cycle totals (copied bytes, engine steps, …) are sums over the
/// run's per-cycle [`GcStats`].
#[derive(Debug, Clone, Default)]
pub struct RunGcStats {
    /// Individual pause durations in cycle order.
    pub pauses_ns: Vec<Ns>,
}

impl RunGcStats {
    /// Adds one cycle's pause.
    pub fn absorb(&mut self, s: &GcStats) {
        self.pauses_ns.push(s.pause_ns());
    }

    /// Number of GC cycles.
    pub fn cycles(&self) -> usize {
        self.pauses_ns.len()
    }

    /// Accumulated GC pause time.
    pub fn total_pause_ns(&self) -> Ns {
        self.pauses_ns.iter().sum()
    }

    /// The longest single pause.
    pub fn max_pause_ns(&self) -> Ns {
        self.pauses_ns.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_sums() {
        let p = GcPhaseTimes {
            scan_ns: 10,
            writeback_ns: 5,
            clear_ns: 1,
        };
        assert_eq!(p.total(), 16);
    }

    #[test]
    fn absorb_accumulates() {
        let mut run = RunGcStats::default();
        let mut s = GcStats::default();
        s.phases.scan_ns = 100;
        run.absorb(&s);
        s.phases.scan_ns = 50;
        run.absorb(&s);
        assert_eq!(run.cycles(), 2);
        assert_eq!(run.total_pause_ns(), 150);
        assert_eq!(run.max_pause_ns(), 100);
        assert_eq!(run.pauses_ns, [100, 50]);
    }

    #[test]
    fn empty_run_has_zero_max_pause() {
        assert_eq!(RunGcStats::default().max_pause_ns(), 0);
    }
}
