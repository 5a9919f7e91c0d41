//! Application run orchestration.
//!
//! Runs one workload to completion against a collector configuration:
//! mutator phases alternate with stop-the-world young collections, and
//! the result carries everything the experiment harnesses report —
//! application time, GC statistics, raw memory-model counters, and the
//! run's one timeline (`mutator_start_ns`, `pause_spans`, `total_ns`),
//! of which in-pause bandwidth and the GC log are projections.

use crate::mutator::{Mutator, MutatorStep};
use crate::spec::WorkloadSpec;
use nvmgc_core::fault::FaultPlan;
use nvmgc_core::stats::{PauseSpan, RunGcStats};
use nvmgc_core::{G1Collector, GcConfig, GcError, GcStats};
use nvmgc_heap::verify::{verify_heap, GraphDigest, VerifyError};
use nvmgc_heap::{DevicePlacement, Heap, HeapConfig, HeapError, RegionId, RegionKind};
use nvmgc_memsim::{
    DeviceId, MemConfig, MemStats, MemorySystem, Ns, TraceCat, TraceEvent, TrafficSample,
};
use std::fmt;

/// When collections beyond young GCs are triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GcTrigger {
    /// Young collections only — the paper's evaluated mode (its workloads
    /// never triggered a full GC and mixed GCs were rare, §2.1).
    YoungOnly,
    /// G1-like adaptive mode: a mixed collection replaces the young one
    /// whenever old-generation occupancy exceeds the threshold fraction
    /// of the heap (the initiating-heap-occupancy idea).
    Adaptive {
        /// Old-occupancy fraction of the heap that initiates mixed GCs.
        ihop: f64,
    },
}

/// Configuration of one application run.
#[derive(Debug, Clone)]
pub struct AppRunConfig {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Collector configuration.
    pub gc: GcConfig,
    /// Heap geometry and placement.
    pub heap: HeapConfig,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Workload RNG seed.
    pub seed: u64,
    /// Collection-triggering policy.
    pub trigger: GcTrigger,
    /// Record full bandwidth time series (costs memory; timeline figures
    /// only).
    pub sample_series: bool,
    /// Record the deterministic trace log (per-worker phase spans, fault
    /// windows, persistence fences) into
    /// [`AppRunResult::trace`]. Costs memory; off by default.
    pub trace: bool,
}

impl AppRunConfig {
    /// A standard scaled-down run: 64 KiB regions, 48 MiB heap with an
    /// 8 MiB young generation, 512 KiB LLC, everything on NVM. The old
    /// space is generous because this reproduction (like the paper's
    /// evaluation) only runs young collections — promoted garbage is
    /// reclaimed by mixed GCs in real G1, which are out of scope.
    pub fn standard(spec: WorkloadSpec, gc: GcConfig) -> AppRunConfig {
        AppRunConfig {
            spec,
            gc,
            heap: HeapConfig {
                region_size: 64 << 10,
                heap_regions: 768,
                young_regions: 128,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            mem: MemConfig {
                llc_bytes: 512 << 10,
                ..MemConfig::default()
            },
            seed: 0x5EED,
            trigger: GcTrigger::YoungOnly,
            sample_series: false,
            trace: false,
        }
    }

    /// Young-generation size in bytes.
    pub fn young_bytes(&self) -> u64 {
        self.heap.young_regions as u64 * self.heap.region_size as u64
    }

    /// Heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.heap.heap_regions as u64 * self.heap.region_size as u64
    }

    /// Sizes the write cache and header map at the paper's ratio, 1/32 of
    /// the heap each, for the current heap geometry (call again after
    /// resizing the heap). An unlimited write cache stays unlimited; a
    /// small heap keeps a cache of one region and a 1 MiB map.
    pub fn apply_paper_ratios(&mut self) {
        let heap_bytes = self.heap_bytes();
        if self.gc.write_cache.enabled && self.gc.write_cache.max_bytes != u64::MAX {
            self.gc.write_cache.max_bytes = (heap_bytes / 32).max(self.heap.region_size as u64);
        }
        if self.gc.header_map.enabled {
            self.gc.header_map.max_bytes = (heap_bytes / 32).max(1 << 20);
        }
    }
}

/// Where in an application run a failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Pre-tenuring of long-lived anchors before the allocation loop.
    Setup,
    /// The mutator's allocation loop.
    Mutator,
    /// A stop-the-world collection.
    Gc,
    /// Post-GC heap verification (performed on fault-injected runs).
    Verify,
}

impl fmt::Display for RunPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunPhase::Setup => "setup",
            RunPhase::Mutator => "the mutator phase",
            RunPhase::Gc => "a collection",
            RunPhase::Verify => "post-GC verification",
        })
    }
}

/// What went wrong.
#[derive(Debug, PartialEq)]
pub enum RunFailure {
    /// The collector (or heap bookkeeping under it) failed.
    Gc(GcError),
    /// Post-GC tracing found a structural error (dangling reference,
    /// stale forwarding header, missing remembered-set entry, ...).
    Verify(VerifyError),
    /// The reachable object graph changed across a collection.
    DigestMismatch {
        /// Digest traced immediately before the collection.
        before: GraphDigest,
        /// Digest traced immediately after it.
        after: GraphDigest,
    },
    /// Consecutive collections reclaimed no room for the mutator: the
    /// live set (anchors + retained survivors) no longer fits the heap.
    /// Reported as a typed error instead of collecting in a futile loop
    /// forever — the workload analogue of an OutOfMemoryError.
    HeapExhausted {
        /// How many back-to-back collections made no allocation progress.
        futile_cycles: usize,
    },
    /// Accumulated GC pause time exceeded the total simulated run time —
    /// an accounting impossibility that a `saturating_sub` used to mask
    /// as `mutator_ns == 0`, poisoning every derived share and bandwidth
    /// figure downstream. Surfaced as a typed error instead.
    PauseExceedsTotal {
        /// Total simulated run time, ns.
        total_ns: Ns,
        /// Accumulated GC pause time, ns.
        gc_ns: Ns,
    },
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::Gc(e) => write!(f, "{e}"),
            RunFailure::Verify(e) => write!(f, "heap verification failed: {e:?}"),
            RunFailure::DigestMismatch { before, after } => write!(
                f,
                "graph digest changed across the collection: {before:?} -> {after:?}"
            ),
            RunFailure::HeapExhausted { futile_cycles } => write!(
                f,
                "heap exhausted: {futile_cycles} consecutive collections reclaimed no \
                 space for the mutator"
            ),
            RunFailure::PauseExceedsTotal { total_ns, gc_ns } => write!(
                f,
                "accumulated GC pause time ({gc_ns} ns) exceeds total simulated run \
                 time ({total_ns} ns): pause accounting is corrupt"
            ),
        }
    }
}

/// A failure while driving an application run.
///
/// Carries the workload name, where in the run the failure occurred, and
/// the names of any injected faults, so experiment harnesses can report
/// exactly which cell degraded and under which fault schedule.
#[derive(Debug)]
pub struct RunError {
    /// The workload being driven.
    pub workload: String,
    /// Where the failure occurred.
    pub phase: RunPhase,
    /// Zero-based index of the GC cycle in flight (or about to start).
    pub cycle: usize,
    /// Distinct names of the faults in the run's injection plan, in
    /// schedule order; empty when no faults were configured.
    pub active_faults: Vec<&'static str>,
    /// The underlying failure.
    pub failure: RunFailure,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload '{}' failed during {} (GC cycle {}): {}",
            self.workload, self.phase, self.cycle, self.failure
        )?;
        if !self.active_faults.is_empty() {
            write!(f, " [injected faults: {}]", self.active_faults.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.failure {
            RunFailure::Gc(e) => Some(e),
            _ => None,
        }
    }
}

/// Distinct fault names in a plan, in schedule order (device faults
/// first). Used to annotate errors and experiment reports.
pub fn fault_names(plan: &FaultPlan) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for e in &plan.mem.events {
        if !names.contains(&e.name()) {
            names.push(e.name());
        }
    }
    for e in &plan.gc.events {
        if !names.contains(&e.name()) {
            names.push(e.name());
        }
    }
    names
}

/// The measurements from one application run.
#[derive(Debug)]
pub struct AppRunResult {
    /// Workload name.
    pub name: String,
    /// Simulated time the first mutator phase began (the end of the
    /// pre-tenuring setup). With `pause_spans` and `total_ns` this is the
    /// run's timeline: see [`AppRunResult::mutator_phases`].
    pub mutator_start_ns: Ns,
    /// Total simulated run time (mutator + GC pauses).
    pub total_ns: Ns,
    /// Simulated time spent in mutator phases (excludes pauses).
    pub mutator_ns: Ns,
    /// Accumulated GC statistics.
    pub gc: RunGcStats,
    /// Per-cycle statistics.
    pub cycles: Vec<GcStats>,
    /// Raw memory-model counters.
    pub mem_stats: MemStats,
    /// Raw per-bin NVM traffic series (when sampling enabled).
    pub nvm_series: Vec<TrafficSample>,
    /// Raw per-bin DRAM traffic series (when sampling enabled).
    pub dram_series: Vec<TrafficSample>,
    /// Sampler bin width, ns.
    pub bin_ns: Ns,
    /// The GC pauses in simulated time, one per entry of `cycles`, as
    /// typed spans carrying cycle kind (young, mixed, crash-recovery) and
    /// heap occupancy — what the latency scenario suite attributes
    /// SLO-violation windows to, what bandwidth "inside GC" is measured
    /// over, and what `nvmgc_core::gclog::render` prints.
    pub pause_spans: Vec<PauseSpan>,
    /// The deterministic trace events in canonical `(ts, track)` order
    /// (empty unless [`AppRunConfig::trace`] was set).
    pub trace: Vec<TraceEvent>,
    /// Peak old-generation footprint in regions.
    pub peak_old_regions: usize,
    /// Objects the mutator allocated.
    pub allocated_objects: u64,
    /// Pre/post graph-digest comparisons performed (fault runs only;
    /// every one of them matched, or the run would have errored).
    pub digest_checks: usize,
    /// Address-independent digest of the final reachable object graph.
    /// Two same-seed runs must agree on it regardless of fault plan,
    /// collector configuration, or crash recovery — the recovery tests
    /// compare a crashed-and-resumed run against a never-crashed one.
    pub final_digest: GraphDigest,
    /// The region allocator's free stack at the end of the run (top of
    /// stack last). A crashed-and-recovered run must end with exactly
    /// the free stack a never-crashed same-seed run ends with.
    pub final_free_regions: Vec<RegionId>,
    /// Per-region kinds from the allocator's lower table at the end of
    /// the run, indexed by region id over `0..heap_regions`.
    pub final_region_kinds: Vec<RegionKind>,
}

impl AppRunResult {
    /// Accumulated GC time in seconds.
    pub fn gc_seconds(&self) -> f64 {
        self.gc.total_pause_ns() as f64 / 1e9
    }

    /// Total run time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mutator (non-GC) time in seconds.
    pub fn mutator_seconds(&self) -> f64 {
        self.mutator_ns as f64 / 1e9
    }

    /// Fraction of run time spent paused for GC.
    pub fn gc_share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.gc.total_pause_ns() as f64 / self.total_ns as f64
        }
    }

    /// How many of the cycles were mixed collections.
    pub fn mixed_cycles(&self) -> usize {
        self.pause_spans.iter().filter(|p| p.mixed).count()
    }

    /// The `[start, end)` intervals the mutators were stopped, in order.
    pub fn pauses(&self) -> impl Iterator<Item = (Ns, Ns)> + '_ {
        self.pause_spans.iter().map(|p| (p.start_ns, p.end_ns))
    }

    /// The `[start, end)` intervals the mutators ran: what `pauses()`
    /// leaves of `[mutator_start_ns, total_ns)`, the last one ending with
    /// the run. With `pauses()` they tile that interval.
    pub fn mutator_phases(&self) -> impl Iterator<Item = (Ns, Ns)> + '_ {
        let starts = std::iter::once(self.mutator_start_ns).chain(self.pauses().map(|p| p.1));
        let ends = self.pauses().map(|p| p.0).chain([self.total_ns]);
        starts.zip(ends)
    }
}

/// A warm simulation image: the complete simulation-visible state after
/// construction, pre-tenuring setup, and the *first mutator phase* of a
/// run (heap regions and remsets, the memory system with its ledgers,
/// LLC, prefetch tables, sampler, trace log and durability ledgers, and
/// the mutator with its RNG stream), plus the first scheduling step the
/// mutator returned.
///
/// Every run whose configuration shares the warmup-relevant prefix —
/// workload spec, seed, heap geometry, effective memory config, thread
/// count, sampling/tracing toggles and the device fault plan — executes
/// this prefix identically, because nothing in it consults the collector
/// configuration (the collector is constructed *after* the boundary and
/// touches no heap or memory state on construction). Sweep harnesses
/// therefore run the warmup once per group ([`SimSnapshot::capture`])
/// and complete each cell from a clone ([`SimSnapshot::fork`]),
/// bit-identical to a cold start. The clone is cheap because a heap region
/// owns backing memory only from its first bump: it copies the regions
/// the warmup used, not the whole configured heap.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    heap: Heap,
    mem: MemorySystem,
    mutator: Mutator,
    first_step: MutatorStep,
    mutator_start_ns: Ns,
    warm_key: String,
    warmup_allocs: u64,
}

impl SimSnapshot {
    /// The grouping key of `cfg`'s warmup prefix: two configurations
    /// fork from the same snapshot exactly when their keys are equal.
    pub fn warm_key_for(cfg: &AppRunConfig) -> String {
        format!(
            "{:?}|{:?}|{}|{:?}|{}|{}|{}|{:?}",
            cfg.spec,
            cfg.heap,
            cfg.seed,
            effective_mem_config(cfg),
            cfg.gc.threads.max(1),
            cfg.trace,
            cfg.sample_series,
            cfg.gc.fault.mem,
        )
    }

    /// Runs the warmup prefix of `cfg` and captures the resulting state.
    pub fn capture(cfg: &AppRunConfig) -> Result<SimSnapshot, RunError> {
        let active_faults = fault_names(&cfg.gc.fault);
        let fail = |phase: RunPhase, failure: RunFailure| RunError {
            workload: cfg.spec.name.to_owned(),
            phase,
            cycle: 0,
            active_faults: active_faults.clone(),
            failure,
        };

        let mut heap = Heap::new(cfg.heap.clone(), cfg.spec.build_classes());
        let mut mem = MemorySystem::new(effective_mem_config(cfg));
        let threads = cfg.gc.threads.max(1);
        mem.set_threads(threads + 1);
        // Tracing is enabled before the fault plan is installed so the
        // plan's windows land on the device lanes as annotations.
        mem.trace_mut().set_enabled(cfg.trace);
        mem.set_fault_plan(&cfg.gc.fault.mem);
        mem.sampler_mut().set_enabled(cfg.sample_series);

        let mut mutator = Mutator::new(cfg.spec.clone(), cfg.seed, threads, cfg.young_bytes());
        mutator
            .setup(&mut heap, &mut mem)
            .map_err(|e| fail(RunPhase::Setup, RunFailure::Gc(GcError::Heap(e))))?;

        let mutator_start_ns = mutator.clock;
        let first_step = mutator_phase(&mut heap, &mut mem, &mut mutator, threads, 0)
            .map_err(|e| fail(RunPhase::Mutator, RunFailure::Gc(GcError::Heap(e))))?;
        let warmup_allocs = mutator.allocated_objects();
        Ok(SimSnapshot {
            heap,
            mem,
            mutator,
            first_step,
            mutator_start_ns,
            warm_key: Self::warm_key_for(cfg),
            warmup_allocs,
        })
    }

    /// The grouping key this snapshot was captured under.
    pub fn warm_key(&self) -> &str {
        &self.warm_key
    }

    /// Objects the mutator allocated during the captured warmup — the
    /// deterministic amount of work each fork skips re-simulating.
    pub fn warmup_allocated_objects(&self) -> u64 {
        self.warmup_allocs
    }

    /// Clones the captured state back out (heap, memory system, mutator,
    /// first scheduling step). The snapshot itself stays intact, so any
    /// number of restores can fork from one warm image.
    pub fn restore(&self) -> (Heap, MemorySystem, Mutator, MutatorStep) {
        (
            self.heap.clone(),
            self.mem.clone(),
            self.mutator.clone(),
            self.first_step,
        )
    }

    /// Completes an application run for `cfg` forked from this warm
    /// image — bit-identical to `run_app(cfg)` from a cold start.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`'s warmup prefix differs from the one captured
    /// (the forked run would silently diverge from a cold start).
    pub fn fork(&self, cfg: &AppRunConfig) -> Result<AppRunResult, RunError> {
        assert_eq!(
            self.warm_key,
            Self::warm_key_for(cfg),
            "forked config must share the snapshot's warmup prefix"
        );
        finish_run(cfg, self.clone())
    }
}

/// One mutator phase: runs the mutator until it needs a collection or is
/// done and emits the phase's `"mutator"` trace span, tagged with the
/// number of collections before it. The mutator runs on the lane one past
/// the GC workers.
fn mutator_phase(
    heap: &mut Heap,
    mem: &mut MemorySystem,
    mutator: &mut Mutator,
    threads: usize,
    cycle: usize,
) -> Result<MutatorStep, HeapError> {
    let start = mutator.clock;
    let step = mutator.run(heap, mem)?;
    mem.trace_mut().span(
        "mutator",
        TraceCat::Mutator,
        threads as u32,
        start,
        mutator.clock,
        cycle as u64,
    );
    Ok(step)
}

/// The memory configuration a run actually uses. Power-failure faults
/// need the durability ledger; enable it automatically and key its drain
/// schedule to the fault seed so a plan replay reproduces the exact same
/// crash images.
fn effective_mem_config(cfg: &AppRunConfig) -> MemConfig {
    let mut mem_cfg = cfg.mem.clone();
    if cfg
        .gc
        .fault
        .gc
        .events
        .iter()
        .any(|e| matches!(e, nvmgc_core::GcFault::PowerFailure { .. }))
    {
        mem_cfg.persist.enabled = true;
        mem_cfg.persist.seed = cfg.gc.fault.seed;
    }
    mem_cfg
}

/// Runs one application to completion.
///
/// The memory model assigns thread ids `0..gc.threads` to GC workers and
/// `gc.threads` to the mutator.
///
/// When the collector configuration carries a fault-injection plan, the
/// device-level schedule is installed into the memory system here, and
/// the reachable graph is traced before and after every collection — a
/// digest mismatch or structural error surfaces as a typed [`RunError`]
/// naming the injected faults, never a panic.
pub fn run_app(cfg: &AppRunConfig) -> Result<AppRunResult, RunError> {
    finish_run(cfg, SimSnapshot::capture(cfg)?)
}

/// Mutator (non-pause) time of a run: total minus accumulated GC pauses,
/// as a *checked* subtraction. GC time exceeding total time is an
/// accounting impossibility; the old `saturating_sub` silently clamped it
/// to zero, hiding corrupt pause bookkeeping inside plausible-looking
/// results. Kept as a standalone function so the regression test pins the
/// error arm directly.
fn mutator_time(total_ns: Ns, gc_ns: Ns) -> Result<Ns, RunFailure> {
    total_ns
        .checked_sub(gc_ns)
        .ok_or(RunFailure::PauseExceedsTotal { total_ns, gc_ns })
}

/// Completes a run from a warm image: constructs the collector and
/// drives the collection / mutator-phase loop to completion, starting
/// from the scheduling step the warmup's mutator phase produced.
fn finish_run(cfg: &AppRunConfig, snap: SimSnapshot) -> Result<AppRunResult, RunError> {
    let SimSnapshot {
        mut heap,
        mut mem,
        mut mutator,
        first_step: mut step,
        mutator_start_ns,
        ..
    } = snap;
    let active_faults = fault_names(&cfg.gc.fault);
    let fail = |phase: RunPhase, cycle: usize, failure: RunFailure| RunError {
        workload: cfg.spec.name.to_owned(),
        phase,
        cycle,
        active_faults: active_faults.clone(),
        failure,
    };
    let verify_runs = !cfg.gc.fault.is_empty();
    let threads = cfg.gc.threads.max(1);

    let mut gc = G1Collector::new(cfg.gc.clone());
    let mut cycles: Vec<GcStats> = Vec::new();
    let mut pause_spans: Vec<PauseSpan> = Vec::new();
    let mut peak_old_regions = 0usize;
    let mut digest_checks = 0usize;
    // Guard against a futile-collection livelock: if the live set grows to
    // fill the heap, every mutator step demands a GC that reclaims nothing.
    // Bail out with a typed error after this many zero-progress cycles.
    const FUTILE_GC_LIMIT: usize = 8;
    let mut futile_cycles = 0usize;
    let mut bytes_at_last_gc = u64::MAX;

    while step == MutatorStep::NeedsGc {
        let gc_start = mutator.clock;
        let cycle = cycles.len();
        if mutator.allocated_bytes() == bytes_at_last_gc {
            futile_cycles += 1;
            if futile_cycles >= FUTILE_GC_LIMIT {
                return Err(fail(
                    RunPhase::Gc,
                    cycle,
                    RunFailure::HeapExhausted { futile_cycles },
                ));
            }
        } else {
            futile_cycles = 0;
            bytes_at_last_gc = mutator.allocated_bytes();
        }
        let old_frac = heap.old().len() as f64 / cfg.heap.heap_regions as f64;
        let mixed = matches!(cfg.trigger, GcTrigger::Adaptive { ihop } if old_frac > ihop);
        let occupied = |h: &Heap| -> u64 {
            (h.eden().len() + h.survivor().len() + h.old().len()) as u64
                * h.config().region_size as u64
        };
        let before_bytes = occupied(&heap);
        let before_digest = if verify_runs {
            Some(
                verify_heap(&heap, &mutator.roots)
                    .map_err(|e| fail(RunPhase::Verify, cycle, RunFailure::Verify(e)))?,
            )
        } else {
            None
        };
        let mut attempt = if mixed {
            gc.collect_mixed(&mut heap, &mut mem, &mut mutator.roots, gc_start)
        } else {
            gc.collect(&mut heap, &mut mem, &mut mutator.roots, gc_start)
        };
        // A durable-map power failure is recoverable, not fatal:
        // replay the crash image's durable prefix and finish the
        // interrupted evacuation. A second power failure during
        // the resumed cycle loops around again. The post-cycle
        // digest check below then proves the recovered graph
        // identical to a never-crashed run.
        let outcome = loop {
            match attempt {
                Err(GcError::PowerCrash(crash)) => {
                    attempt =
                        gc.recover_from_crash(&mut heap, &mut mem, &mut mutator.roots, *crash);
                }
                other => break other,
            }
        }
        .map_err(|e| fail(RunPhase::Gc, cycle, RunFailure::Gc(e)))?;
        if let Some(before) = before_digest {
            let after = verify_heap(&heap, &mutator.roots)
                .map_err(|e| fail(RunPhase::Verify, cycle, RunFailure::Verify(e)))?;
            if after != before {
                return Err(fail(
                    RunPhase::Verify,
                    cycle,
                    RunFailure::DigestMismatch { before, after },
                ));
            }
            digest_checks += 1;
        }
        peak_old_regions = peak_old_regions.max(heap.old().len());
        pause_spans.push(PauseSpan {
            start_ns: gc_start,
            end_ns: outcome.end_ns,
            mixed,
            recovered: outcome.stats.recovered_cycles > 0,
            before_bytes,
            after_bytes: occupied(&heap),
        });
        cycles.push(outcome.stats);
        mutator.on_gc_complete(outcome.end_ns);
        // Collectors move rooted objects; none may change a class.
        #[cfg(test)]
        mutator.assert_shapes_match(&heap);
        step = mutator_phase(&mut heap, &mut mem, &mut mutator, threads, cycles.len()).map_err(
            |e| {
                fail(
                    RunPhase::Mutator,
                    cycles.len(),
                    RunFailure::Gc(GcError::Heap(e)),
                )
            },
        )?;
    }

    #[cfg(test)]
    mutator.assert_shapes_match(&heap);
    let total_ns = mutator.clock;
    let gc_ns = gc.run_stats.total_pause_ns();
    let mutator_ns = mutator_time(total_ns, gc_ns)
        .map_err(|failure| fail(RunPhase::Gc, cycles.len(), failure))?;
    // Outside the simulation (charges nothing): the final reachable-graph
    // digest, for cross-run comparisons.
    let final_digest = verify_heap(&heap, &mutator.roots)
        .map_err(|e| fail(RunPhase::Verify, cycles.len(), RunFailure::Verify(e)))?;
    let final_free_regions = heap.allocator().free_stack().to_vec();
    let final_region_kinds = (0..heap.config().heap_regions)
        .map(|r| heap.allocator().lower(r).kind)
        .collect();
    let sampler = mem.sampler();

    Ok(AppRunResult {
        name: cfg.spec.name.to_owned(),
        mutator_start_ns,
        total_ns,
        mutator_ns,
        gc: gc.run_stats.clone(),
        cycles,
        mem_stats: mem.stats(),
        nvm_series: sampler.series(DeviceId::Nvm).to_vec(),
        dram_series: sampler.series(DeviceId::Dram).to_vec(),
        bin_ns: sampler.bin_ns(),
        pause_spans,
        trace: mem.trace_mut().take_sorted(),
        peak_old_regions,
        allocated_objects: mutator.allocated_objects(),
        digest_checks,
        final_digest,
        final_free_regions,
        final_region_kinds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClassMix;
    use nvmgc_memsim::traffic_in;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "runner-unit",
            alloc_young_multiple: 3.0,
            mix: vec![ClassMix {
                num_refs: 2,
                data_bytes: 24,
                weight: 1,
            }],
            survival: 0.4,
            keep_gcs: 1,
            old_link_fraction: 0.1,
            chain_fraction: 0.0,
            cpu_per_alloc_ns: 20.0,
            touches_per_alloc: 1,
            app_threads: 4,
            share_fraction: 0.15,
            old_anchor_bytes: 8 << 10,
        }
    }

    fn small_cfg(gc: GcConfig) -> AppRunConfig {
        let mut cfg = AppRunConfig::standard(small_spec(), gc);
        cfg.heap.region_size = 16 << 10;
        cfg.heap.heap_regions = 96;
        cfg.heap.young_regions = 32;
        cfg
    }

    #[test]
    fn oversubscribed_live_set_errors_instead_of_looping() {
        // A live set (anchors + long-retained survivors) that outgrows the
        // heap used to spin forever in a futile GC loop; it must instead
        // surface a typed error promptly.
        let mut spec = small_spec();
        spec.survival = 0.95;
        spec.keep_gcs = 4;
        spec.alloc_young_multiple = 20.0;
        spec.old_anchor_bytes = 600 << 10;
        let mut cfg = AppRunConfig::standard(spec, GcConfig::vanilla(4));
        cfg.heap.region_size = 16 << 10;
        cfg.heap.heap_regions = 96;
        cfg.heap.young_regions = 32;
        let err = run_app(&cfg).expect_err("live set cannot fit this heap");
        assert!(
            matches!(
                err.failure,
                RunFailure::HeapExhausted { .. }
                    | RunFailure::Gc(GcError::Heap(nvmgc_heap::HeapError::OutOfRegions))
            ),
            "unexpected failure: {err}"
        );
    }

    #[test]
    fn mutator_time_is_a_checked_subtraction() {
        // Pinned regression: `mutator_ns` was `total_ns.saturating_sub(gc_ns)`,
        // so GC time exceeding total time — impossible unless pause
        // accounting is corrupt — clamped silently to zero instead of
        // surfacing. It is now a typed failure carrying both operands.
        assert_eq!(mutator_time(100, 30), Ok(70));
        assert_eq!(mutator_time(30, 30), Ok(0));
        let err = mutator_time(30, 100).expect_err("gc > total must not clamp");
        assert_eq!(
            err,
            RunFailure::PauseExceedsTotal {
                total_ns: 30,
                gc_ns: 100
            }
        );
        assert!(err.to_string().contains("exceeds total simulated run time"));
    }

    #[test]
    fn run_completes_with_multiple_gcs() {
        let r = run_app(&small_cfg(GcConfig::vanilla(4))).unwrap();
        assert!(
            r.gc.cycles() >= 2,
            "expected several GCs, got {}",
            r.gc.cycles()
        );
        assert!(r.total_ns > 0);
        assert!(r.mutator_ns > 0);
        assert!(r.mutator_ns < r.total_ns);
        assert_eq!(r.pause_spans.len(), r.gc.cycles());
        assert!(r.allocated_objects > 1000);
        // A young-only trigger with no fault plan produces only young
        // pauses.
        for span in &r.pause_spans {
            assert_eq!(span.kind(), "gc-young");
            assert!(span.end_ns > span.start_ns);
        }
    }

    #[test]
    fn every_pause_span_is_the_pause_its_cycle_reports() {
        // (Each of these runs also checks, in `finish_run` under
        // `cfg(test)`, the mutator's shape cache against the heap after
        // every collection — young, mixed, crashed and recovered — and at
        // the end of the run.)
        // From the instant the mutators stop to the instant they resume,
        // every simulated ns is in exactly one statistic of the cycle:
        // the mark (outside `pause_ns`, as `GcStats::mark_ns` documents)
        // or the pause — allocator journal drains, crashed attempts and
        // recovery passes included.
        let durable = |allocator: bool, fault: FaultPlan| {
            let mut cfg = small_cfg(GcConfig::plus_all(12, 1 << 20));
            cfg.gc.header_map.durable = true;
            cfg.gc.allocator.durable = allocator;
            cfg.gc.fault = fault;
            cfg
        };
        let mut mixed = small_cfg(GcConfig::vanilla(4));
        mixed.trigger = GcTrigger::Adaptive { ihop: 0.0 };
        let crash_plan = FaultPlan::generate(38, nvmgc_core::Severity::Severe, 40_000_000);
        let inputs = [
            ("young", small_cfg(GcConfig::vanilla(4))),
            ("mixed", mixed),
            ("durable map", durable(false, FaultPlan::none())),
            ("durable map + allocator", durable(true, FaultPlan::none())),
            ("durable + crash", durable(true, crash_plan)),
        ];
        for (label, cfg) in inputs {
            let r = run_app(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(r.gc.cycles() >= 2, "{label}");
            assert_eq!(r.mixed_cycles() > 0, label == "mixed", "{label}");
            let recovered: u64 = r.cycles.iter().map(|c| c.recovered_cycles).sum();
            assert_eq!(recovered > 0, label == "durable + crash", "{label}");
            for (i, (span, c)) in r.pause_spans.iter().zip(&r.cycles).enumerate() {
                assert_eq!(
                    span.end_ns - span.start_ns,
                    c.mark_ns + c.pause_ns(),
                    "{label}: cycle {i} stopped the mutators for a time it does not report"
                );
            }
            let stopped: Ns = r.pause_spans.iter().map(|p| p.end_ns - p.start_ns).sum();
            let marked: Ns = r.cycles.iter().map(|c| c.mark_ns).sum();
            assert_eq!(r.mutator_ns, r.total_ns - stopped + marked, "{label}");
        }
    }

    #[test]
    fn optimized_config_also_completes() {
        let mut cfg = small_cfg(GcConfig::plus_all(8, 1 << 20));
        cfg.sample_series = true;
        let r = run_app(&cfg).unwrap();
        assert!(r.gc.cycles() >= 2);
        let (read, _, _) = traffic_in(&r.nvm_series, r.bin_ns, r.pauses());
        assert!(read > 0, "GC reads NVM");
        assert!(!r.nvm_series.is_empty());
    }

    #[test]
    fn pauses_and_mutator_phases_tile_the_run() {
        let mut cfg = small_cfg(GcConfig::vanilla(4));
        cfg.trigger = GcTrigger::Adaptive { ihop: 0.0 };
        cfg.sample_series = true;
        let r = run_app(&cfg).unwrap();
        assert!(r.mixed_cycles() >= 1);
        assert!(r.mutator_start_ns > 0, "setup takes simulated time");

        // Sorted by start, the two projections cover
        // `[mutator_start_ns, total_ns)` with no gap and no overlap.
        let mut intervals: Vec<(Ns, Ns)> = r.pauses().chain(r.mutator_phases()).collect();
        assert_eq!(intervals.len(), 2 * r.pause_spans.len() + 1);
        intervals.sort_unstable();
        let mut at = r.mutator_start_ns;
        for (from, to) in intervals {
            assert_eq!(from, at, "gap or overlap at {at}");
            assert!(to >= from);
            at = to;
        }
        assert_eq!(at, r.total_ns);
        let stopped: Ns = r.pauses().map(|(from, to)| to - from).sum();
        let running: Ns = r.mutator_phases().map(|(from, to)| to - from).sum();
        assert_eq!(stopped + running, r.total_ns - r.mutator_start_ns);

        // One interval over the whole run sees every byte the sampler did.
        for series in [&r.nvm_series, &r.dram_series] {
            let totals = series.iter().fold((0, 0), |(rd, wr), b| {
                (rd + b.read_bytes, wr + b.write_bytes)
            });
            let whole = [(0, r.total_ns)].into_iter();
            let (read, write, dur) = traffic_in(series, r.bin_ns, whole);
            assert_eq!((read, write, dur), (totals.0, totals.1, r.total_ns));
        }
        assert!(r.nvm_series.iter().any(|b| b.read_bytes > 0));
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_app(&small_cfg(GcConfig::vanilla(4))).unwrap();
        let b = run_app(&small_cfg(GcConfig::vanilla(4))).unwrap();
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.gc.pauses_ns, b.gc.pauses_ns);
        assert_eq!(a.allocated_objects, b.allocated_objects);
    }

    #[test]
    fn dram_placement_is_faster_than_nvm() {
        let nvm = run_app(&small_cfg(GcConfig::vanilla(4))).unwrap();
        let mut cfg = small_cfg(GcConfig::vanilla(4));
        cfg.heap.placement = DevicePlacement::all_dram();
        let dram = run_app(&cfg).unwrap();
        assert!(
            nvm.gc.total_pause_ns() > dram.gc.total_pause_ns(),
            "GC on NVM must be slower: nvm={} dram={}",
            nvm.gc.total_pause_ns(),
            dram.gc.total_pause_ns()
        );
        assert!(nvm.total_ns > dram.total_ns);
    }
}
