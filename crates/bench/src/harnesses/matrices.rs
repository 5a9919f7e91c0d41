//! The sweeps that are not paper figures: the fault, plan and scenario
//! matrices, the simulator self-benchmark and the trace artifact.

use crate::driver::{Column, Driver, Gate};
use crate::grids::matrix_config;
use crate::{
    fast_mode, fault_matrix_report, plan_matrix_report, run_fault_grid, run_plan_grid,
    run_scenario_grid, scenario_matrix_report, seed, throughput_report, FaultRow, ScenarioRow,
    FAULT_MATRIX_HORIZON_NS, FAULT_MATRIX_THREADS,
};
use nvmgc_core::fault::{FaultPlan, GcFault, Severity};
use nvmgc_core::GcConfig;
use nvmgc_memsim::TraceCat;
use nvmgc_metrics::{bandwidth_timeline, chrome_trace, timeline_rows, ChromeTrace, TimelineRow};
use nvmgc_workloads::app;
use serde::Serialize;

/// The last column of the matrix tables.
fn outcome(ok: bool, outcome: &str) -> String {
    if ok {
        "ok".to_owned()
    } else {
        format!("error: {outcome}")
    }
}

/// The table both fault-row matrices print.
const FAULT_COLUMNS: [Column<FaultRow>; 17] = [
    ("app", |r| r.app.clone()),
    ("config", |r| r.config.clone()),
    ("map", |r| r.map_mode.clone()),
    ("alloc", |r| r.alloc_mode.clone()),
    ("severity", |r| r.severity.clone()),
    ("seed", |r| format!("{:#x}", r.plan_seed)),
    ("cycles", |r| r.cycles.to_string()),
    ("digests", |r| r.digest_checks.to_string()),
    ("faults", |r| r.gc_fault_events.to_string()),
    ("pf", |r| r.power_failure_checks.to_string()),
    ("lost", |r| r.discarded_lines.to_string()),
    ("recov", |r| r.recovered_cycles.to_string()),
    ("resumed", |r| r.resumed_evacuations.to_string()),
    ("replayed", |r| r.replayed_map_entries.to_string()),
    ("reconc", |r| r.alloc_reconciled.to_string()),
    ("rebuilt", |r| r.alloc_rebuilt.to_string()),
    ("outcome", |r| outcome(r.ok, &r.outcome)),
];

/// Prints the matrices' completion line and returns the corruption count.
fn completion(rows: &[FaultRow]) -> usize {
    let completed = rows.iter().filter(|r| r.ok).count();
    let corrupted = rows.iter().filter(|r| r.corruption).count();
    println!(
        "{}/{} cells completed; {} typed-error cells; {} corruption cells",
        completed,
        rows.len(),
        rows.len() - completed,
        corrupted
    );
    corrupted
}

/// Fault-injection matrix — robustness sweep, not a paper figure.
///
/// Runs a grid of (application × collector config × fault severity ×
/// schedule seed) cells. Each cell generates a deterministic
/// [`FaultPlan`] from its seed, installs it, and runs the workload to
/// completion; `run_app` traces the reachable graph before and after
/// every collection, so a digest divergence under fault surfaces as a
/// typed error, never silent corruption.
///
/// The grid itself lives in [`crate::grids`] so the `sim_throughput`
/// self-benchmark and the golden-digest regression test exercise the
/// exact same cells.
///
/// The sweep asserts the plane's two guarantees:
///
/// - **determinism** — the emitted `results/fault_matrix.json` is
///   byte-identical across repeated runs and any `NVMGC_JOBS` value (CI
///   diffs two runs);
/// - **graceful degradation** — at every severity, including the maximum
///   documented one, no cell panics: a cell either completes with all
///   digest checks passing or reports a typed error naming the injected
///   faults.
///
/// The harness exits nonzero if any cell reports a digest mismatch or a
/// structural verification failure.
pub(super) fn fault_matrix(d: &mut Driver) -> Gate {
    // Cells sharing a warmup prefix (same app/heap/mem/fault-mem plan)
    // run that warmup once and fork from the snapshot; rows are
    // byte-identical to the cold per-cell sweep.
    let rows = d.absorb(run_fault_grid(fast_mode()));
    d.table(&rows, &FAULT_COLUMNS);
    let corrupted = completion(&rows);
    let report = fault_matrix_report(rows);
    d.write(&report);
    let rows = &report.data;

    if corrupted > 0 {
        return Err(format!(
            "fault_matrix: {corrupted} cell(s) reported graph corruption"
        ));
    }

    // Persistence-fault acceptance. Every Moderate/Severe plan schedules a
    // power failure, so (a) at least one completing cell must have lost
    // real non-durable lines to a crash image *and* proved recoverability,
    // and (b) no completing cell may sail past its scheduled failure
    // without the oracle running — a zero-check cell is only legitimate
    // when the run ended before the failure instant.
    let pf_cells: Vec<&FaultRow> = rows
        .iter()
        .filter(|r| matches!(r.severity.as_str(), "moderate" | "severe"))
        .collect();
    if !pf_cells.is_empty() {
        let proved = pf_cells
            .iter()
            .any(|r| r.ok && r.power_failure_checks > 0 && r.discarded_lines >= 1);
        if !proved {
            return Err(
                "fault_matrix: no power-failure cell discarded a non-durable \
                 line and proved recoverability"
                    .to_owned(),
            );
        }
        for r in &pf_cells {
            if !r.ok || r.power_failure_checks > 0 {
                continue;
            }
            let severity = match r.severity.as_str() {
                "moderate" => Severity::Moderate,
                _ => Severity::Severe,
            };
            let plan = FaultPlan::generate(r.plan_seed, severity, FAULT_MATRIX_HORIZON_NS);
            let first_pf = plan
                .gc
                .events
                .iter()
                .filter_map(|e| match e {
                    GcFault::PowerFailure { at_ns } => Some(*at_ns),
                    _ => None,
                })
                .min();
            if let Some(at) = first_pf {
                if r.total_ns >= at {
                    return Err(format!(
                        "fault_matrix: silent pass — cell app={} gc={} severity={} \
                         seed={:#x} ran past its power failure at {at} ns without \
                         an oracle check",
                        r.app, r.config, r.severity, r.plan_seed
                    ));
                }
            }
        }

        // Durable-map crash-recovery acceptance: at least one Moderate+
        // durable cell must actually crash mid-evacuation, recover from
        // the crash image, resume, and complete with its digest checks
        // passing — otherwise the recovery path silently stopped being
        // exercised.
        let recovered = pf_cells.iter().any(|r| {
            r.map_mode == "durable"
                && r.ok
                && r.recovered_cycles >= 1
                && r.resumed_evacuations >= 1
                && r.digest_checks > 0
        });
        if !recovered {
            return Err(
                "fault_matrix: no durable-map cell crashed mid-evacuation and \
                 resumed to completion"
                    .to_owned(),
            );
        }

        // Allocator-durability crash-recovery acceptance: at least one
        // Moderate+ durable-allocator cell must crash with partially-
        // durable allocator metadata (journal entries the crash image had
        // not yet fenced), reconcile them, rebuild the free stack from
        // the durable lower tables, resume, and complete with its digest
        // checks passing. Without this gate the allocator recovery scan
        // could silently degenerate into a no-op.
        let alloc_recovered = pf_cells.iter().any(|r| {
            r.alloc_mode == "durable"
                && r.ok
                && r.recovered_cycles >= 1
                && r.alloc_reconciled >= 1
                && r.alloc_rebuilt > 0
                && r.digest_checks > 0
        });
        if !alloc_recovered {
            return Err("fault_matrix: no durable-allocator cell crashed with \
                 partially-durable allocator metadata and rebuilt its \
                 free stack on recovery"
                .to_owned());
        }
    }
    Ok(())
}

/// Plan-axis matrix — the plan/policy decomposition sweep, not a paper
/// figure.
///
/// Runs every plan (G1, PS, semispace) through the fault matrix at its
/// vanilla preset and with the full durable stack (write cache + header
/// map + durable map + durable allocator). The grid lives in
/// [`crate::grids`] next to the fault matrix so the golden-digest
/// regression test exercises the exact same cells.
///
/// The sweep asserts the decomposition's payoff:
///
/// - **determinism** — `results/plan_matrix.json` is byte-identical
///   across repeated runs and any `NVMGC_JOBS` value (CI diffs runs at
///   jobs 1 vs 2);
/// - **graceful degradation** — no cell panics at any severity: each
///   completes with digest checks passing or reports a typed error;
/// - **shared crash recovery** — the semispace plan, which declares only
///   a copy policy and owns zero persistence code, must crash
///   mid-evacuation under a Moderate+ durable cell, recover through the
///   shared durable header map and allocator journal, resume, and
///   complete — proof the plans really do inherit the fault plane from
///   the policy layer.
pub(super) fn plan_matrix(d: &mut Driver) -> Gate {
    let rows = d.absorb(run_plan_grid(fast_mode()));
    d.table(&rows, &FAULT_COLUMNS);
    let corrupted = completion(&rows);
    let report = plan_matrix_report(rows);
    d.write(&report);
    let rows = &report.data;

    if corrupted > 0 {
        return Err(format!(
            "plan_matrix: {corrupted} cell(s) reported graph corruption"
        ));
    }

    // Decomposition payoff gate: for EVERY plan, at least one Moderate+
    // cell with the full durable stack must crash mid-evacuation, recover
    // from the crash image (replaying or re-evacuating forwardings and
    // rebuilding the allocator free stack), resume, and complete with
    // digest checks passing. A plan that silently stops exercising the
    // shared recovery path fails the harness.
    for plan in ["g1", "ps", "semispace"] {
        let prefix = format!("{plan}/");
        let recovered = rows.iter().any(|r| {
            r.config.starts_with(&prefix)
                && matches!(r.severity.as_str(), "moderate" | "severe")
                && r.map_mode == "durable"
                && r.alloc_mode == "durable"
                && r.ok
                && r.recovered_cycles >= 1
                && (r.resumed_evacuations + r.replayed_map_entries) >= 1
                && r.alloc_rebuilt > 0
                && r.digest_checks > 0
        });
        if !recovered {
            return Err(format!(
                "plan_matrix: no durable {plan} cell crashed mid-evacuation \
                 and resumed to completion through the shared recovery path"
            ));
        }
    }
    Ok(())
}

/// Open-loop latency scenario matrix — Fig. 8 generalized.
///
/// Every cell runs the Cassandra-like write server under a collector
/// plan/preset and fault severity, then simulates a *million-client*
/// open-loop cohort population against the server's pause schedule and
/// trace: seeded arrivals shaped by the cell's scenario (steady,
/// diurnal, flash-crowd, hot-key skew, slow-consumer backpressure) are
/// charged in micro-batches through one FIFO queue, each batch's
/// latency recorded in a deterministic HDR histogram. Latencies beyond
/// the SLO fold into violation windows attributed to the overlapping
/// GC pauses, injected-fault windows and persistence fences.
///
/// The grid lives in [`crate::grids`]; cells sharing a server warmup
/// fork from one warm image. `results/scenario_matrix.json` is
/// byte-identical across repeated runs and any `NVMGC_JOBS` value (CI
/// diffs three rounds).
///
/// The harness exits nonzero unless
///
/// - every cell's server run completes (a typed error here means the
///   matrix heap no longer fits the server workload — a grid bug, not a
///   finding), and
/// - at least one cell shows an SLO-violation window attributed to a GC
///   pause — the paper's tail-latency mechanism, demonstrated
///   end-to-end, and
/// - every cell simulates at least a million open-loop clients.
///
/// (Violation-free cells are fine: saturation scenarios violate without
/// GC, quiet cells violate not at all — the gate is about attribution,
/// not absence.)
pub(super) fn scenario_matrix(d: &mut Driver) -> Gate {
    let rows: Vec<ScenarioRow> = d.absorb(run_scenario_grid(fast_mode()));
    d.table(
        &rows,
        &[
            ("scenario", |r| r.scenario.clone()),
            ("config", |r| r.config.clone()),
            ("severity", |r| r.severity.clone()),
            ("requests", |r| r.requests.to_string()),
            ("cycles", |r| r.gc_cycles.to_string()),
            ("p50ms", |r| format!("{:.3}", r.p50_ms)),
            ("p99ms", |r| format!("{:.3}", r.p99_ms)),
            ("p99.9ms", |r| format!("{:.3}", r.p999_ms)),
            ("p99.99ms", |r| format!("{:.3}", r.p9999_ms)),
            ("windows", |r| r.violations.len().to_string()),
            ("gc-attr", |r| r.gc_attributed_windows.to_string()),
            ("outcome", |r| outcome(r.ok, &r.outcome)),
        ],
    );
    let clients = rows.iter().map(|r| r.clients).max().unwrap_or(0);
    let attributed: usize = rows.iter().map(|r| r.gc_attributed_windows).sum();
    println!(
        "{} cells; {} clients per cell; {} requests total in {} cohort batches; \
         {} GC-attributed violation windows",
        rows.len(),
        clients,
        d.totals.client_requests,
        d.totals.client_cohorts,
        attributed,
    );
    let report = scenario_matrix_report(rows);
    d.write(&report);
    let rows = &report.data;

    let failed = rows.iter().filter(|r| !r.ok).count();
    if failed > 0 {
        return Err(format!(
            "scenario_matrix: {failed} cell(s) failed their server run"
        ));
    }
    // The suite's reason to exist: the tail-latency mechanism must be
    // demonstrated — at least one SLO-violation window overlapping a GC
    // pause. If no cell shows one, pauses shrank below the SLO (or
    // attribution broke) and the matrix needs re-tuning, loudly.
    if !rows.iter().any(|r| r.gc_attributed_windows >= 1) {
        return Err("scenario_matrix: no SLO-violation window attributed to a GC pause".to_owned());
    }
    // Bulk charging must be doing its job: a million-client population
    // simulated in at most a few thousand queue operations per cell.
    if !rows.iter().all(|r| r.clients >= 1_000_000) {
        return Err("scenario_matrix: a cell simulates fewer than 1e6 clients".to_owned());
    }
    Ok(())
}

/// Simulator self-benchmark — measures the simulator, not the paper.
///
/// Re-runs the FAST fault-matrix grid (the densest exercise of the
/// memory model: faults, crash oracle, write cache, header map) and
/// reports its **deterministic work counters** — engine steps, bus
/// grants, LLC installs, bulk grant splits, oracle checks, simulated ns.
/// These are pure functions of the grid and are byte-identical on any
/// host, at any scale, so `results/sim_throughput.json` (written via
/// [`throughput_report`], by this harness only) is gated like every other
/// result: CI regenerates it and `diff`s it against the committed file. A
/// counter that moves means the simulator does more (or suspiciously
/// less) work per run — unlike wall clock, it cannot be noise. Wall-clock
/// throughput (simulated ns per wall second) is only printed, on the
/// driver's `runner:` line.
///
/// To bless an intentional change, re-run this harness and commit the
/// regenerated file (see EXPERIMENTS.md).
pub(super) fn sim_throughput(d: &mut Driver) -> Gate {
    // Same forked-warmup grid as the FAST fault_matrix harness, so the
    // counters (fork accounting included) are that harness's work.
    d.absorb(run_fault_grid(true));
    let totals = d.totals;

    println!("deterministic work counters:");
    for (name, value) in totals.named() {
        println!("  {name:>20} {value}");
    }
    println!();
    d.write(&throughput_report("fault_matrix", &d.pool, &totals));
    Ok(())
}

/// Trace-layer harness — not a paper figure, the observability artifact.
///
/// Runs page-rank under a Moderate fault-injection plan (device windows,
/// a write-cache drain stall, a power-failure probe that switches the
/// persistence model on) with tracing enabled, once per collector
/// configuration, and exports:
///
/// - a chrome://tracing document per cell (per-worker GC sub-phase spans,
///   whole-cycle spans, mutator intervals, fault-window annotations and
///   persistence fences, all in simulated time);
/// - the paper's Fig. 2-style bandwidth-over-time table, one row per
///   sampler bin, with the overlapping trace events folded into a marks
///   column — the write-share collapse is visible directly in the rows.
///
/// Everything is a pure function of the seed: `results/trace_timeline.json`
/// is byte-identical across repeated runs and any `NVMGC_JOBS` value (the
/// CI trace suite diffs two runs).
pub(super) fn trace_timeline(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Cell {
        config: String,
        cycles: usize,
        /// Total trace events recorded.
        events: usize,
        /// Fault-window annotations among them.
        fault_events: usize,
        /// Persistence fences/drains among them.
        fence_events: usize,
        bin_ms: f64,
        timeline: Vec<TimelineRow>,
        trace: ChromeTrace,
    }
    // The optimized cell runs the fault matrix's worker count: above the
    // header-map activation threshold.
    let roster = [
        ("vanilla", GcConfig::vanilla(4)),
        ("+all", GcConfig::plus_all(FAULT_MATRIX_THREADS, 0)),
    ];
    let cells = roster
        .iter()
        .map(|(name, gc)| {
            // Same reduced heap and fault horizon as the fault matrix:
            // cheap enough to re-run twice in CI, large enough to hold the
            // profile's live set.
            let mut cfg = matrix_config(app("page-rank"), gc.clone(), seed(), Severity::Moderate);
            cfg.sample_series = true;
            cfg.trace = true;
            ((*name).to_owned(), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| Cell {
        config: roster[i].0.to_owned(),
        cycles: r.gc.cycles(),
        events: r.trace.len(),
        fault_events: r.trace.iter().filter(|e| e.cat == TraceCat::Fault).count(),
        fence_events: r.trace.iter().filter(|e| e.cat == TraceCat::Fence).count(),
        bin_ms: r.bin_ns as f64 / 1e6,
        timeline: timeline_rows(&r.nvm_series, r.bin_ns, &r.trace),
        trace: chrome_trace(&r.trace),
    });
    println!();
    for c in &rows {
        println!(
            "--- {} — {} cycles, {} events ({} fault windows, {} fences) ---",
            c.config, c.cycles, c.events, c.fault_events, c.fence_events
        );
        // First 40 bins are enough to show the shape.
        let shown: Vec<TimelineRow> = c.timeline.iter().take(40).cloned().collect();
        println!("{}", bandwidth_timeline(&shown).render());
        // Shape check (paper Fig. 2 on NVM): bins dominated by writes carry
        // less total bandwidth than read-dominated ones.
        let total = |r: &TimelineRow| r.read_mbps + r.write_mbps;
        let busy: Vec<&TimelineRow> = c.timeline.iter().filter(|r| total(r) > 0.0).collect();
        let wavg = |rows: &[&TimelineRow]| {
            if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|r| total(r)).sum::<f64>() / rows.len() as f64
            }
        };
        let (hi, lo): (Vec<&TimelineRow>, Vec<&TimelineRow>) =
            busy.into_iter().partition(|r| r.write_share > 0.5);
        println!(
            "shape check: write-heavy bins {:.0} MB/s vs read-heavy {:.0} MB/s ({})",
            wavg(&hi),
            wavg(&lo),
            if wavg(&hi) < wavg(&lo) {
                "write share collapses total bandwidth"
            } else {
                "no collapse — unexpected on NVM"
            }
        );
        println!();
        assert!(c.fault_events > 0, "plan must annotate fault windows");
    }
    // Fences come from the persistence machinery (write-cache drains, NT
    // stores), which the vanilla collector never touches — the optimized
    // cell is the one that must stamp them.
    let fences: usize = rows.iter().map(|c| c.fence_events).sum();
    assert!(fences > 0, "persistence model must stamp fences");
    d.report(
        format!(
            "page-rank under a Moderate fault plan (seed {:#x}); deterministic across NVMGC_JOBS",
            seed()
        ),
        rows,
    );
    Ok(())
}
