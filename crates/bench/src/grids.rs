//! Shared experiment-grid definitions.
//!
//! The fault-injection matrix and the Figure 1 sweep are exercised from
//! three places: their harnesses, the `sim_throughput` self-benchmark
//! (which re-runs the fault grid to measure deterministic work), and the
//! golden-digest regression test (which asserts the emitted JSON is
//! byte-identical to committed files). Defining the grids once here
//! guarantees all three agree on every cell parameter — a drifted copy
//! would silently invalidate the golden files and the perf baseline.
//!
//! Every grid runs through [`run_grid`] on the warm-forked runner; the
//! cold per-cell functions ([`run_fault_cell`], [`run_scenario_cell`],
//! [`run_fig01_app`]) stay as the reference the tests compare it to.

use crate::runner::{PoolStats, WorkCounters};
use crate::warm::{run_forked_cells, ForkStats};
use crate::{sized_config, PAPER_THREADS};
use nvmgc_core::fault::{FaultPlan, Severity};
use nvmgc_core::{GcConfig, GcStats};
use nvmgc_heap::DevicePlacement;
use nvmgc_metrics::ExperimentReport;
use nvmgc_workloads::cassandra::{server_spec, CassandraPhase};
use nvmgc_workloads::runner::{RunError, RunFailure};
use nvmgc_workloads::scenario::{run_scenario, ScenarioKind, ScenarioSpec, SloWindow};
use nvmgc_workloads::{app, fig1_apps, run_app, AppRunConfig, AppRunResult, WorkloadSpec};
use serde::Serialize;

/// Simulated-time horizon fault-matrix schedules are generated over. The
/// small matrix heaps finish their runs within a few tens of
/// milliseconds, so this keeps the generated windows overlapping real GC
/// activity.
pub const FAULT_MATRIX_HORIZON_NS: u64 = 40_000_000;

/// Fault-matrix GC worker threads: above the header-map activation
/// threshold so the `+all` cells exercise saturation faults.
pub const FAULT_MATRIX_THREADS: usize = 12;

/// What a grid run returns: each cell's row and deterministic work
/// counters in declaration order, the pool timing, the fork accounting.
pub type Grid<R> = (Vec<(R, WorkCounters)>, PoolStats, ForkStats);

/// The one grid function: runs every cell of `cells` on the warm-forked
/// runner (see [`crate::warm`]) — labeled by `label`, configured by
/// `config` — and folds each finished or failed run into its row with
/// `outcome`, the same fold the cold per-cell path applies.
fn run_grid<C: Sync, R: Send>(
    cells: &[C],
    label: fn(&C) -> String,
    config: fn(&C) -> AppRunConfig,
    outcome: fn(&C, Result<AppRunResult, RunError>) -> (R, WorkCounters),
) -> Grid<R> {
    let runs = cells.iter().map(|c| (label(c), config(c))).collect();
    run_forked_cells(runs, |i, res| outcome(&cells[i], res))
}

/// One cell of the fault-injection matrix.
#[derive(Clone)]
pub struct FaultCell {
    /// Workload name (resolvable by [`nvmgc_workloads::app`]).
    pub app: &'static str,
    /// Collector configuration label used in rows and cell labels.
    pub config_name: &'static str,
    /// The collector configuration itself.
    pub gc: GcConfig,
    /// Fault-plan severity.
    pub severity: Severity,
    /// Fault-plan schedule seed.
    pub seed: u64,
}

impl FaultCell {
    /// The cell's display label (used by the parallel runner to name a
    /// panicking cell).
    pub fn label(&self) -> String {
        format!(
            "app={} gc={} severity={} seed={:#x}",
            self.app,
            self.config_name,
            self.severity.name(),
            self.seed
        )
    }
}

/// The fault-matrix grid, in declaration (= output) order. `fast` trims
/// apps and seeds to one each, matching `NVMGC_FAST=1` harness behavior.
pub fn fault_matrix_cells(fast: bool) -> Vec<FaultCell> {
    let configs: Vec<(&'static str, GcConfig)> = vec![
        ("vanilla", GcConfig::vanilla(FAULT_MATRIX_THREADS)),
        ("+all", GcConfig::plus_all(FAULT_MATRIX_THREADS, 0)),
        ("+all/durable", {
            // The durable-map axis: forwarding installs are persistence-
            // fenced on NVM, so a mid-evacuation power failure aborts into
            // crash recovery and the cycle resumes instead of being
            // declared merely recoverable.
            let mut gc = GcConfig::plus_all(FAULT_MATRIX_THREADS, 0);
            gc.header_map.durable = true;
            gc
        }),
        ("+all/durable/alloc", {
            // The allocator-durability axis: on top of the durable map,
            // region take/release/reclassify journal through per-region
            // lower tables on NVM. A power failure now crashes with
            // partially-durable allocator metadata; recovery reconciles
            // the journal against the replayed forwarding records and
            // rebuilds the volatile free stack before the cycle resumes.
            let mut gc = GcConfig::plus_all(FAULT_MATRIX_THREADS, 0);
            gc.header_map.durable = true;
            gc.allocator.durable = true;
            gc
        }),
    ];
    fault_product(fast, configs)
}

/// The app × config × severity × seed product shared by the fault and
/// plan matrices, in declaration (= output) order. `fast` trims apps and
/// seeds to one each.
fn fault_product(fast: bool, configs: Vec<(&'static str, GcConfig)>) -> Vec<FaultCell> {
    let apps: &[&'static str] = if fast {
        &["page-rank"]
    } else {
        &["page-rank", "kmeans"]
    };
    let seeds: &[u64] = if fast { &[0xB0A7] } else { &[0xB0A7, 0xC0FFEE] };
    let mut cells = Vec::new();
    for &app in apps {
        for (config_name, gc) in &configs {
            for severity in Severity::ALL {
                for &seed in seeds {
                    cells.push(FaultCell {
                        app,
                        config_name,
                        gc: gc.clone(),
                        severity,
                        seed,
                    });
                }
            }
        }
    }
    cells
}

/// A paper-ratio run configuration on the reduced matrix heap, under
/// the fault plan generated from `(seed, severity)`.
///
/// Reduced matrix heap: the sweep is about fault behavior, not paper
/// ratios, and it must stay cheap enough to run at every severity. It
/// still has to hold the Spark profiles' live sets (anchors + a couple
/// of survivor generations) with room to spare, or cells die of heap
/// exhaustion instead of exercising the fault plane.
pub(crate) fn matrix_config(
    spec: WorkloadSpec,
    gc: GcConfig,
    seed: u64,
    severity: Severity,
) -> AppRunConfig {
    let mut cfg = sized_config(spec, gc);
    cfg.heap.region_size = 32 << 10;
    cfg.heap.heap_regions = 256;
    cfg.heap.young_regions = 64;
    cfg.apply_paper_ratios();
    cfg.gc.fault = FaultPlan::generate(seed, severity, FAULT_MATRIX_HORIZON_NS);
    cfg
}

/// Builds the run configuration of a fault-matrix cell.
pub fn fault_matrix_config(cell: &FaultCell) -> AppRunConfig {
    matrix_config(app(cell.app), cell.gc.clone(), cell.seed, cell.severity)
}

/// One row of `results/fault_matrix.json`.
#[derive(Serialize, Clone, Default)]
pub struct FaultRow {
    /// Workload name.
    pub app: String,
    /// Collector configuration label.
    pub config: String,
    /// Header-map persistence mode: "volatile" (DRAM map, crash points
    /// checked by the recoverability oracle) or "durable" (NVM-fenced
    /// map; power failures crash and resume via recovery).
    pub map_mode: String,
    /// Fault-plan severity name.
    pub severity: String,
    /// Fault-plan schedule seed.
    pub plan_seed: u64,
    /// "ok", or the typed error's rendering.
    pub outcome: String,
    /// Whether the cell completed without error.
    pub ok: bool,
    /// True only for digest-mismatch / structural-verification failures —
    /// the one class of failure the fault plane must never produce.
    pub corruption: bool,
    /// Collection cycles the run performed.
    pub cycles: usize,
    /// Graph-digest comparisons performed.
    pub digest_checks: usize,
    /// GC fault events injected over the run.
    pub gc_fault_events: u64,
    /// Power-failure recoverability checks the oracle ran.
    pub power_failure_checks: u64,
    /// Non-durable lines the crash images discarded across those checks.
    pub discarded_lines: u64,
    /// Lines lost to torn 256 B XPLines mid-drain.
    pub torn_lines: u64,
    /// Cycles that are the resumed completion of a crashed evacuation.
    pub recovered_cycles: u64,
    /// Forwarded objects re-evacuated from intact from-space because
    /// their copy or install missed the durable prefix.
    pub resumed_evacuations: u64,
    /// Forwarding records found inside the durable prefix and replayed.
    pub replayed_map_entries: u64,
    /// Region-allocator persistence mode: "volatile" (upper free stack
    /// only, no journaled lower tables) or "durable" (take/release
    /// journaled to NVM lower tables; recovery rebuilds the free stack).
    pub alloc_mode: String,
    /// Lower-table entries whose volatile state diverged from the crash
    /// image's durable prefix and were reconciled during recovery.
    pub alloc_reconciled: u64,
    /// Free-stack entries rebuilt from the durable lower tables.
    pub alloc_rebuilt: u64,
    /// Allocator journal entries persistence-fenced over the run.
    pub alloc_fences: u64,
    /// Total simulated run time, ns.
    pub total_ns: u64,
    /// Total simulated GC pause time, ns.
    pub total_pause_ns: u64,
}

/// Runs one fault-matrix cell cold, returning its result row and the
/// deterministic work counters the run accumulated (zero for cells that
/// end in a typed error — an errored run has no complete counter set).
pub fn run_fault_cell(cell: &FaultCell) -> (FaultRow, WorkCounters) {
    let cfg = fault_matrix_config(cell);
    fault_cell_outcome(cell, run_app(&cfg))
}

/// Runs the whole fault-matrix grid with one warmup per warm group,
/// forking each cell from its group's [`SimSnapshot`] warm image (see
/// [`crate::warm`]). Vanilla and `+all` cells at the same severity share
/// a warmup, so the grid runs half the warmups of the cold sweep while
/// emitting byte-identical rows.
///
/// [`SimSnapshot`]: nvmgc_workloads::SimSnapshot
pub fn run_fault_grid(fast: bool) -> Grid<FaultRow> {
    run_grid(
        &fault_matrix_cells(fast),
        FaultCell::label,
        fault_matrix_config,
        fault_cell_outcome,
    )
}

/// Folds one finished (or failed) run into its fault-matrix row; shared
/// by the cold per-cell path and the forked grid path.
fn fault_cell_outcome(
    cell: &FaultCell,
    result: Result<AppRunResult, RunError>,
) -> (FaultRow, WorkCounters) {
    let mode = |durable: bool| if durable { "durable" } else { "volatile" }.to_owned();
    let base = FaultRow {
        app: cell.app.to_owned(),
        config: cell.config_name.to_owned(),
        map_mode: mode(cell.gc.durable_map_active()),
        severity: cell.severity.name().to_owned(),
        plan_seed: cell.seed,
        alloc_mode: mode(cell.gc.durable_alloc_active()),
        ..FaultRow::default()
    };
    match result {
        Ok(res) => {
            let counters = WorkCounters::from_run(&res);
            let sum = |of: fn(&GcStats) -> u64| res.cycles.iter().map(of).sum::<u64>();
            let row = FaultRow {
                outcome: "ok".to_owned(),
                ok: true,
                cycles: res.gc.cycles(),
                digest_checks: res.digest_checks,
                gc_fault_events: sum(|c| c.fault_events.total()),
                power_failure_checks: counters.oracle_checks,
                discarded_lines: sum(|c| c.fault_events.discarded_lines),
                torn_lines: sum(|c| c.fault_events.torn_lines),
                recovered_cycles: sum(|c| c.recovered_cycles),
                resumed_evacuations: sum(|c| c.resumed_evacuations),
                replayed_map_entries: sum(|c| c.replayed_map_entries),
                alloc_reconciled: sum(|c| c.alloc_reconciled),
                alloc_rebuilt: sum(|c| c.alloc_rebuilt_regions),
                alloc_fences: sum(|c| c.alloc_fences),
                total_ns: res.total_ns,
                total_pause_ns: res.gc.total_pause_ns(),
                ..base
            };
            (row, counters)
        }
        Err(e) => {
            let row = FaultRow {
                corruption: matches!(
                    e.failure,
                    RunFailure::DigestMismatch { .. } | RunFailure::Verify(_)
                ),
                outcome: e.to_string(),
                ..base
            };
            (row, WorkCounters::default())
        }
    }
}

/// The plan-axis grid: every plan (G1, PS, semispace) through the same
/// fault matrix, at its vanilla preset and with the full durable stack
/// (write cache + header map + durable map + durable allocator). The
/// plan is encoded in the row's `config` label (`<plan>/<preset>`), so
/// the pre-existing `fault_matrix.json` rows are untouched — this grid
/// emits a *new* report (`results/plan_matrix.json`).
///
/// The semispace rows are the decomposition's payoff check: a plan with
/// no regional machinery and zero persistence code of its own must still
/// crash, recover and resume through the shared policy code under the
/// durable configurations.
pub fn plan_matrix_cells(fast: bool) -> Vec<FaultCell> {
    fn durable_alloc(mut gc: GcConfig) -> GcConfig {
        gc.header_map.durable = true;
        gc.allocator.durable = true;
        gc
    }
    let t = FAULT_MATRIX_THREADS;
    let configs: Vec<(&'static str, GcConfig)> = vec![
        ("g1/vanilla", GcConfig::vanilla(t)),
        (
            "g1/+all/durable/alloc",
            durable_alloc(GcConfig::plus_all(t, 0)),
        ),
        ("ps/vanilla", GcConfig::ps_vanilla(t)),
        (
            "ps/+all/durable/alloc",
            durable_alloc(GcConfig::ps_plus_all(t, 0)),
        ),
        ("semispace/vanilla", GcConfig::semispace(t)),
        (
            "semispace/+all/durable/alloc",
            durable_alloc(GcConfig::semispace_plus_all(t, 0)),
        ),
    ];
    fault_product(fast, configs)
}

/// Runs the plan-axis grid with one warmup per warm group. The warm key
/// excludes the collector kind, so all three plans of a (app, severity,
/// seed) tuple fork from the same warm image — and still emit rows
/// byte-identical to cold per-cell runs.
pub fn run_plan_grid(fast: bool) -> Grid<FaultRow> {
    run_grid(
        &plan_matrix_cells(fast),
        FaultCell::label,
        fault_matrix_config,
        fault_cell_outcome,
    )
}

/// Assembles the `results/plan_matrix.json` report from its rows.
pub fn plan_matrix_report(rows: Vec<FaultRow>) -> ExperimentReport<Vec<FaultRow>> {
    ExperimentReport {
        id: "plan_matrix".to_owned(),
        paper_ref: "plan/policy decomposition sweep (no paper figure)".to_owned(),
        notes: format!(
            "plans g1/ps/semispace over the fault matrix; {FAULT_MATRIX_THREADS} GC threads; \
             fault horizon {FAULT_MATRIX_HORIZON_NS} ns; severities {:?}",
            Severity::ALL.map(|s| s.name())
        ),
        data: rows,
    }
}

/// Assembles the `results/fault_matrix.json` report from its rows.
pub fn fault_matrix_report(rows: Vec<FaultRow>) -> ExperimentReport<Vec<FaultRow>> {
    ExperimentReport {
        id: "fault_matrix".to_owned(),
        paper_ref: "robustness sweep (no paper figure)".to_owned(),
        notes: format!(
            "{FAULT_MATRIX_THREADS} GC threads; fault horizon {FAULT_MATRIX_HORIZON_NS} ns; \
             severities {:?}",
            Severity::ALL.map(|s| s.name())
        ),
        data: rows,
    }
}

/// One cell of the latency scenario matrix: a load shape from the
/// open-loop cohort engine crossed with a collector plan/preset and a
/// fault-plan severity on the Cassandra-like write server.
#[derive(Clone)]
pub struct ScenarioCell {
    /// The client-side load shape.
    pub scenario: ScenarioKind,
    /// Collector configuration label (`<plan>/<preset>`, as in the
    /// plan matrix).
    pub config_name: &'static str,
    /// The collector configuration itself.
    pub gc: GcConfig,
    /// Fault-plan severity on the server run.
    pub severity: Severity,
    /// Seed shared by the fault schedule and the client arrival stream.
    pub seed: u64,
}

impl ScenarioCell {
    /// The cell's display label.
    pub fn label(&self) -> String {
        format!(
            "scenario={} gc={} severity={} seed={:#x}",
            self.scenario.label(),
            self.config_name,
            self.severity.name(),
            self.seed
        )
    }

    /// The client population this cell simulates. Shared by the run
    /// path and the report so "≥1e6 open-loop clients" is pinned in one
    /// place.
    pub fn scenario_spec(&self) -> ScenarioSpec {
        ScenarioSpec::new(self.scenario, self.seed)
    }
}

/// The scenario-matrix grid, in declaration (= output) order: every load
/// shape × four plan/preset configurations × {Off, Moderate} fault
/// severity. `fast` trims to two scenarios and the two G1 presets —
/// enough to demonstrate a GC-attributed violation and the
/// write-cache's tail rescue — and stays a label-subset of the full
/// grid (pinned by a test below).
pub fn scenario_matrix_cells(fast: bool) -> Vec<ScenarioCell> {
    let scenarios: &[ScenarioKind] = if fast {
        &[ScenarioKind::Steady, ScenarioKind::FlashCrowd]
    } else {
        &ScenarioKind::all()
    };
    let t = FAULT_MATRIX_THREADS;
    let mut configs: Vec<(&'static str, GcConfig)> = vec![
        ("g1/vanilla", GcConfig::vanilla(t)),
        ("g1/+all", GcConfig::plus_all(t, 0)),
    ];
    if !fast {
        configs.push(("ps/+all", GcConfig::ps_plus_all(t, 0)));
        configs.push(("semispace/vanilla", GcConfig::semispace(t)));
    }
    let severities = [Severity::Off, Severity::Moderate];
    let mut cells = Vec::new();
    for &scenario in scenarios {
        for (config_name, gc) in &configs {
            for severity in severities {
                cells.push(ScenarioCell {
                    scenario,
                    config_name,
                    gc: gc.clone(),
                    severity,
                    seed: 0xB0A7,
                });
            }
        }
    }
    cells
}

/// Builds the server-side run configuration of a scenario cell: the
/// Cassandra-like write server on the reduced matrix heap, traced so
/// violation windows can be attributed to fault windows and
/// persistence fences as well as GC pauses.
pub fn scenario_matrix_config(cell: &ScenarioCell) -> AppRunConfig {
    let spec = server_spec(CassandraPhase::Write);
    let mut cfg = matrix_config(spec, cell.gc.clone(), cell.seed, cell.severity);
    cfg.trace = true;
    cfg
}

/// One row of `results/scenario_matrix.json`.
#[derive(Serialize, Clone, Default)]
pub struct ScenarioRow {
    /// Load-shape label.
    pub scenario: String,
    /// Collector configuration label.
    pub config: String,
    /// Fault-plan severity name.
    pub severity: String,
    /// Shared fault/arrival seed.
    pub seed: u64,
    /// "ok", or the typed error's rendering.
    pub outcome: String,
    /// Whether the server run completed without error.
    pub ok: bool,
    /// Simulated open-loop clients in the cohort population.
    pub clients: u64,
    /// Client requests simulated.
    pub requests: u64,
    /// Cohort micro-batches those requests were bulk-charged in.
    pub batches: u64,
    /// Server-run horizon the arrivals were generated over, ns.
    pub horizon_ns: u64,
    /// Server GC cycles over the horizon.
    pub gc_cycles: usize,
    /// Total server GC pause time, ns.
    pub total_pause_ns: u64,
    /// Longest single server pause, ns.
    pub max_pause_ns: u64,
    /// The latency SLO the windows were accounted against, ns.
    pub slo_ns: u64,
    /// Median request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// 99.99th-percentile latency, ms.
    pub p9999_ms: f64,
    /// Worst request latency, ms.
    pub max_ms: f64,
    /// The full latency distribution (canonical histogram encoding).
    pub histogram: String,
    /// SLO-violation windows, in time order, with attribution.
    pub violations: Vec<SloWindow>,
    /// How many violation windows overlap at least one GC pause.
    pub gc_attributed_windows: usize,
    /// Requests inside violation windows.
    pub violating_requests: u64,
}

/// Runs one scenario cell cold: server run, then the cohort client
/// simulation over its pause schedule and trace.
pub fn run_scenario_cell(cell: &ScenarioCell) -> (ScenarioRow, WorkCounters) {
    let cfg = scenario_matrix_config(cell);
    scenario_cell_outcome(cell, run_app(&cfg))
}

/// Runs the whole scenario grid with one warmup per warm group (all
/// configurations of a severity share the same server warmup). The
/// client simulation happens inside each cell's fold, on the pool
/// worker, so its cost parallelizes with the server runs.
pub fn run_scenario_grid(fast: bool) -> Grid<ScenarioRow> {
    run_grid(
        &scenario_matrix_cells(fast),
        ScenarioCell::label,
        scenario_matrix_config,
        scenario_cell_outcome,
    )
}

/// Folds one finished (or failed) server run into its scenario row by
/// driving the cohort client engine over the run's pause spans and
/// trace; shared by the cold path and the forked grid path.
fn scenario_cell_outcome(
    cell: &ScenarioCell,
    result: Result<AppRunResult, RunError>,
) -> (ScenarioRow, WorkCounters) {
    let spec = cell.scenario_spec();
    let base = ScenarioRow {
        scenario: cell.scenario.label().to_owned(),
        config: cell.config_name.to_owned(),
        severity: cell.severity.name().to_owned(),
        seed: cell.seed,
        clients: spec.clients,
        slo_ns: spec.slo_ns,
        ..ScenarioRow::default()
    };
    match result {
        Ok(res) => {
            let sc = run_scenario(&spec, &res.pause_spans, &res.trace, res.total_ns);
            let q = sc.quantiles_ms();
            let mut counters = WorkCounters::from_run(&res);
            counters.client_requests = sc.requests;
            counters.client_cohorts = sc.batches;
            let row = ScenarioRow {
                outcome: "ok".to_owned(),
                ok: true,
                requests: sc.requests,
                batches: sc.batches,
                horizon_ns: res.total_ns,
                gc_cycles: res.gc.cycles(),
                total_pause_ns: res.gc.total_pause_ns(),
                max_pause_ns: res.gc.max_pause_ns(),
                p50_ms: q.p50_ms,
                p99_ms: q.p99_ms,
                p999_ms: q.p999_ms,
                p9999_ms: q.p9999_ms,
                max_ms: q.max_ms,
                histogram: sc.histogram.encode(),
                gc_attributed_windows: sc.gc_attributed_windows(),
                violating_requests: sc.violating_requests(),
                violations: sc.violations,
                ..base
            };
            (row, counters)
        }
        Err(e) => {
            let row = ScenarioRow {
                outcome: e.to_string(),
                ..base
            };
            (row, WorkCounters::default())
        }
    }
}

/// Assembles the `results/scenario_matrix.json` report from its rows.
pub fn scenario_matrix_report(rows: Vec<ScenarioRow>) -> ExperimentReport<Vec<ScenarioRow>> {
    ExperimentReport {
        id: "scenario_matrix".to_owned(),
        paper_ref: "Figure 8 generalized: open-loop latency scenario suite".to_owned(),
        notes: format!(
            "million-client cohorts on the cassandra-write server; \
             {FAULT_MATRIX_THREADS} GC threads; fault horizon {FAULT_MATRIX_HORIZON_NS} ns; \
             severities [off, moderate]"
        ),
        data: rows,
    }
}

/// One row of `results/fig01_dram_vs_nvm.json`.
#[derive(Serialize, Clone)]
pub struct Fig01Row {
    /// Workload name.
    pub app: String,
    /// Mutator time with the whole heap on DRAM, ms.
    pub dram_app_ms: f64,
    /// GC pause time with the whole heap on DRAM, ms.
    pub dram_gc_ms: f64,
    /// Mutator time with the whole heap on NVM, ms.
    pub nvm_app_ms: f64,
    /// GC pause time with the whole heap on NVM, ms.
    pub nvm_gc_ms: f64,
    /// NVM / DRAM GC-time ratio.
    pub gc_slowdown: f64,
    /// NVM / DRAM mutator-time ratio.
    pub app_slowdown: f64,
    /// Fraction of NVM run time spent in GC pauses.
    pub nvm_gc_share: f64,
}

/// The Figure 1 roster. `fast` trims to the first two applications (the
/// full roster is what the committed results were produced with).
pub fn fig01_apps(fast: bool) -> Vec<WorkloadSpec> {
    let mut apps = fig1_apps();
    if fast && apps.len() > 2 {
        apps.truncate(2);
    }
    apps
}

/// Mutator seconds, GC seconds and GC share of one Figure 1 run.
type Fig01Run = (f64, f64, f64);

fn fig01_run(res: &AppRunResult) -> Fig01Run {
    (res.mutator_seconds(), res.gc_seconds(), res.gc_share())
}

/// The Figure 1 placements, in run (and cell) order.
fn fig01_placements() -> [(&'static str, DevicePlacement); 2] {
    [
        ("dram", DevicePlacement::all_dram()),
        ("nvm", DevicePlacement::all_nvm()),
    ]
}

fn fig01_config(spec: &WorkloadSpec, placement: DevicePlacement) -> AppRunConfig {
    let mut cfg = sized_config(spec.clone(), GcConfig::vanilla(PAPER_THREADS));
    cfg.heap.placement = placement;
    cfg
}

fn fig01_row(app: &str, dram: Fig01Run, nvm: Fig01Run) -> Fig01Row {
    Fig01Row {
        app: app.to_owned(),
        dram_app_ms: dram.0 * 1e3,
        dram_gc_ms: dram.1 * 1e3,
        nvm_app_ms: nvm.0 * 1e3,
        nvm_gc_ms: nvm.1 * 1e3,
        gc_slowdown: nvm.1 / dram.1.max(1e-12),
        app_slowdown: nvm.0 / dram.0.max(1e-12),
        nvm_gc_share: nvm.2,
    }
}

/// Runs one Figure 1 application cold under vanilla G1 on all-DRAM and
/// then all-NVM placement.
pub fn run_fig01_app(spec: &WorkloadSpec) -> Fig01Row {
    let [dram, nvm] = fig01_placements()
        .map(|(_, p)| fig01_run(&run_app(&fig01_config(spec, p)).expect("run succeeds")));
    fig01_row(spec.name, dram, nvm)
}

/// Runs the Figure 1 roster on the warm-forked runner, one cell per
/// (application, placement), and pairs the cells back into rows
/// byte-identical to [`run_fig01_app`]'s.
pub fn run_fig01_grid(fast: bool) -> Grid<Fig01Row> {
    let apps = fig01_apps(fast);
    let cells = apps
        .iter()
        .flat_map(|spec| {
            fig01_placements().map(|(heap, p)| {
                (
                    format!("app={} heap={heap}", spec.name),
                    fig01_config(spec, p),
                )
            })
        })
        .collect();
    let (runs, pool, forks) = run_forked_cells(cells, |_, res| {
        let res = res.expect("run succeeds");
        (fig01_run(&res), WorkCounters::from_run(&res))
    });
    let rows = apps
        .iter()
        .zip(runs.chunks_exact(2))
        .map(|(spec, pair)| {
            let mut counters = pair[0].1;
            counters.add(&pair[1].1);
            (fig01_row(spec.name, pair[0].0, pair[1].0), counters)
        })
        .collect();
    (rows, pool, forks)
}

/// Assembles the `results/fig01_dram_vs_nvm.json` report from its rows.
pub fn fig01_report(rows: Vec<Fig01Row>) -> ExperimentReport<Vec<Fig01Row>> {
    ExperimentReport {
        id: "fig01_dram_vs_nvm".to_owned(),
        paper_ref: "Figure 1".to_owned(),
        notes: format!("vanilla G1, {PAPER_THREADS} threads, scaled heaps"),
        data: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_grid_is_a_prefix_slice_of_the_full_grid() {
        let fast = fault_matrix_cells(true);
        let full = fault_matrix_cells(false);
        assert_eq!(fast.len(), Severity::ALL.len() * 4);
        assert_eq!(full.len(), fast.len() * 4);
        // Every fast cell appears in the full grid with the same label.
        let full_labels: Vec<String> = full.iter().map(|c| c.label()).collect();
        for c in &fast {
            assert!(full_labels.contains(&c.label()), "{}", c.label());
        }
    }

    #[test]
    fn fault_config_applies_matrix_heap_and_plan() {
        let cells = fault_matrix_cells(true);
        let off = cells
            .iter()
            .find(|c| c.severity == Severity::Off)
            .expect("grid has an Off cell");
        assert!(fault_matrix_config(off).gc.fault.is_empty());
        let severe = cells
            .iter()
            .find(|c| c.severity == Severity::Severe)
            .expect("grid has a Severe cell");
        let cfg = fault_matrix_config(severe);
        assert_eq!(cfg.heap.region_size, 32 << 10);
        assert_eq!(cfg.heap.heap_regions, 256);
        assert_eq!(cfg.heap.young_regions, 64);
        assert!(!cfg.gc.fault.is_empty());
    }

    #[test]
    fn plan_grid_covers_every_plan_at_every_severity() {
        let fast = plan_matrix_cells(true);
        let full = plan_matrix_cells(false);
        assert_eq!(fast.len(), Severity::ALL.len() * 6);
        assert_eq!(full.len(), fast.len() * 4);
        // Every fast cell appears in the full grid with the same label.
        let full_labels: Vec<String> = full.iter().map(|c| c.label()).collect();
        for c in &fast {
            assert!(full_labels.contains(&c.label()), "{}", c.label());
        }
        // The payoff cells exist: semispace with the full durable stack at
        // the power-failure severities.
        for sev in ["moderate", "severe"] {
            assert!(
                fast.iter()
                    .any(|c| c.config_name == "semispace/+all/durable/alloc"
                        && c.severity.name() == sev
                        && c.gc.durable_map_active()
                        && c.gc.durable_alloc_active()),
                "missing semispace durable cell at severity {sev}"
            );
        }
    }

    #[test]
    fn plan_grid_labels_name_the_plan() {
        use nvmgc_core::CollectorKind;
        for cell in plan_matrix_cells(true) {
            let plan = nvmgc_core::plan_of(cell.gc.collector).name;
            assert!(
                cell.config_name.starts_with(&format!("{plan}/")),
                "config label {} does not name plan {plan}",
                cell.config_name
            );
            // The semispace preset really is the no-regional-machinery one.
            if cell.gc.collector == CollectorKind::Semispace
                && cell.config_name.ends_with("vanilla")
            {
                assert!(!cell.gc.prefetch);
                assert!(!cell.gc.write_cache.enabled);
            }
        }
    }

    #[test]
    fn scenario_fast_grid_is_a_label_subset_of_the_full_grid() {
        let fast = scenario_matrix_cells(true);
        let full = scenario_matrix_cells(false);
        assert_eq!(fast.len(), 2 * 2 * 2);
        assert_eq!(full.len(), 5 * 4 * 2);
        let full_labels: Vec<String> = full.iter().map(|c| c.label()).collect();
        for c in &fast {
            assert!(full_labels.contains(&c.label()), "{}", c.label());
        }
    }

    #[test]
    fn scenario_cells_simulate_a_million_clients_traced() {
        for cell in scenario_matrix_cells(true) {
            assert!(
                cell.scenario_spec().clients >= 1_000_000,
                "{} simulates fewer than 1e6 clients",
                cell.label()
            );
            let cfg = scenario_matrix_config(&cell);
            // Attribution needs the trace layer's fault/fence events.
            assert!(cfg.trace, "{} must run traced", cell.label());
            assert_eq!(cfg.heap.region_size, 32 << 10);
            assert_eq!(cfg.gc.fault.is_empty(), cell.severity == Severity::Off);
        }
    }

    #[test]
    fn fig01_fast_roster_is_a_prefix_of_the_full_roster() {
        let fast = fig01_apps(true);
        let full = fig01_apps(false);
        assert_eq!(fast.len(), 2);
        assert!(full.len() >= fast.len());
        for (a, b) in fast.iter().zip(full.iter()) {
            assert_eq!(a.name, b.name);
        }
    }
}
