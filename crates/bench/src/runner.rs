//! Deterministic parallel experiment runner.
//!
//! The sweep harnesses (Figs. 5, 13, …) evaluate a grid of independent
//! *cells* — one simulated run per (app, GC config, placement, thread
//! count) point. Each cell builds its own `MemorySystem`, heap, and RNG
//! from the cell parameters alone, so cells share no mutable state and
//! their results do not depend on execution order. That makes the grid
//! embarrassingly parallel *without* giving up the simulator's
//! determinism guarantee: a cell computes the same value whether it runs
//! first, last, or concurrently with every other cell.
//!
//! [`run_cells`] executes a labeled cell list on a scoped-thread job pool
//! (the driver passes [`jobs()`]: `NVMGC_JOBS` workers, default available
//! parallelism) and returns the values **in declaration order**, so
//! harness output — including the JSON written under `results/` — is
//! byte-identical for any job count.
//!
//! The pool also times itself, and the driver prints every grid's
//! simulated ns per wall second — printed only: wall-clock varies run to
//! run, and folding it into a results file would break the
//! bit-identical-results property the runner exists to preserve (host
//! time is `BENCHMARK.json`'s to measure). What the `sim_throughput`
//! harness publishes to `results/sim_throughput.json`
//! ([`throughput_report`]) is the grid's [`WorkCounters`] — the
//! deterministic work it performed (simulated ns, engine steps, bus
//! grants, LLC installs, bulk grant splits, oracle checks),
//! byte-identical for a given grid on any host and any `NVMGC_JOBS`; CI
//! gates on these.

use nvmgc_metrics::ExperimentReport;
use nvmgc_workloads::AppRunResult;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Renders a panic payload for error messages (panics carry `&str` or
/// `String` in practice; anything else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Number of pool workers: `NVMGC_JOBS` override, else the host's
/// available parallelism (minimum 1 either way).
pub fn jobs() -> usize {
    if let Ok(v) = std::env::var("NVMGC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Timing of one [`run_cells`] invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Workers the pool actually used (capped at the cell count).
    pub jobs: usize,
    /// Number of cells executed.
    pub cells: usize,
    /// Wall-clock time for the whole grid, seconds.
    pub wall_seconds: f64,
}

impl PoolStats {
    /// Simulated nanoseconds advanced per wall-clock second — the
    /// simulator's throughput, given the total simulated time covered by
    /// the cells.
    pub fn sim_ns_per_wall_second(&self, simulated_ns: u64) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        simulated_ns as f64 / self.wall_seconds
    }
}

/// Runs every cell exactly once on a pool of at most `jobs` scoped
/// threads and returns the results in declaration order.
///
/// Workers claim cells through a shared atomic cursor, so the assignment
/// of cells to threads is scheduling-dependent — but each result lands in
/// the slot of the cell that produced it, and cells are self-contained,
/// so the returned vector is identical for every `jobs` value.
///
/// A panicking cell re-panics on the caller's thread with the failing
/// cell's label prepended to the original payload, so a grid failure
/// names its experiment cell instead of surfacing as a bare join error.
/// When several cells panic, the one with the lowest declaration index is
/// reported (deterministic for any job count).
pub fn run_cells<T, F>(jobs: usize, cells: Vec<(String, F)>) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = cells.len();
    let jobs = jobs.min(n).max(1);
    let start = Instant::now();
    // FnOnce cells are claimed (taken) exactly once each; results are
    // written to the slot matching the cell's declaration index.
    let (labels, cells): (Vec<String>, Vec<F>) = cells.into_iter().unzip();
    let tasks: Vec<Mutex<Option<F>>> = cells.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = tasks[i]
                    .lock()
                    .expect("cell slot poisoned")
                    .take()
                    .expect("cell claimed twice");
                match catch_unwind(AssertUnwindSafe(cell)) {
                    Ok(value) => *slots[i].lock().expect("result slot poisoned") = Some(value),
                    Err(p) => panics
                        .lock()
                        .expect("panic list poisoned")
                        .push((i, panic_message(p.as_ref()))),
                }
            });
        }
    });
    let mut failed = panics.into_inner().expect("panic list poisoned");
    if let Some((i, msg)) = failed.drain(..).min_by_key(|&(i, _)| i) {
        panic!("experiment cell '{}' panicked: {msg}", labels[i]);
    }
    let values: Vec<T> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("cell completed")
        })
        .collect();
    let stats = PoolStats {
        jobs,
        cells: n,
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    (values, stats)
}

/// Deterministic work counters accumulated over a grid of cells.
///
/// Every field is a pure function of the grid's configuration: the
/// simulator is deterministic, so these totals are byte-identical across
/// hosts, runs, and `NVMGC_JOBS` values. That makes them a gateable
/// proxy for "how much work did the simulator do" — CI compares them
/// against a committed baseline, unlike wall-clock, which only ever
/// rides along as an informational sidecar.
#[derive(Serialize, Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Total simulated time covered by the cells, ns.
    pub simulated_ns: u64,
    /// Discrete-event scheduler steps executed by GC workers.
    pub engine_steps: u64,
    /// Nonzero-byte bandwidth grants issued by the device bus ledgers.
    pub bus_grants: u64,
    /// Line installs into the shared LLC model.
    pub llc_installs: u64,
    /// Bulk accesses split at epoch boundaries by the memory system.
    pub bulk_grant_splits: u64,
    /// Power-failure recoverability checks the crash oracle ran.
    pub oracle_checks: u64,
    /// Cells served by forking a shared warm-state snapshot instead of
    /// re-running their warmup (zero for cold cells and singleton
    /// groups). A pure function of the grid's cell list, like every
    /// other counter here.
    pub snapshot_forks: u64,
    /// Warmup allocation steps the snapshot forks avoided re-simulating:
    /// for each warm group, (members beyond the first) × (objects the
    /// shared warmup allocated). Deterministic for a given grid.
    pub warmup_steps_saved: u64,
    /// Open-loop client requests simulated by scenario cells (zero for
    /// grids without a client side). Seeded arrivals over a
    /// deterministic pause schedule, so a pure function of the grid.
    pub client_requests: u64,
    /// Cohort micro-batches those requests were bulk-charged in — the
    /// actual queue operations performed; `client_requests /
    /// client_cohorts` is the bulk-charging leverage.
    pub client_cohorts: u64,
}

impl WorkCounters {
    /// Extracts the counters of a single completed run.
    pub fn from_run(res: &AppRunResult) -> WorkCounters {
        WorkCounters {
            simulated_ns: res.total_ns,
            engine_steps: res.cycles.iter().map(|c| c.engine_steps).sum(),
            bus_grants: res.mem_stats.bus_grants,
            llc_installs: res.mem_stats.llc_installs,
            bulk_grant_splits: res.mem_stats.bulk_grant_splits,
            oracle_checks: res
                .cycles
                .iter()
                .map(|c| c.fault_events.power_failure_checks)
                .sum(),
            // Fork accounting is grid-level, not per-run; the driver adds
            // it onto the summed totals. Client counters come from the
            // scenario layer, which runs after the server sim.
            ..WorkCounters::default()
        }
    }

    /// Accumulates another cell's counters into this total.
    pub fn add(&mut self, other: &WorkCounters) {
        self.simulated_ns += other.simulated_ns;
        self.engine_steps += other.engine_steps;
        self.bus_grants += other.bus_grants;
        self.llc_installs += other.llc_installs;
        self.bulk_grant_splits += other.bulk_grant_splits;
        self.oracle_checks += other.oracle_checks;
        self.snapshot_forks += other.snapshot_forks;
        self.warmup_steps_saved += other.warmup_steps_saved;
        self.client_requests += other.client_requests;
        self.client_cohorts += other.client_cohorts;
    }

    /// The counters as `(JSON key, value)` pairs, in serialization order.
    pub fn named(&self) -> [(&'static str, u64); 10] {
        [
            ("simulated_ns", self.simulated_ns),
            ("engine_steps", self.engine_steps),
            ("bus_grants", self.bus_grants),
            ("llc_installs", self.llc_installs),
            ("bulk_grant_splits", self.bulk_grant_splits),
            ("oracle_checks", self.oracle_checks),
            ("snapshot_forks", self.snapshot_forks),
            ("warmup_steps_saved", self.warmup_steps_saved),
            ("client_requests", self.client_requests),
            ("client_cohorts", self.client_cohorts),
        ]
    }
}

/// Payload of `results/sim_throughput.json`: the deterministic counter
/// block CI diffs against the committed file.
#[derive(Serialize)]
struct ThroughputRecord {
    harness: String,
    cells: usize,
    counters: WorkCounters,
}

/// Assembles `results/sim_throughput.json`: the runner self-benchmark
/// over `harness`'s grid. Only the `sim_throughput` harness writes it,
/// so the committed perf-gate baseline is always that harness's grid.
/// `counters` is the summed deterministic work of the grid's cells — the
/// gated payload.
pub fn throughput_report(
    harness: &str,
    stats: &PoolStats,
    counters: &WorkCounters,
) -> ExperimentReport<impl Serialize> {
    ExperimentReport {
        id: "sim_throughput".to_owned(),
        paper_ref: "simulator self-benchmark".to_owned(),
        notes: "counters are deterministic and budget-gated in CI; wall-clock is printed \
                by the harness and measured by BENCHMARK.json, never written here"
            .to_owned(),
        data: ThroughputRecord {
            harness: harness.to_owned(),
            cells: stats.cells,
            counters: *counters,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels cells `#0`, `#1`, … for tests that do not care about names.
    fn numbered<F>(cells: Vec<F>) -> Vec<(String, F)> {
        let label = |(i, f)| (format!("#{i}"), f);
        cells.into_iter().enumerate().map(label).collect()
    }

    #[test]
    fn results_come_back_in_declaration_order() {
        let cells: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let (got, stats) = run_cells(4, numbered(cells));
        assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.cells, 37);
        assert_eq!(stats.jobs, 4);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || numbered((0..20).map(|i| move || i * 3 + 1).collect());
        let (serial, _) = run_cells(1, make());
        let (parallel, _) = run_cells(8, make());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_capped_at_cell_count() {
        let (got, stats) = run_cells(64, numbered(vec![|| 1, || 2]));
        assert_eq!(got, vec![1, 2]);
        assert_eq!(stats.jobs, 2);
    }

    #[test]
    fn empty_grid_is_fine() {
        let (got, stats) = run_cells(8, numbered(Vec::<fn() -> u8>::new()));
        assert!(got.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn panicking_cell_reports_its_label_serial() {
        let cells: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = vec![
            ("fine".to_owned(), Box::new(|| 1)),
            (
                "app=cassandra gc=+all".to_owned(),
                Box::new(|| panic!("boom {}", 7)),
            ),
        ];
        let err =
            catch_unwind(AssertUnwindSafe(|| run_cells(1, cells))).expect_err("must propagate");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("app=cassandra gc=+all"), "{msg}");
        assert!(msg.contains("boom 7"), "{msg}");
    }

    #[test]
    fn panicking_cell_reports_lowest_index_parallel() {
        let cells: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = vec![
            ("a".to_owned(), Box::new(|| 1)),
            ("first-failure".to_owned(), Box::new(|| panic!("one"))),
            ("b".to_owned(), Box::new(|| 2)),
            ("second-failure".to_owned(), Box::new(|| panic!("two"))),
        ];
        let err =
            catch_unwind(AssertUnwindSafe(|| run_cells(4, cells))).expect_err("must propagate");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("first-failure"), "{msg}");
        assert!(msg.contains("one"), "{msg}");
    }

    #[test]
    fn throughput_rate_scales_with_sim_time() {
        let stats = PoolStats {
            jobs: 2,
            cells: 4,
            wall_seconds: 2.0,
        };
        assert_eq!(stats.sim_ns_per_wall_second(1_000_000), 500_000.0);
    }

    #[test]
    fn run_counters_are_the_sums_of_the_cycles() {
        use nvmgc_core::{GcConfig, GcStats};
        use nvmgc_workloads::runner::GcTrigger;
        use nvmgc_workloads::{app, run_app, AppRunConfig};
        // A mixed cycle's mark adds engine steps after the collector has
        // recorded the cycle; the run's counters must still count them.
        let mut spec = app("kmeans");
        spec.alloc_young_multiple = 2.0;
        let mut cfg = AppRunConfig::standard(spec, GcConfig::vanilla(4));
        cfg.heap.region_size = 32 << 10;
        cfg.heap.heap_regions = 256;
        cfg.heap.young_regions = 48;
        cfg.trigger = GcTrigger::Adaptive { ihop: 0.0 };
        let r = run_app(&cfg).expect("the run completes");
        assert!(r.mixed_cycles() > 0, "the trigger runs mixed cycles");
        let counters = WorkCounters::from_run(&r);
        let sum = |f: fn(&GcStats) -> u64| r.cycles.iter().map(f).sum::<u64>();
        assert_eq!(counters.engine_steps, sum(|c| c.engine_steps));
        assert_eq!(
            counters.oracle_checks,
            sum(|c| c.fault_events.power_failure_checks)
        );
        assert_eq!(r.gc.cycles(), r.cycles.len());
        assert_eq!(r.gc.total_pause_ns(), sum(GcStats::pause_ns));
    }

    #[test]
    fn work_counters_accumulate_and_enumerate() {
        let mut a = WorkCounters {
            simulated_ns: 1,
            engine_steps: 2,
            bus_grants: 3,
            llc_installs: 4,
            bulk_grant_splits: 5,
            oracle_checks: 6,
            snapshot_forks: 7,
            warmup_steps_saved: 8,
            client_requests: 9,
            client_cohorts: 10,
        };
        a.add(&a.clone());
        assert_eq!(
            a.named(),
            [
                ("simulated_ns", 2),
                ("engine_steps", 4),
                ("bus_grants", 6),
                ("llc_installs", 8),
                ("bulk_grant_splits", 10),
                ("oracle_checks", 12),
                ("snapshot_forks", 14),
                ("warmup_steps_saved", 16),
                ("client_requests", 18),
                ("client_cohorts", 20),
            ]
        );
        // Every counter field is covered by named(): serializing the
        // struct yields exactly the named keys.
        let json = serde_json::to_string(&a).expect("serialize");
        for (key, _) in a.named() {
            assert!(json.contains(&format!("\"{key}\"")), "{key} missing");
        }
        assert_eq!(json.matches(':').count(), a.named().len());
    }
}
