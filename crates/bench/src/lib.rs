//! The experiment harnesses and the one driver that runs them.
//!
//! Every harness in [`harnesses`] regenerates one table or figure of the
//! paper: it prints the same rows/series the paper reports and writes a
//! machine-readable copy under `results/`. A harness is a value in the
//! static [`REGISTRY`] holding only what is unique to it — its cells, the
//! fold from a finished run to a row, its table columns, its
//! paper-comparison lines and its exit gates. The [`driver`] owns the
//! rest (banner, warm-forked execution, work-counter totals, tables,
//! reports, the nonzero exit) and is the whole of the single `harness`
//! bench target:
//!
//! ```text
//! cargo bench -p nvmgc-bench --bench harness -- <id>… | all | --list
//! ```
//!
//! This module holds the plumbing they share: paper-ratio config sizing,
//! the results directory, and environment knobs.
//!
//! Environment:
//!
//! - `NVMGC_RESULTS` — results directory (default `results/`).
//! - `NVMGC_FAST=1` — shrink rosters/sweeps for a quick smoke pass.
//! - `NVMGC_SEED` — override the workload seed.
//! - `NVMGC_JOBS` — worker count for the parallel experiment runner
//!   (default: available parallelism). Any value produces byte-identical
//!   results; see [`runner`].

#![warn(missing_docs)]

pub mod driver;
pub mod grids;
pub mod harnesses;
pub mod runner;
pub mod warm;

pub use driver::{cli, run_harness, Driver, Harness};
pub use grids::{
    fault_matrix_cells, fault_matrix_config, fault_matrix_report, fig01_apps, fig01_report,
    plan_matrix_cells, plan_matrix_report, run_fault_cell, run_fault_grid, run_fig01_app,
    run_fig01_grid, run_plan_grid, run_scenario_cell, run_scenario_grid, scenario_matrix_cells,
    scenario_matrix_config, scenario_matrix_report, FaultCell, FaultRow, Fig01Row, ScenarioCell,
    ScenarioRow, FAULT_MATRIX_HORIZON_NS, FAULT_MATRIX_THREADS,
};
pub use harnesses::REGISTRY;
pub use runner::{jobs, run_cells, throughput_report, PoolStats, WorkCounters};
pub use warm::{fork_summary, run_forked_cells, ForkStats};

use nvmgc_core::GcConfig;
use nvmgc_workloads::{AppRunConfig, WorkloadSpec};
use std::path::PathBuf;

/// Number of GC threads the paper uses for the headline comparisons
/// (bound to one 28-core socket).
pub const PAPER_THREADS: usize = 28;

/// Thread sweep of the scalability figures (Figs. 2c/2d and 13).
pub const THREAD_SWEEP: [usize; 7] = [1, 2, 4, 8, 20, 28, 56];

/// The results directory: `$NVMGC_RESULTS`, or `results/` at the
/// workspace root (bench targets run with the package as their working
/// directory, so a relative path would scatter output).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NVMGC_RESULTS") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Whether the fast (smoke) mode is requested.
pub fn fast_mode() -> bool {
    std::env::var("NVMGC_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The workload seed (`NVMGC_SEED` override).
pub fn seed() -> u64 {
    std::env::var("NVMGC_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED)
}

/// Builds a standard run configuration with the write cache and header
/// map sized at the paper's ratio (1/32 of the heap each).
pub fn sized_config(spec: WorkloadSpec, gc: GcConfig) -> AppRunConfig {
    let mut cfg = AppRunConfig::standard(spec, gc);
    cfg.apply_paper_ratios();
    cfg.seed = seed();
    cfg
}

/// Trims a roster to a representative subset in fast mode.
pub fn maybe_trim<T>(mut items: Vec<T>, keep: usize) -> Vec<T> {
    if fast_mode() && items.len() > keep {
        items.truncate(keep);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_workloads::app;

    #[test]
    fn sized_config_applies_paper_ratios() {
        let cfg = sized_config(app("page-rank"), GcConfig::plus_all(PAPER_THREADS, 0));
        let heap = cfg.heap_bytes();
        assert_eq!(cfg.gc.write_cache.max_bytes, heap / 32);
        assert_eq!(cfg.gc.header_map.max_bytes, heap / 32);
    }

    #[test]
    fn sized_config_preserves_unlimited_cache() {
        let mut gc = GcConfig::plus_writecache(4, 0);
        gc.write_cache.max_bytes = u64::MAX;
        let cfg = sized_config(app("page-rank"), gc);
        assert_eq!(cfg.gc.write_cache.max_bytes, u64::MAX);
    }

    #[test]
    fn maybe_trim_only_in_fast_mode() {
        // Fast mode is off by default in tests.
        let v = maybe_trim(vec![1, 2, 3], 1);
        assert_eq!(v.len(), if fast_mode() { 1 } else { 3 });
    }
}
