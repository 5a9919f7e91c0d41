//! Warm-state snapshot/fork execution for experiment grids.
//!
//! Most sweep grids run many cells that differ only in their *collector*
//! configuration (GC config, placement-independent knobs, trigger policy,
//! fault GC-plan) while sharing the exact same warmup prefix: workload
//! spec, heap geometry, seed, memory-system configuration, and mem-fault
//! plan. The cold path re-simulates that warmup for every cell; the
//! forked path runs it once per *warm group*, captures a
//! [`SimSnapshot`], and forks every member cell from the warm image.
//!
//! Grouping is by [`SimSnapshot::warm_key_for`], which covers everything
//! the warmup can observe — so a fork is bit-for-bit equivalent to a
//! cold run of the same cell (proven by the snapshot-equivalence
//! property test in `nvmgc-workloads`). Groups are executed on the same
//! deterministic parallel pool as unforked grids, and results come back
//! in cell declaration order, so harness output stays byte-identical for
//! any `NVMGC_JOBS` value *and* for the cold reference path
//! (`run_app` cell by cell — the golden-digest test byte-compares the
//! two on the FAST fault matrix).

use crate::runner::{jobs, run_cells, PoolStats};
use nvmgc_workloads::runner::RunError;
use nvmgc_workloads::{run_app, AppRunConfig, AppRunResult, SimSnapshot};
use std::collections::HashMap;

/// Fork accounting of one forked-grid execution. Every field is a pure
/// function of the grid's cell list (warm keys are deterministic), so
/// these numbers are byte-identical across hosts and job counts and can
/// be folded into the gated [`WorkCounters`](crate::WorkCounters).
#[derive(Debug, Clone, Copy, Default)]
pub struct ForkStats {
    /// Warm groups the grid decomposed into (= warmups actually run).
    pub groups: usize,
    /// Cells forked from a shared warm image (members of groups with at
    /// least two cells; singleton groups run cold).
    pub snapshot_forks: u64,
    /// Warmup allocation steps not re-simulated: for each multi-cell
    /// group, (members − 1) × (objects its shared warmup allocated).
    pub warmup_steps_saved: u64,
}

/// Runs a grid of `(label, config)` cells with one warmup per warm
/// group, forking each cell from the group's snapshot, and folds every
/// finished (or failed) run with `fold(cell index, result)` on the pool
/// worker that produced it.
///
/// `fold` receives exactly what a cold `run_app` would have produced for
/// that cell. Results return in declaration order; the pool stats time
/// the whole grid including warmups.
///
/// If a group's warmup itself fails (a typed setup/mutator error), every
/// member falls back to a cold run so each cell reports its own error —
/// identical to the unforked grid's behavior.
pub fn run_forked_cells<T, F>(
    cells: Vec<(String, AppRunConfig)>,
    fold: F,
) -> (Vec<T>, PoolStats, ForkStats)
where
    T: Send,
    F: Fn(usize, Result<AppRunResult, RunError>) -> T + Sync,
{
    // Group cells by warm key, preserving declaration order of both the
    // groups (first occurrence) and the members within each group.
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Vec<(usize, String, AppRunConfig)>> = Vec::new();
    for (i, (label, cfg)) in cells.into_iter().enumerate() {
        let g = *group_of
            .entry(SimSnapshot::warm_key_for(&cfg))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push((i, label, cfg));
    }
    let n_groups = groups.len();

    // One pool task per warm group: warm once, fork each member.
    let fold = &fold;
    let tasks: Vec<(String, _)> = groups
        .into_iter()
        .map(|members| {
            let label = format!("warm-group[{}] {}", members.len(), members[0].1);
            let task = move || {
                let forks = members.len() as u64;
                // Singleton groups have nothing to share and run cold.
                let snap = (forks > 1).then(|| SimSnapshot::capture(&members[0].2));
                let run = |cfg: &AppRunConfig| match &snap {
                    Some(Ok(snap)) => snap.fork(cfg),
                    // Shared warmup failed: run every member cold so each
                    // cell surfaces its own typed error.
                    _ => run_app(cfg),
                };
                let out: Vec<(usize, T)> = members
                    .iter()
                    .map(|(i, _, cfg)| (*i, fold(*i, run(cfg))))
                    .collect();
                match &snap {
                    Some(Ok(snap)) => (out, forks, (forks - 1) * snap.warmup_allocated_objects()),
                    _ => (out, 0, 0),
                }
            };
            (label, task)
        })
        .collect();

    let (group_results, pool) = run_cells(jobs(), tasks);

    let mut stats = ForkStats {
        groups: n_groups,
        ..ForkStats::default()
    };
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(pool.cells);
    for (members, forks, saved) in group_results {
        stats.snapshot_forks += forks;
        stats.warmup_steps_saved += saved;
        indexed.extend(members);
    }
    indexed.sort_by_key(|&(i, _)| i);
    let values: Vec<T> = indexed.into_iter().map(|(_, v)| v).collect();
    // The pool timed groups, but callers report cell counts.
    let stats_pool = PoolStats {
        cells: values.len(),
        ..pool
    };
    (values, stats_pool, stats)
}

/// One-line, deterministic fork summary for harness banners.
pub fn fork_summary(cells: usize, stats: &ForkStats) -> String {
    format!(
        "warm groups: {} for {} cells — {} forked from snapshots, {} warmup allocs not re-run",
        stats.groups, cells, stats.snapshot_forks, stats.warmup_steps_saved
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sized_config;
    use nvmgc_core::GcConfig;
    use nvmgc_workloads::app;

    fn small_cfg(gc: GcConfig) -> AppRunConfig {
        let mut cfg = sized_config(app("page-rank"), gc);
        cfg.spec.alloc_young_multiple = 2.0;
        cfg.heap.heap_regions = 96;
        cfg.heap.young_regions = 16;
        cfg
    }

    #[test]
    fn forked_grid_matches_cold_grid() {
        let variants = [GcConfig::vanilla(4), GcConfig::plus_all(4, 0)];
        let cold: Vec<u64> = variants
            .iter()
            .map(|gc| {
                run_app(&small_cfg(gc.clone()))
                    .expect("cold run succeeds")
                    .total_ns
            })
            .collect();
        let cells: Vec<(String, AppRunConfig)> = variants
            .iter()
            .enumerate()
            .map(|(i, gc)| (format!("cell#{i}"), small_cfg(gc.clone())))
            .collect();
        let (forked, pool, stats) =
            run_forked_cells(cells, |_, res| res.expect("fork succeeds").total_ns);
        assert_eq!(forked, cold);
        assert_eq!(pool.cells, 2);
        assert_eq!(stats.groups, 1, "identical warmups must share one group");
        assert_eq!(stats.snapshot_forks, 2);
        assert!(stats.warmup_steps_saved > 0);
    }

    #[test]
    fn distinct_warmups_do_not_group() {
        let cells: Vec<(String, AppRunConfig)> = [4usize, 8]
            .iter()
            .map(|&t| (format!("threads={t}"), small_cfg(GcConfig::vanilla(t))))
            .collect();
        let (vals, _, stats): (Vec<u64>, _, _) =
            run_forked_cells(cells, |_, res| res.expect("run succeeds").total_ns);
        assert_eq!(vals.len(), 2);
        assert_eq!(stats.groups, 2, "thread count is part of the warm key");
        assert_eq!(stats.snapshot_forks, 0, "singleton groups run cold");
        assert_eq!(stats.warmup_steps_saved, 0);
    }
}
