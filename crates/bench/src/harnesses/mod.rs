//! The harness registry: every experiment as a [`Harness`] value.
//!
//! A body holds only what is unique to its experiment — the cell list,
//! the fold from finished runs to rows, the table columns, the
//! paper-comparison lines and the exit gates — and asks the
//! [`Driver`](crate::Driver) for everything else.

mod ablations;
mod figures;
mod matrices;

use crate::driver::Harness;
use crate::sized_config;
use nvmgc_core::GcConfig;
use nvmgc_workloads::{AppRunConfig, WorkloadSpec};

/// Every harness, in the order `all` runs them.
pub static REGISTRY: [Harness; 29] = [
    Harness {
        outputs: &[("fig01_dram_vs_nvm", "Figure 1")],
        body: figures::fig01_dram_vs_nvm,
    },
    Harness {
        outputs: &[("fig02_bandwidth_timeline", "Figure 2a/2b")],
        body: figures::fig02_bandwidth_timeline,
    },
    Harness {
        outputs: &[("fig02_scalability", "Figure 2c/2d")],
        body: figures::fig02_scalability,
    },
    Harness {
        outputs: &[("fig03_als_bandwidth", "Figure 3")],
        body: figures::fig03_als_bandwidth,
    },
    Harness {
        outputs: &[("tab43_prefetch_micro", "§4.3 microbenchmark table")],
        body: figures::tab43_prefetch_micro,
    },
    Harness {
        outputs: &[
            ("fig05_gc_time", "Figure 5"),
            ("fig05_plan_axis", "Figure 5, plan axis (no paper figure)"),
        ],
        body: figures::fig05_gc_time,
    },
    Harness {
        outputs: &[("fig06_gc_bandwidth", "Figure 6")],
        body: figures::fig06_gc_bandwidth,
    },
    Harness {
        outputs: &[("fig07_split_bandwidth", "Figure 7")],
        body: figures::fig07_split_bandwidth,
    },
    Harness {
        outputs: &[
            ("fig08_tail_latency", "Figure 8"),
            ("fig08_plan_axis", "Figure 8, plan axis (no paper figure)"),
        ],
        body: figures::fig08_tail_latency,
    },
    Harness {
        outputs: &[("fig09_app_time", "Figure 9")],
        body: figures::fig09_app_time,
    },
    Harness {
        outputs: &[("fig10_headermap_size", "Figure 10")],
        body: figures::fig10_headermap_size,
    },
    Harness {
        outputs: &[("fig11_writecache", "Figure 11")],
        body: figures::fig11_writecache,
    },
    Harness {
        outputs: &[("fig12_cost_efficiency", "Figure 12")],
        body: figures::fig12_cost_efficiency,
    },
    Harness {
        outputs: &[("fig13_thread_scaling", "Figure 13")],
        body: figures::fig13_thread_scaling,
    },
    Harness {
        outputs: &[("fig14_ps_collector", "Figure 14")],
        body: figures::fig14_ps_collector,
    },
    Harness {
        outputs: &[("abl_headermap_probe", "§3.3 (SEARCH_BOUND)")],
        body: ablations::abl_headermap_probe,
    },
    Harness {
        outputs: &[("abl_headermap_threshold", "§3.3 (threshold design choice)")],
        body: ablations::abl_headermap_threshold,
    },
    Harness {
        outputs: &[("abl_headermap_sharding", "§3.3 (global map rationale)")],
        body: ablations::abl_headermap_sharding,
    },
    Harness {
        outputs: &[("abl_flush_granularity", "§4.2 (region vs page tracking)")],
        body: ablations::abl_flush_granularity,
    },
    Harness {
        outputs: &[("abl_ntstore", "§4.1/§4.2")],
        body: ablations::abl_ntstore,
    },
    Harness {
        outputs: &[("abl_bfs_traversal", "§4.3 (traversal order)")],
        body: ablations::abl_bfs_traversal,
    },
    Harness {
        outputs: &[("abl_cardtable", "PS substrate design choice (§4.4)")],
        body: ablations::abl_cardtable,
    },
    Harness {
        outputs: &[("abl_mixed_gc", "§2.1 (mixed GC)")],
        body: ablations::abl_mixed_gc,
    },
    Harness {
        outputs: &[("abl_numa", "§5.1 (NUMA binding)")],
        body: ablations::abl_numa,
    },
    Harness {
        outputs: &[("fault_matrix", "robustness sweep (no paper figure)")],
        body: matrices::fault_matrix,
    },
    Harness {
        outputs: &[(
            "plan_matrix",
            "plan/policy decomposition sweep (no paper figure)",
        )],
        body: matrices::plan_matrix,
    },
    Harness {
        outputs: &[(
            "scenario_matrix",
            "Figure 8 generalized: open-loop latency scenario suite",
        )],
        body: matrices::scenario_matrix,
    },
    Harness {
        outputs: &[("sim_throughput", "simulator self-benchmark")],
        body: matrices::sim_throughput,
    },
    Harness {
        outputs: &[("trace_timeline", "trace layer (Fig. 2-style timeline)")],
        body: matrices::trace_timeline,
    },
];

/// One paper-ratio cell per (application, collector variant), app-major —
/// the shape of most figure grids. `tweak(variant index, config)` applies
/// whatever else distinguishes a variant (placement, cache bound, …); it
/// runs after sizing, so what it sets is what the cell runs with.
fn app_grid(
    apps: &[WorkloadSpec],
    variants: &[GcConfig],
    tweak: impl Fn(usize, &mut AppRunConfig),
) -> Vec<(String, AppRunConfig)> {
    let mut cells = Vec::new();
    for spec in apps {
        for (vi, gc) in variants.iter().enumerate() {
            let mut cfg = sized_config(spec.clone(), gc.clone());
            tweak(vi, &mut cfg);
            cells.push((format!("app={} variant={vi}", spec.name), cfg));
        }
    }
    cells
}
