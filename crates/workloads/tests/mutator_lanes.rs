//! Mutator lane (application-parallelism) behaviour.
//!
//! The object graph a lane count produces is the same only while the
//! collector's copy order ignores timing. With several GC workers it does
//! not: lanes change the mutator's memory timing, the workers' clocks
//! decide which of them copies which survivor, that decides how tightly
//! survivors pack into regions, and the survivor region count sets the
//! next eden's size — so later collections fall at other allocations and
//! the graph diverges. Graph equalities are therefore asserted on one GC
//! worker; timing bounds on eight.

use nvmgc_core::GcConfig;
use nvmgc_heap::DevicePlacement;
use nvmgc_workloads::{app, run_app, AppRunConfig};

fn cfg_with_threads(app_threads: u32, gc_threads: usize) -> AppRunConfig {
    let mut spec = app("kmeans");
    spec.alloc_young_multiple = if cfg!(debug_assertions) { 1.5 } else { 3.0 };
    if cfg!(debug_assertions) {
        spec.touches_per_alloc = 3;
    }
    spec.app_threads = app_threads;
    let mut cfg = AppRunConfig::standard(spec, GcConfig::vanilla(gc_threads));
    cfg.heap.region_size = 32 << 10;
    cfg.heap.heap_regions = 512;
    cfg.heap.young_regions = 96;
    cfg
}

#[test]
fn more_app_threads_shorten_the_mutator_phase() {
    let serial = run_app(&cfg_with_threads(1, 8)).unwrap();
    let parallel = run_app(&cfg_with_threads(16, 8)).unwrap();
    assert!(
        parallel.mutator_ns < serial.mutator_ns,
        "16 lanes must beat 1: {} vs {}",
        parallel.mutator_ns,
        serial.mutator_ns
    );
    // But not by the full 16x: the lanes share the device bandwidth.
    assert!(
        parallel.mutator_ns * 16 > serial.mutator_ns,
        "speedup cannot exceed the lane count"
    );
}

#[test]
fn lane_scaling_saturates_on_nvm_before_dram() {
    let time_at = |lanes: u32, dram: bool| {
        let mut cfg = cfg_with_threads(lanes, 8);
        if dram {
            cfg.heap.placement = DevicePlacement::all_dram();
        }
        run_app(&cfg).unwrap().mutator_ns as f64
    };
    let nvm_speedup = time_at(2, false) / time_at(32, false);
    let dram_speedup = time_at(2, true) / time_at(32, true);
    assert!(
        dram_speedup > nvm_speedup,
        "DRAM app phases keep scaling further: dram {dram_speedup:.2} vs nvm {nvm_speedup:.2}"
    );
}

#[test]
fn lanes_do_not_change_the_object_graph() {
    // The mutator's RNG sequence is lane-independent and one GC worker's
    // copy order ignores timing, so the graph (and thus the allocation
    // count and GC work) is the same at any lane count.
    let a = run_app(&cfg_with_threads(1, 1)).unwrap();
    let b = run_app(&cfg_with_threads(8, 1)).unwrap();
    let c = run_app(&cfg_with_threads(16, 1)).unwrap();
    assert_eq!(a.allocated_objects, c.allocated_objects);
    assert_eq!(a.gc.cycles(), b.gc.cycles());
    let copied = |r: &nvmgc_workloads::AppRunResult| -> u64 {
        r.cycles.iter().map(|c| c.copied_bytes).sum()
    };
    assert_eq!(copied(&a), copied(&b));
    assert_eq!(a.allocated_objects, b.allocated_objects);
}
