//! Mutator lane (application-parallelism) behaviour.

use nvmgc_core::GcConfig;
use nvmgc_heap::DevicePlacement;
use nvmgc_workloads::{app, run_app, AppRunConfig};

fn cfg_with_threads(app_threads: u32) -> AppRunConfig {
    let mut spec = app("kmeans");
    spec.alloc_young_multiple = if cfg!(debug_assertions) { 1.5 } else { 3.0 };
    if cfg!(debug_assertions) {
        spec.touches_per_alloc = 3;
    }
    spec.app_threads = app_threads;
    let mut cfg = AppRunConfig::standard(spec, GcConfig::vanilla(8));
    cfg.heap.region_size = 32 << 10;
    cfg.heap.heap_regions = 512;
    cfg.heap.young_regions = 96;
    cfg
}

#[test]
fn more_app_threads_shorten_the_mutator_phase() {
    let serial = run_app(&cfg_with_threads(1)).unwrap();
    let parallel = run_app(&cfg_with_threads(16)).unwrap();
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
    // Same amount of real work either way.
    assert_eq!(serial.allocated_objects, parallel.allocated_objects);
}

#[test]
fn lane_scaling_saturates_on_nvm_before_dram() {
    let time_at = |lanes: u32, dram: bool| {
        let mut cfg = cfg_with_threads(lanes);
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
    // The graph (and thus GC work) is driven by the RNG sequence, which
    // is lane-independent; only timing differs.
    let a = run_app(&cfg_with_threads(1)).unwrap();
    let b = run_app(&cfg_with_threads(8)).unwrap();
    assert_eq!(a.gc.cycles(), b.gc.cycles());
    let copied = |r: &nvmgc_workloads::AppRunResult| -> u64 {
        r.cycles.iter().map(|c| c.copied_bytes).sum()
    };
    assert_eq!(copied(&a), copied(&b));
    assert_eq!(a.allocated_objects, b.allocated_objects);
}
