//! Regression test: promotion-heavy workloads under the adaptive
//! (mixed-GC) trigger. This scenario once exposed two real bugs — stale
//! remembered-set entries surviving region recycling, and mutator anchor
//! handles dangling after a mixed collection moved the anchors.

use nvmgc_core::GcConfig;
use nvmgc_workloads::runner::GcTrigger;
use nvmgc_workloads::{app, run_app, AppRunConfig};

fn run(gc: GcConfig, trigger: GcTrigger) -> (usize, usize, u64) {
    let mut spec = app("scala-stm-bench7");
    spec.keep_gcs = 4; // beyond the tenure age: heavy promotion
    spec.alloc_young_multiple = if cfg!(debug_assertions) { 8.0 } else { 12.0 };
    // Scaled down so the scenario also runs quickly under debug builds.
    spec.touches_per_alloc = 2;
    let mut cfg = AppRunConfig::standard(spec, gc);
    cfg.heap.region_size = 16 << 10;
    cfg.heap.heap_regions = 640;
    cfg.heap.young_regions = 96;
    let hb = cfg.heap_bytes();
    if cfg.gc.write_cache.enabled {
        cfg.gc.write_cache.max_bytes = hb / 32;
    }
    if cfg.gc.header_map.enabled {
        cfg.gc.header_map.max_bytes = hb / 32;
    }
    cfg.trigger = trigger;
    let r = run_app(&cfg).expect("run survives");
    let failures = r.cycles.iter().map(|c| c.evac_failures).sum();
    (r.gc.cycles(), r.mixed_cycles(), failures)
}

#[test]
fn promotion_heavy_young_only_survives_via_self_forwarding() {
    let (cycles, mixed, _failures) = run(GcConfig::vanilla(28), GcTrigger::YoungOnly);
    assert!(cycles > 5);
    assert_eq!(mixed, 0);
}

#[test]
fn adaptive_trigger_runs_mixed_gcs_and_avoids_evac_failures() {
    let (cycles, mixed, failures) = run(GcConfig::vanilla(28), GcTrigger::Adaptive { ihop: 0.25 });
    assert!(cycles > 5);
    assert!(mixed > 0, "old occupancy must trip the IHOP threshold");
    assert_eq!(
        failures, 0,
        "mixed GCs bound the old generation, so evacuation never fails"
    );
}

#[test]
fn adaptive_trigger_with_all_optimizations() {
    let (_, mixed, failures) = run(
        GcConfig::plus_all(28, 0),
        GcTrigger::Adaptive { ihop: 0.25 },
    );
    assert!(mixed > 0);
    assert_eq!(failures, 0);
}
