//! The umbrella-crate prelude drives the full workflow end-to-end,
//! including the adaptive mixed-GC trigger — the API surface a downstream
//! user sees first.

use nvmgc_repro::prelude::*;

fn small(gc: GcConfig, trigger: GcTrigger) -> AppRunConfig {
    let mut spec = app("neo4j-analytics");
    spec.alloc_young_multiple = 6.0;
    spec.keep_gcs = 4; // promote aggressively so the trigger fires
    if cfg!(debug_assertions) {
        spec.touches_per_alloc = 2;
    }
    let mut cfg = AppRunConfig::standard(spec, gc);
    cfg.heap.region_size = 32 << 10;
    cfg.heap.heap_regions = 448;
    cfg.heap.young_regions = 64;
    let hb = cfg.heap_bytes();
    if cfg.gc.write_cache.enabled {
        cfg.gc.write_cache.max_bytes = hb / 32;
    }
    if cfg.gc.header_map.enabled {
        cfg.gc.header_map.max_bytes = hb / 32;
    }
    cfg.trigger = trigger;
    cfg
}

#[test]
fn adaptive_trigger_bounds_old_space_through_the_prelude() {
    let young_only = run_app(&small(GcConfig::plus_all(12, 0), GcTrigger::YoungOnly)).unwrap();
    let adaptive = run_app(&small(
        GcConfig::plus_all(12, 0),
        GcTrigger::Adaptive { ihop: 0.15 },
    ))
    .unwrap();
    assert_eq!(young_only.mixed_cycles(), 0);
    assert!(adaptive.mixed_cycles() > 0);
    assert!(
        adaptive.peak_old_regions < young_only.peak_old_regions,
        "mixed GCs must bound the old generation: {} vs {}",
        adaptive.peak_old_regions,
        young_only.peak_old_regions
    );
}

#[test]
fn placement_presets_order_as_expected() {
    // all-DRAM < young-DRAM < all-NVM for vanilla GC time.
    let gc_at = |placement: DevicePlacement| {
        let mut cfg = small(GcConfig::vanilla(12), GcTrigger::YoungOnly);
        cfg.heap.placement = placement;
        run_app(&cfg).unwrap().gc.total_pause_ns()
    };
    let dram = gc_at(DevicePlacement::all_dram());
    let young_dram = gc_at(DevicePlacement::young_dram());
    let nvm = gc_at(DevicePlacement::all_nvm());
    assert!(dram < young_dram, "{dram} < {young_dram}");
    assert!(young_dram < nvm, "{young_dram} < {nvm}");
}

#[test]
fn heap_can_be_driven_directly_from_the_prelude() {
    let mut classes = ClassTable::new();
    let node = classes.register("node", 1, 8);
    let mut heap = Heap::new(
        HeapConfig {
            region_size: 32 << 10,
            heap_regions: 16,
            young_regions: 8,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes,
    );
    let mut mem = MemorySystem::new(MemConfig::default());
    mem.set_threads(3);
    let eden = heap.take_region(RegionKind::Eden).unwrap();
    let a = heap.alloc_object(eden, node).unwrap();
    let b = heap.alloc_object(eden, node).unwrap();
    heap.write_ref_with_barrier(heap.ref_slot(a, 0), b);
    let mut roots = vec![a];
    let mut gc = G1Collector::new(GcConfig::vanilla(2));
    let out = gc.collect(&mut heap, &mut mem, &mut roots, 0).unwrap();
    assert_eq!(out.stats.copied_objects, 2);
    assert_ne!(roots[0], Addr::NULL);
    assert_ne!(roots[0], a);
}
