//! Mixed collections and evacuation-failure (self-forwarding) handling.

use nvmgc_core::{G1Collector, GcConfig};
use nvmgc_heap::verify::verify_heap;
use nvmgc_heap::{Addr, ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind};
use nvmgc_memsim::{MemConfig, MemorySystem};

const CLS_PAIR: u32 = 0;
const CLS_LEAF: u32 = 1;

fn classes() -> ClassTable {
    let mut t = ClassTable::new();
    t.register("pair", 2, 16);
    t.register("leaf", 0, 24);
    t
}

fn heap(regions: u32) -> Heap {
    Heap::new(
        HeapConfig {
            region_size: 1 << 13, // 8 KiB
            heap_regions: regions,
            young_regions: regions / 2,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes(),
    )
}

fn mem(threads: usize) -> MemorySystem {
    let mut m = MemorySystem::new(MemConfig {
        llc_bytes: 64 << 10,
        ..MemConfig::default()
    });
    m.set_threads(threads + 1);
    m
}

/// Builds old-space garbage: objects promoted then dropped.
fn age_into_old(
    h: &mut Heap,
    m: &mut MemorySystem,
    gc: &mut G1Collector,
    roots: &mut Vec<Addr>,
    drop_after: usize,
) -> u64 {
    // Allocate young objects, keep them across enough GCs to promote.
    let eden = h.take_region(RegionKind::Eden).unwrap();
    for i in 0..40 {
        let o = h.alloc_object(eden, CLS_PAIR).unwrap();
        h.write_data(o, 0, i + 1);
        roots.push(o);
    }
    let mut t = 0;
    for _ in 0..4 {
        let out = gc.collect(h, m, roots, t).unwrap();
        t = out.end_ns + 1000;
    }
    assert!(!h.old().is_empty(), "objects must have been promoted");
    // Drop a prefix of the roots: their promoted objects become old
    // garbage that young GC can never reclaim.
    for r in roots.iter_mut().take(drop_after) {
        *r = Addr::NULL;
    }
    t
}

#[test]
fn mixed_gc_reclaims_old_garbage() {
    let mut h = heap(128);
    let mut m = mem(4);
    let mut gc = G1Collector::new(GcConfig::vanilla(4));
    let mut roots = Vec::new();
    let t = age_into_old(&mut h, &mut m, &mut gc, &mut roots, 30);
    let before = verify_heap(&h, &roots).unwrap();
    let old_before = h.old().len();

    let out = gc.collect_mixed(&mut h, &mut m, &mut roots, t).unwrap();
    assert!(out.stats.mark_ns > 0, "marking time reported");
    assert!(
        out.stats.old_regions_collected > 0,
        "garbage-first selection must pick old regions"
    );
    let after = verify_heap(&h, &roots).unwrap();
    assert_eq!(before, after, "mixed GC preserves the reachable graph");
    assert!(
        h.old().len() <= old_before,
        "old space must not grow: {} -> {}",
        old_before,
        h.old().len()
    );
}

#[test]
fn repeated_mixed_gcs_bound_old_space() {
    let mut h = heap(160);
    let mut m = mem(4);
    let mut gc = G1Collector::new(GcConfig::plus_all(12, 1 << 20));
    let mut roots: Vec<Addr> = Vec::new();
    let mut t = 0;
    let mut peak_old = 0usize;
    // Churn: objects live a few GCs, get promoted, die — without mixed
    // GC old space would only grow.
    for round in 0..12 {
        let eden = h.take_region(RegionKind::Eden).unwrap();
        for i in 0..30 {
            let o = h.alloc_object(eden, CLS_PAIR).unwrap();
            h.write_data(o, 0, round * 100 + i + 1);
            roots.push(o);
        }
        // Retire the oldest third of the roots.
        let n = roots.len() / 3;
        for r in roots.iter_mut().take(n) {
            *r = Addr::NULL;
        }
        let out = if round % 3 == 2 {
            gc.collect_mixed(&mut h, &mut m, &mut roots, t).unwrap()
        } else {
            gc.collect(&mut h, &mut m, &mut roots, t).unwrap()
        };
        t = out.end_ns + 1000;
        peak_old = peak_old.max(h.old().len());
        let digest = verify_heap(&h, &roots).unwrap();
        assert!(digest.objects > 0);
    }
    assert!(
        h.old().len() < peak_old || peak_old <= 4,
        "mixed GCs must reclaim old regions (old {} / peak {})",
        h.old().len(),
        peak_old
    );
}

#[test]
fn evacuation_failure_self_forwards_instead_of_dying() {
    // 6 regions total, young budget 3: fill young with live data and
    // leave NO free regions, so evacuation must fail.
    let mut h = Heap::new(
        HeapConfig {
            region_size: 1 << 13,
            heap_regions: 6,
            young_regions: 6,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes(),
    );
    let mut m = mem(2);
    let mut roots = Vec::new();
    // Occupy every region with eden full of live objects.
    for _ in 0..6 {
        let e = h.take_region(RegionKind::Eden).unwrap();
        while let Some(o) = h.alloc_object(e, CLS_LEAF) {
            h.write_data(o, 0, roots.len() as u64 + 1);
            roots.push(o);
        }
    }
    assert_eq!(h.free_count(), 0);
    let before = verify_heap(&h, &roots).unwrap();
    let mut gc = G1Collector::new(GcConfig::vanilla(2));
    let out = gc
        .collect(&mut h, &mut m, &mut roots, 0)
        .expect("evacuation failure must not be fatal");
    assert!(out.stats.evac_failures > 0, "failures must be recorded");
    let after = verify_heap(&h, &roots).unwrap();
    assert_eq!(before, after, "self-forwarding preserves the graph");
    // Retained regions stay young and are re-collected next cycle.
    assert!(!h.survivor().is_empty());
    let out2 = gc
        .collect(&mut h, &mut m, &mut roots, out.end_ns + 1000)
        .expect("subsequent GC still works");
    assert_eq!(before, verify_heap(&h, &roots).unwrap());
    let _ = out2;
}

#[test]
fn partial_evacuation_failure_keeps_both_halves_consistent() {
    // Enough space to evacuate some but not all: failures and successes
    // mix within one cycle.
    let mut h = Heap::new(
        HeapConfig {
            region_size: 1 << 13,
            heap_regions: 8,
            young_regions: 7,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes(),
    );
    let mut m = mem(4);
    let mut roots = Vec::new();
    for _ in 0..7 {
        let e = h.take_region(RegionKind::Eden).unwrap();
        while let Some(o) = h.alloc_object(e, CLS_PAIR) {
            h.write_data(o, 0, roots.len() as u64 + 1);
            if !roots.is_empty() {
                let parent: Addr = roots[roots.len() / 2];
                h.write_ref(h.ref_slot(o, 0), parent);
            }
            roots.push(o);
        }
    }
    let before = verify_heap(&h, &roots).unwrap();
    let mut gc = G1Collector::new(GcConfig::vanilla(4));
    let out = gc.collect(&mut h, &mut m, &mut roots, 0).unwrap();
    assert!(out.stats.evac_failures > 0);
    assert!(out.stats.copied_objects > 0, "some copies succeeded");
    assert_eq!(before, verify_heap(&h, &roots).unwrap());
}

#[test]
fn mixed_gc_is_deterministic() {
    let run = || {
        let mut h = heap(128);
        let mut m = mem(4);
        let mut gc = G1Collector::new(GcConfig::plus_all(12, 1 << 20));
        let mut roots = Vec::new();
        let t = age_into_old(&mut h, &mut m, &mut gc, &mut roots, 20);
        let out = gc.collect_mixed(&mut h, &mut m, &mut roots, t).unwrap();
        (
            out.stats.pause_ns(),
            out.stats.mark_ns,
            out.stats.old_regions_collected,
        )
    };
    assert_eq!(run(), run());
}
