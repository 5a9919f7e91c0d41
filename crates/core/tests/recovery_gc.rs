//! Pinned crash-recovery test: a power failure injected mid-evacuation
//! under the durable header map must surface as a typed
//! [`GcError::PowerCrash`], and [`G1Collector::recover_from_crash`] must
//! replay the durable forwarding prefix, re-evacuate lost copies, resume
//! the interrupted cycle and finish it with the reachable graph preserved
//! exactly — same shape, classes and payloads as a never-crashed run.

use nvmgc_core::collector::SAFEPOINT_NS;
use nvmgc_core::fault::GcFault;
use nvmgc_core::{G1Collector, GcConfig, GcError};
use nvmgc_heap::verify::{verify_heap, verify_remsets};
use nvmgc_heap::{Addr, ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind};
use nvmgc_memsim::{MemConfig, MemorySystem, PersistConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CLS_PAIR: u32 = 0; // 2 refs, 16 data bytes
const CLS_LEAF: u32 = 1; // 0 refs, 24 data bytes
const CLS_WIDE: u32 = 2; // 6 refs, 8 data bytes
const CLS_ARRAY: u32 = 3; // 0 refs, 1 KiB payload

const GRAPH_SEED: u64 = 0xC4A5;
const OBJECTS: usize = 3000;

fn classes() -> ClassTable {
    let mut t = ClassTable::new();
    t.register("pair", 2, 16);
    t.register("leaf", 0, 24);
    t.register("wide", 6, 8);
    t.register("array1k", 0, 1024);
    t
}

fn heap() -> Heap {
    Heap::new(
        HeapConfig {
            region_size: 16 << 10,
            heap_regions: 256, // 4 MiB heap
            young_regions: 128,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes(),
    )
}

fn mem(threads: usize) -> MemorySystem {
    let mut m = MemorySystem::new(MemConfig {
        llc_bytes: 256 << 10,
        persist: PersistConfig {
            enabled: true,
            seed: 0x9E37,
            ..PersistConfig::default()
        },
        ..MemConfig::default()
    });
    m.set_threads(threads + 1);
    m
}

/// Randomized eden graph with garbage, shared objects and cycles; the
/// same builder `gc_correctness` uses, so recovery faces realistic shape.
fn build_graph(heap: &mut Heap, seed: u64, objects: usize) -> Vec<Addr> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut eden = heap.take_region(RegionKind::Eden).unwrap();
    let mut live: Vec<Addr> = Vec::new();
    let mut roots: Vec<Addr> = Vec::new();
    for i in 0..objects {
        let class = match rng.random_range(0..10) {
            0..=4 => CLS_PAIR,
            5..=7 => CLS_LEAF,
            8 => CLS_WIDE,
            _ => CLS_ARRAY,
        };
        let obj = loop {
            match heap.alloc_object(eden, class) {
                Some(o) => break o,
                None => eden = heap.take_region(RegionKind::Eden).unwrap(),
            }
        };
        heap.write_data(obj, 0, i as u64 + 1);
        if rng.random_bool(0.6) {
            if live.is_empty() || rng.random_bool(0.3) {
                roots.push(obj);
            } else {
                let parent = live[rng.random_range(0..live.len())];
                let nrefs = heap.num_refs(parent);
                if nrefs == 0 {
                    roots.push(obj);
                } else {
                    let slot = heap.ref_slot(parent, rng.random_range(0..nrefs));
                    heap.write_ref_with_barrier(slot, obj);
                }
            }
            live.push(obj);
        }
        if !live.is_empty() && rng.random_bool(0.1) {
            let a = live[rng.random_range(0..live.len())];
            let b = live[rng.random_range(0..live.len())];
            let nrefs = heap.num_refs(a);
            if nrefs > 0 {
                let slot = heap.ref_slot(a, rng.random_range(0..nrefs));
                heap.write_ref_with_barrier(slot, b);
            }
        }
    }
    roots
}

fn durable_cfg() -> GcConfig {
    let mut cfg = GcConfig::plus_all(12, 4 << 20);
    cfg.header_map.durable = true;
    cfg
}

/// The packets of a collection, in order; `mid_packet_instant` and the
/// crash test index them.
const PACKETS: [&str; 3] = ["scan", "write-back", "map-clear"];

/// The midpoint and the end of packet `packet` of a clean collection over
/// the same graph. The midpoint is a crash instant guaranteed to land
/// inside that packet: after some forwarding installs (scan), between two
/// flush chunks (write-back), or with the header map partly zeroed
/// (map-clear), but before the cycle completes.
fn mid_packet_instant(durable: bool, packet: usize) -> (u64, u64) {
    let mut cfg = durable_cfg();
    cfg.header_map.durable = durable;
    let mut h = heap();
    let mut m = mem(cfg.threads);
    let mut roots = build_graph(&mut h, GRAPH_SEED, OBJECTS);
    let mut gc = G1Collector::new(cfg);
    let outcome = gc
        .collect(&mut h, &mut m, &mut roots, 0)
        .expect("clean collection succeeds");
    let phases = outcome.stats.phases.named();
    assert_eq!(phases.map(|(name, _)| name), PACKETS);
    assert!(phases[packet].1 > 0, "{} did no work", PACKETS[packet]);
    let before: u64 = phases[..packet].iter().map(|&(_, ns)| ns).sum();
    // The scan phase opens with the safepoint entry, before any worker
    // steps.
    let entry = if packet == 0 { SAFEPOINT_NS } else { 0 };
    let end = before + phases[packet].1;
    ((before + entry + end) / 2, end)
}

/// End-to-end, once per packet: crash inside it, recover, resume, graph
/// preserved. The write-back and map-clear packets leave the cycle by a
/// different exit than the scan packet the other tests crash in.
#[test]
fn power_crash_mid_evacuation_recovers_and_resumes() {
    for (packet, name) in PACKETS.into_iter().enumerate() {
        let (crash_at, packet_end) = mid_packet_instant(true, packet);

        let mut cfg = durable_cfg();
        cfg.fault
            .gc
            .events
            .push(GcFault::PowerFailure { at_ns: crash_at });
        let mut h = heap();
        let mut m = mem(cfg.threads);
        let mut roots = build_graph(&mut h, GRAPH_SEED, OBJECTS);
        let before = verify_heap(&h, &roots).expect("pre-GC heap is well-formed");

        let mut gc = G1Collector::new(cfg);
        let crash = match gc.collect(&mut h, &mut m, &mut roots, 0) {
            Err(GcError::PowerCrash(crash)) => crash,
            other => panic!("expected a power crash mid-{name}, got {other:?}"),
        };
        assert!(
            (crash_at..packet_end).contains(&crash.at_ns),
            "{name}: crash at {} must fire inside the packet, in [{crash_at}, {packet_end})",
            crash.at_ns
        );
        assert!(
            !crash.cset.is_empty(),
            "{name}: the interrupted cycle had a collection set in flight"
        );

        let outcome = gc
            .recover_from_crash(&mut h, &mut m, &mut roots, *crash)
            .unwrap_or_else(|e| panic!("{name}: recovery must complete the cycle: {e}"));

        let after = verify_heap(&h, &roots).expect("post-recovery heap is well-formed");
        assert_eq!(
            before, after,
            "{name}: recovered graph must match the pre-crash graph exactly"
        );
        verify_remsets(&h, &roots).expect("post-recovery remset invariant");
        assert!(
            h.eden().is_empty(),
            "{name}: eden reclaimed after the resumed cycle"
        );

        assert_eq!(
            outcome.stats.recovered_cycles, 1,
            "{name}: one cycle was recovered"
        );
        assert!(
            outcome.stats.resumed_evacuations + outcome.stats.replayed_map_entries > 0,
            "{name}: recovery either replayed durable installs or re-evacuated lost copies"
        );
        assert!(
            outcome.stats.fault_events.power_failure_checks >= 1,
            "{name}: the crash-image oracle ran for the recorded power failure"
        );
    }
}

/// A power failure under the *volatile* header map stays on the legacy
/// oracle path: the run completes in one call, no typed crash. Fired
/// just after the safepoint so it lands while workers are mid-scan.
#[test]
fn volatile_map_power_failure_keeps_oracle_path() {
    let mut cfg = durable_cfg();
    cfg.header_map.durable = false;
    let crash_at = SAFEPOINT_NS + 10_000;
    cfg.fault
        .gc
        .events
        .push(GcFault::PowerFailure { at_ns: crash_at });
    let mut h = heap();
    let mut m = mem(cfg.threads);
    let mut roots = build_graph(&mut h, GRAPH_SEED, OBJECTS);
    let before = verify_heap(&h, &roots).expect("pre-GC heap is well-formed");

    let mut gc = G1Collector::new(cfg);
    let outcome = gc
        .collect(&mut h, &mut m, &mut roots, 0)
        .expect("volatile-map run completes without a typed crash");
    assert_eq!(outcome.stats.recovered_cycles, 0);
    assert!(outcome.stats.fault_events.power_failure_checks >= 1);

    let after = verify_heap(&h, &roots).expect("post-GC heap is well-formed");
    assert_eq!(before, after);
}

/// Determinism across the crash boundary: crash + recovery is a pure
/// function of its inputs — repeating the whole sequence reproduces the
/// recovery counters and the resumed cycle's timing exactly.
#[test]
fn crash_recovery_is_deterministic() {
    let (crash_at, _) = mid_packet_instant(true, 0);
    let run = || {
        let mut cfg = durable_cfg();
        cfg.fault
            .gc
            .events
            .push(GcFault::PowerFailure { at_ns: crash_at });
        let mut h = heap();
        let mut m = mem(cfg.threads);
        let mut roots = build_graph(&mut h, GRAPH_SEED, OBJECTS);
        let mut gc = G1Collector::new(cfg);
        let crash = match gc.collect(&mut h, &mut m, &mut roots, 0) {
            Err(GcError::PowerCrash(crash)) => crash,
            other => panic!("expected a power crash, got {other:?}"),
        };
        let at = crash.at_ns;
        let outcome = gc
            .recover_from_crash(&mut h, &mut m, &mut roots, *crash)
            .expect("recovery succeeds");
        (
            at,
            outcome.stats.pause_ns(),
            outcome.stats.resumed_evacuations,
            outcome.stats.replayed_map_entries,
            outcome.stats.copied_objects,
        )
    };
    assert_eq!(run(), run());
}

/// A crashed *mixed* cycle keeps what its stop-the-world mark
/// contributed — the crash state carries it to the resumed cycle — and
/// the resumed cycle reports the whole stop: from the instant
/// `collect_mixed` was called to the instant mutators resume, every ns is
/// the mark or the pause.
#[test]
fn crashed_mixed_cycle_reports_its_mark_and_its_whole_pause() {
    let run = |crash_at: Option<u64>| {
        let mut cfg = durable_cfg();
        if let Some(at_ns) = crash_at {
            cfg.fault.gc.events.push(GcFault::PowerFailure { at_ns });
        }
        let mut h = heap();
        let mut m = mem(cfg.threads);
        let mut roots = build_graph(&mut h, GRAPH_SEED, OBJECTS);
        let mut gc = G1Collector::new(cfg);
        let mut crashes = 0;
        let mut attempt = gc.collect_mixed(&mut h, &mut m, &mut roots, 0);
        let outcome = loop {
            match attempt {
                Err(GcError::PowerCrash(crash)) => {
                    crashes += 1;
                    assert!(crash.mark.mark_ns > 0, "the crash state carries the mark");
                    attempt = gc.recover_from_crash(&mut h, &mut m, &mut roots, *crash);
                }
                other => break other.expect("the mixed cycle completes"),
            }
        };
        (outcome, crashes)
    };
    let (clean, _) = run(None);
    let mid_scan = clean.stats.mark_ns + (SAFEPOINT_NS + clean.stats.phases.scan_ns) / 2;
    let (resumed, crashes) = run(Some(mid_scan));
    assert_eq!(crashes, 1);
    assert_eq!(resumed.stats.recovered_cycles, 1);
    assert_eq!(resumed.stats.mark_ns, clean.stats.mark_ns);
    assert!(resumed.stats.recovery_ns > 0);
    for out in [&clean, &resumed] {
        assert_eq!(out.end_ns, out.stats.mark_ns + out.stats.pause_ns());
    }
}
