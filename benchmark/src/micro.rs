//! `micro.` rows: fixed-iteration loops over one public function each, in
//! the idiom of the `micro_structures` harness. Every traced run executes
//! them, so a layer's isolated cost sits beside the workload it serves.

use nvmgc_core::collector::Worker;
use nvmgc_core::engine::{run_phase_heap, run_phase_scan};
use nvmgc_core::header_map::HeaderMap;
use nvmgc_core::write_cache::WriteCachePool;
use nvmgc_core::WriteCacheConfig;
use nvmgc_heap::{Addr, ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind, RememberedSet};
use nvmgc_memsim::{
    AccessKind, DeviceId, DeviceParams, DurabilityLedger, Ledger, LlcModel, MemConfig,
    MemorySystem, Pattern, PersistConfig, CACHE_LINE,
};
use nvmgc_metrics::hdr::HdrHistogram;
use std::hint::black_box;
use std::time::Instant;

/// Times `body` three times after one warm-up execution and returns the
/// median in ns per unit of work; `body` returns the units it performed.
fn ns_per<F: FnMut() -> u64>(mut body: F) -> f64 {
    body();
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let units = black_box(body());
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn pair_heap(heap_regions: u32, young_regions: u32) -> Heap {
    let mut classes = ClassTable::new();
    classes.register("pair", 2, 16);
    Heap::new(
        HeapConfig {
            region_size: 64 << 10,
            heap_regions,
            young_regions,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes,
    )
}

/// Fills `regions` eden regions with pair objects; returns the object count.
fn fill_eden(heap: &mut Heap, regions: u32) -> u64 {
    let mut objects = 0;
    for _ in 0..regions {
        let eden = heap.take_region(RegionKind::Eden).expect("eden region");
        while let Some(obj) = heap.alloc_object(eden, 0) {
            black_box(obj);
            objects += 1;
        }
    }
    objects
}

/// A pseudo-random line-aligned address stream over 64 MiB.
fn scatter(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0x3FF_FFC0
}

/// Engine scheduler cost per step, with the `micro_structures` step mix
/// (64-ish steps per worker, varied increments, ties).
fn engine_ns_per_step(workers: usize, heap_path: bool) -> f64 {
    ns_per(|| {
        let mut steps = 0u64;
        for _ in 0..(4096 / workers) {
            let mut ws: Vec<Worker> = (0..workers)
                .map(|i| Worker::new(i, (i as u64 * 97) % 13))
                .collect();
            let step = |w: &mut Worker| {
                steps += 1;
                w.clock += 1 + (w.clock ^ w.id as u64) % 28;
                if w.clock > 1500 {
                    w.done = true;
                }
            };
            let end = if heap_path {
                run_phase_heap(&mut ws, step)
            } else {
                run_phase_scan(&mut ws, step)
            };
            black_box(end.expect("phase completes"));
        }
        steps
    })
}

fn word_ns(dev: DeviceId, write: bool) -> f64 {
    let mut mem = MemorySystem::new(MemConfig::default());
    mem.set_threads(2);
    let (mut now, mut i) = (0u64, 0u64);
    ns_per(|| {
        for _ in 0..200_000 {
            i += 1;
            now = if write {
                mem.write_word(0, dev, scatter(i), now)
            } else {
                mem.read_word(0, dev, scatter(i), now)
            };
        }
        200_000
    })
}

fn bulk_ns_per_kib(nt_write: bool) -> f64 {
    let mut mem = MemorySystem::new(MemConfig::default());
    mem.set_threads(2);
    let (mut now, mut addr) = (0u64, 0u64);
    ns_per(|| {
        for _ in 0..20_000 {
            addr = (addr + 4096) & 0x3FF_FFFF;
            now = if nt_write {
                mem.nt_write_bulk(DeviceId::Nvm, addr, 4096, now)
            } else {
                mem.read_bulk(DeviceId::Nvm, addr, 4096, now)
            };
        }
        20_000 * 4
    })
}

fn durable_ledger() -> DurabilityLedger {
    DurabilityLedger::new(PersistConfig {
        enabled: true,
        ..PersistConfig::default()
    })
}

/// Runs every micro loop; returns `(metric name, value)` in a fixed order.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    for (name, workers, heap_path) in [
        ("micro.core.engine.scan_ns_per_step.w4", 4, false),
        ("micro.core.engine.scan_ns_per_step.w8", 8, false),
        ("micro.core.engine.scan_ns_per_step.w12", 12, false),
        ("micro.core.engine.scan_ns_per_step.w56", 56, false),
        ("micro.core.engine.heap_ns_per_step.w4", 4, true),
        ("micro.core.engine.heap_ns_per_step.w8", 8, true),
        ("micro.core.engine.heap_ns_per_step.w12", 12, true),
        ("micro.core.engine.heap_ns_per_step.w56", 56, true),
    ] {
        out.push((name, engine_ns_per_step(workers, heap_path)));
    }

    const ENTRIES: u64 = 100_000;
    out.push((
        "micro.core.header_map.put_ns",
        ns_per(|| {
            let map = HeaderMap::new(8 << 20, 16);
            for i in 1..=ENTRIES {
                let _ = black_box(map.put(Addr(i * 8), Addr(i * 8 + 4096)));
            }
            ENTRIES
        }),
    ));
    let map = HeaderMap::new(8 << 20, 16);
    for i in 1..=ENTRIES {
        let _ = map.put(Addr(i * 8), Addr(i * 8 + 4096));
    }
    out.push((
        "micro.core.header_map.get_hit_ns",
        ns_per(|| {
            for i in 1..=ENTRIES {
                black_box(map.get(Addr(i * 8)));
            }
            ENTRIES
        }),
    ));
    out.push((
        "micro.core.header_map.get_miss_ns",
        ns_per(|| {
            for i in 1..=ENTRIES {
                black_box(map.get(Addr(0x7000_0000 + i * 8)));
            }
            ENTRIES
        }),
    ));

    let mut heap = pair_heap(64, 32);
    let mut pool = WriteCachePool::new(WriteCacheConfig {
        enabled: true,
        max_bytes: 1 << 20,
        async_flush: false,
        nt_store: true,
    });
    let (cache, _) = pool.alloc_pair(&mut heap).expect("cache pair");
    let cached = heap.addr_of(cache, 0x1000);
    out.push((
        "micro.core.write_cache.translate_ns",
        ns_per(|| {
            for _ in 0..ENTRIES {
                black_box(WriteCachePool::translate(&heap, black_box(cached)));
            }
            ENTRIES
        }),
    ));

    out.push((
        "micro.heap.alloc_object_ns",
        ns_per(|| fill_eden(&mut pair_heap(64, 32), 32)),
    ));
    let mut heap = pair_heap(64, 32);
    let eden = heap.take_region(RegionKind::Eden).expect("eden region");
    let obj = heap.alloc_object(eden, 0).expect("object fits");
    out.push((
        "micro.heap.copy_object_ns",
        ns_per(|| {
            let mut copies = 0;
            for _ in 0..16 {
                let to = heap
                    .take_region(RegionKind::Survivor)
                    .expect("survivor region");
                while let Some(copy) = heap.copy_object(obj, to) {
                    black_box(copy);
                    copies += 1;
                }
                heap.release_region(to).expect("region was in use");
            }
            copies
        }),
    ));
    out.push((
        "micro.heap.remset_insert_ns",
        ns_per(|| {
            let mut remset = RememberedSet::new();
            for i in 0..ENTRIES {
                remset.insert(Addr(i * 8));
            }
            black_box(remset.len());
            ENTRIES
        }),
    ));
    // The standard run geometry (48 MiB heap) with its young generation full:
    // what `SimSnapshot::restore` clones.
    let mut heap = pair_heap(768, 128);
    fill_eden(&mut heap, 128);
    out.push((
        "micro.heap.clone_ms",
        ns_per(|| {
            black_box(heap.clone());
            1
        }) / 1e6,
    ));

    let mut ledger = Ledger::new(DeviceParams::optane(), 20_000);
    let mut now = 0u64;
    out.push((
        "micro.memsim.bus.grant_ns",
        ns_per(|| {
            for _ in 0..ENTRIES {
                now += 100;
                black_box(ledger.grant(now, AccessKind::Read, Pattern::Rand, 64));
            }
            ENTRIES
        }),
    ));
    let mut llc = LlcModel::new(2 << 20);
    let mut i = 0u64;
    out.push((
        "micro.memsim.llc.access_ns",
        ns_per(|| {
            for _ in 0..ENTRIES {
                i += 1;
                black_box(llc.access(scatter(i)));
            }
            ENTRIES
        }),
    ));
    let mut at = 0u64;
    out.push((
        "micro.memsim.llc.install_range_ns_per_line",
        ns_per(|| {
            for _ in 0..2_000 {
                at = (at + 4096) & 0x3FF_FFFF;
                llc.install_range(at, 4096);
            }
            2_000 * 4096 / CACHE_LINE
        }),
    ));

    out.push((
        "micro.memsim.system.read_word_ns.nvm",
        word_ns(DeviceId::Nvm, false),
    ));
    out.push((
        "micro.memsim.system.read_word_ns.dram",
        word_ns(DeviceId::Dram, false),
    ));
    out.push((
        "micro.memsim.system.write_word_ns.nvm",
        word_ns(DeviceId::Nvm, true),
    ));
    out.push((
        "micro.memsim.system.write_word_ns.dram",
        word_ns(DeviceId::Dram, true),
    ));
    out.push((
        "micro.memsim.system.read_bulk_ns_per_kib",
        bulk_ns_per_kib(false),
    ));
    out.push((
        "micro.memsim.system.nt_write_bulk_ns_per_kib",
        bulk_ns_per_kib(true),
    ));

    let mut persist = durable_ledger();
    let (mut now, mut i) = (0u64, 0u64);
    out.push((
        "micro.memsim.persist.record_store_ns",
        ns_per(|| {
            for _ in 0..ENTRIES {
                i += 1;
                now += 10;
                persist.record_store(scatter(i), 8, now);
            }
            ENTRIES
        }),
    ));
    out.push((
        "micro.memsim.persist.write_back_ns_per_line",
        ns_per(|| {
            // Store a line, then write it back: the write-back is what
            // hands it to the device buffer. Half of each pair is the store.
            for _ in 0..ENTRIES {
                i += 1;
                now += 10;
                persist.record_store(scatter(i), 8, now);
                persist.write_back(scatter(i), CACHE_LINE, now);
            }
            ENTRIES
        }),
    ));
    out.push((
        "micro.memsim.persist.persist_meta_ns",
        ns_per(|| {
            for key in 0..ENTRIES {
                now += 10;
                persist.persist_meta(key & 0xFFF, now);
            }
            ENTRIES
        }),
    ));
    out.push((
        "micro.memsim.persist.crash_image_us",
        ns_per(|| {
            for _ in 0..1_000 {
                black_box(persist.crash_image().durable_lines());
            }
            1_000
        }) / 1e3,
    ));

    let mut hist = HdrHistogram::new();
    let mut i = 0u64;
    out.push((
        "metrics.hdr.record_n_ns",
        ns_per(|| {
            for _ in 0..ENTRIES {
                i += 1;
                hist.record_n(1_000 + scatter(i) % 50_000_000, 100);
            }
            ENTRIES
        }),
    ));
    out.push((
        "metrics.hdr.encode_us",
        ns_per(|| {
            for _ in 0..100 {
                black_box(hist.encode());
            }
            100
        }) / 1e3,
    ));
    out
}
