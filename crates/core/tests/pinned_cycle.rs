//! One first collection from a fixed heap image, the shape of the
//! benchmark's `gc_cycle` op, pinned to the numbers it produced before the
//! collector gave the host prefetch hints. A hint reads the heap and the
//! work stacks but must never feed a simulated quantity: if one ever did —
//! a clock, a counter, a byte of the graph — a row here would move. A
//! mixed collection of the same image pins the mark and the garbage-first
//! selection in front of the cycle, and four more presets pin the copy
//! and flush paths the first five never reach.

use nvmgc_core::{G1Collector, GcConfig, Traversal};
use nvmgc_heap::verify::verify_heap;
use nvmgc_heap::{Addr, ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind};
use nvmgc_memsim::{MemConfig, MemorySystem};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CLS_PAIR: u32 = 0;
const CLS_LEAF: u32 = 1;
const CLS_WIDE: u32 = 2;
const CLS_ARRAY: u32 = 3;

fn classes() -> ClassTable {
    let mut t = ClassTable::new();
    t.register("pair", 2, 16);
    t.register("leaf", 0, 24);
    t.register("wide", 6, 8);
    t.register("array1k", 0, 1024);
    t
}

fn alloc(heap: &mut Heap, region: &mut u32, kind: RegionKind, class: u32) -> Addr {
    loop {
        match heap.alloc_object(*region, class) {
            Some(obj) => return obj,
            None => *region = heap.take_region(kind).unwrap(),
        }
    }
}

/// 12 000 eden objects on an all-NVM heap, 4 436 of them reachable through
/// roots and old-to-young remembered-set slots (some of them stale), with
/// shared and cyclic links.
fn image() -> (Heap, Vec<Addr>) {
    let mut heap = Heap::new(
        HeapConfig {
            region_size: 16 << 10,
            heap_regions: 512,
            young_regions: 256,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes(),
    );
    let mut rng = StdRng::seed_from_u64(0x6C_C1E);
    let mut old_region = heap.take_region(RegionKind::Old).unwrap();
    let old: Vec<Addr> = (0..300)
        .map(|_| alloc(&mut heap, &mut old_region, RegionKind::Old, CLS_WIDE))
        .collect();
    let mut eden = heap.take_region(RegionKind::Eden).unwrap();
    let mut live: Vec<Addr> = Vec::new();
    let mut roots = Vec::new();
    for i in 0..12_000u64 {
        let class = match rng.random_range(0..10) {
            0..=4 => CLS_PAIR,
            5..=7 => CLS_LEAF,
            8 => CLS_WIDE,
            _ => CLS_ARRAY,
        };
        let obj = alloc(&mut heap, &mut eden, RegionKind::Eden, class);
        heap.write_data(obj, 0, i + 1);
        if rng.random_bool(0.6) {
            let parent = (!live.is_empty() && rng.random_bool(0.8))
                .then(|| live[rng.random_range(0..live.len())])
                .filter(|&p| heap.num_refs(p) > 0);
            match parent {
                Some(p) => {
                    let slot = heap.ref_slot(p, rng.random_range(0..heap.num_refs(p)));
                    heap.write_ref_with_barrier(slot, obj);
                }
                None if rng.random_bool(0.5) => roots.push(obj),
                None => {
                    let o = old[rng.random_range(0..old.len())];
                    heap.write_ref_with_barrier(heap.ref_slot(o, rng.random_range(0..6)), obj);
                }
            }
            live.push(obj);
        }
        if !live.is_empty() && rng.random_bool(0.1) {
            let a = live[rng.random_range(0..live.len())];
            let b = live[rng.random_range(0..live.len())];
            if heap.num_refs(a) > 0 {
                let slot = heap.ref_slot(a, rng.random_range(0..heap.num_refs(a)));
                heap.write_ref_with_barrier(slot, b);
            }
        }
    }
    // Stale remembered-set entries: old slots cleared after recording.
    for &o in old.iter().step_by(7) {
        heap.write_ref(heap.ref_slot(o, 0), Addr::NULL);
    }
    (heap, roots)
}

fn presets(threads: usize) -> [(&'static str, GcConfig); 5] {
    let mut bfs = GcConfig::plus_all(threads, 0);
    bfs.traversal = Traversal::Bfs;
    [
        ("vanilla", GcConfig::vanilla(threads)),
        ("+all", GcConfig::plus_all(threads, 0)),
        ("+all bfs", bfs),
        ("ps/+all", GcConfig::ps_plus_all(threads, 0)),
        ("semispace", GcConfig::semispace(threads)),
    ]
}

fn memory(threads: usize, persist: bool) -> MemorySystem {
    let mut cfg = MemConfig {
        llc_bytes: 256 << 10,
        ..MemConfig::default()
    };
    cfg.persist.enabled = persist;
    let mut mem = MemorySystem::new(cfg);
    mem.set_threads(threads + 1);
    mem
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `(cell, copied objects, pause ns, FNV-1a of the Debug text of GcStats,
/// MemStats and the post-collection graph digest)`, captured before the
/// host hints landed. (The hashes were re-taken when `GcStats` lost its
/// always-zero `humongous_freed` field: each is the hash of the earlier
/// text without `humongous_freed: 0, `.)
const PINNED: [(&str, u64, u64, u64); 10] = [
    ("vanilla t4", 4436, 929049, 0x2a8a77fcdca46cbb),
    ("+all t4", 4436, 893415, 0xbe8c87f4120cd1e1),
    ("+all bfs t4", 4436, 929786, 0x1eb7006360e90229),
    ("ps/+all t4", 4436, 902232, 0x8d46db2af38deab3),
    ("semispace t4", 4436, 1022453, 0x979620311fda1eb9),
    ("vanilla t28", 4436, 784647, 0x880f8ea366378b37),
    ("+all t28", 4436, 459435, 0xa7765a54015b24e7),
    ("+all bfs t28", 4436, 462891, 0x15d18bee6e2e32db),
    ("ps/+all t28", 4436, 517258, 0x1d8aa41132fb53f7),
    ("semispace t28", 4436, 784282, 0x5172e2c27f6ffb21),
];

/// `(cell, copied objects, pause ns, FNV hash)` of a first collection of
/// the image under `cfg`, with the durability ledger on when `persist`.
fn first_collection(cell: String, cfg: GcConfig, persist: bool) -> (String, u64, u64, u64) {
    let threads = cfg.threads;
    let (mut heap, mut roots) = image();
    let before = verify_heap(&heap, &roots).expect("the image is well-formed");
    let mut mem = memory(threads, persist);
    let outcome = G1Collector::new(cfg)
        .collect(&mut heap, &mut mem, &mut roots, 0)
        .expect("the collection succeeds");
    let after = verify_heap(&heap, &roots).expect("the collected heap is well-formed");
    assert_eq!(before, after, "{cell}: the graph survives");
    let text = format!("{:?} {:?} {:?}", outcome.stats, mem.stats(), after);
    (
        cell,
        outcome.stats.copied_objects,
        outcome.stats.pause_ns(),
        fnv(&text),
    )
}

fn assert_pinned(got: Vec<(String, u64, u64, u64)>, pinned: &[(&str, u64, u64, u64)]) {
    let pinned: Vec<_> = pinned
        .iter()
        .map(|&(cell, copied, pause, hash)| (cell.to_owned(), copied, pause, hash))
        .collect();
    let rows: String = got
        .iter()
        .map(|(cell, copied, pause, hash)| {
            format!("    (\"{cell}\", {copied}, {pause}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(got, pinned, "simulated results moved; now:\n{rows}");
}

#[test]
fn first_collection_is_pinned_at_4_and_28_workers() {
    let mut got = Vec::new();
    for threads in [4, 28] {
        for (name, cfg) in presets(threads) {
            got.push(first_collection(format!("{name} t{threads}"), cfg, false));
        }
    }
    assert_pinned(got, &PINNED);
}

/// The policy paths none of [`presets`] reaches: PS's uncached LABs and
/// direct copies (`ps/vanilla`), the semispace plan's cached shared bump
/// (`semispace/+all`), the durable region publish with the ledger on
/// (`+all/durable`; the map, and so durability, is active at t28 only)
/// and the async-flush readiness queue (`+all/async`).
fn path_presets(threads: usize) -> [(&'static str, GcConfig, bool); 4] {
    let mut durable = GcConfig::plus_all(threads, 0);
    durable.header_map.durable = true;
    let mut async_flush = GcConfig::plus_all(threads, 0);
    async_flush.write_cache.async_flush = true;
    [
        ("ps/vanilla", GcConfig::ps_vanilla(threads), false),
        (
            "semispace/+all",
            GcConfig::semispace_plus_all(threads, 0),
            false,
        ),
        ("+all/durable", durable, true),
        ("+all/async", async_flush, false),
    ]
}

/// `(cell, copied objects, pause ns, FNV-1a as in [`PINNED`])` of the
/// [`path_presets`], captured before the copy policies' region take,
/// cache-pair refill, shared bump and copy charge became one function
/// each.
const PINNED_PATHS: [(&str, u64, u64, u64); 8] = [
    ("ps/vanilla t4", 4436, 956974, 0xfa17cd0b2a80a1d5),
    ("semispace/+all t4", 4436, 957955, 0x7ddb7ebe9a0e7a2c),
    ("+all/durable t4", 4436, 893415, 0xbe8c87f4120cd1e1),
    ("+all/async t4", 4436, 832413, 0x09323dbb5cd15af0),
    ("ps/vanilla t28", 4436, 783980, 0x5a733b99c8cf7925),
    ("semispace/+all t28", 4436, 462482, 0x6037dd7c4892e933),
    ("+all/durable t28", 4436, 976535, 0x4bfa179545535b21),
    ("+all/async t28", 4436, 440878, 0x4d5c72d13831a84f),
];

#[test]
fn policy_paths_are_pinned_at_4_and_28_workers() {
    let mut got = Vec::new();
    for threads in [4, 28] {
        for (name, cfg, persist) in path_presets(threads) {
            got.push(first_collection(format!("{name} t{threads}"), cfg, persist));
        }
    }
    assert_pinned(got, &PINNED_PATHS);
}

/// `(cell, copied objects, mark ns, pause ns, old regions collected)` of a
/// mixed collection of the image, captured before the mark and the
/// garbage-first selection were folded into `collect_mixed`.
const PINNED_MIXED: [(&str, u64, u64, u64, u64); 4] = [
    ("vanilla t4", 3107, 262928, 675416, 1),
    ("+all t4", 3107, 262928, 653259, 1),
    ("vanilla t28", 3107, 37904, 599437, 1),
    ("+all t28", 3107, 37904, 383354, 1),
];

#[test]
fn mixed_collection_is_pinned_at_4_and_28_workers() {
    let mut got = Vec::new();
    for threads in [4, 28] {
        let cfgs = [
            ("vanilla", GcConfig::vanilla(threads)),
            ("+all", GcConfig::plus_all(threads, 0)),
        ];
        for (name, cfg) in cfgs {
            let (mut heap, mut roots) = image();
            let before = verify_heap(&heap, &roots).expect("the image is well-formed");
            let mut mem = memory(threads, false);
            let outcome = G1Collector::new(cfg)
                .collect_mixed(&mut heap, &mut mem, &mut roots, 0)
                .expect("the collection succeeds");
            let after = verify_heap(&heap, &roots).expect("the collected heap is well-formed");
            assert_eq!(before, after, "{name} t{threads}: the graph survives");
            let s = &outcome.stats;
            got.push((
                format!("{name} t{threads}"),
                s.copied_objects,
                s.mark_ns,
                s.pause_ns(),
                s.old_regions_collected,
            ));
        }
    }
    let pinned: Vec<_> = PINNED_MIXED
        .iter()
        .map(|&(cell, copied, mark, pause, old)| (cell.to_owned(), copied, mark, pause, old))
        .collect();
    let rows: String = got
        .iter()
        .map(|(cell, copied, mark, pause, old)| {
            format!("    (\"{cell}\", {copied}, {mark}, {pause}, {old}),\n")
        })
        .collect();
    assert_eq!(got, pinned, "simulated results moved; now:\n{rows}");
}
