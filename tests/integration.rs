//! Cross-crate integration tests: full application runs through the
//! workload engine, the collectors and the memory model together.

use nvmgc_core::{FaultPlan, GcConfig, GcStats, Severity};
use nvmgc_heap::verify::GraphDigest;
use nvmgc_heap::DevicePlacement;
use nvmgc_memsim::DeviceId;
use nvmgc_workloads::cassandra::{client_spec, server_spec, CassandraPhase};
use nvmgc_workloads::spec::ClassMix;
use nvmgc_workloads::{app, run_app, run_scenario, AppRunConfig, WorkloadSpec};

/// A downsized config so integration tests stay fast. Debug builds run
/// ~10x slower than release, so they get a further-reduced scale — the
/// assertions here are about ordering and invariants, not magnitudes.
fn small(name: &str, gc: GcConfig) -> AppRunConfig {
    small_spec(app(name), gc)
}

/// [`small`] for a workload that is not one of the named applications.
fn small_spec(mut spec: WorkloadSpec, gc: GcConfig) -> AppRunConfig {
    spec.alloc_young_multiple = if cfg!(debug_assertions) { 2.0 } else { 4.0 };
    if cfg!(debug_assertions) {
        spec.touches_per_alloc = spec.touches_per_alloc.min(3);
    }
    let mut cfg = AppRunConfig::standard(spec, gc);
    cfg.heap.region_size = 32 << 10;
    cfg.heap.heap_regions = 512;
    cfg.heap.young_regions = if cfg!(debug_assertions) { 64 } else { 96 };
    let heap_bytes = cfg.heap_bytes();
    if cfg.gc.write_cache.enabled {
        cfg.gc.write_cache.max_bytes = heap_bytes / 32;
    }
    if cfg.gc.header_map.enabled {
        cfg.gc.header_map.max_bytes = heap_bytes / 32;
    }
    cfg
}

#[test]
fn every_profile_runs_under_every_headline_config() {
    // All 26 applications complete under vanilla, +writecache and +all.
    for spec in nvmgc_workloads::all_apps() {
        for gc in [
            GcConfig::vanilla(4),
            GcConfig::plus_writecache(4, 16 << 20),
            GcConfig::plus_all(12, 16 << 20),
        ] {
            let mut cfg = small(spec.name, gc);
            cfg.spec.alloc_young_multiple = if cfg!(debug_assertions) { 1.5 } else { 2.5 };
            let r = run_app(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));
            assert!(r.total_ns > 0, "{}", spec.name);
            assert!(r.gc.cycles() >= 1, "{} had no GC", spec.name);
        }
    }
}

#[test]
fn optimizations_reduce_gc_time_on_nvm() {
    let vanilla = run_app(&small("page-rank", GcConfig::vanilla(28))).unwrap();
    let wc = run_app(&small("page-rank", GcConfig::plus_writecache(28, 0))).unwrap();
    let all = run_app(&small("page-rank", GcConfig::plus_all(28, 0))).unwrap();
    assert!(
        wc.gc.total_pause_ns() < vanilla.gc.total_pause_ns(),
        "write cache must help page-rank: {} vs {}",
        wc.gc.total_pause_ns(),
        vanilla.gc.total_pause_ns()
    );
    assert!(
        all.gc.total_pause_ns() < wc.gc.total_pause_ns(),
        "+all must beat +writecache at 28 threads"
    );
}

#[test]
fn nvm_gap_shrinks_with_optimizations() {
    let mut dram_cfg = small("kmeans", GcConfig::vanilla(28));
    dram_cfg.heap.placement = DevicePlacement::all_dram();
    let dram = run_app(&dram_cfg).unwrap();
    let nvm_vanilla = run_app(&small("kmeans", GcConfig::vanilla(28))).unwrap();
    let nvm_all = run_app(&small("kmeans", GcConfig::plus_all(28, 0))).unwrap();
    let gap_vanilla = nvm_vanilla.gc_seconds() / dram.gc_seconds();
    let gap_all = nvm_all.gc_seconds() / dram.gc_seconds();
    assert!(
        gap_all < gap_vanilla,
        "optimizations must shrink the DRAM gap: {gap_all:.2} vs {gap_vanilla:.2}"
    );
    assert!(
        gap_vanilla > 2.0,
        "NVM must hurt vanilla GC: {gap_vanilla:.2}"
    );
}

#[test]
fn vanilla_does_not_scale_past_eight_threads_but_all_does() {
    let gc_at = |gc: GcConfig| {
        run_app(&small("page-rank", gc))
            .unwrap()
            .gc
            .total_pause_ns()
    };
    let v8 = gc_at(GcConfig::vanilla(8));
    let v28 = gc_at(GcConfig::vanilla(28));
    let a8 = gc_at(GcConfig::plus_all(8, 0));
    let a28 = gc_at(GcConfig::plus_all(28, 0));
    // Vanilla gains little past 8 threads (paper Fig. 2c/13).
    assert!(
        (v28 as f64) > 0.85 * v8 as f64,
        "vanilla should be bandwidth-walled: {v8} -> {v28}"
    );
    // +all keeps scaling (paper Fig. 13).
    assert!(
        (a28 as f64) < 0.8 * a8 as f64,
        "+all should keep scaling: {a8} -> {a28}"
    );
}

#[test]
fn young_gen_dram_beats_optimizations() {
    let mut ygd = small("sssp", GcConfig::vanilla(28));
    ygd.heap.placement = DevicePlacement::young_dram();
    let ygd = run_app(&ygd).unwrap();
    let all = run_app(&small("sssp", GcConfig::plus_all(28, 0))).unwrap();
    // Paper §5.2: allocating the young gen in DRAM outperforms the
    // NVM-aware GC for most applications (it removes NVM from the young
    // path entirely) — it just costs far more DRAM (Fig. 12).
    assert!(ygd.gc_seconds() < all.gc_seconds());
}

#[test]
fn gc_writes_move_to_dram_with_write_cache() {
    let vanilla = run_app(&small("cc", GcConfig::vanilla(12))).unwrap();
    let cached = run_app(&small("cc", GcConfig::plus_writecache(12, 0))).unwrap();
    let dram = DeviceId::Dram.index();
    assert!(
        cached.mem_stats.write_bytes[dram] > vanilla.mem_stats.write_bytes[dram],
        "cache staging adds DRAM writes"
    );
    // Total NVM write volume stays comparable (everything still ends up
    // on NVM), but it is issued as sequential NT streams instead of
    // scattered stores — observable as shorter pauses.
    assert!(cached.gc.total_pause_ns() <= vanilla.gc.total_pause_ns());
}

#[test]
fn pause_intervals_are_ordered_and_disjoint() {
    let r = run_app(&small("dotty", GcConfig::plus_all(12, 0))).unwrap();
    let mut prev_end = 0;
    for p in &r.pause_spans {
        assert!(p.start_ns >= prev_end, "pauses must not overlap");
        assert!(p.end_ns > p.start_ns, "pauses have positive length");
        prev_end = p.end_ns;
    }
    assert!(prev_end <= r.total_ns);
}

#[test]
fn mem_stats_and_series_are_consistent() {
    let mut cfg = small("als", GcConfig::vanilla(8));
    cfg.sample_series = true;
    let r = run_app(&cfg).unwrap();
    let series_read: u64 = r.nvm_series.iter().map(|b| b.read_bytes).sum();
    let series_write: u64 = r.nvm_series.iter().map(|b| b.write_bytes).sum();
    let nvm = DeviceId::Nvm.index();
    assert_eq!(series_read, r.mem_stats.read_bytes[nvm]);
    assert_eq!(series_write, r.mem_stats.write_bytes[nvm]);
}

#[test]
fn ps_collector_runs_all_renaissance_profiles() {
    for spec in nvmgc_workloads::renaissance_apps() {
        let mut cfg = small(spec.name, GcConfig::ps_plus_all(12, 0));
        cfg.spec.alloc_young_multiple = 2.0;
        cfg.gc.write_cache.max_bytes = cfg.heap_bytes() / 32;
        cfg.gc.header_map.max_bytes = cfg.heap_bytes() / 32;
        run_app(&cfg).unwrap_or_else(|e| panic!("{} failed under PS: {e}", spec.name));
    }
}

#[test]
fn seeds_change_results_but_reruns_do_not() {
    let base = small("gauss-mix", GcConfig::vanilla(4));
    let mut other = base.clone();
    other.seed = base.seed + 1;
    let a1 = run_app(&base).unwrap();
    let a2 = run_app(&base).unwrap();
    let b = run_app(&other).unwrap();
    assert_eq!(a1.total_ns, a2.total_ns, "same seed, same result");
    assert_ne!(a1.total_ns, b.total_ns, "different seed, different run");
}

#[test]
fn unlimited_cache_never_overflows() {
    let mut cfg = small("page-rank", GcConfig::plus_writecache(12, 0));
    cfg.gc.write_cache.max_bytes = u64::MAX;
    let r = run_app(&cfg).unwrap();
    let overflow: u64 = r.cycles.iter().map(|c| c.cache_overflow_copies).sum();
    assert_eq!(overflow, 0);
}

/// Tier-1's one end-to-end crash recovery: a fixed Severe fault plan
/// power-fails a durable-map, durable-allocator run mid-evacuation; the
/// run must recover from the crash image, resume, and finish in exactly
/// the state the same configuration reaches without the fault plan.
#[test]
fn durable_run_recovers_from_a_power_failure_to_the_uncrashed_state() {
    let spec = WorkloadSpec {
        name: "tier1-recovery",
        alloc_young_multiple: 3.0,
        mix: vec![ClassMix {
            num_refs: 2,
            data_bytes: 24,
            weight: 1,
        }],
        survival: 0.4,
        keep_gcs: 1,
        old_link_fraction: 0.1,
        chain_fraction: 0.0,
        cpu_per_alloc_ns: 20.0,
        touches_per_alloc: 1,
        app_threads: 4,
        share_fraction: 0.15,
        old_anchor_bytes: 8 << 10,
    };
    // 12 workers: above the header-map activation threshold.
    let mut clean = AppRunConfig::standard(spec, GcConfig::plus_all(12, 1 << 20));
    clean.heap.region_size = 16 << 10;
    clean.heap.heap_regions = 96;
    clean.heap.young_regions = 32;
    clean.gc.header_map.durable = true;
    clean.gc.allocator.durable = true;
    let mut crashed = clean.clone();
    // Seed 38 crashes two cycles, leaving both records to replay and
    // copies to re-evacuate. (Plans also perturb timing, and with it when
    // collections trigger; this seed leaves the mutator's schedule alone.)
    crashed.gc.fault = FaultPlan::generate(38, Severity::Severe, 40_000_000);

    let r = run_app(&crashed).expect("the crashed run recovers and completes");
    let sum = |f: fn(&GcStats) -> u64| r.cycles.iter().map(f).sum::<u64>();
    // Pinned to what the commit before the one-page durability ledger
    // (PR 17) produced: the ledger decides what a crash keeps, so any
    // drift of its semantics moves one of these.
    assert_eq!(
        (
            r.total_ns,
            &r.final_digest,
            [
                sum(|c| c.recovered_cycles),
                sum(|c| c.replayed_map_entries),
                sum(|c| c.resumed_evacuations),
                sum(|c| c.alloc_fences),
                sum(|c| c.fault_events.discarded_lines),
                sum(|c| c.fault_events.torn_lines),
            ],
        ),
        (
            13_232_633,
            &GraphDigest {
                objects: 2_743,
                bytes: 135_384,
                checksum: 3_065_849_251_087_704_735,
            },
            [2, 2_585, 374, 218, 5_444, 0],
        )
    );
    let base = run_app(&clean).expect("the fault-free run completes");
    assert_eq!(r.final_digest, base.final_digest);
    assert_eq!(r.final_free_regions, base.final_free_regions);
    assert_eq!(r.final_region_kinds, base.final_region_kinds);
}

/// One run's simulated quantities, pinned to the values the commit before
/// the first host-time optimisation (PR 16) produced: a change that only
/// speeds up the simulator must leave every one of them where it is.
/// (`small` sizes a debug run differently, hence two rows.)
#[test]
fn simulated_quantities_of_one_run_are_pinned() {
    let r = run_app(&small("kmeans", GcConfig::plus_all(28, 0))).unwrap();
    let got = (
        r.total_ns,
        r.gc.total_pause_ns(),
        r.final_digest,
        [
            r.mem_stats.llc_hits,
            r.mem_stats.llc_misses,
            r.mem_stats.bus_grants,
        ],
    );
    let digest = |objects, bytes, checksum| GraphDigest {
        objects,
        bytes,
        checksum,
    };
    let pinned = if cfg!(debug_assertions) {
        (
            5_075_859,
            2_545_879,
            digest(12_843, 1_059_400, 9_352_538_071_766_531_809),
            [489_067, 183_396, 408_875],
        )
    } else {
        (
            35_070_633,
            7_828_795,
            digest(24_669, 1_950_968, 316_962_076_717_294_904),
            [5_085_508, 1_810_623, 2_733_322],
        )
    };
    assert_eq!(got, pinned);
}

/// Fig. 8 end to end at small scale: a cassandra-write server under
/// vanilla and `+all`, one client at 60 kqps on the cohort engine over
/// each pause schedule. The optimisations shorten the pauses the requests
/// queue behind, and the p95/p99 (integer ns, histogram bucket bounds) are
/// pinned so a change to the client engine or to `client_spec` shows here.
#[test]
fn cassandra_client_tail_latency_is_pinned_and_improves_under_all() {
    let tail = |gc| {
        let server = run_app(&small_spec(server_spec(CassandraPhase::Write), gc)).unwrap();
        let spec = client_spec(CassandraPhase::Write, 60_000.0);
        let h = run_scenario(&spec, &server.pause_spans, &[], server.total_ns).histogram;
        [h.quantile(0.95), h.quantile(0.99)]
    };
    let (vanilla, all) = (tail(GcConfig::vanilla(28)), tail(GcConfig::plus_all(28, 0)));
    for [p95, p99] in [vanilla, all] {
        assert!(p95 <= p99);
    }
    assert!(
        all[1] < vanilla[1],
        "+all p99 {all:?} vs vanilla {vanilla:?}"
    );
    let pinned = if cfg!(debug_assertions) {
        ([1_998_847, 2_064_383], [1_245_183, 1_376_255])
    } else {
        ([1_835_007, 2_162_687], [1_146_879, 1_474_559])
    };
    assert_eq!((vanilla, all), pinned);
}
