//! Design-choice ablations: one harness per decision the paper argues for.

use crate::driver::{Driver, Gate};
use crate::{sized_config, PAPER_THREADS, THREAD_SWEEP};
use nvmgc_core::{GcConfig, Traversal};
use nvmgc_memsim::DeviceParams;
use nvmgc_workloads::runner::GcTrigger;
use nvmgc_workloads::{app, AppRunConfig};
use serde::Serialize;

/// The ablations' common base cell: page-rank under `+all` at `threads`.
fn page_rank_all(threads: usize) -> AppRunConfig {
    sized_config(app("page-rank"), GcConfig::plus_all(threads, 0))
}

/// Ablation — header-map probe bound (`SEARCH_BOUND` in Algorithm 1).
///
/// A small bound keeps worst-case probe cost low but overflows to NVM
/// headers sooner as the map fills; a large bound buys hit rate with
/// DRAM probe traffic. The paper fixes a constant bound; this sweep
/// shows the trade-off that motivates it.
pub(super) fn abl_headermap_probe(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        bound: u32,
        gc_ms: f64,
        hm_full_per_cycle: f64,
        hm_hit_rate: f64,
    }
    let bounds = [1u32, 2, 4, 8, 16, 32, 64];
    let cells = bounds
        .iter()
        .map(|&bound| {
            let mut cfg = page_rank_all(PAPER_THREADS);
            cfg.gc.header_map.search_bound = bound;
            // A deliberately tight map so the bound matters.
            cfg.gc.header_map.max_bytes = cfg.heap_bytes() / 128;
            (format!("bound={bound}"), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| {
        let cycles = r.cycles.len().max(1) as f64;
        let full: u64 = r.cycles.iter().map(|c| c.hm_full).sum();
        let hits: u64 = r.cycles.iter().map(|c| c.hm_hits).sum();
        let lookups: u64 = r
            .cycles
            .iter()
            .map(|c| c.hm_hits + c.hm_installs + c.hm_full)
            .sum();
        Row {
            bound: bounds[i],
            gc_ms: r.gc_seconds() * 1e3,
            hm_full_per_cycle: full as f64 / cycles,
            hm_hit_rate: hits as f64 / lookups.max(1) as f64,
        }
    });
    d.table(
        &rows,
        &[
            ("bound", |r| r.bound.to_string()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("overflows/GC", |r| format!("{:.0}", r.hm_full_per_cycle)),
            ("map hit rate", |r| format!("{:.1}%", r.hm_hit_rate * 100.0)),
        ],
    );
    let overflow_1 = rows[0].hm_full_per_cycle;
    let overflow_64 = rows.last().expect("rows nonempty").hm_full_per_cycle;
    println!(
        "overflows drop with the bound ({overflow_1:.0} → {overflow_64:.0} per GC); the middle of the sweep balances probe cost vs hit rate"
    );
    d.report(
        "page-rank, +all, map at 1/128 of heap to stress bounding",
        rows,
    );
    Ok(())
}

/// Ablation — the header-map activation threshold.
///
/// Paper §3.3: "the header map is only enabled when the number of GC
/// threads exceeds a threshold (8 by default)" — with few threads the
/// read bandwidth is unsaturated and the map's extra DRAM lookups cost
/// more than the NVM writes they save. This sweep runs the map forced ON
/// and forced OFF across thread counts to expose the crossover.
pub(super) fn abl_headermap_threshold(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        threads: usize,
        map_on_ms: f64,
        map_off_ms: f64,
        map_helps: bool,
    }
    let mut cells = Vec::new();
    for t in THREAD_SWEEP {
        for map_on in [true, false] {
            let mut cfg = page_rank_all(t);
            // Force the threshold out of the way.
            cfg.gc.header_map.min_threads = if map_on { 0 } else { usize::MAX };
            cells.push((format!("t={t} map_on={map_on}"), cfg));
        }
    }
    let gc_ms = d.run(cells, |_, r| r.gc_seconds() * 1e3);
    let rows: Vec<Row> = THREAD_SWEEP
        .iter()
        .zip(gc_ms.chunks_exact(2))
        .map(|(&threads, ms)| Row {
            threads,
            map_on_ms: ms[0],
            map_off_ms: ms[1],
            map_helps: ms[0] < ms[1],
        })
        .collect();
    d.table(
        &rows,
        &[
            ("threads", |r| r.threads.to_string()),
            ("map on (ms)", |r| format!("{:.1}", r.map_on_ms)),
            ("map off (ms)", |r| format!("{:.1}", r.map_off_ms)),
            ("helps?", |r| {
                if r.map_helps { "yes" } else { "no" }.to_owned()
            }),
        ],
    );
    let crossover = rows
        .iter()
        .find(|r| r.map_helps)
        .map(|r| r.threads.to_string())
        .unwrap_or_else(|| "none".to_owned());
    println!(
        "map starts helping at {crossover} threads (paper: beyond 8) — below that, probe traffic outweighs the saved NVM header writes"
    );
    d.report("page-rank; map forced on/off across thread counts", rows);
    Ok(())
}

/// Ablation — global vs per-thread header maps.
///
/// Paper §3.3 argues for a single global map: with per-thread maps, a GC
/// thread checking whether an object was already copied may have to probe
/// *every* other thread's table (any thread can copy any object). This
/// harness models the per-thread alternative analytically on top of the
/// measured workload: each negative lookup costs `threads ×` probes, each
/// positive lookup `threads/2 ×` on average, and compares the induced
/// DRAM probe traffic against the global map's measured probes.
pub(super) fn abl_headermap_sharding(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        threads: usize,
        global_probe_ops: f64,
        sharded_probe_ops: f64,
        inflation: f64,
    }
    let threads = [12usize, 20, 28, 56];
    let cells = threads
        .iter()
        .map(|&t| (format!("t={t}"), page_rank_all(t)))
        .collect();
    let rows = d.run(cells, |i, r| {
        let t = threads[i];
        let cycles = r.cycles.len().max(1) as f64;
        // Lookup census from the measured run.
        let hits: u64 = r.cycles.iter().map(|c| c.hm_hits).sum();
        let installs: u64 = r.cycles.iter().map(|c| c.hm_installs + c.hm_full).sum();
        // Global map: one probe sequence per lookup.
        let global = (hits + installs) as f64 / cycles;
        // Per-thread maps: a hit is found after scanning half the tables
        // on average; a miss (first copy) scans all of them.
        let sharded = (hits as f64 * (t as f64 / 2.0) + installs as f64 * t as f64) / cycles;
        Row {
            threads: t,
            global_probe_ops: global,
            sharded_probe_ops: sharded,
            inflation: sharded / global.max(1e-9),
        }
    });
    d.table(
        &rows,
        &[
            ("threads", |r| r.threads.to_string()),
            ("global probes/GC", |r| format!("{:.0}", r.global_probe_ops)),
            ("per-thread probes/GC", |r| {
                format!("{:.0}", r.sharded_probe_ops)
            }),
            ("inflation", |r| format!("{:.1}x", r.inflation)),
        ],
    );
    println!(
        "per-thread maps multiply probe traffic by ~threads/2..threads — the paper's reason for a single global lock-free table"
    );
    d.report(
        format!("lookup census from page-rank runs at up to {PAPER_THREADS}+ threads"),
        rows,
    );
    Ok(())
}

/// Ablation — asynchronous-flush granularity.
///
/// Paper §4.2: "It is possible to track references and flush objects in a
/// finer granularity (e.g., 4KB pages), but it requires tracking more
/// units and induces larger maintenance overhead." This sweep varies the
/// flush chunk size (the unit streamed per scheduling step) and, through
/// a smaller region size, the tracking granularity itself.
pub(super) fn abl_flush_granularity(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        label: String,
        region_kib: u32,
        chunk_kib: u32,
        gc_ms: f64,
        async_flushed_per_gc: f64,
        peak_cache_kib: u64,
    }
    // (region KiB, chunk KiB): the region is the tracking unit, the chunk
    // the streaming unit. 4 KiB regions approximate page-level tracking.
    let units = [(64u32, 64u32), (64, 16), (16, 16), (4, 4)];
    let label = |&(region_kib, chunk_kib): &(u32, u32)| {
        format!("{region_kib}KiB regions / {chunk_kib}KiB chunks")
    };
    let cells = units
        .iter()
        .map(|unit @ &(region_kib, chunk_kib)| {
            let mut cfg = page_rank_all(PAPER_THREADS);
            cfg.gc.write_cache.async_flush = true;
            cfg.gc.flush_chunk_bytes = chunk_kib << 10;
            // Shrink regions while keeping the same heap/young byte sizes.
            let factor = 64 / region_kib;
            cfg.heap.region_size = region_kib << 10;
            cfg.heap.heap_regions *= factor;
            cfg.heap.young_regions *= factor;
            (label(unit), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| {
        let cycles = r.cycles.len().max(1) as f64;
        let flushed: u64 = r.cycles.iter().map(|c| c.async_flushed).sum();
        let peak = r.cycles.iter().map(|c| c.cache_peak_bytes).max();
        Row {
            label: label(&units[i]),
            region_kib: units[i].0,
            chunk_kib: units[i].1,
            gc_ms: r.gc_seconds() * 1e3,
            async_flushed_per_gc: flushed as f64 / cycles,
            peak_cache_kib: peak.unwrap_or(0) >> 10,
        }
    });
    d.table(
        &rows,
        &[
            ("granularity", |r| r.label.clone()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("async flushes/GC", |r| {
                format!("{:.0}", r.async_flushed_per_gc)
            }),
            ("peak cache (KiB)", |r| r.peak_cache_kib.to_string()),
        ],
    );
    println!(
        "finer tracking units flush earlier (smaller peak DRAM) but add per-unit overhead — the paper's region granularity is the compromise"
    );
    d.report(
        "page-rank, +all+async; region size doubles as tracking unit",
        rows,
    );
    Ok(())
}

/// Ablation — non-temporal vs regular stores for write-back (§4.1/§4.2).
///
/// The paper reports NT stores as what makes asynchronous flushing viable
/// (prior work found async data movement with regular stores
/// counterproductive). This harness runs the write cache in all four
/// combinations of {sync, async} × {NT, regular stores}.
pub(super) fn abl_ntstore(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        config: String,
        gc_ms: f64,
        writeback_share: f64,
    }
    let variants = [
        (true, false, "sync + nt-store"),
        (false, false, "sync + regular"),
        (true, true, "async + nt-store"),
        (false, true, "async + regular"),
    ];
    let cells = variants
        .iter()
        .map(|&(nt, asyncf, label)| {
            let mut cfg = page_rank_all(PAPER_THREADS);
            cfg.gc.write_cache.nt_store = nt;
            cfg.gc.write_cache.async_flush = asyncf;
            (label.to_owned(), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| {
        let wb: u64 = r.cycles.iter().map(|c| c.phases.writeback_ns).sum();
        Row {
            config: variants[i].2.to_owned(),
            gc_ms: r.gc_seconds() * 1e3,
            writeback_share: wb as f64 / r.gc.total_pause_ns().max(1) as f64,
        }
    });
    d.table(
        &rows,
        &[
            ("config", |r| r.config.clone()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("write-back share", |r| {
                format!("{:.1}%", r.writeback_share * 100.0)
            }),
        ],
    );
    let get = |label: &str| rows.iter().find(|r| r.config == label).expect("row").gc_ms;
    println!(
        "NT stores save {:.1}% in sync mode and {:.1}% in async mode (paper: NT stores are what make async flushing pay off)",
        (get("sync + regular") / get("sync + nt-store") - 1.0) * 100.0,
        (get("async + regular") / get("async + nt-store") - 1.0) * 100.0,
    );
    d.report("page-rank, +all base, write-back store type toggled", rows);
    Ok(())
}

/// Ablation — DFS vs BFS heap traversal (§4.3).
///
/// BFS makes the reference-processing order deterministic (good for
/// prefetch timeliness) but, as the paper notes citing Moon's classic
/// result, it scatters related objects and hurts locality. The paper
/// therefore keeps G1's DFS with prefetch-on-push. This harness runs
/// both orders, with and without prefetching.
pub(super) fn abl_bfs_traversal(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        order: String,
        prefetch: bool,
        gc_ms: f64,
        prefetch_useful_rate: f64,
    }
    let variants = [
        (Traversal::Dfs, "dfs", true),
        (Traversal::Dfs, "dfs", false),
        (Traversal::Bfs, "bfs", true),
        (Traversal::Bfs, "bfs", false),
    ];
    let cells = variants
        .iter()
        .map(|&(order, label, prefetch)| {
            let mut cfg = page_rank_all(PAPER_THREADS);
            cfg.gc.traversal = order;
            cfg.gc.prefetch = prefetch;
            (format!("order={label} prefetch={prefetch}"), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| Row {
        order: variants[i].1.to_owned(),
        prefetch: variants[i].2,
        gc_ms: r.gc_seconds() * 1e3,
        prefetch_useful_rate: r.mem_stats.prefetch_useful as f64
            / r.mem_stats.prefetch_issued.max(1) as f64,
    });
    d.table(
        &rows,
        &[
            ("order", |r| r.order.clone()),
            ("prefetch", |r| r.prefetch.to_string()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("useful prefetches", |r| {
                format!("{:.0}%", r.prefetch_useful_rate * 100.0)
            }),
        ],
    );
    let get = |o: &str, p: bool| {
        rows.iter()
            .find(|r| r.order == o && r.prefetch == p)
            .expect("row")
            .gc_ms
    };
    println!(
        "prefetch gain: DFS {:+.1}%, BFS {:+.1}%; DFS+prefetch vs BFS+prefetch: {:+.1}%",
        (get("dfs", false) / get("dfs", true) - 1.0) * 100.0,
        (get("bfs", false) / get("bfs", true) - 1.0) * 100.0,
        (get("bfs", true) / get("dfs", true) - 1.0) * 100.0,
    );
    println!(
        "(paper keeps DFS: BFS's deterministic prefetch distance does not repay its locality loss)"
    );
    d.report("page-rank, +all base", rows);
    Ok(())
}

/// Ablation — precise remembered sets vs a card table.
///
/// HotSpot's PS uses a card table (cheap blind-store barrier, scan cost
/// at collection time); G1 uses finer-grained remembered sets (heavier
/// barrier bookkeeping, direct slot access at collection time). This
/// reproduction defaults to precise remsets for both collectors; this
/// harness quantifies the trade-off on a remset-heavy workload across
/// old-link pressures.
pub(super) fn abl_cardtable(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        old_link_fraction: f64,
        precise_gc_ms: f64,
        cardtable_gc_ms: f64,
        precise_app_ms: f64,
        cardtable_app_ms: f64,
    }
    let old_links = [0.02f64, 0.1, 0.2, 0.35];
    let mut cells = Vec::new();
    for old_link in old_links {
        for card_table in [false, true] {
            let mut spec = app("cc");
            spec.old_link_fraction = old_link;
            spec.chain_fraction = 0.0;
            let mut cfg = sized_config(spec, GcConfig::ps_vanilla(PAPER_THREADS));
            cfg.heap.card_table = card_table;
            cells.push((format!("old_link={old_link} cards={card_table}"), cfg));
        }
    }
    let ms = d.run(cells, |_, r| {
        (r.gc_seconds() * 1e3, r.total_seconds() * 1e3)
    });
    let rows: Vec<Row> = old_links
        .iter()
        .zip(ms.chunks_exact(2))
        .map(|(&old_link_fraction, ms)| Row {
            old_link_fraction,
            precise_gc_ms: ms[0].0,
            cardtable_gc_ms: ms[1].0,
            precise_app_ms: ms[0].1,
            cardtable_app_ms: ms[1].1,
        })
        .collect();
    d.table(
        &rows,
        &[
            ("old-link", |r| format!("{:.2}", r.old_link_fraction)),
            ("precise gc(ms)", |r| format!("{:.1}", r.precise_gc_ms)),
            ("cards gc(ms)", |r| format!("{:.1}", r.cardtable_gc_ms)),
            ("precise app(ms)", |r| format!("{:.1}", r.precise_app_ms)),
            ("cards app(ms)", |r| format!("{:.1}", r.cardtable_app_ms)),
        ],
    );
    println!(
        "card scanning costs grow with old-space pointer churn (whole-region walks), \
         while the precise remset pays per recorded slot — the classic trade-off \
         behind G1's remembered sets."
    );
    d.report("cc profile, PS collector, old-link fraction swept", rows);
    Ok(())
}

/// Ablation — mixed collections (paper §2.1).
///
/// The paper's evaluation is young-GC dominated ("mixed GC happens much
/// more rarely than the young GC"), so the figure harnesses run young
/// collections only. This harness enables the G1-like adaptive trigger
/// (mixed collections once old occupancy crosses the IHOP threshold) on a
/// promotion-heavy workload and shows what mixed GCs buy: a bounded old
/// generation at the price of occasional longer pauses, with the
/// NVM-aware optimizations applying to the mixed evacuations too.
pub(super) fn abl_mixed_gc(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        config: String,
        trigger: String,
        gc_ms: f64,
        mixed_cycles: usize,
        peak_old_regions: usize,
        final_old_regions_estimate: usize,
        max_pause_ms: f64,
    }
    // A promotion-heavy variant: survivors live long enough to tenure.
    let mut spec = app("scala-stm-bench7");
    spec.keep_gcs = 4; // beyond the tenure age → heavy promotion
    spec.alloc_young_multiple = 16.0;

    // All four cells share one warm group: the trigger policy only
    // matters once collections start, so it is not part of the warm key,
    // and both configs run the same thread count. One warmup, four forks.
    let mut variants = Vec::new();
    for (gc_label, gc) in [
        ("vanilla", GcConfig::vanilla(PAPER_THREADS)),
        ("+all", GcConfig::plus_all(PAPER_THREADS, 0)),
    ] {
        for (t_label, trigger) in [
            ("young-only", GcTrigger::YoungOnly),
            ("adaptive", GcTrigger::Adaptive { ihop: 0.25 }),
        ] {
            variants.push((gc_label, gc.clone(), t_label, trigger));
        }
    }
    let cells = variants
        .iter()
        .map(|(gc_label, gc, t_label, trigger)| {
            let mut cfg = sized_config(spec.clone(), gc.clone());
            cfg.trigger = *trigger;
            (format!("config={gc_label} trigger={t_label}"), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| Row {
        config: variants[i].0.to_owned(),
        trigger: variants[i].2.to_owned(),
        gc_ms: r.gc_seconds() * 1e3,
        mixed_cycles: r.mixed_cycles(),
        peak_old_regions: r.peak_old_regions,
        final_old_regions_estimate: r.peak_old_regions,
        max_pause_ms: r.gc.max_pause_ns() as f64 / 1e6,
    });
    d.table(
        &rows,
        &[
            ("config", |r| r.config.clone()),
            ("trigger", |r| r.trigger.clone()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("mixed GCs", |r| r.mixed_cycles.to_string()),
            ("peak old (regions)", |r| r.peak_old_regions.to_string()),
            ("max pause (ms)", |r| format!("{:.2}", r.max_pause_ms)),
        ],
    );
    let find = |c: &str, t: &str| {
        rows.iter()
            .find(|r| r.config == c && r.trigger == t)
            .expect("row")
    };
    let yo = find("+all", "young-only");
    let ad = find("+all", "adaptive");
    println!(
        "adaptive trigger ran {} mixed GCs and cut the peak old footprint {} → {} regions \
         (max pause {:.2} → {:.2} ms)",
        ad.mixed_cycles, yo.peak_old_regions, ad.peak_old_regions, yo.max_pause_ms, ad.max_pause_ms
    );
    d.report("promotion-heavy scala-stm-bench7 variant; IHOP 0.25", rows);
    Ok(())
}

/// Ablation — why the paper binds to one NUMA socket (§5.1).
///
/// "Since cross-NUMA NVM accesses will induce prohibitive overhead, all
/// experiments are bound to run on a single CPU with the numactl
/// command." This harness swaps the local-Optane parameters for the
/// remote-socket set (UPI-limited bandwidth, higher latency) and measures
/// the damage.
pub(super) fn abl_numa(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        config: String,
        socket: String,
        gc_ms: f64,
        app_ms: f64,
    }
    let mut variants = Vec::new();
    for (gc_label, gc) in [
        ("vanilla", GcConfig::vanilla(PAPER_THREADS)),
        ("+all", GcConfig::plus_all(PAPER_THREADS, 0)),
    ] {
        for (socket, params) in [
            ("local", DeviceParams::optane()),
            ("remote", DeviceParams::optane_remote()),
        ] {
            variants.push((gc_label, gc.clone(), socket, params));
        }
    }
    let cells = variants
        .iter()
        .map(|(gc_label, gc, socket, params)| {
            let mut cfg = sized_config(app("page-rank"), gc.clone());
            cfg.mem.nvm = params.clone();
            (format!("config={gc_label} socket={socket}"), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| Row {
        config: variants[i].0.to_owned(),
        socket: variants[i].2.to_owned(),
        gc_ms: r.gc_seconds() * 1e3,
        app_ms: r.total_seconds() * 1e3,
    });
    d.table(
        &rows,
        &[
            ("config", |r| r.config.clone()),
            ("NVM socket", |r| r.socket.clone()),
            ("gc (ms)", |r| format!("{:.1}", r.gc_ms)),
            ("total (ms)", |r| format!("{:.1}", r.app_ms)),
        ],
    );
    let find = |c: &str, s: &str| {
        rows.iter()
            .find(|r| r.config == c && r.socket == s)
            .expect("row")
    };
    println!(
        "remote-socket NVM inflates vanilla GC {:.2}x and whole-run {:.2}x — the paper's reason for numactl binding",
        find("vanilla", "remote").gc_ms / find("vanilla", "local").gc_ms,
        find("vanilla", "remote").app_ms / find("vanilla", "local").app_ms,
    );
    d.report("page-rank; remote parameters = UPI-limited Optane", rows);
    Ok(())
}
