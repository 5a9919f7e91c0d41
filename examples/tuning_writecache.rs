//! Tuning the DRAM budget: write-cache size, header-map size and
//! asynchronous flushing (paper §5.5, Figs. 10–11).
//!
//! The whole point of the paper's design is spending a *little* DRAM
//! well. This example sweeps the two DRAM structures on page-rank (the
//! application that profits most from extra cache) and shows the
//! DRAM-footprint/GC-time trade-off, including async flushing's early
//! reclamation.
//!
//! ```sh
//! cargo run --release --example tuning_writecache
//! ```

use nvmgc_core::GcConfig;
use nvmgc_workloads::{app, run_app, AppRunConfig, AppRunResult};

fn run(mutate: impl Fn(&mut AppRunConfig)) -> AppRunResult {
    let mut cfg = AppRunConfig::standard(app("page-rank"), GcConfig::plus_all(28, 0));
    cfg.apply_paper_ratios();
    mutate(&mut cfg);
    run_app(&cfg).expect("run succeeds")
}

fn main() {
    println!("== page-rank: DRAM budget vs GC time ==\n");

    println!("write-cache size sweep (header map fixed at heap/32):");
    println!(
        "{:>12} {:>10} {:>14} {:>14}",
        "cache", "gc (ms)", "peak DRAM(KiB)", "overflow copies"
    );
    let heap_bytes = AppRunConfig::standard(app("page-rank"), GcConfig::vanilla(1)).heap_bytes();
    for (label, bytes) in [
        ("heap/128", heap_bytes / 128),
        ("heap/32", heap_bytes / 32),
        ("heap/8", heap_bytes / 8),
        ("unlimited", u64::MAX),
    ] {
        let r = run(|c| c.gc.write_cache.max_bytes = bytes);
        let peak = r
            .cycles
            .iter()
            .map(|c| c.cache_peak_bytes)
            .max()
            .unwrap_or(0);
        let overflow: u64 = r.cycles.iter().map(|c| c.cache_overflow_copies).sum();
        println!(
            "{:>12} {:>10.1} {:>14} {:>14}",
            label,
            r.gc_seconds() * 1e3,
            peak >> 10,
            overflow
        );
    }

    println!("\nheader-map size sweep (cache fixed at heap/32):");
    println!("{:>12} {:>10} {:>14}", "map", "gc (ms)", "NVM fallbacks");
    for (label, bytes) in [
        ("heap/512", heap_bytes / 512),
        ("heap/128", heap_bytes / 128),
        ("heap/32", heap_bytes / 32),
        ("heap/8", heap_bytes / 8),
    ] {
        let r = run(|c| c.gc.header_map.max_bytes = bytes);
        let full: u64 = r.cycles.iter().map(|c| c.hm_full).sum();
        println!("{:>12} {:>10.1} {:>14}", label, r.gc_seconds() * 1e3, full);
    }

    println!("\nasynchronous flushing (cache at heap/32):");
    println!(
        "{:>12} {:>10} {:>14} {:>12}",
        "mode", "gc (ms)", "peak DRAM(KiB)", "async/GC"
    );
    for (label, asyncf) in [("sync", false), ("async", true)] {
        let r = run(|c| c.gc.write_cache.async_flush = asyncf);
        let peak = r
            .cycles
            .iter()
            .map(|c| c.cache_peak_bytes)
            .max()
            .unwrap_or(0);
        let cycles = r.cycles.len().max(1) as f64;
        let flushed: u64 = r.cycles.iter().map(|c| c.async_flushed).sum();
        println!(
            "{:>12} {:>10.1} {:>14} {:>12.1}",
            label,
            r.gc_seconds() * 1e3,
            peak >> 10,
            flushed as f64 / cycles
        );
    }
    println!(
        "\nPaper: the 1/32 defaults suffice for most apps (Fig. 11); page-rank/kmeans \
         keep gaining with more cache; async flushing costs ~6.9% while reclaiming DRAM early."
    );
}
