//! Spark-like page-rank under the NVM-aware collector: a deep dive into
//! what the optimizations do to a single GC-heavy application.
//!
//! Prints per-cycle pause breakdowns (read-mostly scan vs write-only
//! write-back vs header-map cleanup), write-cache and header-map
//! statistics, and the in-GC NVM bandwidth — the observable effects the
//! paper's §3 design aims for.
//!
//! ```sh
//! cargo run --release --example spark_pagerank
//! ```

use nvmgc_core::GcConfig;
use nvmgc_memsim::{mbps, traffic_in};
use nvmgc_workloads::{app, run_app, AppRunConfig};

fn main() {
    let threads = 28;
    let spec = app("page-rank");
    println!("== page-rank on simulated NVM, {threads} GC threads ==\n");

    for (label, gc) in [
        ("vanilla", GcConfig::vanilla(threads)),
        ("+all", GcConfig::plus_all(threads, 0)),
    ] {
        let mut cfg = AppRunConfig::standard(spec.clone(), gc);
        cfg.apply_paper_ratios();
        cfg.sample_series = true;
        let r = run_app(&cfg).expect("run succeeds");

        println!("--- {label} ---");
        println!(
            "total {:.1} ms, GC {:.1} ms over {} cycles ({:.1}% of run)",
            r.total_seconds() * 1e3,
            r.gc_seconds() * 1e3,
            r.gc.cycles(),
            r.gc_share() * 100.0
        );
        let (rd, wr, dur) = traffic_in(&r.nvm_series, r.bin_ns, r.pauses());
        println!(
            "in-GC NVM bandwidth: read {:.0} MB/s, write {:.0} MB/s",
            mbps(rd, dur),
            mbps(wr, dur)
        );
        // Per-cycle detail for the first few collections.
        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>9} {:>10} {:>8}",
            "gc#", "scan", "writeback", "clear", "copiedKB", "hm hits", "steals"
        );
        for (i, cyc) in r.cycles.iter().take(6).enumerate() {
            println!(
                "{:>5} {:>9.2}m {:>9.2}m {:>9.2}m {:>9} {:>10} {:>8}",
                i,
                cyc.phases.scan_ns as f64 / 1e6,
                cyc.phases.writeback_ns as f64 / 1e6,
                cyc.phases.clear_ns as f64 / 1e6,
                cyc.copied_bytes / 1024,
                cyc.hm_hits,
                cyc.steals
            );
        }
        let overflow: u64 = r.cycles.iter().map(|c| c.cache_overflow_copies).sum();
        let hm_full: u64 = r.cycles.iter().map(|c| c.hm_full).sum();
        if label == "+all" {
            println!(
                "write-cache overflow copies: {overflow} (budget-bound, paper §3.2); \
                 header-map overflows to NVM: {hm_full} (bounded probing, Algorithm 1)"
            );
        }
        println!();
    }
    println!(
        "Expected shape (paper Fig. 5/7): +all shortens pauses by moving survivor \
         copies and forwarding pointers to DRAM, then streaming them back with \
         non-temporal stores in a separate write-only sub-phase."
    );
}
