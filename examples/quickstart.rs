//! Quickstart: run one memory-intensive application on simulated NVM under
//! four collector configurations and compare GC behaviour.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nvmgc_core::GcConfig;
use nvmgc_heap::DevicePlacement;
use nvmgc_workloads::{app, run_app, AppRunConfig};

fn main() {
    let spec = app("page-rank");
    println!(
        "workload: {} (avg object {:.0} B)",
        spec.name,
        spec.avg_object_bytes()
    );
    println!();
    println!(
        "{:<18} {:>6} {:>12} {:>12} {:>10} {:>8}",
        "config", "GCs", "GC time", "app time", "GC share", "vs base"
    );

    let mut base_gc = 0.0f64;
    let rows: Vec<(&str, AppRunConfig)> = vec![
        (
            "vanilla (NVM)",
            AppRunConfig::standard(spec.clone(), GcConfig::vanilla(28)),
        ),
        ("+writecache", {
            let mut c = AppRunConfig::standard(spec.clone(), GcConfig::plus_writecache(28, 0));
            c.apply_paper_ratios();
            c
        }),
        ("+all", {
            let mut c = AppRunConfig::standard(spec.clone(), GcConfig::plus_all(28, 0));
            c.apply_paper_ratios();
            c
        }),
        ("vanilla (DRAM)", {
            let mut c = AppRunConfig::standard(spec.clone(), GcConfig::vanilla(28));
            c.heap.placement = DevicePlacement::all_dram();
            c
        }),
    ];

    for (label, cfg) in rows {
        let r = run_app(&cfg).expect("run succeeds");
        let gc_s = r.gc_seconds();
        if base_gc == 0.0 {
            base_gc = gc_s;
        }
        println!(
            "{:<18} {:>6} {:>11.2}ms {:>11.2}ms {:>9.1}% {:>7.2}x",
            label,
            r.gc.cycles(),
            gc_s * 1e3,
            r.total_seconds() * 1e3,
            r.gc_share() * 100.0,
            base_gc / gc_s,
        );
    }
}
