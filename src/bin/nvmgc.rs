//! `nvmgc` — command-line driver for the NVM-GC simulator.
//!
//! ```text
//! nvmgc list                              # the 26 application profiles
//! nvmgc run --app page-rank --config all  # one run, detailed report
//! nvmgc sweep --app kmeans                # all configs side by side
//! nvmgc micro                             # §4.3 prefetch microbenchmark
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): flags are
//! `--key value` pairs after the subcommand.

use nvmgc_core::{gclog, GcConfig};
use nvmgc_heap::DevicePlacement;
use nvmgc_memsim::{mbps, traffic_in};
use nvmgc_workloads::prefetch_micro::{MicroConfig, MicroTable};
use nvmgc_workloads::runner::GcTrigger;
use nvmgc_workloads::{all_apps, app, run_app, AppRunConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "list" => list(),
        "run" => run(&flags),
        "sweep" => sweep(&flags),
        "micro" => micro(&flags),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "nvmgc — NVM-aware copy-based GC simulator (EuroSys '21 reproduction)

USAGE:
  nvmgc list
      List the 26 application profiles.
  nvmgc run --app <name> [--config <cfg>] [--threads <n>] [--placement <p>]
            [--seed <n>] [--mixed <ihop>]
      Run one application and print a detailed GC report.
  nvmgc sweep --app <name> [--threads <n>]
      Compare vanilla / +writecache / +all / dram side by side.
  nvmgc micro [--accesses <n>]
      Run the §4.3 software-prefetch microbenchmark.

FLAGS:
  --config     vanilla | writecache | all | ps-vanilla | ps-all |
               semispace | semispace-all                          (default: all)
  --threads    GC worker threads                                  (default: 28)
  --placement  nvm | dram | young-dram                            (default: nvm)
  --seed       workload seed                                      (default: 0x5EED)
  --mixed      enable adaptive mixed GCs at this old-occupancy fraction
  --log        true → print a HotSpot-style GC log for the run"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(key.to_owned(), args[i + 1].clone());
                i += 2;
                continue;
            }
        }
        eprintln!("ignoring stray argument '{}'", args[i]);
        i += 1;
    }
    flags
}

fn list() -> ExitCode {
    println!(
        "{:<18} {:>8} {:>9} {:>7} {:>9} {:>7}",
        "app", "avg obj", "survival", "keep", "oldlink", "chain"
    );
    for spec in all_apps() {
        println!(
            "{:<18} {:>7.0}B {:>9.2} {:>7} {:>9.2} {:>7.2}",
            spec.name,
            spec.avg_object_bytes(),
            spec.survival,
            spec.keep_gcs,
            spec.old_link_fraction,
            spec.chain_fraction
        );
    }
    ExitCode::SUCCESS
}

fn build_config(flags: &HashMap<String, String>) -> Result<AppRunConfig, String> {
    let name = flags
        .get("app")
        .ok_or_else(|| "--app <name> is required".to_owned())?;
    let threads: usize = flags
        .get("threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads '{v}'")))
        .transpose()?
        .unwrap_or(28);
    let gc = match flags.get("config").map(String::as_str).unwrap_or("all") {
        "vanilla" => GcConfig::vanilla(threads),
        "writecache" => GcConfig::plus_writecache(threads, 0),
        "all" => GcConfig::plus_all(threads, 0),
        "ps-vanilla" => GcConfig::ps_vanilla(threads),
        "ps-all" => GcConfig::ps_plus_all(threads, 0),
        "semispace" => GcConfig::semispace(threads),
        "semispace-all" => GcConfig::semispace_plus_all(threads, 0),
        other => return Err(format!("unknown --config '{other}'")),
    };
    let spec =
        std::panic::catch_unwind(|| app(name)).map_err(|_| format!("unknown app '{name}'"))?;
    let mut cfg = AppRunConfig::standard(spec, gc);
    cfg.apply_paper_ratios();
    match flags.get("placement").map(String::as_str) {
        Some("dram") => cfg.heap.placement = DevicePlacement::all_dram(),
        Some("young-dram") => cfg.heap.placement = DevicePlacement::young_dram(),
        Some("nvm") | None => {}
        Some(other) => return Err(format!("unknown --placement '{other}'")),
    }
    if let Some(seed) = flags.get("seed") {
        cfg.seed = parse_u64(seed).ok_or_else(|| format!("bad --seed '{seed}'"))?;
    }
    if let Some(ihop) = flags.get("mixed") {
        let ihop: f64 = ihop.parse().map_err(|_| format!("bad --mixed '{ihop}'"))?;
        cfg.trigger = GcTrigger::Adaptive { ihop };
    }
    Ok(cfg)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run(flags: &HashMap<String, String>) -> ExitCode {
    let mut cfg = match build_config(flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Detailed reports include in-pause bandwidth, which needs sampling.
    cfg.sample_series = true;
    let r = match run_app(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("app:          {}", r.name);
    println!("total time:   {:>10.2} ms", r.total_seconds() * 1e3);
    println!("mutator time: {:>10.2} ms", r.mutator_seconds() * 1e3);
    println!(
        "GC time:      {:>10.2} ms over {} cycles ({:.1}% of run, {} mixed)",
        r.gc_seconds() * 1e3,
        r.gc.cycles(),
        r.gc_share() * 100.0,
        r.mixed_cycles()
    );
    let copied: u64 = r.cycles.iter().map(|c| c.copied_bytes).sum();
    let promoted: u64 = r.cycles.iter().map(|c| c.promoted_bytes).sum();
    println!(
        "pauses:       max {:.2} ms, copied {:.1} MiB, promoted {:.1} MiB",
        r.gc.max_pause_ns() as f64 / 1e6,
        copied as f64 / (1 << 20) as f64,
        promoted as f64 / (1 << 20) as f64
    );
    let (rd, wr, dur) = traffic_in(&r.nvm_series, r.bin_ns, r.pauses());
    println!(
        "in-GC NVM bw: read {:.0} MB/s, write {:.0} MB/s",
        mbps(rd, dur),
        mbps(wr, dur)
    );
    println!("peak old:     {} regions", r.peak_old_regions);
    let hm_hits: u64 = r.cycles.iter().map(|c| c.hm_hits).sum();
    let overflow: u64 = r.cycles.iter().map(|c| c.cache_overflow_copies).sum();
    let failures: u64 = r.cycles.iter().map(|c| c.evac_failures).sum();
    if hm_hits > 0 || overflow > 0 || failures > 0 {
        println!("details:      header-map hits {hm_hits}, cache overflows {overflow}, evac failures {failures}");
    }
    if flags.get("log").map(String::as_str) == Some("true") {
        println!();
        print!("{}", gclog::render(&r.cycles, &r.pause_spans));
    }
    ExitCode::SUCCESS
}

fn sweep(flags: &HashMap<String, String>) -> ExitCode {
    let mut flags = flags.clone();
    println!(
        "{:<12} {:>10} {:>10} {:>9} {:>8}",
        "config", "gc (ms)", "app (ms)", "gc share", "vs base"
    );
    let mut base = 0.0f64;
    for (label, config, placement) in [
        ("vanilla", "vanilla", "nvm"),
        ("+writecache", "writecache", "nvm"),
        ("+all", "all", "nvm"),
        ("young-dram", "vanilla", "young-dram"),
        ("dram", "vanilla", "dram"),
    ] {
        flags.insert("config".to_owned(), config.to_owned());
        flags.insert("placement".to_owned(), placement.to_owned());
        let cfg = match build_config(&flags) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match run_app(&cfg) {
            Ok(r) => {
                let gc_ms = r.gc_seconds() * 1e3;
                if base == 0.0 {
                    base = gc_ms;
                }
                println!(
                    "{:<12} {:>10.2} {:>10.2} {:>8.1}% {:>7.2}x",
                    label,
                    gc_ms,
                    r.total_seconds() * 1e3,
                    r.gc_share() * 100.0,
                    base / gc_ms
                );
            }
            Err(e) => eprintln!("{label}: failed: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn micro(flags: &HashMap<String, String>) -> ExitCode {
    let accesses = flags
        .get("accesses")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let cfg = MicroConfig {
        accesses,
        ..MicroConfig::default()
    };
    let t = MicroTable::run(&cfg);
    println!("accesses: {accesses}");
    println!(
        "DRAM: {:.2} ms → {:.2} ms with prefetch ({:.2}x)",
        t.dram_nopf as f64 / 1e6,
        t.dram_pf as f64 / 1e6,
        t.dram_speedup()
    );
    println!(
        "NVM:  {:.2} ms → {:.2} ms with prefetch ({:.2}x)",
        t.nvm_nopf as f64 / 1e6,
        t.nvm_pf as f64 / 1e6,
        t.nvm_speedup()
    );
    ExitCode::SUCCESS
}
