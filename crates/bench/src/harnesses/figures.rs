//! The paper's figures and the §4.3 table.

use super::app_grid;
use crate::driver::{Driver, Gate};
use crate::{
    fast_mode, fig01_report, maybe_trim, run_fig01_grid, sized_config, PAPER_THREADS, THREAD_SWEEP,
};
use nvmgc_core::{GcConfig, PauseSpan};
use nvmgc_heap::DevicePlacement;
use nvmgc_memsim::{mbps, traffic_in, Ns};
use nvmgc_metrics::cost::{dram_cost, nvm_cost};
use nvmgc_metrics::{gc_improvement_per_dollar, geomean, mean, BandwidthSeries};
use nvmgc_workloads::cassandra::{client_spec, server_spec, CassandraPhase};
use nvmgc_workloads::prefetch_micro::{MicroConfig, MicroTable};
use nvmgc_workloads::{all_apps, app, renaissance_apps, run_scenario, spark_apps, AppRunConfig};
use serde::Serialize;

/// Whether `app` is one of the Spark applications the paper reports apart.
fn is_spark(app: &str) -> bool {
    spark_apps().iter().any(|s| s.name == app)
}

/// The heap devices of the bandwidth-timeline figures, in cell order.
const DEVICES: [&str; 2] = ["dram", "nvm"];

/// One sampled run of `name` under vanilla G1 at the paper's thread
/// count per device of [`DEVICES`].
fn device_cells(name: &str) -> Vec<(String, AppRunConfig)> {
    let placements = [DevicePlacement::all_dram(), DevicePlacement::all_nvm()];
    let cell = |(label, placement)| {
        let mut cfg = sized_config(app(name), GcConfig::vanilla(PAPER_THREADS));
        cfg.heap.placement = placement;
        cfg.sample_series = true;
        (format!("app={name} heap={label}"), cfg)
    };
    DEVICES.iter().zip(placements).map(cell).collect()
}

/// Figure 1 — application and GC time when replacing DRAM with NVM.
///
/// Six applications (als, kmeans, log-regression, movie-lens, page-rank,
/// scala-stm-bench7) run under vanilla G1 with the whole heap on DRAM and
/// then on NVM. The paper reports GC pause time inflating 2.02×–8.25×
/// (avg 6.53×) while non-GC application time inflates far less (avg
/// 2.68×, some apps near 1×).
///
/// Roster, per-app computation, and report assembly live in
/// [`crate::grids`], shared with the golden-digest regression test.
pub(super) fn fig01_dram_vs_nvm(d: &mut Driver) -> Gate {
    let rows = d.absorb(run_fig01_grid(fast_mode()));
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("dram app(ms)", |r| format!("{:.1}", r.dram_app_ms)),
            ("dram gc(ms)", |r| format!("{:.1}", r.dram_gc_ms)),
            ("nvm app(ms)", |r| format!("{:.1}", r.nvm_app_ms)),
            ("nvm gc(ms)", |r| format!("{:.1}", r.nvm_gc_ms)),
            ("gc x", |r| format!("{:.2}", r.gc_slowdown)),
            ("app x", |r| format!("{:.2}", r.app_slowdown)),
            ("nvm gc%", |r| format!("{:.1}%", r.nvm_gc_share * 100.0)),
        ],
    );
    let gc_slowdowns: Vec<f64> = rows.iter().map(|r| r.gc_slowdown).collect();
    let app_slowdowns: Vec<f64> = rows.iter().map(|r| r.app_slowdown).collect();
    println!(
        "GC slowdown DRAM→NVM: avg {:.2}x (paper: 6.53x avg, 2.02–8.25x range)",
        geomean(&gc_slowdowns)
    );
    println!(
        "non-GC app slowdown:  avg {:.2}x (paper: 2.68x avg)",
        geomean(&app_slowdowns)
    );
    d.write(&fig01_report(rows));
    Ok(())
}

/// Figure 2a/2b — read/write/total bandwidth timeline for page-rank on
/// DRAM vs NVM, with GC intervals marked.
///
/// The paper's key observation: on DRAM, total bandwidth *rises* during
/// GC (copying adds write bandwidth on top of reads); on NVM, total
/// bandwidth *collapses* during GC because writes destroy the effective
/// device bandwidth.
pub(super) fn fig02_bandwidth_timeline(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Timeline {
        device: String,
        bin_ms: f64,
        read_mbps: Vec<f64>,
        write_mbps: Vec<f64>,
        gc_intervals_ms: Vec<(f64, f64)>,
        mean_gc_total_mbps: f64,
        mean_mutator_total_mbps: f64,
    }
    let timelines = d.run(device_cells("page-rank"), |i, r| {
        // The heap device carries the interesting traffic.
        let series = [&r.dram_series, &r.nvm_series][i];
        let bw = BandwidthSeries::from_bins(series, r.bin_ns);
        let mut gc_bins = vec![false; bw.len()];
        for p in &r.pause_spans {
            let first = (p.start_ns / r.bin_ns) as usize;
            let last = ((p.end_ns.saturating_sub(1)) / r.bin_ns) as usize;
            for b in gc_bins.iter_mut().take(last + 1).skip(first) {
                *b = true;
            }
        }
        let totals = bw.total();
        let in_phase = |gc: bool| -> Vec<f64> {
            let of_phase = totals.iter().zip(&gc_bins).filter(|(_, &g)| g == gc);
            of_phase.map(|(t, _)| *t).collect()
        };
        Timeline {
            device: DEVICES[i].to_owned(),
            bin_ms: bw.bin_ms,
            gc_intervals_ms: r
                .pause_spans
                .iter()
                .map(|p| (p.start_ns as f64 / 1e6, p.end_ns as f64 / 1e6))
                .collect(),
            mean_gc_total_mbps: mean(&in_phase(true)),
            mean_mutator_total_mbps: mean(&in_phase(false)),
            read_mbps: bw.read,
            write_mbps: bw.write,
        }
    });
    for t in &timelines {
        println!("--- page-rank on {} (bin {:.1} ms) ---", t.device, t.bin_ms);
        println!(
            "mean total bandwidth: GC {:.0} MB/s vs mutator {:.0} MB/s ({})",
            t.mean_gc_total_mbps,
            t.mean_mutator_total_mbps,
            if t.mean_gc_total_mbps > t.mean_mutator_total_mbps {
                "GC raises total bandwidth"
            } else {
                "GC collapses total bandwidth"
            }
        );
        // Compact sparkline-style printout (first 60 bins).
        let n = t.read_mbps.len().min(60);
        println!(
            "{:>6}  {:>10} {:>10} {:>10}  gc",
            "ms", "read", "write", "total"
        );
        for i in 0..n {
            let gc = t
                .gc_intervals_ms
                .iter()
                .any(|&(s, e)| (i as f64 + 0.5) * t.bin_ms >= s && (i as f64 + 0.5) * t.bin_ms < e);
            println!(
                "{:>6.1}  {:>10.0} {:>10.0} {:>10.0}  {}",
                i as f64 * t.bin_ms,
                t.read_mbps[i],
                t.write_mbps[i],
                t.read_mbps[i] + t.write_mbps[i],
                if gc { "|GC|" } else { "" }
            );
        }
        println!();
    }
    let (dram, nvm) = (&timelines[0], &timelines[1]);
    println!(
        "shape check: DRAM GC/mutator bandwidth ratio {:.2} (paper: >1), NVM ratio {:.2} (paper: <1)",
        dram.mean_gc_total_mbps / dram.mean_mutator_total_mbps.max(1e-9),
        nvm.mean_gc_total_mbps / nvm.mean_mutator_total_mbps.max(1e-9),
    );
    d.report(
        format!("page-rank, vanilla G1, {PAPER_THREADS} threads"),
        timelines,
    );
    Ok(())
}

/// Figure 2c/2d — consumed bandwidth and GC time vs number of GC threads,
/// NVM vs DRAM (page-rank, vanilla G1).
///
/// On NVM, bandwidth barely changes past 8 threads and GC time stops
/// improving; on DRAM, both keep scaling.
pub(super) fn fig02_scalability(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        device: String,
        threads: usize,
        gc_ms: f64,
        gc_bandwidth_mbps: f64,
    }
    let threads = maybe_trim(THREAD_SWEEP.to_vec(), 3);
    let mut points = Vec::new();
    for (placement, label) in [
        (DevicePlacement::all_nvm(), "nvm"),
        (DevicePlacement::all_dram(), "dram"),
    ] {
        points.extend(threads.iter().map(|&t| (placement, label, t)));
    }
    let cells = points
        .iter()
        .map(|&(placement, label, t)| {
            let mut cfg = sized_config(app("page-rank"), GcConfig::vanilla(t));
            cfg.heap.placement = placement;
            cfg.sample_series = true;
            (format!("heap={label} t={t}"), cfg)
        })
        .collect();
    let rows = d.run(cells, |i, r| {
        let (_, label, t) = points[i];
        // The run's traffic all lands on its heap device. The two sums
        // differ in the last bit; each device keeps the one its committed
        // rows were produced with.
        let dev_bw = if label == "dram" {
            let (rd, wr, dur) = traffic_in(&r.dram_series, r.bin_ns, r.pauses());
            mbps(rd + wr, dur)
        } else {
            let (rd, wr, dur) = traffic_in(&r.nvm_series, r.bin_ns, r.pauses());
            mbps(rd, dur) + mbps(wr, dur)
        };
        Row {
            device: label.to_owned(),
            threads: t,
            gc_ms: r.gc_seconds() * 1e3,
            gc_bandwidth_mbps: dev_bw,
        }
    });
    d.table(
        &rows,
        &[
            ("device", |r| r.device.clone()),
            ("threads", |r| r.threads.to_string()),
            ("gc(ms)", |r| format!("{:.1}", r.gc_ms)),
            ("gc bw (MB/s)", |r| format!("{:.0}", r.gc_bandwidth_mbps)),
        ],
    );
    // Shape checks against the paper.
    let bw_at = |dev: &str, t: usize| {
        rows.iter()
            .find(|r| r.device == dev && r.threads == t)
            .map(|r| r.gc_bandwidth_mbps)
            .unwrap_or(0.0)
    };
    if threads.contains(&8) && threads.contains(&56) {
        println!(
            "NVM bandwidth 8→56 threads: {:.0} → {:.0} MB/s (paper: barely changes)",
            bw_at("nvm", 8),
            bw_at("nvm", 56)
        );
        println!(
            "DRAM bandwidth 8→56 threads: {:.0} → {:.0} MB/s (paper: keeps growing)",
            bw_at("dram", 8),
            bw_at("dram", 56)
        );
    }
    d.report("page-rank, vanilla G1, thread sweep", rows);
    Ok(())
}

/// Figure 3 — bandwidth timeline for als on DRAM vs NVM.
///
/// als is the contrast case to page-rank: its GC-phase bandwidth demand
/// exceeds its application-phase demand even on NVM (the application does
/// not saturate the device), so — unlike page-rank — the application time
/// is barely hurt by NVM (§2.3).
pub(super) fn fig03_als_bandwidth(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Timeline {
        device: String,
        bin_ms: f64,
        read_mbps: Vec<f64>,
        write_mbps: Vec<f64>,
        gc_total_mbps: f64,
        mutator_total_mbps: f64,
    }
    let out = d.run(device_cells("als"), |i, r| {
        let label = DEVICES[i];
        let series = [&r.dram_series, &r.nvm_series][i];
        let (gc_r, gc_w) = {
            let (rd, wr, dur) = traffic_in(series, r.bin_ns, r.pauses());
            (mbps(rd, dur), mbps(wr, dur))
        };
        let (mu_r, mu_w) = if label == "nvm" {
            let (rd, wr, dur) = traffic_in(series, r.bin_ns, r.mutator_phases());
            (mbps(rd, dur), mbps(wr, dur))
        } else {
            let (tr, tw) = series
                .iter()
                .fold((0, 0), |(r, w), b| (r + b.read_bytes, w + b.write_bytes));
            let gc_ns = r.gc.total_pause_ns();
            let mu_ns = r.total_ns.saturating_sub(gc_ns).max(1);
            // Mutator-phase traffic = total − in-GC traffic (setup's
            // traffic included, which `mutator_phases()` leaves out; the
            // committed DRAM row is this estimate).
            let gc_bytes_r = gc_r / 1000.0 * gc_ns as f64;
            let gc_bytes_w = gc_w / 1000.0 * gc_ns as f64;
            (
                (tr as f64 - gc_bytes_r).max(0.0) / mu_ns as f64 * 1000.0,
                (tw as f64 - gc_bytes_w).max(0.0) / mu_ns as f64 * 1000.0,
            )
        };
        let bw = BandwidthSeries::from_bins(series, r.bin_ns);
        Timeline {
            device: label.to_owned(),
            bin_ms: bw.bin_ms,
            read_mbps: bw.read,
            write_mbps: bw.write,
            gc_total_mbps: gc_r + gc_w,
            mutator_total_mbps: mu_r + mu_w,
        }
    });
    for t in &out {
        println!(
            "als on {:>4}: GC-phase total {:.0} MB/s, mutator-phase total {:.0} MB/s",
            t.device, t.gc_total_mbps, t.mutator_total_mbps
        );
    }
    let nvm = &out[1];
    println!();
    println!(
        "shape check (paper §2.3): als GC bandwidth {} mutator bandwidth on NVM ({:.0} vs {:.0} MB/s)",
        if nvm.gc_total_mbps > nvm.mutator_total_mbps {
            "exceeds"
        } else {
            "does NOT exceed"
        },
        nvm.gc_total_mbps,
        nvm.mutator_total_mbps
    );
    d.report(format!("als, vanilla G1, {PAPER_THREADS} threads"), out);
    Ok(())
}

/// §4.3 table — the software-prefetch microbenchmark.
///
/// Random read-modify-write over a large array, DRAM/NVM × with/without
/// prefetching. The paper (40 M accesses) reports:
///
/// | Configuration    | Result (s) |
/// |------------------|-----------:|
/// | DRAM-noprefetch  | 1.513      |
/// | DRAM-prefetch    | 0.958      |
/// | NVM-noprefetch   | 4.171      |
/// | NVM-prefetch     | 1.369      |
///
/// i.e. 1.58× speedup on DRAM and 3.05× on NVM. This harness runs a
/// scaled access count; the speedup ratios are the reproduced shape.
pub(super) fn tab43_prefetch_micro(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Out {
        accesses: u64,
        dram_noprefetch_ms: f64,
        dram_prefetch_ms: f64,
        nvm_noprefetch_ms: f64,
        nvm_prefetch_ms: f64,
        dram_speedup: f64,
        nvm_speedup: f64,
    }
    fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }
    let cfg = MicroConfig {
        accesses: if fast_mode() { 200_000 } else { 4_000_000 },
        ..MicroConfig::default()
    };
    let t = MicroTable::run(&cfg);
    d.table(
        &[
            ("DRAM-noprefetch", t.dram_nopf, "1.513"),
            ("DRAM-prefetch", t.dram_pf, "0.958"),
            ("NVM-noprefetch", t.nvm_nopf, "4.171"),
            ("NVM-prefetch", t.nvm_pf, "1.369"),
        ],
        &[
            ("configuration", |r| r.0.to_owned()),
            ("result (ms)", |r| format!("{:.2}", ms(r.1))),
            ("paper (s)", |r| r.2.to_owned()),
        ],
    );
    println!(
        "prefetch speedup: DRAM {:.2}x (paper 1.58x), NVM {:.2}x (paper 3.05x)",
        t.dram_speedup(),
        t.nvm_speedup()
    );
    d.report(
        format!("{} accesses (paper: 40M)", cfg.accesses),
        Out {
            accesses: cfg.accesses,
            dram_noprefetch_ms: ms(t.dram_nopf),
            dram_prefetch_ms: ms(t.dram_pf),
            nvm_noprefetch_ms: ms(t.nvm_nopf),
            nvm_prefetch_ms: ms(t.nvm_pf),
            dram_speedup: t.dram_speedup(),
            nvm_speedup: t.nvm_speedup(),
        },
    );
    Ok(())
}

/// Figure 5 — GC time across 26 applications under five configurations:
/// `+all`, `+writecache`, `vanilla`, `vanilla-dram`, `young-gen-dram`.
///
/// Paper headlines reproduced here (§5.2): 23/26 applications improve;
/// average speedup 1.69× (up to 2.69×); write cache alone averages 1.17×
/// (up to 2.08×); the DRAM:NVM GC gap shrinks from 4.21× to 2.28×;
/// young-gen-dram beats the optimizations for most applications.
pub(super) fn fig05_gc_time(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        all_ms: f64,
        writecache_ms: f64,
        vanilla_ms: f64,
        vanilla_dram_ms: f64,
        young_gen_dram_ms: f64,
    }
    let apps = maybe_trim(all_apps(), 4);
    // One cell per (app, config) grid point. The three all-NVM variants
    // of an app share their warmup prefix (same spec/heap/mem/seed) and
    // fork from one snapshot; the DRAM and young-DRAM placements warm
    // separately (placement is part of the warm key via the heap
    // configuration).
    let nvm = DevicePlacement::all_nvm();
    let placements = [
        nvm,
        nvm,
        nvm,
        DevicePlacement::all_dram(),
        DevicePlacement::young_dram(),
    ];
    let variants = [
        GcConfig::plus_all(PAPER_THREADS, 0),
        GcConfig::plus_writecache(PAPER_THREADS, 0),
        GcConfig::vanilla(PAPER_THREADS),
        GcConfig::vanilla(PAPER_THREADS),
        GcConfig::vanilla(PAPER_THREADS),
    ];
    let cells = app_grid(&apps, &variants, |vi, cfg| {
        cfg.heap.placement = placements[vi]
    });
    let gc_ms = d.run(cells, |_, r| r.gc_seconds() * 1e3);
    let rows: Vec<Row> = apps
        .iter()
        .zip(gc_ms.chunks_exact(variants.len()))
        .map(|(spec, ms)| Row {
            app: spec.name.to_owned(),
            all_ms: ms[0],
            writecache_ms: ms[1],
            vanilla_ms: ms[2],
            vanilla_dram_ms: ms[3],
            young_gen_dram_ms: ms[4],
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("+all", |r| format!("{:.1}", r.all_ms)),
            ("+writecache", |r| format!("{:.1}", r.writecache_ms)),
            ("vanilla", |r| format!("{:.1}", r.vanilla_ms)),
            ("vanilla-dram", |r| format!("{:.1}", r.vanilla_dram_ms)),
            ("young-dram", |r| format!("{:.1}", r.young_gen_dram_ms)),
            ("speedup(+all)", |r| {
                format!("{:.2}x", r.vanilla_ms / r.all_ms.max(1e-9))
            }),
        ],
    );

    // §5.2 aggregate statistics.
    let speedup_all: Vec<f64> = rows.iter().map(|r| r.vanilla_ms / r.all_ms).collect();
    let speedup_wc: Vec<f64> = rows
        .iter()
        .map(|r| r.vanilla_ms / r.writecache_ms)
        .collect();
    let gap_vanilla: Vec<f64> = rows
        .iter()
        .map(|r| r.vanilla_ms / r.vanilla_dram_ms)
        .collect();
    let gap_opt: Vec<f64> = rows.iter().map(|r| r.all_ms / r.vanilla_dram_ms).collect();
    let improved = speedup_all.iter().filter(|&&s| s > 1.02).count();
    let max_all = speedup_all.iter().cloned().fold(0.0f64, f64::max);
    let max_wc = speedup_wc.iter().cloned().fold(0.0f64, f64::max);
    println!("improved apps: {}/{} (paper: 23/26)", improved, rows.len());
    println!(
        "+all speedup: avg {:.2}x, max {:.2}x (paper: 1.69x avg, 2.69x max)",
        geomean(&speedup_all),
        max_all
    );
    println!(
        "+writecache speedup: avg {:.2}x, max {:.2}x (paper: 1.17x avg, 2.08x max)",
        geomean(&speedup_wc),
        max_wc
    );
    println!(
        "DRAM:NVM GC gap: vanilla {:.2}x → optimized {:.2}x (paper: 4.21x → 2.28x)",
        geomean(&gap_vanilla),
        geomean(&gap_opt)
    );
    let ygd_wins = rows
        .iter()
        .filter(|r| r.young_gen_dram_ms < r.all_ms)
        .count();
    println!(
        "young-gen-dram beats +all on {}/{} apps (paper: most)",
        ygd_wins,
        rows.len()
    );
    d.report(format!("{PAPER_THREADS} GC threads, scaled heaps"), &rows);

    /// One row of `results/fig05_plan_axis.json`: the Figure 5 measurement
    /// repeated along the plan axis. The G1 columns are the main grid's (the
    /// runs are deterministic, so re-running them would reproduce the same
    /// numbers byte-for-byte); the PS and semispace columns come from a
    /// second grid run as a separate sweep, leaving `fig05_gc_time.json`
    /// untouched.
    #[derive(Serialize)]
    struct PlanRow {
        app: String,
        g1_vanilla_ms: f64,
        g1_all_ms: f64,
        ps_vanilla_ms: f64,
        ps_all_ms: f64,
        semispace_vanilla_ms: f64,
        semispace_all_ms: f64,
    }
    // The plan axis: every Figure 5 application under the PS and
    // semispace plans (vanilla and `+all`, all-NVM), reported next to the
    // main grid's G1 columns. The semispace rows quantify what the
    // regional machinery itself buys atop NVM — the baseline the paper's
    // collectors are implicitly compared against.
    let plan_variants = [
        GcConfig::ps_vanilla(PAPER_THREADS),
        GcConfig::ps_plus_all(PAPER_THREADS, 0),
        GcConfig::semispace(PAPER_THREADS),
        GcConfig::semispace_plus_all(PAPER_THREADS, 0),
    ];
    let cells = app_grid(&apps, &plan_variants, |_, cfg| cfg.heap.placement = nvm);
    let gc_ms = d.run(cells, |_, r| r.gc_seconds() * 1e3);
    let plan_rows: Vec<PlanRow> = rows
        .iter()
        .zip(gc_ms.chunks_exact(plan_variants.len()))
        .map(|(g1, ms)| PlanRow {
            app: g1.app.clone(),
            g1_vanilla_ms: g1.vanilla_ms,
            g1_all_ms: g1.all_ms,
            ps_vanilla_ms: ms[0],
            ps_all_ms: ms[1],
            semispace_vanilla_ms: ms[2],
            semispace_all_ms: ms[3],
        })
        .collect();
    d.table(
        &plan_rows,
        &[
            ("app", |r| r.app.clone()),
            ("g1", |r| format!("{:.1}", r.g1_vanilla_ms)),
            ("g1+all", |r| format!("{:.1}", r.g1_all_ms)),
            ("ps", |r| format!("{:.1}", r.ps_vanilla_ms)),
            ("ps+all", |r| format!("{:.1}", r.ps_all_ms)),
            ("semispace", |r| format!("{:.1}", r.semispace_vanilla_ms)),
            ("ss+all", |r| format!("{:.1}", r.semispace_all_ms)),
            ("g1/ss", |r| {
                format!("{:.2}x", r.semispace_vanilla_ms / r.g1_vanilla_ms.max(1e-9))
            }),
        ],
    );
    let regional_wins = plan_rows
        .iter()
        .filter(|r| r.g1_vanilla_ms < r.semispace_vanilla_ms)
        .count();
    println!(
        "regional machinery (g1 vs semispace, vanilla) wins on {}/{} apps",
        regional_wins,
        plan_rows.len()
    );
    d.report(
        format!("{PAPER_THREADS} GC threads, scaled heaps; G1 columns from the main grid"),
        plan_rows,
    );
    Ok(())
}

/// Figure 6 — average NVM bandwidth during GC, G1-Opt vs G1-Vanilla,
/// across all 26 applications at 56 GC threads.
///
/// The paper reports the optimizations raising in-GC NVM bandwidth by
/// 55 % on average, with Spark applications gaining more (69.3 %) than
/// Renaissance ones.
pub(super) fn fig06_gc_bandwidth(d: &mut Driver) -> Gate {
    /// The paper saturates the device with 56 GC threads for this figure.
    const THREADS: usize = 56;
    #[derive(Serialize)]
    struct Row {
        app: String,
        opt_mbps: f64,
        vanilla_mbps: f64,
        improvement: f64,
    }
    let apps = maybe_trim(all_apps(), 4);
    let variants = [GcConfig::plus_all(THREADS, 0), GcConfig::vanilla(THREADS)];
    let cells = app_grid(&apps, &variants, |_, cfg| cfg.sample_series = true);
    let bw = d.run(cells, |_, r| {
        let (rd, wr, dur) = traffic_in(&r.nvm_series, r.bin_ns, r.pauses());
        mbps(rd, dur) + mbps(wr, dur)
    });
    let rows: Vec<Row> = apps
        .iter()
        .zip(bw.chunks_exact(2))
        .map(|(spec, bw)| Row {
            app: spec.name.to_owned(),
            opt_mbps: bw[0],
            vanilla_mbps: bw[1],
            improvement: bw[0] / bw[1],
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("G1-Opt (MB/s)", |r| format!("{:.0}", r.opt_mbps)),
            ("G1-Vanilla (MB/s)", |r| format!("{:.0}", r.vanilla_mbps)),
            ("gain", |r| {
                format!("{:+.1}%", (r.opt_mbps / r.vanilla_mbps - 1.0) * 100.0)
            }),
        ],
    );
    let gains: Vec<f64> = rows.iter().map(|r| r.improvement).collect();
    println!(
        "average in-GC NVM bandwidth gain: {:+.1}% (paper: +55.0%)",
        (geomean(&gains) - 1.0) * 100.0
    );
    let spark_gains: Vec<f64> = rows
        .iter()
        .filter(|r| is_spark(&r.app))
        .map(|r| r.improvement)
        .collect();
    if !spark_gains.is_empty() {
        println!(
            "Spark-only gain: {:+.1}% (paper: +69.3%)",
            (geomean(&spark_gains) - 1.0) * 100.0
        );
    }
    d.report(format!("{THREADS} GC threads"), rows);
    Ok(())
}

/// Figure 7 — split read/write NVM bandwidth during GC for three
/// contrasting applications, optimized vs vanilla.
///
/// - **page-rank**: with optimizations, scan-phase writes drop toward
///   zero (absorbed by the write cache), reads rise, and the write-only
///   sub-phase shows a write spike near the NT-store peak;
/// - **naive-bayes**: primitive-array heavy — large sequential reads and
///   a relatively long write-back sub-phase;
/// - **akka-uct**: load-imbalanced (serial chain) — bandwidth stays
///   moderate even when optimized.
pub(super) fn fig07_split_bandwidth(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct GcWindow {
        app: String,
        config: String,
        /// Mean NVM read/write bandwidth during the scan (read-mostly) part
        /// of pauses, MB/s.
        scan_read_mbps: f64,
        scan_write_mbps: f64,
        /// Mean NVM read/write bandwidth during the write-back part, MB/s.
        writeback_read_mbps: f64,
        writeback_write_mbps: f64,
        /// Peak per-bin NVM write bandwidth inside pauses, MB/s.
        peak_write_mbps: f64,
        /// Longest pause, ms (timeline span in the paper's plots).
        max_pause_ms: f64,
    }
    let mut points = Vec::new();
    for name in ["page-rank", "naive-bayes", "akka-uct"] {
        for (gc, label, unbounded) in [
            (GcConfig::plus_all(PAPER_THREADS, 0), "optimized", false),
            (GcConfig::plus_all(PAPER_THREADS, 0), "opt-unbounded", true),
            (GcConfig::vanilla(PAPER_THREADS), "vanilla", false),
        ] {
            let mut cfg = sized_config(app(name), gc);
            if unbounded {
                // With the cache bound lifted no copy overflows to NVM, so
                // the read-mostly sub-phase is visibly read-mostly (the
                // paper's page-rank benefits the same way, Fig. 11).
                cfg.gc.write_cache.max_bytes = u64::MAX;
            }
            cfg.sample_series = true;
            points.push((name, label, cfg));
        }
    }
    let cells = points
        .iter()
        .map(|(name, label, cfg)| (format!("app={name} config={label}"), cfg.clone()))
        .collect();
    let out = d.run(cells, |i, r| {
        // Partition each pause into scan and write-back using per-cycle
        // phase times, then accumulate bin traffic per part.
        let pauses = || r.pause_spans.iter().zip(&r.cycles);
        let scan_end = |p: &PauseSpan, scan_ns: Ns| (p.start_ns + scan_ns).min(p.end_ns);
        let scan = pauses().map(|(p, c)| (p.start_ns, scan_end(p, c.phases.scan_ns)));
        let writeback = pauses().map(|(p, c)| (scan_end(p, c.phases.scan_ns), p.end_ns));
        let scan = traffic_in(&r.nvm_series, r.bin_ns, scan);
        let wb = traffic_in(&r.nvm_series, r.bin_ns, writeback);
        let mut peak_write = 0.0f64;
        for p in &r.pause_spans {
            let first = (p.start_ns / r.bin_ns) as usize;
            let last = ((p.end_ns - 1) / r.bin_ns) as usize;
            for b in r.nvm_series.iter().take(last + 1).skip(first) {
                peak_write = peak_write.max(b.write_mbps(r.bin_ns));
            }
        }
        GcWindow {
            app: points[i].0.to_owned(),
            config: points[i].1.to_owned(),
            scan_read_mbps: mbps(scan.0, scan.2),
            scan_write_mbps: mbps(scan.1, scan.2),
            writeback_read_mbps: mbps(wb.0, wb.2),
            writeback_write_mbps: mbps(wb.1, wb.2),
            peak_write_mbps: peak_write,
            max_pause_ms: r.gc.max_pause_ns() as f64 / 1e6,
        }
    });
    for w in &out {
        println!(
            "{:<12} {:<10} scan r/w {:>6.0}/{:<6.0} MB/s   writeback r/w {:>6.0}/{:<6.0} MB/s   peak write {:>6.0} MB/s",
            w.app, w.config, w.scan_read_mbps, w.scan_write_mbps,
            w.writeback_read_mbps, w.writeback_write_mbps, w.peak_write_mbps
        );
    }
    println!();
    // Shape checks. Pauses compress under the optimizations, so compare
    // the write *share* of scan-phase traffic rather than absolute MB/s.
    let get = |a: &str, c: &str| out.iter().find(|w| w.app == a && w.config == c).unwrap();
    let share = |w: &GcWindow| w.scan_write_mbps / (w.scan_read_mbps + w.scan_write_mbps).max(1e-9);
    let pr_opt = get("page-rank", "optimized");
    let pr_unb = get("page-rank", "opt-unbounded");
    let pr_van = get("page-rank", "vanilla");
    println!(
        "page-rank scan-phase write share: vanilla {:.0}% → opt {:.0}% → opt-unbounded {:.0}% (paper: the cache absorbs survivor writes)",
        share(pr_van) * 100.0,
        share(pr_opt) * 100.0,
        share(pr_unb) * 100.0
    );
    println!(
        "page-rank peak write: opt {:.0} vs vanilla {:.0} MB/s (paper: opt write-back spikes to NT peak)",
        pr_opt.peak_write_mbps, pr_van.peak_write_mbps
    );
    let nb_opt = get("naive-bayes", "optimized");
    println!(
        "naive-bayes optimized scan read {:.0} MB/s (paper: largest reads of the three apps)",
        nb_opt.scan_read_mbps
    );
    let au_opt = get("akka-uct", "optimized");
    println!(
        "akka-uct optimized total scan bandwidth {:.0} MB/s (paper: stays moderate — load imbalance)",
        au_opt.scan_read_mbps + au_opt.scan_write_mbps
    );
    d.report(format!("{PAPER_THREADS} GC threads"), out);
    Ok(())
}

/// Figure 8 — Cassandra p95/p99 tail latency vs offered throughput,
/// optimized vs vanilla G1, for a write phase and a read phase.
///
/// The paper's best case (130 kqps): p95/p99 read latency improves
/// 5.09×/4.88×; writes improve 2.74×/2.54×. The mechanism is pause
/// shortening: requests no longer queue behind long STW pauses.
pub(super) fn fig08_tail_latency(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        phase: String,
        config: String,
        throughput_kqps: f64,
        p95_ms: f64,
        p99_ms: f64,
    }
    /// One row of the plan-axis companion sweep (`fig08_plan_axis.json`):
    /// the same client run with the collector plan as an extra axis.
    #[derive(Serialize)]
    struct PlanRow {
        phase: String,
        plan: String,
        config: String,
        throughput_kqps: f64,
        p95_ms: f64,
        p99_ms: f64,
        gc_cycles: usize,
        max_pause_ms: f64,
    }
    let throughputs = maybe_trim(vec![10_000.0, 30_000.0, 60_000.0, 100_000.0, 130_000.0], 2);
    let phases = [
        (CassandraPhase::Write, "write"),
        (CassandraPhase::Read, "read"),
    ];
    // One server run per (phase, config); the client at every throughput
    // runs on the cohort engine in the cell's measure, on the pool, as
    // `(offered rps, p95 ms, p99 ms)`. The server runs of one phase share
    // their warmup (same Cassandra spec and heap) and fork from one
    // snapshot.
    let mut serve = |configs: &[(&'static str, GcConfig)]| {
        let (mut cells, mut points) = (Vec::new(), Vec::new());
        for (phase, phase_name) in phases {
            for (label, gc) in configs {
                let cfg = sized_config(server_spec(phase), gc.clone());
                cells.push((format!("phase={phase:?} config={label}"), cfg));
                points.push((phase_name, *label, phase));
            }
        }
        let servers = d.run(cells, |i, server| {
            let client = |&tput: &f64| {
                let spec = client_spec(points[i].2, tput);
                let h = run_scenario(&spec, &server.pause_spans, &[], server.total_ns).histogram;
                let ms = |q| h.quantile(q) as f64 / 1e6;
                (tput, ms(0.95), ms(0.99))
            };
            let latencies: Vec<_> = throughputs.iter().map(client).collect();
            let max_pause_ms = server.gc.max_pause_ns() as f64 / 1e6;
            (latencies, server.gc.cycles(), max_pause_ms)
        });
        points.into_iter().zip(servers).collect::<Vec<_>>()
    };

    let mut rows = Vec::new();
    let configs = [
        ("opt", GcConfig::plus_all(PAPER_THREADS, 0)),
        ("vanilla", GcConfig::vanilla(PAPER_THREADS)),
    ];
    for ((phase, config, _), (latencies, ..)) in serve(&configs) {
        rows.extend(latencies.iter().map(|&(rps, p95_ms, p99_ms)| Row {
            phase: phase.to_owned(),
            config: config.to_owned(),
            throughput_kqps: rps / 1e3,
            p95_ms,
            p99_ms,
        }));
    }
    // Plan axis (ROADMAP: thread the plan axis through fig08): the same
    // client run with the collector plan as an extra dimension,
    // at each plan's vanilla and +all presets. A separate grid and a
    // separate result file so the rows above stay byte-stable; within a
    // phase all six configurations fork from one server warmup.
    let mut plan_rows = Vec::new();
    let plan_configs = [
        ("g1/vanilla", GcConfig::vanilla(PAPER_THREADS)),
        ("g1/+all", GcConfig::plus_all(PAPER_THREADS, 0)),
        ("ps/vanilla", GcConfig::ps_vanilla(PAPER_THREADS)),
        ("ps/+all", GcConfig::ps_plus_all(PAPER_THREADS, 0)),
        ("semispace/vanilla", GcConfig::semispace(PAPER_THREADS)),
        (
            "semispace/+all",
            GcConfig::semispace_plus_all(PAPER_THREADS, 0),
        ),
    ];
    for ((phase, config, _), (latencies, gc_cycles, max_pause_ms)) in serve(&plan_configs) {
        plan_rows.extend(latencies.iter().map(|&(rps, p95_ms, p99_ms)| PlanRow {
            phase: phase.to_owned(),
            plan: config.split('/').next().unwrap_or(config).to_owned(),
            config: config.to_owned(),
            throughput_kqps: rps / 1e3,
            p95_ms,
            p99_ms,
            gc_cycles,
            max_pause_ms,
        }));
    }

    d.table(
        &rows,
        &[
            ("phase", |r| r.phase.clone()),
            ("config", |r| r.config.clone()),
            ("kqps", |r| format!("{:.0}", r.throughput_kqps)),
            ("p95 (ms)", |r| format!("{:.2}", r.p95_ms)),
            ("p99 (ms)", |r| format!("{:.2}", r.p99_ms)),
        ],
    );
    // Improvement at the highest throughput.
    let top = rows
        .iter()
        .map(|r| r.throughput_kqps)
        .fold(0.0f64, f64::max);
    for phase in ["read", "write"] {
        let find = |config: &str, pct: fn(&Row) -> f64| {
            rows.iter()
                .find(|r| r.phase == phase && r.config == config && r.throughput_kqps == top)
                .map(pct)
                .unwrap_or(0.0)
        };
        let p95x = find("vanilla", |r| r.p95_ms) / find("opt", |r| r.p95_ms).max(1e-9);
        let p99x = find("vanilla", |r| r.p99_ms) / find("opt", |r| r.p99_ms).max(1e-9);
        let paper = if phase == "read" {
            "5.09x / 4.88x"
        } else {
            "2.74x / 2.54x"
        };
        println!(
            "{phase}: p95 {:.2}x, p99 {:.2}x better at {top:.0} kqps (paper: {paper})",
            p95x, p99x
        );
    }
    d.report(
        "one open-loop client on the cohort engine over simulated pause schedules; \
         p95/p99 are histogram bucket bounds",
        rows,
    );
    d.table(
        &plan_rows,
        &[
            ("phase", |r| r.phase.clone()),
            ("config", |r| r.config.clone()),
            ("kqps", |r| format!("{:.0}", r.throughput_kqps)),
            ("p95 (ms)", |r| format!("{:.2}", r.p95_ms)),
            ("p99 (ms)", |r| format!("{:.2}", r.p99_ms)),
            ("cycles", |r| r.gc_cycles.to_string()),
            ("max pause (ms)", |r| format!("{:.2}", r.max_pause_ms)),
        ],
    );
    d.report(
        "tail latency per collector plan (g1/ps/semispace), vanilla vs +all",
        plan_rows,
    );
    Ok(())
}

/// Figure 9 — application completion time, G1-Opt vs G1-Vanilla.
///
/// Renaissance applications mostly change little (GC is a small share of
/// their time); GC-intensive ones (e.g. scala-stm-bench7) improve; all
/// four Spark applications improve, 3.2 % (cc) to 6.9 % (sssp).
pub(super) fn fig09_app_time(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        opt_ms: f64,
        vanilla_ms: f64,
        improvement_pct: f64,
    }
    let apps = maybe_trim(all_apps(), 4);
    let variants = [
        GcConfig::plus_all(PAPER_THREADS, 0),
        GcConfig::vanilla(PAPER_THREADS),
    ];
    let cells = app_grid(&apps, &variants, |_, _| {});
    let total_ms = d.run(cells, |_, r| r.total_seconds() * 1e3);
    let rows: Vec<Row> = apps
        .iter()
        .zip(total_ms.chunks_exact(2))
        .map(|(spec, ms)| Row {
            app: spec.name.to_owned(),
            opt_ms: ms[0],
            vanilla_ms: ms[1],
            improvement_pct: (1.0 - ms[0] / ms[1]) * 100.0,
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("G1-Opt (ms)", |r| format!("{:.1}", r.opt_ms)),
            ("G1-Vanilla (ms)", |r| format!("{:.1}", r.vanilla_ms)),
            ("gain", |r| format!("{:+.1}%", r.improvement_pct)),
        ],
    );
    let spark_rows: Vec<&Row> = rows.iter().filter(|r| is_spark(&r.app)).collect();
    if !spark_rows.is_empty() {
        let lo = spark_rows
            .iter()
            .map(|r| r.improvement_pct)
            .fold(f64::INFINITY, f64::min);
        let hi = spark_rows
            .iter()
            .map(|r| r.improvement_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "Spark completion-time gains: {lo:.1}%..{hi:.1}% (paper: 3.2%..6.9%), all positive: {}",
            spark_rows.iter().all(|r| r.improvement_pct > 0.0)
        );
    }
    d.report(format!("{PAPER_THREADS} GC threads"), rows);
    Ok(())
}

/// Figure 10 — GC time as the header-map budget varies.
///
/// The paper sweeps 512 MB / 1 GB / 2 GB maps against a 16 GB Renaissance
/// heap (1/32, 1/16 and 1/8 of the heap); scaled here proportionally.
/// Renaissance apps gain little past the smallest size (3.3 % average);
/// Spark apps keep gaining (21.1 %) and fill the largest map nearly to
/// 100 % occupancy.
pub(super) fn fig10_headermap_size(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        /// GC time per map-size label, ms.
        gc_ms: Vec<f64>,
        /// Peak map occupancy (entries used / capacity) per size.
        occupancy: Vec<f64>,
    }
    // Heap fractions matching the paper's 512M/1G/2G on 16 GB.
    let divisors = [32u64, 16, 8];
    let apps = maybe_trim(all_apps(), 4);
    let variants = divisors.map(|_| GcConfig::plus_all(PAPER_THREADS, 0));
    let cells = app_grid(&apps, &variants, |vi, cfg| {
        if is_spark(cfg.spec.name) {
            // The paper's Spark runs use a young:heap ratio of 1:4
            // (64 GB of 256 GB), which is what makes their header maps
            // fill up; mirror that geometry so map pressure scales the
            // same way.
            cfg.heap.young_regions = cfg.heap.heap_regions / 3;
        }
        cfg.gc.header_map.max_bytes = cfg.heap_bytes() / divisors[vi];
    });
    let capacity = |cfg: &AppRunConfig| (cfg.gc.header_map.max_bytes / 16).next_power_of_two() / 2;
    let caps: Vec<u64> = cells.iter().map(|(_, cfg)| capacity(cfg)).collect();
    let measured = d.run(cells, |i, r| {
        let peak_occ = r
            .cycles
            .iter()
            .map(|c| c.hm_occupancy as f64 / caps[i].max(1) as f64)
            .fold(0.0f64, f64::max);
        (r.gc_seconds() * 1e3, peak_occ)
    });
    let rows: Vec<Row> = apps
        .iter()
        .zip(measured.chunks_exact(divisors.len()))
        .map(|(spec, sizes)| Row {
            app: spec.name.to_owned(),
            gc_ms: sizes.iter().map(|s| s.0).collect(),
            occupancy: sizes.iter().map(|s| s.1).collect(),
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("512M~", |r| format!("{:.1}", r.gc_ms[0])),
            ("1G~", |r| format!("{:.1}", r.gc_ms[1])),
            ("2G~", |r| format!("{:.1}", r.gc_ms[2])),
            ("occ@2G~", |r| format!("{:.0}%", r.occupancy[2] * 100.0)),
        ],
    );
    let gain = |rs: Vec<&Row>| -> f64 {
        let ratios: Vec<f64> = rs.iter().map(|r| r.gc_ms[0] / r.gc_ms[2]).collect();
        (geomean(&ratios) - 1.0) * 100.0
    };
    let (spark, ren): (Vec<&Row>, Vec<&Row>) = rows.iter().partition(|r| is_spark(&r.app));
    if !ren.is_empty() {
        println!(
            "Renaissance gain from 4x larger map: {:+.1}% (paper: +3.3% — already enough at 512M)",
            gain(ren)
        );
    }
    if !spark.is_empty() {
        println!(
            "Spark gain from 4x larger map: {:+.1}% (paper: +21.1%, occupancy near 100%)",
            gain(spark)
        );
    }
    d.report("map sized at 1/32, 1/16, 1/8 of the heap", rows);
    Ok(())
}

/// Figure 11 — GC time under different write-cache settings:
/// `sync` (default bounded cache), `sync-unlimited`, `async`
/// (asynchronous flushing), and `dram` (vanilla on all-DRAM, the floor).
///
/// Paper findings: the default 1/32-of-heap bound is enough for most
/// applications; page-rank and kmeans benefit from an unlimited cache
/// (page-rank: 2.00× GC, 11.0% app time vs vanilla); async flushing costs
/// only ~6.9 % while reclaiming DRAM early.
pub(super) fn fig11_writecache(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        sync_ms: f64,
        sync_unlimited_ms: f64,
        async_ms: f64,
        dram_ms: f64,
        vanilla_ms: f64,
        async_peak_cache_bytes: u64,
        sync_peak_cache_bytes: u64,
    }
    let apps = maybe_trim(all_apps(), 4);
    let all = || GcConfig::plus_all(PAPER_THREADS, 0);
    let variants = [all(), all(), all(), all(), GcConfig::vanilla(PAPER_THREADS)];
    let cells = app_grid(&apps, &variants, |vi, cfg| match vi {
        1 => cfg.gc.write_cache.max_bytes = u64::MAX,
        2 => cfg.gc.write_cache.async_flush = true,
        3 => cfg.heap.placement = DevicePlacement::all_dram(),
        _ => {}
    });
    let measured = d.run(cells, |_, r| {
        let peak_cache = r.cycles.iter().map(|c| c.cache_peak_bytes).max();
        (r.gc_seconds() * 1e3, peak_cache.unwrap_or(0))
    });
    let rows: Vec<Row> = apps
        .iter()
        .zip(measured.chunks_exact(variants.len()))
        .map(|(spec, v)| Row {
            app: spec.name.to_owned(),
            sync_ms: v[0].0,
            sync_unlimited_ms: v[1].0,
            async_ms: v[2].0,
            dram_ms: v[3].0,
            vanilla_ms: v[4].0,
            async_peak_cache_bytes: v[2].1,
            sync_peak_cache_bytes: v[0].1,
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("sync", |r| format!("{:.1}", r.sync_ms)),
            ("sync-unlim", |r| format!("{:.1}", r.sync_unlimited_ms)),
            ("async", |r| format!("{:.1}", r.async_ms)),
            ("dram", |r| format!("{:.1}", r.dram_ms)),
            ("unlim gain", |r| {
                format!("{:+.0}%", (r.sync_ms / r.sync_unlimited_ms - 1.0) * 100.0)
            }),
            ("async cost", |r| {
                format!("{:+.0}%", (r.async_ms / r.sync_ms - 1.0) * 100.0)
            }),
        ],
    );
    let async_cost: Vec<f64> = rows.iter().map(|r| r.async_ms / r.sync_ms).collect();
    println!(
        "async flushing average slowdown: {:+.1}% (paper: +6.9%)",
        (geomean(&async_cost) - 1.0) * 100.0
    );
    if let Some(pr) = rows.iter().find(|r| r.app == "page-rank") {
        println!(
            "page-rank unlimited-cache GC speedup vs vanilla: {:.2}x (paper: 2.00x)",
            pr.vanilla_ms / pr.sync_unlimited_ms
        );
    }
    let helped: usize = rows
        .iter()
        .filter(|r| r.sync_ms / r.sync_unlimited_ms > 1.1)
        .count();
    println!(
        "apps gaining >10% from an unlimited cache: {}/{} (paper: only page-rank & kmeans)",
        helped,
        rows.len()
    );
    d.report(
        format!("{PAPER_THREADS} GC threads, +all base config"),
        rows,
    );
    Ok(())
}

/// Figure 12 — cost-efficiency: GC-improvement-per-dollar of the
/// NVM-aware optimizations vs simply buying DRAM for the whole heap.
///
/// Baseline: vanilla G1 on an all-NVM heap. The optimizations add a
/// little DRAM (write cache + header map, 1/32 of the heap each); the
/// all-DRAM alternative replaces the whole heap at 7.81 $/GB vs
/// 3.01 $/GB. The paper reports the optimizations being ~9.58× more
/// cost-effective for Spark.
pub(super) fn fig12_cost_efficiency(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        opt_gipd: f64,
        dram_gipd: f64,
        ratio: f64,
    }
    let apps = maybe_trim(all_apps(), 4);
    let variants = [
        GcConfig::vanilla(PAPER_THREADS),
        GcConfig::plus_all(PAPER_THREADS, 0),
        GcConfig::vanilla(PAPER_THREADS),
    ];
    let cells = app_grid(&apps, &variants, |vi, cfg| {
        if vi == 2 {
            cfg.heap.placement = DevicePlacement::all_dram();
        }
    });
    // Extra dollars over the all-NVM baseline, per app: (optimizations'
    // added DRAM, whole heap moved to DRAM).
    let dollars: Vec<(f64, f64)> = cells
        .chunks_exact(variants.len())
        .map(|app_cells| {
            let heap_bytes = app_cells[0].1.heap_bytes();
            let opt = &app_cells[1].1.gc;
            let extra_dram = opt.write_cache.max_bytes + opt.header_map.max_bytes;
            (
                dram_cost(extra_dram),
                dram_cost(heap_bytes) - nvm_cost(heap_bytes),
            )
        })
        .collect();
    let gc_s = d.run(cells, |_, r| r.gc_seconds());
    let rows: Vec<Row> = apps
        .iter()
        .zip(gc_s.chunks_exact(variants.len()).zip(dollars))
        .map(|(spec, (s, (opt_dollars, dram_dollars)))| {
            let opt_gipd = gc_improvement_per_dollar(s[0], s[1], opt_dollars);
            let dram_gipd = gc_improvement_per_dollar(s[0], s[2], dram_dollars);
            Row {
                app: spec.name.to_owned(),
                opt_gipd,
                dram_gipd,
                ratio: opt_gipd / dram_gipd.max(1e-12),
            }
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("opt s/$", |r| format!("{:.3}", r.opt_gipd)),
            ("dram s/$", |r| format!("{:.3}", r.dram_gipd)),
            ("opt/dram", |r| format!("{:.2}x", r.ratio)),
        ],
    );
    let better = rows.iter().filter(|r| r.ratio > 1.0).count();
    println!(
        "optimizations more cost-effective than all-DRAM on {}/{} apps (paper: most)",
        better,
        rows.len()
    );
    let spark_ratios: Vec<f64> = rows
        .iter()
        .filter(|r| is_spark(&r.app) && r.ratio > 0.0)
        .map(|r| r.ratio)
        .collect();
    if !spark_ratios.is_empty() {
        println!(
            "Spark GC-improvement-per-dollar advantage: {:.2}x (paper: 9.58x)",
            geomean(&spark_ratios)
        );
    }
    d.report("prices: DRAM 7.81 $/GB, NVM 3.01 $/GB (paper §5.5)", rows);
    Ok(())
}

/// Figure 13 — accumulated GC time vs GC thread count (1, 2, 4, 8, 20,
/// 28, 56) for all 26 applications under vanilla, +writecache and +all.
///
/// The paper's shape: vanilla stops scaling at ~8 threads (NVM bandwidth
/// saturated); +writecache scales to ~20; +all scales to 56 logical
/// cores for most applications.
///
/// This is the largest sweep (26 apps × 7 thread counts × 3 configs);
/// expect several minutes, or set `NVMGC_FAST=1`.
pub(super) fn fig13_thread_scaling(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct AppCurve {
        app: String,
        threads: Vec<usize>,
        vanilla_ms: Vec<f64>,
        writecache_ms: Vec<f64>,
        all_ms: Vec<f64>,
    }
    let apps = maybe_trim(all_apps(), 2);
    let threads = maybe_trim(THREAD_SWEEP.to_vec(), 3);
    // The app × thread-count × config grid. The three configs at one
    // (app, thread-count) point share a warmup (thread count is in the
    // warm key — it sizes the prefetch tables) and fork from one snapshot
    // each.
    let configs = |&t: &usize| {
        [
            GcConfig::vanilla(t),
            GcConfig::plus_writecache(t, 0),
            GcConfig::plus_all(t, 0),
        ]
    };
    let variants: Vec<GcConfig> = threads.iter().flat_map(configs).collect();
    let gc_ms = d.run(app_grid(&apps, &variants, |_, _| {}), |_, r| {
        r.gc_seconds() * 1e3
    });
    let mut curves = Vec::new();
    for (spec, app_cells) in apps.iter().zip(gc_ms.chunks_exact(variants.len())) {
        let series = |config: usize| app_cells.chunks_exact(3).map(|p| p[config]).collect();
        let curve = AppCurve {
            app: spec.name.to_owned(),
            threads: threads.clone(),
            vanilla_ms: series(0),
            writecache_ms: series(1),
            all_ms: series(2),
        };
        println!("--- {} ---", curve.app);
        println!(
            "{:>8} {:>10} {:>12} {:>10}",
            "threads", "vanilla", "+writecache", "+all"
        );
        for (i, &t) in threads.iter().enumerate() {
            println!(
                "{:>8} {:>10.1} {:>12.1} {:>10.1}",
                t, curve.vanilla_ms[i], curve.writecache_ms[i], curve.all_ms[i]
            );
        }
        curves.push(curve);
    }
    // Shape summary: where does each configuration stop improving?
    if threads.len() >= 2 {
        let knee = |series: &[f64]| -> usize {
            let mut best = 0;
            for i in 1..series.len() {
                // Still improving if at least 5% better than the best so far.
                if series[i] < series[best] * 0.95 {
                    best = i;
                }
            }
            threads[best]
        };
        let mut v_knees = Vec::new();
        let mut w_knees = Vec::new();
        let mut a_knees = Vec::new();
        for c in &curves {
            v_knees.push(knee(&c.vanilla_ms) as f64);
            w_knees.push(knee(&c.writecache_ms) as f64);
            a_knees.push(knee(&c.all_ms) as f64);
        }
        let med = |mut v: Vec<f64>| -> f64 {
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            v[v.len() / 2]
        };
        println!();
        println!(
            "median scaling knee: vanilla {} threads (paper ~8), +writecache {} (paper ~20), +all {} (paper up to 56)",
            med(v_knees), med(w_knees), med(a_knees)
        );
    }
    d.report("GC threads swept over {1,2,4,8,20,28,56}", curves);
    Ok(())
}

/// Figure 14 — the optimizations migrated to Parallel Scavenge:
/// GC time for Renaissance under `+all`, `no-prefetch` (+all minus the
/// added prefetching) and `vanilla` PS.
///
/// Paper findings: PS also improves (0.61×–2.26× across apps, i.e. a few
/// regress), but less than G1 because PS's irregular direct copies bypass
/// the write cache; the added prefetching contributes ~4.8 % on average.
pub(super) fn fig14_ps_collector(d: &mut Driver) -> Gate {
    #[derive(Serialize)]
    struct Row {
        app: String,
        all_ms: f64,
        no_prefetch_ms: f64,
        vanilla_ms: f64,
        speedup: f64,
    }
    let apps = maybe_trim(renaissance_apps(), 4);
    let mut no_prefetch = GcConfig::ps_plus_all(PAPER_THREADS, 0);
    no_prefetch.prefetch = false;
    let variants = [
        GcConfig::ps_plus_all(PAPER_THREADS, 0),
        no_prefetch,
        GcConfig::ps_vanilla(PAPER_THREADS),
    ];
    let cells = app_grid(&apps, &variants, |_, _| {});
    let gc_ms = d.run(cells, |_, r| r.gc_seconds() * 1e3);
    let rows: Vec<Row> = apps
        .iter()
        .zip(gc_ms.chunks_exact(variants.len()))
        .map(|(spec, ms)| Row {
            app: spec.name.to_owned(),
            all_ms: ms[0],
            no_prefetch_ms: ms[1],
            vanilla_ms: ms[2],
            speedup: ms[2] / ms[0],
        })
        .collect();
    d.table(
        &rows,
        &[
            ("app", |r| r.app.clone()),
            ("+all", |r| format!("{:.1}", r.all_ms)),
            ("no-prefetch", |r| format!("{:.1}", r.no_prefetch_ms)),
            ("vanilla", |r| format!("{:.1}", r.vanilla_ms)),
            ("speedup", |r| format!("{:.2}x", r.speedup)),
        ],
    );
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let lo = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "PS speedup range {:.2}x..{:.2}x, avg {:.2}x (paper: 0.61x..2.26x)",
        lo,
        hi,
        geomean(&speedups)
    );
    let pf_gain: Vec<f64> = rows.iter().map(|r| r.no_prefetch_ms / r.all_ms).collect();
    println!(
        "prefetching contribution: {:+.1}% average (paper: +4.8%)",
        (geomean(&pf_gain) - 1.0) * 100.0
    );
    d.report(
        format!("PS collector, {PAPER_THREADS} GC threads, Renaissance"),
        rows,
    );
    Ok(())
}
