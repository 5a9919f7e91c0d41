//! Serial-vs-parallel determinism of the experiment runner.
//!
//! The parallel runner's contract is that the job count never changes
//! results: every cell owns its full simulation state, and results are
//! collected in declaration order. This test drives a real (shrunken)
//! experiment grid through `run_cells` at 1 and 4 jobs and asserts
//! the JSON written under a results directory is byte-identical.

use nvmgc_bench::run_cells;
use nvmgc_core::fault::{FaultPlan, Severity};
use nvmgc_core::GcConfig;
use nvmgc_metrics::{
    chrome_trace, timeline_rows, write_json, ChromeTrace, ExperimentReport, TimelineRow,
};
use nvmgc_workloads::{app, run_app, AppRunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    app: String,
    config: String,
    gc_ms: f64,
    total_ns: u64,
}

type Labeled<T> = Vec<(String, Box<dyn FnOnce() -> T + Send>)>;

/// The experiment grid: two apps × two GC configs on a small heap so the
/// whole test stays in CI time budgets.
fn grid() -> Labeled<Cell> {
    let mut cells: Labeled<Cell> = Vec::new();
    for name in ["page-rank", "scrabble"] {
        for (label, gc) in [
            ("vanilla", GcConfig::vanilla(4)),
            ("+all", GcConfig::plus_all(4, 0)),
        ] {
            let cell = Box::new(move || {
                let mut spec = app(name);
                spec.alloc_young_multiple = spec.alloc_young_multiple.min(3.0);
                let mut cfg = AppRunConfig::standard(spec, gc);
                cfg.heap.region_size = 16 << 10;
                cfg.heap.heap_regions = 96;
                cfg.heap.young_regions = 32;
                let res = run_app(&cfg).expect("run succeeds");
                Cell {
                    app: name.to_owned(),
                    config: label.to_owned(),
                    gc_ms: res.gc_seconds() * 1e3,
                    total_ns: res.total_ns,
                }
            });
            cells.push((format!("{name}/{label}"), cell));
        }
    }
    cells
}

fn write_report(tag: &str, data: Vec<Cell>) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("nvmgc_determinism_{tag}"));
    let report = ExperimentReport {
        id: "determinism_grid".to_owned(),
        paper_ref: "runner determinism check".to_owned(),
        notes: "serial and parallel runs must serialize identically".to_owned(),
        data,
    };
    let path = write_json(&dir, &report).expect("write report");
    let bytes = std::fs::read(&path).expect("read report back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn serial_and_parallel_runs_write_identical_json() {
    let (serial, stats1) = run_cells(1, grid());
    let (parallel, stats4) = run_cells(4, grid());
    assert_eq!(stats1.jobs, 1);
    assert_eq!(stats4.jobs, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!((&s.app, &s.config), (&p.app, &p.config), "order preserved");
        assert_eq!(s.total_ns, p.total_ns, "{}/{} diverged", s.app, s.config);
        assert_eq!(s.gc_ms.to_bits(), p.gc_ms.to_bits(), "bitwise-equal floats");
    }
    let serial_json = write_report("serial", serial);
    let parallel_json = write_report("parallel", parallel);
    assert_eq!(
        serial_json, parallel_json,
        "results JSON must be byte-identical"
    );
}

#[derive(Serialize)]
struct TraceCell {
    config: String,
    timeline: Vec<TimelineRow>,
    trace: ChromeTrace,
}

/// Traced cells under a fault plan — the shape the `trace` harness
/// exports. Tracing must not perturb runner determinism, and the event
/// log itself (timestamps, order, annotations) must serialize to the
/// same bytes at any job count.
fn traced_grid() -> Labeled<TraceCell> {
    let mut cells: Labeled<TraceCell> = Vec::new();
    for (label, gc) in [
        ("vanilla", GcConfig::vanilla(4)),
        ("+all", GcConfig::plus_all(4, 0)),
    ] {
        let cell = Box::new(move || {
            let mut spec = app("page-rank");
            spec.alloc_young_multiple = spec.alloc_young_multiple.min(3.0);
            let mut cfg = AppRunConfig::standard(spec, gc);
            cfg.heap.region_size = 16 << 10;
            cfg.heap.heap_regions = 96;
            cfg.heap.young_regions = 32;
            cfg.sample_series = true;
            cfg.trace = true;
            cfg.gc.fault = FaultPlan::generate(0x5EED, Severity::Moderate, 40_000_000);
            let res = run_app(&cfg).expect("run succeeds");
            TraceCell {
                config: label.to_owned(),
                timeline: timeline_rows(&res.nvm_series, res.bin_ns, &res.trace),
                trace: chrome_trace(&res.trace),
            }
        });
        cells.push((label.to_owned(), cell));
    }
    cells
}

fn write_trace_report(tag: &str, data: Vec<TraceCell>) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("nvmgc_trace_determinism_{tag}"));
    let report = ExperimentReport {
        id: "trace_determinism".to_owned(),
        paper_ref: "trace layer determinism check".to_owned(),
        notes: "trace JSON must not depend on NVMGC_JOBS".to_owned(),
        data,
    };
    let path = write_json(&dir, &report).expect("write report");
    let bytes = std::fs::read(&path).expect("read report back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn trace_json_is_identical_across_job_counts() {
    let (serial, _) = run_cells(1, traced_grid());
    let (parallel, _) = run_cells(2, traced_grid());
    let serial_json = write_trace_report("serial", serial);
    let parallel_json = write_trace_report("parallel", parallel);
    assert_eq!(
        serial_json, parallel_json,
        "trace JSON must be byte-identical"
    );
}
