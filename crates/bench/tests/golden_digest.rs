//! Golden-digest regression test.
//!
//! Runs the FAST fig01 and fault-matrix grids through the exact shared
//! grid code the harnesses use ([`nvmgc_bench::grids`]) and asserts the
//! produced JSON is byte-identical to the golden files committed under
//! `tests/golden/`. Any change to simulator timing, scheduling, RNG
//! consumption, or report formatting shows up here as a byte diff — the
//! same property CI checks for the full-scale committed
//! `results/*.json`, but cheap enough to run in every test pass.
//!
//! Each grid is produced twice — by the warm-forked grid function the
//! harness runs, and cell by cell through the cold reference path — and
//! *both* must match the golden: the proof that fork == cold on the real
//! grids, not only on the property-test workloads.
//!
//! When a change *intentionally* alters simulated behavior, regenerate
//! the goldens by running this test with `NVMGC_BLESS_GOLDEN=1` and
//! commit the rewritten files (see EXPERIMENTS.md, "Golden digests").

use nvmgc_bench::{
    fault_matrix_cells, fault_matrix_report, fig01_apps, fig01_report, run_fault_cell,
    run_fault_grid, run_fig01_app, run_fig01_grid,
};
use nvmgc_metrics::write_json;
use std::path::Path;

/// Serializes `report` exactly as a harness would (via [`write_json`])
/// and compares the bytes against `tests/golden/<name>`. With
/// `NVMGC_BLESS_GOLDEN=1`, rewrites the golden instead of comparing.
fn assert_matches_golden<T: serde::Serialize>(
    report: &nvmgc_metrics::ExperimentReport<T>,
    name: &str,
) {
    let dir = std::env::temp_dir().join(format!("nvmgc_golden_{}_{name}", std::process::id()));
    let path = write_json(&dir, report).expect("write report");
    let produced = std::fs::read(&path).expect("read produced report");
    let _ = std::fs::remove_dir_all(&dir);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("NVMGC_BLESS_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(golden_path.parent().expect("golden dir"))
            .expect("create golden dir");
        std::fs::write(&golden_path, &produced).expect("bless golden");
        println!("blessed {}", golden_path.display());
        return;
    }
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", golden_path.display()));
    assert!(
        produced == golden,
        "{name}: produced JSON differs from committed golden {} \
         ({} vs {} bytes). If the simulated behavior changed on purpose, \
         re-bless with NVMGC_BLESS_GOLDEN=1.",
        golden_path.display(),
        produced.len(),
        golden.len()
    );
}

#[test]
fn fault_matrix_fast_json_matches_golden() {
    let forked: Vec<_> = run_fault_grid(true).0.into_iter().map(|r| r.0).collect();
    assert_matches_golden(&fault_matrix_report(forked), "fault_matrix.fast.json");
    let cells = fault_matrix_cells(true);
    let cold: Vec<_> = cells.iter().map(|cell| run_fault_cell(cell).0).collect();
    assert_matches_golden(&fault_matrix_report(cold), "fault_matrix.fast.json");
}

#[test]
fn fig01_fast_json_matches_golden() {
    let forked: Vec<_> = run_fig01_grid(true).0.into_iter().map(|r| r.0).collect();
    assert_matches_golden(&fig01_report(forked), "fig01_dram_vs_nvm.fast.json");
    let cold: Vec<_> = fig01_apps(true).iter().map(run_fig01_app).collect();
    assert_matches_golden(&fig01_report(cold), "fig01_dram_vs_nvm.fast.json");
}
