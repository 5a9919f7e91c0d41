//! Plan-equivalence and semispace-baseline acceptance tests.
//!
//! The plan/policy decomposition is a pure refactor for G1 and PS — the
//! golden-digest test proves their committed rows never moved — and a
//! *new capability* for the semispace baseline, which must inherit the
//! fault plane, durable header map, durable allocator, and crash oracles
//! from the shared policy code with zero persistence code of its own.
//! This file pins both claims:
//!
//! - a property test drives random FAST plan-grid cells cold (isolated,
//!   no warm fork, no parallel pool) and asserts each serializes to the
//!   exact bytes the forked grid produced for that cell;
//! - the semispace rows are byte-identical at `NVMGC_JOBS=1` and `2`;
//! - a pinned Moderate+ durable/alloc semispace cell crashes
//!   mid-evacuation, recovers (replaying the durable prefix and
//!   rebuilding the allocator free stack under the recovery oracles),
//!   resumes, and completes with every digest check passing.

use nvmgc_bench::{plan_matrix_cells, run_cells, run_fault_cell, FaultRow};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The forked FAST plan grid, run once and shared by every test in this
/// file (the grid is deterministic, so caching cannot mask a failure).
fn grid_rows() -> &'static Vec<FaultRow> {
    static ROWS: OnceLock<Vec<FaultRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let (results, _, _) = nvmgc_bench::grids::run_plan_grid(true);
        results.into_iter().map(|(row, _)| row).collect()
    })
}

/// Serializes a row exactly as the report writer would (serde_json with
/// default formatting) so comparisons are byte-level, not field-level.
fn row_bytes(row: &FaultRow) -> String {
    serde_json::to_string(row).expect("row serializes")
}

proptest! {
    // Each case is a full simulated run; keep the count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any FAST plan-grid cell, re-run cold and in isolation, produces a
    /// row byte-identical to the forked parallel grid's row for that
    /// cell — across all three plans and every severity.
    #[test]
    fn any_plan_cell_runs_cold_to_the_grid_row(idx in 0usize..plan_matrix_cells(true).len()) {
        let cell = plan_matrix_cells(true).swap_remove(idx);
        let (cold, _) = run_fault_cell(&cell);
        let grid = &grid_rows()[idx];
        prop_assert_eq!(
            row_bytes(&cold),
            row_bytes(grid),
            "cell {} diverged between cold and forked-grid execution",
            cell.label()
        );
    }
}

#[test]
fn semispace_rows_are_byte_identical_at_jobs_1_and_2() {
    let cells = || {
        plan_matrix_cells(true)
            .into_iter()
            .filter(|c| c.config_name.starts_with("semispace/"))
            .map(|cell| (cell.label(), move || run_fault_cell(&cell).0))
            .collect::<Vec<(String, _)>>()
    };
    let (serial, s1) = run_cells(1, cells());
    let (parallel, s2) = run_cells(2, cells());
    assert_eq!(s1.jobs, 1);
    assert_eq!(s2.jobs, 2);
    assert_eq!(serial.len(), parallel.len());
    assert!(!serial.is_empty(), "grid has semispace cells");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            row_bytes(a),
            row_bytes(b),
            "semispace row diverged across job counts"
        );
    }
}

#[test]
fn semispace_durable_cell_crashes_recovers_and_resumes() {
    // The decomposition's payoff acceptance: the plan with no regional
    // machinery and no persistence code of its own completes a Moderate+
    // durable fault-matrix cell — crash, recover, resume — with
    // `oracle::check_recovery_completion` and `check_allocator_recovery`
    // armed (both run on every recovery; a violation would surface as a
    // typed-error row, failing the asserts below).
    let mut recovered_somewhere = false;
    for sev in ["moderate", "severe"] {
        let cell = plan_matrix_cells(true)
            .into_iter()
            .find(|c| c.config_name == "semispace/+all/durable/alloc" && c.severity.name() == sev)
            .expect("FAST plan grid contains the semispace durable/alloc cell");
        assert!(cell.gc.durable_map_active() && cell.gc.durable_alloc_active());
        let (row, _) = run_fault_cell(&cell);

        assert_eq!(row.map_mode, "durable");
        assert_eq!(row.alloc_mode, "durable");
        assert!(row.ok, "cell must complete: {}", row.outcome);
        assert!(!row.corruption, "cell must not corrupt the graph");
        assert!(
            row.power_failure_checks >= 1,
            "the scheduled power failure actually fired at severity {sev}"
        );
        assert!(
            row.digest_checks > 0 && row.digest_checks == row.cycles,
            "every cycle's pre/post digest was compared ({} checks, {} cycles)",
            row.digest_checks,
            row.cycles
        );
        if row.recovered_cycles >= 1
            && (row.resumed_evacuations + row.replayed_map_entries) >= 1
            && row.alloc_rebuilt > 0
        {
            recovered_somewhere = true;
        }
    }
    assert!(
        recovered_somewhere,
        "at least one Moderate+ semispace durable cell crashed mid-evacuation, \
         replayed/re-evacuated forwardings, and rebuilt its allocator free stack"
    );
}

#[test]
fn every_plan_cell_in_the_fast_grid_is_panic_free() {
    // Graceful degradation across the whole plan axis: every cell either
    // completes or reports a typed error — and no volatile cell reports
    // recovery work (recovery is a durable-stack capability, whatever the
    // plan).
    for (cell, row) in plan_matrix_cells(true).iter().zip(grid_rows()) {
        assert!(!row.corruption, "{} corrupted the graph", cell.label());
        if !cell.gc.durable_map_active() {
            assert_eq!(
                (
                    row.recovered_cycles,
                    row.resumed_evacuations,
                    row.replayed_map_entries
                ),
                (0, 0, 0),
                "volatile cell {} must not report recovery work",
                cell.label()
            );
        }
    }
}
