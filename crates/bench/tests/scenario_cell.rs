//! Pinned scenario-matrix cells.
//!
//! The suite's acceptance criterion is a concrete cell, not just unit
//! tests: a flash-crowd burst over the vanilla collector must produce
//! SLO-violation windows whose attribution names the overlapping GC
//! pauses. This test pins the FAST grid's cells so the property cannot
//! silently rot even when the `scenario_matrix` harness (which enforces
//! the same gate across the grid and exits nonzero) is not run.

use nvmgc_bench::{run_scenario_cell, scenario_matrix_cells, scenario_matrix_config};
use nvmgc_core::fault::Severity;
use nvmgc_core::oracle::OracleViolation;
use nvmgc_core::GcError;
use nvmgc_workloads::scenario::ScenarioKind;
use nvmgc_workloads::{run_app, RunFailure, RunPhase};

#[test]
fn flash_crowd_violations_carry_gc_pause_attribution() {
    let cell = scenario_matrix_cells(true)
        .into_iter()
        .find(|c| {
            c.scenario == ScenarioKind::FlashCrowd
                && c.config_name == "g1/vanilla"
                && c.severity == Severity::Off
        })
        .expect("FAST grid contains the fault-free flash-crowd vanilla cell");
    let (row, counters) = run_scenario_cell(&cell);

    assert!(row.ok, "server run must complete: {}", row.outcome);
    assert!(
        row.clients >= 1_000_000,
        "the cohort population simulates at least a million open-loop clients (got {})",
        row.clients
    );
    assert!(
        row.requests > 0 && row.batches > 0 && row.requests > row.batches,
        "requests are bulk-charged in cohort batches ({} requests, {} batches)",
        row.requests,
        row.batches
    );
    assert_eq!(counters.client_requests, row.requests);
    assert_eq!(counters.client_cohorts, row.batches);

    // The burst pushes the server past its SLO; at least one of the
    // resulting windows must overlap a GC pause and say so.
    assert!(
        !row.violations.is_empty(),
        "a flash crowd over the vanilla collector violates the SLO"
    );
    assert!(
        row.gc_attributed_windows >= 1,
        "at least one violation window is attributed to a GC pause"
    );
    let attributed = row
        .violations
        .iter()
        .find(|w| !w.gc_causes.is_empty())
        .expect("an attributed window names its GC pause kinds");
    assert!(
        attributed.gc_pause_ns > 0,
        "the attributed window accounts overlapped pause time"
    );
    assert!(
        attributed.gc_causes.iter().all(|k| k.starts_with("gc-")),
        "pause kinds use the gc-* vocabulary: {:?}",
        attributed.gc_causes
    );
    assert!(attributed.requests > 0 && attributed.worst_ns > row.slo_ns);
}

#[test]
fn fault_free_cells_have_no_fault_attribution() {
    let cell = scenario_matrix_cells(true)
        .into_iter()
        .find(|c| {
            c.scenario == ScenarioKind::Steady
                && c.config_name == "g1/+all"
                && c.severity == Severity::Off
        })
        .expect("FAST grid contains the fault-free steady +all cell");
    let (row, _) = run_scenario_cell(&cell);

    assert!(row.ok, "server run must complete: {}", row.outcome);
    for w in &row.violations {
        assert!(
            w.fault_causes.is_empty(),
            "severity=off cells cannot blame injected faults: {:?}",
            w.fault_causes
        );
    }
}

/// Runs workload seed `seed` in the `g1/+all` moderate scenario cell with
/// a volatile header map under fault seed `0xEE81`, and returns the phase,
/// cycle and oracle addresses `(old, new)` of the clause-1 violation it
/// ends in. Workload seeds 203, 226, 229 and 239 of 200–239 fail this way
/// (ROADMAP 1(c)); each is pinned below.
fn ee81_clause_1_violation(seed: u64) -> (RunPhase, usize, u64, u64) {
    let mut cell = scenario_matrix_cells(false)
        .into_iter()
        .find(|c| c.config_name == "g1/+all" && c.severity == Severity::Moderate)
        .expect("the full grid has a faulted g1/+all cell");
    cell.seed = 0xEE81;
    let mut cfg = scenario_matrix_config(&cell);
    cfg.seed = seed;

    let err = run_app(&cfg).expect_err("the finding is still open");
    let RunFailure::Gc(GcError::Oracle(OracleViolation::UnrecoverableEvacuation {
        old, new, ..
    })) = &err.failure
    else {
        panic!("{err}");
    };
    (err.phase, err.cycle, old.raw(), new.raw())
}

/// The open finding of ROADMAP 1(c): with a volatile header map, the
/// moderate fault plan of seed `0xEE81` injects a power failure that
/// workload seed 203 does not survive. Pinned as today's exact typed
/// error so it cannot drift unseen; the PR that resolves it — in the
/// fault-plan generator, the oracle clause or the volatile path's flush
/// order — flips this test and its three siblings below to
/// `run_app(&cfg).is_ok()`.
#[test]
fn seed_203_under_fault_seed_ee81_is_an_open_oracle_violation_until_fixed() {
    assert_eq!(
        ee81_clause_1_violation(203),
        (RunPhase::Gc, 15, 0xdf360, 0x188000)
    );
}

/// ROADMAP 1(c), the same cell and failure shape as seed 203.
#[test]
fn seed_226_under_fault_seed_ee81_is_an_open_oracle_violation_until_fixed() {
    assert_eq!(
        ee81_clause_1_violation(226),
        (RunPhase::Gc, 22, 0x16a790, 0x150000)
    );
}

/// ROADMAP 1(c), the same cell and failure shape as seed 203.
#[test]
fn seed_229_under_fault_seed_ee81_is_an_open_oracle_violation_until_fixed() {
    assert_eq!(
        ee81_clause_1_violation(229),
        (RunPhase::Gc, 22, 0x5a2dd8, 0x150000)
    );
}

/// ROADMAP 1(c), the same cell and failure shape as seed 203.
#[test]
fn seed_239_under_fault_seed_ee81_is_an_open_oracle_violation_until_fixed() {
    assert_eq!(
        ee81_clause_1_violation(239),
        (RunPhase::Gc, 22, 0x59cbf8, 0x110000)
    );
}
