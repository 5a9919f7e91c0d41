//! The harness registry's claims, checked against the committed results.
//!
//! `cargo bench --bench harness -- all` regenerates `results/` and the
//! weekly CI job `diff -r`s the two directories, so the registry must
//! claim every committed file exactly once — a harness added without its
//! result, or a result left behind by a deleted harness, fails here.

use nvmgc_bench::{run_harness, REGISTRY};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn ids_and_outputs_are_unique_and_cover_the_committed_results() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|h| h.id()).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate harness id");

    let outputs: Vec<&str> = REGISTRY
        .iter()
        .flat_map(|h| h.outputs.iter().map(|o| o.0))
        .collect();
    let claimed: BTreeSet<&str> = outputs.iter().copied().collect();
    assert_eq!(
        claimed.len(),
        outputs.len(),
        "an output claimed by two harnesses"
    );

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .map(|name| name.to_str().expect("utf-8 file name").to_owned())
        .collect();
    let claimed: BTreeSet<String> = claimed.iter().map(|o| format!("{o}.json")).collect();
    assert_eq!(claimed, committed);
}

#[test]
fn only_sim_throughput_writes_the_perf_baseline() {
    let writers: Vec<&str> = REGISTRY
        .iter()
        .filter(|h| h.outputs.iter().any(|o| o.0 == "sim_throughput"))
        .map(|h| h.id())
        .collect();
    assert_eq!(writers, ["sim_throughput"]);

    // Running any other harness through the driver's grid path must leave
    // no `sim_throughput.json` behind: grid harnesses used to overwrite
    // the CI perf-gate baseline with their own counters on the way out.
    // (The only test in this binary that touches the environment.)
    let dir = std::env::temp_dir().join(format!("nvmgc_registry_{}", std::process::id()));
    std::env::set_var("NVMGC_RESULTS", &dir);
    std::env::set_var("NVMGC_FAST", "1");
    let harness = REGISTRY.iter().find(|h| h.id() == "trace_timeline");
    run_harness(harness.expect("registered")).expect("gates pass");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("harness wrote its results")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, ["trace_timeline.json"]);
}
