//! The HotSpot-style GC log rendered from a run's record.

use nvmgc_core::{gclog, GcConfig};
use nvmgc_workloads::{app, run_app, AppRunConfig};

#[test]
fn log_records_every_cycle_in_hotspot_shape() {
    let mut spec = app("dotty");
    spec.alloc_young_multiple = 2.0;
    let mut cfg = AppRunConfig::standard(spec, GcConfig::plus_all(12, 0));
    cfg.apply_paper_ratios();
    let r = run_app(&cfg).unwrap();
    let text = gclog::render(&r.cycles, &r.pause_spans);
    for id in 0..r.gc.cycles() {
        assert!(text.contains(&format!("GC({id}) Pause Young (Normal)")));
    }
    assert!(!text.contains(&format!("GC({})", r.gc.cycles())));
    assert!(text.contains("scan "));
    // Occupancy transitions are shown as `NK->MK`.
    assert!(text.contains("K->"), "{text}");
}
