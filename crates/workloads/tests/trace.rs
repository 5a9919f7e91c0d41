//! The deterministic trace layer, end to end through `run_app`.
//!
//! Three guarantees under test:
//!
//! - tracing is opt-in: a default run records nothing and costs nothing;
//! - the event log is a pure function of the configuration and seed —
//!   two runs produce byte-identical JSON, which is what lets the CI
//!   trace suite `diff` artifacts across `NVMGC_JOBS` settings;
//! - the trace agrees with the run's timeline: every pause span has a
//!   matching `"cycle"` span with *identical* simulated timestamps, even
//!   under a fault-injection plan with persistence enabled.

use nvmgc_core::fault::{FaultPlan, Severity};
use nvmgc_core::GcConfig;
use nvmgc_memsim::{TraceCat, TRACK_CYCLE};
use nvmgc_workloads::spec::ClassMix;
use nvmgc_workloads::{run_app, AppRunConfig, WorkloadSpec};

/// Matches the fault-matrix horizon so generated windows overlap the run.
const HORIZON_NS: u64 = 40_000_000;

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "trace-test",
        alloc_young_multiple: 3.0,
        mix: vec![ClassMix {
            num_refs: 2,
            data_bytes: 24,
            weight: 1,
        }],
        survival: 0.4,
        keep_gcs: 1,
        old_link_fraction: 0.1,
        chain_fraction: 0.0,
        cpu_per_alloc_ns: 20.0,
        touches_per_alloc: 1,
        app_threads: 4,
        share_fraction: 0.15,
        old_anchor_bytes: 8 << 10,
    }
}

fn traced_cfg() -> AppRunConfig {
    let mut cfg = AppRunConfig::standard(small_spec(), GcConfig::plus_all(12, 1 << 20));
    cfg.heap.region_size = 16 << 10;
    cfg.heap.heap_regions = 96;
    cfg.heap.young_regions = 32;
    cfg.trace = true;
    cfg
}

#[test]
fn trace_is_empty_unless_requested() {
    let mut cfg = traced_cfg();
    cfg.trace = false;
    let r = run_app(&cfg).unwrap();
    assert!(r.trace.is_empty());
    assert!(r.gc.cycles() > 0, "workload must actually collect");
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run_app(&traced_cfg()).unwrap();
    let b = run_app(&traced_cfg()).unwrap();
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace, b.trace);
    // The serialized form (what the trace harness writes and CI diffs)
    // must match byte for byte, not just structurally.
    let ja = serde_json::to_string(&a.trace).unwrap();
    let jb = serde_json::to_string(&b.trace).unwrap();
    assert_eq!(ja, jb);
}

#[test]
fn canonical_order_is_time_then_track() {
    let r = run_app(&traced_cfg()).unwrap();
    let keys: Vec<(u64, u32)> = r.trace.iter().map(|e| (e.ts, e.track)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

/// The packets of one cycle, in schedule order.
const PACKETS: [&str; 3] = ["scan", "write-back", "map-clear"];

#[test]
fn every_logged_cycle_has_a_matching_trace_span() {
    // A Moderate plan includes a WcDrainStall and a PowerFailure probe,
    // the latter auto-enabling the persistence model — so every run
    // exercises fault-window annotation and fence emission too. Every
    // plan schedules the same packets, with or without the durable map
    // and allocator; a vanilla configuration runs only the scan packet.
    let durable = |mut gc: GcConfig| {
        // The durable map turns the plan's power failure into a crash the
        // run recovers from; the durable allocator makes every journal
        // drain take simulated time.
        gc.header_map.durable = true;
        gc.allocator.durable = true;
        gc
    };
    let plans = [
        ("g1", GcConfig::plus_all(12, 1 << 20)),
        ("ps", GcConfig::ps_plus_all(12, 1 << 20)),
        ("semispace", GcConfig::semispace_plus_all(12, 1 << 20)),
    ];
    let mut inputs = vec![("vanilla".to_owned(), GcConfig::vanilla(12), &PACKETS[..1])];
    for (plan, gc) in plans {
        inputs.push((format!("{plan} durable"), durable(gc.clone()), &PACKETS[..]));
        inputs.push((plan.to_owned(), gc, &PACKETS[..]));
    }
    for (label, gc, packets) in inputs {
        let mut cfg = traced_cfg();
        cfg.gc = gc;
        cfg.gc.fault = if label.ends_with("durable") {
            // A plan whose power failures land inside collections.
            FaultPlan::generate(38, Severity::Severe, HORIZON_NS)
        } else {
            FaultPlan::generate(0x7ACE, Severity::Moderate, HORIZON_NS)
        };
        let r = run_app(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));

        let cycles: Vec<_> = r
            .trace
            .iter()
            .filter(|e| e.cat == TraceCat::Cycle && e.name == "cycle")
            .collect();
        assert!(!r.pause_spans.is_empty(), "{label}");
        let recovered: u64 = r.cycles.iter().map(|c| c.recovered_cycles).sum();
        assert_eq!(recovered > 0, label.ends_with("durable"), "{label}");
        assert_eq!(cycles.len(), r.pause_spans.len(), "{label}");
        for (span, (pause, stats)) in cycles.iter().zip(r.pause_spans.iter().zip(&r.cycles)) {
            assert_eq!(span.track, TRACK_CYCLE, "{label}");
            assert_eq!(
                span.ts,
                pause.start_ns + stats.mark_ns,
                "{label}: evacuation start must agree"
            );
            assert_eq!(
                span.ts + span.dur,
                pause.end_ns,
                "{label}: pause end must agree"
            );

            // Each cycle span is accompanied by per-worker sub-phase spans
            // that lie inside the collection interval: on every worker
            // lane the plan's packets, in schedule order. A cycle that
            // crashed and resumed holds one more attempt per recovery
            // pass, each a prefix of the schedule, the last one complete.
            let inside = |e: &&nvmgc_memsim::TraceEvent| {
                span.ts <= e.ts && e.ts + e.dur <= span.ts + span.dur
            };
            let recoveries = r
                .trace
                .iter()
                .filter(inside)
                .filter(|e| e.name == "recover")
                .count();
            for worker in 0..cfg.gc.threads as u32 {
                let lane: Vec<&str> = r
                    .trace
                    .iter()
                    .filter(inside)
                    .filter(|e| e.cat == TraceCat::Phase && e.track == worker)
                    .map(|e| e.name)
                    .collect();
                let attempts: Vec<&[&str]> = lane.chunk_by(|_, next| *next != PACKETS[0]).collect();
                assert_eq!(attempts.len(), 1 + recoveries, "{label}: {lane:?}");
                for attempt in &attempts {
                    assert!(packets.starts_with(attempt), "{label}: {lane:?}");
                }
                assert_eq!(attempts[recoveries], packets, "{label}: {lane:?}");
            }
        }

        // The injected plan annotates device lanes, and the write-back
        // packet and the persistence model under it stamp fences.
        assert!(r.trace.iter().any(|e| e.cat == TraceCat::Fault), "{label}");
        let fenced = r.trace.iter().any(|e| e.cat == TraceCat::Fence);
        assert_eq!(fenced, packets.contains(&"write-back"), "{label}");
    }
}
