//! Mid-burst fault regression tests.
//!
//! A bandwidth grant samples stall deferral and the collapse factor only
//! at its start time, and `read_bulk`/`write_bulk`/`nt_write_bulk`
//! charge one grant per contiguous run — so before bulk-grant splitting,
//! a `DeviceFault` window *opening mid-burst* was bypassed entirely by
//! any transfer that started before it. These tests pin the split
//! behavior: the window now fires, the splits are counted, and the
//! fault-free fast path stays byte-identical to the unsplit model.

use nvmgc_memsim::{DeviceFault, DeviceId, FaultWindow, MemConfig, MemFaultPlan, MemorySystem, Ns};

fn sys() -> MemorySystem {
    let mut m = MemorySystem::new(MemConfig::default());
    m.set_threads(4);
    m
}

fn persist_sys(seed: u64) -> MemorySystem {
    let mut cfg = MemConfig::default();
    cfg.persist.enabled = true;
    cfg.persist.seed = seed;
    let mut m = MemorySystem::new(cfg);
    m.set_threads(4);
    m
}

/// A big NT burst: ~64 MB takes tens of milliseconds of NVM time, so a
/// window opening at 2 ms is strictly inside the transfer.
const BURST: u64 = 64 << 20;
const MID: Ns = 2_000_000;

fn stall_plan(start: Ns, end: Ns) -> MemFaultPlan {
    MemFaultPlan {
        events: vec![DeviceFault::Stall {
            dev: DeviceId::Nvm,
            window: FaultWindow { start, end },
        }],
    }
}

/// The regression proper: a stall window that opens after the burst
/// starts now defers the burst's later segments. Before splitting, the
/// single grant started before the window and the burst completed where
/// a healthy device completes it.
#[test]
fn mid_burst_stall_now_fires() {
    let clean = sys().nt_write_bulk(DeviceId::Nvm, 0x10_0000, BURST, 0);
    let stalled = |len: Ns| {
        let mut m = sys();
        m.set_fault_plan(&stall_plan(MID, MID + len));
        let done = m.nt_write_bulk(DeviceId::Nvm, 0x10_0000, BURST, 0);
        assert!(
            m.stats().bulk_grant_splits > 0,
            "the burst must have been segmented"
        );
        done
    };
    // A healthy burst ends inside a 20 ms window opening at 2 ms; the
    // stalled one is held until the window closes and ends past it.
    let end = MID + 20_000_000;
    let done = stalled(end - MID);
    assert!(clean < end && done > end, "{done} vs {clean}");
    // A stall never speeds a burst up, however short.
    assert!(stalled(500_000) >= clean);
}

/// Same schedule, control case: a burst that completes before the window
/// opens is still segmented at the edge query but never deferred.
#[test]
fn stall_after_the_burst_never_fires() {
    let clean = sys().nt_write_bulk(DeviceId::Nvm, 0x10_0000, 1 << 20, 0);
    let mut m = sys();
    m.set_fault_plan(&stall_plan(10_000_000_000, 10_000_500_000));
    let done = m.nt_write_bulk(DeviceId::Nvm, 0x10_0000, 1 << 20, 0);
    assert_eq!(done, clean);
    assert!(done < 10_000_000_000);
}

/// A collapse window opening mid-burst inflates the later segments: the
/// same burst under the same plan must take longer than with no plan,
/// even though the burst started before the window.
#[test]
fn mid_burst_bandwidth_collapse_inflates_the_tail() {
    let mut clean = sys();
    let base = clean.nt_write_bulk(DeviceId::Nvm, 0x10_0000, BURST, 0);

    let mut m = sys();
    m.set_fault_plan(&MemFaultPlan {
        events: vec![DeviceFault::BandwidthCollapse {
            dev: DeviceId::Nvm,
            window: FaultWindow {
                start: MID,
                end: MID + 20_000_000,
            },
            factor: 8.0,
        }],
    });
    let collapsed = m.nt_write_bulk(DeviceId::Nvm, 0x10_0000, BURST, 0);
    assert!(m.stats().bulk_grant_splits > 0);
    assert!(
        collapsed > base,
        "mid-burst collapse must slow the burst: {collapsed} vs {base}"
    );
}

/// A write-combining drain stall opening mid-burst: the lines written
/// inside the window are recorded during the stall, so capacity drains
/// defer and the crash image holds fewer durable lines than a healthy
/// device's — even though the burst's single record used to carry only
/// the pre-window start time.
#[test]
fn mid_burst_wc_drain_stall_is_observed() {
    let durable_after_burst = |plan: &MemFaultPlan| {
        let mut m = persist_sys(7);
        m.set_fault_plan(plan);
        m.nt_write_bulk(DeviceId::Nvm, 0, BURST, 0);
        let durable = m.ledger().unwrap().crash_image().durable_lines();
        (durable, m.stats().bulk_grant_splits)
    };
    let (healthy, _) = durable_after_burst(&MemFaultPlan::none());
    let (stalled, splits) = durable_after_burst(&MemFaultPlan {
        events: vec![DeviceFault::WcDrainStall {
            window: FaultWindow {
                start: MID,
                end: MID + 50_000_000,
            },
        }],
    });
    assert!(
        stalled < healthy,
        "drain stalls inside the burst must defer capacity drains: {stalled} vs {healthy}"
    );
    assert!(splits > 0);
}

/// With no fault windows installed the fast path is taken: exactly one
/// grant, no splits, and timing identical for every bulk entry point.
/// This is what keeps all fault-free figures byte-identical.
#[test]
fn fault_free_runs_are_never_segmented() {
    let mut m = sys();
    let t1 = m.read_bulk(DeviceId::Nvm, 0x1000, 1 << 20, 0);
    let t2 = m.write_bulk(DeviceId::Nvm, 0x100_000, 1 << 20, t1);
    let t3 = m.nt_write_bulk(DeviceId::Nvm, 0x200_000, 1 << 20, t2);
    let _ = m.read_bulk(DeviceId::Nvm, 0x300_000, 1 << 20, t3);
    let s = m.stats();
    assert_eq!(s.bulk_grant_splits, 0);
    // One stats increment per run — the unsplit accounting.
    assert_eq!(s.reads[DeviceId::Nvm.index()], 2);
    assert_eq!(s.writes[DeviceId::Nvm.index()], 2);
}

/// An installed plan whose windows never overlap the traffic leaves
/// timing identical to a fault-free system; segmentation alone must not
/// change the run's cost when every segment sees healthy state.
#[test]
fn far_future_windows_leave_timing_unchanged() {
    let mut clean = sys();
    let base = clean.read_bulk(DeviceId::Nvm, 0x1000, 1 << 20, 0);
    let mut m = sys();
    m.set_fault_plan(&stall_plan(u64::MAX - 2, u64::MAX - 1));
    let with_plan = m.read_bulk(DeviceId::Nvm, 0x1000, 1 << 20, 0);
    assert_eq!(base, with_plan);
}
