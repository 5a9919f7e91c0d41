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
/// starts (and would close before an unsplit grant was re-examined) now
/// defers the burst's later segments. Before splitting,
/// `stall_deferrals` stayed 0 for exactly this schedule because the
/// single grant started before the window.
#[test]
fn mid_burst_stall_now_fires() {
    let mut m = sys();
    m.set_fault_plan(&stall_plan(MID, MID + 500_000));
    let done = m.nt_write_bulk(DeviceId::Nvm, 0x10_0000, BURST, 0);
    let obs = m.fault_observations();
    assert!(
        obs.stall_deferrals > 0,
        "a stall opening mid-burst must defer some segment: {obs:?}"
    );
    assert!(
        m.stats().bulk_grant_splits > 0,
        "the burst must have been segmented: {obs:?}"
    );
    assert!(
        done >= MID + 500_000,
        "the transfer cannot finish before the mid-burst stall clears: {done}"
    );
}

/// Same schedule, control case: a burst that completes before the window
/// opens is still segmented at the edge query but never deferred.
#[test]
fn stall_after_the_burst_never_fires() {
    let mut m = sys();
    m.set_fault_plan(&stall_plan(10_000_000_000, 10_000_500_000));
    let done = m.nt_write_bulk(DeviceId::Nvm, 0x10_0000, 1 << 20, 0);
    let obs = m.fault_observations();
    assert_eq!(obs.stall_deferrals, 0, "{obs:?}");
    assert!(done < 10_000_000_000);
}

/// A collapse window opening mid-burst inflates the later segments: the
/// same burst under the same plan must take longer than with no plan,
/// and the collapse counter must fire even though the burst started
/// before the window.
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
    let obs = m.fault_observations();
    assert!(obs.collapsed_grants > 0, "{obs:?}");
    assert!(m.stats().bulk_grant_splits > 0, "{obs:?}");
    assert!(
        collapsed > base,
        "mid-burst collapse must slow the burst: {collapsed} vs {base}"
    );
}

/// A write-combining drain stall opening mid-burst: the lines written
/// inside the window are recorded during the stall, so capacity drains
/// defer and are counted — even though the burst's single record used
/// to carry only the pre-window start time.
#[test]
fn mid_burst_wc_drain_stall_is_observed() {
    let mut m = persist_sys(7);
    m.set_fault_plan(&MemFaultPlan {
        events: vec![DeviceFault::WcDrainStall {
            dev: DeviceId::Nvm,
            window: FaultWindow {
                start: MID,
                end: MID + 50_000_000,
            },
        }],
    });
    m.nt_write_bulk(DeviceId::Nvm, 0, BURST, 0);
    let obs = m.fault_observations();
    assert!(
        obs.wc_drain_stalls > 0,
        "drain stalls inside the burst must defer capacity drains: {obs:?}"
    );
    assert!(m.stats().bulk_grant_splits > 0, "{obs:?}");
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
    assert_eq!(m.fault_observations().total(), 0);
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
