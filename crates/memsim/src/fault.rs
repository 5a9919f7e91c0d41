//! Device-level fault descriptions for the deterministic fault plane.
//!
//! A fault is pure data: a simulated-time window plus a severity knob.
//! Whether a fault applies to a given request is a function of the
//! request's start time only, so the same `MemFaultPlan` produces the
//! same grant/latency schedule on every run regardless of host thread
//! count — the property the rest of the simulator is built on.
//!
//! Three device fault shapes are modeled (see DESIGN.md, "Fault plane &
//! crash-point oracle"):
//!
//! - **Latency spike** — every access to the device completes with its
//!   latency multiplied by `factor` while the window is open (thermal
//!   throttling, media retries).
//! - **Bandwidth collapse** — the weighted-byte cost of every grant is
//!   inflated by `factor` inside the window (the device momentarily
//!   sustains only `1/factor` of its budget).
//! - **Stall** — the device accepts no new grants inside the window;
//!   requests are deferred past its end with a bounded retry count.

use crate::device::DeviceId;
use crate::Ns;

/// A half-open window `[start, end)` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First nanosecond the fault is active.
    pub start: Ns,
    /// First nanosecond after the fault ends.
    pub end: Ns,
}

impl FaultWindow {
    /// Whether `now` falls inside the window.
    #[inline]
    pub fn contains(&self, now: Ns) -> bool {
        now >= self.start && now < self.end
    }
}

/// One injectable device-level fault event.
#[derive(Debug, Clone, Copy)]
pub enum DeviceFault {
    /// Device latency multiplied by `factor` inside `window`.
    LatencySpike {
        /// Affected device.
        dev: DeviceId,
        /// Active window.
        window: FaultWindow,
        /// Latency multiplier (>= 1.0).
        factor: f64,
    },
    /// Grant cost inflated by `factor` inside `window`.
    BandwidthCollapse {
        /// Affected device.
        dev: DeviceId,
        /// Active window.
        window: FaultWindow,
        /// Weighted-cost multiplier (>= 1.0).
        factor: f64,
    },
    /// No grants issued inside `window`; requests defer past its end.
    Stall {
        /// Affected device.
        dev: DeviceId,
        /// Active window.
        window: FaultWindow,
    },
    /// The device's internal write-combining buffer stops draining
    /// inside `window`: accepted XPLines pile up past the buffer
    /// capacity and nothing new becomes durable until the window
    /// closes. Only meaningful on NVM with the durability ledger
    /// enabled. Latency/bandwidth are unaffected, but bulk stores
    /// crossing a window edge are segmented so lines written inside the
    /// window are recorded as during-stall (see
    /// [`MemStats::bulk_grant_splits`](crate::MemStats::bulk_grant_splits)).
    WcDrainStall {
        /// Affected device.
        dev: DeviceId,
        /// Active window.
        window: FaultWindow,
    },
}

impl DeviceFault {
    /// The device the fault applies to.
    pub fn device(&self) -> DeviceId {
        match *self {
            DeviceFault::LatencySpike { dev, .. }
            | DeviceFault::BandwidthCollapse { dev, .. }
            | DeviceFault::Stall { dev, .. }
            | DeviceFault::WcDrainStall { dev, .. } => dev,
        }
    }

    /// Short human-readable name of the fault shape.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceFault::LatencySpike { .. } => "latency-spike",
            DeviceFault::BandwidthCollapse { .. } => "bandwidth-collapse",
            DeviceFault::Stall { .. } => "device-stall",
            DeviceFault::WcDrainStall { .. } => "wc-drain-stall",
        }
    }
}

/// A schedule of device-level faults. Empty by default (no faults).
#[derive(Debug, Clone, Default)]
pub struct MemFaultPlan {
    /// The scheduled fault events, in no particular order.
    pub events: Vec<DeviceFault>,
}

impl MemFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        MemFaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Counters recording how often injected device faults actually fired.
///
/// Used by tests and the fault-matrix harness to confirm a schedule was
/// exercised (a plan whose windows never overlap traffic proves nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultObservations {
    /// Accesses whose latency was inflated by an active spike.
    pub latency_spikes: u64,
    /// Grants whose weighted cost was inflated by a collapse window.
    pub collapsed_grants: u64,
    /// Grant attempts deferred past a stall window.
    pub stall_deferrals: u64,
    /// Grants that exhausted the bounded stall-retry budget and fell back
    /// to jumping past every scheduled stall window at once.
    pub stall_retry_aborts: u64,
    /// Capacity drains of the write-combining buffer deferred by an open
    /// drain-stall window.
    pub wc_drain_stalls: u64,
    /// Bandwidth-ledger epoch accesses that referenced an epoch older
    /// than the advanced ledger base and were clamped to it.
    pub stale_epoch_grants: u64,
}

impl FaultObservations {
    /// Sum of all counters; nonzero iff any fault fired.
    pub fn total(&self) -> u64 {
        self.latency_spikes
            + self.collapsed_grants
            + self.stall_deferrals
            + self.stall_retry_aborts
            + self.wc_drain_stalls
            + self.stale_epoch_grants
    }
}

/// One step of the splitmix64 sequence; the deterministic generator used
/// to derive fault schedules from a seed without pulling in `rand`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow { start: 10, end: 20 };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = 42u64;
        let mut b = 42u64;
        let x = splitmix64(&mut a);
        let y = splitmix64(&mut b);
        assert_eq!(x, y);
        assert_ne!(splitmix64(&mut a), x);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(MemFaultPlan::none().is_empty());
        let plan = MemFaultPlan {
            events: vec![DeviceFault::Stall {
                dev: DeviceId::Nvm,
                window: FaultWindow { start: 0, end: 1 },
            }],
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.events[0].name(), "device-stall");
    }
}
