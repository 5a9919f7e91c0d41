//! Device-level fault descriptions for the deterministic fault plane.
//!
//! A fault is pure data: a simulated-time window plus a severity knob.
//! Whether a fault applies to a given request is a function of the
//! request's start time only, so the same `MemFaultPlan` produces the
//! same grant/latency schedule on every run regardless of host thread
//! count — the property the rest of the simulator is built on.
//!
//! Four device fault shapes are modeled (see DESIGN.md, "Fault plane &
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
//! - **Write-combining drain stall** — NVM's write-combining buffer
//!   drains nothing inside the window, so no accepted line becomes
//!   durable until it closes.
//!
//! A [`MemorySystem`](crate::MemorySystem) sorts a plan's windows by kind
//! and device into [`Windows`], which its owners ask.

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
    /// closes. Only NVM has such a buffer, so the shape names no device
    /// (its trace lane is NVM's); it matters only with the durability
    /// ledger enabled. Latency/bandwidth are unaffected, but bulk stores
    /// crossing a window edge are segmented so lines written inside the
    /// window are recorded as during-stall (see
    /// [`MemStats::bulk_grant_splits`](crate::MemStats::bulk_grant_splits)).
    WcDrainStall {
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
            | DeviceFault::Stall { dev, .. } => dev,
            DeviceFault::WcDrainStall { .. } => DeviceId::Nvm,
        }
    }

    /// The window the fault is open in.
    pub fn window(&self) -> FaultWindow {
        match *self {
            DeviceFault::LatencySpike { window, .. }
            | DeviceFault::BandwidthCollapse { window, .. }
            | DeviceFault::Stall { window, .. }
            | DeviceFault::WcDrainStall { window } => window,
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

/// The installed windows of one fault kind on one device, each with its
/// factor (1.0 for the shapes that have none), in installation order.
///
/// Every owner of injected windows — the memory system's latency spikes,
/// a bandwidth ledger's stalls and collapses, the durability ledger's
/// drain stalls — asks them through these methods, and only these.
#[derive(Debug, Clone, Default)]
pub struct Windows(Vec<(FaultWindow, f64)>);

impl Windows {
    /// Appends a window with its factor.
    pub fn push(&mut self, window: FaultWindow, factor: f64) {
        self.0.push((window, factor));
    }

    /// Whether no window is installed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The first window, in installation order, open at `now`.
    pub fn open_at(&self, now: Ns) -> Option<FaultWindow> {
        self.0.iter().map(|&(w, _)| w).find(|w| w.contains(now))
    }

    /// `x` multiplied by the factor (clamped to at least 1) of each window
    /// open at `now`, one window at a time in installation order, so the
    /// `f64` result is the same whichever owner asks.
    #[inline]
    pub fn scale(&self, mut x: f64, now: Ns) -> f64 {
        for (w, f) in &self.0 {
            if w.contains(now) {
                x *= f.max(1.0);
            }
        }
        x
    }

    /// The start and end of every window.
    pub fn edges(&self) -> impl Iterator<Item = Ns> + '_ {
        self.0.iter().flat_map(|(w, _)| [w.start, w.end])
    }

    /// The earliest window edge strictly after `after`.
    pub fn next_edge(&self, after: Ns) -> Option<Ns> {
        self.edges().filter(|&edge| edge > after).min()
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

    /// Window sets for the crate's tests, in iteration order.
    impl FromIterator<(FaultWindow, f64)> for Windows {
        fn from_iter<I: IntoIterator<Item = (FaultWindow, f64)>>(iter: I) -> Self {
            Windows(iter.into_iter().collect())
        }
    }

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow { start: 10, end: 20 };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }

    fn window(start: Ns, end: Ns) -> FaultWindow {
        FaultWindow { start, end }
    }

    #[test]
    fn next_edge_walks_overlapping_windows_of_two_kinds() {
        let mut stalls = Windows::default();
        stalls.push(window(1_000, 2_000), 1.0);
        let mut collapses = Windows::default();
        collapses.push(window(1_500, 3_000), 4.0);
        // As a bulk run asks them: the earliest edge of either kind.
        let next = |after| {
            [&stalls, &collapses]
                .iter()
                .filter_map(|w| w.next_edge(after))
                .min()
        };
        let mut walked = vec![];
        let mut at = 0;
        while let Some(edge) = next(at) {
            walked.push(edge);
            at = edge;
        }
        assert_eq!(walked, [1_000, 1_500, 2_000, 3_000]);
        assert_eq!(collapses.next_edge(1_000), Some(1_500));
        assert_eq!(stalls.open_at(1_999), Some(window(1_000, 2_000)));
        assert_eq!(stalls.open_at(2_000), None);
    }

    #[test]
    fn scale_multiplies_window_by_window_bit_for_bit() {
        let factors = [1.1, 2.7, 1.3];
        let mut ws = Windows::default();
        for (i, f) in (0..).zip(factors) {
            ws.push(window(i * 100, 1_000), f);
        }
        // A factor below 1 counts as 1.
        ws.push(window(0, 1_000), 0.5);
        let x = 0.1f64;
        let sequential = ((x * factors[0]) * factors[1]) * factors[2];
        assert_eq!(ws.scale(x, 500).to_bits(), sequential.to_bits());
        // Multiplying from 1.0 first is another number: the order is
        // part of the contract.
        let product = factors.iter().fold(1.0, |a, f| a * f);
        assert_ne!((x * product).to_bits(), sequential.to_bits());
        assert_eq!(ws.scale(x, 150).to_bits(), (x * 1.1 * 2.7).to_bits());
        assert_eq!(ws.scale(x, 1_000).to_bits(), x.to_bits());
    }

    #[test]
    fn an_empty_set_is_open_nowhere() {
        let ws = Windows::default();
        assert!(ws.is_empty());
        assert_eq!(ws.open_at(0), None);
        assert_eq!(ws.scale(3.5, 0).to_bits(), 3.5f64.to_bits());
        assert_eq!(ws.edges().count(), 0);
        assert_eq!(ws.next_edge(0), None);
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
