//! The deterministic fault-injection plane (GC side).
//!
//! A [`FaultPlan`] is a seeded, config-driven schedule of injectable
//! events: device-level faults (latency spikes, bandwidth collapses,
//! stall bursts — carried by the embedded [`MemFaultPlan`] and applied by
//! `nvmgc-memsim`) plus GC-level faults applied by the collector itself —
//! worker pauses and slowdowns in the engine's event queue, forced early
//! write-cache drains, header-map probe-chain saturation, write-cache
//! budget pressure, and crash points at which the crash-point oracle
//! (see [`crate::oracle`]) snapshots collector state and asserts
//! recoverability invariants mid-evacuation.
//!
//! Everything here is pure data evaluated against *simulated* clocks:
//! whether an event fires is a function of the deterministic step order
//! and the plan itself, never of host time or thread scheduling, so the
//! same plan and seed replay identically anywhere.

use nvmgc_memsim::fault::{splitmix64, DeviceFault, FaultWindow, MemFaultPlan};
use nvmgc_memsim::{DeviceId, Ns};

/// How hard the generated schedule leans on the system.
///
/// `Severe` is the maximum documented severity: the graceful-degradation
/// guarantee (no panic, typed errors only) is asserted up to and
/// including this level by the fault matrix and the proptest suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// No faults at all.
    Off,
    /// A handful of small events (2× factors, short windows).
    Mild,
    /// More events with 4× factors and longer windows.
    Moderate,
    /// Maximum documented severity: dense events, up to 16× latency
    /// spikes, chained stalls, sustained header-map saturation and cache
    /// pressure, several crash points.
    Severe,
}

impl Severity {
    /// Stable label used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Off => "off",
            Severity::Mild => "mild",
            Severity::Moderate => "moderate",
            Severity::Severe => "severe",
        }
    }

    /// All levels, in increasing order.
    pub const ALL: [Severity; 4] = [
        Severity::Off,
        Severity::Mild,
        Severity::Moderate,
        Severity::Severe,
    ];
}

/// One injectable GC-level fault event.
#[derive(Debug, Clone, Copy)]
pub enum GcFault {
    /// Worker `worker` loses `pause_ns` the first time its clock reaches
    /// `at_ns` (a de-scheduled GC thread; fires once).
    WorkerPause {
        /// Target worker id.
        worker: usize,
        /// Trigger clock, ns.
        at_ns: Ns,
        /// Length of the pause, ns.
        pause_ns: Ns,
    },
    /// Worker `worker` pays `extra_ns` per step while its clock is inside
    /// `window` (a GC thread sharing its core).
    WorkerSlowdown {
        /// Target worker id.
        worker: usize,
        /// Active window.
        window: FaultWindow,
        /// Extra cost per step, ns.
        extra_ns: Ns,
    },
    /// The next ready cache region is drained at the first step at or
    /// after `at_ns` even if the worker would not otherwise be due
    /// (fires once; a premature drain must still respect ordering).
    ForceEarlyDrain {
        /// Trigger clock, ns.
        at_ns: Ns,
    },
    /// While the window is open, `reserve_bytes` of the write-cache
    /// budget are unavailable, forcing early overflow to direct NVM
    /// copies (the paper's own fallback path).
    CachePressure {
        /// Active window.
        window: FaultWindow,
        /// Bytes subtracted from the budget.
        reserve_bytes: u64,
    },
    /// While the window is open, every header-map `put` behaves as if
    /// bounded probing failed ([`PutOutcome::Full`]), forcing the
    /// abort-to-fallback NVM header install of paper §4.2 / Algorithm 1.
    ///
    /// [`PutOutcome::Full`]: crate::header_map::PutOutcome::Full
    HmapSaturation {
        /// Active window.
        window: FaultWindow,
    },
    /// The first time any worker's clock reaches `at_ns` mid-phase, the
    /// crash-point oracle snapshots collector state and checks the
    /// recoverability invariants (fires once).
    CrashPoint {
        /// Trigger clock, ns.
        at_ns: Ns,
    },
    /// The first time any worker's clock reaches `at_ns` mid-phase, the
    /// oracle takes the NVM durability ledger's crash image — all
    /// non-durable lines discarded, the front write-combining XPLine
    /// possibly torn — and asserts the partially-flushed state is
    /// recoverable (fires once; requires the memsim persistence model).
    PowerFailure {
        /// Trigger clock, ns.
        at_ns: Ns,
    },
}

impl GcFault {
    /// Short human-readable name of the fault shape.
    pub fn name(&self) -> &'static str {
        match self {
            GcFault::WorkerPause { .. } => "worker-pause",
            GcFault::WorkerSlowdown { .. } => "worker-slowdown",
            GcFault::ForceEarlyDrain { .. } => "force-early-drain",
            GcFault::CachePressure { .. } => "cache-pressure",
            GcFault::HmapSaturation { .. } => "hmap-saturation",
            GcFault::CrashPoint { .. } => "crash-point",
            GcFault::PowerFailure { .. } => "power-failure",
        }
    }
}

/// A schedule of GC-level faults. Empty by default.
#[derive(Debug, Clone, Default)]
pub struct GcFaultPlan {
    /// The scheduled fault events.
    pub events: Vec<GcFault>,
}

/// The combined fault plan a run is configured with: device-level faults
/// for the memory system plus GC-level faults for the collector.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed the schedule was generated from (0 for hand-written plans).
    pub seed: u64,
    /// Device-level schedule, installed into the [`MemorySystem`] by the
    /// runner via `set_fault_plan`.
    ///
    /// [`MemorySystem`]: nvmgc_memsim::MemorySystem
    pub mem: MemFaultPlan,
    /// GC-level schedule, applied by the collector's step functions.
    pub gc: GcFaultPlan,
}

impl FaultPlan {
    /// A plan with no faults (the default for every config preset).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty() && self.gc.events.is_empty()
    }

    /// Generates a deterministic schedule from `seed` at `severity`,
    /// spreading event windows over `[0, horizon_ns)` of simulated time.
    ///
    /// The same `(seed, severity, horizon_ns)` triple always yields the
    /// same plan (splitmix64 over the seed; no host entropy).
    pub fn generate(seed: u64, severity: Severity, horizon_ns: Ns) -> Self {
        if severity == Severity::Off || horizon_ns == 0 {
            return FaultPlan {
                seed,
                ..FaultPlan::none()
            };
        }
        let (events_per_kind, factor, window_frac, pause_ns) = match severity {
            Severity::Off => unreachable!(),
            Severity::Mild => (1usize, 2.0f64, 64u64, 20_000u64),
            Severity::Moderate => (2, 4.0, 24, 100_000),
            Severity::Severe => (4, 16.0, 8, 500_000),
        };
        let mut rng = seed ^ 0xFA_17_FA_17;
        let window = |rng: &mut u64| -> FaultWindow {
            let start = splitmix64(rng) % horizon_ns;
            let len = (horizon_ns / window_frac).max(1);
            FaultWindow {
                start,
                end: start.saturating_add(len).min(horizon_ns),
            }
        };
        let mut mem_events = Vec::new();
        let mut gc_events = Vec::new();
        for _ in 0..events_per_kind {
            // Device faults target NVM primarily; severe plans also hit
            // DRAM (where the write cache and header map live).
            let dev = if severity == Severity::Severe && splitmix64(&mut rng).is_multiple_of(4) {
                DeviceId::Dram
            } else {
                DeviceId::Nvm
            };
            mem_events.push(DeviceFault::LatencySpike {
                dev,
                window: window(&mut rng),
                factor,
            });
            mem_events.push(DeviceFault::BandwidthCollapse {
                dev: DeviceId::Nvm,
                window: window(&mut rng),
                factor: (factor / 2.0).max(2.0),
            });
            let stall_start = splitmix64(&mut rng) % horizon_ns;
            let stall_len = (horizon_ns / (window_frac * 4)).max(1);
            mem_events.push(DeviceFault::Stall {
                dev: DeviceId::Nvm,
                window: FaultWindow {
                    start: stall_start,
                    end: stall_start.saturating_add(stall_len).min(horizon_ns),
                },
            });
            // GC faults. Worker targets are spread over a small id range;
            // ids beyond the configured thread count simply never match.
            gc_events.push(GcFault::WorkerPause {
                worker: (splitmix64(&mut rng) % 8) as usize,
                at_ns: splitmix64(&mut rng) % horizon_ns,
                pause_ns,
            });
            gc_events.push(GcFault::WorkerSlowdown {
                worker: (splitmix64(&mut rng) % 8) as usize,
                window: window(&mut rng),
                extra_ns: (pause_ns / 100).max(10),
            });
            gc_events.push(GcFault::ForceEarlyDrain {
                at_ns: splitmix64(&mut rng) % horizon_ns,
            });
            gc_events.push(GcFault::CachePressure {
                window: window(&mut rng),
                reserve_bytes: u64::MAX, // full budget denial while open
            });
            gc_events.push(GcFault::HmapSaturation {
                window: window(&mut rng),
            });
            gc_events.push(GcFault::CrashPoint {
                at_ns: splitmix64(&mut rng) % horizon_ns,
            });
            // Persistence faults join at Moderate and above; Mild plans
            // keep their historical draw sequence (and thus schedules).
            if severity != Severity::Mild {
                let ds_start = splitmix64(&mut rng) % horizon_ns;
                let ds_len = (horizon_ns / (window_frac * 2)).max(1);
                mem_events.push(DeviceFault::WcDrainStall {
                    window: FaultWindow {
                        start: ds_start,
                        end: ds_start.saturating_add(ds_len).min(horizon_ns),
                    },
                });
                gc_events.push(GcFault::PowerFailure {
                    at_ns: splitmix64(&mut rng) % horizon_ns,
                });
            }
        }
        FaultPlan {
            seed,
            mem: MemFaultPlan { events: mem_events },
            gc: GcFaultPlan { events: gc_events },
        }
    }
}

/// Per-cycle counters recording which GC-level faults actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcFaultObservations {
    /// Worker pauses applied.
    pub worker_pauses: u64,
    /// Worker steps taxed by a slowdown window.
    pub worker_slowdowns: u64,
    /// Cache drains forced ahead of schedule.
    pub forced_drains: u64,
    /// Header-map puts forced to the NVM fallback by saturation.
    pub forced_hm_full: u64,
    /// Cache-pair allocations denied by injected budget pressure.
    pub cache_pressure_denials: u64,
    /// Crash-point oracle checks executed.
    pub crash_checks: u64,
    /// Power-failure oracle checks executed.
    pub power_failure_checks: u64,
    /// Non-durable lines a power-failure crash image discarded (summed
    /// over checks; informational, not an event count).
    pub discarded_lines: u64,
    /// Torn front XPLines across power-failure crash images
    /// (informational, not an event count).
    pub torn_lines: u64,
}

impl GcFaultObservations {
    /// Total events observed across all categories.
    pub fn total(&self) -> u64 {
        self.worker_pauses
            + self.worker_slowdowns
            + self.forced_drains
            + self.forced_hm_full
            + self.cache_pressure_denials
            + self.crash_checks
            + self.power_failure_checks
    }
}

/// Mutable per-cycle state of the GC fault plan: which one-shot events
/// have fired, plus the observation counters.
#[derive(Debug, Default)]
pub struct FaultState {
    events: Vec<GcFault>,
    fired: Vec<bool>,
    /// What fired this cycle.
    pub observations: GcFaultObservations,
}

impl FaultState {
    /// Builds the per-cycle state for `plan`.
    pub fn new(plan: &GcFaultPlan) -> Self {
        FaultState {
            events: plan.events.clone(),
            fired: vec![false; plan.events.len()],
            observations: GcFaultObservations::default(),
        }
    }

    /// Whether the plan has any events (fast path check).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Snapshot of which one-shot events have fired, in plan order. Saved
    /// into the crash state so a resumed cycle does not re-fire the same
    /// power failure (or any other one-shot) a second time.
    pub fn fired_flags(&self) -> Vec<bool> {
        self.fired.clone()
    }

    /// Restores a [`fired_flags`](Self::fired_flags) snapshot taken from
    /// the same plan. Length mismatches (a different plan) are ignored.
    pub fn restore_fired(&mut self, flags: &[bool]) {
        if flags.len() == self.fired.len() {
            self.fired.copy_from_slice(flags);
        }
    }

    /// Applies pause/slowdown events to worker `id` at clock `now`,
    /// returning the adjusted clock. One-shot pauses fire at most once.
    pub fn worker_tax(&mut self, id: usize, now: Ns) -> Ns {
        let mut clock = now;
        for (i, ev) in self.events.iter().enumerate() {
            match *ev {
                GcFault::WorkerPause {
                    worker,
                    at_ns,
                    pause_ns,
                } if !self.fired[i] && worker == id && clock >= at_ns => {
                    self.fired[i] = true;
                    self.observations.worker_pauses += 1;
                    clock += pause_ns;
                }
                GcFault::WorkerSlowdown {
                    worker,
                    window,
                    extra_ns,
                } if worker == id && window.contains(clock) => {
                    self.observations.worker_slowdowns += 1;
                    clock += extra_ns;
                }
                _ => {}
            }
        }
        clock
    }

    /// Fires the first unfired one-shot event whose trigger instant —
    /// `trigger` of the event, `None` for other variants — is at or
    /// before `now`: marks it fired, bumps its `counter` and returns
    /// `true`.
    fn take_one_shot(
        &mut self,
        now: Ns,
        trigger: impl Fn(&GcFault) -> Option<Ns>,
        counter: impl FnOnce(&mut GcFaultObservations) -> &mut u64,
    ) -> bool {
        let due = self
            .events
            .iter()
            .zip(&self.fired)
            .position(|(ev, &fired)| !fired && trigger(ev).is_some_and(|at_ns| now >= at_ns));
        let Some(i) = due else {
            return false;
        };
        self.fired[i] = true;
        *counter(&mut self.observations) += 1;
        true
    }

    /// Whether a one-shot [`GcFault::ForceEarlyDrain`] triggers at `now`
    /// (marks it fired and counts it if so).
    pub fn take_forced_drain(&mut self, now: Ns) -> bool {
        self.take_one_shot(
            now,
            |ev| match *ev {
                GcFault::ForceEarlyDrain { at_ns } => Some(at_ns),
                _ => None,
            },
            |o| &mut o.forced_drains,
        )
    }

    /// Write-cache bytes reserved (made unavailable) at `now` by active
    /// cache-pressure windows. Saturates at `u64::MAX`.
    pub fn cache_reserve(&self, now: Ns) -> u64 {
        let mut reserve = 0u64;
        for ev in &self.events {
            if let GcFault::CachePressure {
                window,
                reserve_bytes,
            } = *ev
            {
                if window.contains(now) {
                    reserve = reserve.saturating_add(reserve_bytes);
                }
            }
        }
        reserve
    }

    /// Records that injected pressure denied a cache-pair allocation.
    pub fn note_pressure_denial(&mut self) {
        self.observations.cache_pressure_denials += 1;
    }

    /// Whether header-map saturation is injected at `now` (counts each
    /// forced fallback).
    pub fn hmap_saturated(&mut self, now: Ns) -> bool {
        for ev in &self.events {
            if let GcFault::HmapSaturation { window } = *ev {
                if window.contains(now) {
                    self.observations.forced_hm_full += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Whether a one-shot [`GcFault::CrashPoint`] triggers at `now`
    /// (marks it fired and counts the check if so).
    pub fn take_crash_point(&mut self, now: Ns) -> bool {
        self.take_one_shot(
            now,
            |ev| match *ev {
                GcFault::CrashPoint { at_ns } => Some(at_ns),
                _ => None,
            },
            |o| &mut o.crash_checks,
        )
    }

    /// Whether a one-shot [`GcFault::PowerFailure`] triggers at `now`
    /// (marks it fired and counts the check if so).
    pub fn take_power_failure(&mut self, now: Ns) -> bool {
        self.take_one_shot(
            now,
            |ev| match *ev {
                GcFault::PowerFailure { at_ns } => Some(at_ns),
                _ => None,
            },
            |o| &mut o.power_failure_checks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_scales_with_severity() {
        let a = FaultPlan::generate(7, Severity::Moderate, 1_000_000);
        let b = FaultPlan::generate(7, Severity::Moderate, 1_000_000);
        assert_eq!(a.mem.events.len(), b.mem.events.len());
        assert_eq!(a.gc.events.len(), b.gc.events.len());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let severe = FaultPlan::generate(7, Severity::Severe, 1_000_000);
        assert!(severe.gc.events.len() > a.gc.events.len());
        assert!(FaultPlan::generate(7, Severity::Off, 1_000_000).is_empty());
    }

    #[test]
    fn worker_pause_fires_once_for_its_target() {
        let plan = GcFaultPlan {
            events: vec![GcFault::WorkerPause {
                worker: 1,
                at_ns: 100,
                pause_ns: 1_000,
            }],
        };
        let mut st = FaultState::new(&plan);
        assert_eq!(st.worker_tax(0, 500), 500, "wrong worker unaffected");
        assert_eq!(st.worker_tax(1, 50), 50, "before the trigger");
        assert_eq!(st.worker_tax(1, 500), 1_500, "fires");
        assert_eq!(st.worker_tax(1, 600), 600, "one-shot");
        assert_eq!(st.observations.worker_pauses, 1);
    }

    #[test]
    fn slowdown_taxes_every_step_inside_window() {
        let plan = GcFaultPlan {
            events: vec![GcFault::WorkerSlowdown {
                worker: 0,
                window: FaultWindow {
                    start: 100,
                    end: 200,
                },
                extra_ns: 7,
            }],
        };
        let mut st = FaultState::new(&plan);
        assert_eq!(st.worker_tax(0, 150), 157);
        assert_eq!(st.worker_tax(0, 160), 167);
        assert_eq!(st.worker_tax(0, 250), 250);
        assert_eq!(st.observations.worker_slowdowns, 2);
    }

    #[test]
    fn one_shot_events_fire_once() {
        let plan = GcFaultPlan {
            events: vec![
                GcFault::ForceEarlyDrain { at_ns: 10 },
                GcFault::CrashPoint { at_ns: 20 },
            ],
        };
        let mut st = FaultState::new(&plan);
        assert!(!st.take_forced_drain(5));
        assert!(st.take_forced_drain(15));
        assert!(!st.take_forced_drain(25));
        assert!(st.take_crash_point(30));
        assert!(!st.take_crash_point(40));
        assert_eq!(st.observations.forced_drains, 1);
        assert_eq!(st.observations.crash_checks, 1);
    }

    #[test]
    fn power_failure_is_one_shot_and_generated_above_mild() {
        let plan = GcFaultPlan {
            events: vec![GcFault::PowerFailure { at_ns: 10 }],
        };
        let mut st = FaultState::new(&plan);
        assert!(!st.take_power_failure(5));
        assert!(st.take_power_failure(15));
        assert!(!st.take_power_failure(25));
        assert_eq!(st.observations.power_failure_checks, 1);

        let has_pf = |p: &FaultPlan| {
            p.gc.events
                .iter()
                .any(|e| matches!(e, GcFault::PowerFailure { .. }))
        };
        let has_ds = |p: &FaultPlan| {
            p.mem
                .events
                .iter()
                .any(|e| matches!(e, nvmgc_memsim::DeviceFault::WcDrainStall { .. }))
        };
        let mild = FaultPlan::generate(7, Severity::Mild, 1_000_000);
        assert!(!has_pf(&mild) && !has_ds(&mild));
        let moderate = FaultPlan::generate(7, Severity::Moderate, 1_000_000);
        assert!(has_pf(&moderate) && has_ds(&moderate));
        let severe = FaultPlan::generate(7, Severity::Severe, 1_000_000);
        assert!(has_pf(&severe) && has_ds(&severe));
    }

    #[test]
    fn pressure_and_saturation_follow_their_windows() {
        let plan = GcFaultPlan {
            events: vec![
                GcFault::CachePressure {
                    window: FaultWindow { start: 0, end: 100 },
                    reserve_bytes: 4096,
                },
                GcFault::HmapSaturation {
                    window: FaultWindow {
                        start: 50,
                        end: 150,
                    },
                },
            ],
        };
        let mut st = FaultState::new(&plan);
        assert_eq!(st.cache_reserve(10), 4096);
        assert_eq!(st.cache_reserve(120), 0);
        assert!(st.hmap_saturated(60));
        assert!(!st.hmap_saturated(200));
        assert_eq!(st.observations.forced_hm_full, 1);
    }
}
