//! Open-loop latency scenarios: the repository's one client model.
//!
//! A request that arrives during, or queues behind, a stop-the-world
//! pause waits for it (paper §5.4). This module plays that mechanism for
//! *client cohorts*: a seeded population of `clients` open-loop issuers
//! whose aggregate arrival stream is charged in micro-batches — one FIFO
//! queue operation and one [`HdrHistogram::record_n`] per `batch`
//! requests, the client-side analog of the simulator's `charge_bulk`.
//! One run therefore simulates millions of clients at the cost of
//! thousands of queue steps, deterministically; Fig. 8's single client
//! at a fixed offered rate is the `clients: 1, batch: 1` corner
//! ([`cassandra::client_spec`](crate::cassandra::client_spec)).
//!
//! A [`ScenarioSpec`] shapes the load over the server run's horizon:
//!
//! - **steady** — flat arrivals at the base rate;
//! - **diurnal** — a piecewise-linear day curve (trough ×0.3 to peak
//!   ×1.35 of base);
//! - **flash-crowd** — ×8 arrival burst over 10% of the horizon,
//!   saturating the server even with no GC pause in sight;
//! - **hot-key** — a seeded 20% of batches hit a hot key and cost ×4
//!   service;
//! - **slow-consumer** — periodic downstream backpressure triples
//!   service time for a quarter of each period.
//!
//! Every multiplier is piecewise-linear or a seeded
//! [`splitmix64`] draw — no transcendental math — so results are
//! byte-identical across hosts.
//!
//! Latencies that exceed the SLO are folded into *violation windows*
//! (consecutive violating batches merged), and each window is attributed
//! to the concurrent server-side activity: overlapping GC
//! [`PauseSpan`]s, injected-fault windows and persistence-fence instants
//! from the trace layer. The scenario-matrix gate requires at least one
//! GC-attributed window — the paper's Fig. 8 tail-latency story, made
//! checkable.

use nvmgc_core::stats::PauseSpan;
use nvmgc_memsim::fault::splitmix64;
use nvmgc_memsim::{Ns, TraceCat, TraceEvent};
use nvmgc_metrics::hdr::{HdrHistogram, LatencyQuantiles};
use serde::Serialize;

/// The load shapes the suite sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Flat arrivals at the base rate.
    Steady,
    /// Piecewise-linear day curve: overnight trough to evening peak.
    Diurnal,
    /// A burst multiplies arrivals ×8 over 10% of the horizon.
    FlashCrowd,
    /// A seeded 20% of batches hit a hot key costing ×4 service time.
    HotKeySkew,
    /// Periodic downstream backpressure triples service time for a
    /// quarter of each of five periods.
    SlowConsumer,
}

impl ScenarioKind {
    /// Canonical label used in cell names and result files.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::HotKeySkew => "hot-key",
            ScenarioKind::SlowConsumer => "slow-consumer",
        }
    }

    /// All scenario kinds, in sweep order.
    pub fn all() -> [ScenarioKind; 5] {
        [
            ScenarioKind::Steady,
            ScenarioKind::Diurnal,
            ScenarioKind::FlashCrowd,
            ScenarioKind::HotKeySkew,
            ScenarioKind::SlowConsumer,
        ]
    }

    /// Arrival-rate multiplier at normalized time `x ∈ [0, 1]`.
    fn arrival_multiplier(&self, x: f64) -> f64 {
        match self {
            ScenarioKind::Steady | ScenarioKind::HotKeySkew | ScenarioKind::SlowConsumer => 1.0,
            ScenarioKind::Diurnal => piecewise(DIURNAL_CURVE, x),
            ScenarioKind::FlashCrowd => {
                if (0.30..0.40).contains(&x) {
                    8.0
                } else {
                    1.0
                }
            }
        }
    }

    /// Service-time multiplier for a batch arriving at normalized time
    /// `x`, with `draw ∈ [0, 1)` the batch's seeded uniform.
    fn service_multiplier(&self, x: f64, draw: f64) -> f64 {
        match self {
            ScenarioKind::Steady | ScenarioKind::Diurnal | ScenarioKind::FlashCrowd => 1.0,
            ScenarioKind::HotKeySkew => {
                if draw < 0.20 {
                    4.0
                } else {
                    1.0
                }
            }
            ScenarioKind::SlowConsumer => {
                // Five backpressure periods across the horizon; service
                // triples during the first quarter of each.
                let phase = x * 5.0;
                if phase - phase.floor() < 0.25 {
                    3.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// The diurnal day curve as `(x, multiplier)` knots: overnight trough,
/// morning ramp, evening peak, late-night fall. Piecewise-linear so the
/// evaluation uses only IEEE `+ - * /`.
const DIURNAL_CURVE: &[(f64, f64)] = &[
    (0.0, 0.45),
    (0.125, 0.30),
    (0.25, 0.50),
    (0.375, 0.90),
    (0.5, 1.20),
    (0.625, 1.35),
    (0.75, 1.10),
    (0.875, 0.70),
    (1.0, 0.45),
];

/// Linear interpolation over sorted `(x, y)` knots, clamped at the ends.
fn piecewise(knots: &[(f64, f64)], x: f64) -> f64 {
    if x <= knots[0].0 {
        return knots[0].1;
    }
    for w in knots.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x <= x1 {
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    knots[knots.len() - 1].1
}

/// One seeded open-loop scenario: a client population, its load shape,
/// and the SLO the suite accounts violations against.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The load shape.
    pub kind: ScenarioKind,
    /// Simulated open-loop clients in the cohort population.
    pub clients: u64,
    /// Per-client request rate; aggregate base rate is
    /// `clients × rps_per_client`.
    pub rps_per_client: f64,
    /// Requests charged per cohort micro-batch (one queue operation and
    /// one histogram record per batch).
    pub batch: u64,
    /// Base per-request service time, ns.
    pub service_ns: f64,
    /// The latency SLO; a batch whose latency exceeds it violates.
    pub slo_ns: u64,
    /// Seed for arrival jitter and per-batch draws.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The standard million-client population: 1e6 clients at 0.5 rps
    /// each (500k rps aggregate), 100-request micro-batches, 350 ns base
    /// service, 500 µs SLO. The raw utilization is a modest 0.175
    /// because the matrix's server runs spend well over half their
    /// horizon in GC pauses — *effective* utilization roughly triples,
    /// and a sub-millisecond pause is enough to blow the SLO for every
    /// batch queued behind it.
    pub fn new(kind: ScenarioKind, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            kind,
            clients: 1_000_000,
            rps_per_client: 0.5,
            batch: 100,
            service_ns: 350.0,
            slo_ns: 500_000,
            seed,
        }
    }

    /// Aggregate base arrival rate, requests per second.
    pub fn aggregate_rps(&self) -> f64 {
        self.clients as f64 * self.rps_per_client
    }
}

/// An SLO-violation window: a maximal run of consecutive violating
/// batches, attributed to the server activity it overlapped.
#[derive(Debug, Clone, Serialize)]
pub struct SloWindow {
    /// Arrival of the first violating batch, ns.
    pub start_ns: Ns,
    /// Completion of the last violating batch, ns.
    pub end_ns: Ns,
    /// Requests inside the window.
    pub requests: u64,
    /// Worst request latency inside the window, ns.
    pub worst_ns: u64,
    /// Distinct kinds of GC pause overlapping the window, in pause
    /// order (`gc-young`, `gc-mixed`, `gc-recovery`).
    pub gc_causes: Vec<String>,
    /// Total GC pause time overlapping the window, ns.
    pub gc_pause_ns: Ns,
    /// Distinct injected-fault windows overlapping, by fault name.
    pub fault_causes: Vec<String>,
    /// Persistence-fence instants inside the window.
    pub fence_count: u64,
}

impl SloWindow {
    /// Whether a GC pause overlapped this violation — the property the
    /// scenario-matrix gate demands of at least one cell.
    pub fn is_gc_attributed(&self) -> bool {
        !self.gc_causes.is_empty()
    }
}

/// The outcome of one scenario run: the full latency distribution plus
/// the attributed SLO-violation windows.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// Requests simulated (the histogram's count).
    pub requests: u64,
    /// Cohort micro-batches processed.
    pub batches: u64,
    /// The SLO threshold the windows were accounted against, ns.
    pub slo_ns: u64,
    /// Per-request latency distribution.
    pub histogram: HdrHistogram,
    /// Attributed violation windows, in time order.
    pub violations: Vec<SloWindow>,
}

impl ScenarioResult {
    /// The standard report quantile set.
    pub fn quantiles_ms(&self) -> LatencyQuantiles {
        self.histogram.quantiles_ms()
    }

    /// Violation windows overlapping at least one GC pause.
    pub fn gc_attributed_windows(&self) -> usize {
        self.violations
            .iter()
            .filter(|w| w.is_gc_attributed())
            .count()
    }

    /// Requests inside violation windows.
    pub fn violating_requests(&self) -> u64 {
        self.violations.iter().map(|w| w.requests).sum()
    }
}

/// A uniform draw in `[0, 1)` from a splitmix64 stream, using only the
/// top 53 bits (an exact dyadic rational — no rounding).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs one open-loop cohort scenario against a server run's pause
/// schedule and trace.
///
/// `pauses` must be in time order (as [`AppRunResult::pause_spans`]
/// records them); `trace` is consulted for fault windows and fence
/// instants (pass `&[]` when the server ran untraced); `horizon_ns` is
/// the span to generate arrivals over, normally the server's `total_ns`.
///
/// [`AppRunResult::pause_spans`]: crate::runner::AppRunResult::pause_spans
pub fn run_scenario(
    spec: &ScenarioSpec,
    pauses: &[PauseSpan],
    trace: &[TraceEvent],
    horizon_ns: Ns,
) -> ScenarioResult {
    let mut state = spec.seed ^ 0x5C3A_9A11_0B6F_D2E1;
    let mut histogram = HdrHistogram::new();
    let mut batches = 0u64;
    let horizon = horizon_ns as f64;
    let base_rate = spec.aggregate_rps();

    let mut t = 0f64;
    let mut server_free: Ns = 0;
    let mut pause_idx = 0usize;
    let mut violations: Vec<SloWindow> = Vec::new();
    let mut open: Option<SloWindow> = None;

    loop {
        let x = t / horizon;
        // Expected batch gap at the current rate, jittered by a seeded
        // uniform in [0.5, 1.5) (mean 1.0 — the rate is preserved).
        let gap_ns = spec.batch as f64 * 1e9 / (base_rate * spec.kind.arrival_multiplier(x));
        t += gap_ns * (0.5 + unit(&mut state));
        if t >= horizon {
            break;
        }
        let arr = t as Ns;
        let draw = unit(&mut state);
        let service =
            (spec.batch as f64 * spec.service_ns * spec.kind.service_multiplier(x, draw)) as Ns;

        // Single FIFO server; service cannot make progress inside a
        // stop-the-world pause, so a request overlapping one is pushed
        // past its end.
        let mut start = server_free.max(arr);
        while pause_idx < pauses.len() && pauses[pause_idx].end_ns <= start {
            pause_idx += 1;
        }
        let mut k = pause_idx;
        while k < pauses.len() && pauses[k].start_ns < start + service {
            if start < pauses[k].end_ns {
                start = pauses[k].end_ns;
            }
            k += 1;
        }
        let done = start + service;
        server_free = done;
        let latency = done - arr;
        histogram.record_n(latency, spec.batch);
        batches += 1;

        if latency > spec.slo_ns {
            match open.as_mut() {
                Some(w) => {
                    w.end_ns = done;
                    w.requests += spec.batch;
                    w.worst_ns = w.worst_ns.max(latency);
                }
                None => {
                    open = Some(SloWindow {
                        start_ns: arr,
                        end_ns: done,
                        requests: spec.batch,
                        worst_ns: latency,
                        gc_causes: Vec::new(),
                        gc_pause_ns: 0,
                        fault_causes: Vec::new(),
                        fence_count: 0,
                    });
                }
            }
        } else if let Some(w) = open.take() {
            violations.push(w);
        }
    }
    if let Some(w) = open.take() {
        violations.push(w);
    }

    for w in &mut violations {
        attribute(w, pauses, trace);
    }

    ScenarioResult {
        requests: histogram.count(),
        batches,
        slo_ns: spec.slo_ns,
        histogram,
        violations,
    }
}

/// Fills a window's attribution from the pause schedule and trace:
/// distinct overlapping GC-pause kinds plus total overlapped pause
/// time, distinct overlapping injected-fault names, and the count of
/// persistence-fence instants inside the window.
fn attribute(w: &mut SloWindow, pauses: &[PauseSpan], trace: &[TraceEvent]) {
    for p in pauses {
        if p.overlaps(w.start_ns, w.end_ns) {
            let overlap = p.end_ns.min(w.end_ns) - p.start_ns.max(w.start_ns);
            w.gc_pause_ns += overlap;
            let kind = p.kind().to_owned();
            if !w.gc_causes.contains(&kind) {
                w.gc_causes.push(kind);
            }
        }
    }
    for e in trace {
        match e.cat {
            TraceCat::Fault if e.ts < w.end_ns && w.start_ns < e.ts + e.dur => {
                let name = e.name.to_owned();
                if !w.fault_causes.contains(&name) {
                    w.fault_causes.push(name);
                }
            }
            TraceCat::Fence if (w.start_ns..w.end_ns).contains(&e.ts) => {
                w.fence_count += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pause(start: Ns, end: Ns) -> PauseSpan {
        PauseSpan {
            start_ns: start,
            end_ns: end,
            mixed: false,
            recovered: false,
            before_bytes: 0,
            after_bytes: 0,
        }
    }

    const HORIZON: Ns = 200_000_000; // 200 ms

    #[test]
    fn steady_scenario_is_deterministic_and_bulk_charged() {
        let spec = ScenarioSpec::new(ScenarioKind::Steady, 7);
        let a = run_scenario(&spec, &[], &[], HORIZON);
        let b = run_scenario(&spec, &[], &[], HORIZON);
        assert_eq!(a.histogram.encode(), b.histogram.encode());
        assert_eq!(a.requests, a.batches * spec.batch);
        // 500k rps over 200 ms ≈ 100k requests in ≈1000 batches.
        assert!(a.requests > 50_000, "requests {}", a.requests);
        assert!(spec.clients >= 1_000_000);
    }

    #[test]
    fn unloaded_steady_run_meets_the_slo() {
        let spec = ScenarioSpec::new(ScenarioKind::Steady, 7);
        let r = run_scenario(&spec, &[], &[], HORIZON);
        assert!(
            r.violations.is_empty(),
            "no pauses, utilization 0.175: {:?}",
            r.violations.first()
        );
        let q = r.quantiles_ms();
        assert!(q.p50_ms > 0.0 && q.p9999_ms >= q.p999_ms && q.p999_ms >= q.p99_ms);
    }

    #[test]
    fn a_long_pause_creates_a_gc_attributed_violation() {
        let spec = ScenarioSpec::new(ScenarioKind::Steady, 7);
        // A 5 ms stop-the-world pause mid-run: every batch that arrives
        // during or queues behind it blows the 1 ms SLO.
        let pauses = [pause(100_000_000, 105_000_000)];
        let r = run_scenario(&spec, &pauses, &[], HORIZON);
        assert!(r.gc_attributed_windows() >= 1, "{:?}", r.violations);
        let w = r
            .violations
            .iter()
            .find(|w| w.is_gc_attributed())
            .expect("attributed window");
        assert_eq!(w.gc_causes, vec!["gc-young".to_owned()]);
        assert!(w.gc_pause_ns > 0 && w.worst_ns > spec.slo_ns);
        // Tail quantiles see the pause; the median does not.
        assert!(r.quantiles_ms().p9999_ms >= 1.0);
        assert!(r.quantiles_ms().p50_ms < 1.0);
    }

    #[test]
    fn flash_crowd_saturates_without_any_pause() {
        let spec = ScenarioSpec::new(ScenarioKind::FlashCrowd, 7);
        let r = run_scenario(&spec, &[], &[], HORIZON);
        // The ×8 burst exceeds raw capacity; violations appear but none
        // are GC-attributed (there were no pauses).
        assert!(!r.violations.is_empty());
        assert_eq!(r.gc_attributed_windows(), 0);
        let steady = run_scenario(
            &ScenarioSpec::new(ScenarioKind::Steady, 7),
            &[],
            &[],
            HORIZON,
        );
        assert!(r.quantiles_ms().p99_ms > steady.quantiles_ms().p99_ms);
    }

    #[test]
    fn diurnal_peak_shifts_load_without_saturating() {
        let spec = ScenarioSpec::new(ScenarioKind::Diurnal, 7);
        let r = run_scenario(&spec, &[], &[], HORIZON);
        let steady = run_scenario(
            &ScenarioSpec::new(ScenarioKind::Steady, 7),
            &[],
            &[],
            HORIZON,
        );
        // Peak ×1.35 keeps utilization under 1: no violations, but
        // fewer requests overall (the day curve's mean is below 1).
        assert!(r.violations.is_empty());
        assert!(r.requests < steady.requests);
    }

    #[test]
    fn hot_keys_and_backpressure_inflate_the_tail() {
        let steady = run_scenario(
            &ScenarioSpec::new(ScenarioKind::Steady, 7),
            &[],
            &[],
            HORIZON,
        );
        for kind in [ScenarioKind::HotKeySkew, ScenarioKind::SlowConsumer] {
            let r = run_scenario(&ScenarioSpec::new(kind, 7), &[], &[], HORIZON);
            assert!(
                r.quantiles_ms().p999_ms > steady.quantiles_ms().p999_ms,
                "{} should raise p99.9",
                kind.label()
            );
        }
    }

    #[test]
    fn attribution_separates_gc_from_faults_and_fences() {
        let spec = ScenarioSpec::new(ScenarioKind::Steady, 7);
        let pauses = [pause(50_000_000, 54_000_000)];
        let trace = [
            TraceEvent {
                ts: 51_000_000,
                dur: 2_000_000,
                track: 0,
                name: "latency-spike",
                cat: TraceCat::Fault,
                arg: 0,
            },
            TraceEvent {
                ts: 52_000_000,
                dur: 0,
                track: 0,
                name: "fence",
                cat: TraceCat::Fence,
                arg: 1,
            },
            // Outside any violation window: must not be attributed.
            TraceEvent {
                ts: 190_000_000,
                dur: 1_000,
                track: 0,
                name: "latency-spike",
                cat: TraceCat::Fault,
                arg: 0,
            },
        ];
        let r = run_scenario(&spec, &pauses, &trace, HORIZON);
        let w = r
            .violations
            .iter()
            .find(|w| w.is_gc_attributed())
            .expect("attributed window");
        assert_eq!(w.fault_causes, vec!["latency-spike".to_owned()]);
        assert_eq!(w.fence_count, 1);
    }

    /// Fig. 8's corner of the engine: one client, `batch: 1`, so every
    /// request is its own queue operation — a path the cohort tests above
    /// (`batch: 100`) never take.
    #[test]
    fn a_single_client_queues_behind_pauses_and_its_own_load() {
        const MS: Ns = 1_000_000;
        let client = |service_ns: f64, rps: f64| ScenarioSpec {
            kind: ScenarioKind::Steady,
            clients: 1,
            rps_per_client: rps,
            batch: 1,
            service_ns,
            slo_ns: u64::MAX,
            seed: 5,
        };
        let light = client(20_000.0, 8_000.0);
        // Service capacity is 1/50 µs = 20k rps.
        let (idle, busy) = (client(50_000.0, 2_000.0), client(50_000.0, 19_000.0));
        // (behaviour, horizon, baseline, contender, quantiles that must
        // rise from baseline to contender — none means nothing may move).
        type Side<'a> = (&'a ScenarioSpec, &'a [PauseSpan]);
        let cases: [(&str, Ns, Side, Side, &[f64]); 4] = [
            (
                "a longer pause hurts more",
                1_000 * MS,
                (&light, &[pause(100 * MS, 110 * MS)]),
                (&light, &[pause(100 * MS, 180 * MS)]),
                &[0.99],
            ),
            (
                "back-to-back pauses compound",
                1_000 * MS,
                (&light, &[pause(100 * MS, 150 * MS)]),
                (
                    &light,
                    &[pause(100 * MS, 150 * MS), pause(150 * MS, 200 * MS)],
                ),
                &[0.95, 0.99],
            ),
            (
                "pauses after the horizon change nothing",
                1_000 * MS,
                (&light, &[]),
                (&light, &[pause(2_000 * MS, 2_100 * MS)]),
                &[],
            ),
            (
                "load near service capacity raises the tail with no pause",
                500 * MS,
                (&idle, &[]),
                (&busy, &[]),
                &[0.99],
            ),
        ];
        for (behaviour, horizon, base, contender, rising) in cases {
            let a = run_scenario(base.0, base.1, &[], horizon).histogram;
            let b = run_scenario(contender.0, contender.1, &[], horizon).histogram;
            assert!(a.count() > 500, "{behaviour}: {} requests", a.count());
            if rising.is_empty() {
                assert_eq!(a.encode(), b.encode(), "{behaviour}");
            }
            for &q in rising {
                assert!(
                    b.quantile(q) > a.quantile(q),
                    "{behaviour}: q{q} {} vs {}",
                    b.quantile(q),
                    a.quantile(q)
                );
            }
        }
    }

    #[test]
    fn piecewise_interpolates_and_clamps() {
        let knots = [(0.0, 1.0), (0.5, 3.0), (1.0, 2.0)];
        assert_eq!(piecewise(&knots, -1.0), 1.0);
        assert_eq!(piecewise(&knots, 0.25), 2.0);
        assert_eq!(piecewise(&knots, 0.75), 2.5);
        assert_eq!(piecewise(&knots, 2.0), 2.0);
    }

    #[test]
    fn scenario_labels_are_stable() {
        let labels: Vec<&str> = ScenarioKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            [
                "steady",
                "diurnal",
                "flash-crowd",
                "hot-key",
                "slow-consumer"
            ]
        );
    }
}
