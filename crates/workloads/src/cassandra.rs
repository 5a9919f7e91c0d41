//! The Cassandra-like tail-latency workload (paper §5.1, §5.4, Fig. 8).
//!
//! The paper runs `cassandra-stress` against a Cassandra server and plots
//! p95/p99 latency against offered throughput for a write-only and a
//! read-only phase. The dominant GC effect on tail latency is simple:
//! requests that arrive during (or queue behind) a stop-the-world pause
//! wait for it. This module reproduces that mechanism:
//!
//! 1. a server workload (memtable-like allocation pattern) runs under a
//!    collector configuration, yielding a *pause schedule* over simulated
//!    time;
//! 2. an open-loop client generates Poisson arrivals at a target
//!    throughput; a single logical server executes requests FIFO with a
//!    per-request service time, pausing wherever the schedule says the
//!    JVM was stopped;
//! 3. p95/p99 latencies come from the simulated request completions.

use crate::spec::{ClassMix, WorkloadSpec};
use nvmgc_core::stats::PauseSpan;
use nvmgc_memsim::Ns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which cassandra-stress phase to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CassandraPhase {
    /// Insert-only load (larger allocations, higher survival).
    Write,
    /// Read-only load.
    Read,
}

/// The server-side allocation profile for a phase.
pub fn server_spec(phase: CassandraPhase) -> WorkloadSpec {
    match phase {
        CassandraPhase::Write => WorkloadSpec {
            name: "cassandra-write",
            alloc_young_multiple: 12.0,
            // Mutation objects, commit-log buffers, memtable entries.
            mix: vec![
                ClassMix {
                    num_refs: 2,
                    data_bytes: 128,
                    weight: 40,
                },
                ClassMix {
                    num_refs: 1,
                    data_bytes: 512,
                    weight: 25,
                },
                ClassMix {
                    num_refs: 3,
                    data_bytes: 32,
                    weight: 35,
                },
            ],
            survival: 0.45,
            keep_gcs: 2,
            old_link_fraction: 0.3,
            chain_fraction: 0.0,
            cpu_per_alloc_ns: 24.0,
            touches_per_alloc: 5,
            app_threads: 16,
            share_fraction: 0.15,
            old_anchor_bytes: 512 << 10,
        },
        CassandraPhase::Read => WorkloadSpec {
            name: "cassandra-read",
            alloc_young_multiple: 10.0,
            // Response buffers and iterators: shorter-lived, smaller.
            mix: vec![
                ClassMix {
                    num_refs: 1,
                    data_bytes: 256,
                    weight: 40,
                },
                ClassMix {
                    num_refs: 2,
                    data_bytes: 48,
                    weight: 40,
                },
                ClassMix {
                    num_refs: 1,
                    data_bytes: 24,
                    weight: 20,
                },
            ],
            survival: 0.25,
            keep_gcs: 1,
            old_link_fraction: 0.12,
            chain_fraction: 0.0,
            cpu_per_alloc_ns: 26.0,
            touches_per_alloc: 6,
            app_threads: 16,
            share_fraction: 0.1,
            old_anchor_bytes: 512 << 10,
        },
    }
}

/// Latency percentiles from one client simulation.
#[derive(Debug, Clone, Copy)]
pub struct LatencyResult {
    /// Offered load in requests per second.
    pub throughput_rps: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
}

/// Simulates an open-loop client against a pause schedule.
///
/// `pauses` are the half-open STW intervals of the run, in simulated time;
/// `horizon_ns` is the span to generate arrivals over; `service_ns` is the
/// per-request service time; `throughput_rps` the Poisson arrival rate.
pub fn simulate_client(
    pauses: &[PauseSpan],
    horizon_ns: Ns,
    service_ns: f64,
    throughput_rps: f64,
    seed: u64,
) -> LatencyResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / throughput_rps;
    let mut arrivals: Vec<Ns> = Vec::new();
    let mut t = 0f64;
    loop {
        // Exponential inter-arrival times.
        let u: f64 = rng.random();
        t += -mean_gap_ns * (1.0 - u).ln();
        if t >= horizon_ns as f64 {
            break;
        }
        arrivals.push(t as Ns);
    }

    // Single FIFO server that stalls during pauses.
    let mut server_free: Ns = 0;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(arrivals.len());
    let mut pause_idx = 0;
    for &arr in &arrivals {
        let mut start = server_free.max(arr);
        // Service cannot start (or make progress) inside a pause; model a
        // request overlapping a pause as delayed to the pause end.
        while pause_idx < pauses.len() && pauses[pause_idx].end_ns <= start {
            pause_idx += 1;
        }
        let mut k = pause_idx;
        while k < pauses.len() && pauses[k].start_ns < start + service_ns as Ns {
            if start < pauses[k].end_ns {
                start = pauses[k].end_ns;
            }
            k += 1;
        }
        let done = start + service_ns as Ns;
        server_free = done;
        latencies_ms.push((done - arr) as f64 / 1e6);
    }

    LatencyResult {
        throughput_rps,
        p95_ms: percentile(&mut latencies_ms.clone(), 95.0),
        p99_ms: percentile(&mut latencies_ms.clone(), 99.0),
        mean_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
    }
}

fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let rank = (p / 100.0) * (xs.len() - 1) as f64;
    xs[rank.round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: Ns, end_ns: Ns) -> PauseSpan {
        PauseSpan {
            start_ns,
            end_ns,
            mixed: false,
            recovered: false,
        }
    }

    #[test]
    fn specs_differ_by_phase() {
        let w = server_spec(CassandraPhase::Write);
        let r = server_spec(CassandraPhase::Read);
        assert!(w.survival > r.survival);
        assert_ne!(w.name, r.name);
    }

    #[test]
    fn no_pauses_means_low_flat_latency() {
        let r = simulate_client(&[], 1_000_000_000, 20_000.0, 5_000.0, 1);
        assert!(r.p99_ms < 1.0, "p99 {} ms", r.p99_ms);
        assert!(r.mean_ms >= 0.02);
    }

    #[test]
    fn pauses_inflate_tail_latency() {
        // One 50 ms pause in a 1 s horizon.
        let pauses = [span(400_000_000, 450_000_000)];
        let with = simulate_client(&pauses, 1_000_000_000, 20_000.0, 5_000.0, 1);
        let without = simulate_client(&[], 1_000_000_000, 20_000.0, 5_000.0, 1);
        assert!(
            with.p99_ms > 10.0 * without.p99_ms,
            "with {} vs without {}",
            with.p99_ms,
            without.p99_ms
        );
    }

    #[test]
    fn longer_pauses_hurt_more() {
        let short = [span(100_000_000, 110_000_000)];
        let long = [span(100_000_000, 180_000_000)];
        let a = simulate_client(&short, 1_000_000_000, 20_000.0, 8_000.0, 2);
        let b = simulate_client(&long, 1_000_000_000, 20_000.0, 8_000.0, 2);
        assert!(b.p99_ms > a.p99_ms);
    }

    #[test]
    fn saturation_raises_latency_with_throughput() {
        let lo = simulate_client(&[], 500_000_000, 50_000.0, 2_000.0, 3);
        // Offered load close to service capacity (1/50µs = 20k rps).
        let hi = simulate_client(&[], 500_000_000, 50_000.0, 19_000.0, 3);
        assert!(hi.p99_ms > lo.p99_ms);
    }

    #[test]
    fn pauses_after_the_horizon_are_ignored() {
        let pauses = [span(2_000_000_000, 2_100_000_000)];
        let with = simulate_client(&pauses, 1_000_000_000, 20_000.0, 5_000.0, 4);
        let without = simulate_client(&[], 1_000_000_000, 20_000.0, 5_000.0, 4);
        assert_eq!(with.p99_ms, without.p99_ms);
    }

    #[test]
    fn back_to_back_pauses_compound() {
        let one = [span(100_000_000, 150_000_000)];
        let two = [
            span(100_000_000, 150_000_000),
            span(150_000_000, 200_000_000),
        ];
        let a = simulate_client(&one, 1_000_000_000, 20_000.0, 8_000.0, 5);
        let b = simulate_client(&two, 1_000_000_000, 20_000.0, 8_000.0, 5);
        assert!(b.p99_ms > a.p99_ms);
        assert!(b.mean_ms > a.mean_ms);
    }

    #[test]
    fn deterministic_for_seed() {
        let pauses = [span(1_000_000, 2_000_000)];
        let a = simulate_client(&pauses, 100_000_000, 10_000.0, 5_000.0, 9);
        let b = simulate_client(&pauses, 100_000_000, 10_000.0, 5_000.0, 9);
        assert_eq!(a.p99_ms, b.p99_ms);
    }
}
