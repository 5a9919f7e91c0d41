//! The Cassandra-like tail-latency workload (paper §5.1, §5.4, Fig. 8).
//!
//! The paper runs `cassandra-stress` against a Cassandra server and plots
//! p95/p99 latency against offered throughput for a write-only and a
//! read-only phase. The dominant GC effect on tail latency is simple:
//! requests that arrive during (or queue behind) a stop-the-world pause
//! wait for it. This module holds what *defines* that workload; the
//! mechanism itself is [`run_scenario`](crate::scenario::run_scenario):
//!
//! 1. [`server_spec`] — a server workload (memtable-like allocation
//!    pattern) that runs under a collector configuration, yielding a
//!    *pause schedule* over simulated time;
//! 2. [`client_spec`] — one open-loop client at the offered throughput
//!    with the phase's per-request service time, which the cohort engine
//!    plays against that schedule on a single FIFO server;
//! 3. p95/p99 latencies are read off the run's latency histogram, so each
//!    is a bucket bound within 3.1 % of the order statistic
//!    ([`nvmgc_metrics::hdr`]).

use crate::scenario::{ScenarioKind, ScenarioSpec};
use crate::spec::{ClassMix, WorkloadSpec};

/// Which cassandra-stress phase to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CassandraPhase {
    /// Insert-only load (larger allocations, higher survival).
    Write,
    /// Read-only load.
    Read,
}

impl CassandraPhase {
    /// Per-request service time, ns: writes are heavier than reads.
    pub fn service_ns(self) -> f64 {
        match self {
            CassandraPhase::Write => 5_500.0,
            CassandraPhase::Read => 4_000.0,
        }
    }
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

/// The Fig. 8 client for a phase: one open-loop issuer offering
/// `throughput_rps`, one request per queue operation, no SLO accounting.
pub fn client_spec(phase: CassandraPhase, throughput_rps: f64) -> ScenarioSpec {
    ScenarioSpec {
        kind: ScenarioKind::Steady,
        clients: 1,
        rps_per_client: throughput_rps,
        batch: 1,
        service_ns: phase.service_ns(),
        slo_ns: u64::MAX,
        seed: 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_differ_by_phase() {
        let w = server_spec(CassandraPhase::Write);
        let r = server_spec(CassandraPhase::Read);
        assert!(w.survival > r.survival);
        assert_ne!(w.name, r.name);
    }

    #[test]
    fn client_spec_offers_the_requested_rate_at_the_phase_service_time() {
        for phase in [CassandraPhase::Write, CassandraPhase::Read] {
            for rps in [10_000.0, 60_000.0, 130_000.0] {
                let spec = client_spec(phase, rps);
                assert_eq!(spec.aggregate_rps(), rps);
                assert_eq!(spec.service_ns, phase.service_ns());
                assert_eq!((spec.kind, spec.batch), (ScenarioKind::Steady, 1));
            }
        }
        assert!(CassandraPhase::Write.service_ns() > CassandraPhase::Read.service_ns());
    }
}
