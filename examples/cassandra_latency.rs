//! Cassandra-like tail-latency demo (paper §5.4, Fig. 8).
//!
//! Runs a memtable-style server workload under vanilla and optimized G1,
//! then drives an open-loop client against each run's pause schedule and
//! prints the throughput/latency curves for the write and read phases.
//!
//! ```sh
//! cargo run --release --example cassandra_latency
//! ```

use nvmgc_core::GcConfig;
use nvmgc_workloads::cassandra::{server_spec, simulate_client, CassandraPhase};
use nvmgc_workloads::{run_app, AppRunConfig};

fn main() {
    let threads = 28;
    println!("== Cassandra-like tail latency, {threads} GC threads ==\n");
    for phase in [CassandraPhase::Write, CassandraPhase::Read] {
        let (phase_name, service_ns) = match phase {
            CassandraPhase::Write => ("write", 5_500.0),
            CassandraPhase::Read => ("read", 4_000.0),
        };
        println!("--- {phase_name} phase ---");
        println!(
            "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7}",
            "kqps", "opt p95", "opt p99", "van p95", "van p99", "p95 x", "p99 x"
        );
        for tput in [10_000.0f64, 30_000.0, 60_000.0, 100_000.0, 130_000.0] {
            let mut row = Vec::new();
            for gc in [GcConfig::plus_all(threads, 0), GcConfig::vanilla(threads)] {
                let mut cfg = AppRunConfig::standard(server_spec(phase), gc);
                let hb = cfg.heap_bytes();
                if cfg.gc.write_cache.enabled {
                    cfg.gc.write_cache.max_bytes = hb / 32;
                }
                if cfg.gc.header_map.enabled {
                    cfg.gc.header_map.max_bytes = hb / 32;
                }
                let server = run_app(&cfg).expect("server run succeeds");
                let lat =
                    simulate_client(&server.pause_spans, server.total_ns, service_ns, tput, 42);
                row.push((lat.p95_ms, lat.p99_ms));
            }
            let (opt, van) = (row[0], row[1]);
            println!(
                "{:>8.0} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>6.2}x {:>6.2}x",
                tput / 1e3,
                opt.0,
                opt.1,
                van.0,
                van.1,
                van.0 / opt.0.max(1e-9),
                van.1 / opt.1.max(1e-9),
            );
        }
        println!();
    }
    println!(
        "Paper Fig. 8 at 130 kqps: p95/p99 read latency improves 5.09x/4.88x, \
         writes 2.74x/2.54x — shorter pauses shrink worst-case queueing."
    );
}
