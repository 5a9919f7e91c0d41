//! Cassandra-like tail-latency demo (paper §5.4, Fig. 8).
//!
//! Runs a memtable-style server workload under vanilla and optimized G1,
//! then drives one open-loop client at each offered rate against each
//! run's pause schedule and prints the throughput/latency curves for the
//! write and read phases.
//!
//! ```sh
//! cargo run --release --example cassandra_latency
//! ```

use nvmgc_core::GcConfig;
use nvmgc_workloads::cassandra::{client_spec, server_spec, CassandraPhase};
use nvmgc_workloads::{run_app, run_scenario, AppRunConfig};

fn main() {
    let threads = 28;
    println!("== Cassandra-like tail latency, {threads} GC threads ==\n");
    for (phase, phase_name) in [
        (CassandraPhase::Write, "write"),
        (CassandraPhase::Read, "read"),
    ] {
        println!("--- {phase_name} phase ---");
        println!(
            "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7}",
            "kqps", "opt p95", "opt p99", "van p95", "van p99", "p95 x", "p99 x"
        );
        // The pause schedule does not depend on the client: one server
        // run per configuration, every offered rate swept over it.
        let [opt, van] = [GcConfig::plus_all(threads, 0), GcConfig::vanilla(threads)].map(|gc| {
            let mut cfg = AppRunConfig::standard(server_spec(phase), gc);
            cfg.apply_paper_ratios();
            run_app(&cfg).expect("server run succeeds")
        });
        for tput in [10_000.0, 30_000.0, 60_000.0, 100_000.0, 130_000.0] {
            let [opt, van] = [&opt, &van].map(|server| {
                let spec = client_spec(phase, tput);
                let h = run_scenario(&spec, &server.pause_spans, &[], server.total_ns).histogram;
                [0.95, 0.99].map(|q| h.quantile(q) as f64 / 1e6)
            });
            println!(
                "{:>8.0} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>6.2}x {:>6.2}x",
                tput / 1e3,
                opt[0],
                opt[1],
                van[0],
                van[1],
                van[0] / opt[0].max(1e-9),
                van[1] / opt[1].max(1e-9),
            );
        }
        println!();
    }
    println!(
        "Paper Fig. 8 at 130 kqps: p95/p99 read latency improves 5.09x/4.88x, \
         writes 2.74x/2.54x — shorter pauses shrink worst-case queueing."
    );
}
