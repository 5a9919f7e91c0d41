//! One run of one workload: set-up, gates, timed passes, metrics.

use crate::host::HostSpeed;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::micro;
use crate::sim::{fnv, ratio, SimCounts, FNV_SEED};
use crate::spans::{Recorder, SpanTotal};
use crate::stats::{median, op_tail};
use crate::workloads::{set_up, LayerExtras, Seeds, Tally, Workload, OUT_DIR};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub fault_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The harnesses' own seed pair. `--seed` moves the first only: a fault plan
/// from another seed crashes at other instants and replays 0 to 65 000
/// forwarding records where this one replays 17 000, so `durable_crash` on an
/// arbitrary fault seed is another workload (its engine steps vary by 13 %),
/// while on this one they vary by 1 % over the workload seeds.
pub const DEFAULT_SEED: u64 = 0x5EED;
pub const DEFAULT_FAULT_SEED: u64 = 0xB0A7;
/// Default run length: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Set-ups timed per untraced run: at least `MIN_SETUPS`, then more while
/// they have taken under `SETUP_BUDGET_S` in all, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// Fewest passes a run makes, and the untraced/traced pairs of a traced run.
const MIN_PASSES: usize = 3;

/// What a run reports: the last line of its standard output.
pub struct RunReport {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the driver's contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A timed interval: its wall, and when it was, for the host-speed correction.
#[derive(Clone, Copy)]
struct Timed {
    secs: f64,
    start: Instant,
    end: Instant,
}

impl Timed {
    /// Times `f`. Where only a part of `f` is the timed one, the caller
    /// narrows `secs` to it; `start` and `end` stay around the whole.
    fn around<T>(f: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        (value, Timed { secs, start, end })
    }

    /// The wall a quiet host would have taken (see [`HostSpeed`]).
    fn quiet_s(&self, host: &HostSpeed) -> f64 {
        self.secs / host.slowdown(self.start, self.end)
    }
}

/// One executed pass.
struct Pass {
    /// The timed part of each op.
    ops: Vec<Timed>,
    epilogue: Timed,
    sim_ns: u64,
    sim: SimCounts,
    /// Digest of every op's simulated outcome and of the summed counts.
    digest: u64,
}

impl Pass {
    /// The pass's timed wall as the clock read it.
    fn raw_wall_s(&self) -> f64 {
        self.ops.iter().map(|op| op.secs).sum::<f64>() + self.epilogue.secs
    }
}

/// Each op's quiet-host wall: the median over `passes`, seconds.
fn quiet_ops_s(passes: &[Pass], host: &HostSpeed) -> Vec<f64> {
    (0..passes[0].ops.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.ops[i].quiet_s(host))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// How much slower an op ran traced than untraced: the median, over every op
/// of every pair of adjacent passes, of traced ÷ untraced quiet-host wall. A
/// median of that many ratios resolves an overhead the pass walls' own
/// scatter (±5 %) would drown.
fn trace_slowdown(plain: &[Pass], traced: &[Pass], host: &HostSpeed) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .flat_map(|(p, t)| p.ops.iter().zip(&t.ops))
        .map(|(p, t)| t.quiet_s(host) / p.quiet_s(host))
        .collect();
    median(&ratios)
}

/// Runs every op once in declaration order, then the epilogue and the
/// pass-level gates. A pass attempts its ops plus one check of its own.
fn run_pass(
    w: &mut dyn Workload,
    labels: &[String],
    rec: &mut Recorder,
    host: &mut HostSpeed,
    tally: &mut Tally,
) -> Pass {
    let mut ops = Vec::with_capacity(labels.len());
    let (mut sim_ns, mut sim, mut digest) = (0, SimCounts::default(), FNV_SEED);
    for (i, label) in labels.iter().enumerate() {
        host.sample_if_due();
        rec.next_op();
        let (op, mut timed) = Timed::around(|| w.run_op(i, rec));
        timed.secs = op.wall.as_secs_f64();
        ops.push(timed);
        sim_ns += op.sim_ns;
        sim.add(&op.sim);
        digest = fnv(digest, op.fingerprint);
        tally.check(label, op.failure.map_or(Ok(()), Err));
    }
    let (epilogue, mut timed) = Timed::around(|| w.epilogue(rec));
    timed.secs = epilogue.as_ref().map_or(0.0, Duration::as_secs_f64);
    tally.check("pass", epilogue.and_then(|_| w.pass_gate(&sim)));
    Pass {
        ops,
        epilogue: timed,
        sim_ns,
        sim,
        digest: sim.digest(digest),
    }
}

/// Every pass of a run must simulate exactly the same thing.
fn check_digests(passes: &[&Pass], tally: &mut Tally) -> u64 {
    let first = passes[0].digest;
    let same = passes.iter().all(|p| p.digest == first);
    let outcome = same.then_some(()).ok_or_else(|| {
        let all: Vec<String> = passes
            .iter()
            .map(|p| format!("{:#018x}", p.digest))
            .collect();
        format!("passes simulated different things: {}", all.join(" "))
    });
    tally.check("sim_digest", outcome);
    first
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

/// Runs one workload as `args` says and prints its table; the caller prints
/// the returned report as the last line.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let seeds = Seeds {
        workload: args.seed,
        fault: args.fault_seed,
    };
    // The only ways the seed reaches the program besides the cells' `seed`
    // field; one pool worker, so a run is one host thread.
    std::env::set_var("NVMGC_SEED", seeds.workload.to_string());
    std::env::set_var("NVMGC_JOBS", "1");
    println!(
        "workload {} seed {:#x} (fault/arrival seed {:#x}) seconds {} trace {}",
        args.workload, seeds.workload, seeds.fault, args.seconds, args.trace as u8
    );
    if args.trace {
        traced_run(args, seeds)
    } else {
        untraced_run(args, seeds)
    }
}

fn untraced_run(args: &RunArgs, seeds: Seeds) -> Result<RunReport, String> {
    let mut rec = Recorder::new(false);
    let mut host = HostSpeed::default();
    let mut tally = Tally::default();

    // Set-up repeats at least MIN_SETUPS times and, where it is cheap, for
    // SETUP_BUDGET_S, so that a 6 ms set-up is not judged by three samples.
    let mut setups: Vec<Timed> = Vec::new();
    let mut workload = None;
    host.sample();
    while setups.len() < MIN_SETUPS
        || (setups.iter().map(|t| t.secs).sum::<f64>() < SETUP_BUDGET_S
            && setups.len() < MAX_SETUPS)
    {
        // The previous set-up's snapshots go first, so peak memory is that
        // of one set-up.
        drop(workload.take());
        let (built, timed) = Timed::around(|| set_up(&args.workload, seeds, &mut rec));
        workload = Some(built?);
        setups.push(timed);
        host.sample();
    }
    let mut workload = workload.expect("at least one set-up");
    let w = workload.as_mut();
    let labels = w.op_labels();

    w.gate(&mut rec, &mut tally);

    let planned = ((w.passes_per_10_s() * args.seconds / 10.0).round() as usize).max(MIN_PASSES);
    let mut passes: Vec<Pass> = Vec::with_capacity(planned);
    let started = Instant::now();
    while passes.len() < planned {
        passes.push(run_pass(w, &labels, &mut rec, &mut host, &mut tally));
        // On a host several times slower than the one the workloads were
        // sized on, stop at the fewest passes rather than overrun the
        // driver's per-run limit.
        if passes.len() >= MIN_PASSES
            && started.elapsed() > Duration::from_secs_f64(3.0 * args.seconds)
        {
            println!(
                "  stopped after {} of {planned} passes: host too slow",
                passes.len()
            );
            break;
        }
    }
    host.sample();
    let sim_digest = check_digests(&passes.iter().collect::<Vec<_>>(), &mut tally);

    let ops_s = quiet_ops_s(&passes, &host);
    let epilogues_s: Vec<f64> = passes.iter().map(|p| p.epilogue.quiet_s(&host)).collect();
    let wall_s = ops_s.iter().sum::<f64>() + median(&epilogues_s);
    let ops_ms: Vec<f64> = ops_s.iter().map(|s| s * 1e3).collect();
    let sim_ns = passes[0].sim_ns;
    let tail = op_tail(&ops_ms);
    let raw_walls: Vec<f64> = passes.iter().map(Pass::raw_wall_s).collect();
    let setup_s: Vec<f64> = setups.iter().map(|t| t.quiet_s(&host)).collect();

    let values = [
        wall_s,
        sim_ns as f64 / wall_s,
        median(&ops_ms),
        tail.value,
        peak_rss_mib(),
        median(&setup_s),
    ];
    let notes = [
        format!(
            "{} ops, each at its median of {} passes (raw pass walls {raw_walls:.3?})",
            labels.len(),
            passes.len()
        ),
        format!("{sim_ns} sim-ns a pass"),
        format!("median of {} ops", ops_ms.len()),
        tail.rule,
        "VmHWM".to_owned(),
        format!("median of {} set-ups", setup_s.len()),
    ];
    println!("  times are quiet-host times: {}", host.summary());
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    for ((name, value, unit), note) in metrics.iter().zip(notes) {
        println!("  {name:<20} {value:>16.4} {unit:<9} {note}");
    }
    println!(
        "  {:<20} {:>16.4} {:<9} {} of {} ops failed a gate",
        "failed_share",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
    println!("  sim_digest {sim_digest:#018x}");
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn traced_run(args: &RunArgs, seeds: Seeds) -> Result<RunReport, String> {
    let mut rec = Recorder::new(true);
    let mut host = HostSpeed::default();
    let mut tally = Tally::default();
    let mut workload = set_up(&args.workload, seeds, &mut rec)?;
    let w = workload.as_mut();
    let labels = w.op_labels();
    w.gate(&mut rec, &mut tally);

    // Untraced and traced passes alternate, so drift of the host falls on
    // both sides of `trace_overhead_pct` alike.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..MIN_PASSES {
        rec.set_enabled(false);
        plain.push(run_pass(w, &labels, &mut rec, &mut host, &mut tally));
        rec.set_enabled(true);
        traced.push(run_pass(w, &labels, &mut rec, &mut host, &mut tally));
    }
    host.sample();
    let every: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let sim_digest = check_digests(&every, &mut tally);

    let mut extras = LayerExtras::default();
    w.layers(&mut rec, &mut extras, &mut tally);
    let micro = micro::run();

    let trace_path = Path::new(OUT_DIR).join(format!("{}.trace.json", args.workload));
    rec.write_json(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let totals = rec.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let total_ns = |name: &str| span(name).total_ns as f64;
    let mean = |t: SpanTotal, per: f64| ratio(t.total_ns as f64 / per, t.calls as f64);
    // A layer's busy share is taken inside the stepped driver's runs where
    // there are any (forked workloads), else inside the ops themselves
    // (`gc_cycle`, whose ops are the layer calls).
    let root = match span("stepped_run").calls {
        0 => "op",
        _ => "stepped_run",
    };
    let busy_share = |name: &str| ratio(rec.total_under(name, root) as f64, total_ns(root));
    let (mutator, collect) = ("Mutator::run", "G1Collector::collect");
    let (capture, restore) = ("SimSnapshot::capture", "SimSnapshot::restore");
    let count = |name: &str| rec.counted(name) as f64;
    let traced_op_ns: f64 = traced.iter().map(|p| p.raw_wall_s() * 1e9).sum();
    let traced_mem_ops: u64 = traced.iter().map(|p| p.sim.mem_ops).sum();
    let sim = &plain[0].sim;

    let mut values: BTreeMap<&str, f64> = micro.into_iter().collect();
    values.extend([
        ("workloads.mutator.busy_share", busy_share(mutator)),
        (
            "workloads.mutator.ns_per_alloc",
            ratio(total_ns(mutator), count("mutator.allocs")),
        ),
        ("workloads.snapshot.capture_ms", mean(span(capture), 1e6)),
        (
            "workloads.snapshot.capture_ns_per_alloc",
            ratio(total_ns(capture), count("capture.allocs")),
        ),
        ("workloads.snapshot.restore_ms", mean(span(restore), 1e6)),
        (
            "workloads.runner.host_ns_per_mem_op",
            ratio(traced_op_ns, traced_mem_ops as f64),
        ),
        ("core.collect.busy_share", busy_share(collect)),
        (
            "core.collect.ns_per_copied_object",
            ratio(total_ns(collect), count("collect.copied_objects")),
        ),
        (
            "core.collect.ns_per_engine_step",
            ratio(total_ns(collect), count("collect.engine_steps")),
        ),
        (
            "core.collect.host_ns_per_sim_ns",
            ratio(total_ns(collect), count("collect.sim_ns")),
        ),
        ("heap.verify.ms_per_call", mean(span("verify_heap"), 1e6)),
        (
            "heap.verify.ns_per_object",
            ratio(total_ns("verify_heap"), count("verify_heap.objects")),
        ),
        (
            "memsim.persist.enabled_cost_share",
            extras.persist_enabled_cost_share,
        ),
        ("workloads.scenario.run_us", mean(span("run_scenario"), 1e3)),
        (
            "workloads.scenario.us_per_batch",
            ratio(
                total_ns("run_scenario") / 1e3,
                count("run_scenario.batches"),
            ),
        ),
        (
            "bench.grids.report_ms",
            mean(span("scenario_matrix_report"), 1e6),
        ),
        (
            "metrics.report.write_json_ms",
            mean(span("write_json"), 1e6),
        ),
        ("metrics.report.json_bytes", extras.json_bytes as f64),
        ("bench.warm.fork_saving_share", extras.fork_saving_share),
        ("bench.runner.pool_speedup", extras.pool_speedup),
        ("sim.total_ns", sim.total_ns as f64),
        ("sim.pause_ns", sim.pause_ns as f64),
        ("sim.engine_steps", sim.engine_steps as f64),
        ("sim.bus_grants", sim.bus_grants as f64),
        ("sim.llc_installs", sim.llc_installs as f64),
        ("sim.llc_hit_rate", sim.llc_hit_rate()),
        ("sim.mem_ops", sim.mem_ops as f64),
        ("sim.copied_objects", sim.copied_objects as f64),
        ("sim.nvm_write_bytes", sim.nvm_write_bytes as f64),
        ("sim.oracle_checks", sim.oracle_checks as f64),
        ("sim.recovered_cycles", sim.recovered_cycles as f64),
        ("sim.replayed_map_entries", sim.replayed_map_entries as f64),
        ("sim.alloc_fences", sim.alloc_fences as f64),
        ("sim.client_requests", sim.client_requests as f64),
        ("sim.client_cohorts", sim.client_cohorts as f64),
        (
            "sim.gc_attributed_windows",
            sim.gc_attributed_windows as f64,
        ),
        (
            "sim.gc_speedup_all_over_vanilla",
            sim.gc_speedup_all_over_vanilla(),
        ),
        (
            "trace_overhead_pct",
            100.0 * (trace_slowdown(&plain, &traced, &host) - 1.0),
        ),
    ]);

    println!(
        "  spans ({} in {}):",
        totals.values().map(|t| t.calls).sum::<u64>(),
        trace_path.display()
    );
    for (name, t) in &totals {
        println!(
            "    {name:<24} {:>6} calls {:>10.3} ms total {:>10.3} ms self",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                values
                    .remove(name)
                    .expect("every declared metric is computed"),
                unit,
            )
        })
        .collect();
    assert!(
        values.is_empty(),
        "computed but undeclared metrics: {:?}",
        values.keys()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<46} {value:>18.4} {unit}");
    }
    println!(
        "  sim.gc_speedup_all_over_vanilla beside the paper's 1.69x average (EXPERIMENTS.md): \
         calibrated, not validated on hardware"
    );
    println!("  sim_digest {sim_digest:#018x}");
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
