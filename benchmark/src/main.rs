//! The repo's benchmark: four host-time workloads over the simulator, seven
//! end-to-end metrics, per-layer attribution from outside. See README.md.

mod compare;
mod host;
mod json;
mod metrics;
mod micro;
mod run;
mod sim;
mod spans;
mod stats;
mod stepped;
mod workloads;

use run::{RunArgs, DEFAULT_FAULT_SEED, DEFAULT_SECONDS, DEFAULT_SEED};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: nvmgc-benchmark [--workload <name>] [--seed <n>] [--fault-seed <n>] [--seconds <s>]
                       [--trace <0|1>] [--runs <n>] [--out <file>]
       nvmgc-benchmark compare <parent.jsonl> <change.jsonl> [<BENCHMARK.json>]

With --workload, runs that workload once in this process and prints its result
as the last line. Without it, runs every workload in a process of its own:
--runs untraced runs each (seeds <n>, <n>+1, ...) and then one traced run, and
with --out appends one record per run to <file> for `compare`.
--seed is the workload seed (default 0x5EED), --fault-seed the fault-schedule
and client-arrival seed (default 0xB0A7).
Run from the repository root.";

struct Cli {
    /// The arguments of each run; `workload` is empty for "every workload".
    run: RunArgs,
    runs: u64,
    out: Option<String>,
}

/// Parses a decimal or `0x` hexadecimal seed.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            fault_seed: DEFAULT_FAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => cli.run.workload = value.clone(),
            "--seed" => cli.run.seed = parse_seed(value).ok_or_else(bad)?,
            "--fault-seed" => cli.run.fault_seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                let seconds = value.parse().ok().filter(|s| *s > 0.0 && *s <= 60.0);
                cli.run.seconds = seconds.ok_or_else(bad)?
            }
            "--trace" => {
                cli.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => cli.runs = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?,
            "--out" => cli.out = Some(value.clone()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_here(args: &RunArgs) -> ExitCode {
    match run::run(args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("nvmgc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in a child process (so its peak memory is its own),
/// echoes its output and appends its record to `out`.
fn run_child(args: &RunArgs, out: Option<&str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--fault-seed", &args.fault_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout.lines().last().filter(|l| l.starts_with('{'));
    let digest = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("sim_digest "));
    if let (Some(path), Some(result), Some(digest)) = (out, result, digest) {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"sim_digest\": \"{digest}\", \"result\": {result}}}\n",
            args.workload, args.seed, args.trace as u8
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(output.status.success())
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for workload in workloads::NAMES {
        let mut args = RunArgs {
            workload: workload.to_owned(),
            trace: false,
            ..cli.run.clone()
        };
        for run in 0..cli.runs {
            args.seed = cli.run.seed + run;
            ok &= run_child(&args, cli.out.as_deref())?;
        }
        args.seed = cli.run.seed;
        args.trace = true;
        ok &= run_child(&args, cli.out.as_deref())?;
    }
    Ok(ok)
}

fn compare_sets(paths: &[String]) -> Result<bool, String> {
    let (parent, change, bench) = match paths {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, bench] => (a, b, bench.as_str()),
        _ => return Err(USAGE.to_owned()),
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare::compare(&read(parent)?, &read(change)?, &read(bench)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failed = match args.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare_sets(rest),
        _ => match parse_cli(&args) {
            Ok(cli) if !cli.run.workload.is_empty() => return run_here(&cli.run),
            Ok(cli) => run_all(&cli).map(|ok| !ok),
            Err(why) => Err(format!("{why}\n{USAGE}")),
        },
    };
    match failed {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("nvmgc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let cli = parse_cli(&args(&[
            "--workload",
            "gc_cycle",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("driver arguments");
        let run = cli.run;
        assert_eq!(run.workload, "gc_cycle");
        assert_eq!((run.seed, run.seconds, run.trace), (17, 10.0, true));
        assert_eq!(run.fault_seed, DEFAULT_FAULT_SEED);
        assert_eq!(parse_seed("0xC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse_seed("seed"), None);
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "600"],
            &["--trace", "2"],
            &["--runs", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// The root manifest's release profile, which `cargo bench` at the root
    /// also builds with, must be this package's too.
    #[test]
    fn release_profile_matches_root() {
        fn release_profile(manifest: &str) -> Vec<(String, String)> {
            let mut keys: Vec<(String, String)> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .filter_map(|l| l.split('#').next()?.split_once('='))
                .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
                .collect();
            keys.sort();
            keys
        }
        let own = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        let keys: Vec<&str> = own.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["codegen-units", "debug", "lto"]);
        assert_eq!(own, root);
    }
}
