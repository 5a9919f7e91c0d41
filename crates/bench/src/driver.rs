//! The one harness driver.
//!
//! A [`Harness`] is a value in the static [`REGISTRY`]: the reports it
//! claims (and the paper artifacts they reproduce) and a body holding
//! only what is unique to that experiment. Everything the experiments
//! share lives here, once: the banner, warm-forked execution of every
//! cell ([`Driver::run`]), the [`WorkCounters`] totals with fork
//! accounting and the fork/throughput lines ([`Driver::absorb`]), table
//! rendering ([`Driver::table`]), report assembly and writing
//! ([`Driver::report`]), and — in [`cli`]'s caller — the nonzero exit
//! when a gate fails.

use crate::runner::{PoolStats, WorkCounters};
use crate::warm::{fork_summary, run_forked_cells};
use crate::{fast_mode, grids::Grid, results_dir, REGISTRY};
use nvmgc_metrics::{write_json, ExperimentReport, TextTable};
use nvmgc_workloads::{AppRunConfig, AppRunResult};
use serde::Serialize;

/// What a harness body returns: `Err` carries the failed exit gate's
/// message, and the process exits nonzero.
pub type Gate = Result<(), String>;

/// One table column: its header and how a row renders under it.
pub type Column<'a, R> = (&'a str, fn(&R) -> String);

/// One experiment: what is printed and written, and by which body.
pub struct Harness {
    /// The reports it writes, in order, all of them: `(id, paper_ref)` of
    /// `results/<id>.json`. The first one names the harness on the command
    /// line and heads the banner.
    pub outputs: &'static [(&'static str, &'static str)],
    pub(crate) body: fn(&mut Driver) -> Gate,
}

impl Harness {
    /// The id the command line selects the harness by.
    pub fn id(&self) -> &'static str {
        self.outputs[0].0
    }
}

/// The shared half of a running harness, handed to its body.
pub struct Driver {
    /// The claimed reports not yet written.
    unwritten: &'static [(&'static str, &'static str)],
    /// Deterministic work of the latest grid, fork accounting included.
    pub totals: WorkCounters,
    /// Pool timing of the latest grid.
    pub pool: PoolStats,
}

impl Driver {
    /// Runs `(label, config)` cells on the warm-forked runner and returns
    /// `measure(cell index, run)` of each, in declaration order. A run
    /// that ends in a typed error fails the harness, naming the cell.
    pub fn run<M: Send>(
        &mut self,
        cells: Vec<(String, AppRunConfig)>,
        measure: impl Fn(usize, &AppRunResult) -> M + Sync,
    ) -> Vec<M> {
        self.absorb(run_forked_cells(cells, |i, res| {
            let res = res.expect("run succeeds");
            (measure(i, &res), WorkCounters::from_run(&res))
        }))
    }

    /// Takes a finished grid: sums its cells' counters into
    /// [`Driver::totals`], adds the fork accounting, prints the fork and
    /// throughput lines, and returns the rows.
    pub fn absorb<T>(&mut self, (results, pool, forks): Grid<T>) -> Vec<T> {
        self.totals = WorkCounters::default();
        let rows: Vec<T> = results
            .into_iter()
            .map(|(row, counters)| {
                self.totals.add(&counters);
                row
            })
            .collect();
        self.totals.snapshot_forks = forks.snapshot_forks;
        self.totals.warmup_steps_saved = forks.warmup_steps_saved;
        self.pool = pool;
        println!("{}", fork_summary(rows.len(), &forks));
        println!(
            "runner: {} cells on {} job(s) in {:.2} s — {:.3e} simulated ns / wall s",
            pool.cells,
            pool.jobs,
            pool.wall_seconds,
            pool.sim_ns_per_wall_second(self.totals.simulated_ns)
        );
        rows
    }

    /// Prints `rows` as an aligned table.
    pub fn table<R>(&self, rows: &[R], columns: &[Column<R>]) {
        let mut table = TextTable::new(columns.iter().map(|c| c.0).collect());
        for row in rows {
            table.row(columns.iter().map(|c| c.1(row)).collect());
        }
        println!("{}", table.render());
    }

    /// Assembles the harness's next claimed report around `data` and
    /// writes it; see [`Driver::write`].
    pub fn report<T: Serialize>(&mut self, notes: impl Into<String>, data: T) {
        let (id, paper_ref) = self.unwritten.first().expect("an unwritten claim");
        self.write(&ExperimentReport {
            id: (*id).to_owned(),
            paper_ref: (*paper_ref).to_owned(),
            notes: notes.into(),
            data,
        });
    }

    /// Writes `report` under the results directory and prints where.
    ///
    /// # Panics
    ///
    /// Panics unless `report` is the harness's next claimed report.
    pub fn write<T: Serialize>(&mut self, report: &ExperimentReport<T>) {
        let (next, rest) = self.unwritten.split_first().expect("an unwritten claim");
        assert_eq!(report.id, next.0, "reports are written in claimed order");
        self.unwritten = rest;
        let path = write_json(&results_dir(), report).expect("write results");
        println!("results: {}", path.display());
    }
}

/// Runs one harness to completion: banner, body, and a check that it
/// wrote every report it claims.
pub fn run_harness(harness: &'static Harness) -> Gate {
    println!(
        "== {} — reproduces {} ==",
        harness.id(),
        harness.outputs[0].1
    );
    if fast_mode() {
        println!("   (NVMGC_FAST=1: reduced roster/sweep)");
    }
    println!();
    let mut driver = Driver {
        unwritten: harness.outputs,
        totals: WorkCounters::default(),
        pool: PoolStats::default(),
    };
    (harness.body)(&mut driver)?;
    assert!(
        driver.unwritten.is_empty(),
        "{} must write every report it claims",
        harness.id()
    );
    Ok(())
}

/// The `harness` bench target's command line: harness ids to run in
/// order, `all` for the whole registry, or `--list` to print each id and
/// the result files it claims. (`--bench`, which `cargo bench` appends,
/// is ignored.)
pub fn cli(args: &[String]) -> Gate {
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--bench")
        .collect();
    let selected: Vec<&'static Harness> = match args[..] {
        [] | ["--list"] => {
            if args.is_empty() {
                println!(
                    "usage: cargo bench -p nvmgc-bench --bench harness -- <id>… | all | --list"
                );
            }
            for h in &REGISTRY {
                let files: Vec<String> =
                    h.outputs.iter().map(|o| format!("{}.json", o.0)).collect();
                println!("{}\t{}", h.id(), files.join(" "));
            }
            return Ok(());
        }
        ["all"] => REGISTRY.iter().collect(),
        _ => args
            .iter()
            .map(|id| {
                REGISTRY
                    .iter()
                    .find(|h| h.id() == *id)
                    .ok_or_else(|| format!("unknown harness '{id}' (see --list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    selected.into_iter().try_for_each(run_harness)
}
