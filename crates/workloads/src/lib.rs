//! Synthetic memory-intensive application workloads.
//!
//! The paper evaluates on Spark (page-rank, kmeans, cc, sssp), 22
//! Renaissance applications, and Cassandra. Those applications cannot run
//! on this simulated JVM substrate, so this crate reproduces their
//! *GC-visible signatures* instead: a parameterized mutator allocates real
//! object graphs with each application's characteristic object-size mix,
//! survival behaviour, pointer density, old-generation linkage
//! (remembered-set pressure), traversal shape (chains for load imbalance)
//! and compute intensity. See `DESIGN.md` for the substitution argument
//! and [`profiles`] for the per-application parameters.
//!
//! - [`spec`] — the workload parameter vocabulary.
//! - [`mutator`] — the allocation/mutation engine driving a heap +
//!   collector, with every memory operation charged to the timing model.
//! - [`runner`] — runs one application to completion against a collector
//!   configuration and gathers the measurements experiments need.
//! - [`profiles`] — the 26 paper applications.
//! - [`cassandra`] — the server and client specs of Fig. 8's
//!   request/latency workload.
//! - [`scenario`] — the one client model: open-loop cohorts (one client
//!   to millions) with shaped load, HDR latency distributions and
//!   attributed SLO-violation windows.
//! - [`prefetch_micro`] — the §4.3 software-prefetch microbenchmark.

#![warn(missing_docs)]

pub mod cassandra;
pub mod mutator;
pub mod prefetch_micro;
pub mod profiles;
pub mod runner;
pub mod scenario;
pub mod spec;

pub use mutator::Mutator;
pub use profiles::{all_apps, app, fig1_apps, renaissance_apps, spark_apps};
pub use runner::{
    fault_names, run_app, AppRunConfig, AppRunResult, RunError, RunFailure, RunPhase, SimSnapshot,
};
pub use scenario::{run_scenario, ScenarioKind, ScenarioResult, ScenarioSpec, SloWindow};
pub use spec::{ClassMix, WorkloadSpec};
