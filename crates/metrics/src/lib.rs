//! Statistics, time series and report rendering for nvmgc experiments.
//!
//! Everything an experiment harness needs to turn raw simulation output
//! into the rows and series the paper's tables and figures report:
//! mean/geomean helpers, HDR latency histograms, bandwidth time-series
//! reshaping, the cost-efficiency metric of the paper's Fig. 12,
//! plain-text table rendering, and JSON export of results.

#![warn(missing_docs)]

pub mod cost;
pub mod hdr;
pub mod report;
pub mod series;
pub mod stats;
pub mod table;
pub mod trace;

pub use cost::gc_improvement_per_dollar;
pub use hdr::{HdrHistogram, LatencyQuantiles};
pub use report::{write_json, ExperimentReport};
pub use series::BandwidthSeries;
pub use stats::{geomean, mean};
pub use table::TextTable;
pub use trace::{bandwidth_timeline, chrome_trace, timeline_rows, ChromeTrace, TimelineRow};
