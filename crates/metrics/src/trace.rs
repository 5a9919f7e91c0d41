//! Trace export: chrome://tracing JSON and the paper-style
//! bandwidth-timeline table.
//!
//! The input is the deterministic event log recorded by
//! [`nvmgc_memsim::TraceLog`] (via `AppRunResult::trace`): per-worker GC
//! sub-phase spans, whole-cycle spans, mutator intervals, injected
//! fault-window annotations and persistence fences, all stamped with
//! *simulated* nanoseconds. Because the log is a pure function of the
//! configuration and seed, both exports here are byte-identical across
//! runs and across `NVMGC_JOBS` settings — the CI trace suite diffs them.
//!
//! Two renderings:
//!
//! - [`chrome_trace`] — the Trace Event Format consumed by
//!   `chrome://tracing` / Perfetto: complete (`"X"`) events for spans,
//!   instant (`"i"`) events for fences and splits, one `tid` per lane.
//! - [`bandwidth_timeline`] — the paper's Fig. 2-style bandwidth-over-
//!   time table: one row per sampler bin with read/write MB/s, the write
//!   share, and annotations for GC cycles, fault windows and fences that
//!   overlap the bin. The write-share collapse (total bandwidth dropping
//!   as the write share rises during write-back) is visible directly in
//!   the rows.

use crate::table::TextTable;
use nvmgc_memsim::{Ns, TraceCat, TraceEvent, TrafficSample};
use serde::Serialize;

/// One event in the Trace Event Format (`chrome://tracing`).
#[derive(Debug, Serialize)]
pub struct ChromeEvent {
    /// Event label.
    pub name: &'static str,
    /// Category (the [`TraceCat`] lane, lowercased).
    pub cat: &'static str,
    /// Phase: `"X"` (complete, has `dur`) or `"i"` (instant).
    pub ph: &'static str,
    /// Timestamp in microseconds (the format's unit).
    pub ts: f64,
    /// Duration in microseconds (complete events only; 0 for instants).
    pub dur: f64,
    /// Process id — constant 1 (one simulated process).
    pub pid: u32,
    /// Thread id — the trace lane (worker id, mutator lane, device lane).
    pub tid: u32,
    /// The event's numeric payload under `args.arg`.
    pub args: ChromeArgs,
}

/// The `args` object of a [`ChromeEvent`].
#[derive(Debug, Serialize)]
pub struct ChromeArgs {
    /// The raw [`TraceEvent::arg`] payload.
    pub arg: u64,
}

/// The top-level chrome://tracing document.
///
/// Field names are the format's literal camelCase keys (the vendored
/// serde derive has no rename attribute).
#[derive(Debug, Serialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// All events, in the canonical `(ts, track)` order of the input.
    pub traceEvents: Vec<ChromeEvent>,
    /// Display unit hint for the viewer.
    pub displayTimeUnit: &'static str,
}

fn cat_name(cat: TraceCat) -> &'static str {
    match cat {
        TraceCat::Cycle => "cycle",
        TraceCat::Phase => "phase",
        TraceCat::Mutator => "mutator",
        TraceCat::Fence => "fence",
        TraceCat::Fault => "fault",
    }
}

/// Converts a canonical event slice into a chrome://tracing document.
///
/// Timestamps convert from simulated ns to the format's µs; the division
/// is exact in `f64` for any simulated time below 2^53 ns (~104 days),
/// far beyond any run here, so the export stays deterministic.
pub fn chrome_trace(events: &[TraceEvent]) -> ChromeTrace {
    ChromeTrace {
        traceEvents: events
            .iter()
            .map(|e| ChromeEvent {
                name: e.name,
                cat: cat_name(e.cat),
                ph: if e.dur == 0 { "i" } else { "X" },
                ts: e.ts as f64 / 1000.0,
                dur: e.dur as f64 / 1000.0,
                pid: 1,
                tid: e.track,
                args: ChromeArgs { arg: e.arg },
            })
            .collect(),
        displayTimeUnit: "ns",
    }
}

/// One row of the bandwidth timeline, also exported as JSON.
#[derive(Debug, Clone, Serialize)]
pub struct TimelineRow {
    /// Bin start, ms of simulated time.
    pub t_ms: f64,
    /// Read bandwidth over the bin, MB/s.
    pub read_mbps: f64,
    /// Write bandwidth over the bin, MB/s.
    pub write_mbps: f64,
    /// Write share of the bin's traffic (0 when the bin is idle).
    pub write_share: f64,
    /// Annotations: trace events overlapping the bin (GC cycles, fault
    /// windows, fences), as ` `-joined labels; empty when none.
    pub marks: String,
}

fn overlaps(e: &TraceEvent, bin_start: Ns, bin_end: Ns) -> bool {
    let end = e.ts + e.dur.max(1); // treat instants as 1 ns
    e.ts < bin_end && end > bin_start
}

/// Builds the paper-style bandwidth-over-time rows from a sampled series
/// plus the trace log.
///
/// `series` is the per-bin NVM byte series from the traffic sampler
/// (`AppRunResult::nvm_series`), `bin_ns` its bin
/// width. Only cycle, fault and fence events are folded into the `marks`
/// column — per-worker spans would repeat the same label `threads`
/// times.
pub fn timeline_rows(
    series: &[TrafficSample],
    bin_ns: Ns,
    events: &[TraceEvent],
) -> Vec<TimelineRow> {
    let marks_of = |bin_start: Ns, bin_end: Ns| -> String {
        let mut labels: Vec<&'static str> = Vec::new();
        for e in events {
            let keep = matches!(e.cat, TraceCat::Cycle | TraceCat::Fault | TraceCat::Fence);
            if keep && overlaps(e, bin_start, bin_end) && !labels.contains(&e.name) {
                labels.push(e.name);
            }
        }
        labels.join(" ")
    };
    series
        .iter()
        .enumerate()
        .map(|(i, bin)| {
            let bin_start = i as Ns * bin_ns;
            let bin_end = bin_start + bin_ns;
            let total = bin.read_bytes + bin.write_bytes;
            TimelineRow {
                t_ms: bin_start as f64 / 1e6,
                read_mbps: bin.read_mbps(bin_ns),
                write_mbps: bin.write_mbps(bin_ns),
                write_share: if total == 0 {
                    0.0
                } else {
                    bin.write_bytes as f64 / total as f64
                },
                marks: marks_of(bin_start, bin_end),
            }
        })
        .collect()
}

/// Renders timeline rows as a plain-text table (printed by the trace
/// harness next to the JSON artifact).
pub fn bandwidth_timeline(rows: &[TimelineRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "t (ms)",
        "read MB/s",
        "write MB/s",
        "w-share",
        "marks",
    ]);
    for r in rows {
        t.row(vec![
            format!("{:.1}", r.t_ms),
            format!("{:.0}", r.read_mbps),
            format!("{:.0}", r.write_mbps),
            format!("{:.2}", r.write_share),
            r.marks.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(read_bytes: u64, write_bytes: u64) -> TrafficSample {
        TrafficSample {
            read_bytes,
            write_bytes,
        }
    }

    fn ev(name: &'static str, cat: TraceCat, track: u32, ts: Ns, dur: Ns) -> TraceEvent {
        TraceEvent {
            ts,
            dur,
            track,
            name,
            cat,
            arg: 0,
        }
    }

    #[test]
    fn chrome_trace_distinguishes_spans_and_instants() {
        let events = vec![
            ev("cycle", TraceCat::Cycle, 1_000_000, 2_000, 500),
            ev("persist-drain", TraceCat::Fence, 1_000_002, 2_500, 0),
        ];
        let doc = chrome_trace(&events);
        assert_eq!(doc.traceEvents.len(), 2);
        assert_eq!(doc.traceEvents[0].ph, "X");
        assert!((doc.traceEvents[0].ts - 2.0).abs() < 1e-12);
        assert!((doc.traceEvents[0].dur - 0.5).abs() < 1e-12);
        assert_eq!(doc.traceEvents[1].ph, "i");
        assert_eq!(doc.traceEvents[1].cat, "fence");
        let json = serde_json::to_string(&doc).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    }

    #[test]
    fn timeline_marks_overlapping_events_only() {
        // Two 1 ms bins; a cycle span inside bin 0, a fault window
        // covering bin 1, a per-worker phase span that must NOT be
        // folded into marks.
        let series = [bin(1_000_000, 0), bin(0, 3_000_000)];
        let events = vec![
            ev("cycle", TraceCat::Cycle, 1_000_000, 100_000, 200_000),
            ev(
                "device-stall",
                TraceCat::Fault,
                1_000_002,
                1_200_000,
                500_000,
            ),
            ev("scan", TraceCat::Phase, 0, 100_000, 200_000),
        ];
        let rows = timeline_rows(&series, 1_000_000, &events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].marks, "cycle");
        assert_eq!(rows[1].marks, "device-stall");
        assert!((rows[0].write_share - 0.0).abs() < 1e-12);
        assert!((rows[1].write_share - 1.0).abs() < 1e-12);
        // 1 MB over 1 ms = 1000 MB/s.
        assert!((rows[0].read_mbps - 1000.0).abs() < 1e-9);
        assert!((rows[1].write_mbps - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_table_renders_every_row() {
        let rows = timeline_rows(&[bin(64_000, 64_000)], 1_000_000, &[]);
        let table = bandwidth_timeline(&rows);
        assert_eq!(table.len(), 1);
        let text = table.render();
        assert!(text.contains("w-share"), "{text}");
        assert!(text.contains("0.50"), "{text}");
    }

    #[test]
    fn zero_duration_instants_mark_their_bin() {
        let series = [bin(1, 0)];
        let events = vec![ev("persist-fence", TraceCat::Fence, 1_000_002, 0, 0)];
        let rows = timeline_rows(&series, 1_000, &events);
        assert_eq!(rows[0].marks, "persist-fence");
    }
}
