//! G1-style collection logging.
//!
//! Renders per-cycle statistics in a format deliberately close to
//! HotSpot's `-Xlog:gc*` output, so readers used to JVM GC logs can eyeball
//! a simulated run. Timestamps are simulated seconds.
//!
//! ```text
//! [0.113s] GC(3) Pause Young (Normal) 7168K->2368K 4.83ms
//! [0.113s] GC(3)   scan 3.91ms, write-back 0.74ms, map-clear 0.18ms
//! [0.113s] GC(3)   copied 2368K, promoted 192K, 31337 slots, 14 steals
//! ```

use crate::stats::GcStats;
use nvmgc_memsim::Ns;
use std::fmt::Write as _;

/// What kind of collection a log entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Stop-the-world young collection.
    Young,
    /// Mixed collection (young + selected old regions).
    Mixed,
    /// Whole-heap full collection.
    Full,
}

impl GcKind {
    fn label(self) -> &'static str {
        match self {
            GcKind::Young => "Pause Young (Normal)",
            GcKind::Mixed => "Pause Young (Mixed)",
            GcKind::Full => "Pause Full",
        }
    }
}

/// One collection as recorded by the log, in machine-readable form.
///
/// The rendered lines are for human eyeballs; cross-checks (e.g. the
/// trace layer's GC-log/span consistency test) use these entries, whose
/// timestamps are exact simulated nanoseconds rather than rounded
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcLogEntry {
    /// What kind of collection ran.
    pub kind: GcKind,
    /// Evacuation-pause start, simulated ns. For mixed/full collections
    /// the stop-the-world mark precedes this point.
    pub start: Ns,
    /// Evacuation-pause end (`start + stats.pause_ns()`), simulated ns.
    /// Identical to the end of the collector's `"cycle"` trace span.
    pub end: Ns,
}

/// Accumulates human-readable log lines for a run.
#[derive(Debug, Default)]
pub struct GcLog {
    lines: Vec<String>,
    entries: Vec<GcLogEntry>,
    cycle: usize,
}

impl GcLog {
    /// Creates an empty log.
    pub fn new() -> GcLog {
        GcLog::default()
    }

    /// Records one collection cycle.
    ///
    /// `start` is the pause start in simulated time; `before_bytes` /
    /// `after_bytes` are the occupied young+old byte counts around the
    /// pause (shown like HotSpot's `7168K->2368K`).
    pub fn record(
        &mut self,
        kind: GcKind,
        start: Ns,
        stats: &GcStats,
        before_bytes: u64,
        after_bytes: u64,
    ) {
        let id = self.cycle;
        self.cycle += 1;
        let evac_start = start + stats.mark_ns;
        self.entries.push(GcLogEntry {
            kind,
            start: evac_start,
            end: evac_start + stats.pause_ns(),
        });
        let at = (start + stats.pause_ns()) as f64 / 1e9;
        let mut line = String::new();
        let _ = write!(
            line,
            "[{at:.3}s] GC({id}) {} {}K->{}K {:.2}ms",
            kind.label(),
            before_bytes >> 10,
            after_bytes >> 10,
            stats.pause_ns() as f64 / 1e6
        );
        self.lines.push(line);
        if stats.mark_ns > 0 {
            self.lines.push(format!(
                "[{at:.3}s] GC({id})   concurrent-equivalent mark {:.2}ms",
                stats.mark_ns as f64 / 1e6
            ));
        }
        if stats.recovery_ns > 0 {
            self.lines.push(format!(
                "[{at:.3}s] GC({id})   crashed attempts + recovery {:.2}ms",
                stats.recovery_ns as f64 / 1e6
            ));
        }
        let named = stats.phases.named();
        self.lines.push(format!(
            "[{at:.3}s] GC({id})   {}",
            named
                .iter()
                .map(|(label, ns)| format!("{label} {:.2}ms", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let mut detail = format!(
            "[{at:.3}s] GC({id})   copied {}K, promoted {}K, {} slots, {} steals",
            stats.copied_bytes >> 10,
            stats.promoted_bytes >> 10,
            stats.slots_processed,
            stats.steals
        );
        if stats.evac_failures > 0 {
            let _ = write!(detail, ", {} evacuation failures", stats.evac_failures);
        }
        if stats.old_regions_collected > 0 {
            let _ = write!(detail, ", {} old regions", stats.old_regions_collected);
        }
        if stats.humongous_freed > 0 {
            let _ = write!(detail, ", {} humongous freed", stats.humongous_freed);
        }
        self.lines.push(detail);
    }

    /// The rendered log lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The machine-readable per-collection entries, in cycle order.
    pub fn entries(&self) -> &[GcLogEntry] {
        &self.entries
    }

    /// Renders the whole log as one string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Number of collections recorded.
    pub fn cycles(&self) -> usize {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GcPhaseTimes;

    fn stats() -> GcStats {
        GcStats {
            phases: GcPhaseTimes {
                scan_ns: 3_910_000,
                writeback_ns: 740_000,
                clear_ns: 180_000,
            },
            copied_bytes: 2 << 20,
            promoted_bytes: 192 << 10,
            slots_processed: 31_337,
            steals: 14,
            ..GcStats::default()
        }
    }

    #[test]
    fn young_entry_has_hotspot_shape() {
        let mut log = GcLog::new();
        log.record(GcKind::Young, 108_170_000, &stats(), 7 << 20, 2 << 20);
        let text = log.render();
        assert!(
            text.contains("GC(0) Pause Young (Normal) 7168K->2048K 4.83ms"),
            "{text}"
        );
        assert!(text.contains("scan 3.91ms"));
        assert!(text.contains("31337 slots"));
        assert!(!text.contains("mark"), "no mark line for young GC");
        assert_eq!(log.cycles(), 1);
    }

    #[test]
    fn mixed_and_full_entries_show_mark_and_extras() {
        let mut s = stats();
        s.mark_ns = 1_500_000;
        s.old_regions_collected = 7;
        s.humongous_freed = 2;
        s.evac_failures = 3;
        let mut log = GcLog::new();
        log.record(GcKind::Mixed, 0, &s, 1 << 20, 1 << 19);
        log.record(GcKind::Full, 10_000_000, &s, 1 << 20, 1 << 19);
        let text = log.render();
        assert!(text.contains("Pause Young (Mixed)"));
        assert!(text.contains("Pause Full"));
        assert!(text.contains("mark 1.50ms"));
        assert!(text.contains("7 old regions"));
        assert!(text.contains("2 humongous freed"));
        assert!(text.contains("3 evacuation failures"));
        assert!(text.contains("GC(1)"));
    }

    #[test]
    fn entries_carry_exact_evacuation_intervals() {
        let mut log = GcLog::new();
        log.record(GcKind::Young, 1_000, &stats(), 7 << 20, 2 << 20);
        let mut s = stats();
        s.mark_ns = 500; // mixed: mark precedes the evacuation pause
        log.record(GcKind::Mixed, 10_000, &s, 1 << 20, 1 << 19);
        let e = log.entries();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].kind, GcKind::Young);
        assert_eq!(e[0].start, 1_000);
        assert_eq!(e[0].end, 1_000 + stats().pause_ns());
        assert_eq!(e[1].start, 10_500, "mark excluded from the evac pause");
        assert_eq!(e[1].end, 10_500 + s.pause_ns());
    }
}
