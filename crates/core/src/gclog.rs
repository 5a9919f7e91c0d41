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

use crate::stats::{GcStats, PauseSpan};
use std::fmt::Write as _;

/// Renders a run's collections as log text: one block of lines per
/// cycle, `cycles[i]` being the statistics of the pause `pause_spans[i]`.
/// The occupied young+old byte counts around each pause ride on the span
/// (shown like HotSpot's `7168K->2368K`).
pub fn render(cycles: &[GcStats], pause_spans: &[PauseSpan]) -> String {
    let mut out = String::new();
    for (id, (stats, span)) in cycles.iter().zip(pause_spans).enumerate() {
        let at = (span.start_ns + stats.pause_ns()) as f64 / 1e9;
        let label = if span.mixed {
            "Pause Young (Mixed)"
        } else {
            "Pause Young (Normal)"
        };
        let _ = writeln!(
            out,
            "[{at:.3}s] GC({id}) {label} {}K->{}K {:.2}ms",
            span.before_bytes >> 10,
            span.after_bytes >> 10,
            stats.pause_ns() as f64 / 1e6
        );
        if stats.mark_ns > 0 {
            let _ = writeln!(
                out,
                "[{at:.3}s] GC({id})   concurrent-equivalent mark {:.2}ms",
                stats.mark_ns as f64 / 1e6
            );
        }
        if stats.recovery_ns > 0 {
            let _ = writeln!(
                out,
                "[{at:.3}s] GC({id})   crashed attempts + recovery {:.2}ms",
                stats.recovery_ns as f64 / 1e6
            );
        }
        let named = stats.phases.named();
        let _ = writeln!(
            out,
            "[{at:.3}s] GC({id})   {}",
            named
                .iter()
                .map(|(label, ns)| format!("{label} {:.2}ms", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = write!(
            out,
            "[{at:.3}s] GC({id})   copied {}K, promoted {}K, {} slots, {} steals",
            stats.copied_bytes >> 10,
            stats.promoted_bytes >> 10,
            stats.slots_processed,
            stats.steals
        );
        if stats.evac_failures > 0 {
            let _ = write!(out, ", {} evacuation failures", stats.evac_failures);
        }
        if stats.old_regions_collected > 0 {
            let _ = write!(out, ", {} old regions", stats.old_regions_collected);
        }
        out.push('\n');
    }
    out
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

    /// The pause of `stats` starting at `start_ns`.
    fn span(start_ns: u64, stats: &GcStats, mixed: bool, occupancy: (u64, u64)) -> PauseSpan {
        PauseSpan {
            start_ns,
            end_ns: start_ns + stats.mark_ns + stats.pause_ns(),
            mixed,
            recovered: false,
            before_bytes: occupancy.0,
            after_bytes: occupancy.1,
        }
    }

    #[test]
    fn young_entry_has_hotspot_shape() {
        let s = [stats()];
        let text = render(&s, &[span(108_170_000, &s[0], false, (7 << 20, 2 << 20))]);
        assert!(
            text.contains("GC(0) Pause Young (Normal) 7168K->2048K 4.83ms"),
            "{text}"
        );
        assert!(text.contains("scan 3.91ms"));
        assert!(text.contains("31337 slots"));
        assert!(!text.contains("mark"), "no mark line for young GC");
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn mixed_entries_show_mark_and_extras() {
        let mut s = stats();
        s.mark_ns = 1_500_000;
        s.old_regions_collected = 7;
        s.evac_failures = 3;
        let spans = [
            span(0, &s, true, (1 << 20, 1 << 19)),
            span(10_000_000, &s, true, (1 << 20, 1 << 19)),
        ];
        let text = render(&[s.clone(), s], &spans);
        assert!(text.contains("Pause Young (Mixed)"));
        assert!(text.contains("mark 1.50ms"));
        assert!(text.contains("7 old regions"));
        assert!(text.contains("3 evacuation failures"));
        assert!(text.contains("GC(1)"));
    }

    #[test]
    fn timestamps_come_from_the_pause_span() {
        // A line is stamped with the span's start plus the cycle's pause:
        // the end of a young pause, and for a mixed one the instant its
        // evacuation would have ended had the mark not preceded it.
        let young = stats();
        let mut mixed = stats();
        mixed.mark_ns = 500_000_000;
        let spans = [
            span(1_000_000_000, &young, false, (7 << 20, 2 << 20)),
            span(2_000_000_000, &mixed, true, (1 << 20, 1 << 19)),
        ];
        let text = render(&[young, mixed], &spans);
        assert!(
            text.contains("[1.005s] GC(0) Pause Young (Normal)"),
            "{text}"
        );
        assert!(
            text.contains("[2.005s] GC(1) Pause Young (Mixed)"),
            "{text}"
        );
        assert!(!text.contains("[2.505s]"), "{text}");
    }
}
