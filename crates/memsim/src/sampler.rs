//! Traffic sampling — the reproduction's stand-in for Intel PCM.
//!
//! Every grant at a device is recorded into fixed-width time bins, split by
//! device and read/write direction. Experiments pull the resulting series
//! to plot the bandwidth timelines of Figs. 2, 3 and 7. The sampler knows
//! nothing about *when* a run collected: [`traffic_in`] sums the bins under
//! whatever intervals the caller's timeline supplies (Fig. 6's "NVM
//! bandwidth during GC" is the traffic inside the run's pauses).

use crate::device::{AccessKind, DeviceId};
use crate::Ns;
use serde::Serialize;

/// Track id of whole-cycle (collection-level) trace spans.
///
/// Worker tracks use the worker id directly and the mutator uses the
/// first id past the GC workers, so collection/device lanes live far
/// above any plausible thread count.
pub const TRACK_CYCLE: u32 = 1_000_000;

/// Track id of device lane `dev` (fault windows, fences, bulk splits).
pub fn device_track(dev: DeviceId) -> u32 {
    TRACK_CYCLE + 1 + dev.index() as u32
}

/// Category of a trace event, used to group lanes in viewers and to
/// filter in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceCat {
    /// A whole stop-the-world collection (one span per cycle).
    Cycle,
    /// A per-worker GC sub-phase span (scan / write-back / map-clear /
    /// mark).
    Phase,
    /// A mutator execution interval.
    Mutator,
    /// A persistence-order event (fence, metadata persist, cycle-end
    /// drain).
    Fence,
    /// An injected-fault annotation (window span, bulk-grant split).
    Fault,
}

/// One entry of the deterministic trace log.
///
/// Timestamps are *simulated* nanoseconds — never host time — so a trace
/// is a pure function of the configuration and seed. Spans carry a
/// nonzero `dur`; instants have `dur == 0`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// Event start, simulated ns.
    pub ts: Ns,
    /// Span duration in ns (0 for instant events).
    pub dur: Ns,
    /// Lane: GC worker id, the mutator lane (one past the workers), or a
    /// [`TRACK_CYCLE`]/[`device_track`] lane.
    pub track: u32,
    /// Static event label (e.g. `"scan"`, `"persist-drain"`).
    pub name: &'static str,
    /// Category lane grouping.
    pub cat: TraceCat,
    /// Numeric payload: cycle index, byte count, split offset — whatever
    /// the emitting site documents.
    pub arg: u64,
}

/// Deterministic span/instant event log — the reproduction's
/// observability layer.
///
/// Disabled by default (recording costs memory); every recording method
/// is a no-op until [`TraceLog::set_enabled`] turns it on, which keeps
/// all existing figures byte-identical. Events are emitted by the
/// single-threaded discrete-event simulation in `(clock, worker)` step
/// order, so the log itself is reproducible; [`TraceLog::sorted`]
/// additionally canonicalizes by `(ts, track)` for byte-stable export
/// regardless of emission interleaving across phases.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an empty, disabled log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a span `[start, end)` on `track`.
    pub fn span(
        &mut self,
        name: &'static str,
        cat: TraceCat,
        track: u32,
        start: Ns,
        end: Ns,
        arg: u64,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                ts: start,
                dur: end.saturating_sub(start),
                track,
                name,
                cat,
                arg,
            });
        }
    }

    /// Records an instant event at `ts` on `track`.
    pub fn instant(&mut self, name: &'static str, cat: TraceCat, track: u32, ts: Ns, arg: u64) {
        self.span(name, cat, track, ts, ts, arg);
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The events canonically ordered by `(ts, track)`, ties preserving
    /// emission order (stable sort) — the order exporters must use.
    pub fn sorted(&self) -> Vec<TraceEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(|e| (e.ts, e.track));
        out
    }

    /// Removes and returns all recorded events (canonical order).
    pub fn take_sorted(&mut self) -> Vec<TraceEvent> {
        let sorted = self.sorted();
        self.events.clear();
        sorted
    }
}

/// One bin of the sampled bandwidth series.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct TrafficSample {
    /// Bytes read from the device within the bin.
    pub read_bytes: u64,
    /// Bytes written to the device within the bin.
    pub write_bytes: u64,
}

impl TrafficSample {
    /// Read bandwidth over a bin of `bin_ns`, in MB/s.
    pub fn read_mbps(&self, bin_ns: Ns) -> f64 {
        mbps(self.read_bytes, bin_ns)
    }

    /// Write bandwidth over a bin of `bin_ns`, in MB/s.
    pub fn write_mbps(&self, bin_ns: Ns) -> f64 {
        mbps(self.write_bytes, bin_ns)
    }
}

/// `bytes` over `ns` as MB/s (zero over an empty span).
pub fn mbps(bytes: u64, ns: Ns) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    // bytes/ns = GB/s; ×1000 for MB/s.
    bytes as f64 / ns as f64 * 1000.0
}

/// Traffic of `series` (bins of `bin_ns`) inside the half-open
/// `[from, to)` intervals: read bytes, write bytes and the intervals'
/// total length in ns. A bin counts whole when an interval touches it.
///
/// Bytes and duration come back separately because `(rd + wr) / dur` and
/// `rd / dur + wr / dur` differ in the last bit; each caller keeps the
/// operation order its committed numbers were produced with.
pub fn traffic_in(
    series: &[TrafficSample],
    bin_ns: Ns,
    intervals: impl Iterator<Item = (Ns, Ns)>,
) -> (u64, u64, Ns) {
    let (mut read, mut write, mut dur) = (0u64, 0u64, 0u64);
    for (from, to) in intervals.filter(|&(from, to)| to > from) {
        dur += to - from;
        let first = (from / bin_ns) as usize;
        let last = ((to - 1) / bin_ns) as usize;
        for bin in series.iter().take(last + 1).skip(first) {
            read += bin.read_bytes;
            write += bin.write_bytes;
        }
    }
    (read, write, dur)
}

/// Records per-bin traffic for both devices.
#[derive(Debug, Clone)]
pub struct TrafficSampler {
    bin_ns: Ns,
    /// Indexed `[device][bin]`.
    bins: [Vec<TrafficSample>; 2],
    enabled: bool,
    /// Cache of the last bin resolved by [`record`](Self::record): the
    /// bin index and its start time. Consecutive records land in the
    /// same bin far more often than not (simulated clocks advance a few
    /// ns per access), so this skips the 64-bit division on the hit
    /// path. Pure cache — no observable effect.
    last_bin: usize,
    last_bin_start: Ns,
}

impl TrafficSampler {
    /// Creates a sampler with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_ns` is zero.
    pub fn new(bin_ns: Ns) -> Self {
        assert!(bin_ns > 0, "bin width must be positive");
        TrafficSampler {
            bin_ns,
            bins: [Vec::new(), Vec::new()],
            enabled: true,
            last_bin: 0,
            last_bin_start: 0,
        }
    }

    /// The sampling bin width in nanoseconds.
    pub fn bin_ns(&self) -> Ns {
        self.bin_ns
    }

    /// Enables or disables recording (disabled sampling saves memory in
    /// sweeps that only need aggregate statistics).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records `bytes` of traffic of `kind` at `dev`, attributed to the bin
    /// containing `at`.
    pub fn record(&mut self, dev: DeviceId, kind: AccessKind, bytes: u64, at: Ns) {
        if !self.enabled || bytes == 0 {
            return;
        }
        let bin = if at.wrapping_sub(self.last_bin_start) < self.bin_ns {
            self.last_bin
        } else {
            let b = (at / self.bin_ns) as usize;
            self.last_bin = b;
            self.last_bin_start = b as Ns * self.bin_ns;
            b
        };
        let series = &mut self.bins[dev.index()];
        if series.len() <= bin {
            series.resize(bin + 1, TrafficSample::default());
        }
        if kind.is_write() {
            series[bin].write_bytes += bytes;
        } else {
            series[bin].read_bytes += bytes;
        }
    }

    /// The recorded series for a device.
    pub fn series(&self, dev: DeviceId) -> &[TrafficSample] {
        &self.bins[dev.index()]
    }

    /// Total (read, write) bytes recorded for a device.
    pub fn totals(&self, dev: DeviceId) -> (u64, u64) {
        self.series(dev)
            .iter()
            .fold((0, 0), |(r, w), s| (r + s.read_bytes, w + s.write_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut s = TrafficSampler::new(1000);
        s.record(DeviceId::Nvm, AccessKind::Read, 100, 0);
        s.record(DeviceId::Nvm, AccessKind::Write, 50, 1500);
        s.record(DeviceId::Dram, AccessKind::NtWrite, 10, 10);
        let nvm = s.series(DeviceId::Nvm);
        assert_eq!(nvm[0].read_bytes, 100);
        assert_eq!(nvm[1].write_bytes, 50);
        assert_eq!(s.series(DeviceId::Dram)[0].write_bytes, 10);
    }

    #[test]
    fn bandwidth_units_are_mbps() {
        // 1000 bytes over a 1000 ns bin = 1 B/ns = 1 GB/s = 1000 MB/s.
        let s = TrafficSample {
            read_bytes: 1000,
            write_bytes: 0,
        };
        assert!((s.read_mbps(1000) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_in_only_counts_the_given_intervals() {
        let mut s = TrafficSampler::new(1000);
        s.record(DeviceId::Nvm, AccessKind::Read, 4000, 500); // bin 0
        s.record(DeviceId::Nvm, AccessKind::Read, 8000, 5500); // bin 5
        let gc = [(0, 1000)].into_iter();
        let (read, write, dur) = traffic_in(s.series(DeviceId::Nvm), s.bin_ns(), gc);
        assert!((mbps(read, dur) - 4000.0).abs() < 1e-9, "read {read}");
        assert_eq!(mbps(write, dur), 0.0);
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut s = TrafficSampler::new(1000);
        s.set_enabled(false);
        s.record(DeviceId::Nvm, AccessKind::Read, 100, 0);
        assert!(s.series(DeviceId::Nvm).is_empty());
    }

    #[test]
    fn totals_accumulate() {
        let mut s = TrafficSampler::new(1000);
        s.record(DeviceId::Nvm, AccessKind::Read, 100, 0);
        s.record(DeviceId::Nvm, AccessKind::Write, 7, 99_000);
        assert_eq!(s.totals(DeviceId::Nvm), (100, 7));
    }

    #[test]
    fn trace_log_is_disabled_by_default() {
        let mut t = TraceLog::new();
        t.span("scan", TraceCat::Phase, 0, 0, 10, 0);
        t.instant(
            "persist-drain",
            TraceCat::Fence,
            device_track(DeviceId::Nvm),
            5,
            0,
        );
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.span("scan", TraceCat::Phase, 0, 0, 10, 0);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn trace_sorted_orders_by_time_then_track() {
        let mut t = TraceLog::new();
        t.set_enabled(true);
        t.span("b", TraceCat::Phase, 2, 50, 60, 0);
        t.span("a", TraceCat::Phase, 1, 50, 55, 0);
        t.instant("i", TraceCat::Fence, 0, 10, 0);
        let sorted = t.sorted();
        assert_eq!(sorted[0].name, "i");
        assert_eq!(sorted[1].name, "a");
        assert_eq!(sorted[2].name, "b");
        // Instants have zero duration; spans keep theirs.
        assert_eq!(sorted[0].dur, 0);
        assert_eq!(sorted[2].dur, 10);
    }

    #[test]
    fn trace_take_drains_the_log() {
        let mut t = TraceLog::new();
        t.set_enabled(true);
        t.instant("x", TraceCat::Fault, 0, 1, 0);
        assert_eq!(t.take_sorted().len(), 1);
        assert!(t.events().is_empty());
        t.instant("y", TraceCat::Fault, 0, 2, 0);
        assert_eq!(t.events().len(), 1, "take keeps the enabled flag");
    }

    #[test]
    fn device_tracks_clear_worker_id_space() {
        assert!(device_track(DeviceId::Dram) > TRACK_CYCLE);
        assert_ne!(device_track(DeviceId::Dram), device_track(DeviceId::Nvm));
    }
}
