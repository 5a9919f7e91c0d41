//! The `MemorySystem` facade: LLC + prefetch tables + per-device ledgers.
//!
//! All simulated actors (mutator threads, GC workers, the async flusher)
//! funnel their memory operations through this type. Each operation takes
//! the actor's current simulated time and returns the completion time; the
//! discrete-event engine in `nvmgc-core` uses those clocks to interleave
//! actors deterministically.

use crate::bus::Ledger;
use crate::cache::LlcModel;
use crate::device::{AccessKind, DeviceId, DeviceParams, Pattern};
use crate::fault::{DeviceFault, MemFaultPlan, Windows};
use crate::persist::{DurabilityLedger, PersistConfig};
use crate::prefetch::PrefetchTable;
use crate::sampler::{device_track, TraceCat, TraceLog, TrafficSampler};
use crate::{Ns, CACHE_LINE};
use serde::Serialize;

/// Bandwidth-arbitration epoch length of both device ledgers, ns.
const EPOCH_NS: Ns = 20_000;
/// Traffic-sampler bin width, ns.
const SAMPLE_BIN_NS: Ns = 1_000_000;
/// Cost of an access served by the LLC, ns.
const LLC_HIT_NS: Ns = 14;
/// Cost of issuing a prefetch instruction, ns (1.5 ns on the modeled
/// core; the clock counts whole nanoseconds).
const PREFETCH_ISSUE_NS: Ns = 1;
/// Cost of a full memory fence, ns.
pub const FENCE_NS: Ns = 30;

/// Configuration of the simulated memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Modeled LLC capacity in bytes (scaled with the heap; see DESIGN.md).
    pub llc_bytes: u64,
    /// Outstanding software-prefetch slots per thread.
    pub prefetch_slots: usize,
    /// DRAM device parameters.
    pub dram: DeviceParams,
    /// NVM device parameters.
    pub nvm: DeviceParams,
    /// Persistence-order model configuration. When `persist.enabled` is
    /// set, NVM gets a durability ledger; DRAM never does, since no store
    /// to it survives a power failure.
    pub persist: PersistConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            llc_bytes: 2 << 20,
            prefetch_slots: 48,
            dram: DeviceParams::dram(),
            nvm: DeviceParams::optane(),
            persist: PersistConfig::default(),
        }
    }
}

/// Aggregate access counters, exported with experiment results.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MemStats {
    /// Word/bulk read operations per device.
    pub reads: [u64; 2],
    /// Word/bulk write operations per device.
    pub writes: [u64; 2],
    /// Bytes read per device.
    pub read_bytes: [u64; 2],
    /// Bytes written per device.
    pub write_bytes: [u64; 2],
    /// LLC demand hits.
    pub llc_hits: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
    /// Prefetches issued.
    pub prefetch_issued: u64,
    /// Prefetches that serviced a later demand access.
    pub prefetch_useful: u64,
    /// Bandwidth-ledger grant requests served, summed over devices. A
    /// deterministic work counter (depends only on the access stream).
    pub bus_grants: u64,
    /// LLC line installs from prefetch fills and bulk store runs.
    /// Deterministic, like `bus_grants`.
    pub llc_installs: u64,
    /// Extra grants issued because a bulk run crossed a fault-window edge
    /// (stall, collapse or write-combining drain stall) and was segmented:
    /// a run split into three segments adds two. Zero without an injected
    /// fault plan. Deterministic, like `bus_grants`.
    pub bulk_grant_splits: u64,
}

/// How a bulk run records into the durability ledger: not at all, as
/// regular (cacheable) stores from a base address, or as non-temporal
/// stores from a base address.
#[derive(Debug, Clone, Copy)]
enum BulkPersist {
    None,
    Store(u64),
    NtStore(u64),
}

/// The simulated hybrid DRAM + NVM memory system.
///
/// `Clone` captures the complete simulation-visible state (ledgers, LLC,
/// prefetch tables, sampler, trace, durability ledgers), which is what
/// lets a warm run image be snapshotted and forked.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    ledgers: [Ledger; 2],
    llc: LlcModel,
    tables: Vec<PrefetchTable>,
    /// Completion floor of a one-cache-line transfer per `[device][kind]`
    /// (resolved once at construction from the same division the general
    /// path computes, so the fast path yields the identical value).
    line_floor: [[Ns; 3]; 2],
    sampler: TrafficSampler,
    trace: TraceLog,
    stats: MemStats,
    /// Injected latency-spike windows per device index.
    spikes: [Windows; 2],
    /// See [`MemStats::bulk_grant_splits`].
    bulk_grant_splits: u64,
    /// The NVM durability ledger (None when the persistence model is
    /// disabled).
    persist: Option<DurabilityLedger>,
}

impl MemorySystem {
    /// Builds a memory system from a configuration.
    pub fn new(cfg: MemConfig) -> Self {
        let ledgers = [
            Ledger::new(cfg.dram.clone(), EPOCH_NS),
            Ledger::new(cfg.nvm.clone(), EPOCH_NS),
        ];
        let llc = LlcModel::new(cfg.llc_bytes);
        let sampler = TrafficSampler::new(SAMPLE_BIN_NS);
        let persist = cfg
            .persist
            .enabled
            .then(|| DurabilityLedger::new(cfg.persist.clone()));
        let mut line_floor = [[0 as Ns; 3]; 2];
        for (di, params) in [&cfg.dram, &cfg.nvm].into_iter().enumerate() {
            for kind in [AccessKind::Read, AccessKind::Write, AccessKind::NtWrite] {
                line_floor[di][kind.index()] =
                    (CACHE_LINE as f64 / params.thread_bandwidth(kind).max(1e-9)) as Ns;
            }
        }
        MemorySystem {
            cfg,
            ledgers,
            llc,
            tables: Vec::new(),
            line_floor,
            sampler,
            trace: TraceLog::new(),
            stats: MemStats::default(),
            spikes: Default::default(),
            bulk_grant_splits: 0,
            persist,
        }
    }

    /// Installs a device fault plan: stall and bandwidth-collapse windows
    /// go to the per-device ledgers, drain stalls to the durability
    /// ledger, latency-spike windows stay local. Replaces any previously
    /// installed plan.
    ///
    /// Every scheduled window is annotated on its device's trace lane
    /// (no-op while tracing is disabled): enable tracing *before*
    /// installing the plan to capture these.
    pub fn set_fault_plan(&mut self, plan: &MemFaultPlan) {
        let mut stalls: [Windows; 2] = Default::default();
        let mut collapses: [Windows; 2] = Default::default();
        let mut drain_stalls = Windows::default();
        self.spikes = Default::default();
        for ev in &plan.events {
            let (window, di) = (ev.window(), ev.device().index());
            self.trace.span(
                ev.name(),
                TraceCat::Fault,
                device_track(ev.device()),
                window.start,
                window.end,
                0,
            );
            match *ev {
                DeviceFault::LatencySpike { factor, .. } => self.spikes[di].push(window, factor),
                DeviceFault::BandwidthCollapse { factor, .. } => collapses[di].push(window, factor),
                DeviceFault::Stall { .. } => stalls[di].push(window, 1.0),
                DeviceFault::WcDrainStall { .. } => drain_stalls.push(window, 1.0),
            }
        }
        for (di, (s, c)) in stalls.into_iter().zip(collapses).enumerate() {
            self.ledgers[di].set_faults(s, c);
        }
        if let Some(ledger) = &mut self.persist {
            ledger.set_stall_windows(drain_stalls);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Sizes the per-thread prefetch tables for `n` simulated threads.
    ///
    /// Thread ids passed to accessors must be `< n` (ids beyond the sized
    /// range simply skip prefetch-table interaction).
    pub fn set_threads(&mut self, n: usize) {
        self.tables = (0..n)
            .map(|_| PrefetchTable::new(self.cfg.prefetch_slots))
            .collect();
    }

    /// Device parameters for `dev`.
    pub fn device(&self, dev: DeviceId) -> &DeviceParams {
        self.ledgers[dev.index()].params()
    }

    /// The traffic sampler (read access).
    pub fn sampler(&self) -> &TrafficSampler {
        &self.sampler
    }

    /// The traffic sampler (mutable, for phase marks and reset).
    pub fn sampler_mut(&mut self) -> &mut TrafficSampler {
        &mut self.sampler
    }

    /// The deterministic trace log (read access).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The trace log (mutable: enable recording, emit spans, drain).
    ///
    /// Enable *before* [`set_fault_plan`](Self::set_fault_plan) so the
    /// plan's windows are annotated on the device lanes.
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Aggregate statistics snapshot (LLC and prefetch counters included).
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.llc_hits = self.llc.hits();
        s.llc_misses = self.llc.misses();
        s.llc_installs = self.llc.installs();
        s.bulk_grant_splits = self.bulk_grant_splits;
        for l in &self.ledgers {
            s.bus_grants += l.grants();
        }
        for t in &self.tables {
            s.prefetch_issued += t.issued();
            s.prefetch_useful += t.useful();
        }
        s
    }

    /// Drops bandwidth accounting for epochs before `ns` (safe once every
    /// simulated clock has passed that point).
    pub fn retire_before(&mut self, ns: Ns) {
        for l in &mut self.ledgers {
            l.retire_before(ns);
        }
    }

    fn charge(
        &mut self,
        dev: DeviceId,
        kind: AccessKind,
        pattern: Pattern,
        bytes: u64,
        now: Ns,
    ) -> Ns {
        let done = self.ledgers[dev.index()].grant(now, kind, pattern, bytes);
        self.sampler.record(dev, kind, bytes, now);
        let di = dev.index();
        if kind.is_write() {
            self.stats.writes[di] += 1;
            self.stats.write_bytes[di] += bytes;
        } else {
            self.stats.reads[di] += 1;
            self.stats.read_bytes[di] += bytes;
        }
        done
    }

    /// The windows a bulk run on device index `di` is re-granted at the
    /// edges of: the bandwidth ledger's stalls and collapses always, the
    /// durability ledger's drain stalls only when the run records NVM
    /// stores.
    fn bulk_windows(&self, di: usize, track_persist: bool) -> impl Iterator<Item = &Windows> {
        let drain = self.persist.as_ref().filter(|_| track_persist);
        let drain = drain.map(DurabilityLedger::stall_windows);
        self.ledgers[di].windows().into_iter().chain(drain)
    }

    /// Records one segment of a bulk store into the durability ledger.
    fn record_bulk_persist(&mut self, persist: BulkPersist, offset: u64, len: u64, now: Ns) {
        match (persist, &mut self.persist) {
            (BulkPersist::Store(addr), Some(p)) => p.record_store(addr + offset, len, now),
            (BulkPersist::NtStore(addr), Some(p)) => p.record_nt_store(addr + offset, len, now),
            _ => {}
        }
    }

    /// Charges a contiguous bulk run, segmenting the grant at injected
    /// fault-window edges.
    ///
    /// A [`Ledger::grant`] samples stall deferral and the collapse
    /// factor only at its start time, and the durability ledger records
    /// a store burst under the burst's start time — so before this
    /// splitting existed, a fault window opening *mid-burst* was skipped
    /// entirely by any transfer that started before it. With no windows
    /// installed the run takes the single-grant fast path, which keeps
    /// fault-free results byte-identical to the unsplit model.
    ///
    /// Segment sizes follow the device's nominal bandwidth for the
    /// access kind between edges (at least one cache line per segment,
    /// so termination is unconditional); each segment is then priced
    /// through the shared epoch budget as its own grant, re-sampling
    /// fault state at the segment's start. Latency and the per-thread
    /// bandwidth floor still apply once per run.
    fn charge_bulk(
        &mut self,
        dev: DeviceId,
        kind: AccessKind,
        pattern: Pattern,
        persist: BulkPersist,
        len: u64,
        now: Ns,
    ) -> Ns {
        let di = dev.index();
        // Only NVM stores reach the ledger, and only when there is one.
        let persist = match (dev, &self.persist) {
            (DeviceId::Nvm, Some(_)) => persist,
            _ => BulkPersist::None,
        };
        let track_persist = !matches!(persist, BulkPersist::None);
        let split = self.bulk_windows(di, track_persist).any(|w| !w.is_empty());
        if !split || len == 0 {
            self.record_bulk_persist(persist, 0, len, now);
            let done = self.charge(dev, kind, pattern, len, now);
            return self.finish(dev, kind, pattern, len, now, done);
        }
        let rate = self.ledgers[di].params().bandwidth(kind, pattern).max(1e-9);
        let mut offset = 0u64;
        let mut cur = now;
        let queued = loop {
            let remaining = len - offset;
            let edges = self.bulk_windows(di, track_persist);
            let boundary = edges.filter_map(|w| w.next_edge(cur)).min();
            let seg = match boundary {
                Some(edge) => {
                    let span = edge.saturating_sub(cur).max(1);
                    let nominal = (span as f64 * rate) as u64;
                    nominal.max(CACHE_LINE).min(remaining)
                }
                None => remaining,
            };
            self.record_bulk_persist(persist, offset, seg, cur);
            let q = self.charge(dev, kind, pattern, seg, cur);
            offset += seg;
            if offset >= len {
                break q;
            }
            self.bulk_grant_splits += 1;
            self.trace.instant(
                "bulk-split",
                TraceCat::Fault,
                device_track(dev),
                cur,
                offset,
            );
            // The transfer streams continuously: the portion past the
            // edge is issued *at* the edge even when the shared queue
            // paces this kind below nominal bandwidth (otherwise the
            // queued completion of the pre-edge segment could jump past
            // a short window and bypass it all over again). `edge` is
            // strictly greater than the old `cur`, so time still makes
            // forward progress; termination is by `remaining` shrinking
            // at least one cache line per iteration regardless.
            let mut next = q.max(cur);
            if let Some(edge) = boundary {
                next = next.min(edge);
            }
            cur = next.max(cur);
        };
        self.finish(dev, kind, pattern, len, now, queued)
    }

    /// Completion time respecting both the shared-device queue and the
    /// per-thread bandwidth ceiling, plus latency (inflated by any active
    /// injected latency spike).
    fn finish(
        &self,
        dev: DeviceId,
        kind: AccessKind,
        pattern: Pattern,
        bytes: u64,
        now: Ns,
        queued_done: Ns,
    ) -> Ns {
        let p = self.device(dev);
        let floor = if bytes == CACHE_LINE {
            self.line_floor[dev.index()][kind.index()]
        } else {
            (bytes as f64 / p.thread_bandwidth(kind).max(1e-9)) as Ns
        };
        let latency = self.spikes[dev.index()].scale(p.latency(kind, pattern), now);
        let transfer = (queued_done - now).max(floor);
        now + transfer + latency as Ns
    }

    /// Reads one word (treated as one cache line of traffic on a miss).
    ///
    /// Checks the thread's software-prefetch table first, then the LLC,
    /// then pays the device's random-read cost.
    pub fn read_word(&mut self, tid: usize, dev: DeviceId, addr: u64, now: Ns) -> Ns {
        if let Some(table) = self.tables.get_mut(tid) {
            if let Some(ready_at) = table.consume(addr) {
                self.llc.install(addr);
                let start = now.max(ready_at);
                return start + LLC_HIT_NS;
            }
        }
        if self.llc.access(addr) {
            return now + LLC_HIT_NS;
        }
        let done = self.charge(dev, AccessKind::Read, Pattern::Rand, CACHE_LINE, now);
        self.finish(dev, AccessKind::Read, Pattern::Rand, CACHE_LINE, now, done)
    }

    /// Writes one word.
    ///
    /// The dirtied line is eventually written back to the device, so the
    /// store always charges one line of write bandwidth — this is how
    /// random reference/header updates poison the NVM bandwidth for every
    /// concurrent reader (the paper's §2.3 observation). An LLC hit hides
    /// the store's *latency* (write-allocate + store buffer), a miss
    /// stalls for the device write path.
    pub fn write_word(&mut self, tid: usize, dev: DeviceId, addr: u64, now: Ns) -> Ns {
        let _ = tid;
        let hit = self.llc.access(addr);
        if let (DeviceId::Nvm, Some(p)) = (dev, &mut self.persist) {
            // Known quirk, kept because fixing it re-blesses every durable
            // result: `addr` is the unaligned word address, so the 64 B
            // recorded here end in the *next* line for seven word offsets
            // of eight, and the ledger dirties two lines for one 8 B store
            // (DESIGN.md, "Model simplifications worth knowing").
            p.record_store(addr, CACHE_LINE, now);
        }
        let done = self.charge(dev, AccessKind::Write, Pattern::Rand, CACHE_LINE, now);
        if hit {
            now + LLC_HIT_NS
        } else {
            self.finish(dev, AccessKind::Write, Pattern::Rand, CACHE_LINE, now, done)
        }
    }

    /// Reads the contiguous sequential run `[addr, addr + len)`: one
    /// ledger grant, one sampler record, one stats update.
    ///
    /// LLC effect per run: none. A streaming read neither expects to hit
    /// (the runs routed here — write-cache drains, card/region scans,
    /// root-array shares — walk data far larger than a few lines) nor
    /// pollutes the cache (hardware streaming loads mostly bypass it),
    /// so the run is charged at the device's sequential-read rate
    /// without touching cache state.
    pub fn read_bulk(&mut self, dev: DeviceId, addr: u64, len: u64, now: Ns) -> Ns {
        let _ = addr;
        self.charge_bulk(
            dev,
            AccessKind::Read,
            Pattern::Seq,
            BulkPersist::None,
            len,
            now,
        )
    }

    /// Writes the contiguous sequential run `[addr, addr + len)` with
    /// regular (write-allocating) stores: one ledger grant, one sampler
    /// record, one stats update.
    ///
    /// LLC effect per run: the written lines are installed — a regular
    /// store stream leaves its destination cache-hot — but approximated
    /// as a single range install whose cost and residency are capped at
    /// the cache capacity (see [`LlcModel::install_range`]); under LRU
    /// only the tail of an over-capacity stream survives anyway.
    pub fn write_bulk(&mut self, dev: DeviceId, addr: u64, len: u64, now: Ns) -> Ns {
        let done = self.charge_bulk(
            dev,
            AccessKind::Write,
            Pattern::Seq,
            BulkPersist::Store(addr),
            len,
            now,
        );
        self.llc.install_range(addr, len);
        done
    }

    /// Writes the contiguous run `[addr, addr + len)` with non-temporal
    /// stores: one ledger grant, one sampler record, one stats update.
    ///
    /// LLC effect per run: the destination range is *invalidated* — NT
    /// stores bypass the cache but evict any stale lines they overlap,
    /// so a later read of the written range must go to the device rather
    /// than hit leftover tags from the range's previous life.
    pub fn nt_write_bulk(&mut self, dev: DeviceId, addr: u64, len: u64, now: Ns) -> Ns {
        let done = self.charge_bulk(
            dev,
            AccessKind::NtWrite,
            Pattern::Seq,
            BulkPersist::NtStore(addr),
            len,
            now,
        );
        self.llc.invalidate_range(addr, len);
        done
    }

    /// Issues a software prefetch for the line containing `addr`.
    ///
    /// Consumes bandwidth immediately but only costs the thread the issue
    /// overhead; the fill completes asynchronously.
    pub fn prefetch(&mut self, tid: usize, dev: DeviceId, addr: u64, now: Ns) -> Ns {
        let issue_done = now + PREFETCH_ISSUE_NS;
        if self.tables.get(tid).is_none() {
            return issue_done;
        }
        let queued = self.charge(dev, AccessKind::Read, Pattern::Rand, CACHE_LINE, now);
        let ready = self.finish(
            dev,
            AccessKind::Read,
            Pattern::Rand,
            CACHE_LINE,
            now,
            queued,
        );
        self.tables[tid].issue(addr, ready);
        issue_done
    }

    /// A full store fence (`SFENCE`-like), required after non-temporal
    /// writes before data may be read by other threads.
    pub fn fence(&mut self, now: Ns) -> Ns {
        now + FENCE_NS
    }

    /// Invalidates cached lines for a recycled address range.
    pub fn invalidate_range(&mut self, start: u64, len: u64) {
        self.llc.invalidate_range(start, len);
    }

    /// The NVM durability ledger; `None` when the persistence model is
    /// off. Only `nvmgc_core::durable` drives it.
    pub fn ledger(&self) -> Option<&DurabilityLedger> {
        self.persist.as_ref()
    }

    /// The NVM durability ledger (mutable); `None` when the persistence
    /// model is off.
    pub fn ledger_mut(&mut self) -> Option<&mut DurabilityLedger> {
        self.persist.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultWindow;
    use crate::sampler::{mbps, traffic_in};

    fn sys() -> MemorySystem {
        let mut m = MemorySystem::new(MemConfig::default());
        m.set_threads(4);
        m
    }

    #[test]
    fn nvm_random_read_slower_than_dram() {
        let mut m = sys();
        let d = m.read_word(0, DeviceId::Dram, 0x1000, 0);
        let mut m2 = sys();
        let n = m2.read_word(0, DeviceId::Nvm, 0x1000, 0);
        assert!(n > 2 * d, "nvm {n} vs dram {d}");
    }

    #[test]
    fn second_read_of_same_line_hits_llc() {
        let mut m = sys();
        let t1 = m.read_word(0, DeviceId::Nvm, 0x1000, 0);
        let t2 = m.read_word(0, DeviceId::Nvm, 0x1000, t1);
        assert_eq!(t2 - t1, LLC_HIT_NS);
    }

    #[test]
    fn prefetched_read_is_cheap_after_fill_completes() {
        let mut m = sys();
        let addr = 0x8_0000;
        m.prefetch(0, DeviceId::Nvm, addr, 0);
        // Wait well past the fill time, then access.
        let start = 100_000;
        let done = m.read_word(0, DeviceId::Nvm, addr, start);
        assert_eq!(done - start, LLC_HIT_NS);
    }

    #[test]
    fn premature_access_waits_for_inflight_prefetch() {
        let mut m = sys();
        let addr = 0x8_0000;
        m.prefetch(0, DeviceId::Nvm, addr, 0);
        let done = m.read_word(0, DeviceId::Nvm, addr, 1);
        // Must wait at least the NVM random latency (the fill in flight),
        // but less than latency + a fresh demand miss.
        let lat = m.config().nvm.lat_read_rand_ns as Ns;
        assert!(done >= lat, "done {done} < lat {lat}");
        assert!(done < 2 * lat + 100);
    }

    #[test]
    fn prefetch_only_benefits_issuing_thread() {
        let mut m = sys();
        let addr = 0x8_0000;
        m.prefetch(0, DeviceId::Nvm, addr, 0);
        let done = m.read_word(1, DeviceId::Nvm, addr, 100_000);
        let lat = m.config().nvm.lat_read_rand_ns as Ns;
        assert!(done - 100_000 >= lat);
    }

    #[test]
    fn bulk_nt_write_beats_bulk_regular_write_on_nvm() {
        let mut m = sys();
        let w = m.write_bulk(DeviceId::Nvm, 0, 1 << 20, 0);
        let mut m2 = sys();
        let nt = m2.nt_write_bulk(DeviceId::Nvm, 0, 1 << 20, 0);
        assert!(nt < w, "nt {nt} vs write {w}");
    }

    #[test]
    fn many_threads_saturate_nvm_but_not_dram() {
        // 16 threads each streaming 1 MB of reads concurrently.
        let measure = |dev: DeviceId| {
            let mut m = sys();
            let mut worst: Ns = 0;
            for _ in 0..16 {
                let done = m.read_bulk(dev, 0, 1 << 20, 0);
                worst = worst.max(done);
            }
            worst
        };
        let nvm = measure(DeviceId::Nvm);
        let dram = measure(DeviceId::Dram);
        // NVM total demand = 16 MB at ~38 GB/s ⇒ ≥ 440 µs; DRAM ≫ faster.
        assert!(nvm > 5 * dram / 2, "nvm {nvm} dram {dram}");
    }

    #[test]
    fn stats_track_traffic() {
        let mut m = sys();
        m.read_bulk(DeviceId::Nvm, 0, 1000, 0);
        m.nt_write_bulk(DeviceId::Nvm, 0, 500, 0);
        let s = m.stats();
        assert_eq!(s.read_bytes[DeviceId::Nvm.index()], 1000);
        assert_eq!(s.write_bytes[DeviceId::Nvm.index()], 500);
    }

    #[test]
    fn sampler_sees_phase_traffic() {
        let mut m = sys();
        m.read_bulk(DeviceId::Nvm, 0, 1 << 16, 0);
        let gc = [(0, 1_000_000)].into_iter();
        let (read, _, dur) = traffic_in(m.sampler().series(DeviceId::Nvm), SAMPLE_BIN_NS, gc);
        assert!(mbps(read, dur) > 0.0);
    }

    #[test]
    fn fence_advances_time() {
        let mut m = sys();
        assert!(m.fence(100) > 100);
    }

    #[test]
    fn latency_spike_multiplies_the_access_latency() {
        let mut m = sys();
        let base = m.read_word(0, DeviceId::Nvm, 0x9000, 0);
        let mut m2 = sys();
        m2.set_fault_plan(&MemFaultPlan {
            events: vec![DeviceFault::LatencySpike {
                dev: DeviceId::Nvm,
                window: FaultWindow {
                    start: 0,
                    end: 1_000_000,
                },
                factor: 8.0,
            }],
        });
        let spiked = m2.read_word(0, DeviceId::Nvm, 0x9000, 0);
        // The same transfer, with eight times the latency.
        let lat = m
            .device(DeviceId::Nvm)
            .latency(AccessKind::Read, Pattern::Rand);
        assert_eq!(spiked - base, (lat * 8.0) as Ns - lat as Ns);
        // Past the window the device is healthy again.
        let after = m2.read_word(0, DeviceId::Nvm, 0xF_0000, 2_000_000);
        assert!(after - 2_000_000 <= base + 100);
    }

    #[test]
    fn fault_plan_routes_stalls_to_the_right_device() {
        let mut m = sys();
        m.set_fault_plan(&MemFaultPlan {
            events: vec![DeviceFault::Stall {
                dev: DeviceId::Nvm,
                window: FaultWindow {
                    start: 0,
                    end: 50_000,
                },
            }],
        });
        // DRAM unaffected.
        let d = m.read_bulk(DeviceId::Dram, 0, 64, 0);
        assert!(d < 50_000);
        // NVM grants the read as a healthy ledger does at the stall's
        // end; the latency follows.
        let n = m.read_bulk(DeviceId::Nvm, 0, 64, 0);
        let nvm = m.config().nvm.clone();
        let granted =
            Ledger::new(nvm.clone(), EPOCH_NS).grant(50_000, AccessKind::Read, Pattern::Seq, 64);
        assert_eq!(
            n,
            granted + nvm.latency(AccessKind::Read, Pattern::Seq) as Ns
        );
    }

    fn ledger_sys() -> MemorySystem {
        let mut cfg = MemConfig::default();
        cfg.persist.enabled = true;
        cfg.persist.seed = 11;
        let mut m = MemorySystem::new(cfg);
        m.set_threads(4);
        m
    }

    /// Each store path — word, bulk and NT bulk — records into the NVM
    /// ledger when it targets NVM and never when it targets DRAM; with the
    /// model disabled there is no ledger at all.
    #[test]
    fn dram_stores_never_reach_the_ledger() {
        type Store = fn(&mut MemorySystem, DeviceId) -> Ns;
        let paths: [(&str, Store); 3] = [
            ("word", |m, dev| m.write_word(0, dev, 0x4000, 0)),
            ("bulk", |m, dev| m.write_bulk(dev, 0x4000, 256, 0)),
            ("nt bulk", |m, dev| m.nt_write_bulk(dev, 0x4000, 256, 0)),
        ];
        let image = |m: &MemorySystem| format!("{:?}", m.ledger().unwrap().crash_image());
        let untouched = image(&ledger_sys());
        for (name, store) in paths {
            let mut dram = ledger_sys();
            store(&mut dram, DeviceId::Dram);
            assert_eq!(image(&dram), untouched, "{name} store to DRAM");
            let mut nvm = ledger_sys();
            store(&mut nvm, DeviceId::Nvm);
            assert_ne!(image(&nvm), untouched, "{name} store to NVM");
        }
        // Disabled model: no ledger anywhere.
        assert!(sys().ledger().is_none());
    }

    #[test]
    fn persistence_tracking_never_changes_timing() {
        let run = |mut m: MemorySystem| {
            let mut t = 0;
            t = m.write_word(0, DeviceId::Nvm, 0x100, t);
            t = m.write_bulk(DeviceId::Nvm, 0x8000, 4096, t);
            t = m.nt_write_bulk(DeviceId::Nvm, 0x10_000, 4096, t);
            if let Some(ledger) = m.ledger_mut() {
                ledger.drain_all(t);
                ledger.forget_range(0x8000, 4096);
            }
            t
        };
        assert_eq!(run(sys()), run(ledger_sys()));
    }

    #[test]
    fn drain_all_then_crash_keeps_nt_lines() {
        let mut m = ledger_sys();
        m.nt_write_bulk(DeviceId::Nvm, 0x4000, 4096, 10);
        m.ledger_mut().unwrap().drain_all(20);
        let img = m.ledger().unwrap().crash_image();
        assert_eq!(img.durable_lines(), 64);
        assert_eq!(img.discarded_lines, 0);
    }

    #[test]
    fn wc_drain_stall_routes_to_the_persist_ledger() {
        let durable_after_burst = |plan: MemFaultPlan| {
            let mut m = ledger_sys();
            m.set_fault_plan(&plan);
            // Enough NT traffic to exceed the buffer capacity.
            m.nt_write_bulk(DeviceId::Nvm, 0, 256 * 128, 10);
            m.ledger().unwrap().crash_image().durable_lines()
        };
        let stall = DeviceFault::WcDrainStall {
            window: FaultWindow {
                start: 0,
                end: 1_000_000,
            },
        };
        // Inside the stall window the capacity drains defer, so the crash
        // image holds fewer durable lines than a healthy device's.
        let stalled = durable_after_burst(MemFaultPlan {
            events: vec![stall],
        });
        let healthy = durable_after_burst(MemFaultPlan::none());
        assert!(stalled < healthy, "{stalled} vs {healthy}");
    }

    #[test]
    fn unknown_tid_skips_prefetch_table() {
        let mut m = sys();
        let t = m.prefetch(99, DeviceId::Nvm, 0x40, 0);
        assert!(t >= 1);
        // Does not panic and no table recorded it.
        assert_eq!(m.stats().prefetch_issued, 0);
    }
}
