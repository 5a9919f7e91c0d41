//! Collector configuration and the paper's evaluation presets.

use crate::fault::FaultPlan;

/// Which collector algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorKind {
    /// Regional, G1-like young collection (per-worker survivor regions).
    G1,
    /// Parallel-Scavenge-like young collection (small LABs within shared
    /// regions, direct copy for large objects).
    Ps,
    /// Semispace baseline: every survivor copy bump-allocates from one
    /// shared region — no per-worker regions, no LABs. The control plan
    /// that isolates what the regional machinery itself contributes.
    Semispace,
}

/// Heap-traversal order (ablation; the paper discusses and rejects BFS in
/// §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Stack-based depth-first search — what HotSpot collectors use.
    Dfs,
    /// Queue-based breadth-first search — deterministic prefetch distance
    /// but poor object locality.
    Bfs,
}

/// Write-cache settings (paper §3.2, §4.2 and Fig. 11).
#[derive(Debug, Clone, Copy)]
pub struct WriteCacheConfig {
    /// Master switch.
    pub enabled: bool,
    /// Maximum bytes of DRAM the cache may hold; `u64::MAX` is the
    /// "sync-unlimited" setting of Fig. 11. The paper's default is 1/32 of
    /// the heap.
    pub max_bytes: u64,
    /// Flush full, fully-updated cache regions during the read-mostly
    /// sub-phase ("async" in Fig. 11) instead of only at the end.
    pub async_flush: bool,
    /// Use non-temporal stores for write-back (paper §4.1).
    pub nt_store: bool,
}

impl WriteCacheConfig {
    /// Disabled write cache (vanilla collectors).
    pub fn disabled() -> Self {
        WriteCacheConfig {
            enabled: false,
            max_bytes: 0,
            async_flush: false,
            nt_store: false,
        }
    }
}

/// Header-map settings (paper §3.3 and Fig. 10).
#[derive(Debug, Clone, Copy)]
pub struct HeaderMapConfig {
    /// Master switch.
    pub enabled: bool,
    /// DRAM bytes for the closed-hashing table (16 bytes per entry).
    pub max_bytes: u64,
    /// Bounded-probing limit (`SEARCH_BOUND` in Algorithm 1).
    pub search_bound: u32,
    /// The map only activates when the GC thread count *exceeds* this
    /// threshold — with few threads the read bandwidth is unsaturated and
    /// the map's extra lookups cost more than they save (paper §3.3;
    /// default 8).
    pub min_threads: usize,
    /// Durable variant: the map lives on NVM instead of DRAM and every
    /// install is persistence-fenced (key CAS → value publish → fence,
    /// the durable-linearizable order of Sela & Petrank). Installs cost
    /// NVM line traffic plus a fence, but the crash image then holds a
    /// well-defined durable prefix of forwarding pointers that
    /// [`recover_from_crash`](crate::g1::G1Collector::recover_from_crash)
    /// replays to resume an interrupted evacuation.
    ///
    /// All of this holds only while the map is active, that is with more
    /// than [`min_threads`](Self::min_threads) GC threads. At or below the
    /// threshold the map is off and the setting does nothing: the run is
    /// volatile, with no durable publish and no crash recovery (see
    /// [`GcConfig::durable_map_active`]).
    pub durable: bool,
}

impl HeaderMapConfig {
    /// Disabled header map.
    pub fn disabled() -> Self {
        HeaderMapConfig {
            enabled: false,
            max_bytes: 0,
            search_bound: 16,
            min_threads: 8,
            durable: false,
        }
    }
}

/// Crash-consistent region-allocator settings (PR 8).
///
/// The heap's two-level allocator always maintains its lower table and
/// journal bookkeeping (so warm snapshots stay config-independent);
/// this knob only controls whether the collector *charges* the journal
/// to the NVM durability ledger at safepoints and runs the allocator
/// recovery scan after a power crash.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorConfig {
    /// Journal per-region lower-table entries through the durability
    /// ledger (`persist_meta` + charged NVM line traffic) and rebuild
    /// the free-stack from the durable view during crash recovery.
    pub durable: bool,
}

impl AllocatorConfig {
    /// Volatile allocator metadata (all presets).
    pub fn volatile() -> Self {
        AllocatorConfig { durable: false }
    }
}

/// Deterministic race-exploration settings (llfree's `stop.rs`
/// technique). When seeded, allocator and header-map operations pass
/// through synchronization points that inject seeded clock skew, forcing
/// the deterministic engine through adversarial interleavings — checked
/// by the existing oracles, reproducible from the seed.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// Exploration seed; `None` disables the layer (zero cost).
    pub seed: Option<u64>,
}

impl RaceConfig {
    /// Race exploration off (all presets).
    pub fn off() -> Self {
        RaceConfig { seed: None }
    }
}

/// Full collector configuration.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Collector algorithm.
    pub collector: CollectorKind,
    /// Number of parallel GC worker threads.
    pub threads: usize,
    /// Write-cache settings.
    pub write_cache: WriteCacheConfig,
    /// Header-map settings.
    pub header_map: HeaderMapConfig,
    /// Software prefetching on work-stack pushes and header-map probes.
    pub prefetch: bool,
    /// Traversal order.
    pub traversal: Traversal,
    /// Objects surviving this many collections are promoted to the old
    /// generation.
    pub tenure_age: u8,
    /// Async-flush chunk size in bytes.
    pub flush_chunk_bytes: u32,
    /// Deterministic fault-injection plan (empty by default). The GC-level
    /// schedule is applied by the collector; the runner installs the
    /// device-level schedule into the memory system.
    pub fault: FaultPlan,
    /// Crash-consistent region-allocator settings.
    pub allocator: AllocatorConfig,
    /// Deterministic race-exploration settings.
    pub race: RaceConfig,
}

impl GcConfig {
    /// Vanilla G1: the unmodified copy-and-traverse baseline.
    pub fn vanilla(threads: usize) -> Self {
        GcConfig {
            collector: CollectorKind::G1,
            threads,
            write_cache: WriteCacheConfig::disabled(),
            header_map: HeaderMapConfig::disabled(),
            // Vanilla G1 already prefetches on push (paper §4.3).
            prefetch: true,
            traversal: Traversal::Dfs,
            tenure_age: 3,
            flush_chunk_bytes: 64 << 10,
            fault: FaultPlan::none(),
            allocator: AllocatorConfig::volatile(),
            race: RaceConfig::off(),
        }
    }

    /// "+writecache": vanilla plus the DRAM write cache with NT
    /// write-back. `heap_bytes` sizes the cache at the paper's default of
    /// 1/32 of the heap.
    pub fn plus_writecache(threads: usize, heap_bytes: u64) -> Self {
        let mut c = GcConfig::vanilla(threads);
        c.write_cache = WriteCacheConfig {
            enabled: true,
            max_bytes: (heap_bytes / 32).max(1 << 20),
            async_flush: false,
            nt_store: true,
        };
        c
    }

    /// "+all": write cache + header map + extended prefetching.
    ///
    /// `headermap_bytes` follows the paper's ratios (512 MB for a 16 GB
    /// heap ⇒ 1/32 of the heap, like the write cache).
    pub fn plus_all(threads: usize, heap_bytes: u64) -> Self {
        let mut c = GcConfig::plus_writecache(threads, heap_bytes);
        c.header_map = HeaderMapConfig {
            enabled: true,
            max_bytes: (heap_bytes / 32).max(1 << 20),
            search_bound: 16,
            min_threads: 8,
            durable: false,
        };
        c
    }

    /// Vanilla PS (no software prefetching — the stock PS collector does
    /// not prefetch during young GC, paper §4.4).
    pub fn ps_vanilla(threads: usize) -> Self {
        let mut c = GcConfig::vanilla(threads);
        c.collector = CollectorKind::Ps;
        c.prefetch = false;
        c
    }

    /// PS with all optimizations including added prefetching.
    pub fn ps_plus_all(threads: usize, heap_bytes: u64) -> Self {
        let mut c = GcConfig::plus_all(threads, heap_bytes);
        c.collector = CollectorKind::Ps;
        c
    }

    /// Semispace baseline: one shared bump destination, no prefetching
    /// (the stock semispace scavenger does none) and no regional
    /// machinery.
    pub fn semispace(threads: usize) -> Self {
        let mut c = GcConfig::vanilla(threads);
        c.collector = CollectorKind::Semispace;
        c.prefetch = false;
        c
    }

    /// Semispace with all optimizations (write cache + header map +
    /// prefetching) — the baseline riding the full NVM-bridging stack.
    pub fn semispace_plus_all(threads: usize, heap_bytes: u64) -> Self {
        let mut c = GcConfig::plus_all(threads, heap_bytes);
        c.collector = CollectorKind::Semispace;
        c
    }

    /// Whether the header map is active for the configured thread count.
    pub fn header_map_active(&self) -> bool {
        self.header_map.enabled && self.threads > self.header_map.min_threads
    }

    /// Whether the active header map is the durable (NVM-resident,
    /// persistence-fenced) variant. False whenever the map itself is off,
    /// so a durable request at `threads <= header_map.min_threads` runs
    /// volatile: no durable publish, no crash recovery.
    pub fn durable_map_active(&self) -> bool {
        self.header_map_active() && self.header_map.durable
    }

    /// Whether the region allocator journals durably. Rides on the
    /// durable header map: crash recovery only exists in that mode, so
    /// allocator durability without it would charge fences nothing ever
    /// reads back.
    pub fn durable_alloc_active(&self) -> bool {
        self.allocator.durable && self.durable_map_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_has_no_optimizations() {
        let c = GcConfig::vanilla(8);
        assert!(!c.write_cache.enabled);
        assert!(!c.header_map.enabled);
        assert_eq!(c.collector, CollectorKind::G1);
    }

    #[test]
    fn writecache_preset_sizes_at_a_thirty_second() {
        let c = GcConfig::plus_writecache(8, 64 << 20);
        assert!(c.write_cache.enabled);
        assert_eq!(c.write_cache.max_bytes, 2 << 20);
        assert!(c.write_cache.nt_store);
        assert!(!c.header_map.enabled);
    }

    #[test]
    fn all_preset_enables_header_map() {
        let c = GcConfig::plus_all(20, 64 << 20);
        assert!(c.header_map.enabled);
        assert!(c.header_map_active());
    }

    #[test]
    fn header_map_threshold_requires_exceeding_eight_threads() {
        // Paper §3.3: enabled only when the thread count *exceeds* the
        // threshold (8 by default).
        let c = GcConfig::plus_all(8, 64 << 20);
        assert!(c.header_map.enabled);
        assert!(!c.header_map_active(), "at the threshold, not above it");
        assert!(!GcConfig::plus_all(4, 64 << 20).header_map_active());
    }

    #[test]
    fn durable_map_requires_an_active_map() {
        let mut c = GcConfig::plus_all(20, 64 << 20);
        assert!(!c.durable_map_active(), "presets default to volatile");
        c.header_map.durable = true;
        assert!(c.durable_map_active());
        c.threads = 8; // at the activation threshold the map is off
        assert!(!c.durable_map_active());
    }

    #[test]
    fn durable_allocator_rides_on_the_durable_map() {
        let mut c = GcConfig::plus_all(20, 64 << 20);
        assert!(!c.allocator.durable, "presets default to volatile");
        assert!(c.race.seed.is_none(), "presets default to no exploration");
        c.allocator.durable = true;
        assert!(!c.durable_alloc_active(), "needs the durable map too");
        c.header_map.durable = true;
        assert!(c.durable_alloc_active());
    }

    #[test]
    fn ps_vanilla_disables_prefetch() {
        let c = GcConfig::ps_vanilla(8);
        assert_eq!(c.collector, CollectorKind::Ps);
        assert!(!c.prefetch);
        assert!(GcConfig::ps_plus_all(8, 1 << 30).prefetch);
    }
}
