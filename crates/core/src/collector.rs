//! Shared worker and cycle state for the parallel copying collectors.
//!
//! Each simulated GC thread repeats the four steps of the paper's §3.1:
//!
//! 1. fetch a reference from its work stack and find the referent
//!    (random read);
//! 2. copy the referent to the survivor space (sequential read/write) —
//!    into a DRAM cache region when the write cache is enabled;
//! 3. install the forwarding pointer — into the DRAM header map when
//!    active, else a random NVM header write;
//! 4. update the reference with the referent's new address (random write
//!    — absorbed by DRAM when the slot lives in a cache region) and push
//!    the referent's own references.
//!
//! The *mechanisms* of those steps — tracing, copying, forwarding
//! installs, write-back flushing, allocator drains — live in the
//! [`crate::policy`] modules; which survivor policy a cycle runs is
//! declared by its plan ([`crate::plan`]) and the one cycle every plan
//! runs is [`crate::cycle`]. This module keeps what
//! every policy shares: the [`Worker`] (a simulated thread and its
//! clock), the [`CycleShared`] cycle state, the timing constants, and
//! the race-exploration synchronization points. Workers never touch
//! wall-clock time: every operation advances the worker's simulated
//! clock through the memory model.

use crate::access::Gx;
use crate::config::GcConfig;
use crate::error::GcError;
use crate::fault::FaultState;
use crate::header_map::HeaderMap;
use crate::policy::copy::Lab;
use crate::policy::flush::FlushTask;
use crate::stack::WorkPool;
use crate::stats::GcStats;
use crate::write_cache::WriteCachePool;
use nvmgc_heap::{Addr, Header, Heap, RegionId};
use nvmgc_memsim::{MemorySystem, Ns};
use std::collections::VecDeque;

/// Synthetic DRAM address base for the mutator root array.
pub const ROOT_ARRAY_BASE: u64 = 0x5000_0000_0000_0000;

/// Synthetic DRAM address base for the remembered-set metadata (remset
/// inserts, card bytes, the per-worker remset scan).
pub(crate) const REMSET_META_BASE: u64 = 0x6000_0000_0000_0000;

/// Extra latency of an atomic RMW beyond a plain store, ns.
pub(crate) const CAS_EXTRA_NS: u64 = 15;

/// Cost of a successful steal (queue synchronization), ns.
pub(crate) const STEAL_NS: u64 = 120;

/// Cost of acquiring a shared region / LAB chunk, ns.
pub(crate) const REGION_SYNC_NS: u64 = 60;

/// Fixed CPU cost per processed reference slot, ns.
pub(crate) const CPU_SLOT_NS: u64 = 6;

/// Fixed CPU cost per copied object (allocation + bookkeeping), ns.
pub(crate) const CPU_COPY_NS: u64 = 14;

/// Fixed stop-the-world entry overhead per collection, ns: safepoint
/// arming, thread handshakes, phase setup/teardown. This floor is why
/// applications with tiny, infrequent pauses gain little from the
/// bandwidth optimizations (the three unimproved apps of Fig. 5).
pub const SAFEPOINT_NS: u64 = 250_000;

/// Clock advance when a worker finds no work and spins, ns.
pub(crate) const IDLE_STEP_NS: u64 = 1_000;

/// During async flushing, a busy worker services one flush chunk every
/// this many processed slots.
pub(crate) const FLUSH_INTERLEAVE: u32 = 24;

/// PS only: LAB size in bytes for survivor-space allocation.
pub(crate) const LAB_BYTES: u32 = 16 << 10;

/// PS only: objects at least this large bypass LABs (direct copy).
pub(crate) const DIRECT_COPY_BYTES: u32 = 4 << 10;

/// Race-exploration site: a worker takes a region from the allocator.
pub const RACE_SITE_ALLOC_TAKE: u64 = 1;
/// Race-exploration site: a worker releases a region to the allocator.
pub const RACE_SITE_ALLOC_RELEASE: u64 = 2;
/// Race-exploration site: a header-map forwarding install.
pub const RACE_SITE_MAP_INSTALL: u64 = 3;
/// Race-exploration site: a durable persistence fence.
pub const RACE_SITE_DURABLE_FENCE: u64 = 4;

/// Maximum seeded skew a race synchronization point may inject, ns.
const RACE_SKEW_MAX_NS: u64 = 400;

/// Race-exploration synchronization point (llfree's `stop.rs` technique
/// adapted to the deterministic engine): when an exploration seed is
/// configured, injects a small seeded clock skew before a shared-structure
/// operation. The engine schedules the lowest-clock worker next, so the
/// skew reorders which worker reaches the allocator / header map first —
/// a different adversarial interleaving per seed, byte-reproducible from
/// the seed, with every schedule still checked by the oracles. Zero cost
/// when no seed is set.
pub fn race_sync(w: &mut Worker, sh: &mut CycleShared<'_>, site: u64) {
    let Some(seed) = sh.cfg.race.seed else {
        return;
    };
    w.race_calls += 1;
    let mut state = seed
        ^ (w.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ site.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ w.race_calls;
    let skew = nvmgc_memsim::fault::splitmix64(&mut state) % RACE_SKEW_MAX_NS;
    w.clock += skew;
    sh.stats.race_sync_points += 1;
    // Order-sensitive fold: the digest differs whenever the sequence of
    // (worker, site, clock) crossings differs, so distinct digests across
    // seeds prove distinct schedules were explored.
    let mut mix = sh.stats.race_digest.rotate_left(7) ^ ((w.id as u64) << 48) ^ site ^ w.clock;
    sh.stats.race_digest = nvmgc_memsim::fault::splitmix64(&mut mix);
}

/// One simulated GC worker thread.
#[derive(Debug)]
pub struct Worker {
    /// Worker id (also the memory-model thread id).
    pub id: usize,
    /// The worker's simulated clock.
    pub clock: Ns,
    /// Set when the worker has finished the current phase.
    pub done: bool,
    /// Engine scheduler steps taken (incremented by the engine itself;
    /// cumulative across the phases a worker lives through).
    pub steps: u64,
    pub(crate) flush: Option<FlushTask>,
    pub(crate) cache_pair: Option<(RegionId, RegionId)>,
    pub(crate) survivor: Option<RegionId>,
    pub(crate) lab: Option<Lab>,
    pub(crate) slots_since_flush_check: u32,
    pub(crate) clear_range: Option<(usize, usize)>,
    pub(crate) race_calls: u64,
}

impl Worker {
    /// Takes the worker's current (cache, nvm) region pair, leaving none.
    pub fn take_cache_pair(&mut self) -> Option<(RegionId, RegionId)> {
        self.cache_pair.take()
    }

    /// Clears per-phase allocation state (between cycles/phases).
    pub fn reset_alloc_state(&mut self) {
        self.survivor = None;
        self.lab = None;
        self.slots_since_flush_check = 0;
    }

    /// Creates a worker starting at simulated time `start`.
    pub fn new(id: usize, start: Ns) -> Worker {
        Worker {
            id,
            clock: start,
            done: false,
            steps: 0,
            flush: None,
            cache_pair: None,
            survivor: None,
            lab: None,
            slots_since_flush_check: 0,
            clear_range: None,
            race_calls: 0,
        }
    }
}

/// State shared by all workers for one GC cycle.
pub struct CycleShared<'a> {
    /// The managed heap.
    pub heap: &'a mut Heap,
    /// The memory timing model.
    pub mem: &'a mut MemorySystem,
    /// Collector configuration.
    pub cfg: &'a GcConfig,
    /// Work stacks.
    pub pool: WorkPool,
    /// Write-cache state.
    pub cache: WriteCachePool,
    /// The header map, when active this cycle.
    pub hmap: Option<&'a HeaderMap>,
    /// Mutator roots; updated in place.
    pub roots: &'a mut [Addr],
    /// Shared promotion (old-space) allocation region, persisted across
    /// cycles by the collector front-end.
    pub promo_region: &'a mut Option<RegionId>,
    /// Shared survivor region: PS carves LABs from it, the semispace plan
    /// bump-allocates every copy from it.
    pub shared_survivor: Option<RegionId>,
    /// With the write cache: shared (cache, nvm) pair PS LABs and
    /// semispace copies are carved from.
    pub shared_cache: Option<(RegionId, RegionId)>,
    /// Work list for the final write-back phase.
    pub writeback_queue: VecDeque<RegionId>,
    /// Cycle statistics under construction.
    pub stats: GcStats,
    /// Per-cycle fault-injection state (empty when no plan is active).
    pub fault: FaultState,
    /// Fatal error (heap exhaustion, stuck phase, oracle violation)
    /// encountered by any worker.
    pub error: Option<GcError>,
    /// Objects left in place because evacuation ran out of space, with
    /// their original headers (restored at cycle end).
    pub self_forwarded: Vec<(Addr, Header)>,
    /// Collection-set regions retained because they hold self-forwarded
    /// objects (G1's evacuation-failure handling).
    pub retained: Vec<RegionId>,
    /// Forwarding installs that overflowed the header map into NVM
    /// headers (`old → new`), recorded in durable-map mode only — crash
    /// recovery classifies them against the durable prefix exactly like
    /// map entries.
    pub full_installs: Vec<(Addr, Addr)>,
    /// The crash instant, set when an injected power failure fires in
    /// durable-map mode. Every worker fast-finishes its phase and the
    /// cycle aborts into crash recovery instead of completing.
    pub crashed_at: Option<Ns>,
}

impl CycleShared<'_> {
    pub(crate) fn gx(&mut self) -> Gx<'_> {
        Gx {
            heap: self.heap,
            mem: self.mem,
        }
    }

    /// Records the cycle's fatal error and stops `w`.
    pub(crate) fn fail(&mut self, w: &mut Worker, e: impl Into<GcError>) {
        self.error = Some(e.into());
        w.done = true;
    }
}
