//! NVM-aware copy-based garbage collection — the paper's contribution.
//!
//! This crate implements the young-generation copy-and-traverse collection
//! of two HotSpot-style collectors — a regional, G1-like collector and a
//! LAB-based, Parallel-Scavenge-like collector — plus a semispace
//! baseline, decomposed MMTk-style into [`plan`]s (pure declarations),
//! [`policy`] modules (the shared mechanisms) and the one [`cycle`]
//! every plan runs, together with the NVM-aware optimizations proposed by
//! *"Bridging the Performance Gap for Copy-based Garbage Collectors atop
//! Non-Volatile Memory"* (EuroSys '21):
//!
//! - **Write cache** (§3.2): survivor regions are staged in DRAM and
//!   written back to NVM sequentially before GC ends, splitting the pause
//!   into a read-mostly sub-phase and a write-only sub-phase. A region
//!   mapping lets references be updated with final NVM addresses while the
//!   bytes still live in DRAM.
//! - **Header map** (§3.3, Algorithm 1): a global lock-free closed-hashing
//!   table in DRAM that absorbs forwarding-pointer installation, removing
//!   the two random NVM header writes per copied object. Bounded probing
//!   keeps the DRAM footprint fixed; on overflow the collector falls back
//!   to installing the forwarding pointer in the NVM header.
//! - **Non-temporal write-back** (§4.1): the write-only sub-phase streams
//!   cache regions to NVM with NT stores, reaching the device's peak
//!   write bandwidth, with a single fence before the pause ends.
//! - **Asynchronous region flushing** (§4.2): full cache regions whose
//!   references have all been updated are flushed during the read-mostly
//!   sub-phase to bound the DRAM footprint; regions that had references
//!   stolen opt out.
//! - **Software prefetching** (§4.3): referents are prefetched when their
//!   slots are pushed onto the work stack, and header-map probes are
//!   prefetched as well.
//!
//! All GC work runs under a deterministic discrete-event engine
//! ([`engine`]): simulated worker threads interleave by their simulated
//! clocks, and every memory operation is charged to the
//! [`nvmgc_memsim::MemorySystem`] model. The collection algorithms operate
//! on *real* object graphs from [`nvmgc_heap`], so liveness, forwarding
//! and remembered-set invariants are checked by real tests, not assumed.
//!
//! # Examples
//!
//! A minimal collection: build two objects on a simulated-NVM heap, run
//! the fully optimized collector, and observe the root updated to the
//! survivor's new address.
//!
//! ```
//! use nvmgc_core::{G1Collector, GcConfig};
//! use nvmgc_heap::{ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind};
//! use nvmgc_memsim::{MemConfig, MemorySystem};
//!
//! let mut classes = ClassTable::new();
//! let pair = classes.register("pair", 2, 16);
//! let mut heap = Heap::new(
//!     HeapConfig {
//!         region_size: 64 << 10,
//!         heap_regions: 64,
//!         young_regions: 32,
//!         placement: DevicePlacement::all_nvm(),
//!         card_table: false,
//!     },
//!     classes,
//! );
//! let mut mem = MemorySystem::new(MemConfig::default());
//! mem.set_threads(13); // 12 GC workers + the mutator
//!
//! let eden = heap.take_region(RegionKind::Eden)?;
//! let parent = heap.alloc_object(eden, pair).expect("fits");
//! let child = heap.alloc_object(eden, pair).expect("fits");
//! heap.write_ref_with_barrier(heap.ref_slot(parent, 0), child);
//! heap.write_data(parent, 0, 42);
//!
//! let mut roots = vec![parent];
//! let mut gc = G1Collector::new(GcConfig::plus_all(12, 4 << 20));
//! let outcome = gc.collect(&mut heap, &mut mem, &mut roots, 0)?;
//!
//! assert_ne!(roots[0], parent, "the object moved");
//! assert_eq!(heap.read_data(roots[0], 0), 42, "payload preserved");
//! assert_eq!(outcome.stats.copied_objects, 2);
//! assert!(heap.eden().is_empty(), "eden reclaimed");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The crate also ships a deterministic **fault-injection plane**
//! ([`fault`]): a seeded [`fault::FaultPlan`] schedules device-level
//! faults (latency spikes, bandwidth collapses, stalls) and GC-level
//! faults (worker pauses/slowdowns, forced cache drains, header-map
//! saturation, crash points). Crash points invoke the [`oracle`], which
//! asserts recoverability invariants over the collector's in-flight
//! state; violations and engine failures surface as typed errors
//! ([`error::GcError`]), never panics.

#![warn(missing_docs)]

pub mod access;
pub mod collector;
pub mod config;
pub mod cycle;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fault;
pub mod g1;
pub mod gclog;
pub mod header_map;
pub mod marking;
pub mod oracle;
pub mod plan;
pub mod policy;
pub mod recovery;
pub mod stack;
pub mod stats;
pub mod write_cache;

pub use config::{
    AllocatorConfig, CollectorKind, GcConfig, HeaderMapConfig, RaceConfig, Traversal,
    WriteCacheConfig,
};
pub use error::{EngineError, GcError};
pub use fault::{FaultPlan, FaultState, GcFault, GcFaultObservations, GcFaultPlan, Severity};
pub use g1::{G1Collector, GcCycleOutcome};
pub use header_map::{HeaderMap, InstallError, Put, PutOutcome};
pub use oracle::{
    check_allocator_recovery, check_crash_point, check_power_failure, check_recovery_completion,
    OracleViolation, PowerFailureReport,
};
pub use plan::{plan_of, CopyPolicyKind, PlanSpec, G1_PLAN, PS_PLAN, SEMISPACE_PLAN};
pub use recovery::CrashState;
pub use stats::{GcPhaseTimes, GcStats, PauseSpan};
pub use write_cache::WriteCachePool;
