//! Deterministic memory-device timing model for DRAM and NVM (Optane-like).
//!
//! This crate is the hardware substitute for the Intel Optane DC Persistent
//! Memory testbed used by the EuroSys '21 paper *"Bridging the Performance
//! Gap for Copy-based Garbage Collectors atop Non-Volatile Memory"*. It
//! models the device behaviours the paper's analysis hinges on:
//!
//! - **Asymmetric bandwidth**: NVM peak read bandwidth is far larger than
//!   peak write bandwidth.
//! - **Write interference**: the total NVM bandwidth collapses as the write
//!   share of the traffic mix grows (paper §2.3, Fig. 2b).
//! - **Pattern sensitivity**: random 64 B accesses pay a large bandwidth
//!   amplification on NVM due to the 256 B internal access granularity.
//! - **Per-thread bandwidth ceilings**: a single core cannot saturate a
//!   device, so adding GC threads helps until the device cap is reached
//!   (the ≤8-thread scalability wall of Fig. 2c emerges from the ratio of
//!   device cap to per-thread ceiling).
//! - **Non-temporal stores**: sequential NT writes bypass the cache model
//!   and reach the device's highest write bandwidth (paper §4.1).
//! - **Software prefetching**: prefetches start asynchronous line fills
//!   that overlap latency with compute (paper §4.3).
//!
//! Time is simulated: every access takes a `now` timestamp in nanoseconds
//! and returns the completion timestamp. The model is fully deterministic —
//! identical call sequences produce identical timings — which makes every
//! experiment in the reproduction reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use nvmgc_memsim::{MemConfig, MemorySystem, DeviceId};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let t0 = 0;
//! // A random word read from NVM is far slower than from DRAM.
//! let t_nvm = mem.read_word(0, DeviceId::Nvm, 0x10_0000, t0);
//! let t_dram = mem.read_word(0, DeviceId::Dram, 0x90_0000_0000, t0);
//! assert!(t_nvm > t_dram);
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod device;
pub mod fault;
pub mod hashfast;
pub mod persist;
pub mod prefetch;
pub mod sampler;
pub mod system;

pub use bus::Ledger;
pub use cache::LlcModel;
pub use device::{AccessKind, DeviceId, DeviceParams, Pattern};
pub use fault::{DeviceFault, FaultWindow, MemFaultPlan};
pub use hashfast::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use persist::{CrashImage, DurabilityLedger, LineRec, PersistConfig};
pub use prefetch::PrefetchTable;
pub use sampler::{
    device_track, mbps, traffic_in, TraceCat, TraceEvent, TraceLog, TrafficSample, TrafficSampler,
    TRACK_CYCLE,
};
pub use system::{MemConfig, MemStats, MemorySystem, FENCE_NS};

/// Simulated time in nanoseconds.
pub type Ns = u64;

/// Size of a CPU cache line in bytes.
pub const CACHE_LINE: u64 = 64;

/// Asks the *host* CPU to start loading the cache line that holds `r`, so
/// a later load of it does not stall.
///
/// A hint to the machine running the simulator, not a simulated prefetch
/// (that is [`MemorySystem::prefetch`]): it reads and changes no state, so
/// no simulated quantity can depend on it. Every host prefetch of the
/// workspace goes through here; on targets other than x86_64 it does
/// nothing.
#[inline(always)]
pub fn host_prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` only hints the cache hierarchy. It cannot fault
    // or change memory, whatever the address; here it is also the address
    // of a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
