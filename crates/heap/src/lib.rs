//! A region-based managed heap with a Java-like object model.
//!
//! This crate is the substrate standing in for the HotSpot heap: it gives
//! the collectors in `nvmgc-core` real objects to trace and copy. Objects
//! live in fixed-size regions; each region is placed on a simulated memory
//! device (DRAM or NVM). The heap performs no timing itself — the metered
//! accessors in `nvmgc-core` charge every read/write to the `nvmgc-memsim`
//! model.
//!
//! Key pieces:
//!
//! - [`addr`] — 64-bit heap addresses encoding (region, offset).
//! - [`alloc`] — the two-level crash-consistent region allocator
//!   (persistent lower table + volatile upper free-stack) beneath the
//!   heap's region management.
//! - [`class`] — a class table describing object layouts (reference slot
//!   count + payload size), including array-like classes.
//! - [`object`] — header encoding: class id, GC age, forwarding pointers.
//! - [`region`] — fixed-size regions with a bump pointer, a kind
//!   (free/eden/survivor/old, or cache for the write cache's DRAM
//!   regions) and flush-tracking state used by the asynchronous region
//!   flushing optimization.
//! - [`heap`] — the region table, allocation entry points and space
//!   management (young/old generations, device placement policy).
//! - [`remset`] — per-region remembered sets populated by the mutator
//!   write barrier.
//! - [`verify`] — a tracing verifier that checks heap integrity and
//!   digests the reachable graph: the runner digests every run's final
//!   graph, and in a faulted run the graph before and after every
//!   collection.

#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod cardtable;
pub mod class;
pub mod heap;
pub mod object;
pub mod region;
pub mod remset;
pub mod verify;

pub use addr::Addr;
pub use alloc::{LowerEntry, RegionAllocator};
pub use cardtable::CardTable;
pub use class::{ClassId, ClassInfo, ClassTable};
pub use heap::{DevicePlacement, Heap, HeapConfig};
pub use object::Header;
pub use region::{Region, RegionId, RegionKind};
pub use remset::RememberedSet;

/// Errors surfaced by heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// No free region is available for the requested purpose.
    OutOfRegions,
    /// An object larger than a region was requested.
    ObjectTooLarge {
        /// The requested object size in bytes.
        size: usize,
    },
    /// An address did not decode to a live region.
    BadAddress(Addr),
    /// A region was released while already free. Silent in release
    /// builds before PR 8, this corrupted free-count accounting with no
    /// signal; the collector surfaces it as an oracle violation.
    DoubleRelease(RegionId),
    /// [`Heap::take_region`] was asked for a role the free-list
    /// allocator cannot serve (free or cache).
    BadTakeKind(RegionKind),
    /// A region-kind transition found the region in an unexpected state.
    KindMismatch {
        /// The region being transitioned.
        region: RegionId,
        /// The kind the transition requires.
        expected: RegionKind,
        /// The kind actually found.
        found: RegionKind,
    },
    /// A forwarding install found the header already forwarded.
    /// Overwriting it would silently drop the original forwardee —
    /// release builds used to only `debug_assert!` here; the collector
    /// surfaces this as an oracle violation.
    AlreadyForwarded {
        /// The raw (forwarded) header word that would have been lost.
        raw: u64,
    },
    /// A durable-view comparison was handed a view whose length does not
    /// match the lower table — comparing misaligned tables would silently
    /// mis-classify divergent regions during crash recovery.
    ViewLenMismatch {
        /// The lower-table length the allocator expected.
        expected: usize,
        /// The length of the view actually supplied.
        found: usize,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfRegions => write!(f, "out of free regions"),
            HeapError::ObjectTooLarge { size } => {
                write!(f, "object of {size} bytes exceeds region size")
            }
            HeapError::BadAddress(a) => write!(f, "bad heap address {a:?}"),
            HeapError::DoubleRelease(r) => {
                write!(f, "region {r} released while already free")
            }
            HeapError::BadTakeKind(k) => {
                write!(f, "take_region cannot serve role {k:?}")
            }
            HeapError::KindMismatch {
                region,
                expected,
                found,
            } => write!(
                f,
                "region {region} kind transition expected {expected:?}, found {found:?}"
            ),
            HeapError::AlreadyForwarded { raw } => {
                write!(
                    f,
                    "header {raw:#x} is already a forwarding pointer; \
                     overwriting it would lose the forwardee"
                )
            }
            HeapError::ViewLenMismatch { expected, found } => {
                write!(
                    f,
                    "durable view has {found} entries, lower table has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for HeapError {}
