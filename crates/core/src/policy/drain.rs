//! Safepoint allocator-drain policy.
//!
//! The heap's two-level region allocator journals lower-table mutations;
//! this policy drains that journal at safepoints — before workers start,
//! between packets, and at cycle end — so fences stay off the mutator's
//! hot path (paper-style). Every plan drains at the same points; only the
//! configuration decides whether the drain charges durable traffic.

use crate::config::GcConfig;
use crate::durable::{self, RecordKey};
use nvmgc_heap::Heap;
use nvmgc_memsim::{MemorySystem, Ns};

/// Journals the allocator's dirty lower-table entries to the NVM
/// durability ledger (durable-allocator mode): one line write plus
/// write-back per dirty region at its [`RecordKey::AllocEntry`] slot,
/// then one batched metadata fence covering every drained key. In
/// volatile mode the journal is still drained — the heap-side
/// bookkeeping stays bounded by the region count and warm snapshots stay
/// config-independent — but no traffic is charged and no time passes, so
/// volatile runs are byte-identical to the pre-allocator collector.
pub(crate) fn drain_allocator_journal(
    cfg: &GcConfig,
    heap: &mut Heap,
    mem: &mut MemorySystem,
    fences: &mut u64,
    now: Ns,
) -> Ns {
    if heap.allocator().dirty_regions().is_empty() {
        return now;
    }
    if !cfg.durable_alloc_active() {
        heap.allocator_mut().drain_dirty(now);
        return now;
    }
    let dirty = heap.allocator().dirty_regions();
    let keys: Vec<RecordKey> = dirty.iter().map(|&r| RecordKey::AllocEntry(r)).collect();
    let t = durable::publish_batch(mem, &keys, now);
    *fences += keys.len() as u64;
    heap.allocator_mut().drain_dirty(t);
    t
}
