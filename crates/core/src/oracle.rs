//! The crash-point oracle.
//!
//! At injected [`GcFault::CrashPoint`]s the collector stops mid-phase,
//! snapshots its in-flight state and asserts the invariants a crash-time
//! recovery would depend on:
//!
//! 1. **No stale forwarding entries** — every pair in the header map must
//!    lead from a collection-set object to a valid destination: either a
//!    self-forward whose region is retained for the next cycle, or an
//!    address inside a live (non-free, non-collection-set) survivor/old
//!    region.
//! 2. **Write-cache drain ordering** — a region queued for asynchronous
//!    flushing must actually be drainable: retired from allocation, no
//!    pending reference slots, no open LABs, never stolen, not yet
//!    flushed, and still mapped to its NVM twin. Flushing a region that
//!    violates any of these would persist stale bytes (the LIFO-tracking
//!    bug class the paper's §4.2 design exists to avoid).
//! 3. **Evacuation-failure accounting** — every self-forwarded object's
//!    region is in the retained set, so the cycle-end free pass cannot
//!    recycle a region that still holds live, un-evacuated objects.
//!
//! Whole-graph recoverability (pre-GC graph digest == post-GC digest via
//! [`nvmgc_heap::verify::verify_heap`]) is asserted at GC boundaries by
//! the runner and the fault proptests; mid-cycle heaps legitimately
//! contain forwarding headers, so the oracle checks the in-flight
//! structures instead.
//!
//! [`GcFault::CrashPoint`]: crate::fault::GcFault::CrashPoint

use crate::durable::{self, Classifier, RecordKey};
use crate::header_map::HeaderMap;
use crate::write_cache::WriteCachePool;
use nvmgc_heap::{Addr, Header, Heap, RegionId, RegionKind};
use nvmgc_memsim::{DeviceId, FxHashSet, MemorySystem, Ns};
use std::fmt;

/// A recoverability invariant the oracle found violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// A header-map entry does not lead to a valid destination.
    StaleForwarding {
        /// The entry's source (pre-copy) address.
        old: Addr,
        /// The entry's destination address.
        new: Addr,
        /// Which part of the invariant failed.
        reason: &'static str,
    },
    /// A region in the asynchronous-flush queue is not drainable.
    DrainOrder {
        /// The offending cache region.
        region: RegionId,
        /// Which readiness condition failed.
        reason: &'static str,
    },
    /// A self-forwarded object's region is missing from the retained set.
    UnretainedSelfForward {
        /// The self-forwarded object.
        obj: Addr,
        /// Its (unretained) region.
        region: RegionId,
    },
    /// After a power failure, an evacuated object is recoverable from
    /// neither side: its to-space copy is not fully durable and its
    /// from-space copy is not fully durable either.
    UnrecoverableEvacuation {
        /// The entry's source (pre-copy) address.
        old: Addr,
        /// The entry's destination address.
        new: Addr,
        /// Which part of the invariant failed.
        reason: &'static str,
    },
    /// A durable to-space payload line precedes its region's allocation
    /// metadata in the persistence order (recovery would see payload for
    /// a region it does not know about).
    MetaOrdering {
        /// The offending destination region.
        region: RegionId,
        /// Which part of the invariant failed.
        reason: &'static str,
    },
    /// A structurally invalid header-map install (null key or value)
    /// reached the collector's install path. Promoted from a
    /// `debug_assert!` so double-install/foreign-key publishes surface as
    /// typed errors in release builds too.
    HeaderMapInstall {
        /// The offending key (from-space address).
        old: Addr,
        /// The proposed forwarding target.
        new: Addr,
    },
    /// After crash recovery resumed and completed an evacuation, the
    /// forwarding tables are inconsistent across the crash boundary: an
    /// object was lost, duplicated, or double-forwarded.
    RecoveryCompletion {
        /// The forwarding source involved (null when the violation is a
        /// dangling reference rather than a bad forwarding pair).
        old: Addr,
        /// The forwarding target (or offending reference) involved.
        new: Addr,
        /// Which completion invariant failed.
        reason: &'static str,
    },
    /// A heap region-accounting operation failed with a typed error —
    /// double release, unservable take, or a kind-transition mismatch.
    /// These were silent release-build no-ops (or `unreachable!`/
    /// `debug_assert!`s) before PR 8; the collector now surfaces them as
    /// oracle violations instead of corrupting free-count bookkeeping.
    RegionAccounting {
        /// The underlying heap error, rendered.
        detail: String,
    },
    /// The allocator recovery scan rebuilt a free-stack that is
    /// inconsistent with the region table, the live allocator state, or
    /// the resumed evacuation's durable forwarding targets.
    AllocatorRecovery {
        /// The offending region (`RegionId::MAX` when the violation is
        /// stack-wide rather than per-region).
        region: RegionId,
        /// Which rebuild invariant failed.
        reason: &'static str,
    },
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::StaleForwarding { old, new, reason } => write!(
                f,
                "stale forwarding entry {:#x} -> {:#x}: {reason}",
                old.raw(),
                new.raw()
            ),
            OracleViolation::DrainOrder { region, reason } => {
                write!(f, "cache region {region} queued for drain but {reason}")
            }
            OracleViolation::UnretainedSelfForward { obj, region } => write!(
                f,
                "self-forwarded object {:#x} in region {region} which is not retained",
                obj.raw()
            ),
            OracleViolation::UnrecoverableEvacuation { old, new, reason } => write!(
                f,
                "evacuated object {:#x} -> {:#x} unrecoverable after power failure: {reason}",
                old.raw(),
                new.raw()
            ),
            OracleViolation::MetaOrdering { region, reason } => {
                write!(f, "persistence meta-ordering for region {region}: {reason}")
            }
            OracleViolation::HeaderMapInstall { old, new } => write!(
                f,
                "structurally invalid header-map install {:#x} -> {:#x} (null key or value)",
                old.raw(),
                new.raw()
            ),
            OracleViolation::RecoveryCompletion { old, new, reason } => write!(
                f,
                "recovery completion violated for {:#x} -> {:#x}: {reason}",
                old.raw(),
                new.raw()
            ),
            OracleViolation::RegionAccounting { detail } => {
                write!(f, "region accounting violated: {detail}")
            }
            OracleViolation::AllocatorRecovery { region, reason } => {
                write!(
                    f,
                    "allocator recovery violated for region {region}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for OracleViolation {}

/// Runs the crash-point invariants against the collector's in-flight
/// state. Called by the collector when an injected crash point fires;
/// also usable directly by tests.
pub fn check_crash_point(
    heap: &Heap,
    hmap: Option<&HeaderMap>,
    cache: &WriteCachePool,
    self_forwarded: &[(Addr, Header)],
    retained: &[RegionId],
) -> Result<(), OracleViolation> {
    // 1. Forwarding entries.
    for durable::ForwardingRecord { old, new, .. } in durable::forwarding_records(hmap, &[]) {
        let src = heap
            .region_of(old)
            .map_err(|_| OracleViolation::StaleForwarding {
                old,
                new,
                reason: "source address outside the heap",
            })?;
        if !heap.region(src).in_cset {
            return Err(OracleViolation::StaleForwarding {
                old,
                new,
                reason: "source region not in the collection set",
            });
        }
        if old == new {
            // Self-forward (evacuation failure): the region must be
            // retained so the cycle-end free pass keeps it alive.
            if !retained.contains(&src) {
                return Err(OracleViolation::StaleForwarding {
                    old,
                    new,
                    reason: "self-forward in an unretained region",
                });
            }
            continue;
        }
        let dst = heap
            .region_of(new)
            .map_err(|_| OracleViolation::StaleForwarding {
                old,
                new,
                reason: "destination address outside the heap",
            })?;
        let dr = heap.region(dst);
        if dr.in_cset {
            return Err(OracleViolation::StaleForwarding {
                old,
                new,
                reason: "destination region is itself being evacuated",
            });
        }
        if !matches!(dr.kind(), RegionKind::Survivor | RegionKind::Old) {
            return Err(OracleViolation::StaleForwarding {
                old,
                new,
                reason: "destination region is not a survivor/old region",
            });
        }
    }

    // 2. Drain ordering.
    cache.check_drain_order(heap)?;

    // 3. Evacuation-failure accounting.
    for &(obj, _) in self_forwarded {
        let region = obj.region(heap.shift());
        if !retained.contains(&region) {
            return Err(OracleViolation::UnretainedSelfForward { obj, region });
        }
    }
    Ok(())
}

/// Asserts the allocator recovery scan's rebuild is sound, after the
/// durable lower tables were reconciled against the live heap and the
/// free-stack was rebuilt from them:
///
/// 1. **Free means free.** Every region on the rebuilt free-stack is
///    `Free` in the region table, and every lower-table entry's kind
///    matches the region table — the durable view and the volatile
///    truth agree after reconciliation.
/// 2. **No free evacuation targets.** No rebuilt-free region is the
///    destination region of a durable forwarding record the resumed
///    evacuation will replay — a region must never be simultaneously
///    "free" and a durable copy target.
/// 3. **Exact reconstruction.** The rebuilt stack is identical to the
///    live stack it replaced (the epoch-ordered rebuild is exact, so
///    any divergence means the journal lost an event).
pub fn check_allocator_recovery(
    heap: &Heap,
    previous_free: &[RegionId],
    rebuilt_free: &[RegionId],
    durable_dsts: &[RegionId],
) -> Result<(), OracleViolation> {
    let dsts: FxHashSet<RegionId> = durable_dsts.iter().copied().collect();
    for &r in rebuilt_free {
        if heap.region(r).kind() != RegionKind::Free {
            return Err(OracleViolation::AllocatorRecovery {
                region: r,
                reason: "rebuilt-free region is not free in the region table",
            });
        }
        if dsts.contains(&r) {
            return Err(OracleViolation::AllocatorRecovery {
                region: r,
                reason: "rebuilt-free region is a durable evacuation target",
            });
        }
    }
    // Auxiliary (cache) regions live beyond the allocator's lower table
    // and are bookkept separately, so only the Java-heap range is checked.
    for id in 0..heap.config().heap_regions {
        if heap.allocator().lower(id).kind != heap.region(id).kind() {
            return Err(OracleViolation::AllocatorRecovery {
                region: id,
                reason: "lower-table kind diverges from the region table",
            });
        }
    }
    if previous_free != rebuilt_free {
        return Err(OracleViolation::AllocatorRecovery {
            region: RegionId::MAX,
            reason: "rebuilt free-stack diverges from the live stack",
        });
    }
    Ok(())
}

/// What a power-failure oracle check observed (returned on success so
/// callers can account discarded/torn lines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerFailureReport {
    /// Non-durable lines the crash image discarded.
    pub discarded_lines: u64,
    /// Torn front XPLines in the crash image.
    pub torn_lines: u64,
    /// Lines durable in the image.
    pub durable_lines: u64,
    /// Evacuated objects whose recoverability was checked.
    pub objects_checked: u64,
}

/// Runs the power-failure recoverability invariants: takes the NVM
/// durability ledger's crash image — every non-durable line discarded,
/// the front write-combining XPLine possibly torn — and asserts that the
/// partially-flushed collector state is recoverable:
///
/// 1. **Evacuated objects survive on at least one side.** For every
///    header-map pair `old -> new` (excluding self-forwards, which keep
///    their object in place), either the to-space copy is fully durable
///    or the from-space copy is — a recovery can then redo or discard
///    the evacuation. Neither side fully durable means the object is
///    torn on both sides and lost.
/// 2. **No durable payload precedes its region's metadata.** Every
///    durable NT-written line inside an NVM region (NT stores are the
///    write-cache drain path) must have drained at or after the region's
///    allocation metadata was persisted (key [`RecordKey::Region`]) — a
///    recovery must never find payload for a region it has no record of.
/// 3. **Write-cache drain ordering** holds (same as at crash points).
///
/// Clauses 1–2 are the classification crash recovery runs at the crash
/// instant ([`crate::durable`]), asked of the image as it stands. Returns
/// `Ok(None)` when the persistence model is inactive for NVM.
/// Non-destructive: the ledger is only snapshotted.
pub fn check_power_failure(
    heap: &Heap,
    hmap: Option<&HeaderMap>,
    cache: &WriteCachePool,
    mem: &MemorySystem,
) -> Result<Option<PowerFailureReport>, OracleViolation> {
    let Some(judge) = Classifier::new(mem, Ns::MAX) else {
        return Ok(None);
    };
    let img = &judge.img;
    let mut report = PowerFailureReport {
        discarded_lines: img.discarded_lines,
        torn_lines: img.torn_lines,
        durable_lines: img.durable_lines(),
        objects_checked: 0,
    };

    // 1. Evacuated-object recoverability. The contract covers objects
    // whose to-space copy claims durability through the drain path: the
    // destination is on NVM and its region's allocation metadata was
    // persisted (regular volatile stores promise nothing at a power
    // failure, so evacuations into unclaimed regions are out of scope).
    for rec in durable::forwarding_records(hmap, &[]) {
        let Some((dst, size)) = rec.resolve(heap) else {
            continue;
        };
        if heap.device_of(rec.new) != DeviceId::Nvm
            || judge.fenced_at(RecordKey::Region(dst)).is_none()
        {
            continue;
        }
        report.objects_checked += 1;
        if judge.payload_durable(rec.new, size) {
            continue;
        }
        let from_durable =
            heap.device_of(rec.old) == DeviceId::Nvm && judge.payload_durable(rec.old, size);
        if !from_durable {
            return Err(OracleViolation::UnrecoverableEvacuation {
                old: rec.old,
                new: rec.new,
                reason: "neither the to-space nor the from-space copy is fully durable",
            });
        }
    }

    // 2. Payload-before-metadata ordering for NT (write-cache drain)
    // traffic.
    for id in 0..heap.region_count() as RegionId {
        if heap.region(id).device() == DeviceId::Nvm {
            judge
                .drain_order(heap, id)
                .map_err(|reason| OracleViolation::MetaOrdering { region: id, reason })?;
        }
    }

    // 3. Drain ordering, as at crash points.
    cache.check_drain_order(heap)?;

    Ok(Some(report))
}

/// Asserts the forwarding tables are consistent after a crashed
/// evacuation was recovered and resumed to completion — run by the
/// resumed cycle's post-processing, before the collection set is freed:
///
/// 1. **No double-forward**: each from-space source appears exactly once
///    across the header map and the NVM-header fallback installs.
/// 2. **Sources in, targets out**: every source lies in the collection
///    set; every moved target lies outside it; every self-forward's
///    region is in the retained set.
/// 3. **No duplication**: no two sources forward to the same target.
/// 4. **No object lost**: no root and no reference slot of any completed
///    copy still points into an evacuated (non-retained) cset region.
pub fn check_recovery_completion(
    heap: &Heap,
    forwards: &[(Addr, Addr)],
    cset: &[RegionId],
    retained: &[RegionId],
    roots: &[Addr],
) -> Result<(), OracleViolation> {
    let in_cset: FxHashSet<RegionId> = cset.iter().copied().collect();
    let kept: FxHashSet<RegionId> = retained.iter().copied().collect();
    let evacuated = |r: RegionId| in_cset.contains(&r) && !kept.contains(&r);
    // One entry a record: sized once instead of rehashed up to it.
    let sized = || FxHashSet::with_capacity_and_hasher(forwards.len(), Default::default());
    let (mut sources, mut targets): (FxHashSet<u64>, FxHashSet<u64>) = (sized(), sized());
    for &(old, new) in forwards {
        if !sources.insert(old.raw()) {
            return Err(OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "source forwarded more than once across the crash boundary",
            });
        }
        let src = heap
            .region_of(old)
            .map_err(|_| OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "source address outside the heap",
            })?;
        if !in_cset.contains(&src) {
            return Err(OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "source region not in the collection set",
            });
        }
        if old == new {
            if !kept.contains(&src) {
                return Err(OracleViolation::RecoveryCompletion {
                    old,
                    new,
                    reason: "self-forward in an unretained region",
                });
            }
            continue;
        }
        if !targets.insert(new.raw()) {
            return Err(OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "two sources forwarded to one target (object duplicated)",
            });
        }
        let dst = heap
            .region_of(new)
            .map_err(|_| OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "target address outside the heap",
            })?;
        if in_cset.contains(&dst) {
            return Err(OracleViolation::RecoveryCompletion {
                old,
                new,
                reason: "target still inside the collection set",
            });
        }
        // The evacuation is only complete if the copy's own references
        // were processed too.
        for i in 0..heap.num_refs(new) {
            let child = heap.read_ref(heap.ref_slot(new, i));
            if child.is_null() {
                continue;
            }
            if let Ok(cr) = heap.region_of(child) {
                if evacuated(cr) {
                    return Err(OracleViolation::RecoveryCompletion {
                        old,
                        new: child,
                        reason: "completed copy still references an evacuated region (object lost)",
                    });
                }
            }
        }
    }
    for &root in roots {
        if root.is_null() {
            continue;
        }
        if let Ok(r) = heap.region_of(root) {
            if evacuated(r) {
                return Err(OracleViolation::RecoveryCompletion {
                    old: Addr::NULL,
                    new: root,
                    reason: "root still points into an evacuated region (object lost)",
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteCacheConfig;
    use nvmgc_heap::{ClassTable, DevicePlacement, HeapConfig};

    fn heap() -> Heap {
        let mut classes = ClassTable::new();
        classes.register("node", 2, 16);
        Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: 16,
                young_regions: 8,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        )
    }

    fn no_cache() -> WriteCachePool {
        WriteCachePool::new(WriteCacheConfig::disabled())
    }

    #[test]
    fn clean_state_passes() {
        let h = heap();
        assert_eq!(check_crash_point(&h, None, &no_cache(), &[], &[]), Ok(()));
    }

    #[test]
    fn forwarding_from_non_cset_region_is_stale() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let surv = h.take_region(RegionKind::Survivor).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        let copy = h.alloc_object(surv, 0).unwrap();
        let map = HeaderMap::new(1 << 12, 16);
        map.put(obj, copy).unwrap();
        // Eden region deliberately NOT marked in_cset.
        let err = check_crash_point(&h, Some(&map), &no_cache(), &[], &[]).unwrap_err();
        assert!(matches!(err, OracleViolation::StaleForwarding { .. }));
        // Marking it in_cset makes the same state pass.
        h.region_mut(eden).in_cset = true;
        assert!(check_crash_point(&h, Some(&map), &no_cache(), &[], &[]).is_ok());
    }

    #[test]
    fn forwarding_into_cset_region_is_stale() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let eden2 = h.take_region(RegionKind::Eden).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        let dst = h.alloc_object(eden2, 0).unwrap();
        h.region_mut(eden).in_cset = true;
        h.region_mut(eden2).in_cset = true;
        let map = HeaderMap::new(1 << 12, 16);
        map.put(obj, dst).unwrap();
        let err = check_crash_point(&h, Some(&map), &no_cache(), &[], &[]).unwrap_err();
        assert!(
            matches!(err, OracleViolation::StaleForwarding { reason, .. }
                if reason.contains("evacuated")),
            "{err}"
        );
    }

    #[test]
    fn self_forward_requires_retained_region() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        h.region_mut(eden).in_cset = true;
        let map = HeaderMap::new(1 << 12, 16);
        map.put(obj, obj).unwrap();
        let err = check_crash_point(&h, Some(&map), &no_cache(), &[], &[]).unwrap_err();
        assert!(matches!(err, OracleViolation::StaleForwarding { .. }));
        assert!(check_crash_point(&h, Some(&map), &no_cache(), &[], &[eden]).is_ok());
    }

    #[test]
    fn unretained_self_forward_list_is_flagged() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        let hdr = h.header(obj);
        let err = check_crash_point(&h, None, &no_cache(), &[(obj, hdr)], &[]).unwrap_err();
        assert_eq!(
            err,
            OracleViolation::UnretainedSelfForward { obj, region: eden }
        );
        assert!(check_crash_point(&h, None, &no_cache(), &[(obj, hdr)], &[eden]).is_ok());
    }

    #[test]
    fn recovery_completion_catches_double_forward_duplication_and_loss() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let surv = h.take_region(RegionKind::Survivor).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        let obj2 = h.alloc_object(eden, 0).unwrap();
        let copy = h.alloc_object(surv, 0).unwrap();
        h.region_mut(eden).in_cset = true;
        let fwd = [(obj, copy)];
        assert!(check_recovery_completion(&h, &fwd, &[eden], &[], &[copy]).is_ok());
        // The same source forwarded twice across the crash boundary.
        let dup = [(obj, copy), (obj, copy)];
        assert!(check_recovery_completion(&h, &dup, &[eden], &[], &[]).is_err());
        // Two sources sharing one target duplicates the object.
        let shared = [(obj, copy), (obj2, copy)];
        assert!(check_recovery_completion(&h, &shared, &[eden], &[], &[]).is_err());
        // A root left pointing into the evacuated region loses its object.
        let err = check_recovery_completion(&h, &fwd, &[eden], &[], &[obj]).unwrap_err();
        assert!(
            matches!(err, OracleViolation::RecoveryCompletion { reason, .. }
                if reason.contains("root")),
            "{err}"
        );
    }

    #[test]
    fn recovery_completion_requires_retained_self_forwards() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let obj = h.alloc_object(eden, 0).unwrap();
        h.region_mut(eden).in_cset = true;
        let fwd = [(obj, obj)];
        assert!(check_recovery_completion(&h, &fwd, &[eden], &[], &[]).is_err());
        // Retaining the region legalizes both the self-forward and roots
        // that still point at it.
        assert!(check_recovery_completion(&h, &fwd, &[eden], &[eden], &[obj]).is_ok());
    }

    #[test]
    fn allocator_recovery_flags_freed_durable_targets() {
        let mut h = heap();
        let eden = h.take_region(RegionKind::Eden).unwrap();
        let surv = h.take_region(RegionKind::Survivor).unwrap();
        h.release_region(eden).unwrap();
        let free: Vec<RegionId> = h.allocator().free_stack().to_vec();
        assert!(check_allocator_recovery(&h, &free, &free, &[surv]).is_ok());
        // The freed eden region doubling as a durable copy target is the
        // free-while-evacuation-destination state recovery must rule out.
        let err = check_allocator_recovery(&h, &free, &free, &[eden]).unwrap_err();
        assert!(
            matches!(err, OracleViolation::AllocatorRecovery { region, .. } if region == eden),
            "{err}"
        );
        // A rebuilt stack that diverges from the live stack is flagged.
        let mut wrong = free.clone();
        wrong.pop();
        let err = check_allocator_recovery(&h, &free, &wrong, &[]).unwrap_err();
        assert!(
            matches!(err, OracleViolation::AllocatorRecovery { reason, .. }
                if reason.contains("diverges from the live stack")),
            "{err}"
        );
        // An in-use region on the rebuilt stack is flagged.
        let mut bad = free.clone();
        bad.push(surv);
        let err = check_allocator_recovery(&h, &bad, &bad, &[]).unwrap_err();
        assert!(
            matches!(err, OracleViolation::AllocatorRecovery { region, .. } if region == surv),
            "{err}"
        );
    }

    #[test]
    fn unready_region_in_drain_queue_is_flagged() {
        let mut h = heap();
        let cfg = WriteCacheConfig {
            enabled: true,
            max_bytes: 1 << 20,
            async_flush: true,
            nt_store: true,
        };
        let mut pool = WriteCachePool::new(cfg);
        let (c, _) = pool.alloc_pair(&mut h).unwrap();
        pool.note_retired(&h, c); // legitimately ready
        assert!(pool.check_drain_order(&h).is_ok());
        // Corrupt the state: a pending slot appears while queued.
        h.region_mut(c).pending_slots = 1;
        let OracleViolation::DrainOrder { region, reason } =
            pool.check_drain_order(&h).unwrap_err()
        else {
            unreachable!("a drain-order violation")
        };
        assert_eq!(region, c);
        assert!(reason.contains("pending"), "{reason}");
    }
}
