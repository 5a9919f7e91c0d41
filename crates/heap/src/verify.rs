//! Heap verification.
//!
//! The verifier traces the reachable object graph from a root set and
//! checks structural invariants. Tests use it to prove that a collection
//! preserved the graph: [`GraphDigest`] computed before and after a GC
//! must match (addresses change, but shape, classes and payloads do not).

use crate::addr::Addr;
use crate::heap::Heap;
use crate::region::RegionKind;
use crate::HeapError;
use nvmgc_memsim::{FxHashMap, FxHashSet};

/// A canonical digest of the reachable object graph.
///
/// Digests are address-independent: objects are numbered in first-visit
/// (DFS from roots, slots in order) order, and the digest folds in each
/// object's class, payload words and the visit-numbers of its referents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDigest {
    /// Number of reachable objects.
    pub objects: u64,
    /// Total reachable bytes.
    pub bytes: u64,
    /// Order-sensitive structural checksum.
    pub checksum: u64,
}

/// Structural problems found by [`verify_heap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A reference pointed outside any allocated region.
    DanglingRef {
        /// The offending reference value.
        target: Addr,
    },
    /// A reference pointed into a free or cache region.
    RefIntoFreeRegion {
        /// The offending reference value.
        target: Addr,
    },
    /// An object header was still a forwarding pointer outside GC.
    StaleForwarding {
        /// The object whose header is forwarded.
        obj: Addr,
    },
    /// A reference pointed below a region's allocated watermark.
    RefPastTop {
        /// The offending reference value.
        target: Addr,
    },
    /// An old-space cross-region reference was not recorded in the target
    /// region's remembered set.
    MissingRemsetEntry {
        /// The slot holding the unrecorded reference.
        slot: Addr,
        /// The referenced object.
        target: Addr,
    },
}

fn fold(h: u64, v: u64) -> u64 {
    // FxHash-style fold; deterministic and order-sensitive.
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Traces the graph from `roots` and returns its digest, or the first
/// structural error found.
pub fn verify_heap(heap: &Heap, roots: &[Addr]) -> Result<GraphDigest, VerifyError> {
    // The digest numbers objects by first-visit order, so it is a pure
    // function of the traversal — the map's hasher (a deterministic
    // FxHash here, for speed on the per-GC-cycle digest passes) cannot
    // influence it, and neither can its capacity. Every distinct root is
    // an entry, so the roots size it: grown from empty it rehashed a dozen
    // times a call, around every collection of a faulted cell.
    let mut order: FxHashMap<u64, u64> =
        FxHashMap::with_capacity_and_hasher(roots.len(), Default::default());
    let mut stack: Vec<Addr> = Vec::new();
    let mut checksum = 0u64;
    let mut objects = 0u64;
    let mut bytes = 0u64;

    let push = |addr: Addr,
                order: &mut FxHashMap<u64, u64>,
                stack: &mut Vec<Addr>|
     -> Result<Option<u64>, VerifyError> {
        if addr.is_null() {
            return Ok(None);
        }
        let region = match heap.region_of(addr) {
            Ok(r) => r,
            Err(HeapError::BadAddress(_)) => return Err(VerifyError::DanglingRef { target: addr }),
            Err(_) => unreachable!(),
        };
        let r = heap.region(region);
        match r.kind() {
            RegionKind::Free | RegionKind::Cache => {
                return Err(VerifyError::RefIntoFreeRegion { target: addr })
            }
            _ => {}
        }
        if addr.offset(heap.shift()) >= r.used() {
            return Err(VerifyError::RefPastTop { target: addr });
        }
        if let Some(&n) = order.get(&addr.raw()) {
            return Ok(Some(n));
        }
        let n = order.len() as u64;
        order.insert(addr.raw(), n);
        stack.push(addr);
        Ok(Some(n))
    };

    for &root in roots {
        let n = push(root, &mut order, &mut stack)?;
        checksum = fold(checksum, n.map_or(u64::MAX, |v| v + 1));
    }

    while let Some(obj) = stack.pop() {
        let h = heap.header(obj);
        if h.is_forwarded() {
            return Err(VerifyError::StaleForwarding { obj });
        }
        let class = h.class_id();
        let info = heap.classes().get(class);
        objects += 1;
        bytes += info.size() as u64;
        checksum = fold(checksum, class as u64);
        for i in 0..info.num_refs {
            let target = heap.read_ref(heap.ref_slot(obj, i));
            let n = push(target, &mut order, &mut stack)?;
            checksum = fold(checksum, n.map_or(u64::MAX, |v| v + 1));
        }
        let data_words = info.data_bytes / 8;
        for w in 0..data_words {
            checksum = fold(checksum, heap.read_data(obj, w));
        }
    }

    Ok(GraphDigest {
        objects,
        bytes,
        checksum,
    })
}

/// Checks the remembered-set invariant over the *reachable* graph: every
/// cross-region reference stored in an old-like slot and pointing at a
/// tracked region must be present in the target region's remembered set.
/// (Precise-remset mode only; card-table heaps track dirtiness per card
/// instead.)
///
/// Returns the number of checked references, or the first violation.
pub fn verify_remsets(heap: &Heap, roots: &[Addr]) -> Result<u64, VerifyError> {
    let shift = heap.shift();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut stack: Vec<Addr> = Vec::new();
    for &root in roots {
        if !root.is_null() && seen.insert(root.raw()) {
            stack.push(root);
        }
    }
    let mut checked = 0u64;
    while let Some(obj) = stack.pop() {
        let h = heap.header(obj);
        if h.is_forwarded() {
            return Err(VerifyError::StaleForwarding { obj });
        }
        let info = heap.classes().get(h.class_id());
        let src_region = obj.region(shift);
        let src_old = heap.region(src_region).kind() == RegionKind::Old;
        for i in 0..info.num_refs {
            let slot = heap.ref_slot(obj, i);
            let target = heap.read_ref(slot);
            if target.is_null() {
                continue;
            }
            let dst_region = match heap.region_of(target) {
                Ok(r) => r,
                Err(_) => return Err(VerifyError::DanglingRef { target }),
            };
            if src_old && dst_region != src_region {
                checked += 1;
                let recorded = heap.region(dst_region).remset.iter().any(|s| s == slot);
                if !recorded {
                    return Err(VerifyError::MissingRemsetEntry { slot, target });
                }
            }
            if seen.insert(target.raw()) {
                stack.push(target);
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassTable;
    use crate::heap::{DevicePlacement, HeapConfig};
    use crate::object::Header;

    fn heap_with(region_count: u32) -> Heap {
        let mut classes = ClassTable::new();
        classes.register("pair", 2, 16);
        classes.register("leaf", 0, 8);
        Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: region_count,
                young_regions: region_count,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        )
    }

    #[test]
    fn digest_of_simple_graph() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(e, 1).unwrap();
        h.write_ref(h.ref_slot(a, 0), b);
        h.write_data(a, 0, 42);
        let d = verify_heap(&h, &[a]).unwrap();
        assert_eq!(d.objects, 2);
        assert_eq!(d.bytes, 40 + 16);
    }

    #[test]
    fn digest_is_address_independent_but_content_sensitive() {
        let build = |payload: u64| {
            let mut h = heap_with(4);
            let e = h.take_region(RegionKind::Eden).unwrap();
            // Allocate filler to shift addresses in the second heap.
            if payload == 42 {
                h.alloc_object(e, 1).unwrap();
            }
            let a = h.alloc_object(e, 0).unwrap();
            let b = h.alloc_object(e, 1).unwrap();
            h.write_ref(h.ref_slot(a, 0), b);
            h.write_data(a, 0, payload);
            (verify_heap(&h, &[a]).unwrap(), ())
        };
        let (d1, _) = build(42);
        let (d2, _) = build(42);
        assert_eq!(d1, d2, "same shape+content, different addresses");
        let (d3, _) = build(43);
        assert_ne!(d1.checksum, d3.checksum, "payload change must show");
    }

    #[test]
    fn shared_and_cyclic_references_terminate() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(e, 0).unwrap();
        // a <-> b cycle plus both roots.
        h.write_ref(h.ref_slot(a, 0), b);
        h.write_ref(h.ref_slot(b, 0), a);
        h.write_ref(h.ref_slot(b, 1), a);
        let d = verify_heap(&h, &[a, b]).unwrap();
        assert_eq!(d.objects, 2);
    }

    #[test]
    fn dangling_reference_detected() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        h.write_ref(h.ref_slot(a, 0), Addr(!7));
        assert!(matches!(
            verify_heap(&h, &[a]),
            Err(VerifyError::DanglingRef { .. })
        ));
    }

    #[test]
    fn ref_into_free_region_detected() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let dead = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(dead, 1).unwrap();
        h.write_ref(h.ref_slot(a, 0), b);
        h.release_region(dead).unwrap();
        assert!(matches!(
            verify_heap(&h, &[a]),
            Err(VerifyError::RefIntoFreeRegion { .. })
        ));
    }

    #[test]
    fn stale_forwarding_detected() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 1).unwrap();
        let b = h.alloc_object(e, 1).unwrap();
        h.set_header(a, Header::forwarding(b));
        assert!(matches!(
            verify_heap(&h, &[a]),
            Err(VerifyError::StaleForwarding { .. })
        ));
    }

    #[test]
    fn ref_past_top_detected() {
        let mut h = heap_with(4);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        // Address inside the region but past the bump pointer.
        let bogus = h.addr_of(e, 1024);
        h.write_ref(h.ref_slot(a, 0), bogus);
        assert!(matches!(
            verify_heap(&h, &[a]),
            Err(VerifyError::RefPastTop { .. })
        ));
    }

    #[test]
    fn remset_invariant_holds_for_barriered_stores() {
        let mut h = heap_with(6);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let o = h.take_region(RegionKind::Old).unwrap();
        let anchor = h.alloc_object(o, 0).unwrap();
        let young = h.alloc_object(e, 1).unwrap();
        h.write_ref_with_barrier(h.ref_slot(anchor, 0), young);
        let checked = verify_remsets(&h, &[anchor]).unwrap();
        assert_eq!(checked, 1);
    }

    #[test]
    fn remset_invariant_catches_unbarriered_stores() {
        let mut h = heap_with(6);
        let e = h.take_region(RegionKind::Eden).unwrap();
        let o = h.take_region(RegionKind::Old).unwrap();
        let anchor = h.alloc_object(o, 0).unwrap();
        let young = h.alloc_object(e, 1).unwrap();
        // Raw store without the barrier: the invariant must flag it.
        h.write_ref(h.ref_slot(anchor, 0), young);
        assert!(matches!(
            verify_remsets(&h, &[anchor]),
            Err(VerifyError::MissingRemsetEntry { .. })
        ));
    }

    #[test]
    fn null_roots_are_fine() {
        let h = heap_with(2);
        let d = verify_heap(&h, &[Addr::NULL]).unwrap();
        assert_eq!(d.objects, 0);
    }
}
