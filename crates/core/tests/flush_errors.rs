//! Pinned error tests for the write-cache drain path.
//!
//! `note_flushed` used to guard its invariants with `debug_assert!`,
//! which made a double flush *silently release the DRAM budget twice*
//! in release builds — the cache could then exceed `max_bytes` for the
//! rest of the run. These tests pin the typed-error contract through
//! the public API so the guard can never quietly regress to a
//! debug-only check again.

use nvmgc_core::{GcError, OracleViolation, WriteCacheConfig, WriteCachePool};
use nvmgc_heap::{ClassTable, DevicePlacement, Heap, HeapConfig, RegionKind};

fn heap() -> Heap {
    let mut classes = ClassTable::new();
    classes.register("x", 1, 8);
    Heap::new(
        HeapConfig {
            region_size: 1 << 12,
            heap_regions: 8,
            young_regions: 8,
            placement: DevicePlacement::all_nvm(),
            card_table: false,
        },
        classes,
    )
}

fn pool(max: u64) -> WriteCachePool {
    WriteCachePool::new(WriteCacheConfig {
        enabled: true,
        max_bytes: max,
        async_flush: true,
        nt_store: true,
    })
}

/// A second flush of the same region is a typed error and releases no
/// budget — in every build profile.
#[test]
fn double_flush_returns_a_typed_error() {
    let mut h = heap();
    let mut p = pool(1 << 12);
    let (c, _) = p.alloc_pair(&mut h).expect("pair");
    p.note_flushed(&mut h, c, false)
        .expect("first flush is fine");
    assert_eq!(p.bytes_in_use(), 0);

    let OracleViolation::DrainOrder { region, .. } = p
        .note_flushed(&mut h, c, false)
        .expect_err("second flush rejected")
    else {
        unreachable!("a drain-order violation")
    };
    assert_eq!(region, c);
    assert_eq!(
        p.bytes_in_use(),
        0,
        "budget untouched by the rejected flush"
    );
    assert!(
        p.check_drain_order(&h).is_ok(),
        "pool state stays consistent"
    );
}

/// Flushing a region the pool never allocated is rejected before any
/// heap state is modified.
#[test]
fn flushing_a_foreign_region_is_rejected() {
    let mut h = heap();
    let mut p = pool(1 << 20);
    let _pair = p.alloc_pair(&mut h).expect("pair");
    let bogus = h.take_region(RegionKind::Eden).expect("eden");

    let OracleViolation::DrainOrder { region, reason } =
        p.note_flushed(&mut h, bogus, true).expect_err("rejected")
    else {
        unreachable!("a drain-order violation")
    };
    assert_eq!(region, bogus);
    assert!(
        !h.region(bogus).flushed,
        "rejection leaves the region untouched"
    );
    assert!(!reason.is_empty());
}

/// Retiring a pending slot that was never registered is a typed error —
/// in release builds the old `debug_assert!` let the `u32` counter wrap
/// to `u32::MAX`, so the `pending_slots == 0` readiness condition could
/// never hold again and the region's DRAM budget silently leaked.
#[test]
fn slot_counter_underflow_returns_a_typed_error() {
    let mut h = heap();
    let mut p = pool(1 << 20);
    let (c, _) = p.alloc_pair(&mut h).expect("pair");

    let OracleViolation::DrainOrder { region, reason } =
        p.note_slot_done(&mut h, c).expect_err("underflow rejected")
    else {
        unreachable!("a drain-order violation")
    };
    assert_eq!(region, c);
    assert!(reason.contains("pending"), "{reason}");
    assert_eq!(h.region(c).pending_slots, 0, "counter must not wrap");
    assert!(
        p.check_drain_order(&h).is_ok(),
        "pool state stays consistent"
    );

    // The balanced sequence still works after the rejected call.
    h.region_mut(c).pending_slots = 1;
    p.note_slot_done(&mut h, c)
        .expect("balanced decrement is fine");
    assert_eq!(h.region(c).pending_slots, 0);
}

/// Closing a LAB in a region with no open LABs is the same underflow
/// class: a wrapped `open_labs` pins the region unflushable forever.
#[test]
fn lab_counter_underflow_returns_a_typed_error() {
    let mut h = heap();
    let mut p = pool(1 << 20);
    let (c, _) = p.alloc_pair(&mut h).expect("pair");

    let OracleViolation::DrainOrder { region, reason } = p
        .note_lab_closed(&mut h, c)
        .expect_err("underflow rejected")
    else {
        unreachable!("a drain-order violation")
    };
    assert_eq!(region, c);
    assert!(reason.contains("LAB"), "{reason}");
    assert_eq!(h.region(c).open_labs, 0, "counter must not wrap");

    h.region_mut(c).open_labs = 1;
    p.note_lab_closed(&mut h, c)
        .expect("balanced close is fine");
    assert_eq!(h.region(c).open_labs, 0);
}

/// The underflow errors render as oracle violations exactly like the
/// other drain-order failures, so the fault matrix stays greppable.
#[test]
fn underflow_violation_renders_like_a_drain_order_error() {
    let mut h = heap();
    let mut p = pool(1 << 20);
    let (c, _) = p.alloc_pair(&mut h).expect("pair");
    let OracleViolation::DrainOrder { region, reason } =
        p.note_slot_done(&mut h, c).expect_err("underflow")
    else {
        unreachable!("a drain-order violation")
    };
    let text = GcError::Oracle(OracleViolation::DrainOrder { region, reason }).to_string();
    assert!(text.contains("oracle violation"), "{text}");
    assert!(text.contains(&format!("cache region {region}")), "{text}");
}

/// The drain-path error is surfaced to callers as an oracle violation;
/// pin its rendering so logs and the fault matrix stay greppable.
#[test]
fn drain_order_violation_renders_the_region_and_reason() {
    let mut h = heap();
    let mut p = pool(1 << 12);
    let (c, _) = p.alloc_pair(&mut h).expect("pair");
    p.note_flushed(&mut h, c, false).expect("first flush");
    let OracleViolation::DrainOrder { region, reason } =
        p.note_flushed(&mut h, c, false).expect_err("double flush")
    else {
        unreachable!("a drain-order violation")
    };

    let gc_err = GcError::Oracle(OracleViolation::DrainOrder { region, reason });
    let text = gc_err.to_string();
    assert!(text.contains("oracle violation"), "{text}");
    assert!(text.contains(&format!("cache region {region}")), "{text}");
    assert!(text.contains("already flushed"), "{text}");
}
