//! Property-based tests for the durability ledger (persistence-order
//! model), stated through what a client sees of it: the crash image.
//!
//! For arbitrary interleavings of regular stores, non-temporal stores,
//! explicit write-backs, metadata persists, and fence drains, the ledger
//! must satisfy the persistence-order contract:
//!
//! - the durable set only ever grows (crash images are monotone in time),
//!   and holds only written lines,
//! - the same seed replayed over the same operations produces the exact
//!   same crash image at every intermediate crash point,
//! - a fence (`drain_all`) makes every accepted line durable.
//!
//! The full provenance property — durable ⊆ ever accepted ⊆ written — and
//! the exact form of the fence property (after a fence, durable = ever
//! accepted) need the ledger's private state: the reference model in
//! `persist.rs`'s test module asserts both after every operation.

use nvmgc_memsim::{CrashImage, DurabilityLedger, PersistConfig, CACHE_LINE};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The lines a crash image holds. Where the image is not torn
/// (`torn_lines == 0`) that is exactly the ledger's durable set; a torn
/// image adds a strict prefix of the front XPLine's never-drained lines.
fn image_lines(img: &CrashImage<'_>) -> BTreeSet<u64> {
    let lines = img.durable_lines_in(0, u64::MAX);
    lines.into_iter().map(|(line, _)| line).collect()
}

/// One ledger operation: discriminant, address, length.
type Op = (u8, u64, u64);

/// Small capacities so arbitrary scripts actually overflow the volatile
/// path and the write-combining buffer.
fn cfg(seed: u64) -> PersistConfig {
    PersistConfig {
        enabled: true,
        wc_xplines: 4,
        reorder_window: 3,
        volatile_lines: 8,
        seed,
    }
}

/// Applies `op` at time `now`; returns its kind (`op.0 % 5`: a store, an
/// NT store, a write-back, a metadata persist, a fence) and the lines its
/// range covers.
fn apply(l: &mut DurabilityLedger, op: Op, now: u64) -> (u8, BTreeSet<u64>) {
    let (kind, addr, len) = op;
    let addr = addr % (1 << 16); // bounded range => overlapping lines
    let len = (len % 1024).max(1);
    let kind = kind % 5;
    match kind {
        0 => l.record_store(addr, len, now),
        1 => l.record_nt_store(addr, len, now),
        2 => l.write_back(addr, len, now),
        3 => l.persist_meta(addr, now),
        _ => l.drain_all(now),
    }
    let first = addr & !(CACHE_LINE - 1);
    let last = (addr + len - 1) & !(CACHE_LINE - 1);
    (kind, (first..=last).step_by(CACHE_LINE as usize).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The durable set is monotone: once a line has drained it stays
    /// durable forever. Every crash image contains at least the full
    /// durable set of the instant it was taken (the torn front XPLine
    /// may add crash-point-specific extra survivors on top), so every
    /// image holds the lines of every earlier untorn image. Nothing
    /// unwritten is ever in an image.
    #[test]
    fn durable_set_is_monotone(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
    ) {
        let mut l = DurabilityLedger::new(cfg(seed));
        let mut written: BTreeSet<u64> = BTreeSet::new();
        let mut durable: BTreeSet<u64> = BTreeSet::new();
        for (i, &op) in ops.iter().enumerate() {
            let (kind, lines) = apply(&mut l, op, (i as u64 + 1) * 100);
            if kind <= 1 {
                written.extend(lines);
            }
            let img = l.crash_image();
            let cur = image_lines(&img);
            prop_assert_eq!(cur.len() as u64, img.durable_lines(), "count tracks iteration");
            prop_assert!(
                durable.is_subset(&cur),
                "durable line vanished at op {}: {:?}",
                i,
                durable.difference(&cur).collect::<Vec<_>>()
            );
            prop_assert!(cur.is_subset(&written), "an unwritten line is durable");
            if img.torn_lines == 0 {
                durable = cur;
            }
        }
    }

    /// Same seed, same operations: byte-identical crash image at every
    /// intermediate crash point (discarded/torn counts included).
    #[test]
    fn same_seed_same_crash_image_at_every_point(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
    ) {
        let run = |ops: &[Op]| {
            let mut l = DurabilityLedger::new(cfg(seed));
            let mut images = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                apply(&mut l, op, (i as u64 + 1) * 100);
                images.push(format!("{:?}", l.crash_image()));
            }
            images
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    /// A fence drains the write-combining buffer completely: afterwards
    /// the image is untorn and holds every line the device buffer was
    /// handed — every NT-stored line, and every written line a
    /// write-back covered (it was volatile then, or accepted before).
    #[test]
    fn fence_drains_every_accepted_line(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
    ) {
        let mut l = DurabilityLedger::new(cfg(seed));
        let (mut written, mut accepted) = (BTreeSet::new(), BTreeSet::new());
        for (i, &op) in ops.iter().enumerate() {
            let (kind, lines) = apply(&mut l, op, (i as u64 + 1) * 100);
            match kind {
                0 => written.extend(lines),
                1 => {
                    written.extend(&lines);
                    accepted.extend(lines);
                }
                2 => accepted.extend(lines.intersection(&written)),
                _ => {}
            }
        }
        l.drain_all(1_000_000);
        let img = l.crash_image();
        prop_assert_eq!(img.torn_lines, 0, "nothing left to tear after a fence");
        let durable = image_lines(&img);
        prop_assert!(accepted.is_subset(&durable), "an accepted line is not durable");
        prop_assert!(durable.is_subset(&written), "an unwritten line is durable");
    }
}
