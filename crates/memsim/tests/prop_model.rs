//! Property-based tests for the memory timing model.
//!
//! The model must be *causally sane* under arbitrary access sequences:
//! time never runs backwards, costs are monotone in size, devices keep
//! their ordering, and accounting conserves bytes.

use nvmgc_memsim::{AccessKind, DeviceId, DeviceParams, Ledger, MemConfig, MemorySystem, Pattern};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::NtWrite),
    ]
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![Just(Pattern::Seq), Just(Pattern::Rand)]
}

fn arb_dev() -> impl Strategy<Value = DeviceId> {
    prop_oneof![Just(DeviceId::Dram), Just(DeviceId::Nvm)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ledger grants never complete before the request starts, and time
    /// is deterministic for an identical sequence.
    #[test]
    fn ledger_grants_are_causal_and_deterministic(
        ops in prop::collection::vec(
            (0u64..10_000_000, arb_kind(), arb_pattern(), 1u64..1_000_000),
            1..60
        )
    ) {
        let run = || {
            let mut l = Ledger::new(DeviceParams::optane(), 20_000);
            let mut outs = Vec::new();
            for &(now, kind, pat, bytes) in &ops {
                let done = l.grant(now, kind, pat, bytes);
                prop_assert!(done >= now, "completion {done} before start {now}");
                outs.push(done);
            }
            Ok(outs)
        };
        prop_assert_eq!(run()?, run()?);
    }

    /// For a fresh ledger, a larger request never completes earlier.
    #[test]
    fn larger_requests_take_longer(
        kind in arb_kind(),
        pat in arb_pattern(),
        bytes in 64u64..4_000_000,
        extra in 1u64..4_000_000,
    ) {
        let mut a = Ledger::new(DeviceParams::optane(), 20_000);
        let mut b = Ledger::new(DeviceParams::optane(), 20_000);
        let t_small = a.grant(0, kind, pat, bytes);
        let t_big = b.grant(0, kind, pat, bytes + extra);
        prop_assert!(t_big >= t_small);
    }

    /// Queueing monotonicity: pre-loading traffic never speeds up a
    /// later request.
    #[test]
    fn background_traffic_never_helps(
        preload in 0u64..8_000_000,
        bytes in 64u64..1_000_000,
    ) {
        let mut idle = Ledger::new(DeviceParams::optane(), 20_000);
        let mut busy = Ledger::new(DeviceParams::optane(), 20_000);
        busy.grant(0, AccessKind::Write, Pattern::Rand, preload);
        let t_idle = idle.grant(0, AccessKind::Read, Pattern::Seq, bytes);
        let t_busy = busy.grant(0, AccessKind::Read, Pattern::Seq, bytes);
        prop_assert!(t_busy >= t_idle);
    }

    /// The full system: every operation advances time; NVM is never
    /// faster than DRAM for the same fresh single access; byte accounting
    /// is conserved.
    #[test]
    fn system_accounting_is_conserved(
        ops in prop::collection::vec(
            (arb_dev(), 0u64..1u64 << 24, any::<bool>()),
            1..80
        )
    ) {
        let mut m = MemorySystem::new(MemConfig::default());
        m.set_threads(2);
        let mut now = 0u64;
        let expect_reads = [0u64; 2];
        let mut expect_writes = [0u64; 2];
        for &(dev, addr, is_write) in &ops {
            let aligned = addr & !7;
            let before = now;
            now = if is_write {
                // Writes always charge one line of (eventual) write-back.
                expect_writes[dev.index()] += 64;
                m.write_word(0, dev, aligned, now)
            } else {
                let t = m.read_word(0, dev, aligned, now);
                // A read miss charges one line; a hit charges nothing.
                t
            };
            prop_assert!(now > before, "time must advance");
        }
        let stats = m.stats();
        for d in [DeviceId::Dram, DeviceId::Nvm] {
            let i = d.index();
            prop_assert_eq!(stats.write_bytes[i], expect_writes[i]);
            // Reads are charged per miss: bounded by one line per op.
            prop_assert!(stats.read_bytes[i] <= 64 * ops.len() as u64);
            let _ = expect_reads[i];
        }
    }

    /// Bulk transfers on NVM are never faster than the same transfer on
    /// DRAM (fresh systems).
    #[test]
    fn nvm_never_beats_dram_bulk(
        bytes in 64u64..8_000_000,
        kind in arb_kind(),
    ) {
        let run = |dev: DeviceId| {
            let mut m = MemorySystem::new(MemConfig::default());
            m.set_threads(1);
            match kind {
                AccessKind::Read => m.read_bulk(dev, 0, bytes, 0),
                AccessKind::Write => m.write_bulk(dev, 0, bytes, 0),
                AccessKind::NtWrite => m.nt_write_bulk(dev, 0, bytes, 0),
            }
        };
        prop_assert!(run(DeviceId::Nvm) >= run(DeviceId::Dram));
    }

    /// Prefetching an address never makes a later read slower than not
    /// prefetching (in an otherwise idle system).
    #[test]
    fn prefetch_never_hurts_later_read(
        addr in (0u64..1u64 << 30).prop_map(|a| a & !7),
        gap in 0u64..2_000_000,
    ) {
        let mut plain = MemorySystem::new(MemConfig::default());
        plain.set_threads(1);
        let t_plain = plain.read_word(0, DeviceId::Nvm, addr, gap);

        let mut pf = MemorySystem::new(MemConfig::default());
        pf.set_threads(1);
        let issue_done = pf.prefetch(0, DeviceId::Nvm, addr, 0);
        let start = issue_done.max(gap);
        let t_pf = pf.read_word(0, DeviceId::Nvm, addr, start);
        // Compare the read duration itself.
        prop_assert!(t_pf.saturating_sub(start) <= t_plain.saturating_sub(gap));
    }
}
