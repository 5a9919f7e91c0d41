//! Plan declarations: named selections of policies (MMTk-style).
//!
//! A plan is *data*, not code: it names the copy policy its survivor
//! space uses, and nothing else — every plan runs the same cycle
//! ([`crate::cycle`]: scan, write-back, map-clear, in that order). All
//! mechanism lives in [`crate::policy`], so a plan declaration is a
//! handful of lines — the semispace baseline below is the proof: it
//! reuses the fault plane, the durable header map, the durable allocator
//! and the crash oracles with zero persistence code of its own.

use crate::config::CollectorKind;

/// Which survivor-space copy policy a plan evacuates with (the promotion
/// path is shared by every plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPolicyKind {
    /// Per-worker survivor regions, cache-backed when enabled (G1).
    G1Survivor,
    /// LABs carved from shared regions; direct uncached copies for large
    /// objects (Parallel Scavenge).
    PsLab,
    /// One shared bump destination for every object — the semispace
    /// baseline with no regional machinery.
    SharedBump,
}

/// A plan: a named, static selection of policies executed by the shared
/// cycle.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Short name used in reports, labels and plan-axis grids.
    pub name: &'static str,
    /// The survivor-space copy policy.
    pub copy: CopyPolicyKind,
}

/// The regional, G1-like plan: per-worker survivor regions.
pub const G1_PLAN: PlanSpec = PlanSpec {
    name: "g1",
    copy: CopyPolicyKind::G1Survivor,
};

/// The Parallel-Scavenge-like plan (paper §4.4): HotSpot's stop-the-world
/// generational collector, the OpenJDK default before JDK 9. Its young GC
/// runs G1's copy-and-traverse loop with three modelled differences:
///
/// - survivors are managed in small **LABs** carved out of shared
///   regions rather than per-thread regions;
/// - objects above a size threshold are copied **directly** into the
///   shared target space without a LAB — address-discontiguous, so the
///   write cache cannot absorb them (the paper only caches contiguous
///   buffers, which is why PS benefits less);
/// - the **vanilla PS collector issues no software prefetches** during
///   young GC; the optimized configuration adds them.
///
/// PS uses a card table instead of per-region remembered sets; both
/// record the same old-to-young slots and the cost model charges the
/// same DRAM metadata traffic, so the remembered-set mechanism is reused.
/// Select it with the `ps_*` presets of [`crate::GcConfig`].
pub const PS_PLAN: PlanSpec = PlanSpec {
    name: "ps",
    copy: CopyPolicyKind::PsLab,
};

/// The semispace baseline plan: one shared bump region, no regional
/// machinery — the control that isolates what per-worker regions and
/// LABs themselves contribute atop NVM.
pub const SEMISPACE_PLAN: PlanSpec = PlanSpec {
    name: "semispace",
    copy: CopyPolicyKind::SharedBump,
};

/// The plan a collector kind runs.
pub fn plan_of(kind: CollectorKind) -> &'static PlanSpec {
    match kind {
        CollectorKind::G1 => &G1_PLAN,
        CollectorKind::Ps => &PS_PLAN,
        CollectorKind::Semispace => &SEMISPACE_PLAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_of_maps_every_collector_kind() {
        for (kind, name, copy) in [
            (CollectorKind::G1, "g1", CopyPolicyKind::G1Survivor),
            (CollectorKind::Ps, "ps", CopyPolicyKind::PsLab),
            (
                CollectorKind::Semispace,
                "semispace",
                CopyPolicyKind::SharedBump,
            ),
        ] {
            let plan = plan_of(kind);
            assert_eq!((plan.name, plan.copy), (name, copy));
        }
    }
}
