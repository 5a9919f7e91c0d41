//! The stepped driver: one application run re-driven from outside, through
//! the same public calls `SimSnapshot::fork` makes inside, with a span around
//! each. It is what splits an opaque fork into mutator, collector and
//! verifier time without instrumenting the simulator.
//!
//! Its numbers are accepted only if the run it drove ends exactly where the
//! fork of the same cell ended ([`Expected`]); a driver that has drifted
//! from `fork` reports a failed op, never a plausible wrong split.

use crate::spans::Recorder;
use nvmgc_core::{G1Collector, GcError};
use nvmgc_heap::verify::{verify_heap, GraphDigest};
use nvmgc_heap::{Addr, Heap};
use nvmgc_workloads::mutator::MutatorStep;
use nvmgc_workloads::{AppRunConfig, AppRunResult, SimSnapshot};

/// Where the fork of a cell ended; the stepped run must end there too.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub total_ns: u64,
    pub cycles: usize,
    pub final_digest: GraphDigest,
}

impl Expected {
    pub fn of(res: &AppRunResult) -> Expected {
        Expected {
            total_ns: res.total_ns,
            cycles: res.gc.cycles(),
            final_digest: res.final_digest.clone(),
        }
    }
}

/// `verify_heap` with a span and an object count around it.
pub fn spanned_verify(
    heap: &Heap,
    roots: &[Addr],
    rec: &mut Recorder,
) -> Result<GraphDigest, String> {
    let open = rec.enter("verify_heap");
    let digest = verify_heap(heap, roots);
    rec.exit(open);
    let digest = digest.map_err(|e| format!("heap verification failed: {e:?}"))?;
    rec.count("verify_heap.objects", digest.objects);
    Ok(digest)
}

/// Drives `cfg` to completion from `snap`, mirroring the mutator-phase /
/// collection loop of `fork` (young collections only, crash recovery, and
/// pre/post digests on fault-injected runs).
pub fn stepped_run(
    snap: &SimSnapshot,
    cfg: &AppRunConfig,
    rec: &mut Recorder,
) -> Result<Expected, String> {
    let root = rec.enter("stepped_run");
    let end = drive(snap, cfg, rec);
    rec.exit(root);
    let (heap, roots, total_ns, cycles) = end?;
    Ok(Expected {
        total_ns,
        cycles,
        final_digest: spanned_verify(&heap, &roots, rec)?,
    })
}

/// The loop of [`stepped_run`]: the final heap, roots, clock and cycle count.
fn drive(
    snap: &SimSnapshot,
    cfg: &AppRunConfig,
    rec: &mut Recorder,
) -> Result<(Heap, Vec<Addr>, u64, usize), String> {
    let verify = !cfg.gc.fault.is_empty();
    let open = rec.enter("SimSnapshot::restore");
    let (mut heap, mut mem, mut mutator, mut step) = snap.restore();
    rec.exit(open);
    let mut gc = G1Collector::new(cfg.gc.clone());
    let mut cycles = 0usize;
    while step == MutatorStep::NeedsGc {
        let start = mutator.clock;
        let before = if verify {
            Some(spanned_verify(&heap, &mutator.roots, rec)?)
        } else {
            None
        };
        let open = rec.enter("G1Collector::collect");
        let mut attempt = gc.collect(&mut heap, &mut mem, &mut mutator.roots, start);
        // A durable-map power failure is recovered and the cycle resumed.
        let outcome = loop {
            match attempt {
                Err(GcError::PowerCrash(crash)) => {
                    attempt =
                        gc.recover_from_crash(&mut heap, &mut mem, &mut mutator.roots, *crash);
                }
                other => break other,
            }
        };
        rec.exit(open);
        let outcome = outcome.map_err(|e| format!("cycle {cycles}: {e}"))?;
        rec.count("collect.copied_objects", outcome.stats.copied_objects);
        rec.count("collect.engine_steps", outcome.stats.engine_steps);
        rec.count("collect.sim_ns", outcome.stats.pause_ns());
        if let Some(before) = before {
            let after = spanned_verify(&heap, &mutator.roots, rec)?;
            if after != before {
                return Err(format!("cycle {cycles}: graph digest changed"));
            }
        }
        mutator.on_gc_complete(outcome.end_ns);
        cycles += 1;
        let allocated = mutator.allocated_objects();
        let open = rec.enter("Mutator::run");
        let next = mutator.run(&mut heap, &mut mem);
        rec.exit(open);
        step = next.map_err(|e| format!("mutator after cycle {cycles}: {e}"))?;
        rec.count("mutator.allocs", mutator.allocated_objects() - allocated);
    }
    Ok((heap, mutator.roots, mutator.clock, cycles))
}
