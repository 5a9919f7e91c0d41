//! The deterministic discrete-event engine.
//!
//! Simulated worker threads each carry a clock; the engine repeatedly
//! steps the worker with the smallest clock until every worker reports
//! done. Because steps are totally ordered by (clock, worker id), a given
//! configuration and workload always produces the same interleaving — the
//! property that makes every experiment in this reproduction exactly
//! repeatable, which real threads on shared hardware cannot offer.
//!
//! # Scheduling
//!
//! Picking the next worker is the engine's hot loop: it runs once per
//! simulated step, and paper-scale configurations step billions of times.
//! Two interchangeable schedulers implement the same (clock, id) order:
//!
//! - [`run_phase_scan`]: O(n) linear scan per step. Fastest for small
//!   worker counts, where scanning a few cache-resident clocks beats any
//!   queue maintenance.
//! - [`run_phase_heap`]: O(log n) binary-heap event queue keyed on
//!   `(clock, worker index)`. A worker's entry is popped before it steps
//!   and pushed back only when it yields, so the queue holds exactly one
//!   entry per waiting worker and never a stale one.
//!
//! Both schedulers micro-batch: after a step, if the worker's new clock
//! still precedes every other unfinished worker (ties break to the lower
//! id), it is stepped again directly — no rescan, no queue round trip.
//! The decision is re-checked after every step against a bound that
//! cannot move while the worker runs, so the emitted step sequence is
//! bit-for-bit the (clock, id) total order of an unbatched scheduler.
//!
//! [`run_phase`] dispatches on the worker count ([`HEAP_THRESHOLD`]); a
//! property test (`tests/prop_engine.rs`) proves both produce the exact
//! same step order.

use crate::collector::Worker;
use crate::error::EngineError;
use nvmgc_memsim::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper bound on steps per phase; exceeding it indicates a stuck worker
/// (a step that neither advances the clock nor finishes).
pub const STEP_LIMIT: u64 = 2_000_000_000;

/// Worker counts below this use the linear scan; at or above it, the
/// event queue. Crossover measured under the thin-LTO / codegen-units=1
/// profile (the rows `micro.core.engine.{scan,heap}_ns_per_step.*` of a
/// traced `benchmark/` run time both paths): the scan's per-step cost
/// grows linearly but has no queue maintenance and stays ahead through 8
/// workers (tied at 8, ~10% behind at 10, ~20% at 12 — the pre-LTO
/// crossover); LTO inlines the heap scheduler's comparator, moving the
/// break-even down from 12.
pub const HEAP_THRESHOLD: usize = 9;

/// Runs one phase to completion and returns the phase end time (the
/// maximum worker clock).
///
/// `step` is invoked for the minimum-clock unfinished worker; ties break
/// toward the lower worker id. Dispatches to [`run_phase_scan`] or
/// [`run_phase_heap`] by worker count; both yield the identical order.
///
/// # Errors
///
/// Returns [`EngineError::StuckWorker`] if the phase fails to terminate
/// within [`STEP_LIMIT`] steps.
pub fn run_phase<F>(workers: &mut [Worker], step: F) -> Result<Ns, EngineError>
where
    F: FnMut(&mut Worker),
{
    if workers.len() < HEAP_THRESHOLD {
        run_phase_scan(workers, step)
    } else {
        run_phase_heap(workers, step)
    }
}

/// [`run_phase`] with the O(n)-per-step linear scan scheduler.
///
/// Steps are micro-batched: after stepping the minimum-clock worker, the
/// scheduler compares that worker's new clock against the runner-up from
/// the same scan instead of rescanning. As long as the worker cannot be
/// overtaken — its clock stays below the runner-up's, or ties it with a
/// lower id — it is stepped again immediately. The emitted step order is
/// exactly the (clock, worker id) total order a scan-per-step scheduler
/// produces; only redundant scans are elided. Per-worker and global step
/// counters still advance once per step, so `Worker::steps`, the
/// [`STEP_LIMIT`] guard, and downstream `engine_steps` counters are
/// unchanged.
pub fn run_phase_scan<F>(workers: &mut [Worker], mut step: F) -> Result<Ns, EngineError>
where
    F: FnMut(&mut Worker),
{
    let mut steps = 0u64;
    loop {
        // One scan finds both the minimum (clock, id) worker and the
        // runner-up bound that limits how far it can be batched.
        let mut best: Option<usize> = None;
        let mut runner_up: Option<usize> = None;
        for (i, w) in workers.iter().enumerate() {
            if w.done {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) if w.clock < workers[b].clock => {
                    runner_up = best;
                    best = Some(i);
                }
                _ => match runner_up {
                    None => runner_up = Some(i),
                    Some(r) if w.clock < workers[r].clock => runner_up = Some(i),
                    _ => {}
                },
            }
        }
        let Some(i) = best else { break };
        loop {
            step(&mut workers[i]);
            workers[i].steps += 1;
            steps += 1;
            if steps >= STEP_LIMIT {
                return Err(stuck_worker(workers, i));
            }
            if workers[i].done {
                break;
            }
            match runner_up {
                // Sole unfinished worker: nothing can overtake it.
                None => continue,
                // Still strictly first in (clock, id) order: keep
                // stepping without rescanning. A tie breaks toward the
                // lower id, so `i < r` keeps the batch going on equal
                // clocks.
                Some(r)
                    if workers[i].clock < workers[r].clock
                        || (workers[i].clock == workers[r].clock && i < r) =>
                {
                    continue
                }
                Some(_) => break,
            }
        }
    }
    Ok(workers.iter().map(|w| w.clock).max().unwrap_or(0))
}

/// [`run_phase`] with the O(log n)-per-step event-queue scheduler.
///
/// The queue holds one entry per unfinished worker that is not being
/// stepped: each round pops the globally minimum `(clock, index)` pair,
/// runs that worker, and pushes it back with its new clock once another
/// worker precedes it (never if it is done). Indices are distinct, so no
/// two entries tie and the order is the scan's.
pub fn run_phase_heap<F>(workers: &mut [Worker], mut step: F) -> Result<Ns, EngineError>
where
    F: FnMut(&mut Worker),
{
    let mut queue: BinaryHeap<Reverse<(Ns, usize)>> = workers
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.done)
        .map(|(i, w)| Reverse((w.clock, i)))
        .collect();
    let mut steps = 0u64;
    while let Some(Reverse((clock, i))) = queue.pop() {
        debug_assert_eq!(workers[i].clock, clock, "queue entry out of sync");
        debug_assert!(!workers[i].done, "a done worker was queued");
        // Micro-batch: while this worker still precedes the queue head in
        // (clock, id) order it would be popped right back out, so step it
        // again without the push/pop round trip. Its own entry is already
        // popped, so the head is always another worker's; other clocks
        // cannot move while this worker steps, making the peeked bound
        // exact. Step counters advance once per step, exactly as before.
        loop {
            step(&mut workers[i]);
            workers[i].steps += 1;
            steps += 1;
            if steps >= STEP_LIMIT {
                return Err(stuck_worker(workers, i));
            }
            if workers[i].done {
                break;
            }
            // Requeue once another worker precedes this one in (clock,
            // index) order; `Reverse` flips the comparison.
            let next = Reverse((workers[i].clock, i));
            if queue.peek().is_some_and(|head| *head > next) {
                queue.push(next);
                break;
            }
        }
    }
    Ok(workers.iter().map(|w| w.clock).max().unwrap_or(0))
}

/// Diagnoses a phase that exceeded [`STEP_LIMIT`]: names the worker that
/// was being stepped when the limit hit, its clock, and every worker's
/// done flag, so a hang is attributable from the error message alone.
#[cold]
#[inline(never)]
fn stuck_worker(workers: &[Worker], stuck: usize) -> EngineError {
    let done_flags: String = workers
        .iter()
        .map(|w| if w.done { '+' } else { '-' })
        .collect();
    EngineError::StuckWorker {
        worker: workers[stuck].id,
        clock: workers[stuck].clock,
        done_flags,
        step_limit: STEP_LIMIT,
    }
}

/// Resets workers for a follow-on phase: clears `done`, aligns every clock
/// to the given start time (a phase begins only after all workers reached
/// its barrier).
pub fn rebarrier(workers: &mut [Worker], start: Ns) {
    for w in workers.iter_mut() {
        w.done = false;
        w.clock = w.clock.max(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_lowest_clock_first() {
        let mut workers = vec![Worker::new(0, 100), Worker::new(1, 50)];
        let mut order = Vec::new();
        run_phase(&mut workers, |w| {
            order.push(w.id);
            w.clock += 200;
            if w.clock > 300 {
                w.done = true;
            }
        })
        .unwrap();
        // Worker 1 (t=50) runs first, then worker 0 (t=100).
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 0);
    }

    #[test]
    fn returns_max_clock() {
        let mut workers = vec![Worker::new(0, 0), Worker::new(1, 0)];
        let end = run_phase(&mut workers, |w| {
            w.clock += if w.id == 0 { 10 } else { 99 };
            w.done = true;
        })
        .unwrap();
        assert_eq!(end, 99);
    }

    #[test]
    fn empty_worker_set_ends_immediately() {
        let mut workers: Vec<Worker> = Vec::new();
        assert_eq!(run_phase(&mut workers, |_| unreachable!()).unwrap(), 0);
        assert_eq!(run_phase_heap(&mut workers, |_| unreachable!()).unwrap(), 0);
    }

    #[test]
    fn heap_breaks_clock_ties_toward_lower_id() {
        // All clocks equal: both schedulers must step ids in order.
        let run = |use_heap: bool| -> Vec<usize> {
            let mut workers: Vec<Worker> = (0..5).map(|i| Worker::new(i, 7)).collect();
            let mut order = Vec::new();
            let step = |w: &mut Worker| {
                order.push(w.id);
                w.done = true;
            };
            if use_heap {
                run_phase_heap(&mut workers, step).unwrap();
            } else {
                run_phase_scan(&mut workers, step).unwrap();
            }
            order
        };
        assert_eq!(run(false), vec![0, 1, 2, 3, 4]);
        assert_eq!(run(true), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heap_requeues_worker_whose_clock_does_not_advance() {
        // A step that neither advances the clock nor finishes must still
        // be rescheduled (and eventually terminate) under the heap.
        let mut workers = vec![Worker::new(0, 0), Worker::new(1, 5)];
        let mut zero_steps = 0;
        let mut order = Vec::new();
        run_phase_heap(&mut workers, |w| {
            order.push(w.id);
            if w.id == 0 {
                zero_steps += 1;
                if zero_steps == 3 {
                    w.done = true;
                } // clock stays 0 for three steps
            } else {
                w.done = true;
            }
        })
        .unwrap();
        assert_eq!(order, vec![0, 0, 0, 1]);
    }

    #[test]
    fn dispatch_uses_heap_at_threshold_and_agrees_with_scan() {
        let build = || -> Vec<Worker> {
            (0..HEAP_THRESHOLD)
                .map(|i| Worker::new(i, (i as Ns * 37) % 11))
                .collect()
        };
        let run = |mut workers: Vec<Worker>, use_scan: bool| -> (Vec<usize>, Ns) {
            let mut order = Vec::new();
            let mut budget: Vec<u32> = (0..workers.len()).map(|i| 1 + (i as u32 % 4)).collect();
            let mut step = |w: &mut Worker| {
                order.push(w.id);
                w.clock += 13 + (w.id as Ns % 7);
                budget[w.id] -= 1;
                if budget[w.id] == 0 {
                    w.done = true;
                }
            };
            let end = if use_scan {
                run_phase_scan(&mut workers, &mut step).unwrap()
            } else {
                run_phase(&mut workers, &mut step).unwrap()
            };
            (order, end)
        };
        assert_eq!(run(build(), true), run(build(), false));
    }

    #[test]
    fn stuck_worker_error_pins_panic_diagnostics() {
        // The typed error must carry the exact payload the old panic
        // message printed: worker id, clock, per-worker done flags, and
        // the step limit, rendered in the same format.
        let mut workers = vec![Worker::new(0, 40), Worker::new(1, 7), Worker::new(2, 99)];
        workers[0].done = true;
        let err = stuck_worker(&workers, 1);
        let EngineError::StuckWorker {
            worker,
            clock,
            ref done_flags,
            step_limit,
        } = err;
        assert_eq!(worker, 1);
        assert_eq!(clock, 7);
        assert_eq!(done_flags, "+--");
        assert_eq!(step_limit, STEP_LIMIT);
        assert_eq!(
            err.to_string(),
            format!(
                "phase did not terminate within {STEP_LIMIT} steps: worker 1 stuck at clock 7 ns \
                 without finishing (done flags by worker id, '+' done / '-' running: [+--])"
            )
        );
    }

    #[test]
    fn rebarrier_aligns_clocks_forward_only() {
        let mut workers = vec![Worker::new(0, 10), Worker::new(1, 500)];
        workers[0].done = true;
        workers[1].done = true;
        rebarrier(&mut workers, 100);
        assert_eq!(workers[0].clock, 100);
        assert_eq!(workers[1].clock, 500);
        assert!(!workers[0].done && !workers[1].done);
    }
}
