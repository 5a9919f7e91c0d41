//! Parallel heap marking.
//!
//! G1 is "partially concurrent": a marking phase computes per-region
//! liveness so that *mixed* collections can pick the old regions with the
//! most garbage (the garbage-first heuristic the collector is named
//! after; paper §2.1). G1's bottom-line *full* collection marks the same
//! way; no workload here ever needs one, and the paper's never did.
//!
//! This reproduction runs marking stop-the-world on the simulated GC
//! workers. Real G1 marks concurrently with the mutator; the paper's
//! evaluation never observed a full GC and only rare mixed GCs, so the
//! concurrency difference does not affect any reproduced figure — but the
//! *algorithm* (parallel tracing with per-region live accounting) is the
//! real one, and its cost is charged to the memory model like everything
//! else.

use crate::collector::Worker;
use crate::engine;
use crate::error::EngineError;
use crate::stack::{Task, WorkPool};
use nvmgc_heap::{Addr, Heap, RegionId};
use nvmgc_memsim::{MemorySystem, Ns};

/// A mark bitmap plus per-region live-byte counters.
#[derive(Debug)]
pub struct MarkState {
    /// One bit per 8-byte granule, indexed by region then granule.
    bitmaps: Vec<Vec<u64>>,
    /// Live bytes per region.
    live_bytes: Vec<u64>,
    /// Live objects per region.
    live_objects: Vec<u64>,
    granules_per_region: u32,
    shift: u32,
}

impl MarkState {
    /// Creates cleared marking state covering `heap`.
    pub fn new(heap: &Heap) -> MarkState {
        let regions = heap.region_count();
        let granules = heap.config().region_size / 8;
        let words = (granules as usize).div_ceil(64);
        MarkState {
            bitmaps: (0..regions).map(|_| vec![0u64; words]).collect(),
            live_bytes: vec![0; regions],
            live_objects: vec![0; regions],
            granules_per_region: granules,
            shift: heap.shift(),
        }
    }

    #[inline]
    fn index(&self, obj: Addr) -> (usize, usize, u64) {
        let region = obj.region(self.shift) as usize;
        let granule = obj.offset(self.shift) / 8;
        debug_assert!(granule < self.granules_per_region);
        (region, (granule / 64) as usize, 1u64 << (granule % 64))
    }

    /// Marks `obj`, returning `true` if it was newly marked.
    pub fn mark(&mut self, obj: Addr, size: u32) -> bool {
        let (r, w, bit) = self.index(obj);
        let word = &mut self.bitmaps[r][w];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.live_bytes[r] += size as u64;
        self.live_objects[r] += 1;
        true
    }

    /// Whether `obj` is marked.
    #[cfg(test)]
    fn is_marked(&self, obj: Addr) -> bool {
        let (r, w, bit) = self.index(obj);
        self.bitmaps[r][w] & bit != 0
    }

    /// Live objects recorded for a region.
    pub fn live_objects(&self, region: RegionId) -> u64 {
        self.live_objects[region as usize]
    }

    /// Total live bytes across the heap.
    pub fn total_live_bytes(&self) -> u64 {
        self.live_bytes.iter().sum()
    }

    /// Liveness ratio of a region in `[0, 1]`.
    pub fn liveness(&self, heap: &Heap, region: RegionId) -> f64 {
        let used = heap.region(region).used();
        if used == 0 {
            0.0
        } else {
            self.live_bytes[region as usize] as f64 / used as f64
        }
    }
}

/// Outcome of a marking pass.
#[derive(Debug)]
pub struct MarkOutcome {
    /// The marking state (bitmaps + liveness).
    pub state: MarkState,
    /// Simulated time when marking finished.
    pub end_ns: Ns,
    /// Objects marked.
    pub marked_objects: u64,
    /// Bytes marked live.
    pub marked_bytes: u64,
    /// Engine scheduler steps the marking pass executed.
    pub steps: u64,
}

/// Runs a parallel marking pass over the whole heap from `roots`.
///
/// Marking uses the same worker/stealing infrastructure as evacuation:
/// tasks are *objects to scan*; each scan reads the object's reference
/// slots (charged to the memory model) and pushes unmarked referents.
pub fn mark_heap(
    heap: &mut Heap,
    mem: &mut MemorySystem,
    threads: usize,
    roots: &[Addr],
    start: Ns,
) -> Result<MarkOutcome, EngineError> {
    let threads = threads.max(1);
    let mut state = MarkState::new(heap);
    let mut pool = WorkPool::new(threads);

    // Seed: mark + queue every root object.
    for (i, &root) in roots.iter().enumerate() {
        if root.is_null() {
            continue;
        }
        let size = heap.object_size(root);
        if state.mark(root, size) {
            pool.push(i % threads, Task::Slot(root));
        }
    }

    let mut workers: Vec<Worker> = (0..threads).map(|i| Worker::new(i, start)).collect();
    let cpu_obj_ns: Ns = 8;

    let end = engine::run_phase(&mut workers, |w| {
        let task = pool.pop(w.id).or_else(|| pool.steal(w.id).map(|(t, _)| t));
        let Some(Task::Slot(obj)) = task else {
            if pool.outstanding() == 0 {
                w.done = true;
            } else {
                w.clock += 500;
            }
            return;
        };
        w.clock += cpu_obj_ns;
        // Read the header + reference slots of the object being scanned.
        let dev = heap.device_of(obj);
        w.clock = mem.read_word(w.id, dev, obj.raw(), w.clock);
        let nrefs = heap.num_refs(obj);
        for i in 0..nrefs {
            let slot = heap.ref_slot(obj, i);
            w.clock = mem.read_word(w.id, dev, slot.raw(), w.clock);
            let child = heap.read_ref(slot);
            if child.is_null() {
                continue;
            }
            let size = heap.object_size(child);
            if state.mark(child, size) {
                pool.push(w.id, Task::Slot(child));
            }
        }
    })?;

    let marked_objects = (0..heap.region_count() as u32)
        .map(|r| state.live_objects(r))
        .sum();
    let marked_bytes = state.total_live_bytes();
    let steps = workers.iter().map(|w| w.steps).sum();
    Ok(MarkOutcome {
        state,
        end_ns: end,
        marked_objects,
        marked_bytes,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_heap::{ClassTable, DevicePlacement, HeapConfig, RegionKind};
    use nvmgc_memsim::MemConfig;

    fn setup() -> (Heap, MemorySystem) {
        let mut classes = ClassTable::new();
        classes.register("pair", 2, 16);
        classes.register("leaf", 0, 8);
        let heap = Heap::new(
            HeapConfig {
                region_size: 1 << 12,
                heap_regions: 16,
                young_regions: 8,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            classes,
        );
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.set_threads(4);
        (heap, mem)
    }

    #[test]
    fn marks_exactly_the_reachable_objects() {
        let (mut h, mut m) = setup();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(e, 1).unwrap();
        let garbage = h.alloc_object(e, 1).unwrap();
        h.write_ref(h.ref_slot(a, 0), b);
        let out = mark_heap(&mut h, &mut m, 2, &[a], 0).unwrap();
        assert!(out.state.is_marked(a));
        assert!(out.state.is_marked(b));
        assert!(!out.state.is_marked(garbage));
        assert_eq!(out.marked_objects, 2);
        assert_eq!(out.marked_bytes, (40 + 16) as u64);
        assert!(out.end_ns > 0);
    }

    #[test]
    fn cycles_terminate() {
        let (mut h, mut m) = setup();
        let e = h.take_region(RegionKind::Eden).unwrap();
        let a = h.alloc_object(e, 0).unwrap();
        let b = h.alloc_object(e, 0).unwrap();
        h.write_ref(h.ref_slot(a, 0), b);
        h.write_ref(h.ref_slot(b, 0), a);
        let out = mark_heap(&mut h, &mut m, 3, &[a, b, a], 0).unwrap();
        assert_eq!(out.marked_objects, 2);
    }

    #[test]
    fn per_region_liveness_is_accurate() {
        let (mut h, mut m) = setup();
        let e1 = h.take_region(RegionKind::Eden).unwrap();
        let e2 = h.take_region(RegionKind::Eden).unwrap();
        // Region e1: one live, one dead; region e2: all dead.
        let live = h.alloc_object(e1, 1).unwrap();
        let _dead1 = h.alloc_object(e1, 1).unwrap();
        let _dead2 = h.alloc_object(e2, 0).unwrap();
        let out = mark_heap(&mut h, &mut m, 1, &[live], 0).unwrap();
        // Half of e1's bytes are live: one of its two 16 B leaves.
        assert_eq!(out.state.liveness(&h, e1), 0.5);
        assert_eq!(out.state.liveness(&h, e2), 0.0);
        assert_eq!(out.state.total_live_bytes(), 16);
        // Empty region liveness is zero, not NaN.
        let free = h.take_region(RegionKind::Old).unwrap();
        assert_eq!(out.state.liveness(&h, free), 0.0);
    }

    #[test]
    fn marking_is_deterministic() {
        let run = || {
            let (mut h, mut m) = setup();
            let e = h.take_region(RegionKind::Eden).unwrap();
            let mut roots = Vec::new();
            let mut prev = Addr::NULL;
            for i in 0..50 {
                let o = h.alloc_object(e, (i % 2) as u32).unwrap();
                if !prev.is_null() && h.num_refs(o) > 0 {
                    h.write_ref(h.ref_slot(o, 0), prev);
                }
                if i % 7 == 0 {
                    roots.push(o);
                }
                prev = o;
            }
            roots.push(prev);
            let out = mark_heap(&mut h, &mut m, 4, &roots, 0).unwrap();
            (out.end_ns, out.marked_objects, out.marked_bytes)
        };
        assert_eq!(run(), run());
    }
}
