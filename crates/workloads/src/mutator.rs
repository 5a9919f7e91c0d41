//! The mutator engine.
//!
//! Interprets a [`WorkloadSpec`] against a real heap: allocates objects
//! into eden TLAB regions, links survivors into the live graph (roots,
//! old-generation anchors, or the serial chain), touches live data to
//! generate application-phase memory traffic, and asks for a GC when the
//! young generation fills. Every memory operation is charged to the
//! timing model under the mutator's thread id, so application time and
//! application-phase bandwidth come out of the same model as GC time.

use crate::spec::WorkloadSpec;
use nvmgc_core::access::Gx;
use nvmgc_core::collector::ROOT_ARRAY_BASE;
use nvmgc_heap::{Addr, ClassId, Heap, HeapError, RegionId, RegionKind};
use nvmgc_memsim::{DeviceId, MemorySystem, Ns};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Why the mutator paused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutatorStep {
    /// The young generation is full; run a GC and call
    /// [`Mutator::on_gc_complete`].
    NeedsGc,
    /// The workload finished its allocation budget.
    Done,
}

/// The mutator state for one application run.
#[derive(Debug, Clone)]
pub struct Mutator {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Memory-model thread id for mutator traffic.
    pub tid: usize,
    /// The mutator's simulated clock (the lane currently executing; at
    /// phase boundaries, the maximum over all lanes).
    pub clock: Ns,
    /// Per-lane clocks modelling `spec.app_threads` overlapping
    /// application threads. Work is dispatched to the least-advanced lane.
    lanes: Vec<Ns>,
    /// Root array (the GC updates it in place).
    pub roots: Vec<Addr>,
    /// The class of each non-null root's referent, parallel to `roots`,
    /// so a touch need not load the header of a random (host-cache-cold)
    /// object to learn its layout. Invariant: a non-null `roots[i]` is
    /// written only by `root_write` or by a collector moving the same
    /// object, and moving an object never changes its class.
    shapes: Vec<ClassId>,
    eden: Option<RegionId>,
    free_root_slots: Vec<u32>,
    /// `(expire_at_gc, root_index)` pairs, unsorted.
    expiries: Vec<(u32, u32)>,
    chain_head: Option<u32>,
    chain_tail: Option<u32>,
    chain_started_gc: u32,
    /// Root-array indices of the long-lived anchor objects. Anchors are
    /// real GC roots: mixed collections may move or (if unrooted)
    /// reclaim old objects, so the mutator must hold them through the
    /// root array like any managed reference.
    old_anchor_roots: Vec<u32>,
    target_bytes: u64,
    allocated_bytes: u64,
    allocated_objects: u64,
    gc_count: u32,
    mix_cum: Vec<u32>,
    mix_total: u32,
}

impl Mutator {
    /// Creates a mutator. `tid` must be a valid memory-model thread id
    /// (use one past the GC worker ids). The allocation budget is
    /// `spec.alloc_young_multiple ×` the heap's young-generation bytes.
    pub fn new(spec: WorkloadSpec, seed: u64, tid: usize, young_bytes: u64) -> Mutator {
        let mut cum = Vec::with_capacity(spec.mix.len());
        let mut total = 0;
        for m in &spec.mix {
            total += m.weight;
            cum.push(total);
        }
        let target_bytes = (spec.alloc_young_multiple * young_bytes as f64) as u64;
        let lanes = vec![0; spec.app_threads.max(1) as usize];
        Mutator {
            spec,
            rng: StdRng::seed_from_u64(seed),
            tid,
            clock: 0,
            lanes,
            roots: Vec::new(),
            shapes: Vec::new(),
            eden: None,
            free_root_slots: Vec::new(),
            expiries: Vec::new(),
            chain_head: None,
            chain_tail: None,
            chain_started_gc: 0,
            old_anchor_roots: Vec::new(),
            target_bytes,
            allocated_bytes: 0,
            allocated_objects: 0,
            gc_count: 0,
            mix_cum: cum,
            mix_total: total,
        }
    }

    /// The workload spec driving this mutator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Objects allocated so far.
    pub fn allocated_objects(&self) -> u64 {
        self.allocated_objects
    }

    /// GCs observed so far.
    pub fn gc_count(&self) -> u32 {
        self.gc_count
    }

    /// Pre-tenures the workload's long-lived anchor objects into the old
    /// generation (run once before the allocation loop).
    pub fn setup(&mut self, heap: &mut Heap, mem: &mut MemorySystem) -> Result<(), HeapError> {
        let anchor_size = heap.classes().get(0).size() as u64;
        let count = self.spec.old_anchor_bytes / anchor_size.max(1);
        let mut region = None;
        let mut anchors: Vec<Addr> = Vec::new();
        for _ in 0..count {
            loop {
                let r = match region {
                    Some(r) => r,
                    None => {
                        let r = heap.take_region(RegionKind::Old)?;
                        region = Some(r);
                        r
                    }
                };
                let (obj, t) = Gx::new(heap, mem).alloc_object(r, 0, self.clock);
                match obj {
                    Some(obj) => {
                        self.clock = t;
                        anchors.push(obj);
                        break;
                    }
                    None => region = None,
                }
            }
        }
        for obj in anchors {
            let idx = self.take_root_slot(heap, mem, obj);
            self.old_anchor_roots.push(idx);
        }
        for lane in &mut self.lanes {
            *lane = self.clock;
        }
        Ok(())
    }

    fn pick_class(&mut self) -> u32 {
        let x = self.rng.random_range(0..self.mix_total);
        // invariant: mix_cum is a running sum ending at mix_total, so any
        // x drawn from 0..mix_total is below its last entry.
        let idx = self
            .mix_cum
            .iter()
            .position(|&c| x < c)
            .expect("cumulative weights cover the range");
        self.spec.mix_class_id(idx)
    }

    fn root_read(&mut self, mem: &mut MemorySystem, idx: u32) -> Addr {
        self.clock = mem.read_word(
            self.tid,
            DeviceId::Dram,
            ROOT_ARRAY_BASE + idx as u64 * 8,
            self.clock,
        );
        self.roots[idx as usize]
    }

    /// Stores the (just allocated, never null) object `value` in a root.
    fn root_write(&mut self, heap: &Heap, mem: &mut MemorySystem, idx: u32, value: Addr) {
        self.roots[idx as usize] = value;
        self.shapes[idx as usize] = heap.class_of(value);
        self.clock = mem.write_word(
            self.tid,
            DeviceId::Dram,
            ROOT_ARRAY_BASE + idx as u64 * 8,
            self.clock,
        );
    }

    fn take_root_slot(&mut self, heap: &Heap, mem: &mut MemorySystem, value: Addr) -> u32 {
        let idx = match self.free_root_slots.pop() {
            Some(i) => i,
            None => {
                self.roots.push(Addr::NULL);
                self.shapes.push(0);
                (self.roots.len() - 1) as u32
            }
        };
        self.root_write(heap, mem, idx, value);
        idx
    }

    /// Panics unless every non-null root's cached shape is its referent's
    /// class (the `shapes` invariant, checked over the whole array).
    #[cfg(test)]
    pub(crate) fn assert_shapes_match(&self, heap: &Heap) {
        assert_eq!(self.shapes.len(), self.roots.len());
        for (i, (&root, &shape)) in self.roots.iter().zip(&self.shapes).enumerate() {
            if !root.is_null() {
                assert_eq!(shape, heap.class_of(root), "root {i} at {root:?}");
            }
        }
    }

    /// Picks the least-advanced mutator lane and makes it current.
    fn enter_lane(&mut self) -> usize {
        // invariant: lanes is sized spec.app_threads.max(1) ≥ 1 at
        // construction and never shrinks.
        let (lane, _) = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("at least one lane");
        self.clock = self.lanes[lane];
        lane
    }

    /// Parks the current lane and sets the public clock to the barrier
    /// time (all application threads stop for STW events).
    fn exit_to_barrier(&mut self, lane: usize) {
        self.lanes[lane] = self.clock;
        // invariant: lanes is non-empty (see enter_lane), so max exists.
        self.clock = self.lanes.iter().copied().max().expect("lanes");
    }

    /// Runs the allocation loop until a GC is needed or the budget is
    /// exhausted.
    ///
    /// Allocations are spread over `spec.app_threads` lanes whose memory
    /// operations overlap in the bandwidth model — this is what lets a
    /// memory-intensive application phase saturate NVM like the paper's
    /// multi-threaded Spark executors do.
    pub fn run(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
    ) -> Result<MutatorStep, HeapError> {
        loop {
            let lane = self.enter_lane();
            if self.allocated_bytes >= self.target_bytes {
                self.exit_to_barrier(lane);
                return Ok(MutatorStep::Done);
            }
            self.clock += self.spec.cpu_per_alloc_ns as Ns;
            let class = self.pick_class();
            // Allocate from the eden TLAB, growing eden until the young
            // budget is exhausted.
            let obj = loop {
                let region = match self.eden {
                    Some(r) => r,
                    None => {
                        if heap.young_full() {
                            self.exit_to_barrier(lane);
                            return Ok(MutatorStep::NeedsGc);
                        }
                        let r = heap.take_region(RegionKind::Eden)?;
                        self.eden = Some(r);
                        r
                    }
                };
                let (obj, t) = {
                    let mut gx = Gx::new(heap, mem);
                    gx.alloc_object(region, class, self.clock)
                };
                match obj {
                    Some(o) => {
                        self.clock = t;
                        break o;
                    }
                    None => self.eden = None,
                }
            };
            let size = heap.object_size(obj) as u64;
            self.allocated_bytes += size;
            self.allocated_objects += 1;
            // Stamp a distinguishable payload (init cost already charged).
            if heap.classes().get(heap.class_of(obj)).data_bytes >= 8 {
                heap.write_data(obj, 0, self.allocated_objects);
            }
            self.touch_live(heap, mem);
            self.link(heap, mem, obj);
            if self.rng.random_bool(self.spec.share_fraction) {
                self.cross_link(heap, mem);
            }
            self.lanes[lane] = self.clock;
        }
    }

    /// Random field reads/writes on live objects (application traffic).
    fn touch_live(&mut self, heap: &mut Heap, mem: &mut MemorySystem) {
        for k in 0..self.spec.touches_per_alloc {
            if self.roots.is_empty() {
                return;
            }
            let idx = self.rng.random_range(0..self.roots.len() as u32);
            let target = self.root_read(mem, idx);
            if target.is_null() {
                continue;
            }
            let class = self.shapes[idx as usize];
            debug_assert_eq!(class, heap.class_of(target), "root {idx}");
            let info = heap.classes().get(class);
            if info.data_bytes < 8 {
                continue;
            }
            let nrefs = info.num_refs;
            let w = self.rng.random_range(0..info.data_bytes / 8);
            let mut gx = Gx::new(heap, mem);
            // Application phases are read-dominated (scanning cached
            // datasets); roughly one store per five loads.
            self.clock = if k % 5 == 4 {
                gx.write_data(self.tid, target, nrefs, w, 1, self.clock)
            } else {
                gx.touch_data(self.tid, target, w, self.clock)
            };
        }
    }

    /// Decides the new object's fate and links it into the live graph.
    fn link(&mut self, heap: &mut Heap, mem: &mut MemorySystem, obj: Addr) {
        if !self.rng.random_bool(self.spec.survival) {
            return; // garbage
        }
        let roll: f64 = self.rng.random();
        if roll < self.spec.chain_fraction {
            self.chain_append(heap, mem, obj);
            return;
        }
        if roll < self.spec.chain_fraction + self.spec.old_link_fraction
            && !self.old_anchor_roots.is_empty()
        {
            // Link from a random old anchor slot (write barrier →
            // remembered-set entry). Overwriting the slot retires the
            // previous referent. The anchor is re-read through the root
            // array — mixed/full collections may have moved it.
            let idx = self.old_anchor_roots
                [self.rng.random_range(0..self.old_anchor_roots.len() as u32) as usize];
            let anchor = self.root_read(mem, idx);
            debug_assert!(!anchor.is_null());
            let nrefs = heap.num_refs(anchor);
            let slot = heap.ref_slot(anchor, self.rng.random_range(0..nrefs));
            let mut gx = Gx::new(heap, mem);
            self.clock = gx.write_ref(self.tid, slot, obj, self.clock);
            return;
        }
        // Plain medium-lived root.
        let idx = self.take_root_slot(heap, mem, obj);
        self.expiries
            .push((self.gc_count + self.spec.keep_gcs, idx));
    }

    /// Adds a cross-reference between two random live objects, creating
    /// shared structure (multiple slots reaching one object).
    fn cross_link(&mut self, heap: &mut Heap, mem: &mut MemorySystem) {
        if self.roots.len() < 2 {
            return;
        }
        let a_idx = self.rng.random_range(0..self.roots.len() as u32);
        let b_idx = self.rng.random_range(0..self.roots.len() as u32);
        let a = self.root_read(mem, a_idx);
        let b = self.root_read(mem, b_idx);
        if a.is_null() || b.is_null() || a == b {
            return;
        }
        let nrefs = heap.num_refs(a);
        if nrefs == 0 {
            return;
        }
        let slot = heap.ref_slot(a, self.rng.random_range(0..nrefs));
        let mut gx = Gx::new(heap, mem);
        self.clock = gx.write_ref(self.tid, slot, b, self.clock);
    }

    /// Appends to the serial chain (load-imbalance source).
    fn chain_append(&mut self, heap: &mut Heap, mem: &mut MemorySystem, obj: Addr) {
        match self.chain_tail {
            Some(tail_idx) => {
                let tail = self.root_read(mem, tail_idx);
                debug_assert!(!tail.is_null());
                let nrefs = heap.num_refs(tail);
                if nrefs > 0 {
                    let slot = heap.ref_slot(tail, 0);
                    let mut gx = Gx::new(heap, mem);
                    self.clock = gx.write_ref(self.tid, slot, obj, self.clock);
                    self.root_write(heap, mem, tail_idx, obj);
                } else {
                    // A ref-less tail cannot be extended; restart the chain.
                    self.root_write(heap, mem, tail_idx, obj);
                }
            }
            None => {
                let head = self.take_root_slot(heap, mem, obj);
                let tail = self.take_root_slot(heap, mem, obj);
                self.chain_head = Some(head);
                self.chain_tail = Some(tail);
                self.chain_started_gc = self.gc_count;
            }
        }
    }

    /// Acknowledges a completed GC: advances the clock past the pause,
    /// drops expired roots and possibly the chain.
    pub fn on_gc_complete(&mut self, gc_end: Ns) {
        self.clock = self.clock.max(gc_end);
        for lane in &mut self.lanes {
            *lane = self.clock;
        }
        self.gc_count += 1;
        self.eden = None;
        let gc = self.gc_count;
        let mut expired: Vec<u32> = Vec::new();
        self.expiries.retain(|&(at, idx)| {
            if at <= gc {
                expired.push(idx);
                false
            } else {
                true
            }
        });
        for idx in expired {
            self.roots[idx as usize] = Addr::NULL;
            self.free_root_slots.push(idx);
        }
        if let (Some(h), Some(t)) = (self.chain_head, self.chain_tail) {
            if gc - self.chain_started_gc >= self.spec.keep_gcs.max(1) {
                self.roots[h as usize] = Addr::NULL;
                self.roots[t as usize] = Addr::NULL;
                self.free_root_slots.push(h);
                self.free_root_slots.push(t);
                self.chain_head = None;
                self.chain_tail = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClassMix;
    use nvmgc_heap::{DevicePlacement, HeapConfig};
    use nvmgc_memsim::MemConfig;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "unit",
            alloc_young_multiple: 0.5,
            mix: vec![
                ClassMix {
                    num_refs: 2,
                    data_bytes: 16,
                    weight: 3,
                },
                ClassMix {
                    num_refs: 0,
                    data_bytes: 56,
                    weight: 1,
                },
            ],
            survival: 0.5,
            keep_gcs: 1,
            old_link_fraction: 0.2,
            chain_fraction: 0.1,
            cpu_per_alloc_ns: 10.0,
            touches_per_alloc: 2,
            app_threads: 4,
            share_fraction: 0.1,
            old_anchor_bytes: 4 << 10,
        }
    }

    fn setup() -> (Heap, MemorySystem, Mutator) {
        let s = spec();
        let heap = Heap::new(
            HeapConfig {
                region_size: 16 << 10,
                heap_regions: 64,
                young_regions: 16,
                placement: DevicePlacement::all_nvm(),
                card_table: false,
            },
            s.build_classes(),
        );
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.set_threads(2);
        let young = 16 * (16 << 10) as u64;
        let m = Mutator::new(s, 7, 1, young);
        (heap, mem, m)
    }

    #[test]
    fn setup_pretenures_anchors() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        assert!(!m.old_anchor_roots.is_empty());
        assert!(!h.old().is_empty());
        assert!(m.clock > 0, "anchor allocation charged");
    }

    #[test]
    fn run_allocates_until_done_on_small_budget() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        // Budget 0.5 × young fits without any GC.
        let step = m.run(&mut h, &mut mem).unwrap();
        assert_eq!(step, MutatorStep::Done);
        assert!(m.allocated_bytes() >= 8 * (16 << 10) as u64);
        assert!(!m.roots.is_empty(), "some objects survived");
    }

    #[test]
    fn run_requests_gc_when_young_fills() {
        let (mut h, mut mem, mut m) = setup();
        m.target_bytes = u64::MAX / 2; // effectively unbounded
        m.setup(&mut h, &mut mem).unwrap();
        let step = m.run(&mut h, &mut mem).unwrap();
        assert_eq!(step, MutatorStep::NeedsGc);
        assert!(h.young_full());
    }

    #[test]
    fn expiries_drop_roots_after_keep_gcs() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        m.run(&mut h, &mut mem).unwrap();
        let live_before = m.roots.iter().filter(|r| !r.is_null()).count();
        assert!(live_before > 0);
        // Two simulated GCs expire keep_gcs=1 roots.
        m.on_gc_complete(1_000);
        m.on_gc_complete(2_000);
        let live_after = m.roots.iter().filter(|r| !r.is_null()).count();
        assert!(live_after < live_before, "{live_after} < {live_before}");
        assert!(m.gc_count() == 2);
    }

    #[test]
    fn shapes_follow_every_root_write() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        m.run(&mut h, &mut mem).unwrap();
        let rooted = |class| (m.roots.iter()).any(|&r| !r.is_null() && h.class_of(r) == class);
        assert!(rooted(0) && rooted(1), "both classes rooted");
        m.assert_shapes_match(&h);
    }

    #[test]
    #[should_panic(expected = "root ")]
    fn a_stale_shape_is_caught() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        m.run(&mut h, &mut mem).unwrap();
        let i = m.roots.iter().position(|r| !r.is_null()).unwrap();
        m.shapes[i] ^= 1;
        m.assert_shapes_match(&h);
    }

    #[test]
    fn on_gc_complete_advances_clock_and_resets_eden() {
        let (mut h, mut mem, mut m) = setup();
        m.setup(&mut h, &mut mem).unwrap();
        let before = m.clock;
        m.on_gc_complete(before + 123_456);
        assert_eq!(m.clock, before + 123_456);
        assert!(m.eden.is_none());
        // A clock already past the pause end is not rewound.
        m.on_gc_complete(10);
        assert_eq!(m.clock, before + 123_456);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let (mut h, mut mem, mut m) = setup();
            m.setup(&mut h, &mut mem).unwrap();
            m.run(&mut h, &mut mem).unwrap();
            (m.clock, m.allocated_objects(), m.roots.len())
        };
        assert_eq!(run(), run());
    }
}
