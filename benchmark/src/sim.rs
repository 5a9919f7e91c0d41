//! Deterministic simulated quantities (`sim.` metrics) and the digest over
//! them. A simulator-speed change must leave every one of them identical.

use nvmgc_core::GcStats;
use nvmgc_memsim::{DeviceId, MemStats};
use nvmgc_workloads::AppRunResult;

/// Which side of the paper's headline comparison an op is on, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Headline {
    /// Vanilla G1.
    Vanilla,
    /// G1 with every optimisation (`+all`).
    PlusAll,
    /// Neither: another plan, preset or durability mode.
    Other,
}

/// Simulated counts summed over the ops of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub total_ns: u64,
    pub pause_ns: u64,
    pub engine_steps: u64,
    pub bus_grants: u64,
    pub llc_installs: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub mem_ops: u64,
    pub copied_objects: u64,
    pub nvm_write_bytes: u64,
    pub oracle_checks: u64,
    pub recovered_cycles: u64,
    pub replayed_map_entries: u64,
    pub alloc_fences: u64,
    pub client_requests: u64,
    pub client_cohorts: u64,
    pub gc_attributed_windows: u64,
    /// Simulated GC pause of the vanilla-G1 ops.
    pub vanilla_pause_ns: u64,
    /// Simulated GC pause of the G1 `+all` ops.
    pub plus_all_pause_ns: u64,
}

/// Memory-model operations (reads + writes, both devices).
pub fn mem_ops(s: &MemStats) -> u64 {
    s.reads.iter().sum::<u64>() + s.writes.iter().sum::<u64>()
}

impl SimCounts {
    /// The counts of one whole application run.
    pub fn from_run(res: &AppRunResult, headline: Headline) -> SimCounts {
        let mut c = SimCounts {
            total_ns: res.total_ns,
            ..SimCounts::default()
        };
        c.add_mem(&MemStats::default(), &res.mem_stats);
        for cycle in &res.cycles {
            c.add_cycle(cycle, headline);
        }
        c
    }

    /// Adds the memory-model work between two stats snapshots.
    pub fn add_mem(&mut self, before: &MemStats, after: &MemStats) {
        let nvm = DeviceId::Nvm.index();
        self.bus_grants += after.bus_grants - before.bus_grants;
        self.llc_installs += after.llc_installs - before.llc_installs;
        self.llc_hits += after.llc_hits - before.llc_hits;
        self.llc_misses += after.llc_misses - before.llc_misses;
        self.mem_ops += mem_ops(after) - mem_ops(before);
        self.nvm_write_bytes += after.write_bytes[nvm] - before.write_bytes[nvm];
    }

    /// Adds one collection cycle.
    pub fn add_cycle(&mut self, s: &GcStats, headline: Headline) {
        self.pause_ns += s.pause_ns();
        self.engine_steps += s.engine_steps;
        self.copied_objects += s.copied_objects;
        self.oracle_checks += s.fault_events.power_failure_checks;
        self.recovered_cycles += s.recovered_cycles;
        self.replayed_map_entries += s.replayed_map_entries;
        self.alloc_fences += s.alloc_fences;
        match headline {
            Headline::Vanilla => self.vanilla_pause_ns += s.pause_ns(),
            Headline::PlusAll => self.plus_all_pause_ns += s.pause_ns(),
            Headline::Other => {}
        }
    }

    pub fn add(&mut self, o: &SimCounts) {
        for (a, b) in self.words_mut().into_iter().zip(o.words()) {
            *a += b;
        }
    }

    fn words(&self) -> [u64; 19] {
        let mut copy = *self;
        copy.words_mut().map(|w| *w)
    }

    fn words_mut(&mut self) -> [&mut u64; 19] {
        [
            &mut self.total_ns,
            &mut self.pause_ns,
            &mut self.engine_steps,
            &mut self.bus_grants,
            &mut self.llc_installs,
            &mut self.llc_hits,
            &mut self.llc_misses,
            &mut self.mem_ops,
            &mut self.copied_objects,
            &mut self.nvm_write_bytes,
            &mut self.oracle_checks,
            &mut self.recovered_cycles,
            &mut self.replayed_map_entries,
            &mut self.alloc_fences,
            &mut self.client_requests,
            &mut self.client_cohorts,
            &mut self.gc_attributed_windows,
            &mut self.vanilla_pause_ns,
            &mut self.plus_all_pause_ns,
        ]
    }

    pub fn llc_hit_rate(&self) -> f64 {
        ratio(
            self.llc_hits as f64,
            (self.llc_hits + self.llc_misses) as f64,
        )
    }

    /// Simulated GC speed-up of `+all` over vanilla G1 (0 when the workload
    /// has no such pair of ops).
    pub fn gc_speedup_all_over_vanilla(&self) -> f64 {
        ratio(self.vanilla_pause_ns as f64, self.plus_all_pause_ns as f64)
    }

    /// Folds every count into `hash`.
    pub fn digest(&self, hash: u64) -> u64 {
        self.words().into_iter().fold(hash, fnv)
    }
}

/// `num / den`, or 0 when the denominator is: a layer a workload never
/// enters reports 0, not NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seed of the FNV-1a digest chain.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a digest.
pub fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().into_iter().fold(hash, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_digest_cover_every_field() {
        let mut a = SimCounts::default();
        for (i, w) in a.words_mut().into_iter().enumerate() {
            *w = i as u64 + 1;
        }
        let mut sum = a;
        sum.add(&a);
        assert_eq!(sum.words(), a.words().map(|w| 2 * w));
        // Changing any single field changes the digest.
        for i in 0..a.words().len() {
            let mut b = a;
            *b.words_mut()[i] += 1;
            assert_ne!(a.digest(FNV_SEED), b.digest(FNV_SEED), "field {i}");
        }
    }

    #[test]
    fn empty_denominators_read_zero() {
        let c = SimCounts::default();
        assert_eq!(c.llc_hit_rate(), 0.0);
        assert_eq!(c.gc_speedup_all_over_vanilla(), 0.0);
    }
}
