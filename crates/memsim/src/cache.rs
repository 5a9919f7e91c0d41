//! A compact set-associative last-level-cache model.
//!
//! The paper's §2.2 attributes part of the GC slowdown to poor locality:
//! heap traversal misses in the LLC and pays the (much larger) NVM miss
//! penalty. This model sits in front of the devices for *random word*
//! accesses; streaming bulk transfers (object copies, write-back) bypass it,
//! as hardware streaming accesses mostly do in practice.
//!
//! The model is deliberately small: physical tags, true-LRU within a set,
//! and a configurable total capacity so experiments can reproduce the
//! paper's Intel CAT test (shrinking the LLC barely changes GC time).

use crate::CACHE_LINE;

/// Associativity of the modeled cache.
pub const WAYS: usize = 8;

/// One cache set: the tags of its resident lines, most recently used
/// first. A host cache line of its own, so a probe touches one.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Set([u64; WAYS]);

/// A set-associative LLC model with true LRU replacement.
#[derive(Debug, Clone)]
pub struct LlcModel {
    /// Recency-ordered tags; a slot holds a line address or `EMPTY`.
    sets: Vec<Set>,
    set_mask: u64,
    hits: u64,
    misses: u64,
    installs: u64,
}

const EMPTY: u64 = u64::MAX;

impl LlcModel {
    /// Creates a cache model of approximately `capacity_bytes`.
    ///
    /// The set count is rounded down to a power of two; the minimum usable
    /// capacity is one set (`WAYS` lines). A capacity of zero produces a
    /// cache that never hits, which is useful for no-cache baselines.
    pub fn new(capacity_bytes: u64) -> Self {
        let lines = capacity_bytes / CACHE_LINE;
        let raw_sets = (lines as usize / WAYS).max(usize::from(capacity_bytes > 0));
        let num_sets = if raw_sets == 0 {
            0
        } else {
            1 << (usize::BITS - 1 - raw_sets.leading_zeros())
        };
        LlcModel {
            sets: vec![Set([EMPTY; WAYS]); num_sets],
            set_mask: num_sets.saturating_sub(1) as u64,
            hits: 0,
            misses: 0,
            installs: 0,
        }
    }

    /// The number of cache lines the model can hold.
    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * WAYS
    }

    #[inline]
    fn set_index(line: u64, mask: u64) -> usize {
        // Mix the line address so that region-strided heap layouts do not
        // alias pathologically into the same sets.
        let mut x = line;
        x ^= x >> 17;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        (x & mask) as usize
    }

    /// Makes `line` the most recently used line of its set and reports
    /// whether it was resident. On a miss the least recently used slot —
    /// the last one, whether it holds a line or an invalidated `EMPTY` —
    /// is dropped.
    ///
    /// A hit in way 0, the common case (a slot written right after it was
    /// read), changes nothing, and a miss shifts the whole set. Everything
    /// else runs the full `WAYS`, so it unrolls into compares and
    /// conditional moves, not a branch on the way hit and a call to
    /// `memmove`. A line is in its set at most once, so the search finds the
    /// way a first-match scan would.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        let set = &mut self.sets[Self::set_index(line, self.set_mask)].0;
        if set[0] == line {
            return true;
        }
        let mut found = WAYS;
        for (way, &tag) in set.iter().enumerate() {
            if tag == line {
                found = way;
            }
        }
        let old = *set;
        if found == WAYS {
            set[1..].copy_from_slice(&old[..WAYS - 1]);
            set[0] = line;
            return false;
        }
        for way in 1..WAYS {
            set[way] = if way <= found { old[way - 1] } else { old[way] };
        }
        set[0] = line;
        true
    }

    /// Records an access to `addr` and reports whether it hit.
    ///
    /// On a miss the line is installed, evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = !self.sets.is_empty() && self.touch(addr / CACHE_LINE);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Installs a line without counting a demand access (used by the
    /// prefetch engine when a fill completes).
    pub fn install(&mut self, addr: u64) {
        self.installs += 1;
        if !self.sets.is_empty() {
            self.touch(addr / CACHE_LINE);
        }
    }

    /// Installs every line of `[start, start + len)` in one call, as a
    /// sequential run of regular stores would.
    ///
    /// The run is approximated rather than replayed per line: under true
    /// LRU, streaming more than the cache's capacity through it leaves
    /// only the *tail* of the stream resident, so at most
    /// [`capacity_lines`](Self::capacity_lines) trailing lines are
    /// installed. This bounds the cost of arbitrarily large runs at
    /// O(capacity) while matching the per-line result exactly for runs
    /// that fit in the cache.
    pub fn install_range(&mut self, start: u64, len: u64) {
        if self.sets.is_empty() || len == 0 {
            return;
        }
        let first = start / CACHE_LINE;
        let last = (start + len - 1) / CACHE_LINE;
        let lines = last - first + 1;
        let begin = if lines > self.capacity_lines() as u64 {
            last + 1 - self.capacity_lines() as u64
        } else {
            first
        };
        for line in begin..=last {
            self.install(line * CACHE_LINE);
        }
    }

    /// Invalidates every line in a byte range (used when regions are
    /// recycled so stale tags cannot produce false hits). An invalidated
    /// slot becomes `EMPTY` where it stands: it keeps its age, and is
    /// evicted when it has become the oldest.
    pub fn invalidate_range(&mut self, start: u64, len: u64) {
        if self.sets.is_empty() || len == 0 {
            return;
        }
        let first = start / CACHE_LINE;
        let last = (start + len - 1) / CACHE_LINE;
        // For large ranges a full scan is cheaper than per-line probing.
        if last - first + 1 > (self.capacity_lines() as u64) {
            for set in &mut self.sets {
                for tag in set.0.iter_mut() {
                    if *tag >= first && *tag <= last {
                        *tag = EMPTY;
                    }
                }
            }
            return;
        }
        for line in first..=last {
            let set = &mut self.sets[Self::set_index(line, self.set_mask)].0;
            for tag in set.iter_mut() {
                if *tag == line {
                    *tag = EMPTY;
                }
            }
        }
    }

    /// Total demand hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total demand misses recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total non-demand line installs recorded (prefetch fills and bulk
    /// store runs). A deterministic work counter: it depends only on the
    /// simulated access stream, never on wall-clock.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Demand hit rate in `[0, 1]`; zero when no accesses were recorded.
    #[cfg(test)]
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The implementation this model replaced, kept as the reference the
    /// recency-ordered sets are checked against: tags and LRU stamps in
    /// parallel arrays, one global tick, the victim found by scanning for
    /// the oldest stamp.
    mod reference {
        use super::super::{LlcModel, CACHE_LINE, EMPTY, WAYS};

        pub struct StampLru {
            sets: Vec<[u64; WAYS]>,
            stamps: Vec<[u32; WAYS]>,
            tick: u32,
            set_mask: u64,
            hits: u64,
            misses: u64,
            installs: u64,
        }

        impl StampLru {
            /// Sizing and set hashing are `LlcModel`'s, unchanged by the
            /// replacement; everything below is the old model verbatim.
            pub fn new(num_sets: usize) -> Self {
                StampLru {
                    sets: vec![[EMPTY; WAYS]; num_sets],
                    stamps: vec![[0; WAYS]; num_sets],
                    tick: 0,
                    set_mask: num_sets.saturating_sub(1) as u64,
                    hits: 0,
                    misses: 0,
                    installs: 0,
                }
            }

            pub fn capacity_lines(&self) -> usize {
                self.sets.len() * WAYS
            }

            fn set_index(line: u64, mask: u64) -> usize {
                LlcModel::set_index(line, mask)
            }

            pub fn access(&mut self, addr: u64) -> bool {
                if self.sets.is_empty() {
                    self.misses += 1;
                    return false;
                }
                let line = addr / CACHE_LINE;
                let s = Self::set_index(line, self.set_mask);
                self.tick = self.tick.wrapping_add(1);
                let set = &mut self.sets[s];
                let stamps = &mut self.stamps[s];
                for w in 0..WAYS {
                    if set[w] == line {
                        stamps[w] = self.tick;
                        self.hits += 1;
                        return true;
                    }
                }
                // Miss: fill the LRU way.
                let mut victim = 0;
                for w in 1..WAYS {
                    if self.tick.wrapping_sub(stamps[w]) > self.tick.wrapping_sub(stamps[victim]) {
                        victim = w;
                    }
                }
                set[victim] = line;
                stamps[victim] = self.tick;
                self.misses += 1;
                false
            }

            pub fn install(&mut self, addr: u64) {
                self.installs += 1;
                if self.sets.is_empty() {
                    return;
                }
                let line = addr / CACHE_LINE;
                let s = Self::set_index(line, self.set_mask);
                self.tick = self.tick.wrapping_add(1);
                let set = &mut self.sets[s];
                let stamps = &mut self.stamps[s];
                for w in 0..WAYS {
                    if set[w] == line {
                        stamps[w] = self.tick;
                        return;
                    }
                }
                let mut victim = 0;
                for w in 1..WAYS {
                    if self.tick.wrapping_sub(stamps[w]) > self.tick.wrapping_sub(stamps[victim]) {
                        victim = w;
                    }
                }
                set[victim] = line;
                stamps[victim] = self.tick;
            }

            pub fn install_range(&mut self, start: u64, len: u64) {
                if self.sets.is_empty() || len == 0 {
                    return;
                }
                let first = start / CACHE_LINE;
                let last = (start + len - 1) / CACHE_LINE;
                let lines = last - first + 1;
                let begin = if lines > self.capacity_lines() as u64 {
                    last + 1 - self.capacity_lines() as u64
                } else {
                    first
                };
                for line in begin..=last {
                    self.install(line * CACHE_LINE);
                }
            }

            pub fn invalidate_range(&mut self, start: u64, len: u64) {
                if self.sets.is_empty() || len == 0 {
                    return;
                }
                let first = start / CACHE_LINE;
                let last = (start + len - 1) / CACHE_LINE;
                // For large ranges a full scan is cheaper than per-line probing.
                if last - first + 1 > (self.capacity_lines() as u64) {
                    for set in &mut self.sets {
                        for way in set.iter_mut() {
                            if *way >= first && *way <= last {
                                *way = EMPTY;
                            }
                        }
                    }
                    return;
                }
                for line in first..=last {
                    let s = Self::set_index(line, self.set_mask);
                    for w in 0..WAYS {
                        if self.sets[s][w] == line {
                            self.sets[s][w] = EMPTY;
                        }
                    }
                }
            }

            pub fn hits(&self) -> u64 {
                self.hits
            }

            pub fn misses(&self) -> u64 {
                self.misses
            }

            pub fn installs(&self) -> u64 {
                self.installs
            }
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = LlcModel::new(1 << 20);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line, different word");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = LlcModel::new(0);
        for _ in 0..10 {
            assert!(!c.access(0x40));
        }
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = LlcModel::new(64 * 1024);
        let lines = c.capacity_lines() as u64;
        // Touch 8x the capacity, twice; second pass should still miss a lot.
        let span = lines * 8;
        for round in 0..2 {
            for i in 0..span {
                c.access(i * CACHE_LINE);
            }
            if round == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert!(c.hit_rate() < 0.3, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn working_set_smaller_than_cache_mostly_hits() {
        let mut c = LlcModel::new(1 << 20);
        let span = (c.capacity_lines() / 4) as u64;
        for _ in 0..4 {
            for i in 0..span {
                c.access(i * CACHE_LINE);
            }
        }
        assert!(c.hit_rate() > 0.6, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn install_makes_subsequent_access_hit() {
        let mut c = LlcModel::new(1 << 20);
        c.install(0x2000);
        assert!(c.access(0x2000));
    }

    #[test]
    fn install_range_matches_per_line_install_when_run_fits() {
        let mut bulk = LlcModel::new(64 * 1024);
        let mut per_line = LlcModel::new(64 * 1024);
        let (start, len) = (0x4001u64, 40 * CACHE_LINE);
        bulk.install_range(start, len);
        let mut a = start & !(CACHE_LINE - 1);
        while a < start + len {
            per_line.install(a);
            a += CACHE_LINE;
        }
        for line in 0..=(start + len) / CACHE_LINE + 2 {
            assert_eq!(
                bulk.access(line * CACHE_LINE),
                per_line.access(line * CACHE_LINE),
                "line {line}"
            );
        }
    }

    #[test]
    fn install_range_larger_than_cache_keeps_only_the_tail() {
        let mut c = LlcModel::new(4 * 1024); // 64 lines
        let cap = c.capacity_lines() as u64;
        let total = cap * 8;
        c.install_range(0, total * CACHE_LINE);
        // The head of the stream cannot be resident...
        assert!(!c.access(0));
        // ...and the very last line must be.
        assert!(c.access((total - 1) * CACHE_LINE));
    }

    #[test]
    fn invalidate_range_clears_lines() {
        let mut c = LlcModel::new(1 << 20);
        c.access(0x4000);
        c.invalidate_range(0x4000, 64);
        assert!(!c.access(0x4000));
    }

    #[test]
    fn invalidate_large_range_uses_scan_path() {
        let mut c = LlcModel::new(4 * 1024);
        c.access(0x0);
        c.invalidate_range(0, 1 << 30);
        assert!(!c.access(0x0));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = LlcModel::new(512); // one set of 8 ways
        assert_eq!(c.sets.len(), 1);
        for i in 0..WAYS as u64 {
            c.access(i * CACHE_LINE);
        }
        // Touch line 0 again so line 1 becomes LRU.
        c.access(0);
        // A new line evicts line 1, not line 0.
        c.access(100 * CACHE_LINE);
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(CACHE_LINE), "line 1 must be evicted");
    }

    #[test]
    fn set_update_keeps_recency_order_at_its_edges() {
        const E: u64 = EMPTY;
        let mut c = LlcModel::new(512); // one set of 8 ways
        let order = |c: &LlcModel| c.sets[0].0;
        for line in 0..WAYS as u64 {
            assert!(!c.access(line * CACHE_LINE));
        }
        assert_eq!(order(&c), [7, 6, 5, 4, 3, 2, 1, 0]);
        // A hit in way 0 leaves the order as it is.
        assert!(c.access(7 * CACHE_LINE));
        assert_eq!(order(&c), [7, 6, 5, 4, 3, 2, 1, 0]);
        // A hit in way WAYS-1 moves every other way down one.
        assert!(c.access(0));
        assert_eq!(order(&c), [0, 7, 6, 5, 4, 3, 2, 1]);
        // A miss into a full set drops the last way.
        assert!(!c.access(100 * CACHE_LINE));
        assert_eq!(order(&c), [100, 0, 7, 6, 5, 4, 3, 2]);
        // Invalidated lines leave EMPTY slots where they stood; a miss
        // still drops the last way, and an EMPTY one only once it is last.
        c.invalidate_range(6 * CACHE_LINE, CACHE_LINE);
        c.invalidate_range(3 * CACHE_LINE, CACHE_LINE);
        assert_eq!(order(&c), [100, 0, 7, E, 5, 4, E, 2]);
        assert!(!c.access(200 * CACHE_LINE));
        assert_eq!(order(&c), [200, 100, 0, 7, E, 5, 4, E]);
        assert!(!c.access(201 * CACHE_LINE));
        assert_eq!(order(&c), [201, 200, 100, 0, 7, E, 5, 4]);
        // A hit below an EMPTY slot moves it down with the rest.
        assert!(c.access(4 * CACHE_LINE));
        assert_eq!(order(&c), [4, 201, 200, 100, 0, 7, E, 5]);
    }

    /// One step of a random interleaving, in line units.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64),
        Install(u64),
        InstallRange(u64, u64),
        InvalidateRange(u64, u64),
    }

    /// Lines `0..LINES` conflict heavily in one set and still overflow
    /// eight; range lengths reach past the largest capacity (64 lines), so
    /// `install_range` meets its cap and `invalidate_range` takes both the
    /// probe and the scan path at every size.
    const LINES: u64 = 96;

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Twice: demand accesses are the common op.
            (0..LINES).prop_map(Op::Access),
            (0..LINES).prop_map(Op::Access),
            (0..LINES).prop_map(Op::Install),
            (0..LINES, 1u64..100).prop_map(|(l, n)| Op::InstallRange(l, n)),
            (0..LINES, 1u64..100).prop_map(|(l, n)| Op::InvalidateRange(l, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recency_order_equals_stamp_lru(
            ops in prop::collection::vec(arb_op(), 1..400),
            skew in 0u64..CACHE_LINE,
        ) {
            let at = |line: u64| line * CACHE_LINE + skew;
            for sets in [1usize, 2, 8] {
                let mut new = LlcModel::new((sets * WAYS) as u64 * CACHE_LINE);
                prop_assert_eq!(new.sets.len(), sets);
                let mut old = reference::StampLru::new(sets);
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        Op::Access(l) => prop_assert_eq!(
                            new.access(at(l)),
                            old.access(at(l)),
                            "{} sets, op {}: {:?}", sets, i, op
                        ),
                        Op::Install(l) => {
                            new.install(at(l));
                            old.install(at(l));
                        }
                        Op::InstallRange(l, n) => {
                            new.install_range(at(l), n * CACHE_LINE);
                            old.install_range(at(l), n * CACHE_LINE);
                        }
                        Op::InvalidateRange(l, n) => {
                            new.invalidate_range(at(l), n * CACHE_LINE);
                            old.invalidate_range(at(l), n * CACHE_LINE);
                        }
                    }
                    prop_assert_eq!(
                        (new.hits(), new.misses(), new.installs()),
                        (old.hits(), old.misses(), old.installs()),
                        "{} sets, op {}: {:?}", sets, i, op
                    );
                }
                // Every line an op can have reached: the final contents agree.
                for l in 0..LINES + 101 {
                    prop_assert_eq!(
                        new.access(l * CACHE_LINE),
                        old.access(l * CACHE_LINE),
                        "{} sets, final probe of line {}", sets, l
                    );
                }
            }
        }
    }
}
