//! Software-prefetch modeling.
//!
//! A `PREFETCH`-style instruction starts an asynchronous cache-line fill:
//! it consumes device bandwidth immediately but does not stall the issuing
//! thread. When the thread later demands the same line, the access costs a
//! cache hit if the fill has completed, or waits for the remaining fill
//! time otherwise. Each simulated hardware thread has a bounded table of
//! in-flight/completed prefetches (a stand-in for limited MSHRs and cache
//! residency): issuing past the bound evicts the oldest entry, which models
//! prefetches issued too early being useless — exactly the DFS-order
//! instability the paper discusses in §4.3.

use crate::{Ns, CACHE_LINE};
use std::collections::VecDeque;

/// One in-flight or completed prefetch.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    ready_at: Ns,
}

/// Bits in a [`PrefetchTable`]'s presence filter: over ten times the
/// default 48-line capacity, so a full table sets under a tenth of them.
/// At 64 bits it set about half, and about half of a GC worker's demand
/// reads fell through to the scan.
const FILTER_BITS: u64 = 512;

/// A per-thread table of outstanding software prefetches.
#[derive(Debug, Clone)]
pub struct PrefetchTable {
    entries: VecDeque<Entry>,
    /// Presence filter over `line % FILTER_BITS`: a demand access whose
    /// bit is clear cannot be covered, so the (hot) miss path skips the
    /// linear table scan. False positives just fall through to the scan.
    filter: [u64; (FILTER_BITS / 64) as usize],
    capacity: usize,
    issued: u64,
    useful: u64,
    dropped: u64,
}

impl PrefetchTable {
    /// Creates a table holding at most `capacity` outstanding lines.
    pub fn new(capacity: usize) -> Self {
        PrefetchTable {
            entries: VecDeque::with_capacity(capacity),
            filter: Default::default(),
            capacity,
            issued: 0,
            useful: 0,
            dropped: 0,
        }
    }

    /// The filter word and the bit within it that stand for `line`.
    #[inline]
    fn filter_slot(line: u64) -> (usize, u64) {
        let bit = line % FILTER_BITS;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    #[inline]
    fn filter_has(&self, line: u64) -> bool {
        let (word, mask) = Self::filter_slot(line);
        self.filter[word] & mask != 0
    }

    /// Recomputes the presence filter after an entry left the table (the
    /// departed line may share its bit with a survivor).
    fn rebuild_filter(&mut self) {
        self.filter = Default::default();
        for e in &self.entries {
            let (word, mask) = Self::filter_slot(e.line);
            self.filter[word] |= mask;
        }
    }

    /// Records a prefetch of the line containing `addr`, completing at
    /// `ready_at`. Evicts the oldest entry when full.
    pub fn issue(&mut self, addr: u64, ready_at: Ns) {
        if self.capacity == 0 {
            return;
        }
        self.issued += 1;
        let line = addr / CACHE_LINE;
        // Re-issuing for a line already in the table refreshes it.
        if self.filter_has(line) {
            if let Some(pos) = self.entries.iter().position(|e| e.line == line) {
                self.entries.remove(pos);
                self.entries.push_back(Entry { line, ready_at });
                return;
            }
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
            self.rebuild_filter();
        }
        self.entries.push_back(Entry { line, ready_at });
        let (word, mask) = Self::filter_slot(line);
        self.filter[word] |= mask;
    }

    /// Consumes a prefetch covering `addr`, if present.
    ///
    /// Returns `Some(ready_at)` when the line was prefetched: the caller
    /// treats the access as a cache hit if `ready_at <= now`, or waits for
    /// `ready_at` otherwise. Returns `None` when no prefetch covers the
    /// line.
    ///
    /// Every demand read asks, and a thread that issued nothing (the
    /// mutator never does) holds an empty table: the filter test is
    /// inlined into the caller, the table scan stays out of line.
    #[inline]
    pub fn consume(&mut self, addr: u64) -> Option<Ns> {
        let line = addr / CACHE_LINE;
        if !self.filter_has(line) {
            return None;
        }
        self.consume_line(line)
    }

    #[inline(never)]
    fn consume_line(&mut self, line: u64) -> Option<Ns> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        let entry = self.entries.remove(pos).expect("position was valid");
        self.useful += 1;
        self.rebuild_filter();
        Some(entry.ready_at)
    }

    /// Discards all outstanding prefetches (e.g. at a phase boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.filter = Default::default();
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Prefetches that were later consumed by a demand access.
    pub fn useful(&self) -> u64 {
        self.useful
    }

    /// Prefetches evicted unused because the table overflowed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_returns_ready_time() {
        let mut t = PrefetchTable::new(4);
        t.issue(0x1000, 500);
        assert_eq!(t.consume(0x1008), Some(500), "same line");
        assert_eq!(t.consume(0x1008), None, "consumed entries are gone");
    }

    #[test]
    fn unrelated_address_misses_table() {
        let mut t = PrefetchTable::new(4);
        t.issue(0x1000, 500);
        assert_eq!(t.consume(0x2000), None);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut t = PrefetchTable::new(2);
        t.issue(0x0, 1);
        t.issue(0x40, 2);
        t.issue(0x80, 3);
        assert_eq!(t.consume(0x0), None, "oldest entry evicted");
        assert_eq!(t.consume(0x40), Some(2));
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn reissue_refreshes_instead_of_duplicating() {
        let mut t = PrefetchTable::new(2);
        t.issue(0x0, 1);
        t.issue(0x0, 9);
        t.issue(0x40, 2);
        // 0x0 was refreshed, so it must still be present with the new time.
        assert_eq!(t.consume(0x0), Some(9));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut t = PrefetchTable::new(0);
        t.issue(0x0, 1);
        assert_eq!(t.consume(0x0), None);
        assert_eq!(t.issued(), 0);
    }

    #[test]
    fn clear_discards_entries() {
        let mut t = PrefetchTable::new(4);
        t.issue(0x0, 1);
        t.clear();
        assert_eq!(t.consume(0x0), None);
    }

    /// The table without a filter: a plain `Vec` scanned on every op,
    /// oldest entry first.
    struct Model {
        entries: Vec<(u64, Ns)>,
        capacity: usize,
        issued: u64,
        useful: u64,
        dropped: u64,
    }

    impl Model {
        fn issue(&mut self, line: u64, ready_at: Ns) {
            if self.capacity == 0 {
                return;
            }
            self.issued += 1;
            if let Some(pos) = self.entries.iter().position(|e| e.0 == line) {
                self.entries.remove(pos);
            } else if self.entries.len() == self.capacity {
                self.entries.remove(0);
                self.dropped += 1;
            }
            self.entries.push((line, ready_at));
        }

        fn consume(&mut self, line: u64) -> Option<Ns> {
            let pos = self.entries.iter().position(|e| e.0 == line)?;
            self.useful += 1;
            Some(self.entries.remove(pos).1)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Issue(u64, Ns),
        Consume(u64),
        Clear,
    }

    use proptest::prelude::*;

    /// 64 lines, `a + 64 b + 512 c`: lines equal in `a` share a bit of
    /// a 64-bit filter, lines equal in `a` and `b` a bit of the 512-bit one.
    fn arb_line() -> impl Strategy<Value = u64> {
        (0u64..4, 0u64..4, 0u64..4).prop_map(|(a, b, c)| a + 64 * b + 512 * c)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Issue and consume three times as often as clear.
        prop_oneof![
            (arb_line(), 0u64..1_000).prop_map(|(l, t)| Op::Issue(l, t)),
            (arb_line(), 0u64..1_000).prop_map(|(l, t)| Op::Issue(l, t)),
            (arb_line(), 0u64..1_000).prop_map(|(l, t)| Op::Issue(l, t)),
            arb_line().prop_map(Op::Consume),
            arb_line().prop_map(Op::Consume),
            arb_line().prop_map(Op::Consume),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn filter_never_hides_an_entry_the_model_holds(
            ops in prop::collection::vec(arb_op(), 1..300),
            skew in 0u64..CACHE_LINE,
        ) {
            for capacity in [0usize, 1, 2, 48] {
                let mut table = PrefetchTable::new(capacity);
                let mut model = Model {
                    entries: Vec::new(),
                    capacity,
                    issued: 0,
                    useful: 0,
                    dropped: 0,
                };
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        Op::Issue(line, ready_at) => {
                            table.issue(line * CACHE_LINE + skew, ready_at);
                            model.issue(line, ready_at);
                        }
                        Op::Consume(line) => prop_assert_eq!(
                            table.consume(line * CACHE_LINE + skew),
                            model.consume(line),
                            "capacity {}, op {}: {:?}", capacity, i, op
                        ),
                        Op::Clear => {
                            table.clear();
                            model.entries.clear();
                        }
                    }
                    prop_assert_eq!(
                        (table.issued(), table.useful(), table.dropped()),
                        (model.issued, model.useful, model.dropped),
                        "capacity {}, op {}: {:?}", capacity, i, op
                    );
                    let held: Vec<_> = table.entries.iter().map(|e| (e.line, e.ready_at)).collect();
                    prop_assert_eq!(&held, &model.entries, "capacity {}, op {}", capacity, i);
                    for e in &table.entries {
                        prop_assert!(table.filter_has(e.line), "line {} has no filter bit", e.line);
                    }
                }
            }
        }
    }
}
