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

/// A per-thread table of outstanding software prefetches.
#[derive(Debug, Clone)]
pub struct PrefetchTable {
    entries: VecDeque<Entry>,
    /// Presence filter over `line % 64`: a demand access whose bit is
    /// clear cannot be covered, so the (hot) miss path skips the linear
    /// table scan. False positives just fall through to the scan.
    filter: u64,
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
            filter: 0,
            capacity,
            issued: 0,
            useful: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn filter_bit(line: u64) -> u64 {
        1u64 << (line & 63)
    }

    /// Recomputes the presence filter after an entry left the table (the
    /// departed line may share its bit with a survivor).
    fn rebuild_filter(&mut self) {
        self.filter = self
            .entries
            .iter()
            .fold(0, |m, e| m | Self::filter_bit(e.line));
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
        if self.filter & Self::filter_bit(line) != 0 {
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
        self.filter |= Self::filter_bit(line);
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
        if self.filter & Self::filter_bit(line) == 0 {
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
        self.filter = 0;
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
}
