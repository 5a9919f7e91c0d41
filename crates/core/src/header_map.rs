//! The header map — paper §3.3 and Algorithm 1.
//!
//! A global lock-free closed-hashing table in DRAM that stores forwarding
//! pointers (old address → new address) during a GC cycle, so the two
//! random NVM header writes per copied object are replaced by DRAM
//! traffic. The table uses bounded linear probing so its footprint is
//! fixed; when a `put` cannot find a slot within the probe bound it fails
//! and the caller installs the forwarding pointer into the NVM header as
//! usual.
//!
//! The implementation uses real atomics and follows the paper's Algorithm 1
//! faithfully: keys are claimed with a compare-and-swap, and a thread that
//! loses the race for a key it is also trying to install spins until the
//! winner publishes the value. Under the deterministic discrete-event
//! engine no contention occurs (steps are atomic), but the map is also
//! exercised by genuinely multi-threaded stress tests, so the published
//! synchronization algorithm itself is what runs.

use nvmgc_heap::Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of a [`HeaderMap::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// This thread installed the forwarding pointer.
    Installed,
    /// Another thread had already installed a forwarding pointer for the
    /// same object; its value is returned.
    Existing(Addr),
    /// No free entry within the probe bound — the caller must fall back
    /// to the NVM header.
    Full,
}

/// A structurally invalid install request: a null key or a null value.
/// A zero key would read as an empty slot and a zero value would park
/// every reader in the publish spin, so these are rejected as a typed
/// error in release builds too (the collector surfaces them as an oracle
/// violation) rather than silently corrupting the probe chain.
/// Self-forwards (`old == new`) are *legal* — they are how evacuation
/// failure pins an object in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallError {
    /// The offending key (from-space address).
    pub old: Addr,
    /// The proposed forwarding target.
    pub new: Addr,
}

/// Outcome of one structurally valid [`HeaderMap::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Put {
    /// What Algorithm 1 decided.
    pub outcome: PutOutcome,
    /// Entries probed (the caller charges one access per probe).
    pub probes: u32,
    /// The entry index the key resolved to — durable mode keys install
    /// persistence metadata by entry index. For [`PutOutcome::Full`] it
    /// is the last index probed and carries no meaning.
    pub idx: u64,
}

/// The global forwarding-pointer map.
#[derive(Debug)]
pub struct HeaderMap {
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    mask: u64,
    search_bound: u32,
}

/// Bytes of DRAM per map entry (key + value).
pub const ENTRY_BYTES: u64 = 16;

impl HeaderMap {
    /// Creates a map using approximately `max_bytes` of storage.
    ///
    /// The entry count is rounded down to a power of two (at least 8
    /// entries). `search_bound` is the probe limit of Algorithm 1.
    pub fn new(max_bytes: u64, search_bound: u32) -> Self {
        let entries = (max_bytes / ENTRY_BYTES).max(8);
        let cap = if entries.is_power_of_two() {
            entries
        } else {
            // Round down to a power of two.
            1 << (63 - entries.leading_zeros())
        } as usize;
        HeaderMap {
            keys: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            values: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: (cap - 1) as u64,
            search_bound,
        }
    }

    /// Number of entries in the table.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// The probe bound.
    pub fn search_bound(&self) -> u32 {
        self.search_bound
    }

    #[inline]
    fn hash(&self, key: u64) -> u64 {
        // Fibonacci hashing over the address; addresses are 8-aligned so
        // shift the dead bits out first.
        ((key >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & self.mask
    }

    /// The initial probe index for a key (exposed so callers can charge
    /// probe traffic at the right pseudo-addresses).
    pub fn probe_base(&self, old: Addr) -> u64 {
        self.hash(old.raw())
    }

    /// A pseudo-address for entry `idx`, used to charge DRAM traffic for
    /// probes in the memory model. The map notionally lives in a reserved
    /// high address range, laid out identically for every map.
    pub fn entry_addr(idx: u64) -> u64 {
        0x4000_0000_0000_0000 | (idx * ENTRY_BYTES)
    }

    /// Tries to install `old → new`, following Algorithm 1.
    ///
    /// Returns the outcome, the number of entries probed (the caller
    /// charges one access per probe to the memory model), and the entry
    /// index the key resolved to. A null key or value is rejected as a
    /// typed [`InstallError`] before touching the table.
    pub fn put(&self, old: Addr, new: Addr) -> Result<Put, InstallError> {
        if old.is_null() || new.is_null() {
            return Err(InstallError { old, new });
        }
        let mut idx = self.hash(old.raw());
        let mut probes = 0u32;
        loop {
            probes += 1;
            if probes > self.search_bound {
                return Ok(Put {
                    outcome: PutOutcome::Full,
                    probes,
                    idx,
                });
            }
            idx = (idx + 1) & self.mask;
            let slot = &self.keys[idx as usize];
            let probed = slot.load(Ordering::Acquire);
            if probed != old.raw() {
                if probed != 0 {
                    // Occupied by another object: keep probing.
                    continue;
                }
                // Empty: try to claim it.
                match slot.compare_exchange(0, old.raw(), Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        self.values[idx as usize].store(new.raw(), Ordering::Release);
                        return Ok(Put {
                            outcome: PutOutcome::Installed,
                            probes,
                            idx,
                        });
                    }
                    Err(winner) if winner == old.raw() => {
                        // Lost the race for our own key: wait for the value.
                        let v = self.spin_value(idx as usize);
                        return Ok(Put {
                            outcome: PutOutcome::Existing(Addr(v)),
                            probes,
                            idx,
                        });
                    }
                    Err(_) => {
                        // Someone claimed it for a different object.
                        continue;
                    }
                }
            } else {
                // Key already present: wait for / read the value.
                let v = self.spin_value(idx as usize);
                return Ok(Put {
                    outcome: PutOutcome::Existing(Addr(v)),
                    probes,
                    idx,
                });
            }
        }
    }

    /// Looks up the forwarding pointer for `old`.
    ///
    /// Returns the value (if installed) plus the number of probes. A
    /// `None` result does **not** mean the object is unforwarded — the
    /// caller must still check the NVM header (the map may have been full
    /// when the pointer was installed).
    pub fn get(&self, old: Addr) -> (Option<Addr>, u32) {
        let mut idx = self.hash(old.raw());
        let mut probes = 0u32;
        loop {
            probes += 1;
            if probes > self.search_bound {
                return (None, probes);
            }
            idx = (idx + 1) & self.mask;
            let probed = self.keys[idx as usize].load(Ordering::Acquire);
            if probed == old.raw() {
                let v = self.spin_value(idx as usize);
                return (Some(Addr(v)), probes);
            }
            if probed == 0 {
                // An empty slot terminates the probe chain: the key was
                // never inserted.
                return (None, probes);
            }
        }
    }

    /// Hints the host to load the first entry a [`get`](Self::get) of
    /// `old` probes, key and value. Reads and changes nothing; a null key
    /// is a no-op.
    #[inline]
    pub fn host_prefetch(&self, old: Addr) {
        if old.is_null() {
            return;
        }
        let idx = ((self.hash(old.raw()) + 1) & self.mask) as usize;
        if let (Some(key), Some(value)) = (self.keys.get(idx), self.values.get(idx)) {
            nvmgc_memsim::host_prefetch(key);
            nvmgc_memsim::host_prefetch(value);
        }
    }

    fn spin_value(&self, idx: usize) -> u64 {
        loop {
            let v = self.values[idx].load(Ordering::Acquire);
            if v != 0 {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Clears the entry range `[start, end)` — the parallel cleanup run by
    /// all GC workers when a cycle ends (paper §3.3).
    pub fn clear_range(&self, start: usize, end: usize) {
        for i in start..end.min(self.keys.len()) {
            self.keys[i].store(0, Ordering::Relaxed);
            self.values[i].store(0, Ordering::Relaxed);
        }
    }

    /// Number of occupied entries (linear scan; used for the Fig. 10
    /// occupancy statistic, not on hot paths).
    pub fn occupancy(&self) -> usize {
        self.keys
            .iter()
            .filter(|k| k.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Snapshot of every installed `old → new` forwarding pair with its
    /// entry index — durable-mode recovery matches entries against install
    /// metadata keyed by index to decide which pairs are in the crash
    /// image's durable prefix.
    ///
    /// Entries whose value has not yet been published (a claimed key
    /// mid-install) are skipped rather than spun on — the snapshot is a
    /// diagnostic view for the oracles and recovery, not a synchronization
    /// point. Linear scan; never used on hot paths.
    pub fn snapshot_indexed(&self) -> Vec<(u64, Addr, Addr)> {
        let mut pairs = Vec::new();
        for i in 0..self.keys.len() {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == 0 {
                continue;
            }
            let v = self.values[i].load(Ordering::Acquire);
            if v != 0 {
                pairs.push((i as u64, Addr(k), Addr(v)));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(x: u64) -> Addr {
        Addr(x * 8 + 0x10_0000)
    }

    #[test]
    fn put_then_get_roundtrips() {
        let m = HeaderMap::new(1 << 12, 16);
        let r = m.put(addr(1), addr(2)).expect("valid install");
        assert_eq!(r.outcome, PutOutcome::Installed);
        assert!(r.probes >= 1);
        let (got, _) = m.get(addr(1));
        assert_eq!(got, Some(addr(2)));
    }

    #[test]
    fn null_installs_are_typed_errors_but_self_forwards_are_legal() {
        let m = HeaderMap::new(1 << 12, 16);
        let null = Addr(0);
        assert!(m.put(null, addr(2)).is_err(), "null key rejected");
        assert!(m.put(addr(1), null).is_err(), "null value rejected");
        assert_eq!(m.occupancy(), 0, "rejected installs touch nothing");
        // Evacuation failure pins an object by forwarding it to itself.
        let r = m.put(addr(1), addr(1)).expect("self-forward is legal");
        assert_eq!(r.outcome, PutOutcome::Installed);
        assert_eq!(m.get(addr(1)).0, Some(addr(1)));
    }

    #[test]
    fn host_prefetch_never_panics_and_changes_nothing() {
        let m = HeaderMap::new(1 << 12, 16);
        m.put(addr(1), addr(2)).unwrap();
        let before = m.snapshot_indexed();
        let region_size = 1u64 << 12;
        for key in [
            Addr::NULL,
            Addr(u64::MAX),            // past any heap
            Addr(region_size * 9 - 8), // a region's last word
            addr(1),
            addr(99),
        ] {
            m.host_prefetch(key);
        }
        assert_eq!(m.snapshot_indexed(), before);
        assert_eq!(m.get(addr(1)).0, Some(addr(2)));
    }

    #[test]
    fn get_of_absent_key_returns_none() {
        let m = HeaderMap::new(1 << 12, 16);
        m.put(addr(1), addr(2)).unwrap();
        let (got, _) = m.get(addr(99));
        assert_eq!(got, None);
    }

    #[test]
    fn duplicate_put_returns_existing_value() {
        let m = HeaderMap::new(1 << 12, 16);
        let first = m.put(addr(1), addr(2)).unwrap();
        let second = m.put(addr(1), addr(3)).unwrap();
        assert_eq!(
            second.outcome,
            PutOutcome::Existing(addr(2)),
            "first install wins"
        );
        assert_eq!(second.idx, first.idx, "both resolve to the same entry");
    }

    #[test]
    fn full_map_reports_full() {
        // Tiny map (8 entries) with a small bound fills quickly.
        let m = HeaderMap::new(0, 4);
        assert_eq!(m.capacity(), 8);
        let mut fulls = 0;
        for i in 1..=64 {
            if m.put(addr(i), addr(i + 1000)).unwrap().outcome == PutOutcome::Full {
                fulls += 1;
            }
        }
        assert!(fulls > 0, "bounded probing must eventually fail");
        assert!(m.occupancy() <= 8);
    }

    #[test]
    fn probes_bounded_by_search_bound() {
        let m = HeaderMap::new(0, 4);
        for i in 1..=64 {
            let p = m.put(addr(i), addr(i + 1000)).unwrap().probes;
            assert!(p <= 5, "probes {p} exceed bound+1");
            let (_, p) = m.get(addr(i));
            assert!(p <= 5);
        }
    }

    #[test]
    fn clear_range_empties_entries() {
        let m = HeaderMap::new(1 << 12, 16);
        for i in 1..=32 {
            m.put(addr(i), addr(i + 1000)).unwrap();
        }
        assert_eq!(m.occupancy(), 32);
        let cap = m.capacity();
        m.clear_range(0, cap / 2);
        m.clear_range(cap / 2, cap);
        assert_eq!(m.occupancy(), 0);
        let (got, _) = m.get(addr(1));
        assert_eq!(got, None);
    }

    #[test]
    fn snapshot_returns_installed_pairs() {
        let m = HeaderMap::new(1 << 12, 16);
        let r1 = m.put(addr(1), addr(101)).unwrap();
        let r2 = m.put(addr(2), addr(102)).unwrap();
        let indexed = m.snapshot_indexed();
        let mut snap: Vec<_> = indexed.iter().map(|&(_, k, v)| (k, v)).collect();
        snap.sort();
        assert_eq!(snap, vec![(addr(1), addr(101)), (addr(2), addr(102))]);
        for &(idx, k, v) in &indexed {
            let want = if k == addr(1) { r1.idx } else { r2.idx };
            assert_eq!(idx, want, "index matches what put resolved");
            assert_eq!(v.raw(), k.raw() + 100 * 8);
        }
    }

    #[test]
    fn capacity_rounds_down_to_power_of_two() {
        let m = HeaderMap::new(100 * ENTRY_BYTES, 16);
        assert_eq!(m.capacity(), 64);
    }

    #[test]
    fn concurrent_puts_agree_on_one_winner() {
        use std::sync::Arc;
        let m = Arc::new(HeaderMap::new(1 << 16, 16));
        let threads = 8;
        let keys: Vec<Addr> = (1..200).map(addr).collect();
        let results: Vec<Vec<Option<Addr>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let m = Arc::clone(&m);
                    let keys = keys.clone();
                    s.spawn(move || {
                        keys.iter()
                            .map(|&k| {
                                // Each thread proposes its own value.
                                let mine = Addr(k.raw() + 1_000_000 + t as u64 * 8);
                                match m.put(k, mine).expect("valid install").outcome {
                                    PutOutcome::Installed => Some(mine),
                                    PutOutcome::Existing(v) => Some(v),
                                    PutOutcome::Full => None,
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // For every key, all threads that got a value must agree.
        for (ki, &k) in keys.iter().enumerate() {
            let seen: Vec<Addr> = results.iter().filter_map(|r| r[ki]).collect();
            assert!(!seen.is_empty());
            assert!(
                seen.windows(2).all(|w| w[0] == w[1]),
                "divergent forwarding for key {k:?}: {seen:?}"
            );
            let (got, _) = m.get(k);
            assert_eq!(got, Some(seen[0]));
        }
    }
}
