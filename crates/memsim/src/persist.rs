//! The persistence-order model: which stores are durable at time *t*.
//!
//! NVM stores are not durable the moment they complete. A store first
//! dirties a line in the volatile cache hierarchy; an eviction or an
//! explicit write-back hands the line to the device's internal
//! write-combining buffer, which aggregates lines into 256 B *XPLines*
//! (the internal write granularity the Optane characterization letters
//! document); only when the device drains an XPLine to media does its
//! data become durable. Non-temporal stores skip the volatile stage and
//! land in the write-combining buffer directly — which is why the
//! paper's NT write-back plus one fence is the fast path to durability.
//!
//! The [`DurabilityLedger`] tracks every written line through those
//! three states for one device. It is pure bookkeeping: recording never
//! changes the timing model, so enabling it cannot perturb simulated
//! results — it only answers the question "if power failed *now*, which
//! lines would the medium still hold?" via [`DurabilityLedger::crash_image`].
//!
//! Model decisions (see DESIGN.md, "Persistence-order model"):
//!
//! - **Capacity-driven drain with a reorder window.** The buffer drains
//!   when it exceeds its XPLine capacity; the drained XPLine is chosen
//!   deterministically (seeded splitmix64) among the oldest
//!   `reorder_window` buffered XPLines, so acceptance order and
//!   durability order can legally diverge — the reordering a crash-time
//!   oracle must tolerate.
//! - **Ever-drained durability.** Once a line has drained, the medium
//!   holds *a* version of it forever (possibly stale after re-stores).
//!   A crash image therefore loses only lines that have *never* been
//!   drained; this is what makes the durable set monotone.
//! - **Torn XPLines.** At a crash, the XPLine at the front of the
//!   buffer may be mid-drain: a deterministic choice keeps a strict
//!   prefix of its never-drained lines and discards the rest, modeling
//!   a torn 256 B internal write.
//!
//! # Data layout
//!
//! Line addresses are dense 64 B-aligned keys (the heap packs regions
//! from the bottom of the address space), so per-line `BTreeMap`/
//! `BTreeSet` tracking pays a tree walk and a node allocation for every
//! store the simulator charges. The ledger instead keys everything by
//! *page* — a 32 KiB span of address space — and keeps flat per-page
//! bitmaps: one presence bit per line ([`LineSet`]), per-line first-drain
//! records under a presence bitmap ([`DurableMap`]), and per-XPLine
//! dirty/NT masks ([`XpBuf`]). Pages live in a dense `Vec` indexed by
//! page number (with a `BTreeMap` spill for pathological far addresses),
//! so the store fast path is two array indexings and a bit op. Crash
//! images borrow the ledger instead of cloning the durable map, which
//! makes an oracle check O(buffered lines), not O(all lines ever
//! drained).

use crate::fault::{splitmix64, FaultWindow};
use crate::{Ns, CACHE_LINE};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Bytes per device-internal XPLine (the 256 B write granularity).
pub const XPLINE_BYTES: u64 = 256;

/// Address-space bytes covered by one ledger page (32 KiB).
const PAGE_SHIFT: u32 = 15;
/// Cache lines per page.
const PAGE_LINES: usize = 1 << (PAGE_SHIFT - 6);
/// 64-bit bitmap words per page.
const PAGE_WORDS: usize = PAGE_LINES / 64;
/// XPLines per page.
const PAGE_XPS: usize = 1 << (PAGE_SHIFT - 8);
/// Page indices below this bound live in the dense table (32 GiB of
/// address space); anything beyond spills into an ordered map so a
/// stray far address cannot balloon the dense vector.
const DENSE_MAX_PAGES: u64 = 1 << 20;

/// Configuration of the persistence-order model.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistConfig {
    /// Whether durability tracking is active at all. Off by default:
    /// the ledger exists for crash-fault runs, not for timing sweeps.
    pub enabled: bool,
    /// Capacity of the device write-combining buffer, in XPLines.
    pub wc_xplines: usize,
    /// How many of the oldest buffered XPLines are eligible for the next
    /// drain (1 = strict FIFO; larger windows permit reordering).
    pub reorder_window: usize,
    /// Modeled dirty-line capacity of the volatile store path (cache
    /// hierarchy) feeding this device, in cache lines.
    pub volatile_lines: usize,
    /// Seed for the deterministic drain-choice / torn-line streams.
    pub seed: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            enabled: false,
            wc_xplines: 64,
            reorder_window: 4,
            volatile_lines: 512,
            seed: 0,
        }
    }
}

/// How a line reached durability, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRec {
    /// Watermark time at which the line first drained to media.
    pub first_at: Ns,
    /// Whether the first drain came from a non-temporal store.
    pub via_nt: bool,
}

/// One buffered XPLine: which of its lines are dirty, and which of
/// those arrived via NT stores.
#[derive(Debug, Clone, Copy, Default)]
struct XpEntry {
    mask: u8,
    nt_mask: u8,
}

/// Counters describing ledger activity (reported with fault results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Lines recorded through the volatile store path.
    pub stores: u64,
    /// Lines recorded as non-temporal stores.
    pub nt_stores: u64,
    /// Lines moved volatile → accepted by capacity eviction.
    pub evictions: u64,
    /// XPLines drained to media.
    pub drained_xplines: u64,
    /// Lines made durable.
    pub drained_lines: u64,
    /// Capacity drains skipped because an injected write-combining
    /// drain stall was open (the buffer grows past its capacity).
    pub wc_drain_stalls: u64,
}

/// A sparse table of fixed-size pages keyed by page index. Pages below
/// [`DENSE_MAX_PAGES`] are a direct `Vec` index; far pages spill into an
/// ordered map. Iteration is always ascending by page index (the far
/// keys are all larger than any dense index).
///
/// Pages sit behind `Arc` so cloning a table (snapshot/fork of a warm
/// simulation image) shares every page; a forked table copies a page
/// only when it is first written (`Arc::make_mut`).
#[derive(Debug, Default, Clone)]
struct PageTable<P> {
    dense: Vec<Option<Arc<P>>>,
    far: BTreeMap<u64, Arc<P>>,
}

impl<P: Default + Clone> PageTable<P> {
    fn get(&self, pi: u64) -> Option<&P> {
        if pi < DENSE_MAX_PAGES {
            self.dense.get(pi as usize).and_then(|s| s.as_deref())
        } else {
            self.far.get(&pi).map(|b| &**b)
        }
    }

    fn get_mut(&mut self, pi: u64) -> Option<&mut P> {
        if pi < DENSE_MAX_PAGES {
            self.dense
                .get_mut(pi as usize)
                .and_then(|s| s.as_mut().map(Arc::make_mut))
        } else {
            self.far.get_mut(&pi).map(Arc::make_mut)
        }
    }

    fn get_or_insert(&mut self, pi: u64) -> &mut P {
        if pi < DENSE_MAX_PAGES {
            let i = pi as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            Arc::make_mut(self.dense[i].get_or_insert_with(Arc::default))
        } else {
            Arc::make_mut(self.far.entry(pi).or_default())
        }
    }

    /// Present pages in ascending page-index order.
    fn pages(&self) -> impl Iterator<Item = (u64, &P)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|p| (i as u64, p)))
            .chain(self.far.iter().map(|(&pi, p)| (pi, &**p)))
    }

    /// Present pages with index in `[lo, hi]`, ascending.
    fn for_each_in(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, &P)) {
        if lo > hi {
            return;
        }
        let dlo = lo.min(self.dense.len() as u64) as usize;
        let dhi = hi.saturating_add(1).min(self.dense.len() as u64) as usize;
        for (i, slot) in self.dense[dlo..dhi].iter().enumerate() {
            if let Some(p) = slot {
                f((dlo + i) as u64, p);
            }
        }
        for (&pi, p) in self.far.range(lo..=hi) {
            f(pi, p);
        }
    }

    /// Mutable variant of [`for_each_in`](Self::for_each_in).
    fn for_each_in_mut(&mut self, lo: u64, hi: u64, mut f: impl FnMut(u64, &mut P)) {
        if lo > hi {
            return;
        }
        let dlo = lo.min(self.dense.len() as u64) as usize;
        let dhi = hi.saturating_add(1).min(self.dense.len() as u64) as usize;
        for (i, slot) in self.dense[dlo..dhi].iter_mut().enumerate() {
            if let Some(p) = slot {
                f((dlo + i) as u64, Arc::make_mut(p));
            }
        }
        for (&pi, p) in self.far.range_mut(lo..=hi) {
            f(pi, Arc::make_mut(p));
        }
    }
}

/// A bitmap word covering bits `lo..=hi` (both `< 64`).
#[inline]
fn word_mask(lo: u32, hi: u32) -> u64 {
    ((!0u64) >> (63 - (hi - lo))) << lo
}

/// Calls `f(word, mask)` for every word of page `pi` overlapping the
/// inclusive global line-index range `[lo_idx, hi_idx]`.
#[inline]
fn for_each_word(lo_idx: u64, hi_idx: u64, pi: u64, mut f: impl FnMut(usize, u64)) {
    let base = pi << (PAGE_SHIFT - 6);
    let a = lo_idx.max(base) - base;
    let b = hi_idx.min(base + PAGE_LINES as u64 - 1) - base;
    let (aw, bw) = ((a >> 6) as usize, (b >> 6) as usize);
    for w in aw..=bw {
        let lo_b = if w == aw { (a & 63) as u32 } else { 0 };
        let hi_b = if w == bw { (b & 63) as u32 } else { 63 };
        f(w, word_mask(lo_b, hi_b));
    }
}

/// One page of line-presence bits.
#[derive(Debug, Clone)]
struct LinePage {
    bits: [u64; PAGE_WORDS],
}

impl Default for LinePage {
    fn default() -> Self {
        LinePage {
            bits: [0; PAGE_WORDS],
        }
    }
}

/// A set of 64 B-aligned line addresses backed by paged bitmaps.
#[derive(Debug, Default, Clone)]
struct LineSet {
    pages: PageTable<LinePage>,
    len: u64,
}

impl LineSet {
    #[inline]
    fn split(line: u64) -> (u64, usize, u64) {
        let idx = line >> 6;
        let b = (idx as usize) & (PAGE_LINES - 1);
        (idx >> (PAGE_SHIFT - 6), b >> 6, 1u64 << (b & 63))
    }

    fn insert(&mut self, line: u64) -> bool {
        let (pi, w, m) = Self::split(line);
        let p = self.pages.get_or_insert(pi);
        if p.bits[w] & m == 0 {
            p.bits[w] |= m;
            self.len += 1;
            true
        } else {
            false
        }
    }

    fn remove(&mut self, line: u64) -> bool {
        let (pi, w, m) = Self::split(line);
        if let Some(p) = self.pages.get_mut(pi) {
            if p.bits[w] & m != 0 {
                p.bits[w] &= !m;
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn contains(&self, line: u64) -> bool {
        let (pi, w, m) = Self::split(line);
        self.pages.get(pi).is_some_and(|p| p.bits[w] & m != 0)
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// Removes every member line `l` with `start <= l < end`.
    fn clear_range(&mut self, start: u64, end: u64) {
        let Some((lo_idx, hi_idx)) = line_idx_bounds(start, end) else {
            return;
        };
        let mut removed = 0u64;
        self.pages.for_each_in_mut(
            lo_idx >> (PAGE_SHIFT - 6),
            hi_idx >> (PAGE_SHIFT - 6),
            |pi, p| {
                for_each_word(lo_idx, hi_idx, pi, |w, m| {
                    removed += u64::from((p.bits[w] & m).count_ones());
                    p.bits[w] &= !m;
                });
            },
        );
        self.len -= removed;
    }

    /// Calls `f` for every member line, ascending by address.
    fn for_each(&self, mut f: impl FnMut(u64)) {
        for (pi, p) in self.pages.pages() {
            for (w, &word) in p.bits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    f(((pi << (PAGE_SHIFT - 6)) | ((w as u64) << 6) | b) << 6);
                }
            }
        }
    }
}

/// Inclusive line-index bounds of the byte range `[start, end)`, or
/// `None` when the range covers no whole line address.
#[inline]
fn line_idx_bounds(start: u64, end: u64) -> Option<(u64, u64)> {
    if end <= start {
        return None;
    }
    let lo = start.saturating_add(CACHE_LINE - 1) >> 6;
    let hi = (end - 1) >> 6;
    (lo <= hi).then_some((lo, hi))
}

/// One page of first-drain records: presence and NT bitmaps plus the
/// per-line first-drain watermark (lines of one XPLine can drain in
/// different capacity drains, so the record is genuinely per line).
#[derive(Debug, Clone)]
struct DurPage {
    present: [u64; PAGE_WORDS],
    nt: [u64; PAGE_WORDS],
    first_at: [Ns; PAGE_LINES],
}

impl Default for DurPage {
    fn default() -> Self {
        DurPage {
            present: [0; PAGE_WORDS],
            nt: [0; PAGE_WORDS],
            first_at: [0; PAGE_LINES],
        }
    }
}

/// Ever-drained lines with their first-drain records, paged.
#[derive(Debug, Default, Clone)]
struct DurableMap {
    pages: PageTable<DurPage>,
    len: u64,
}

impl DurableMap {
    /// First-drain insert: a line that already drained keeps its
    /// original record (ever-drained durability).
    fn insert_if_absent(&mut self, line: u64, first_at: Ns, via_nt: bool) {
        let (pi, w, m) = LineSet::split(line);
        let p = self.pages.get_or_insert(pi);
        if p.present[w] & m == 0 {
            p.present[w] |= m;
            if via_nt {
                p.nt[w] |= m;
            }
            p.first_at[((line >> 6) as usize) & (PAGE_LINES - 1)] = first_at;
            self.len += 1;
        }
    }

    fn contains(&self, line: u64) -> bool {
        let (pi, w, m) = LineSet::split(line);
        self.pages.get(pi).is_some_and(|p| p.present[w] & m != 0)
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// Presence bits of the four lines of XPLine `xp`, as a nibble in
    /// XPLine bit order (XPLines are 4-line aligned, so the nibble never
    /// crosses a bitmap word).
    fn nibble(&self, xp: u64) -> u8 {
        let idx = xp >> 6;
        let pi = idx >> (PAGE_SHIFT - 6);
        let b = (idx as usize) & (PAGE_LINES - 1);
        match self.pages.get(pi) {
            Some(p) => ((p.present[b >> 6] >> (b & 63)) & 0xF) as u8,
            None => 0,
        }
    }

    /// Removes every record for lines in `[start, end)`.
    fn clear_range(&mut self, start: u64, end: u64) {
        let Some((lo_idx, hi_idx)) = line_idx_bounds(start, end) else {
            return;
        };
        let mut removed = 0u64;
        self.pages.for_each_in_mut(
            lo_idx >> (PAGE_SHIFT - 6),
            hi_idx >> (PAGE_SHIFT - 6),
            |pi, p| {
                for_each_word(lo_idx, hi_idx, pi, |w, m| {
                    removed += u64::from((p.present[w] & m).count_ones());
                    p.present[w] &= !m;
                    p.nt[w] &= !m;
                });
            },
        );
        self.len -= removed;
    }

    /// Appends records for lines in `[start, end)` to `out`, ascending.
    fn collect_range(&self, start: u64, end: u64, out: &mut Vec<(u64, LineRec)>) {
        let Some((lo_idx, hi_idx)) = line_idx_bounds(start, end) else {
            return;
        };
        self.pages.for_each_in(
            lo_idx >> (PAGE_SHIFT - 6),
            hi_idx >> (PAGE_SHIFT - 6),
            |pi, p| {
                for_each_word(lo_idx, hi_idx, pi, |w, m| {
                    let mut bits = p.present[w] & m;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as u64;
                        bits &= bits - 1;
                        let local = (w as u64) << 6 | b;
                        let line = ((pi << (PAGE_SHIFT - 6)) | local) << 6;
                        out.push((
                            line,
                            LineRec {
                                first_at: p.first_at[local as usize],
                                via_nt: p.nt[w] & (1u64 << b) != 0,
                            },
                        ));
                    }
                });
            },
        );
    }

    /// Calls `f` for every recorded line (ascending) with its record.
    fn for_each(&self, mut f: impl FnMut(u64, LineRec)) {
        for (pi, p) in self.pages.pages() {
            for (w, &word) in p.present.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    let local = (w as u64) << 6 | b;
                    f(
                        ((pi << (PAGE_SHIFT - 6)) | local) << 6,
                        LineRec {
                            first_at: p.first_at[local as usize],
                            via_nt: p.nt[w] & (1u64 << b) != 0,
                        },
                    );
                }
            }
        }
    }
}

/// One page of write-combining buffer masks (one dirty/NT mask byte per
/// XPLine, plus a live count so drained pages scan for free).
#[derive(Debug, Clone)]
struct XpPage {
    mask: [u8; PAGE_XPS],
    nt: [u8; PAGE_XPS],
    live: u32,
}

impl Default for XpPage {
    fn default() -> Self {
        XpPage {
            mask: [0; PAGE_XPS],
            nt: [0; PAGE_XPS],
            live: 0,
        }
    }
}

/// The write-combining buffer: per-XPLine dirty masks, paged.
#[derive(Debug, Default, Clone)]
struct XpBuf {
    pages: PageTable<XpPage>,
    /// XPLines with a nonzero dirty mask.
    live: usize,
    /// Total dirty-line bits across all buffered XPLines.
    lines: u64,
}

impl XpBuf {
    #[inline]
    fn split(xp: u64) -> (u64, usize) {
        let idx = xp >> 8;
        (idx >> (PAGE_SHIFT - 8), (idx as usize) & (PAGE_XPS - 1))
    }

    /// Sets `bit` (and its NT shadow) on `xp`; returns whether the
    /// XPLine was newly buffered.
    fn set(&mut self, xp: u64, bit: u8, via_nt: bool) -> bool {
        let (pi, xi) = Self::split(xp);
        let p = self.pages.get_or_insert(pi);
        let was = p.mask[xi];
        if was & bit == 0 {
            self.lines += 1;
        }
        p.mask[xi] = was | bit;
        if via_nt {
            p.nt[xi] |= bit;
        }
        if was == 0 {
            p.live += 1;
            self.live += 1;
            true
        } else {
            false
        }
    }

    fn contains(&self, xp: u64) -> bool {
        let (pi, xi) = Self::split(xp);
        self.pages.get(pi).is_some_and(|p| p.mask[xi] != 0)
    }

    fn get(&self, xp: u64) -> Option<XpEntry> {
        let (pi, xi) = Self::split(xp);
        self.pages.get(pi).and_then(|p| {
            (p.mask[xi] != 0).then_some(XpEntry {
                mask: p.mask[xi],
                nt_mask: p.nt[xi],
            })
        })
    }

    fn remove(&mut self, xp: u64) -> Option<XpEntry> {
        let (pi, xi) = Self::split(xp);
        let p = self.pages.get_mut(pi)?;
        if p.mask[xi] == 0 {
            return None;
        }
        let entry = XpEntry {
            mask: p.mask[xi],
            nt_mask: p.nt[xi],
        };
        p.mask[xi] = 0;
        p.nt[xi] = 0;
        p.live -= 1;
        self.live -= 1;
        self.lines -= u64::from(entry.mask.count_ones());
        Some(entry)
    }

    /// Number of buffered (live) XPLines.
    fn len(&self) -> usize {
        self.live
    }

    /// Buffered XPLines in ascending address order.
    fn for_each_live(&self, mut f: impl FnMut(u64, XpEntry)) {
        for (pi, p) in self.pages.pages() {
            if p.live == 0 {
                continue;
            }
            for xi in 0..PAGE_XPS {
                if p.mask[xi] != 0 {
                    f(
                        ((pi << (PAGE_SHIFT - 8)) | xi as u64) << 8,
                        XpEntry {
                            mask: p.mask[xi],
                            nt_mask: p.nt[xi],
                        },
                    );
                }
            }
        }
    }

    /// Clears dirty bits for lines in `[start, end)`; emptied XPLines
    /// leave the buffer (their acceptance-queue entries go stale and are
    /// lazily pruned, exactly as a drain's would be).
    fn clear_lines_in(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let lo_pi = (start & !(XPLINE_BYTES - 1)) >> PAGE_SHIFT;
        let hi_pi = (end - 1) >> PAGE_SHIFT;
        let mut freed_xps = 0usize;
        let mut freed_lines = 0u64;
        self.pages.for_each_in_mut(lo_pi, hi_pi, |pi, p| {
            if p.live == 0 {
                return;
            }
            for xi in 0..PAGE_XPS {
                if p.mask[xi] == 0 {
                    continue;
                }
                let xp = ((pi << (PAGE_SHIFT - 8)) | xi as u64) << 8;
                let mut clear = 0u8;
                for i in 0..(XPLINE_BYTES / CACHE_LINE) as u8 {
                    let line = xp + u64::from(i) * CACHE_LINE;
                    if line >= start && line < end {
                        clear |= 1 << i;
                    }
                }
                let cleared = p.mask[xi] & clear;
                if cleared == 0 {
                    continue;
                }
                freed_lines += u64::from(cleared.count_ones());
                p.mask[xi] &= !clear;
                p.nt[xi] &= !clear;
                if p.mask[xi] == 0 {
                    p.live -= 1;
                    freed_xps += 1;
                }
            }
        });
        self.live -= freed_xps;
        self.lines -= freed_lines;
    }
}

/// What the medium would hold if power failed at the snapshot instant.
///
/// All non-durable lines are discarded; the XPLine at the front of the
/// write-combining buffer may be torn (a strict prefix of its fresh
/// lines survives). Snapshots are non-destructive *and allocation-light*:
/// the image borrows the ledger's durable map instead of cloning it, so
/// an oracle check costs O(buffered lines), not O(lines ever drained).
#[derive(Clone)]
pub struct CrashImage<'a> {
    durable: &'a DurableMap,
    meta: &'a BTreeMap<u64, Ns>,
    /// Torn-prefix survivors of the front XPLine (ascending, never
    /// overlapping the durable map).
    kept: Vec<(u64, LineRec)>,
    /// Lines written but absent from the image (lost to the failure).
    pub discarded_lines: u64,
    /// Lines lost specifically from the torn front XPLine.
    pub torn_lines: u64,
}

impl CrashImage<'_> {
    /// Whether the line containing `addr` is durable in the image.
    pub fn line_durable(&self, addr: u64) -> bool {
        let line = addr & !(CACHE_LINE - 1);
        self.durable.contains(line) || self.kept.iter().any(|&(l, _)| l == line)
    }

    /// Number of durable lines in the image.
    pub fn durable_lines(&self) -> u64 {
        self.durable.len() + self.kept.len() as u64
    }

    /// Durable lines inside `[start, start + len)`, ascending, with
    /// their records.
    pub fn durable_lines_in(&self, start: u64, len: u64) -> Vec<(u64, LineRec)> {
        let end = start.saturating_add(len);
        let mut out = Vec::new();
        self.durable.collect_range(start, end, &mut out);
        for &(line, rec) in &self.kept {
            if line >= start && line < end {
                let pos = out.partition_point(|&(l, _)| l < line);
                out.insert(pos, (line, rec));
            }
        }
        out
    }

    /// Watermark at which metadata record `key` was persisted, if it was.
    pub fn meta_at(&self, key: u64) -> Option<Ns> {
        self.meta.get(&key).copied()
    }
}

impl fmt::Debug for CrashImage<'_> {
    /// Prints the full semantic content (every durable line with its
    /// record, metadata, loss counters) so two images compare equal via
    /// `Debug` exactly when they describe the same medium state.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashImage")
            .field("lines", &self.durable_lines_in(0, u64::MAX))
            .field("meta", self.meta)
            .field("discarded_lines", &self.discarded_lines)
            .field("torn_lines", &self.torn_lines)
            .finish()
    }
}

/// Per-device durability ledger (see the module docs).
///
/// Cloning is cheap relative to its footprint: the paged maps share
/// their pages via `Arc` until a fork writes to them.
#[derive(Debug, Clone)]
pub struct DurabilityLedger {
    cfg: PersistConfig,
    /// Latest simulated time any recorded operation carried. Worker
    /// clocks are not globally monotone, so this is a max-watermark.
    watermark: Ns,
    /// Volatile dirty lines, FIFO for eviction. The queue may hold
    /// stale entries (membership is authoritative; see `volatile`).
    volatile_queue: VecDeque<u64>,
    volatile: LineSet,
    /// Write-combining buffer: per-XPLine dirty-line masks.
    accepted: XpBuf,
    /// Acceptance order of XPLines (lazily pruned of drained entries).
    accept_queue: VecDeque<u64>,
    /// Ever-drained lines (line base address → first-drain record).
    durable: DurableMap,
    /// Every line ever accepted by the device buffer.
    ever_accepted: LineSet,
    /// Persisted metadata records (key → persist watermark).
    meta: BTreeMap<u64, Ns>,
    /// Injected write-combining drain-stall windows.
    stall_windows: Vec<FaultWindow>,
    drain_rng: u64,
    stats: PersistStats,
    /// Scratch for drain candidate collection (reused across drains).
    drain_scratch: Vec<(usize, u64)>,
}

impl DurabilityLedger {
    /// Creates a ledger for one device.
    pub fn new(cfg: PersistConfig) -> Self {
        let drain_rng = cfg.seed ^ 0xD01A_B1E5;
        DurabilityLedger {
            cfg,
            watermark: 0,
            volatile_queue: VecDeque::new(),
            volatile: LineSet::default(),
            accepted: XpBuf::default(),
            accept_queue: VecDeque::new(),
            durable: DurableMap::default(),
            ever_accepted: LineSet::default(),
            meta: BTreeMap::new(),
            stall_windows: Vec::new(),
            drain_rng,
            stats: PersistStats::default(),
            drain_scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PersistConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Installs injected write-combining drain-stall windows (replaces
    /// any previous set).
    pub fn set_stall_windows(&mut self, windows: Vec<FaultWindow>) {
        self.stall_windows = windows;
    }

    /// Whether any drain-stall window is installed.
    pub fn has_stall_windows(&self) -> bool {
        !self.stall_windows.is_empty()
    }

    /// The earliest drain-stall window edge strictly after `after`, if
    /// any. Bulk store paths segment their recording at these edges so
    /// the lines written inside a stall window are attributed to it —
    /// a single whole-burst record carries only the burst's start time
    /// and would bypass a window opening mid-burst.
    pub fn next_stall_boundary(&self, after: Ns) -> Option<Ns> {
        self.stall_windows
            .iter()
            .flat_map(|w| [w.start, w.end])
            .filter(|&edge| edge > after)
            .min()
    }

    /// Advances the ledger watermark (max over all recorded clocks).
    pub fn advance(&mut self, now: Ns) {
        self.watermark = self.watermark.max(now);
    }

    fn line_of(addr: u64) -> u64 {
        addr & !(CACHE_LINE - 1)
    }

    fn xp_of(line: u64) -> u64 {
        line & !(XPLINE_BYTES - 1)
    }

    fn bit_of(line: u64) -> u8 {
        1u8 << ((line % XPLINE_BYTES) / CACHE_LINE)
    }

    /// Records regular (cacheable) stores over `[addr, addr + len)`.
    pub fn record_store(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        let mut line = Self::line_of(addr);
        let end = addr + len.max(1);
        if end <= line + CACHE_LINE {
            // Single-line store: the word-store path the mutator and GC
            // take for every header/reference update. Capacity can only
            // overflow when the volatile set actually grew.
            self.stats.stores += 1;
            if self.volatile.insert(line) {
                self.volatile_queue.push_back(line);
                self.evict_volatile_overflow();
            }
            return;
        }
        while line < end {
            self.stats.stores += 1;
            if self.volatile.insert(line) {
                self.volatile_queue.push_back(line);
            }
            line += CACHE_LINE;
        }
        self.evict_volatile_overflow();
    }

    /// Records non-temporal stores over `[addr, addr + len)`: lines go
    /// straight to the device buffer, superseding any volatile copy.
    pub fn record_nt_store(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        let mut line = Self::line_of(addr);
        let end = addr + len.max(1);
        while line < end {
            self.stats.nt_stores += 1;
            self.volatile.remove(line);
            self.accept(line, true);
            line += CACHE_LINE;
        }
    }

    /// Records an explicit write-back (CLWB-like) of `[addr, addr +
    /// len)`: volatile lines in the range are handed to the device
    /// buffer. Lines with no volatile copy are unaffected.
    pub fn write_back(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        let mut line = Self::line_of(addr);
        let end = addr + len.max(1);
        while line < end {
            if self.volatile.remove(line) {
                self.accept(line, false);
            }
            line += CACHE_LINE;
        }
    }

    /// Persists a small metadata record under `key` (synchronous: the
    /// record is durable at the current watermark). Overwrites any
    /// previous record for the key.
    pub fn persist_meta(&mut self, key: u64, now: Ns) {
        self.advance(now);
        self.meta.insert(key, self.watermark);
    }

    /// Batch variant of [`DurabilityLedger::persist_meta`]: records every
    /// key at the same watermark, modeling several metadata slots made
    /// durable under one fence (the allocator journal's safepoint drain).
    pub fn persist_meta_many(&mut self, keys: impl IntoIterator<Item = u64>, now: Ns) {
        self.advance(now);
        for key in keys {
            self.meta.insert(key, self.watermark);
        }
    }

    /// Drains every buffered XPLine to media (the cycle-end fence: on
    /// ADR hardware, everything the device buffer accepted before the
    /// fence reaches the medium even across a power failure). Volatile
    /// lines are *not* affected — a fence does not flush caches.
    pub fn drain_all(&mut self, now: Ns) {
        self.advance(now);
        while let Some(xp) = self.accept_queue.pop_front() {
            if let Some(entry) = self.accepted.remove(xp) {
                self.drain_entry(xp, entry);
            }
        }
        debug_assert!(self.accepted.len() == 0);
    }

    /// Forgets all state for `[start, start + len)` — the range was
    /// recycled (region freed), so a later incarnation must not inherit
    /// this life's durability.
    pub fn forget_range(&mut self, start: u64, len: u64) {
        let end = start.saturating_add(len);
        self.volatile.clear_range(start, end);
        self.accepted.clear_lines_in(start, end);
        self.durable.clear_range(start, end);
        self.ever_accepted.clear_range(start, end);
    }

    /// Number of durable (ever-drained) lines. O(1): the paged tables
    /// keep a running count, so oracles can poll this every check
    /// without materializing a set.
    pub fn durable_len(&self) -> u64 {
        self.durable.len()
    }

    /// Whether the line containing `addr` has ever drained to media.
    #[cfg(test)]
    fn durable_contains(&self, addr: u64) -> bool {
        self.durable.contains(Self::line_of(addr))
    }

    /// Calls `f` for every durable line (ascending by address) with its
    /// first-drain record. Iteration walks the paged bitmaps in place —
    /// no per-check `BTreeSet` clone.
    pub fn for_each_durable(&self, f: impl FnMut(u64, LineRec)) {
        self.durable.for_each(f)
    }

    /// Number of lines ever accepted by the device buffer.
    pub fn ever_accepted_len(&self) -> u64 {
        self.ever_accepted.len()
    }

    /// Whether the line containing `addr` was ever accepted by the
    /// device buffer.
    pub fn ever_accepted_contains(&self, addr: u64) -> bool {
        self.ever_accepted.contains(Self::line_of(addr))
    }

    /// Calls `f` for every ever-accepted line, ascending by address.
    pub fn for_each_ever_accepted(&self, f: impl FnMut(u64)) {
        self.ever_accepted.for_each(f)
    }

    /// Lines currently buffered (volatile or accepted), i.e. written
    /// but not yet durable.
    #[cfg(test)]
    fn pending_lines(&self) -> u64 {
        self.volatile.len() + self.accepted.lines
    }

    fn evict_volatile_overflow(&mut self) {
        while self.volatile.len() > self.cfg.volatile_lines as u64 {
            match self.volatile_queue.pop_front() {
                Some(line) => {
                    if self.volatile.remove(line) {
                        self.stats.evictions += 1;
                        self.accept(line, false);
                    }
                }
                None => break,
            }
        }
    }

    fn accept(&mut self, line: u64, via_nt: bool) {
        self.ever_accepted.insert(line);
        let xp = Self::xp_of(line);
        let bit = Self::bit_of(line);
        if self.accepted.set(xp, bit, via_nt) {
            self.accept_queue.push_back(xp);
        }
        while self.accepted.len() > self.cfg.wc_xplines {
            if !self.drain_one() {
                break;
            }
        }
    }

    /// Drains one XPLine chosen among the `reorder_window` oldest live
    /// buffered entries. Returns false when nothing can drain (empty
    /// buffer or an open injected drain stall).
    fn drain_one(&mut self) -> bool {
        if self
            .stall_windows
            .iter()
            .any(|w| w.contains(self.watermark))
        {
            self.stats.wc_drain_stalls += 1;
            return false;
        }
        // Collect up to `reorder_window` live (still-buffered) XPLines
        // in acceptance order, pruning dead queue entries at the front.
        while let Some(&xp) = self.accept_queue.front() {
            if self.accepted.contains(xp) {
                break;
            }
            self.accept_queue.pop_front();
        }
        let window = self.cfg.reorder_window.max(1);
        self.drain_scratch.clear();
        for (i, &xp) in self.accept_queue.iter().enumerate() {
            if self.accepted.contains(xp) {
                self.drain_scratch.push((i, xp));
                if self.drain_scratch.len() == window {
                    break;
                }
            }
        }
        if self.drain_scratch.is_empty() {
            return false;
        }
        let pick = (splitmix64(&mut self.drain_rng) % self.drain_scratch.len() as u64) as usize;
        let (qi, xp) = self.drain_scratch[pick];
        self.accept_queue.remove(qi);
        let entry = self.accepted.remove(xp).expect("candidate is live");
        self.drain_entry(xp, entry);
        true
    }

    fn drain_entry(&mut self, xp: u64, entry: XpEntry) {
        self.stats.drained_xplines += 1;
        for i in 0..(XPLINE_BYTES / CACHE_LINE) as u8 {
            if entry.mask & (1 << i) == 0 {
                continue;
            }
            let line = xp + u64::from(i) * CACHE_LINE;
            let via_nt = entry.nt_mask & (1 << i) != 0;
            self.durable.insert_if_absent(line, self.watermark, via_nt);
            self.stats.drained_lines += 1;
        }
    }

    /// Volatile lines without an ever-drained version (word-parallel
    /// popcount over the paged bitmaps).
    fn volatile_not_durable(&self) -> u64 {
        let mut lost = 0u64;
        for (pi, vp) in self.volatile.pages.pages() {
            let dp = self.durable.pages.get(pi);
            for w in 0..PAGE_WORDS {
                let dur = dp.map_or(0, |p| p.present[w]);
                lost += u64::from((vp.bits[w] & !dur).count_ones());
            }
        }
        lost
    }

    /// Snapshots what the medium would hold if power failed now.
    ///
    /// Non-destructive. Every ever-drained line survives (the medium
    /// holds *some* version of it); the front buffered XPLine may be
    /// torn: a deterministic strict prefix of its never-drained lines
    /// is kept, at least one is lost.
    pub fn crash_image(&self) -> CrashImage<'_> {
        let mut kept: Vec<(u64, LineRec)> = Vec::new();
        let mut discarded = 0u64;
        let mut torn = 0u64;

        // The XPLine at the buffer front may be mid-drain when power
        // fails: a prefix of its fresh (never-drained) lines made it.
        let front = self
            .accept_queue
            .iter()
            .find(|&&xp| self.accepted.contains(xp))
            .copied();
        if let Some(xp) = front {
            let entry = self.accepted.get(xp).expect("front is live");
            let fresh_mask = entry.mask & !self.durable.nibble(xp);
            if fresh_mask != 0 {
                let mut fresh: Vec<(u64, bool)> = Vec::with_capacity(4);
                for i in 0..(XPLINE_BYTES / CACHE_LINE) as u8 {
                    if fresh_mask & (1 << i) != 0 {
                        fresh.push((
                            xp + u64::from(i) * CACHE_LINE,
                            entry.nt_mask & (1 << i) != 0,
                        ));
                    }
                }
                // One-shot stream derived from the crash instant; the
                // drain RNG itself is never consumed, so snapshotting
                // cannot perturb later drains.
                let mut rng = self.cfg.seed
                    ^ self.watermark.rotate_left(17)
                    ^ xp
                    ^ (self.stats.drained_xplines << 32);
                let keep = (splitmix64(&mut rng) % fresh.len() as u64) as usize;
                for &(line, via_nt) in &fresh[..keep] {
                    kept.push((
                        line,
                        LineRec {
                            first_at: self.watermark,
                            via_nt,
                        },
                    ));
                }
                if keep > 0 {
                    torn += 1;
                }
                discarded += (fresh.len() - keep) as u64;
            }
        }

        // Everything else that never drained is gone: remaining
        // accepted lines plus all volatile lines (unless an earlier
        // version already drained — ever-drained durability).
        self.accepted.for_each_live(|xp, entry| {
            if Some(xp) == front {
                return;
            }
            discarded += u64::from((entry.mask & !self.durable.nibble(xp)).count_ones());
        });
        discarded += self.volatile_not_durable();
        // Kept torn-prefix lines survive in the image: a volatile copy
        // of one is not lost (it was counted above, so uncount it).
        for &(line, _) in &kept {
            if self.volatile.contains(line) {
                discarded -= 1;
            }
        }

        CrashImage {
            durable: &self.durable,
            meta: &self.meta,
            kept,
            discarded_lines: discarded,
            torn_lines: torn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DurabilityLedger {
        DurabilityLedger::new(PersistConfig {
            enabled: true,
            wc_xplines: 2,
            reorder_window: 2,
            volatile_lines: 4,
            seed: 7,
        })
    }

    #[test]
    fn stores_stay_volatile_until_evicted() {
        let mut l = small();
        l.record_store(0x1000, 64, 10);
        assert_eq!(l.pending_lines(), 1);
        assert_eq!(l.durable_len(), 0);
        assert_eq!(l.ever_accepted_len(), 0);
        // Fill past the volatile capacity: the oldest line is accepted.
        for i in 1..=4u64 {
            l.record_store(0x1000 + i * 0x1000, 64, 10 + i);
        }
        assert_eq!(l.stats().evictions, 1);
        assert!(l.ever_accepted_contains(0x1000));
    }

    #[test]
    fn nt_stores_bypass_the_volatile_path() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 5);
        assert_eq!(l.ever_accepted_len(), 4);
        assert_eq!(l.stats().evictions, 0);
        // One XPLine buffered, capacity 2: nothing drained yet.
        assert_eq!(l.durable_len(), 0);
        l.record_nt_store(0x3000, 256, 6);
        l.record_nt_store(0x4000, 256, 7);
        // Third XPLine exceeds capacity: one drains.
        assert_eq!(l.stats().drained_xplines, 1);
        assert_eq!(l.durable_len(), 4);
    }

    #[test]
    fn write_back_promotes_only_volatile_lines() {
        let mut l = small();
        l.record_store(0x1000, 128, 1);
        l.write_back(0x1000, 64, 2);
        assert!(l.ever_accepted_contains(0x1000));
        assert!(!l.ever_accepted_contains(0x1040));
        // Write-back of an unwritten range is a no-op.
        l.write_back(0x9000, 4096, 3);
        assert_eq!(l.ever_accepted_len(), 1);
    }

    #[test]
    fn drain_all_makes_every_accepted_line_durable() {
        let mut l = small();
        l.record_nt_store(0x2000, 512, 5);
        l.record_store(0x8000, 64, 6);
        l.drain_all(7);
        assert_eq!(l.durable_len(), 8, "all NT lines durable");
        assert!(!l.durable_contains(0x8000), "volatile line unaffected");
    }

    #[test]
    fn ever_drained_lines_survive_re_stores() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 1);
        l.drain_all(2);
        assert!(l.durable_contains(0x2000));
        // Re-store the line: it re-enters the volatile path but the
        // medium still holds the old version.
        l.record_store(0x2000, 64, 3);
        let img = l.crash_image();
        assert!(img.line_durable(0x2000));
        // The re-stored volatile copy is not counted discarded (a stale
        // durable version exists).
        assert_eq!(img.discarded_lines, 0);
    }

    #[test]
    fn crash_image_discards_volatile_and_unbuffered_lines() {
        let mut l = small();
        l.record_store(0x1000, 64, 1);
        let img = l.crash_image();
        assert_eq!(img.discarded_lines, 1);
        assert!(!img.line_durable(0x1000));
    }

    #[test]
    fn crash_image_is_non_destructive_and_deterministic() {
        let mut l = small();
        l.record_nt_store(0x2000, 1024, 5);
        l.record_store(0x7000, 192, 6);
        let a = format!("{:?}", l.crash_image());
        let b = format!("{:?}", l.crash_image());
        assert_eq!(a, b);
        // And the ledger still drains as if never observed.
        l.drain_all(7);
        assert_eq!(l.durable_len(), 16);
    }

    #[test]
    fn torn_front_xpline_loses_at_least_one_fresh_line() {
        // Buffer several XPLines and snapshot: the front one may keep a
        // strict prefix of its lines, never all of them.
        let mut l = small();
        l.record_nt_store(0x2000, 512, 5);
        let img = l.crash_image();
        let front_durable = (0..4).filter(|i| img.line_durable(0x2000 + i * 64)).count();
        assert!(front_durable < 4, "torn line must lose something");
        assert!(img.discarded_lines >= 1);
    }

    #[test]
    fn forget_range_clears_all_state_for_the_range() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 1);
        l.drain_all(2);
        l.record_store(0x2000, 64, 3);
        l.forget_range(0x2000, 256);
        assert_eq!(l.durable_len(), 0);
        assert_eq!(l.ever_accepted_len(), 0);
        assert_eq!(l.pending_lines(), 0);
        let img = l.crash_image();
        assert_eq!(img.discarded_lines, 0);
        assert!(!img.line_durable(0x2000));
    }

    #[test]
    fn drain_stall_window_defers_capacity_drains() {
        let mut l = small();
        l.set_stall_windows(vec![FaultWindow { start: 0, end: 100 }]);
        l.record_nt_store(0x2000, 1024, 5); // 4 XPLines > capacity 2
        assert!(l.stats().wc_drain_stalls > 0);
        assert_eq!(l.durable_len(), 0, "stall blocked every drain");
        // Past the window, the next accept drains the backlog.
        l.record_nt_store(0x8000, 256, 200);
        assert!(l.stats().drained_xplines > 0);
    }

    #[test]
    fn meta_records_carry_their_persist_watermark() {
        let mut l = small();
        l.persist_meta(42, 1_000);
        l.persist_meta(43, 500); // watermark is a max: stays at 1000
        let img = l.crash_image();
        assert_eq!(img.meta_at(42), Some(1_000));
        assert_eq!(img.meta_at(43), Some(1_000));
        assert_eq!(img.meta_at(44), None);
    }

    #[test]
    fn line_durable_resolves_interior_addresses() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 1);
        l.drain_all(2);
        let img = l.crash_image();
        assert!(img.line_durable(0x2000));
        assert!(img.line_durable(0x2010), "mid-line address maps to line");
        assert!(img.line_durable(0x20c0));
        assert!(!img.line_durable(0x2100));
    }

    #[test]
    fn durable_lines_in_merges_torn_survivors_in_order() {
        let mut l = small();
        l.record_nt_store(0x2000, 1024, 5);
        let img = l.crash_image();
        let all = img.durable_lines_in(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert_eq!(all.len() as u64, img.durable_lines());
    }

    #[test]
    fn far_addresses_spill_without_losing_state() {
        // Addresses past the dense page bound land in the spill map and
        // behave identically.
        let far = (DENSE_MAX_PAGES + 5) << PAGE_SHIFT;
        let mut l = small();
        l.record_nt_store(far, 256, 1);
        l.drain_all(2);
        assert!(l.durable_contains(far));
        let img = l.crash_image();
        assert!(img.line_durable(far));
        l.forget_range(far, 256);
        assert_eq!(l.durable_len(), 0);
        assert_eq!(l.ever_accepted_len(), 0);
    }
}
