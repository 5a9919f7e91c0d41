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
//! The [`DurabilityLedger`] tracks every written NVM line through those
//! three states (DRAM has no ledger: none of its stores survives). It is
//! pure bookkeeping: recording never changes the timing model, so
//! enabling it cannot perturb simulated results — it only answers the
//! question "if power failed *now*, which lines would the medium still
//! hold?" via [`DurabilityLedger::crash_image`].
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
//! "Which state is this line in" is one fact, kept in one place: a
//! `Page` per 32 KiB of address space holds five bit planes of one shape
//! — one bit per 64 B line, 512 bits a plane — and the per-line
//! first-drain time.
//!
//! | plane | the line… |
//! |---|---|
//! | `volatile` | is dirty in the cache hierarchy |
//! | `buffered` | sits in the device's write-combining buffer |
//! | `buffered_nt` | …and an NT store put it there (sticky until its XPLine drains or is forgotten) |
//! | `durable` | has drained to media at least once |
//! | `durable_nt` | …and that first drain came from an NT store |
//!
//! An XPLine is four consecutive lines at a 256 B boundary, so in every
//! plane it is one *aligned nibble* of a word and never straddles a word
//! or a page: "is this XPLine buffered" is one mask test, and draining it
//! is `fresh = buffered & !durable` on that nibble, `durable |= fresh`,
//! and a `first_at` stamp for the `fresh` bits only. Store, evict, accept
//! and drain of a line all touch the one page that owns it;
//! `forget_range` is one walk that clears every plane; a crash image
//! counts its losses as `popcount(volatile & !durable) +
//! popcount(buffered & !durable)` over the plane words.
//!
//! Pages live in *windows* of 2^20 pages (32 GiB of address space): a
//! short `Vec` of the windows that hold any page, ascending, each a `Vec`
//! of boxed pages indexed by page number from the lowest page the window
//! holds. The heap, the durable header map's entries at `0x4000…` and the
//! allocator journal's words at `0x7C00…` — real NVM stores all — are
//! three windows, so every store is a scan of three keys, one array
//! indexing and a bit operation, wherever it lands.
//!
//! A page has one owner. Cloning a ledger (the fork of a warm simulation
//! image) copies every page: 4 416 B per 32 KiB written. The heap's own
//! clone copies only the regions the warmup has bumped, so on the
//! benchmark's `durable_crash` snapshots the pages are 0.34 MiB beside
//! 2.53 MiB of heap regions, 13.5 % of it (1.7 MiB more peak memory when
//! they were first made owned, a restore that stayed at 1.5 ms). The
//! alternative, reference-counted pages copied on first write, puts an
//! atomic compare-exchange on every store, eviction and drain of a run's
//! life to save that one copy: it measured a tenth of a faulted run's host
//! time. Crash images borrow the ledger instead of cloning anything, so
//! an oracle check costs a walk of the plane words, not of every line
//! that ever drained.

use crate::fault::{splitmix64, Windows};
use crate::hashfast::FxHashMap;
use crate::{Ns, CACHE_LINE};
use std::collections::VecDeque;
use std::fmt;

/// Bytes per device-internal XPLine (the 256 B write granularity).
pub const XPLINE_BYTES: u64 = 256;

/// Address-space bytes covered by one ledger page (32 KiB).
const PAGE_SHIFT: u32 = 15;
/// Shift from a global line index to its page index.
const IDX_SHIFT: u32 = PAGE_SHIFT - 6;
/// Cache lines per page.
const PAGE_LINES: usize = 1 << IDX_SHIFT;
/// 64-bit words per bit plane.
const PAGE_WORDS: usize = PAGE_LINES / 64;
/// Shift from a page index to its window: 2^20 pages, 32 GiB of address
/// space.
const WINDOW_SHIFT: u32 = 20;

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

/// One bit per line of a page.
type Plane = [u64; PAGE_WORDS];

/// Everything the ledger knows about 32 KiB of address space (see the
/// module docs, "Data layout").
#[derive(Debug, Clone)]
struct Page {
    volatile: Plane,
    buffered: Plane,
    buffered_nt: Plane,
    durable: Plane,
    durable_nt: Plane,
    /// Watermark of each durable line's first drain (lines of one XPLine
    /// can drain in different capacity drains, so it is per line). Stale
    /// where `durable` is clear.
    first_at: [Ns; PAGE_LINES],
}

impl Default for Page {
    fn default() -> Self {
        Page {
            volatile: [0; PAGE_WORDS],
            buffered: [0; PAGE_WORDS],
            buffered_nt: [0; PAGE_WORDS],
            durable: [0; PAGE_WORDS],
            durable_nt: [0; PAGE_WORDS],
            first_at: [0; PAGE_LINES],
        }
    }
}

impl Page {
    /// The first-drain record of the durable line at `bit` of word `w`.
    fn rec(&self, w: usize, bit: u32) -> LineRec {
        LineRec {
            first_at: self.first_at[w << 6 | bit as usize],
            via_nt: self.durable_nt[w] >> bit & 1 != 0,
        }
    }
}

/// Page index, plane word and bit of the line containing `addr`. For an
/// XPLine base the bit is a multiple of four: the low bit of its nibble.
#[inline]
fn locate(addr: u64) -> (u64, usize, u32) {
    let idx = addr >> 6;
    (
        idx >> IDX_SHIFT,
        (idx >> 6) as usize % PAGE_WORDS,
        (idx % 64) as u32,
    )
}

/// The line address [`locate`] maps to `(pi, w, bit)`.
#[inline]
fn line_at(pi: u64, w: usize, bit: u32) -> u64 {
    ((pi << IDX_SHIFT) | (w as u64) << 6 | u64::from(bit)) << 6
}

/// The nibble of a plane word that holds the XPLine of the line at `bit`.
#[inline]
fn nibble(bit: u32) -> u64 {
    0xF << (bit & !3)
}

/// How many XPLines (aligned nibbles) of a plane word have a bit set.
#[inline]
fn live_nibbles(word: u64) -> usize {
    let any = word | word >> 1 | word >> 2 | word >> 3;
    (any & 0x1111_1111_1111_1111).count_ones() as usize
}

/// The set bits of `word`, ascending.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

/// The addresses of the lines `[addr, addr + len)` touches (a zero `len`
/// still touches `addr`'s line), ascending.
#[inline]
fn lines_of(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    (addr & !(CACHE_LINE - 1)..addr + len.max(1)).step_by(CACHE_LINE as usize)
}

/// Inclusive line-index bounds of the line addresses in `[start, end)`,
/// or `None` when there is none.
#[inline]
fn line_idx_bounds(start: u64, end: u64) -> Option<(u64, u64)> {
    if end <= start {
        return None;
    }
    let lo = start.saturating_add(CACHE_LINE - 1) >> 6;
    let hi = (end - 1) >> 6;
    (lo <= hi).then_some((lo, hi))
}

/// Calls `f(word, mask)` for every plane word of page `pi` overlapping
/// the inclusive global line-index range `[lo_idx, hi_idx]`.
#[inline]
fn for_each_word((lo_idx, hi_idx): (u64, u64), pi: u64, mut f: impl FnMut(usize, u64)) {
    let base = pi << IDX_SHIFT;
    let a = lo_idx.max(base) - base;
    let b = hi_idx.min(base + PAGE_LINES as u64 - 1) - base;
    let (aw, bw) = ((a >> 6) as usize, (b >> 6) as usize);
    for w in aw..=bw {
        let lo_b = if w == aw { a & 63 } else { 0 };
        let hi_b = if w == bw { b & 63 } else { 63 };
        f(w, (!0u64 >> (63 - (hi_b - lo_b))) << lo_b);
    }
}

/// The pages of one window: `slots[i]` is the page at index `base + i`,
/// and `base` moves down when a lower page of the window is first written.
#[derive(Debug, Clone)]
struct Window {
    base: u64,
    slots: Vec<Option<Box<Page>>>,
}

impl Window {
    fn holds(&self, pi: u64) -> bool {
        self.base >> WINDOW_SHIFT == pi >> WINDOW_SHIFT
    }

    /// The slots holding page indices `[lo, hi]` (`lo <= hi`).
    fn span(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let len = self.slots.len() as u64;
        let a = lo.saturating_sub(self.base).min(len);
        let b = hi.saturating_add(1).saturating_sub(self.base).min(len);
        a as usize..b as usize
    }
}

/// The pages, keyed by page index: the windows that hold any page,
/// ascending, each direct-indexed (module docs, "Data layout"). Every
/// walk is ascending by page index. A clone copies every page.
#[derive(Debug, Default, Clone)]
struct Pages {
    windows: Vec<Window>,
}

impl Pages {
    fn get(&self, pi: u64) -> Option<&Page> {
        let win = self.windows.iter().find(|w| w.holds(pi))?;
        win.slots
            .get(pi.wrapping_sub(win.base) as usize)?
            .as_deref()
    }

    fn get_mut(&mut self, pi: u64) -> Option<&mut Page> {
        let win = self.windows.iter_mut().find(|w| w.holds(pi))?;
        let slot = win.slots.get_mut(pi.wrapping_sub(win.base) as usize)?;
        slot.as_deref_mut()
    }

    fn get_or_insert(&mut self, pi: u64) -> &mut Page {
        let found = self.windows.iter().position(|w| w.holds(pi));
        let wi = found.unwrap_or_else(|| {
            let at = self.windows.partition_point(|w| w.base < pi);
            let (base, slots) = (pi, Vec::new());
            self.windows.insert(at, Window { base, slots });
            at
        });
        let win = &mut self.windows[wi];
        if pi < win.base {
            let gap = std::iter::repeat_with(|| None).take((win.base - pi) as usize);
            win.slots.splice(0..0, gap);
            win.base = pi;
        }
        let i = (pi - win.base) as usize;
        if win.slots.len() <= i {
            win.slots.resize_with(i + 1, || None);
        }
        win.slots[i].get_or_insert_with(Box::default)
    }

    /// Present pages with index in `[lo, hi]` (`lo <= hi`), ascending.
    fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &Page)> {
        self.windows.iter().flat_map(move |win| {
            let span = win.span(lo, hi);
            let slots = win.slots[span.clone()].iter().zip(span);
            slots.filter_map(|(s, i)| s.as_deref().map(|p| (win.base + i as u64, p)))
        })
    }

    /// Mutable variant of [`range`](Self::range).
    fn range_mut(&mut self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &mut Page)> {
        self.windows.iter_mut().flat_map(move |win| {
            let (base, span) = (win.base, win.span(lo, hi));
            let slots = win.slots[span.clone()].iter_mut().zip(span);
            slots.filter_map(move |(s, i)| s.as_deref_mut().map(|p| (base + i as u64, p)))
        })
    }

    /// The word of `plane` that holds the line containing `addr`, shifted
    /// so that line is bit 0 (an XPLine base: so its nibble is the low
    /// nibble). Zero where no page exists.
    #[inline]
    fn peek(&self, addr: u64, plane: fn(&Page) -> &Plane) -> u64 {
        let (pi, w, bit) = locate(addr);
        self.get(pi).map_or(0, |p| plane(p)[w] >> bit)
    }

    /// Calls `f(line, page, word, bit)` for every line whose bit is set
    /// in `plane` and whose index lies in the inclusive range `idx`,
    /// ascending by address.
    fn for_each_set(
        &self,
        idx: (u64, u64),
        plane: fn(&Page) -> &Plane,
        mut f: impl FnMut(u64, &Page, usize, u32),
    ) {
        for (pi, p) in self.range(idx.0 >> IDX_SHIFT, idx.1 >> IDX_SHIFT) {
            for_each_word(idx, pi, |w, m| {
                for bit in bits(plane(p)[w] & m) {
                    f(line_at(pi, w, bit), p, w, bit);
                }
            });
        }
    }
}

/// What the medium would hold if power failed at the snapshot instant.
///
/// All non-durable lines are discarded; the XPLine at the front of the
/// write-combining buffer may be torn (a strict prefix of its fresh
/// lines survives). Snapshots are non-destructive *and allocation-light*:
/// the image borrows the ledger instead of cloning its durable plane, so
/// an oracle check never costs O(lines ever drained).
#[derive(Clone)]
pub struct CrashImage<'a> {
    ledger: &'a DurabilityLedger,
    /// Torn-prefix survivors of the front XPLine (ascending, never
    /// durable in the ledger).
    kept: Vec<(u64, LineRec)>,
    /// Lines written but absent from the image (lost to the failure).
    pub discarded_lines: u64,
    /// Lines lost specifically from the torn front XPLine.
    pub torn_lines: u64,
}

impl CrashImage<'_> {
    /// Number of durable lines in the image.
    pub fn durable_lines(&self) -> u64 {
        self.ledger.durable_len + self.kept.len() as u64
    }

    /// Durable lines inside `[start, start + len)`, ascending, with
    /// their records.
    pub fn durable_lines_in(&self, start: u64, len: u64) -> Vec<(u64, LineRec)> {
        let end = start.saturating_add(len);
        let mut out = Vec::new();
        if let Some(idx) = line_idx_bounds(start, end) {
            self.ledger.pages.for_each_set(
                idx,
                |p| &p.durable,
                |line, p, w, bit| {
                    out.push((line, p.rec(w, bit)));
                },
            );
        }
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
        self.ledger.meta.get(&key).copied()
    }
}

impl fmt::Debug for CrashImage<'_> {
    /// Prints the full semantic content (every durable line with its
    /// record, metadata, loss counters) so two images compare equal via
    /// `Debug` exactly when they describe the same medium state.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut meta: Vec<(&u64, &Ns)> = self.ledger.meta.iter().collect();
        meta.sort_unstable();
        let meta = fmt::from_fn(|f| f.debug_map().entries(meta.iter().copied()).finish());
        f.debug_struct("CrashImage")
            .field("lines", &self.durable_lines_in(0, u64::MAX))
            .field("meta", &meta)
            .field("discarded_lines", &self.discarded_lines)
            .field("torn_lines", &self.torn_lines)
            .finish()
    }
}

/// The NVM durability ledger (see the module docs).
///
/// A clone is a deep copy: pages are owned, not shared (module docs,
/// "Data layout").
#[derive(Debug, Clone)]
pub struct DurabilityLedger {
    cfg: PersistConfig,
    /// Latest simulated time any recorded operation carried. Worker
    /// clocks are not globally monotone, so this is a max-watermark.
    watermark: Ns,
    pages: Pages,
    /// Set bits of the `volatile` and `durable` planes, and XPLines with
    /// any `buffered` bit, over all pages.
    volatile_len: u64,
    durable_len: u64,
    buffered_xps: usize,
    /// Volatile dirty lines, FIFO for eviction. A line written back and
    /// stored again sits here twice and is evicted at its older position;
    /// entries whose line is no longer volatile are skipped when popped.
    volatile_queue: VecDeque<u64>,
    /// Acceptance order of XPLines. An XPLine emptied by `forget_range`
    /// and accepted again sits here twice; entries whose XPLine is no
    /// longer buffered are skipped.
    accept_queue: VecDeque<u64>,
    /// Persisted metadata records (key → persist watermark). Unordered:
    /// the one reader that prints them sorts first.
    meta: FxHashMap<u64, Ns>,
    /// Injected write-combining drain-stall windows.
    stalls: Windows,
    drain_rng: u64,
    /// XPLines drained to media (it seeds the torn-prefix draw).
    drained_xplines: u64,
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
            pages: Pages::default(),
            volatile_len: 0,
            durable_len: 0,
            buffered_xps: 0,
            volatile_queue: VecDeque::new(),
            accept_queue: VecDeque::new(),
            meta: FxHashMap::default(),
            stalls: Windows::default(),
            drain_rng,
            drained_xplines: 0,
            drain_scratch: Vec::new(),
        }
    }

    /// Installs injected write-combining drain-stall windows (replaces
    /// any previous set).
    pub fn set_stall_windows(&mut self, windows: Windows) {
        self.stalls = windows;
    }

    /// The installed drain-stall windows. Bulk store paths segment their
    /// recording at their edges so the lines written inside a stall
    /// window are attributed to it — a single whole-burst record carries
    /// only the burst's start time and would bypass a window opening
    /// mid-burst.
    pub fn stall_windows(&self) -> &Windows {
        &self.stalls
    }

    /// Advances the ledger watermark (max over all recorded clocks).
    fn advance(&mut self, now: Ns) {
        self.watermark = self.watermark.max(now);
    }

    fn is_buffered(&self, xp: u64) -> bool {
        self.pages.peek(xp, |p| &p.buffered) & 0xF != 0
    }

    /// Records regular (cacheable) stores over `[addr, addr + len)`.
    pub fn record_store(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        for line in lines_of(addr, len) {
            let (pi, w, bit) = locate(line);
            let p = self.pages.get_or_insert(pi);
            if p.volatile[w] >> bit & 1 == 0 {
                p.volatile[w] |= 1 << bit;
                self.volatile_len += 1;
                self.volatile_queue.push_back(line);
            }
        }
        self.evict_volatile_overflow();
    }

    /// Records non-temporal stores over `[addr, addr + len)`: lines go
    /// straight to the device buffer, superseding any volatile copy.
    pub fn record_nt_store(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        for line in lines_of(addr, len) {
            self.accept(line, true);
        }
    }

    /// Records an explicit write-back (CLWB-like) of `[addr, addr +
    /// len)`: volatile lines in the range are handed to the device
    /// buffer. Lines with no volatile copy are unaffected.
    pub fn write_back(&mut self, addr: u64, len: u64, now: Ns) {
        self.advance(now);
        for line in lines_of(addr, len) {
            self.accept(line, false);
        }
    }

    /// Persists a small metadata record under `key` (synchronous: the
    /// record is durable at the current watermark). Overwrites any
    /// previous record for the key.
    pub fn persist_meta(&mut self, key: u64, now: Ns) {
        self.advance(now);
        self.meta.insert(key, self.watermark);
    }

    /// Drains every buffered XPLine to media (the cycle-end fence: on
    /// ADR hardware, everything the device buffer accepted before the
    /// fence reaches the medium even across a power failure). Volatile
    /// lines are *not* affected — a fence does not flush caches.
    pub fn drain_all(&mut self, now: Ns) {
        self.advance(now);
        while let Some(xp) = self.accept_queue.pop_front() {
            if self.is_buffered(xp) {
                self.drain_xp(xp);
            }
        }
        debug_assert!(self.buffered_xps == 0);
    }

    /// Forgets all state for `[start, start + len)` — the range was
    /// recycled (region freed), so a later incarnation must not inherit
    /// this life's durability. XPLines it empties leave the buffer; their
    /// acceptance-queue entries go stale, exactly as a drain's would.
    pub fn forget_range(&mut self, start: u64, len: u64) {
        let Some(idx) = line_idx_bounds(start, start.saturating_add(len)) else {
            return;
        };
        let count = |word: u64| u64::from(word.count_ones());
        for (pi, p) in self.pages.range_mut(idx.0 >> IDX_SHIFT, idx.1 >> IDX_SHIFT) {
            for_each_word(idx, pi, |w, m| {
                self.volatile_len -= count(p.volatile[w] & m);
                self.durable_len -= count(p.durable[w] & m);
                self.buffered_xps -= live_nibbles(p.buffered[w]) - live_nibbles(p.buffered[w] & !m);
                for plane in [
                    &mut p.volatile,
                    &mut p.buffered,
                    &mut p.buffered_nt,
                    &mut p.durable,
                    &mut p.durable_nt,
                ] {
                    plane[w] &= !m;
                }
            });
        }
    }

    fn evict_volatile_overflow(&mut self) {
        while self.volatile_len > self.cfg.volatile_lines as u64 {
            let Some(line) = self.volatile_queue.pop_front() else {
                break;
            };
            self.accept(line, false);
        }
    }

    /// Hands `line` to the device buffer: any volatile copy is
    /// superseded, its XPLine joins the acceptance queue if it was not
    /// buffered, and the buffer drains back down to its capacity. Without
    /// `via_nt` it is the volatile copy that is handed over, and a line
    /// that has none is left alone.
    fn accept(&mut self, line: u64, via_nt: bool) {
        let (pi, w, bit) = locate(line);
        let m = 1u64 << bit;
        let p = if via_nt {
            self.pages.get_or_insert(pi)
        } else {
            match self.pages.get_mut(pi) {
                Some(p) if p.volatile[w] & m != 0 => p,
                _ => return,
            }
        };
        self.volatile_len -= p.volatile[w] >> bit & 1;
        p.volatile[w] &= !m;
        let newly_buffered = p.buffered[w] & nibble(bit) == 0;
        p.buffered[w] |= m;
        if via_nt {
            p.buffered_nt[w] |= m;
        }
        if newly_buffered {
            self.buffered_xps += 1;
            self.accept_queue.push_back(line & !(XPLINE_BYTES - 1));
        }
        while self.buffered_xps > self.cfg.wc_xplines {
            if !self.drain_one() {
                break;
            }
        }
    }

    /// Drains one XPLine chosen among the `reorder_window` oldest live
    /// buffered entries. Returns false when nothing can drain (empty
    /// buffer or an open injected drain stall).
    fn drain_one(&mut self) -> bool {
        if self.stalls.open_at(self.watermark).is_some() {
            return false;
        }
        // Collect up to `reorder_window` live (still-buffered) XPLines
        // in acceptance order. Dead queue entries are pruned at the front
        // only: behind a live entry they stay.
        let window = self.cfg.reorder_window.max(1);
        self.drain_scratch.clear();
        let mut i = 0;
        while let Some(&xp) = self.accept_queue.get(i) {
            if self.is_buffered(xp) {
                self.drain_scratch.push((i, xp));
                if self.drain_scratch.len() == window {
                    break;
                }
            } else if self.drain_scratch.is_empty() {
                self.accept_queue.pop_front();
                continue;
            }
            i += 1;
        }
        if self.drain_scratch.is_empty() {
            return false;
        }
        let pick = (splitmix64(&mut self.drain_rng) % self.drain_scratch.len() as u64) as usize;
        let (qi, xp) = self.drain_scratch[pick];
        self.accept_queue.remove(qi);
        self.drain_xp(xp);
        true
    }

    /// Moves the buffered XPLine `xp` to media: its never-drained lines
    /// become durable at the watermark, lines that drained before keep
    /// their first record (ever-drained durability).
    fn drain_xp(&mut self, xp: u64) {
        let (pi, w, bit) = locate(xp);
        let p = self.pages.get_or_insert(pi);
        let mask = p.buffered[w] & nibble(bit);
        let fresh = mask & !p.durable[w];
        p.durable[w] |= fresh;
        p.durable_nt[w] |= fresh & p.buffered_nt[w];
        for b in bits(fresh) {
            p.first_at[w << 6 | b as usize] = self.watermark;
        }
        p.buffered[w] &= !mask;
        p.buffered_nt[w] &= !mask;
        self.buffered_xps -= 1;
        self.durable_len += u64::from(fresh.count_ones());
        self.drained_xplines += 1;
    }

    /// Snapshots what the medium would hold if power failed now.
    ///
    /// Non-destructive. Every ever-drained line survives (the medium
    /// holds *some* version of it); the front buffered XPLine may be
    /// torn: a deterministic strict prefix of its never-drained lines
    /// is kept, at least one is lost.
    pub fn crash_image(&self) -> CrashImage<'_> {
        // Everything that never drained is gone: a volatile copy and a
        // buffered copy of one line are two losses.
        let mut discarded = 0u64;
        for (_, p) in self.pages.range(0, u64::MAX) {
            for w in 0..PAGE_WORDS {
                let lost = (p.volatile[w] & !p.durable[w]).count_ones()
                    + (p.buffered[w] & !p.durable[w]).count_ones();
                discarded += u64::from(lost);
            }
        }
        // Except that the XPLine at the buffer front may be mid-drain
        // when power fails: a prefix of its fresh lines made it.
        let mut kept = Vec::new();
        let front = self.accept_queue.iter().find(|&&xp| self.is_buffered(xp));
        if let Some(&xp) = front {
            let (pi, w, bit) = locate(xp);
            let p = self.pages.get(pi).expect("the front XPLine is buffered");
            let fresh = p.buffered[w] & !p.durable[w] & nibble(bit);
            if fresh != 0 {
                // One-shot stream derived from the crash instant; the
                // drain RNG itself is never consumed, so snapshotting
                // cannot perturb later drains.
                let mut rng = self.cfg.seed
                    ^ self.watermark.rotate_left(17)
                    ^ xp
                    ^ (self.drained_xplines << 32);
                let keep = splitmix64(&mut rng) % u64::from(fresh.count_ones());
                for b in bits(fresh).take(keep as usize) {
                    let rec = LineRec {
                        first_at: self.watermark,
                        via_nt: p.buffered_nt[w] >> b & 1 != 0,
                    };
                    kept.push((line_at(pi, w, b), rec));
                    // A kept line survives in the image, and so does a
                    // volatile copy of it.
                    discarded -= 1 + (p.volatile[w] >> b & 1);
                }
            }
        }
        CrashImage {
            ledger: self,
            torn_lines: u64::from(!kept.is_empty()),
            kept,
            discarded_lines: discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultWindow;

    fn small() -> DurabilityLedger {
        DurabilityLedger::new(PersistConfig {
            enabled: true,
            wc_xplines: 2,
            reorder_window: 2,
            volatile_lines: 4,
            seed: 7,
        })
    }

    /// The inclusive line-index range of the whole address space.
    const ALL_LINES: (u64, u64) = (0, u64::MAX >> 6);

    /// Every plane of a page.
    const PLANES: [fn(&Page) -> &Plane; 5] = [
        |p| &p.volatile,
        |p| &p.buffered,
        |p| &p.buffered_nt,
        |p| &p.durable,
        |p| &p.durable_nt,
    ];

    impl DurabilityLedger {
        /// The lines whose bit is set in `plane`, ascending.
        fn lines(&self, plane: fn(&Page) -> &Plane) -> Vec<u64> {
            let mut out = Vec::new();
            self.pages
                .for_each_set(ALL_LINES, plane, |line, _, _, _| out.push(line));
            out
        }

        fn is_volatile(&self, addr: u64) -> bool {
            self.pages.peek(addr, |p| &p.volatile) & 1 != 0
        }

        /// Whether the line containing `addr` has ever drained to media.
        fn durable_contains(&self, addr: u64) -> bool {
            self.pages.peek(addr, |p| &p.durable) & 1 != 0
        }

        fn durable_len(&self) -> u64 {
            self.durable_len
        }

        /// Lines currently volatile or buffered, i.e. written but not yet
        /// durable.
        fn pending_lines(&self) -> u64 {
            self.volatile_len + self.lines(|p| &p.buffered).len() as u64
        }
    }

    impl CrashImage<'_> {
        /// Whether the line containing `addr` is durable in the image.
        fn holds(&self, addr: u64) -> bool {
            let line = addr & !(CACHE_LINE - 1);
            !self.durable_lines_in(line, CACHE_LINE).is_empty()
        }
    }

    #[test]
    fn stores_stay_volatile_until_evicted() {
        let mut l = small();
        l.record_store(0x1000, 64, 10);
        assert_eq!(l.pending_lines(), 1);
        assert_eq!(l.durable_len(), 0);
        assert_eq!(l.buffered_xps, 0);
        // Fill past the volatile capacity: the oldest line, and only it,
        // is evicted to the device buffer.
        for i in 1..=4u64 {
            l.record_store(0x1000 + i * 0x1000, 64, 10 + i);
        }
        assert!(!l.is_volatile(0x1000) && l.is_buffered(0x1000));
        assert_eq!((l.volatile_len, l.buffered_xps), (4, 1));
    }

    #[test]
    fn nt_stores_bypass_the_volatile_path() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 5);
        assert_eq!(l.lines(|p| &p.buffered_nt).len(), 4);
        assert_eq!(l.volatile_len, 0);
        // One XPLine buffered, capacity 2: nothing drained yet.
        assert_eq!(l.durable_len(), 0);
        l.record_nt_store(0x3000, 256, 6);
        l.record_nt_store(0x4000, 256, 7);
        // Third XPLine exceeds capacity: one drains.
        assert_eq!(l.drained_xplines, 1);
        assert_eq!(l.durable_len(), 4);
    }

    #[test]
    fn write_back_promotes_only_volatile_lines() {
        let mut l = small();
        l.record_store(0x1000, 128, 1);
        l.write_back(0x1000, 64, 2);
        let buffered = |l: &DurabilityLedger| l.lines(|p| &p.buffered);
        assert_eq!(buffered(&l), [0x1000]);
        assert!(l.is_volatile(0x1040));
        // Write-back of an unwritten range is a no-op.
        l.write_back(0x9000, 4096, 3);
        assert_eq!(buffered(&l), [0x1000]);
    }

    #[test]
    fn drain_all_drains_every_accepted_line() {
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
        assert!(img.holds(0x2000));
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
        assert!(!img.holds(0x1000));
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
        let front_durable = (0..4).filter(|i| img.holds(0x2000 + i * 64)).count();
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
        assert_eq!(l.pending_lines(), 0);
        assert!(PLANES.iter().all(|&plane| l.lines(plane).is_empty()));
        let img = l.crash_image();
        assert_eq!(img.discarded_lines, 0);
        assert!(!img.holds(0x2000));
    }

    #[test]
    fn drain_stall_window_defers_capacity_drains() {
        let accept_four = |stall: bool| {
            let mut l = small();
            if stall {
                let window = FaultWindow { start: 0, end: 100 };
                l.set_stall_windows([(window, 1.0)].into_iter().collect());
            }
            l.record_nt_store(0x2000, 1024, 5); // 4 XPLines > capacity 2
            l
        };
        let (mut l, healthy) = (accept_four(true), accept_four(false));
        // A healthy buffer drains down to its two-XPLine capacity; the
        // stall keeps all four XPLines buffered and nothing durable.
        let planes = |l: &DurabilityLedger| (l.lines(|p| &p.buffered), l.lines(|p| &p.durable));
        let (buffered, durable) = planes(&healthy);
        assert_eq!((buffered.len(), durable.len()), (8, 8));
        let (buffered, durable) = planes(&l);
        let all: Vec<u64> = (0..16).map(|i| 0x2000 + i * 64).collect();
        assert_eq!(
            (buffered, durable),
            (all, vec![]),
            "stall blocked every drain"
        );
        // Past the window, the next accept drains the backlog.
        l.record_nt_store(0x8000, 256, 200);
        assert!(l.drained_xplines > 0);
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
    fn crash_image_resolves_interior_addresses() {
        let mut l = small();
        l.record_nt_store(0x2000, 256, 1);
        l.drain_all(2);
        let img = l.crash_image();
        assert!(img.holds(0x2000));
        assert!(img.holds(0x2010), "mid-line address maps to line");
        assert!(img.holds(0x20c0));
        assert!(!img.holds(0x2100));
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
    fn far_addresses_open_their_own_window() {
        // Addresses past the first 32 GiB land in a window of their own
        // and behave identically.
        let far = (WINDOW_PAGES + 5) << PAGE_SHIFT;
        let mut l = small();
        l.record_nt_store(far, 256, 1);
        l.drain_all(2);
        assert!(l.durable_contains(far));
        let img = l.crash_image();
        assert!(img.holds(far));
        l.forget_range(far, 256);
        assert_eq!(l.durable_len(), 0);
        assert!(PLANES.iter().all(|&plane| l.lines(plane).is_empty()));
    }

    // ---- The reference model ------------------------------------------
    //
    // The same model written from the module docs with none of the
    // ledger's machinery: per-line state in a tree, the two FIFO queues,
    // every count recomputed by walking the tree.

    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Pages per window.
    const WINDOW_PAGES: u64 = 1 << WINDOW_SHIFT;

    #[derive(Debug, Clone, Copy, Default)]
    struct RefLine {
        volatile: bool,
        buffered: bool,
        buffered_nt: bool,
        /// Was ever accepted by the device buffer (the ledger keeps no
        /// such plane: nothing it simulates reads it).
        ever: bool,
        durable: Option<LineRec>,
    }

    /// The reference's volatile, buffered and buffered-NT flags, in the
    /// order of [`PLANES`].
    const PLANE_FLAGS: [fn(&RefLine) -> bool; 3] =
        [|l| l.volatile, |l| l.buffered, |l| l.buffered_nt];

    #[derive(Clone)]
    struct Reference {
        cfg: PersistConfig,
        watermark: Ns,
        lines: BTreeMap<u64, RefLine>,
        volatile_queue: VecDeque<u64>,
        accept_queue: VecDeque<u64>,
        meta: BTreeMap<u64, Ns>,
        stalls: Vec<FaultWindow>,
        rng: u64,
        drained_xplines: u64,
        /// Lines a store or an NT store wrote, less the forgotten ones:
        /// kept apart from `lines` for the provenance check.
        written: BTreeSet<u64>,
    }

    /// The reference's own line walk: it shares none of the ledger's
    /// address arithmetic.
    fn lines_of(addr: u64, len: u64) -> impl Iterator<Item = u64> {
        (addr / 64..=(addr + len.max(1) - 1) / 64).map(|idx| idx * 64)
    }

    impl Reference {
        fn line(&self, line: u64) -> RefLine {
            self.lines.get(&line).copied().unwrap_or_default()
        }

        fn xp_lines(&self, xp: u64) -> impl Iterator<Item = (u64, RefLine)> + '_ {
            lines_of(xp, XPLINE_BYTES).map(|l| (l, self.line(l)))
        }

        fn live(&self, xp: u64) -> bool {
            self.xp_lines(xp).any(|(_, l)| l.buffered)
        }

        fn store(&mut self, addr: u64, len: u64) {
            for line in lines_of(addr, len) {
                if !std::mem::replace(&mut self.lines.entry(line).or_default().volatile, true) {
                    self.volatile_queue.push_back(line);
                }
            }
            while self.lines.values().filter(|l| l.volatile).count() > self.cfg.volatile_lines {
                let line = self
                    .volatile_queue
                    .pop_front()
                    .expect("volatile lines are queued");
                if self.line(line).volatile {
                    self.accept(line, false);
                }
            }
        }

        fn accept(&mut self, line: u64, via_nt: bool) {
            let xp = line & !(XPLINE_BYTES - 1);
            if !self.live(xp) {
                self.accept_queue.push_back(xp);
            }
            let l = self.lines.entry(line).or_default();
            *l = RefLine {
                volatile: false,
                buffered: true,
                buffered_nt: l.buffered_nt | via_nt,
                ever: true,
                durable: l.durable,
            };
            loop {
                let buffered = self.lines.iter().filter(|(_, l)| l.buffered);
                let xps: std::collections::BTreeSet<u64> =
                    buffered.map(|(a, _)| a & !255).collect();
                if xps.len() <= self.cfg.wc_xplines {
                    break;
                }
                if self.stalls.iter().any(|w| w.contains(self.watermark)) {
                    break;
                }
                // A drain drops the dead entries at the queue front; dead
                // entries behind a live one stay, and count again once
                // their XPLine is accepted again.
                while !self.live(self.accept_queue[0]) {
                    self.accept_queue.pop_front();
                }
                let live =
                    (0..self.accept_queue.len()).filter(|&i| self.live(self.accept_queue[i]));
                let window: Vec<usize> = live.take(self.cfg.reorder_window).collect();
                let pick = window[(splitmix64(&mut self.rng) % window.len() as u64) as usize];
                let xp = self
                    .accept_queue
                    .remove(pick)
                    .expect("picked from the queue");
                self.drain(xp);
            }
        }

        fn drain(&mut self, xp: u64) {
            self.drained_xplines += 1;
            for (line, l) in self
                .xp_lines(xp)
                .filter(|(_, l)| l.buffered)
                .collect::<Vec<_>>()
            {
                let first = LineRec {
                    first_at: self.watermark,
                    via_nt: l.buffered_nt,
                };
                let durable = Some(l.durable.unwrap_or(first));
                let ever = l.ever;
                self.lines.insert(
                    line,
                    RefLine {
                        durable,
                        ever,
                        volatile: l.volatile,
                        ..RefLine::default()
                    },
                );
            }
        }

        fn apply(&mut self, op: Op, now: Ns) {
            // Forgetting a range carries no clock.
            if !matches!(op, Op::Forget(..)) {
                self.watermark = self.watermark.max(now);
            }
            if let Op::Store(addr, len) | Op::NtStore(addr, len) = op {
                self.written.extend(lines_of(addr, len));
            }
            match op {
                Op::Store(addr, len) => self.store(addr, len),
                Op::NtStore(addr, len) => {
                    for line in lines_of(addr, len) {
                        self.accept(line, true);
                    }
                }
                Op::WriteBack(addr, len) => {
                    for line in lines_of(addr, len) {
                        if self.line(line).volatile {
                            self.accept(line, false);
                        }
                    }
                }
                Op::Meta(key) => {
                    self.meta.insert(key, self.watermark);
                }
                Op::DrainAll => {
                    while let Some(xp) = self.accept_queue.pop_front() {
                        if self.live(xp) {
                            self.drain(xp);
                        }
                    }
                }
                Op::Forget(start, len) => {
                    let end = start.saturating_add(len);
                    self.lines.retain(|&l, _| l < start || l >= end);
                    self.written.retain(|&l| l < start || l >= end);
                }
            }
        }

        /// Provenance — durable ⊆ ever accepted ⊆ written — and, right
        /// after a fence, completeness: every accepted line is durable.
        fn check(&self, fenced: bool) {
            for (&a, l) in &self.lines {
                let (durable, written) = (l.durable.is_some(), self.written.contains(&a));
                assert!(l.ever || !durable, "{a:#x} durable, never accepted");
                assert!(written || !l.ever, "{a:#x} accepted, never written");
                assert!(durable || !(fenced && l.ever), "{a:#x} fenced, not durable");
            }
        }

        /// Everything the ledger's API can show, in [`view`]'s shape.
        fn view(&self, window: (u64, u64)) -> View {
            let recs = |(&a, l): (&u64, &RefLine)| l.durable.map(|rec| (a, rec));
            let durable: Vec<(u64, LineRec)> = self.lines.iter().filter_map(recs).collect();
            let lost = |l: &RefLine| u64::from(l.volatile) + u64::from(l.buffered);
            let never_drained = self.lines.values().filter(|l| l.durable.is_none());
            let mut discarded: u64 = never_drained.map(lost).sum();
            let (mut lines, mut torn) = (durable.clone(), 0);
            // The oldest live XPLine is torn: a strict prefix of its
            // never-drained lines survives, in all their copies.
            if let Some(&xp) = self.accept_queue.iter().find(|&&xp| self.live(xp)) {
                let fresh = |(_, l): &(u64, RefLine)| l.buffered && l.durable.is_none();
                let fresh: Vec<(u64, RefLine)> = self.xp_lines(xp).filter(fresh).collect();
                if !fresh.is_empty() {
                    let mut rng = self.cfg.seed
                        ^ self.watermark.rotate_left(17)
                        ^ xp
                        ^ (self.drained_xplines << 32);
                    let keep = (splitmix64(&mut rng) % fresh.len() as u64) as usize;
                    for &(line, l) in &fresh[..keep] {
                        let rec = LineRec {
                            first_at: self.watermark,
                            via_nt: l.buffered_nt,
                        };
                        lines.push((line, rec));
                        discarded -= lost(&l);
                    }
                    lines.sort_by_key(|&(a, _)| a);
                    torn = u64::from(keep > 0);
                }
            }
            let end = window.0.saturating_add(window.1);
            let in_window = lines.iter().filter(|&&(a, _)| a >= window.0 && a < end);
            View {
                windowed: in_window.copied().collect(),
                // What `CrashImage`'s `Debug` prints.
                image: format!(
                    "CrashImage {{ lines: {lines:?}, meta: {:?}, \
                     discarded_lines: {discarded}, torn_lines: {torn} }}",
                    self.meta
                ),
                drained_xplines: self.drained_xplines,
                planes: PLANE_FLAGS.map(|on| {
                    let set = self.lines.iter().filter(|(_, l)| on(l));
                    set.map(|(&a, _)| a).collect()
                }),
                durable,
            }
        }
    }

    /// One scripted operation (each carries its own `now`).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Store(u64, u64),
        NtStore(u64, u64),
        WriteBack(u64, u64),
        Meta(u64),
        DrainAll,
        Forget(u64, u64),
    }

    /// What a ledger shows: the crash image (`Debug` text and one
    /// `durable_lines_in` window), the drain counter, the volatile,
    /// buffered and buffered-NT planes, and the durable plane with the
    /// running count it must agree with.
    #[derive(Debug, PartialEq)]
    struct View {
        image: String,
        windowed: Vec<(u64, LineRec)>,
        drained_xplines: u64,
        planes: [Vec<u64>; 3],
        durable: Vec<(u64, LineRec)>,
    }

    fn view(l: &DurabilityLedger, window: (u64, u64)) -> View {
        let img = l.crash_image();
        let mut durable = Vec::new();
        l.pages.for_each_set(
            ALL_LINES,
            |p| &p.durable,
            |a, p, w, bit| durable.push((a, p.rec(w, bit))),
        );
        assert_eq!(durable.len() as u64, l.durable_len());
        let all = img.durable_lines_in(0, u64::MAX).len() as u64;
        assert_eq!(img.durable_lines(), all);
        let words = |plane: fn(&Page) -> &Plane| {
            let pages = l.pages.range(0, u64::MAX);
            pages
                .flat_map(move |(_, p)| *plane(p))
                .collect::<Vec<u64>>()
        };
        let volatile: u32 = words(|p| &p.volatile).iter().map(|w| w.count_ones()).sum();
        let buffered_xps: usize = words(|p| &p.buffered)
            .iter()
            .map(|&w| live_nibbles(w))
            .sum();
        assert_eq!(
            (u64::from(volatile), buffered_xps),
            (l.volatile_len, l.buffered_xps)
        );
        View {
            image: format!("{img:?}"),
            windowed: img.durable_lines_in(window.0, window.1),
            drained_xplines: l.drained_xplines,
            planes: [PLANES[0], PLANES[1], PLANES[2]].map(|plane| l.lines(plane)),
            durable,
        }
    }

    fn apply(l: &mut DurabilityLedger, op: Op, now: Ns) {
        match op {
            Op::Store(addr, len) => l.record_store(addr, len, now),
            Op::NtStore(addr, len) => l.record_nt_store(addr, len, now),
            Op::WriteBack(addr, len) => l.write_back(addr, len, now),
            Op::Meta(key) => l.persist_meta(key, now),
            Op::DrainAll => l.drain_all(now),
            Op::Forget(start, len) => l.forget_range(start, len),
        }
    }

    /// An empty ledger and an empty reference of one configuration.
    fn start(cfg: &PersistConfig, stall: Option<FaultWindow>) -> (DurabilityLedger, Reference) {
        let mut l = DurabilityLedger::new(cfg.clone());
        l.set_stall_windows(stall.into_iter().map(|w| (w, 1.0)).collect());
        let r = Reference {
            cfg: cfg.clone(),
            watermark: 0,
            lines: BTreeMap::new(),
            volatile_queue: VecDeque::new(),
            accept_queue: VecDeque::new(),
            meta: BTreeMap::new(),
            stalls: stall.into_iter().collect(),
            rng: cfg.seed ^ 0xD01A_B1E5,
            drained_xplines: 0,
            written: BTreeSet::new(),
        };
        (l, r)
    }

    /// Runs `ops` through a ledger and its reference, checking the
    /// reference's provenance and comparing their views after every
    /// operation.
    fn drive(l: &mut DurabilityLedger, r: &mut Reference, ops: &[(Op, Ns)], window: (u64, u64)) {
        for (i, &(op, now)) in ops.iter().enumerate() {
            apply(l, op, now);
            r.apply(op, now);
            r.check(matches!(op, Op::DrainAll));
            assert_eq!(
                view(l, window),
                r.view(window),
                "after op {i}: {op:x?} at {now}"
            );
        }
    }

    /// [`drive`]s a fresh ledger and returns it for closer looks.
    fn run(
        cfg: &PersistConfig,
        stall: Option<FaultWindow>,
        ops: &[(Op, Ns)],
        window: (u64, u64),
    ) -> DurabilityLedger {
        let (mut l, mut r) = start(cfg, stall);
        drive(&mut l, &mut r, ops, window);
        l
    }

    /// Where scripts write: the bottom of the first window, across a page
    /// boundary of it, and two far windows (the top pages of one, and an
    /// allocator-journal word).
    const BASES: [u64; 4] = [
        0,
        (1 << PAGE_SHIFT) - 0x200,
        0x4000_0000_0000_0000 - 0x200,
        0x7C00_0000_0000_0040,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ledger equals the reference after every operation of
        /// arbitrary scripts — with what `tests/prop_persist.rs` never
        /// generates: unaligned `forget_range`, a stall window, tiny
        /// capacities, out-of-order clocks and far-spill addresses.
        #[test]
        fn ledger_equals_the_reference_after_every_op(
            (wc_xplines, reorder_window, volatile_lines) in (1..6usize, 1..5usize, 1..12usize),
            seed in any::<u64>(),
            stall in (any::<bool>(), 0..2_000u64, 1..1_000u64),
            ops in prop::collection::vec(
                (0..12u8, 0..BASES.len(), 0..0x500u64, 0..700u64, 0..3_000u64),
                1..161,
            ),
            window in (0..BASES.len(), 0..0x500u64, 0..0x1000u64),
        ) {
            let cfg = PersistConfig { enabled: true, wc_xplines, reorder_window, volatile_lines, seed };
            let stall = stall.0.then_some(FaultWindow { start: stall.1, end: stall.1 + stall.2 });
            let ops: Vec<(Op, Ns)> = ops
                .into_iter()
                .map(|(kind, base, off, len, now)| {
                    let addr = BASES[base] + off;
                    let op = match kind {
                        0..=2 => Op::Store(addr, 8),
                        3 => Op::Store(addr, len),
                        4..=5 => Op::NtStore(addr, len),
                        6..=7 => Op::WriteBack(addr, len),
                        8 => Op::Meta(off % 8),
                        9 => Op::DrainAll,
                        _ => Op::Forget(addr, len),
                    };
                    (op, now)
                })
                .collect();
            run(&cfg, stall, &ops, (BASES[window.0] + window.1, window.2));
        }
    }

    /// The corners the model must keep, each driven through the reference
    /// comparison and then asserted on its own.
    #[test]
    fn queue_duplicates_sticky_nt_and_first_records_are_kept() {
        use Op::*;
        let cfg = |wc_xplines, reorder_window, volatile_lines| PersistConfig {
            enabled: true,
            wc_xplines,
            reorder_window,
            volatile_lines,
            seed: 3,
        };
        let all = (0, u64::MAX);
        let (a, b, c) = (0x1000, 0x2000, 0x3000);

        // A line written back and stored again sits twice in the volatile
        // FIFO and is evicted at its older position: `a`, not `b`, goes.
        let ops = [
            Store(a, 8),
            Store(b, 8),
            WriteBack(a, 8),
            Store(a, 8),
            Store(c, 8),
        ];
        let l = run(&cfg(8, 1, 2), None, &ops.map(|op| (op, 0)), all);
        assert!(!l.is_volatile(a) && l.is_volatile(b) && l.is_volatile(c));

        // An XPLine emptied by `forget_range` and accepted again sits
        // twice in the acceptance queue and drains at its older position.
        let ops = [
            NtStore(a, 256),
            NtStore(b, 8),
            Forget(a, 256),
            NtStore(a, 8),
            NtStore(c, 8),
        ];
        let l = run(&cfg(2, 1, 8), None, &ops.map(|op| (op, 0)), all);
        assert!(l.durable_contains(a) && !l.durable_contains(b));

        // A line both volatile and buffered is two losses; a sole fresh
        // line of the front XPLine is never kept.
        let ops = [Store(a, 8), WriteBack(a, 8), Store(a, 8)];
        let l = run(&cfg(8, 1, 8), None, &ops.map(|op| (op, 0)), all);
        assert_eq!(l.crash_image().discarded_lines, 2);

        // The buffered-by-NT bit survives a later plain acceptance of the
        // line; the first drain's record survives a later drain of its
        // XPLine, which does not count the line durable again; a
        // forgotten line starts over.
        let ops = [
            (NtStore(a, 8), 10),
            (Store(a, 8), 11),
            (WriteBack(a, 8), 12),
            (DrainAll, 20),
            (NtStore(a, 8), 30),
            (DrainAll, 40),
            (Forget(a + 1, 200), 41),
            (Forget(a, 1), 41),
            (Store(a, 8), 50),
            (WriteBack(a, 8), 51),
            (DrainAll, 60),
        ];
        let rec = |first_at, via_nt| vec![(a, LineRec { first_at, via_nt })];
        let l = run(&cfg(8, 1, 8), None, &ops[..6], all);
        assert_eq!(l.crash_image().durable_lines_in(a, 64), rec(20, true));
        assert_eq!((l.drained_xplines, l.durable_len()), (2, 1));
        let l = run(&cfg(8, 1, 8), None, &ops[..7], all);
        assert_eq!(
            l.durable_len(),
            1,
            "a range that starts inside a line spares it"
        );
        let l = run(&cfg(8, 1, 8), None, &ops, all);
        assert_eq!(l.crash_image().durable_lines_in(a, 64), rec(60, false));

        // Snapshots never consume the drain RNG: a ledger nobody looked at
        // makes the same reordered drains as one observed after every op.
        let ops: Vec<(Op, Ns)> = (0..40).map(|i| (NtStore(i * 0x140, 0x100), i)).collect();
        let seen = run(&cfg(2, 4, 8), None, &ops, all);
        let mut unseen = DurabilityLedger::new(cfg(2, 4, 8));
        ops.iter()
            .for_each(|&(op, now)| apply(&mut unseen, op, now));
        assert_eq!(view(&seen, all), view(&unseen, all));
        assert!(seen.drained_xplines > 20);

        // Far pages iterate after every page of the first window, and a
        // range may span a window edge.
        let edge = WINDOW_PAGES << PAGE_SHIFT;
        let ops = [
            NtStore(BASES[2], 0x400),
            NtStore(edge - 0x100, 0x200),
            NtStore(a, 8),
            DrainAll,
            Forget(edge - 0x7f, 0x100),
        ];
        let l = run(
            &cfg(8, 4, 8),
            None,
            &ops.map(|op| (op, 0)),
            (edge - 0x140, 0x200),
        );
        assert_eq!(l.durable_len(), 1 + 4 + 16);
    }

    /// What copy-on-write pages used to guarantee is a property of
    /// `Clone`: a fork and its origin, driven apart over the same pages,
    /// each stay equal to their own reference and leave the other alone.
    #[test]
    fn a_clone_shares_nothing() {
        use Op::*;
        let cfg = PersistConfig {
            enabled: true,
            wc_xplines: 2,
            reorder_window: 2,
            volatile_lines: 3,
            seed: 11,
        };
        let all = (0, u64::MAX);
        let script = |ops: &[Op]| -> Vec<(Op, Ns)> { ops.iter().map(|&op| (op, 5)).collect() };
        let (mut l, mut r) = start(&cfg, None);
        let shared: Vec<Op> = BASES
            .iter()
            .flat_map(|&b| [NtStore(b, 0x300), Store(b + 0x300, 0x100), Meta(b % 7)])
            .collect();
        drive(&mut l, &mut r, &script(&shared), all);
        let (mut fork, mut fork_r) = (l.clone(), r.clone());

        let origin = view(&l, all);
        let ops: Vec<Op> = BASES
            .iter()
            .flat_map(|&b| {
                [
                    Forget(b + 0x80, 0x100),
                    Store(b, 0x200),
                    WriteBack(b, 0x400),
                ]
            })
            .chain([Meta(1), DrainAll])
            .collect();
        drive(&mut fork, &mut fork_r, &script(&ops), all);
        assert_eq!(view(&l, all), origin, "the fork wrote to the origin");

        let forked = view(&fork, all);
        let ops: Vec<Op> = BASES
            .iter()
            .flat_map(|&b| [NtStore(b + 0x200, 0x400), Forget(b, 0x40), Meta(2)])
            .collect();
        drive(&mut l, &mut r, &script(&ops), all);
        assert_eq!(view(&fork, all), forked, "the origin wrote to the fork");
        assert_ne!(view(&l, all), origin);
        assert_ne!(forked, origin);
    }

    /// Three windows populated — the heap's, its neighbour across the
    /// 32 GiB edge, the durable header map's: iteration is ascending and
    /// complete, a crash counts losses in all three, and `forget_range`
    /// spans the edge.
    #[test]
    fn three_windows_walk_ascending_and_complete() {
        use Op::*;
        let cfg = PersistConfig {
            enabled: true,
            wc_xplines: 64,
            reorder_window: 1,
            volatile_lines: 64,
            seed: 1,
        };
        let edge = WINDOW_PAGES << PAGE_SHIFT;
        let map = 0x4000_0000_0000_0000;
        let ops = [
            // Durable: 4 lines of the map, 4 either side of the edge, 4 low.
            NtStore(map, 0x100),
            NtStore(edge - 0x100, 0x200),
            NtStore(0x1000, 0x100),
            DrainAll,
            // Lost at a crash: 1 and 2 volatile lines, 1 buffered line.
            Store(edge - 0x200, 0x40),
            Store(edge + 0x200, 0x80),
            NtStore(map + 0x1000, 0x40),
            Forget(edge - 0x80, 0x100),
        ];
        let ops = ops.map(|op| (op, 0));
        let l = run(&cfg, None, &ops[..7], (edge - 0x140, 0x200));
        assert_eq!(l.pages.windows.len(), 3);
        let durable = l.lines(|p| &p.durable);
        assert!(durable.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(
            (durable.len(), durable[0], durable[4], durable[15]),
            (16, 0x1000, edge - 0x100, map + 0xc0)
        );
        assert_eq!(l.crash_image().discarded_lines, 4);
        // Two lines on each side of the edge go.
        let l = run(&cfg, None, &ops, (edge - 0x140, 0x200));
        assert_eq!((l.durable_len(), l.pending_lines()), (12, 4));
        assert_eq!(l.crash_image().discarded_lines, 4);
    }
}
