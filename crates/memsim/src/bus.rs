//! Epoch-bucket bandwidth arbitration for a single memory device.
//!
//! Simulated time is divided into fixed-length epochs. Each epoch has a
//! budget of *weighted bytes*: a request's raw size is scaled by the ratio
//! of the device's peak sequential-read bandwidth to the bandwidth it
//! sustains for the request's kind/pattern. Expressing all traffic in
//! "sequential-read-equivalent" bytes lets a single per-epoch budget model
//! the device's shared internal bandwidth: a random NVM store consumes the
//! budget ~14× faster than a streaming read of the same size.
//!
//! The budget itself shrinks as the epoch's write share grows (the device
//! interference curve), which is how the model reproduces the total-
//! bandwidth collapse the paper measures when copy-based GC mixes object
//! copying (writes) into heap traversal (reads).
//!
//! # The fast path
//!
//! [`Ledger::grant`] runs once per simulated word access. Almost every
//! call starts in the epoch the previous one started in, next to no fault
//! window, and fits what is left of that epoch; `grant` answers that case
//! inline and hands everything else to an out-of-line slow path. The fast
//! path is taken when all of these hold:
//!
//! - `now` lies in the cached *calm interval*: no stall or collapse
//!   window is open there and none opens or closes inside it, so there is
//!   nothing to defer past and the cost multiplier is 1. With no windows
//!   installed the interval is the whole time axis. The slow path computes
//!   it around the start time it served; `set_faults` empties it.
//! - `now` lies in the cached epoch, that epoch is not below the ledger
//!   base, and its bucket is tracked.
//! - the request's weighted bytes fit the epoch's remaining budget.
//!
//! Both paths do the same `f64` operations on the same operands in the
//! same order (multiplying by the absent collapse factor, 1.0, is exact),
//! so which one serves a grant is invisible in every completion time and
//! counter. The epoch's budget — two divisions from its two running
//! totals — is stored beside them whenever they change: it is a function
//! of nothing else, so the next grant loads it instead of waiting for the
//! divisions. An epoch nothing was granted in has no share yet; its budget
//! is one of two per-device constants, by whether the request writes. The
//! test module keeps the one-path `grant` this replaced and compares the
//! two after every operation of random scripts.

use crate::device::{AccessKind, DeviceParams, Pattern};
use crate::fault::Windows;
use crate::Ns;
use std::collections::VecDeque;

/// Upper bound on per-grant stall-window deferrals before the ledger
/// gives up retrying window-by-window and jumps past every scheduled
/// stall at once (graceful degradation instead of unbounded spinning).
pub const STALL_RETRY_LIMIT: u32 = 8;

/// How many epochs one grant may span. A request that needs more is a
/// configuration error (a device with next to no bandwidth, or an epoch
/// far too short for the transfers it carries): debug builds panic on it,
/// release builds return the completion of what fitted, so such a run
/// finishes, too early, rather than spinning.
const MAX_GRANT_EPOCHS: u64 = 1_000_000;

/// Per-epoch usage accounting.
#[derive(Debug, Clone, Copy, Default)]
struct EpochUse {
    /// Weighted bytes granted in this epoch.
    weighted: f64,
    /// Weighted bytes of write traffic granted in this epoch.
    weighted_write: f64,
    /// The epoch's budget at its current write share: a function of the
    /// two totals above, stored whenever they change so the next grant
    /// loads it. Meaningless while `weighted` is zero (see
    /// [`Ledger::cap_of`]).
    cap: f64,
}

/// Bandwidth ledger for one device.
///
/// Requests are granted in epoch-sized chunks; a request that does not fit
/// into the epoch it starts in spills into subsequent epochs, which is what
/// creates queuing backpressure on the requesting (simulated) thread.
#[derive(Debug, Clone)]
pub struct Ledger {
    params: DeviceParams,
    /// `bw_read_seq / bandwidth(kind, pattern)` per (kind, pattern),
    /// resolved once at construction: the grant path multiplies by this
    /// ratio instead of re-dividing per request, producing the very same
    /// `f64` (the division result is computed from identical operands).
    weight_ratio: [[f64; 2]; 3],
    epoch_ns: Ns,
    /// `epoch_ns as f64` and `bw_read_seq * epoch_ns as f64`.
    epoch_f: f64,
    base_budget: f64,
    /// The budget of an untouched epoch whose first request is a read
    /// (write share 0) or a write (write share 1).
    fresh_cap: [f64; 2],
    /// Index of the first epoch still tracked.
    base_epoch: u64,
    epochs: VecDeque<EpochUse>,
    /// Injected stall windows: no grants start inside one.
    stalls: Windows,
    /// Injected bandwidth-collapse windows with their cost multipliers.
    collapses: Windows,
    /// Non-empty grant requests served. A deterministic work counter:
    /// it depends only on the simulated access stream.
    grants: u64,
    /// Cache of the last grant's start epoch and that epoch's start
    /// time. Consecutive grants usually start in the same epoch, so the
    /// hot path replaces the 64-bit division with a range check. Pure
    /// cache — no observable effect.
    last_epoch: u64,
    last_epoch_start: Ns,
    /// A cached interval `[calm.0, calm.0 + calm.1)` of start times at
    /// which no fault window is open and across which none opens: every
    /// time of the axis when none is installed. Empty until the slow path
    /// fills it; `set_faults` empties it.
    calm: (Ns, Ns),
}

impl Ledger {
    /// Creates a ledger for a device with the given epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ns` is zero.
    pub fn new(params: DeviceParams, epoch_ns: Ns) -> Self {
        assert!(epoch_ns > 0, "epoch length must be positive");
        let mut weight_ratio = [[0.0; 2]; 3];
        for (ki, kind) in [AccessKind::Read, AccessKind::Write, AccessKind::NtWrite]
            .into_iter()
            .enumerate()
        {
            for (pi, pattern) in [Pattern::Seq, Pattern::Rand].into_iter().enumerate() {
                weight_ratio[ki][pi] =
                    params.bw_read_seq / params.bandwidth(kind, pattern).max(1e-9);
            }
        }
        let epoch_f = epoch_ns as f64;
        let base_budget = params.bw_read_seq * epoch_f;
        let fresh_cap = [0.0, 1.0].map(|w| (base_budget * params.interference_factor(w)).max(1.0));
        Ledger {
            params,
            weight_ratio,
            epoch_ns,
            epoch_f,
            base_budget,
            fresh_cap,
            base_epoch: 0,
            epochs: VecDeque::new(),
            stalls: Windows::default(),
            collapses: Windows::default(),
            grants: 0,
            last_epoch: 0,
            last_epoch_start: 0,
            calm: (0, 0),
        }
    }

    /// Installs injected stall and collapse windows for this device.
    /// Replaces any previously installed set; pass empty sets to clear.
    pub fn set_faults(&mut self, stalls: Windows, collapses: Windows) {
        self.stalls = stalls;
        self.collapses = collapses;
        self.calm = (0, 0);
    }

    /// The installed stall and collapse windows.
    ///
    /// A grant samples stall deferral and the collapse factor only at its
    /// start time, so a multi-epoch bulk transfer must be re-granted at
    /// every edge of these it crosses — otherwise a window opening (or
    /// closing) mid-burst is invisible to it.
    pub fn windows(&self) -> [&Windows; 2] {
        [&self.stalls, &self.collapses]
    }

    /// Total non-empty grant requests served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Defers `now` past any active stall window with a bounded number of
    /// retries. Each retry re-checks the deferred time against the window
    /// set (windows may chain back-to-back); once the retry budget is
    /// exhausted the request jumps past the latest scheduled stall end so
    /// a pathological schedule degrades to a one-time delay instead of an
    /// unbounded spin.
    fn defer_past_stalls(&self, mut now: Ns) -> Ns {
        for _ in 0..STALL_RETRY_LIMIT {
            let Some(w) = self.stalls.open_at(now) else {
                return now;
            };
            now = w.end;
        }
        if self.stalls.open_at(now).is_some() {
            // Every window ends at or after its start, so the last edge
            // is the latest end.
            now = now.max(self.stalls.edges().max().unwrap_or(now));
        }
        now
    }

    /// The configured epoch length in nanoseconds.
    pub fn epoch_ns(&self) -> Ns {
        self.epoch_ns
    }

    /// The device parameters this ledger arbitrates for.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Weighted-byte cost of a raw request.
    #[inline]
    fn weight(&self, kind: AccessKind, pattern: Pattern, bytes: u64) -> f64 {
        let pi = match pattern {
            Pattern::Seq => 0,
            Pattern::Rand => 1,
        };
        bytes as f64 * self.weight_ratio[kind.index()][pi]
    }

    /// Index of `epoch`'s accounting bucket, extending the tracked range
    /// as needed.
    ///
    /// A stall-deferred request can replay an epoch the minimum-clock
    /// retirement already dropped; `epoch - base_epoch` would wrap.
    /// Charge the ledger base instead — the retired history is gone,
    /// so the oldest tracked epoch is the closest accounting bucket.
    #[inline]
    fn epoch_index(&mut self, epoch: u64) -> usize {
        let epoch = epoch.max(self.base_epoch);
        let idx = (epoch - self.base_epoch) as usize;
        if self.epochs.len() <= idx {
            self.epochs.resize(idx + 1, EpochUse::default());
        }
        idx
    }

    /// The budget of an epoch for a request of the given kind: the
    /// interference curve at the epoch's weighted-write share — `u.cap`
    /// once anything was granted; for an untouched epoch the share is 1
    /// or 0 depending on whether the pending request writes.
    #[inline]
    fn cap_of(&self, u: &EpochUse, is_write: bool) -> f64 {
        if u.weighted <= 0.0 {
            self.fresh_cap[usize::from(is_write)]
        } else {
            u.cap
        }
    }

    /// Charges `take > 0` weighted bytes to bucket `idx` and stores the
    /// budget the new totals give.
    #[inline(always)]
    fn charge(&mut self, idx: usize, take: f64, is_write: bool) {
        let u = &mut self.epochs[idx];
        u.weighted += take;
        if is_write {
            u.weighted_write += take;
        }
        let share = u.weighted_write / u.weighted;
        u.cap = (self.base_budget * self.params.interference_factor(share)).max(1.0);
    }

    /// Grants bandwidth for a request starting at `now` and returns the
    /// simulated completion time of the transfer (excluding latency, which
    /// the caller adds once per request).
    ///
    /// Zero-byte requests complete immediately.
    #[inline]
    pub fn grant(&mut self, now: Ns, kind: AccessKind, pattern: Pattern, bytes: u64) -> Ns {
        if bytes == 0 {
            return now;
        }
        // The fast path (module docs): no window to defer past or to
        // inflate the cost, the cached epoch, a tracked bucket, and a
        // request that fits it.
        if now.wrapping_sub(self.calm.0) < self.calm.1
            && now.wrapping_sub(self.last_epoch_start) < self.epoch_ns
            && self.last_epoch >= self.base_epoch
        {
            let idx = (self.last_epoch - self.base_epoch) as usize;
            if let Some(&u) = self.epochs.get(idx) {
                let is_write = kind.is_write();
                let remaining = self.weight(kind, pattern, bytes);
                let cap = self.cap_of(&u, is_write);
                let used = u.weighted;
                if remaining > 0.0 && remaining <= (cap - used).max(0.0) {
                    self.grants += 1;
                    self.charge(idx, remaining, is_write);
                    let frac = ((used + remaining) / cap).min(1.0);
                    let completion = self.last_epoch_start + (frac * self.epoch_f) as Ns;
                    return completion.max(now);
                }
            }
        }
        self.grant_slow(now, kind, pattern, bytes)
    }

    /// Every grant the fast path declines: a start inside or next to a
    /// fault window, a new epoch, a request that spills into later ones.
    #[inline(never)]
    fn grant_slow(&mut self, now: Ns, kind: AccessKind, pattern: Pattern, bytes: u64) -> Ns {
        self.grants += 1;
        let now = self.defer_past_stalls(now);
        let mut remaining = self.weight(kind, pattern, bytes) * self.collapses.scale(1.0, now);
        if now.wrapping_sub(self.calm.0) >= self.calm.1 {
            self.calm = self.calm_around(now);
        }
        let epoch_of_now = if now.wrapping_sub(self.last_epoch_start) < self.epoch_ns {
            self.last_epoch
        } else {
            let e = now / self.epoch_ns;
            self.last_epoch = e;
            self.last_epoch_start = e * self.epoch_ns;
            e
        };
        let start_epoch = epoch_of_now.max(self.base_epoch);
        let mut completion = now;
        let is_write = kind.is_write();
        // Every epoch in the range is ≥ `base_epoch` (the start is clamped
        // and the base cannot advance mid-grant), so the accounting bucket
        // is resolved once per iteration.
        for epoch in start_epoch..start_epoch + MAX_GRANT_EPOCHS {
            let idx = self.epoch_index(epoch);
            let u = self.epochs[idx];
            let cap = self.cap_of(&u, is_write);
            let used = u.weighted;
            let avail = (cap - used).max(0.0);
            let take = remaining.min(avail);
            if take > 0.0 {
                self.charge(idx, take, is_write);
                remaining -= take;
                let frac = ((used + take) / cap).min(1.0);
                completion = epoch * self.epoch_ns + (frac * self.epoch_f) as Ns;
            }
            if remaining <= 1e-9 {
                break;
            }
        }
        debug_assert!(
            remaining <= 1e-9,
            "grant of {bytes} B at {now} ns still owes {remaining} weighted bytes after \
             {MAX_GRANT_EPOCHS} epochs: the device's bandwidth or the epoch length is misconfigured"
        );
        completion.max(now)
    }

    /// The largest interval around `now` free of fault-window edges, as
    /// `(start, length)`; empty when a window is open at `now`.
    fn calm_around(&self, now: Ns) -> (Ns, Ns) {
        let windows = self.windows();
        if windows.iter().any(|w| w.open_at(now).is_some()) {
            return (0, 0);
        }
        let before = windows
            .iter()
            .flat_map(|w| w.edges())
            .filter(|&edge| edge <= now);
        let lo = before.max().unwrap_or(0);
        let next = windows.iter().filter_map(|w| w.next_edge(now)).min();
        (lo, next.unwrap_or(Ns::MAX) - lo)
    }

    /// Drops accounting for epochs that end before `ns`.
    ///
    /// Call this periodically with the minimum clock over all simulated
    /// threads to bound memory usage; requests never arrive before that
    /// point.
    pub fn retire_before(&mut self, ns: Ns) {
        let floor = ns / self.epoch_ns;
        while self.base_epoch < floor && !self.epochs.is_empty() {
            self.epochs.pop_front();
            self.base_epoch += 1;
        }
        if self.epochs.is_empty() {
            self.base_epoch = self.base_epoch.max(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceParams;
    use crate::fault::FaultWindow;

    fn nvm_ledger() -> Ledger {
        Ledger::new(DeviceParams::optane(), 50_000)
    }

    /// Stall windows `[start, end)`.
    fn stalls(ws: &[(Ns, Ns)]) -> Windows {
        ws.iter()
            .map(|&(start, end)| (FaultWindow { start, end }, 1.0))
            .collect()
    }

    #[test]
    fn zero_bytes_completes_instantly() {
        let mut l = nvm_ledger();
        assert_eq!(l.grant(123, AccessKind::Read, Pattern::Seq, 0), 123);
    }

    #[test]
    fn small_request_completes_within_epoch() {
        let mut l = nvm_ledger();
        let done = l.grant(0, AccessKind::Read, Pattern::Seq, 64);
        assert!(done < l.epoch_ns());
    }

    #[test]
    fn saturating_requests_spill_into_later_epochs() {
        let mut l = nvm_ledger();
        // Budget per epoch ≈ 38 B/ns * 50_000 ns = 1.9 MB of seq reads.
        let big = 4 * 1024 * 1024;
        let done = l.grant(0, AccessKind::Read, Pattern::Seq, big);
        assert!(done >= l.epoch_ns(), "4 MB must not fit in one epoch");
        // A second request issued at t=0 now queues behind the first.
        let done2 = l.grant(0, AccessKind::Read, Pattern::Seq, big);
        assert!(done2 > done);
    }

    #[test]
    fn writes_cost_more_weighted_budget_than_reads() {
        let mut l = nvm_ledger();
        let r = l.grant(0, AccessKind::Read, Pattern::Seq, 1 << 20);
        let mut l2 = nvm_ledger();
        let w = l2.grant(0, AccessKind::Write, Pattern::Seq, 1 << 20);
        assert!(w > r, "seq write ({w}) should outlast seq read ({r})");
        let mut l3 = nvm_ledger();
        let rw = l3.grant(0, AccessKind::Write, Pattern::Rand, 1 << 20);
        assert!(rw > w, "random write ({rw}) should outlast seq write ({w})");
    }

    #[test]
    fn nt_writes_beat_regular_seq_writes() {
        let mut l = nvm_ledger();
        let w = l.grant(0, AccessKind::Write, Pattern::Seq, 8 << 20);
        let mut l2 = nvm_ledger();
        let nt = l2.grant(0, AccessKind::NtWrite, Pattern::Seq, 8 << 20);
        assert!(nt < w);
    }

    #[test]
    fn write_traffic_slows_down_concurrent_reads() {
        // Reads alone.
        let mut l = nvm_ledger();
        let read_alone = l.grant(0, AccessKind::Read, Pattern::Seq, 2 << 20);
        // Reads after the epoch already absorbed writes.
        let mut l2 = nvm_ledger();
        l2.grant(0, AccessKind::Write, Pattern::Rand, 256 << 10);
        let read_mixed = l2.grant(0, AccessKind::Read, Pattern::Seq, 2 << 20);
        assert!(
            read_mixed > read_alone + read_alone / 2,
            "mixed {read_mixed} vs alone {read_alone}"
        );
    }

    #[test]
    fn retire_before_bounds_memory() {
        let mut l = nvm_ledger();
        for t in 0..100 {
            l.grant(t * 50_000, AccessKind::Read, Pattern::Seq, 1 << 10);
        }
        assert!(l.epochs.len() >= 100);
        l.retire_before(99 * 50_000);
        assert!(l.epochs.len() <= 2);
        // Requests still work after retirement.
        let done = l.grant(99 * 50_000, AccessKind::Read, Pattern::Seq, 64);
        assert!(done >= 99 * 50_000);
    }

    #[test]
    fn completion_never_precedes_start() {
        let mut l = nvm_ledger();
        for i in 0..1000u64 {
            let now = i * 137;
            let done = l.grant(now, AccessKind::Write, Pattern::Rand, 64);
            assert!(done >= now);
        }
    }

    /// A fault-free ledger's completion of a 64 B read granted at `at`.
    fn healthy_read(at: Ns) -> Ns {
        nvm_ledger().grant(at, AccessKind::Read, Pattern::Seq, 64)
    }

    #[test]
    fn stall_window_defers_grants_past_its_end() {
        let mut l = nvm_ledger();
        l.set_faults(stalls(&[(0, 10_000)]), Windows::default());
        // Granted exactly as a healthy device grants it at the window end.
        let done = l.grant(5_000, AccessKind::Read, Pattern::Seq, 64);
        assert_eq!(done, healthy_read(10_000));
        // Outside the window nothing happens.
        let d2 = l.grant(20_000, AccessKind::Read, Pattern::Seq, 64);
        assert!((20_000..21_000).contains(&d2));
    }

    #[test]
    fn chained_stalls_exhaust_retry_budget_gracefully() {
        // `n` back-to-back windows from 0: each deferral lands exactly at
        // the start of the next one. A later, disjoint window ends at
        // 30 µs.
        let chained = |n: u64| {
            let mut ws: Vec<(Ns, Ns)> = (0..n).map(|i| (i * 1_000, (i + 1) * 1_000)).collect();
            ws.push((20_000, 30_000));
            let mut l = nvm_ledger();
            l.set_faults(stalls(&ws), Windows::default());
            l.grant(0, AccessKind::Read, Pattern::Seq, 64)
        };
        // Within the retry budget the grant walks the chain window by
        // window and starts where it ends.
        let limit = u64::from(STALL_RETRY_LIMIT);
        assert_eq!(chained(limit), healthy_read(limit * 1_000));
        // One window more and the budget runs out inside the chain: the
        // grant jumps past the last stall end of the whole set.
        assert_eq!(chained(limit + 1), healthy_read(30_000));
    }

    #[test]
    fn collapse_window_inflates_grant_cost() {
        let mut l = nvm_ledger();
        let collapses = [(
            FaultWindow {
                start: 0,
                end: 1_000_000_000,
            },
            4.0,
        )];
        l.set_faults(Windows::default(), collapses.into_iter().collect());
        // A 4x collapse costs what a request 4x the size costs.
        let collapsed = l.grant(0, AccessKind::Read, Pattern::Seq, 1 << 20);
        let fourfold = nvm_ledger().grant(0, AccessKind::Read, Pattern::Seq, 4 << 20);
        assert_eq!(collapsed, fourfold);
        assert!(collapsed > 3 * healthy_read(0), "collapsed {collapsed}");
    }

    #[test]
    fn stale_epoch_access_clamps_to_the_ledger_base() {
        // Regression: a replayed epoch older than the advanced base made
        // `epoch - base_epoch` wrap (debug_assert panic in debug builds,
        // a multi-gigabyte VecDeque growth loop in release builds).
        let mut l = nvm_ledger();
        l.grant(0, AccessKind::Read, Pattern::Seq, 64);
        l.retire_before(10 * l.epoch_ns());
        let idx = l.epoch_index(3); // epoch 3 < base epoch 10
        l.charge(idx, 1.0, false);
        // The charge landed on the base epoch's bucket, and the budget
        // stored beside it is the one its totals give.
        assert_eq!(l.epoch_index(10), idx);
        let u = l.epochs[idx];
        assert_eq!((u.weighted, u.cap), (1.0, l.fresh_cap[0]));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "still owes"))]
    fn a_grant_that_outlasts_the_epoch_bound_says_so() {
        // A device with next to no bandwidth: the floor of one weighted
        // byte an epoch is all it grants, so this request needs a thousand
        // epochs more than one grant may span. Debug builds panic; release
        // builds return the end of the last epoch charged, with the last
        // thousand bytes granted nowhere.
        let crawl = DeviceParams {
            bw_read_seq: 1e-6,
            ..DeviceParams::optane()
        };
        let mut l = Ledger::new(crawl, 1);
        let done = l.grant(0, AccessKind::Read, Pattern::Seq, MAX_GRANT_EPOCHS + 1_000);
        assert_eq!(done, MAX_GRANT_EPOCHS);
        assert_eq!(l.epochs.len() as u64, MAX_GRANT_EPOCHS);
    }

    #[test]
    fn next_fault_boundary_walks_every_window_edge() {
        let next = |l: &Ledger, after| l.windows().iter().filter_map(|w| w.next_edge(after)).min();
        let mut l = nvm_ledger();
        assert!(l.windows().iter().all(|w| w.is_empty()));
        assert_eq!(next(&l, 0), None);
        let collapse = FaultWindow {
            start: 1_500,
            end: 3_000,
        };
        l.set_faults(
            stalls(&[(1_000, 2_000)]),
            [(collapse, 4.0)].into_iter().collect(),
        );
        assert_eq!(next(&l, 0), Some(1_000));
        assert_eq!(next(&l, 1_000), Some(1_500));
        assert_eq!(next(&l, 1_500), Some(2_000));
        assert_eq!(next(&l, 2_000), Some(3_000));
        assert_eq!(next(&l, 3_000), None);
    }

    #[test]
    fn stalled_request_replayed_across_a_base_advance_is_granted() {
        // A request that was deferred by a stall window and then replayed
        // after the minimum-clock retirement advanced the base must be
        // granted at (or after) the base epoch, never panic or wrap.
        let mut l = nvm_ledger();
        l.set_faults(stalls(&[(0, 2 * 50_000)]), Windows::default());
        l.retire_before(10 * 50_000);
        let done = l.grant(0, AccessKind::Write, Pattern::Rand, 4 << 10);
        assert!(done >= 2 * 50_000, "deferred past the stall: {done}");
        // Replaying the original (now pre-base) start time still works.
        let done2 = l.grant(0, AccessKind::Write, Pattern::Rand, 4 << 10);
        assert!(done2 >= done);
    }

    /// `grant` as it was before the fast path and the stored `cap`, kept
    /// verbatim as the reference the replacement is checked against. It
    /// shares the ledger's fields and every other method, and neither
    /// reads nor writes `EpochUse::cap`.
    mod reference {
        use super::super::{AccessKind, EpochUse, Ledger, Ns, Pattern};

        fn write_share(u: &EpochUse, kind: AccessKind) -> f64 {
            if u.weighted <= 0.0 {
                if kind.is_write() {
                    1.0
                } else {
                    0.0
                }
            } else {
                u.weighted_write / u.weighted
            }
        }

        pub fn grant(
            l: &mut Ledger,
            now: Ns,
            kind: AccessKind,
            pattern: Pattern,
            bytes: u64,
        ) -> Ns {
            if bytes == 0 {
                return now;
            }
            l.grants += 1;
            let now = l.defer_past_stalls(now);
            let mut remaining = l.weight(kind, pattern, bytes) * l.collapses.scale(1.0, now);
            let epoch_of_now = if now.wrapping_sub(l.last_epoch_start) < l.epoch_ns {
                l.last_epoch
            } else {
                let e = now / l.epoch_ns;
                l.last_epoch = e;
                l.last_epoch_start = e * l.epoch_ns;
                e
            };
            let start_epoch = epoch_of_now.max(l.base_epoch);
            let mut completion = now;
            let base_budget = l.params.bw_read_seq * l.epoch_ns as f64;
            let is_write = kind.is_write();
            for epoch in start_epoch..start_epoch + 1_000_000 {
                let idx = l.epoch_index(epoch);
                let u = l.epochs[idx];
                let cap =
                    (base_budget * l.params.interference_factor(write_share(&u, kind))).max(1.0);
                let used = u.weighted;
                let avail = (cap - used).max(0.0);
                let take = remaining.min(avail);
                if take > 0.0 {
                    let u = &mut l.epochs[idx];
                    u.weighted += take;
                    if is_write {
                        u.weighted_write += take;
                    }
                    remaining -= take;
                    let frac = ((used + take) / cap).min(1.0);
                    completion = epoch * l.epoch_ns + (frac * l.epoch_ns as f64) as Ns;
                }
                if remaining <= 1e-9 {
                    break;
                }
            }
            completion.max(now)
        }
    }

    use proptest::prelude::*;

    const EPOCH: Ns = 1_000;

    /// One scripted ledger operation. Times are relative to the script's
    /// clock, which every grant moves to its own start time.
    #[derive(Debug, Clone)]
    enum Op {
        /// A grant `dt` after the clock, or (`back`) before it.
        Grant {
            dt: Ns,
            back: bool,
            req: (u8, bool, u64),
        },
        /// A grant one before, at, or one after (`nudge` 0, 1, 2) the
        /// `n`th edge of the installed windows.
        GrantAtEdge {
            n: usize,
            nudge: Ns,
            req: (u8, bool, u64),
        },
        /// `retire_before(clock + ahead - 2 * EPOCH)`.
        Retire { ahead: Ns },
        /// `set_faults` with stall windows `(offset, length)` and collapse
        /// windows `(offset, length, factor)`.
        Faults {
            stalls: Vec<(Ns, Ns)>,
            collapses: Vec<(Ns, Ns, u8)>,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // `(kind, random pattern, bytes)`: from one byte to bulks of
        // several epochs (an epoch of the NVM device is 38 KB of reads).
        let req = || {
            let bytes = prop_oneof![1..9u64, 1..4_097u64, 30_000..400_000u64];
            (0..3u8, any::<bool>(), bytes)
        };
        let grant = || {
            (0..3 * EPOCH, 0..4u8, req()).prop_map(|(dt, back, req)| Op::Grant {
                dt,
                back: back == 0,
                req,
            })
        };
        let stalls = prop::collection::vec((0..4 * EPOCH, 1..2 * EPOCH), 0..3);
        let collapses = prop::collection::vec((0..4 * EPOCH, 1..2 * EPOCH, 0..6u8), 0..3);
        prop_oneof![
            // Half the ops are plain grants.
            grant(),
            grant(),
            grant(),
            grant(),
            grant(),
            (0..12usize, 0..3u64, req()).prop_map(|(n, nudge, req)| Op::GrantAtEdge {
                n,
                nudge,
                req
            }),
            (0..12usize, 0..3u64, req()).prop_map(|(n, nudge, req)| Op::GrantAtEdge {
                n,
                nudge,
                req
            }),
            (0..4 * EPOCH).prop_map(|ahead| Op::Retire { ahead }),
            (stalls, collapses).prop_map(|(stalls, collapses)| Op::Faults { stalls, collapses }),
            Just(Op::Retire { ahead: 0 }),
        ]
    }

    /// Everything the ledger can show: the grant count, the tracked
    /// range, and the bit patterns of every tracked epoch's totals.
    fn observed(l: &Ledger) -> String {
        let bits = |u: &EpochUse| (u.weighted.to_bits(), u.weighted_write.to_bits());
        let epochs: Vec<(u64, u64)> = l.epochs.iter().map(bits).collect();
        format!(
            "{} grants, base epoch {}, totals {epochs:x?}",
            l.grants(),
            l.base_epoch
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fast path, the stored `cap` and the calm interval change
        /// no bit of any completion time, counter or epoch total.
        #[test]
        fn grant_equals_reference(
            ops in prop::collection::vec(arb_op(), 1..401),
            dram in any::<bool>(),
        ) {
            let params = if dram { DeviceParams::dram() } else { DeviceParams::optane() };
            let mut new = Ledger::new(params, EPOCH);
            let mut old = new.clone();
            let mut clock: Ns = 0;
            let mut edges: Vec<Ns> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let grant_at = match *op {
                    Op::Grant { dt, back, req } => {
                        Some((if back { clock.saturating_sub(dt) } else { clock + dt }, req))
                    }
                    Op::GrantAtEdge { n, nudge, req } => {
                        let edge = edges.get(n % edges.len().max(1)).copied().unwrap_or(clock);
                        Some(((edge + nudge).saturating_sub(1), req))
                    }
                    Op::Retire { ahead } => {
                        let ns = (clock + ahead).saturating_sub(2 * EPOCH);
                        new.retire_before(ns);
                        old.retire_before(ns);
                        None
                    }
                    Op::Faults { ref stalls, ref collapses } => {
                        let window = |off: Ns, len: Ns| FaultWindow { start: clock + off, end: clock + off + len };
                        let stalls: Windows =
                            stalls.iter().map(|&(off, len)| (window(off, len), 1.0)).collect();
                        // Factors 0.5 (clamped to 1), 1, 1.5, … 3.
                        let collapses: Windows = collapses
                            .iter()
                            .map(|&(off, len, f)| (window(off, len), 0.5 + f64::from(f) * 0.5))
                            .collect();
                        edges = stalls.edges().chain(collapses.edges()).collect();
                        new.set_faults(stalls.clone(), collapses.clone());
                        old.set_faults(stalls, collapses);
                        None
                    }
                };
                if let Some((now, (kind, rand, bytes))) = grant_at {
                    clock = now;
                    let kind = [AccessKind::Read, AccessKind::Write, AccessKind::NtWrite][kind as usize];
                    let pattern = if rand { Pattern::Rand } else { Pattern::Seq };
                    prop_assert_eq!(
                        new.grant(now, kind, pattern, bytes),
                        reference::grant(&mut old, now, kind, pattern, bytes),
                        "op {}: {:?} at {}", i, op, now
                    );
                }
                prop_assert_eq!(observed(&new), observed(&old), "after op {}: {:?}", i, op);
            }
        }
    }
}
