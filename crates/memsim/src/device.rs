//! Device identities and calibrated performance parameters.
//!
//! The default parameter sets are calibrated against the published Optane
//! DC PM measurements the paper cites (Izraelevitz et al., arXiv 1903.05714;
//! Yang et al., FAST '20), for a single socket with six interleaved DIMMs.

use serde::{Deserialize, Serialize};

/// Identifies one of the two memory devices in the hybrid system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceId {
    /// Conventional DRAM DIMMs.
    Dram,
    /// Non-volatile memory (Optane DC PM-like), used for capacity only.
    Nvm,
}

impl DeviceId {
    /// Index of the device in per-device arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            DeviceId::Dram => 0,
            DeviceId::Nvm => 1,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceId::Dram => "dram",
            DeviceId::Nvm => "nvm",
        }
    }
}

/// The direction/flavour of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A regular (cacheable) store.
    Write,
    /// A non-temporal store that bypasses the cache hierarchy.
    NtWrite,
}

impl AccessKind {
    /// Whether this access counts as write traffic at the device.
    #[inline]
    pub fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    /// Index of the kind in per-kind lookup tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::NtWrite => 2,
        }
    }
}

/// The spatial pattern of an access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// Streaming over contiguous addresses.
    Seq,
    /// Pointer-chasing / scattered addresses.
    Rand,
}

/// Calibrated performance parameters for one memory device.
///
/// Bandwidth fields are in bytes per nanosecond, which conveniently equals
/// GB/s (1 GB/s = 10⁹ B / 10⁹ ns). Latency fields are in nanoseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Human-readable device name.
    pub name: String,
    /// Idle random-read latency (one cache line, uncached).
    pub lat_read_rand_ns: f64,
    /// Idle sequential-read latency (amortized; prefetchers hide most).
    pub lat_read_seq_ns: f64,
    /// Store completion latency (to the write queue / WPQ).
    pub lat_write_ns: f64,
    /// Peak sequential read bandwidth (all threads), GB/s.
    pub bw_read_seq: f64,
    /// Peak random 64 B read bandwidth (all threads), GB/s.
    pub bw_read_rand: f64,
    /// Peak sequential regular-store bandwidth (all threads), GB/s.
    pub bw_write_seq: f64,
    /// Peak random 64 B regular-store bandwidth (all threads), GB/s.
    pub bw_write_rand: f64,
    /// Peak sequential non-temporal store bandwidth (all threads), GB/s.
    pub bw_write_nt: f64,
    /// Maximum read bandwidth achievable by a single thread, GB/s.
    pub bw_thread_read: f64,
    /// Maximum write bandwidth achievable by a single thread, GB/s.
    pub bw_thread_write: f64,
    /// Maximum non-temporal store bandwidth achievable by a single
    /// thread, GB/s (NT stores avoid read-for-ownership and sustain much
    /// more per-core write bandwidth on Optane).
    pub bw_thread_write_nt: f64,
    /// Read/write interference coefficient `k`: the total device bandwidth
    /// is scaled by `1 / (1 + k·w)` where `w` is the write share of the
    /// weighted traffic in the current epoch. NVM uses a large `k` —
    /// this single knob produces the bandwidth collapse of Fig. 2b.
    pub interference: f64,
}

impl DeviceParams {
    /// Parameters for a DDR4 DRAM socket (6 channels).
    pub fn dram() -> Self {
        DeviceParams {
            name: "dram-ddr4-6ch".to_owned(),
            lat_read_rand_ns: 81.0,
            lat_read_seq_ns: 9.0,
            lat_write_ns: 12.0,
            bw_read_seq: 102.0,
            bw_read_rand: 38.0,
            bw_write_seq: 76.0,
            bw_write_rand: 30.0,
            bw_write_nt: 58.0,
            bw_thread_read: 10.5,
            bw_thread_write: 8.0,
            bw_thread_write_nt: 12.0,
            interference: 0.25,
        }
    }

    /// Parameters for a 6-DIMM interleaved Optane DC PM socket.
    pub fn optane() -> Self {
        DeviceParams {
            name: "optane-dcpmm-6dimm".to_owned(),
            lat_read_rand_ns: 305.0,
            lat_read_seq_ns: 36.0,
            lat_write_ns: 94.0,
            bw_read_seq: 38.0,
            bw_read_rand: 10.2,
            bw_write_seq: 11.3,
            bw_write_rand: 5.2,
            bw_write_nt: 13.8,
            bw_thread_read: 5.8,
            bw_thread_write: 1.6,
            bw_thread_write_nt: 4.6,
            interference: 1.55,
        }
    }

    /// Parameters for Optane accessed from the *remote* NUMA socket.
    ///
    /// The paper binds every experiment to a single socket with `numactl`
    /// because "cross-NUMA NVM accesses will induce prohibitive overhead"
    /// (§5.1). These parameters quantify that: roughly +70 % latency and a
    /// fraction of the local bandwidth (UPI-limited), consistent with the
    /// published cross-socket Optane measurements.
    pub fn optane_remote() -> Self {
        let local = DeviceParams::optane();
        DeviceParams {
            name: "optane-dcpmm-remote-socket".to_owned(),
            lat_read_rand_ns: local.lat_read_rand_ns * 1.7,
            lat_read_seq_ns: local.lat_read_seq_ns * 1.7,
            lat_write_ns: local.lat_write_ns * 1.4,
            bw_read_seq: local.bw_read_seq * 0.55,
            bw_read_rand: local.bw_read_rand * 0.45,
            bw_write_seq: local.bw_write_seq * 0.45,
            bw_write_rand: local.bw_write_rand * 0.4,
            bw_write_nt: local.bw_write_nt * 0.45,
            bw_thread_read: local.bw_thread_read * 0.6,
            bw_thread_write: local.bw_thread_write * 0.6,
            bw_thread_write_nt: local.bw_thread_write_nt * 0.6,
            interference: local.interference * 1.3,
        }
    }

    /// The bandwidth (GB/s) this device sustains for a given access kind
    /// and pattern, before interference scaling.
    pub fn bandwidth(&self, kind: AccessKind, pattern: Pattern) -> f64 {
        match (kind, pattern) {
            (AccessKind::Read, Pattern::Seq) => self.bw_read_seq,
            (AccessKind::Read, Pattern::Rand) => self.bw_read_rand,
            (AccessKind::Write, Pattern::Seq) => self.bw_write_seq,
            (AccessKind::Write, Pattern::Rand) => self.bw_write_rand,
            // NT stores to scattered addresses degrade to random stores.
            (AccessKind::NtWrite, Pattern::Seq) => self.bw_write_nt,
            (AccessKind::NtWrite, Pattern::Rand) => self.bw_write_rand,
        }
    }

    /// The per-thread bandwidth ceiling for an access kind, GB/s.
    pub fn thread_bandwidth(&self, kind: AccessKind) -> f64 {
        match kind {
            AccessKind::Read => self.bw_thread_read,
            AccessKind::Write => self.bw_thread_write,
            AccessKind::NtWrite => self.bw_thread_write_nt,
        }
    }

    /// Access latency in nanoseconds for a kind/pattern combination.
    pub fn latency(&self, kind: AccessKind, pattern: Pattern) -> f64 {
        match (kind, pattern) {
            (AccessKind::Read, Pattern::Rand) => self.lat_read_rand_ns,
            (AccessKind::Read, Pattern::Seq) => self.lat_read_seq_ns,
            _ => self.lat_write_ns,
        }
    }

    /// Interference scale factor for a write share `w ∈ [0, 1]` of the
    /// weighted epoch traffic.
    #[inline]
    pub fn interference_factor(&self, write_share: f64) -> f64 {
        let w = write_share.clamp(0.0, 1.0);
        1.0 / (1.0 + self.interference * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvm_is_slower_than_dram_everywhere() {
        let d = DeviceParams::dram();
        let n = DeviceParams::optane();
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::NtWrite] {
            for pat in [Pattern::Seq, Pattern::Rand] {
                assert!(
                    n.bandwidth(kind, pat) < d.bandwidth(kind, pat),
                    "{kind:?}/{pat:?}"
                );
                assert!(n.latency(kind, pat) > d.latency(kind, pat) * 0.99);
            }
        }
    }

    #[test]
    fn nvm_bandwidth_is_asymmetric() {
        let n = DeviceParams::optane();
        assert!(n.bw_read_seq > 2.0 * n.bw_write_nt);
        assert!(n.bw_write_nt > n.bw_write_seq);
    }

    #[test]
    fn interference_collapses_nvm_bandwidth() {
        let n = DeviceParams::optane();
        let pure_read = n.interference_factor(0.0);
        let half = n.interference_factor(0.5);
        assert!((pure_read - 1.0).abs() < 1e-12);
        // At a 50 % write share the NVM loses a large share of its
        // effective bandwidth — the collapse the paper observes — while
        // DRAM barely notices.
        assert!(half < 0.6, "factor at w=0.5 is {half}");
        let d = DeviceParams::dram();
        assert!(d.interference_factor(0.5) > half + 0.25);
    }

    #[test]
    fn interference_clamps_out_of_range_shares() {
        let n = DeviceParams::optane();
        assert_eq!(n.interference_factor(-3.0), n.interference_factor(0.0));
        assert_eq!(n.interference_factor(7.0), n.interference_factor(1.0));
    }

    #[test]
    fn random_nt_writes_degrade_to_random_store_bandwidth() {
        let n = DeviceParams::optane();
        assert_eq!(
            n.bandwidth(AccessKind::NtWrite, Pattern::Rand),
            n.bandwidth(AccessKind::Write, Pattern::Rand)
        );
    }

    #[test]
    fn remote_socket_nvm_is_strictly_worse() {
        let local = DeviceParams::optane();
        let remote = DeviceParams::optane_remote();
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::NtWrite] {
            for pat in [Pattern::Seq, Pattern::Rand] {
                assert!(remote.bandwidth(kind, pat) < local.bandwidth(kind, pat));
                assert!(remote.latency(kind, pat) > local.latency(kind, pat));
            }
        }
    }

    #[test]
    fn thread_ceiling_saturates_around_eight_threads_on_nvm() {
        // The paper's Fig. 2c: NVM GC stops scaling near 8 threads. The
        // device cap divided by the per-thread ceiling must land there.
        let n = DeviceParams::optane();
        let read_threads = n.bw_read_seq / n.bw_thread_read;
        let write_threads = n.bw_write_seq / n.bw_thread_write;
        assert!((5.0..11.0).contains(&read_threads), "{read_threads}");
        assert!((5.0..11.0).contains(&write_threads), "{write_threads}");
        // DRAM keeps scaling noticeably further.
        let d = DeviceParams::dram();
        assert!(d.bw_read_seq / d.bw_thread_read > read_threads);
    }
}
