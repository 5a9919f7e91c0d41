//! Forwarding-install policies (paper §3.1 step 3 / Algorithm 1).
//!
//! Three install variants share this module:
//!
//! - **header-map install** — the DRAM (or durable NVM) closed-hashing
//!   table absorbs the forwarding pointer; a full probe chain falls back
//!   to the NVM header;
//! - **volatile header install** — a checked single-word header write
//!   through [`crate::access::Gx::install_forward`] plus CAS overhead;
//! - **durable-fenced install** — either variant followed by
//!   [`durable::publish`] of its forwarding record (key CAS → value
//!   publish → fence, Sela & Petrank), so crash recovery can classify the
//!   record against the durable prefix.
//!
//! Every plan runs the same install policy; which variant executes is
//! decided by the configuration (header map active? durable?), not by
//! the plan, so a new plan inherits crash recovery unchanged.

use crate::collector::{
    race_sync, CycleShared, Worker, CAS_EXTRA_NS, RACE_SITE_DURABLE_FENCE, RACE_SITE_MAP_INSTALL,
};
use crate::durable::{self, RecordKey};
use crate::header_map::{HeaderMap, Put, PutOutcome};
use crate::oracle;
use nvmgc_heap::Addr;
use nvmgc_memsim::DeviceId;

/// How a forwarding install concluded.
pub(crate) enum InstallOutcome {
    /// The forwarding record is in place (map entry or NVM header).
    Installed,
    /// Another worker's install won the race; use its forwardee and
    /// discard our copy.
    Won(Addr),
}

/// Installs the forwarding pointer `obj → public`, selecting the
/// header-map path when the map is active and the NVM-header path
/// otherwise, with durable fencing in durable-map mode. Returns `None`
/// when a fatal error was recorded (the worker is already marked done).
pub(crate) fn install_forwarding(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    obj: Addr,
    public: Addr,
) -> Option<InstallOutcome> {
    if let Some(map) = sh.hmap {
        race_sync(w, sh, RACE_SITE_MAP_INSTALL);
        // Injected probe-chain saturation: behave exactly as if bounded
        // probing failed, charging a full chain walk, and take the
        // abort-to-fallback NVM install below (paper §4.2).
        let put = if sh.fault.hmap_saturated(w.clock) {
            Put {
                outcome: PutOutcome::Full,
                probes: map.search_bound(),
                idx: map.probe_base(obj),
            }
        } else {
            match map.put(obj, public) {
                Ok(p) => p,
                Err(e) => {
                    // A null key or value reaching the install path would
                    // silently corrupt the probe chain; surface it as a
                    // typed oracle violation in release builds too.
                    let (old, new) = (e.old, e.new);
                    sh.fail(w, oracle::OracleViolation::HeaderMapInstall { old, new });
                    return None;
                }
            }
        };
        charge_map_probes(w, sh, map, obj, put.probes);
        match put.outcome {
            PutOutcome::Installed => {
                sh.stats.hm_installs += 1;
                if sh.cfg.durable_map_active() {
                    // Durable-linearizable install (Sela & Petrank): key
                    // CAS → value publish → fence, all on NVM, stamped
                    // into the durability ledger by entry index.
                    durable_install_fence(w, sh, put.idx);
                }
            }
            PutOutcome::Existing(other) => {
                // Another worker won (cannot happen under the DES, but the
                // algorithm handles it): our copy is wasted, use theirs.
                sh.stats.hm_hits += 1;
                return Some(InstallOutcome::Won(other));
            }
            PutOutcome::Full => {
                // Bounded probing failed: install into the NVM header.
                sh.stats.hm_full += 1;
                header_install(w, sh, obj, public)?;
                if sh.cfg.durable_map_active() {
                    // The fallback install is fenced too, keyed by the
                    // from-space address, and remembered so recovery can
                    // classify it against the durable prefix.
                    sh.full_installs.push((obj, public));
                    w.clock = durable::publish(sh.mem, RecordKey::Header(obj), w.clock);
                }
            }
        }
    } else {
        header_install(w, sh, obj, public)?;
    }
    Some(InstallOutcome::Installed)
}

/// The volatile header install: a checked single-word write of the
/// forwarding pointer into `obj`'s header plus CAS overhead. `None` when
/// the header was already forwarded — double-forwarding would silently
/// lose the first forwardee, so it is recorded as a typed error.
fn header_install(w: &mut Worker, sh: &mut CycleShared<'_>, obj: Addr, public: Addr) -> Option<()> {
    match sh.gx().install_forward(w.id, obj, public, w.clock) {
        Ok(t) => w.clock = t + CAS_EXTRA_NS,
        Err(e) => {
            sh.fail(w, crate::error::accounting(e));
            return None;
        }
    }
    Some(())
}

/// The device the header map's probe/install/clear traffic is charged
/// to: DRAM normally, NVM in durable mode (the map itself lives on NVM).
pub(crate) fn map_device(sh: &CycleShared<'_>) -> DeviceId {
    if sh.cfg.durable_map_active() {
        DeviceId::Nvm
    } else {
        DeviceId::Dram
    }
}

/// Charges memory traffic for `probes` header-map probes.
pub(crate) fn charge_map_probes(
    w: &mut Worker,
    sh: &mut CycleShared<'_>,
    map: &HeaderMap,
    obj: Addr,
    probes: u32,
) {
    let dev = map_device(sh);
    let base = map.probe_base(obj);
    for k in 0..probes as u64 {
        let addr = HeaderMap::entry_addr(base.wrapping_add(k));
        w.clock = sh.mem.read_word(w.id, dev, addr, w.clock);
    }
}

/// Persistence-fences one durable-mode map install: charges the key CAS
/// and value publish as NVM stores at the entry's address, then publishes
/// the entry's record — the durable-linearizable order whose prefix crash
/// recovery replays.
fn durable_install_fence(w: &mut Worker, sh: &mut CycleShared<'_>, idx: u64) {
    race_sync(w, sh, RACE_SITE_DURABLE_FENCE);
    let (dev, entry) = (DeviceId::Nvm, HeaderMap::entry_addr(idx));
    w.clock = sh.mem.write_word(w.id, dev, entry, w.clock) + CAS_EXTRA_NS;
    w.clock = sh.mem.write_word(w.id, dev, entry + 8, w.clock);
    w.clock = durable::publish(sh.mem, RecordKey::MapEntry(idx), w.clock);
}
