//! Composable collection policies (MMTk-style plan/policy split).
//!
//! A *policy* is one reusable mechanism of a copying collection; a *plan*
//! ([`crate::plan`]) is a named selection of policies that the shared
//! cycle ([`crate::cycle`]) executes. The split keeps
//! every timing-sensitive operation in exactly one place, so the G1, PS
//! and semispace plans differ only in their declarations — and every
//! plan inherits the fault plane, the durable header map, the durable
//! allocator and the crash oracles from the shared policy code.
//!
//! - [`copy`] — copy/evacuate: where an object's bytes land (per-worker
//!   survivor regions, shared-region LABs, or one shared bump region).
//! - [`trace`] — scan/trace: the copy-and-traverse loop, work stealing,
//!   card scanning, injected worker faults.
//! - [`install`] — forwarding install: header-map, volatile NVM-header,
//!   and durable-fenced variants.
//! - [`flush`] — write-cache flush: chunked DRAM→NVM streaming with the
//!   drain-path persistence order, plus header-map cleanup.
//! - [`drain`] — safepoint allocator drain: journaling the region
//!   allocator's lower-table mutations between packets.

pub mod copy;
pub mod drain;
pub mod flush;
pub mod install;
pub mod trace;
