//! # ni-coherence — directory-based MESI coherence for the rackni simulator
//!
//! Implements the on-chip coherence substrate the paper's NI designs live
//! in: a 3-hop, invalidation-based, non-inclusive MESI protocol with an
//! inexact (non-notifying) directory distributed across the LLC banks
//! (Table 2), plus the paper's NI-cache integration (§3.4):
//!
//! * [`complex::CacheComplex`] — a tile's private L1 paired with an optional
//!   NI cache attached to the back side of the L1. The pair appears to the
//!   directory as a *single logical sharer*; blocks migrate between the two
//!   structures over a 5-cycle internal path without any directory traffic.
//!   The NI cache controller implements the paper's extra **Owned** state so
//!   a dirty CQ block can be forwarded clean to the polling core while the
//!   NI keeps the dirty copy (§3.4). The same type, with no core attached,
//!   models the NIedge cache that participates in coherence as its own tile.
//! * [`directory::DirectoryBank`] — one LLC bank plus its directory slice
//!   and memory-controller port. The directory *blocks* per cache block:
//!   requests racing an open transaction queue behind it, which preserves
//!   the exact message sequences of Fig. 2 on the critical path.
//! * A **non-caching access path** (`NcRead`/`NcWrite`) used by the RMC data
//!   pipelines (RRPP reads, RCP writes) that bypass the NI caches per §3.1.
//!
//! Controllers are interconnect-agnostic: they consume [`msg::CohMsg`]s and
//! emit [`msg::Egress`] records; the SoC layer maps those onto NOC packets
//! (or a zero-latency fabric in the protocol unit tests).

#![warn(missing_docs)]

pub mod complex;
pub mod config;
pub mod directory;
pub mod llc;
pub mod msg;

pub use complex::{
    Access, AccessKind, AccessOrigin, CacheComplex, Completion, ComplexStats, HitRun,
    NI_TRANSFER_LATENCY,
};
pub use config::CoherenceConfig;
pub use directory::{DirStats, DirectoryBank};
pub use llc::LlcArray;
pub use msg::{wire_of, ClientKind, CohMsg, Egress, WireMeta};
