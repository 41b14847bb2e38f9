//! # rackni — manycore network interfaces for in-memory rack-scale computing
//!
//! A from-scratch, cycle-level reproduction of Daglis et al., *Manycore
//! Network Interfaces for In-Memory Rack-Scale Computing* (ISCA 2015): the
//! NIedge / NIper-tile / NIsplit design space for integrating soNUMA-style
//! Remote Memory Controllers into 64-core tiled SoCs.
//!
//! ## Quickstart
//!
//! ```
//! use rackni::prelude::*;
//!
//! // One synchronous 64B remote read on the NIsplit design, 1 network hop.
//! let cfg = ChipConfig::default();
//! let r = run_sync_latency(cfg, 64, 3);
//! assert!(r.mean_cycles > 0.0);
//! ```
//!
//! ## Layers
//!
//! * [`ni_engine`] — simulation kernel (cycles, queues, statistics).
//! * [`ni_noc`] — mesh and NOC-Out interconnects, CDR routing variants.
//! * [`ni_coherence`] — directory MESI with the paper's NI-cache integration.
//! * [`ni_mem`] — memory controllers and the physical address space.
//! * [`ni_qp`] — soNUMA queue pairs.
//! * [`ni_rmc`] — RGP/RCP/RRPP pipelines and the frontend/backend split.
//! * [`ni_fabric`] — 3D-torus rack and the rate-matching remote emulator.
//! * [`ni_soc`] — the assembled node and microbenchmark drivers.
//! * [`experiments`] — one entry point per table/figure of the paper.
//! * [`paper`] — the published numbers, for side-by-side comparison.

pub mod experiments;
pub mod paper;
pub mod report;

pub use ni_coherence;
pub use ni_engine;
pub use ni_fabric;
pub use ni_mem;
pub use ni_metrics;
pub use ni_noc;
pub use ni_qp;
pub use ni_rmc;
pub use ni_soc;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use ni_engine::{Cycle, Frequency};
    pub use ni_fabric::{
        Fabric, FaultPlan, ReplicaCfg, RoutingKind, Torus3D, TorusFabric, TorusFabricConfig,
    };
    // `RoutingPolicy` here is the *on-chip* CDR routing enum; the rack-level
    // torus routing trait is `ni_fabric::RoutingPolicy` (named by
    // `RoutingKind` in configs).
    pub use ni_metrics::{interference_index, SloSummary, TenantAccum, TenantStats};
    pub use ni_noc::RoutingPolicy;
    pub use ni_rmc::NiPlacement;
    pub use ni_soc::{
        builtin_scenarios, run_bandwidth, run_sync_latency, BandwidthResult, Chip, ChipConfig,
        ClosedLoop, GraphShard, KvStore, LatencyResult, Op, OpCtx, Rack, RackSimConfig, Scenario,
        Synthetic, TenantMix, TenantSpec, Topology, TrafficPattern, Workload, Zipf, ZipfHotspot,
    };
}
