//! # ni-soc — full-node assembly of the manycore-NI simulator
//!
//! Wires every substrate into the evaluated node: 64 ARM-like cores with
//! L1+NI-cache complexes, a block-interleaved NUCA LLC with directory banks,
//! memory controllers, the RMC pipelines in any of the paper's three
//! placements (plus the idealized NUMA baseline), a mesh or NOC-Out
//! interconnect, the chip-to-chip network router, and the rate-matching
//! rack emulator (§5 methodology).
//!
//! [`chip::Chip`] is the cycle-stepped top level; [`mod@bench`] contains the
//! experiment drivers (synchronous latency, asynchronous bandwidth) used by
//! the benchmark harness to regenerate the paper's tables and figures.
//!
//! The chip's network router hands rack traffic to a pluggable
//! [`ni_fabric::Fabric`]: single-node runs keep the paper's rate-matching
//! emulator, while [`rack::Rack`] instantiates N full chips in lock step
//! over a real [`ni_fabric::TorusFabric`] — actual hop-by-hop multi-node
//! simulation with per-link bandwidth accounting.
//!
//! Workload generation is the open [`scenario::Scenario`] trait: a seeded
//! per-core operation generator consumed uniformly by the single-chip and
//! multi-node paths. Four built-ins ship with the crate
//! ([`scenario::Synthetic`], [`scenario::ZipfHotspot`],
//! [`scenario::KvStore`], [`scenario::GraphShard`]); the pre-scenario
//! [`core_model::Workload`]/[`rack::TrafficPattern`] enums survive as
//! [`scenario::Synthetic`]'s parameter vocabulary and thin constructors.

#![warn(missing_docs)]

pub mod bench;
pub mod chip;
pub mod config;
pub mod core_model;
pub mod rack;
pub mod scenario;
pub mod snapshot;

pub use bench::{
    run_bandwidth, run_sync_latency, run_sync_write_latency, run_write_bandwidth, stage_breakdown,
    BandwidthResult, LatencyResult, StageBreakdown,
};
pub use chip::{Chip, ChipMsg, Visits};
pub use config::{ChipConfig, TickMode, Topology};
pub use core_model::{Core, CoreStats, Workload, REMOTE_BASE};
pub use ni_fabric::RoutingKind;
pub use rack::{Rack, RackSimConfig, TrafficPattern};
pub use scenario::{
    builtin_scenarios, core_seed, Bursty, Capped, ClosedLoop, GraphShard, KvStore, Op, OpCtx,
    Scenario, Synthetic, TenantMix, TenantSpec, Zipf, ZipfHotspot,
};
pub use snapshot::{QpStats, Snapshot, Work};
