//! # ni-fabric — rack-scale fabric substrate
//!
//! The paper evaluates a 512-node rack connected as an 8x8x8 3D torus with
//! 35ns-per-hop links (§1, §5), but simulates *one node* in detail: remote
//! ends are emulated by a traffic generator that (a) mirrors the node's
//! outgoing request rate as incoming remote requests, address-interleaved
//! across the local RRPPs, and (b) answers the node's own requests after
//! `2 x hops x 35ns` plus the measured service latency of the local RRPPs
//! (assumed symmetric).
//!
//! This crate implements that chip ↔ rack boundary as a pluggable trait,
//! [`Fabric`], with two interchangeable backends:
//!
//! * [`rack::RackEmulator`] — the paper-faithful rate-matching emulator
//!   (single simulated node);
//! * [`torus_fabric::TorusFabric`] — a real transport carrying packets
//!   hop-by-hop between fully simulated chips over the 3D torus
//!   ([`torus::Torus3D`]), with per-directed-link occupancy counters and
//!   finite link bandwidth.
//!
//! Multi-node racks couple chips to the shared [`TorusFabric`] through
//! buffered per-node [`port::FabricPort`] endpoints, letting every chip of a
//! lock-step rack run a whole lookahead window on its own host thread while
//! the driver exchanges the port buffers deterministically between windows.
//!
//! Path selection on the torus is itself pluggable: the transport consults
//! a [`routing::RoutingPolicy`] on every hop, with deterministic dimension
//! order, congestion-aware minimal-adaptive, failure-aware adaptive, and
//! seeded random-minimal built-ins (see [`mod@routing`]).
//!
//! The transport also models failure: a deterministic [`fault::FaultPlan`]
//! schedules link/node kills (and repairs) that the [`TorusFabric`] applies
//! mid-run, with link health exposed to routing through
//! [`routing::LinkView`] (see [`mod@fault`]). The recovery side lives in
//! [`mod@replica`]: a deterministic node → replica-set placement
//! ([`replica::ReplicaMap`]) that the RMC backends rotate timed-out
//! transfers through and fan replicated writes out over.

#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
pub mod port;
pub mod rack;
pub mod replica;
pub mod routing;
pub mod torus;
pub mod torus_fabric;

pub use fabric::{Fabric, FabricStats};
pub use fault::{Axis, FaultEvent, FaultPlan};
pub use port::FabricPort;
pub use rack::{RackConfig, RackEmulator, RemoteReq, RemoteResp};
pub use replica::{ReplicaCfg, ReplicaMap};
pub use routing::{
    DimensionOrder, FaultAdaptive, LinkView, MinimalAdaptive, RandomMinimal, RoutingKind,
    RoutingPolicy, ESCAPE_HOP_BUDGET,
};
pub use torus::{Dir, ProductiveDirs, Torus3D};
pub use torus_fabric::{
    link_report_csv, link_report_json, FaultStats, LinkReport, TorusFabric, TorusFabricConfig,
};
