//! # ni-noc — on-chip interconnect models for the rackni simulator
//!
//! Implements the two NOC organizations evaluated in the paper:
//!
//! * a 2D **mesh** ([`mesh::MeshNoc`]) with 16-byte links, 3-cycle routers,
//!   per-class virtual networks and the routing policies of §4.3
//!   (XY, YX, O1Turn, CDR, and the paper's modified CDR with a
//!   directory-sourced class), and
//! * **NOC-Out** ([`nocout::NocOutNoc`]), the latency-optimized scale-out
//!   topology of §6.3: a flattened butterfly connecting a row of LLC tiles,
//!   with per-column reduction/dispersion trees chaining the cores.
//!
//! Packets are modeled at virtual-cut-through granularity: per-hop router
//! latency plus link occupancy equal to the packet's flit count, which
//! preserves both zero-load latency and saturation bandwidth (the mesh
//! bisection works out to 8 links x 16 B x 2 GHz = 256 GBps per direction,
//! matching the 512 GBps bidirectional figure of §6.2).
//!
//! The payload type is generic: upper layers (coherence, RMC) define their
//! own message enums and the chip maps them onto [`MessageClass`] virtual
//! networks at injection time.

#![warn(missing_docs)]

mod bitset;
mod endpoint;
pub mod mesh;
pub mod nocout;
pub mod packet;
mod router;
pub mod routing;
pub mod stats;

pub use mesh::{MeshConfig, MeshNoc};
pub use nocout::NocOutNoc;
pub use packet::{flits_for_payload, Coord, MessageClass, NocNode, Packet, FLIT_BYTES, GRID};
pub use router::RouterConfig;
pub use routing::{RouteKind, RoutingPolicy};
pub use stats::NocStats;

use ni_engine::Cycle;

/// Cycles without any progress (while packets are in flight) after which
/// either NOC's `tick` panics with a deadlock diagnostic.
pub(crate) const WATCHDOG_CYCLES: u64 = 200_000;

/// Common interface implemented by both NOC organizations so the SoC layer
/// can be topology-agnostic.
pub trait Interconnect<P> {
    /// Attempt to inject a packet at its source node. Returns the packet in
    /// `Err` when the injection port has no buffer space (backpressure).
    fn try_inject(&mut self, now: Cycle, pkt: Packet<P>) -> Result<(), Packet<P>>;

    /// Remove the next delivered packet at `node`, if any.
    fn eject(&mut self, node: NocNode) -> Option<Packet<P>>;

    /// Remove the oldest delivered packet at the lowest-indexed endpoint
    /// that holds one (its `dst` names the endpoint). Repeated calls yield
    /// exactly what ejecting every endpoint dry in endpoint-index order
    /// would, without visiting the endpoints that hold nothing.
    fn eject_next(&mut self) -> Option<Packet<P>>;

    /// Advance the interconnect by one cycle.
    fn tick(&mut self, now: Cycle);

    /// Aggregate traffic statistics.
    fn stats(&self) -> &NocStats;

    /// True when no packet is buffered or in flight anywhere.
    fn is_idle(&self) -> bool;

    /// Earliest cycle (>= `now`) at which a tick can move a packet: `None`
    /// when idle. Ticks before it are no-ops, so a caller may skip them;
    /// the default, `now` while anything is in flight, skips nothing.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        (!self.is_idle()).then_some(now)
    }
}
