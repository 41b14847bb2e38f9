//! Packets, node addressing, and virtual-network message classes.

use ni_engine::Cycle;
use std::fmt;

/// Link width in bytes (Table 2: 16-byte links).
pub const FLIT_BYTES: u32 = 16;

/// Side of the chip's square tile grid (Table 2: 64 cores on 8x8 tiles).
/// The mesh has `GRID` columns and `GRID` rows, with an NI block and a
/// memory controller per row; NOC-Out has `GRID` columns, each an LLC tile
/// with `GRID` cores, an NI block and a memory controller. Both number
/// tile `(x, y)` row-major, as `y * GRID + x`.
pub const GRID: u8 = 8;

/// Number of flits needed to carry `payload_bytes` of payload plus
/// `header_bytes` of header, minimum one flit.
///
/// ```
/// use ni_noc::flits_for_payload;
/// assert_eq!(flits_for_payload(0, 8), 1);    // control message
/// assert_eq!(flits_for_payload(64, 8), 5);   // cache-block data message
/// assert_eq!(flits_for_payload(16, 16), 2);  // soNUMA request in a NOC packet
/// ```
pub fn flits_for_payload(payload_bytes: u32, header_bytes: u32) -> u8 {
    let total = payload_bytes + header_bytes;
    (total.div_ceil(FLIT_BYTES)).max(1) as u8
}

/// Position of a tile in the mesh (column `x`, row `y`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column, 0 at the NI edge.
    pub x: u8,
    /// Row.
    pub y: u8,
}

impl Coord {
    /// Construct a coordinate.
    pub fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates.
    pub fn manhattan(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u32
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// An addressable endpoint of the on-chip interconnect.
///
/// In the mesh organization, every core tile also hosts an LLC/directory
/// bank; the NI blocks (RRPPs and RGP/RCP backends) extend the mesh on the
/// west edge and memory controllers on the east edge, each with a dedicated
/// router port (Fig. 2 of the paper). In NOC-Out, the LLC tiles are separate
/// [`NocNode::Llc`] nodes on the flattened butterfly (§6.3, Fig. 8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NocNode {
    /// A core tile.
    Tile(Coord),
    /// A NOC-Out LLC tile (column index). Mesh chips do not use this.
    Llc(u8),
    /// An NI block attached west of mesh row `r` (RRPP + backends).
    NiBlock(u8),
    /// A memory controller attached east of row `r` (mesh) or on the
    /// flattened butterfly (NOC-Out).
    Mc(u8),
}

impl NocNode {
    /// Convenience constructor for a tile node.
    pub fn tile(x: u8, y: u8) -> NocNode {
        NocNode::Tile(Coord::new(x, y))
    }
}

/// Virtual-network classes. Each class gets its own buffers end to end so
/// protocol messages of different kinds can never block one another
/// (protocol-deadlock avoidance), and so routing policies can be assigned
/// per class (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageClass {
    /// Coherence requests from L1/NI caches to a directory (GetS/GetX/Put).
    CohReq,
    /// Directory-sourced forwards and invalidations to owners/sharers.
    CohFwd,
    /// Data and acknowledgment responses terminating a coherence transaction.
    CohResp,
    /// LLC-to-MC fill reads and writebacks ("memory requests" in CDR).
    MemReq,
    /// MC-to-LLC fill data ("memory responses" in CDR).
    MemResp,
    /// NI frontend/backend command traffic (WQ entries, CQ notifications).
    NiCmd,
    /// NI bulk data: unrolled remote requests and response payloads.
    NiData,
}

impl MessageClass {
    /// All classes, in virtual-network index order.
    pub const ALL: [MessageClass; 7] = [
        MessageClass::CohReq,
        MessageClass::CohFwd,
        MessageClass::CohResp,
        MessageClass::MemReq,
        MessageClass::MemResp,
        MessageClass::NiCmd,
        MessageClass::NiData,
    ];

    /// Number of virtual networks.
    pub const COUNT: usize = Self::ALL.len();

    /// Virtual-network index of this class.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MessageClass::CohReq => 0,
            MessageClass::CohFwd => 1,
            MessageClass::CohResp => 2,
            MessageClass::MemReq => 3,
            MessageClass::MemResp => 4,
            MessageClass::NiCmd => 5,
            MessageClass::NiData => 6,
        }
    }
}

/// A NOC packet carrying an upper-layer payload `P`.
#[derive(Clone, Debug)]
pub struct Packet<P> {
    /// Source endpoint (used for statistics and route checks).
    pub src: NocNode,
    /// Destination endpoint.
    pub dst: NocNode,
    /// Virtual network this packet travels on.
    pub class: MessageClass,
    /// Length in 16-byte flits (header included), at least 1.
    pub flits: u8,
    /// True when the message originates at an LLC/directory bank — the
    /// paper's modified CDR routes this class YX (§4.3).
    pub dir_sourced: bool,
    /// Cycle the packet was first offered to the interconnect.
    pub injected_at: Cycle,
    /// Upper-layer message.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Build a packet. `flits` is clamped to at least one.
    pub fn new(
        src: NocNode,
        dst: NocNode,
        class: MessageClass,
        flits: u8,
        payload: P,
    ) -> Packet<P> {
        Packet {
            src,
            dst,
            class,
            flits: flits.max(1),
            dir_sourced: false,
            injected_at: Cycle::ZERO,
            payload,
        }
    }

    /// Mark the packet as directory-sourced (see [`Packet::dir_sourced`]).
    pub fn dir_sourced(mut self) -> Self {
        self.dir_sourced = true;
        self
    }

    /// Size in bytes on the wire.
    pub fn bytes(&self) -> u32 {
        u32::from(self.flits) * FLIT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_sizing_matches_paper_examples() {
        // §6.1.3: a network request packet encapsulated in a NOC packet
        // takes two flits.
        assert_eq!(flits_for_payload(16, 16), 2);
        // A 64B cache-block data message with an 8B header takes 5 flits.
        assert_eq!(flits_for_payload(64, 8), 5);
        // Control messages are a single flit.
        assert_eq!(flits_for_payload(0, 8), 1);
        assert_eq!(flits_for_payload(0, 0), 1);
    }

    #[test]
    fn coords_measure_manhattan_distance() {
        let a = Coord::new(0, 0);
        let b = Coord::new(7, 3);
        assert_eq!(a.manhattan(b), 10);
        assert_eq!(b.manhattan(a), 10);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; MessageClass::COUNT];
        for c in MessageClass::ALL {
            assert!(!seen[c.index()], "duplicate index {}", c.index());
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn packet_builder_clamps_flits() {
        let p = Packet::new(
            NocNode::tile(0, 0),
            NocNode::tile(1, 1),
            MessageClass::CohReq,
            0,
            (),
        );
        assert_eq!(p.flits, 1);
        assert_eq!(p.bytes(), 16);
        assert!(!p.dir_sourced);
        assert!(p.dir_sourced().dir_sourced);
    }
}
