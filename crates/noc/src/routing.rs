//! Routing policies for the mesh: XY, YX, O1Turn, CDR and the paper's
//! modified CDR with a directory-sourced routing class (§4.3).
//!
//! A policy picks a [`RouteKind`] (dimension order) per packet at injection
//! time; the dimension order is then followed deterministically hop by hop.
//! XY-routed and YX-routed packets travel in separate virtual channels, which
//! keeps every policy (including the mixed ones) deadlock-free.

use crate::packet::{Coord, MessageClass, NocNode, Packet, GRID};

/// Dimension order a packet follows through the mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RouteKind {
    /// Traverse the X dimension first, then Y.
    Xy,
    /// Traverse the Y dimension first, then X.
    Yx,
}

impl RouteKind {
    /// Sub-channel index (0 or 1) within a virtual network.
    #[inline]
    pub fn lane(self) -> usize {
        match self {
            RouteKind::Xy => 0,
            RouteKind::Yx => 1,
        }
    }
}

/// The routing policies evaluated in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RoutingPolicy {
    /// Plain XY dimension-order routing.
    Xy,
    /// Plain YX dimension-order routing.
    Yx,
    /// O1Turn: each packet picks XY or YX uniformly at random (Seo et
    /// al., the paper's reference \[42\]).
    O1Turn,
    /// Class-based deterministic routing (Abts et al., reference \[1\]):
    /// memory requests (LLC to MC
    /// fills and writebacks) route YX, everything else XY.
    Cdr,
    /// The paper's modified CDR: *all* directory-sourced traffic routes YX
    /// so it never turns at the chip edges; the rest routes XY. This is the
    /// default for soNUMA chips (§4.3).
    #[default]
    CdrNi,
}

impl RoutingPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [RoutingPolicy; 5] = [
        RoutingPolicy::Xy,
        RoutingPolicy::Yx,
        RoutingPolicy::O1Turn,
        RoutingPolicy::Cdr,
        RoutingPolicy::CdrNi,
    ];

    /// Short name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::Xy => "XY",
            RoutingPolicy::Yx => "YX",
            RoutingPolicy::O1Turn => "O1Turn",
            RoutingPolicy::Cdr => "CDR",
            RoutingPolicy::CdrNi => "CDR+NI",
        }
    }

    /// Pick the dimension order for one packet. `coin` supplies randomness
    /// for O1Turn (a deterministic PRNG owned by the NOC).
    pub fn choose<P>(self, pkt: &Packet<P>, coin: &mut SplitMix) -> RouteKind {
        match self {
            RoutingPolicy::Xy => RouteKind::Xy,
            RoutingPolicy::Yx => RouteKind::Yx,
            RoutingPolicy::O1Turn => {
                if coin.next_bool() {
                    RouteKind::Xy
                } else {
                    RouteKind::Yx
                }
            }
            RoutingPolicy::Cdr => {
                if pkt.class == MessageClass::MemReq {
                    RouteKind::Yx
                } else {
                    RouteKind::Xy
                }
            }
            RoutingPolicy::CdrNi => {
                if pkt.dir_sourced {
                    RouteKind::Yx
                } else {
                    RouteKind::Xy
                }
            }
        }
    }
}

/// Output port of a mesh router.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Port {
    /// Delivery to the tile's local components.
    Local,
    /// Toward row `y - 1`.
    North,
    /// Toward row `y + 1`.
    South,
    /// Toward column `x + 1`.
    East,
    /// Toward column `x - 1`.
    West,
    /// Delivery to the NI block attached west of an edge-column router.
    NiAttach,
    /// Delivery to the memory controller attached east of an edge-column
    /// router.
    McAttach,
}

impl Port {
    /// All ports in index order.
    pub const ALL: [Port; 7] = [
        Port::Local,
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::NiAttach,
        Port::McAttach,
    ];

    /// Number of ports on a mesh router.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this port.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::North => 1,
            Port::South => 2,
            Port::East => 3,
            Port::West => 4,
            Port::NiAttach => 5,
            Port::McAttach => 6,
        }
    }
}

/// Router and port a node attaches to in the mesh: NI blocks hang off
/// column 0, MCs off column [`GRID`]` - 1`.
pub fn attach_of(node: NocNode) -> (Coord, Port) {
    match node {
        NocNode::Tile(c) => (c, Port::Local),
        NocNode::NiBlock(r) => (Coord::new(0, r), Port::NiAttach),
        NocNode::Mc(r) => (Coord::new(GRID - 1, r), Port::McAttach),
        NocNode::Llc(_) => panic!("Llc nodes do not exist in a mesh"),
    }
}

/// Compute the next output port at router `here` for a packet bound for
/// `(target, exit)` following dimension order `kind`.
pub fn next_port(here: Coord, target: Coord, exit: Port, kind: RouteKind) -> Port {
    let dx = || {
        if here.x < target.x {
            Some(Port::East)
        } else if here.x > target.x {
            Some(Port::West)
        } else {
            None
        }
    };
    let dy = || {
        if here.y < target.y {
            Some(Port::South)
        } else if here.y > target.y {
            Some(Port::North)
        } else {
            None
        }
    };
    match kind {
        RouteKind::Xy => dx().or_else(dy).unwrap_or(exit),
        RouteKind::Yx => dy().or_else(dx).unwrap_or(exit),
    }
}

/// Small deterministic PRNG (splitmix64) used for O1Turn coin flips and
/// workload jitter inside the NOC. Not cryptographic.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeded constructor; the same seed reproduces the same simulation.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageClass, NocNode, Packet};

    fn pkt(class: MessageClass, dir_sourced: bool) -> Packet<()> {
        let mut p = Packet::new(NocNode::tile(0, 0), NocNode::tile(7, 7), class, 1, ());
        p.dir_sourced = dir_sourced;
        p
    }

    #[test]
    fn cdr_routes_memory_requests_yx() {
        let mut rng = SplitMix::new(1);
        let p = RoutingPolicy::Cdr;
        assert_eq!(
            p.choose(&pkt(MessageClass::MemReq, true), &mut rng),
            RouteKind::Yx
        );
        assert_eq!(
            p.choose(&pkt(MessageClass::MemResp, false), &mut rng),
            RouteKind::Xy
        );
        assert_eq!(
            p.choose(&pkt(MessageClass::NiData, false), &mut rng),
            RouteKind::Xy
        );
    }

    #[test]
    fn cdr_ni_routes_directory_sourced_yx() {
        let mut rng = SplitMix::new(1);
        let p = RoutingPolicy::CdrNi;
        assert_eq!(
            p.choose(&pkt(MessageClass::CohFwd, true), &mut rng),
            RouteKind::Yx
        );
        assert_eq!(
            p.choose(&pkt(MessageClass::CohResp, true), &mut rng),
            RouteKind::Yx
        );
        assert_eq!(
            p.choose(&pkt(MessageClass::CohReq, false), &mut rng),
            RouteKind::Xy
        );
        assert_eq!(
            p.choose(&pkt(MessageClass::NiData, false), &mut rng),
            RouteKind::Xy
        );
    }

    #[test]
    fn o1turn_uses_both_orders() {
        let mut rng = SplitMix::new(7);
        let p = RoutingPolicy::O1Turn;
        let picks: Vec<_> = (0..64)
            .map(|_| p.choose(&pkt(MessageClass::CohReq, false), &mut rng))
            .collect();
        assert!(picks.contains(&RouteKind::Xy));
        assert!(picks.contains(&RouteKind::Yx));
    }

    #[test]
    fn xy_route_goes_x_first() {
        let here = Coord::new(2, 2);
        let tgt = Coord::new(5, 6);
        assert_eq!(next_port(here, tgt, Port::Local, RouteKind::Xy), Port::East);
        assert_eq!(
            next_port(here, tgt, Port::Local, RouteKind::Yx),
            Port::South
        );
        // Aligned in X: XY continues in Y.
        assert_eq!(
            next_port(Coord::new(5, 2), tgt, Port::Local, RouteKind::Xy),
            Port::South
        );
        // At target: exit port.
        assert_eq!(
            next_port(tgt, tgt, Port::NiAttach, RouteKind::Xy),
            Port::NiAttach
        );
    }

    #[test]
    fn attach_points_hang_off_edges() {
        assert_eq!(
            attach_of(NocNode::NiBlock(3)),
            (Coord::new(0, 3), Port::NiAttach)
        );
        assert_eq!(
            attach_of(NocNode::Mc(5)),
            (Coord::new(7, 5), Port::McAttach)
        );
        assert_eq!(
            attach_of(NocNode::tile(4, 4)),
            (Coord::new(4, 4), Port::Local)
        );
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // below-bound stays below bound
        for _ in 0..100 {
            assert!(a.next_below(7) < 7);
        }
    }
}
