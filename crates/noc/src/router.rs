//! Mesh router microarchitecture.
//!
//! Each router has seven ports ([`Port`]): the four mesh directions, the
//! local tile, and the two edge-attach ports (NI block, memory controller).
//! Every input port holds one FIFO per *virtual queue* — a (message class,
//! dimension-order lane) pair — so different protocol classes never block
//! each other and XY/YX packets occupy disjoint buffers (deadlock freedom
//! for O1Turn and both CDR variants).
//!
//! Arbitration is candidate-driven: whenever a queue's head packet changes,
//! the queue registers with the output port the head wants; each output port
//! grants at most one packet per cycle among its registered candidates in
//! round-robin order, subject to link occupancy (one flit per cycle
//! serialization) and downstream buffer credit.

use std::collections::VecDeque;

use ni_engine::Cycle;

use crate::packet::{Coord, MessageClass, Packet};
use crate::routing::{next_port, Port, RouteKind};

/// Number of virtual queues per input port: one per (class, route lane).
pub const NUM_VQ: usize = MessageClass::COUNT * 2;

/// Virtual-queue index for a class and dimension-order lane.
#[inline]
pub fn vq_index(class: MessageClass, kind: RouteKind) -> usize {
    class.index() * 2 + kind.lane()
}

/// Buffering and timing parameters of a mesh router.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Pipeline latency per hop in cycles (Table 2: 3 cycles/hop).
    pub hop_latency: u64,
    /// Buffer capacity of each virtual queue, in flits.
    pub vq_capacity_flits: u32,
    /// Candidates each output port examines per cycle before giving up.
    pub arbitration_window: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            hop_latency: 3,
            vq_capacity_flits: 16,
            arbitration_window: 4,
        }
    }
}

/// A packet in flight inside the mesh, annotated with its dimension order.
#[derive(Clone, Debug)]
pub struct Flight<P> {
    /// The packet itself.
    pub pkt: Packet<P>,
    /// Dimension order chosen at injection.
    pub route: RouteKind,
    /// Attach coordinate of the destination.
    pub target: Coord,
    /// Exit port at the attach router.
    pub exit: Port,
}

/// One virtual queue: FIFO of flights plus an occupancy counter that also
/// accounts for flits already granted toward this queue but still on a link
/// (credit-accurate backpressure).
#[derive(Debug)]
pub struct VirtQueue<P> {
    flights: VecDeque<Flight<P>>,
    /// Flits resident or in flight toward this queue.
    pub reserved_flits: u32,
}

impl<P> Default for VirtQueue<P> {
    fn default() -> Self {
        VirtQueue {
            flights: VecDeque::new(),
            reserved_flits: 0,
        }
    }
}

impl<P> VirtQueue<P> {
    /// Head flight, if any.
    pub fn head(&self) -> Option<&Flight<P>> {
        self.flights.front()
    }

    /// Append an arrived flight (space was reserved at grant time).
    pub fn push_arrived(&mut self, f: Flight<P>) {
        self.flights.push_back(f);
    }

    /// Number of queued flights.
    pub fn len(&self) -> usize {
        self.flights.len()
    }

    /// True when no flight is queued.
    pub fn is_empty(&self) -> bool {
        self.flights.is_empty()
    }
}

/// An output port: link occupancy plus the candidate ring of input queues
/// whose head wants this output.
#[derive(Debug, Default)]
pub struct OutPort {
    /// The link is serializing a previous packet until this cycle.
    pub busy_until: Cycle,
    /// Registered (input port index, virtual queue index) candidates.
    pub candidates: VecDeque<(u8, u8)>,
}

/// One mesh router.
#[derive(Debug)]
pub struct Router<P> {
    /// Grid position.
    pub coord: Coord,
    /// Input buffers, one allocation indexed `port * NUM_VQ + vq`.
    inputs: Box<[VirtQueue<P>]>,
    /// Output ports.
    pub outputs: [OutPort; Port::COUNT],
    /// Total packets buffered here (fast idle check).
    pub queued_packets: u32,
}

impl<P> Router<P> {
    /// Create an empty router at `coord`.
    pub fn new(coord: Coord) -> Router<P> {
        Router {
            coord,
            inputs: (0..Port::COUNT * NUM_VQ)
                .map(|_| VirtQueue::default())
                .collect(),
            outputs: std::array::from_fn(|_| OutPort::default()),
            queued_packets: 0,
        }
    }

    /// Input queue `vq` of input `port`.
    #[inline]
    pub fn input(&self, port: usize, vq: usize) -> &VirtQueue<P> {
        &self.inputs[port * NUM_VQ + vq]
    }

    #[inline]
    fn input_mut(&mut self, port: usize, vq: usize) -> &mut VirtQueue<P> {
        &mut self.inputs[port * NUM_VQ + vq]
    }

    /// Free flit capacity of input queue `(port, vq)` under `cap` flits.
    pub fn free_flits(&self, port: usize, vq: usize, cap: u32) -> u32 {
        cap.saturating_sub(self.input(port, vq).reserved_flits)
    }

    /// Reserve space for an incoming flight granted by an upstream router.
    pub fn reserve(&mut self, port: usize, vq: usize, flits: u8) {
        self.input_mut(port, vq).reserved_flits += u32::from(flits);
    }

    /// Accept a flight that physically arrived at `(port, vq)`; registers it
    /// as an arbitration candidate when it becomes the queue head.
    pub fn accept(&mut self, port: usize, vq: usize, flight: Flight<P>) {
        let out = next_port(self.coord, flight.target, flight.exit, flight.route);
        let q = self.input_mut(port, vq);
        let was_empty = q.is_empty();
        q.push_arrived(flight);
        self.queued_packets += 1;
        if was_empty {
            self.outputs[out.index()]
                .candidates
                .push_back((port as u8, vq as u8));
        }
    }

    /// Remove the head of `(port, vq)` after a grant; re-registers the next
    /// head (if any) with its output. Returns the granted flight.
    ///
    /// # Panics
    /// Panics if the queue is empty — grants are only issued to heads.
    pub fn take_granted(&mut self, port: usize, vq: usize) -> Flight<P> {
        let q = self.input_mut(port, vq);
        let f = q.flights.pop_front().expect("grant on empty queue");
        q.reserved_flits -= u32::from(f.pkt.flits);
        self.queued_packets -= 1;
        if let Some(next) = self.input(port, vq).head() {
            let out = next_port(self.coord, next.target, next.exit, next.route);
            self.outputs[out.index()]
                .candidates
                .push_back((port as u8, vq as u8));
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NocNode;

    fn flight(dst_x: u8, dst_y: u8, flits: u8) -> Flight<()> {
        Flight {
            pkt: Packet::new(
                NocNode::tile(0, 0),
                NocNode::tile(dst_x, dst_y),
                MessageClass::CohReq,
                flits,
                (),
            ),
            route: RouteKind::Xy,
            target: Coord::new(dst_x, dst_y),
            exit: Port::Local,
        }
    }

    #[test]
    fn vq_indices_are_dense() {
        let mut seen = [false; NUM_VQ];
        for c in MessageClass::ALL {
            for k in [RouteKind::Xy, RouteKind::Yx] {
                let i = vq_index(c, k);
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn accept_registers_candidate_once() {
        let mut r: Router<()> = Router::new(Coord::new(2, 2));
        r.reserve(Port::West.index(), 0, 1);
        r.accept(Port::West.index(), 0, flight(5, 2, 1));
        // Head wants East (XY toward x=5).
        assert_eq!(r.outputs[Port::East.index()].candidates.len(), 1);
        r.reserve(Port::West.index(), 0, 1);
        r.accept(Port::West.index(), 0, flight(6, 2, 1));
        // Second arrival queues behind the head: no duplicate registration.
        assert_eq!(r.outputs[Port::East.index()].candidates.len(), 1);
        assert_eq!(r.queued_packets, 2);
    }

    #[test]
    fn take_granted_reregisters_next_head() {
        let mut r: Router<()> = Router::new(Coord::new(2, 2));
        r.reserve(Port::West.index(), 0, 1);
        r.accept(Port::West.index(), 0, flight(5, 2, 1));
        r.reserve(Port::West.index(), 0, 5);
        r.accept(Port::West.index(), 0, flight(2, 7, 5)); // wants South once head
        let f = r.take_granted(Port::West.index(), 0);
        assert_eq!(f.pkt.flits, 1);
        assert_eq!(r.outputs[Port::South.index()].candidates.len(), 1);
        assert_eq!(r.free_flits(Port::West.index(), 0, 16), 11);
    }
}
