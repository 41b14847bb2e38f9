//! Mesh router microarchitecture.
//!
//! Each router has seven ports ([`Port`]): the four mesh directions, the
//! local tile, and the two edge-attach ports (NI block, memory controller).
//! Every input port holds one FIFO per *virtual queue* — a (message class,
//! dimension-order lane) pair — so different protocol classes never block
//! each other and XY/YX packets occupy disjoint buffers (deadlock freedom
//! for O1Turn and both CDR variants).
//!
//! Flights live in one [`FlightSlab`] per mesh. A virtual queue is a
//! 12-byte header that links slab slots in FIFO order, so a hop moves a
//! slot index from one queue to the next instead of copying the flight, and
//! an idle queue owns no buffer.
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

/// End of a queue or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<P> {
    /// Next slot of the same virtual queue, or of the free list.
    next: u32,
    /// The flight, or `None` while the slot is free.
    flight: Option<Flight<P>>,
}

/// Storage for every flight buffered in a router or crossing a
/// router-to-router link: a vector of slots plus a free list threaded
/// through the vacant ones. A slot's index is stable while it is live, so
/// queues and link events hold indices, not flights.
#[derive(Debug)]
pub struct FlightSlab<P> {
    slots: Vec<Slot<P>>,
    /// Head of the free list.
    free: u32,
}

impl<P> Default for FlightSlab<P> {
    fn default() -> Self {
        FlightSlab {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl<P> FlightSlab<P> {
    /// Store `flight` in a free slot, growing the slab when none is free.
    /// Returns its slot index.
    pub fn insert(&mut self, flight: Flight<P>) -> u32 {
        if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "flight slab exhausted");
            let id = self.slots.len() as u32;
            self.slots.push(Slot {
                next: NIL,
                flight: Some(flight),
            });
            return id;
        }
        let id = self.free;
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.flight.is_none(), "free-list slot {id} is live");
        self.free = slot.next;
        slot.next = NIL;
        slot.flight = Some(flight);
        id
    }

    /// The flight in live slot `id`.
    ///
    /// # Panics
    /// Panics if slot `id` is free.
    #[inline]
    pub fn get(&self, id: u32) -> &Flight<P> {
        self.slots[id as usize]
            .flight
            .as_ref()
            .expect("live slab slot")
    }

    /// Move the flight out of slot `id` and free the slot.
    ///
    /// # Panics
    /// Panics if slot `id` is already free.
    pub fn remove(&mut self, id: u32) -> Flight<P> {
        let slot = &mut self.slots[id as usize];
        let flight = slot.flight.take().expect("live slab slot");
        slot.next = self.free;
        self.free = id;
        flight
    }

    #[inline]
    fn next(&self, id: u32) -> u32 {
        self.slots[id as usize].next
    }

    #[inline]
    fn set_next(&mut self, id: u32, next: u32) {
        self.slots[id as usize].next = next;
    }

    /// Slots allocated, live or free.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots holding a flight.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.flight.is_some()).count()
    }

    /// Length of the free list (walked, not counted, so a broken link
    /// shows). Stops one step past the slab length if the list cycles.
    pub fn free_len(&self) -> usize {
        let mut n = 0;
        let mut at = self.free;
        while at != NIL && n <= self.slots.len() {
            n += 1;
            at = self.slots[at as usize].next;
        }
        n
    }
}

/// One virtual queue: a FIFO of slab slots plus an occupancy counter that
/// also accounts for flits already granted toward this queue but still on
/// a link (credit-accurate backpressure).
#[derive(Clone, Copy, Debug)]
pub struct VirtQueue {
    head: u32,
    tail: u32,
    /// Flits resident or in flight toward this queue.
    pub reserved_flits: u32,
}

impl VirtQueue {
    const EMPTY: VirtQueue = VirtQueue {
        head: NIL,
        tail: NIL,
        reserved_flits: 0,
    };

    /// Slab slot of the head flight, if any.
    #[inline]
    pub fn head(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
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

/// One mesh router. Its flights live in the mesh's [`FlightSlab`].
#[derive(Debug)]
pub struct Router {
    /// Grid position.
    pub coord: Coord,
    /// Input queue headers, indexed `port * NUM_VQ + vq`.
    inputs: [VirtQueue; Port::COUNT * NUM_VQ],
    /// Output ports.
    pub outputs: [OutPort; Port::COUNT],
    /// Total packets buffered here (fast idle check).
    pub queued_packets: u32,
}

impl Router {
    /// Create an empty router at `coord`.
    pub fn new(coord: Coord) -> Router {
        Router {
            coord,
            inputs: [VirtQueue::EMPTY; Port::COUNT * NUM_VQ],
            outputs: std::array::from_fn(|_| OutPort::default()),
            queued_packets: 0,
        }
    }

    /// Input queue `vq` of input `port`.
    #[inline]
    pub fn input(&self, port: usize, vq: usize) -> &VirtQueue {
        &self.inputs[port * NUM_VQ + vq]
    }

    #[inline]
    fn input_mut(&mut self, port: usize, vq: usize) -> &mut VirtQueue {
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

    /// Accept the flight in slab slot `id`, which physically arrived at
    /// `(port, vq)`; registers it as an arbitration candidate when it
    /// becomes the queue head.
    pub fn accept<P>(&mut self, port: usize, vq: usize, id: u32, slab: &mut FlightSlab<P>) {
        let f = slab.get(id);
        let out = next_port(self.coord, f.target, f.exit, f.route);
        slab.set_next(id, NIL);
        let q = self.input_mut(port, vq);
        let was_empty = q.tail == NIL;
        if was_empty {
            q.head = id;
        } else {
            slab.set_next(q.tail, id);
        }
        q.tail = id;
        self.queued_packets += 1;
        if was_empty {
            self.outputs[out.index()]
                .candidates
                .push_back((port as u8, vq as u8));
        }
    }

    /// Unlink the head of `(port, vq)` after a grant; re-registers the next
    /// head (if any) with its output. Returns the granted flight's slot,
    /// which stays live in `slab`.
    ///
    /// # Panics
    /// Panics if the queue is empty — grants are only issued to heads.
    pub fn take_granted<P>(&mut self, port: usize, vq: usize, slab: &FlightSlab<P>) -> u32 {
        let q = self.input_mut(port, vq);
        let id = q.head;
        assert!(id != NIL, "grant on empty queue");
        q.reserved_flits -= u32::from(slab.get(id).pkt.flits);
        q.head = slab.next(id);
        if q.head == NIL {
            q.tail = NIL;
        }
        let next = q.head;
        self.queued_packets -= 1;
        if next != NIL {
            let f = slab.get(next);
            let out = next_port(self.coord, f.target, f.exit, f.route);
            self.outputs[out.index()]
                .candidates
                .push_back((port as u8, vq as u8));
        }
        id
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
        let mut slab = FlightSlab::default();
        let mut r = Router::new(Coord::new(2, 2));
        r.reserve(Port::West.index(), 0, 1);
        let a = slab.insert(flight(5, 2, 1));
        r.accept(Port::West.index(), 0, a, &mut slab);
        // Head wants East (XY toward x=5).
        assert_eq!(r.outputs[Port::East.index()].candidates.len(), 1);
        r.reserve(Port::West.index(), 0, 1);
        let b = slab.insert(flight(6, 2, 1));
        r.accept(Port::West.index(), 0, b, &mut slab);
        // Second arrival queues behind the head: no duplicate registration.
        assert_eq!(r.outputs[Port::East.index()].candidates.len(), 1);
        assert_eq!(r.queued_packets, 2);
        assert_eq!(r.input(Port::West.index(), 0).head(), Some(a));
    }

    #[test]
    fn take_granted_reregisters_next_head() {
        let mut slab = FlightSlab::default();
        let mut r = Router::new(Coord::new(2, 2));
        r.reserve(Port::West.index(), 0, 1);
        let a = slab.insert(flight(5, 2, 1));
        r.accept(Port::West.index(), 0, a, &mut slab);
        r.reserve(Port::West.index(), 0, 5);
        let b = slab.insert(flight(2, 7, 5)); // wants South once head
        r.accept(Port::West.index(), 0, b, &mut slab);
        let id = r.take_granted(Port::West.index(), 0, &slab);
        assert_eq!(id, a);
        assert_eq!(slab.get(id).pkt.flits, 1);
        assert_eq!(r.outputs[Port::South.index()].candidates.len(), 1);
        assert_eq!(r.free_flits(Port::West.index(), 0, 16), 11);
        // The granted flight stays live in the slab until its next owner
        // takes it; the queue now starts at the second flight.
        assert_eq!(r.input(Port::West.index(), 0).head(), Some(b));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.remove(id).pkt.flits, 1);
        assert_eq!((slab.live(), slab.free_len(), slab.slots()), (1, 1, 2));
    }

    #[test]
    fn slab_reuses_freed_slots_last_in_first_out() {
        let mut slab = FlightSlab::default();
        let ids: Vec<u32> = (0..3).map(|i| slab.insert(flight(i, 0, 1))).collect();
        assert_eq!(ids, [0, 1, 2]);
        slab.remove(0);
        slab.remove(2);
        assert_eq!((slab.live(), slab.free_len()), (1, 2));
        assert_eq!(slab.insert(flight(7, 7, 2)), 2);
        assert_eq!(slab.insert(flight(7, 7, 3)), 0);
        assert_eq!(slab.insert(flight(7, 7, 4)), 3);
        assert_eq!((slab.live(), slab.free_len(), slab.slots()), (4, 0, 4));
        assert_eq!(slab.get(0).pkt.flits, 3);
    }

    #[test]
    fn virt_queue_header_fits_sixteen_bytes() {
        assert!(std::mem::size_of::<VirtQueue>() <= 16);
    }
}
