//! Endpoint ports shared by both interconnects: one delivery queue and one
//! injection port per endpoint, plus the set of endpoints with deliveries
//! waiting, so the consumer pops them without polling every endpoint.

use std::collections::VecDeque;

use ni_engine::Cycle;

use crate::bitset::BitSet;
use crate::packet::Packet;

/// Capacity of each endpoint delivery queue, in flits.
const DELIVERY_CAPACITY_FLITS: u32 = 40;

/// Delivery buffer plus injection serialization state of one endpoint.
#[derive(Debug)]
struct Port<P> {
    delivered: VecDeque<Packet<P>>,
    /// Flits resident or in flight toward the delivery queue.
    reserved_flits: u32,
    /// The endpoint may inject its next packet at this cycle (16B/cycle
    /// port).
    inject_ready_at: Cycle,
}

/// Every endpoint of an interconnect, by dense endpoint index.
#[derive(Debug)]
pub(crate) struct Endpoints<P> {
    ports: Vec<Port<P>>,
    /// Endpoints whose delivery queue is non-empty.
    ready: BitSet,
}

impl<P> Endpoints<P> {
    /// `n` idle endpoints.
    pub(crate) fn new(n: usize) -> Endpoints<P> {
        Endpoints {
            ports: (0..n)
                .map(|_| Port {
                    delivered: VecDeque::new(),
                    reserved_flits: 0,
                    inject_ready_at: Cycle::ZERO,
                })
                .collect(),
            ready: BitSet::new(n),
        }
    }

    /// True while endpoint `e`'s injection port is still serializing an
    /// earlier packet at `now`.
    pub(crate) fn inject_busy(&self, e: usize, now: Cycle) -> bool {
        self.ports[e].inject_ready_at > now
    }

    /// Occupy endpoint `e`'s injection port for `flits` cycles from `now`.
    pub(crate) fn start_inject(&mut self, e: usize, now: Cycle, flits: u8) {
        self.ports[e].inject_ready_at = now + u64::from(flits);
    }

    /// Free delivery capacity of endpoint `e`.
    pub(crate) fn free_flits(&self, e: usize) -> u32 {
        DELIVERY_CAPACITY_FLITS.saturating_sub(self.ports[e].reserved_flits)
    }

    /// Reserve delivery space at `e` for a packet granted toward it.
    pub(crate) fn reserve(&mut self, e: usize, flits: u8) {
        self.ports[e].reserved_flits += u32::from(flits);
    }

    /// A packet arrived at `e` (space was reserved at grant time).
    pub(crate) fn deliver(&mut self, e: usize, pkt: Packet<P>) {
        self.ports[e].delivered.push_back(pkt);
        self.ready.insert(e);
    }

    /// Remove the oldest delivery at `e`, releasing its reservation.
    pub(crate) fn eject(&mut self, e: usize) -> Option<Packet<P>> {
        let port = &mut self.ports[e];
        let pkt = port.delivered.pop_front()?;
        port.reserved_flits -= u32::from(pkt.flits);
        if port.delivered.is_empty() {
            self.ready.remove(e);
        }
        Some(pkt)
    }

    /// Remove the oldest delivery at the lowest-indexed endpoint holding
    /// one.
    pub(crate) fn eject_next(&mut self) -> Option<Packet<P>> {
        let e = self.ready.first()?;
        self.eject(e)
    }

    /// Check that an endpoint is marked ready exactly when its delivery
    /// queue is non-empty. Pure: for debug assertions.
    pub(crate) fn audit(&self) -> Result<(), String> {
        match (0..self.ports.len())
            .find(|&e| self.ready.contains(e) == self.ports[e].delivered.is_empty())
        {
            Some(e) => Err(format!(
                "endpoint {e}: ready bit {} with {} deliveries queued",
                self.ready.contains(e),
                self.ports[e].delivered.len()
            )),
            None => Ok(()),
        }
    }
}
