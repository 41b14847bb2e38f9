//! The 2D mesh interconnect (Table 2: 8x8 tiles, 16-byte links, 3 cycles/hop).
//!
//! Geometry follows Fig. 2 of the paper: NI blocks (RRPPs plus RGP/RCP
//! backends) extend the mesh west of column 0 with dedicated attach links,
//! memory controllers extend it east of the last column, and the
//! chip-to-chip network router connects to the NI blocks directly (that
//! link is modeled by the SoC layer, not here).

use std::collections::VecDeque;

use ni_engine::Cycle;

use crate::bitset::BitSet;
use crate::endpoint::Endpoints;
use crate::packet::{Coord, NocNode, Packet, GRID};
use crate::router::{vq_index, Flight, FlightSlab, OutPort, Router, RouterConfig};
use crate::routing::{attach_of, Port, RoutingPolicy, SplitMix};
use crate::stats::NocStats;
use crate::{Interconnect, WATCHDOG_CYCLES};

/// Mesh router timing and routing policy. The grid is always
/// [`GRID`]` x `[`GRID`] tiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeshConfig {
    /// Router buffering and timing.
    pub router: RouterConfig,
    /// Routing policy for all traffic.
    pub policy: RoutingPolicy,
}

/// Seed for the O1Turn coin.
const O1TURN_SEED: u64 = 0x00DA_6115;

/// Where a link event terminates.
#[derive(Debug)]
enum LinkDest<P> {
    /// Arrival of the flight in a slab slot into a router input buffer
    /// `(router index, port, vq, slot)`.
    RouterIn(usize, usize, usize, u32),
    /// Delivery into an endpoint queue; the packet has left the slab.
    Endpoint(usize, Packet<P>),
}

/// Link events in flight, in one FIFO slot per arrival cycle.
///
/// Every event is sent during a tick at `now` and arrives at `now + 1`
/// (endpoint delivery) or `now + hop_latency` (next router), so
/// `hop_latency + 1` slots indexed by arrival cycle cover every cycle that
/// can hold an event. Ticks run in time order, so appending in grant order
/// keeps each slot in send order — the `(arrival, send order)` order a
/// priority queue would pop.
#[derive(Debug)]
struct LinkRing<P> {
    slots: Vec<VecDeque<LinkDest<P>>>,
    /// Every arrival at or before this cycle has been absorbed.
    absorbed: Cycle,
}

impl<P> LinkRing<P> {
    fn slot(&self, at: Cycle) -> usize {
        (at.0 % self.slots.len() as u64) as usize
    }

    /// Send `ev`, arriving at `at`.
    fn push(&mut self, at: Cycle, ev: LinkDest<P>) {
        debug_assert!(at > self.absorbed && at.0 - self.absorbed.0 < self.slots.len() as u64);
        let s = self.slot(at);
        self.slots[s].push_back(ev);
    }

    /// Arrival cycle of the earliest event on the wires: the first
    /// non-empty slot after `absorbed`.
    fn next_arrival(&self) -> Option<Cycle> {
        (1..self.slots.len() as u64)
            .map(|d| self.absorbed + d)
            .find(|&at| !self.slots[self.slot(at)].is_empty())
    }

    /// Events on the wires.
    fn len(&self) -> usize {
        self.slots.iter().map(VecDeque::len).sum()
    }

    /// Events on the wires toward a router (their flights hold slab slots).
    fn router_bound(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|ev| matches!(ev, LinkDest::RouterIn(..)))
            .count()
    }
}

/// The mesh NOC.
///
/// ```
/// use ni_engine::Cycle;
/// use ni_noc::{Interconnect, MeshConfig, MeshNoc, MessageClass, NocNode, Packet};
///
/// let mut noc: MeshNoc<u32> = MeshNoc::new(MeshConfig::default());
/// let pkt = Packet::new(NocNode::tile(3, 3), NocNode::tile(0, 3), MessageClass::CohReq, 1, 7);
/// noc.try_inject(Cycle(0), pkt).unwrap();
/// let mut now = Cycle(0);
/// let got = loop {
///     noc.tick(now);
///     if let Some(p) = noc.eject(NocNode::tile(0, 3)) {
///         break p;
///     }
///     now += 1;
///     assert!(now.0 < 1000);
/// };
/// assert_eq!(got.payload, 7);
/// ```
#[derive(Debug)]
pub struct MeshNoc<P> {
    cfg: MeshConfig,
    routers: Vec<Router>,
    /// Every flight buffered in a router or on a router-to-router link.
    slab: FlightSlab<P>,
    /// Routers with `queued_packets > 0`: the only ones arbitration visits.
    active: BitSet,
    endpoints: Endpoints<P>,
    links: LinkRing<P>,
    rng: SplitMix,
    stats: NocStats,
    in_flight: u64,
    last_progress: Cycle,
    /// Reusable grant scratch buffer.
    grants: Vec<(usize, usize)>,
}

impl<P> MeshNoc<P> {
    /// Build a mesh from `cfg`.
    ///
    /// # Panics
    /// Panics if the hop latency or the arbitration window is zero.
    pub fn new(cfg: MeshConfig) -> MeshNoc<P> {
        assert!(
            cfg.router.hop_latency > 0,
            "router hop_latency must be at least 1 cycle (a hop lands on a later tick)"
        );
        assert!(
            cfg.router.arbitration_window > 0,
            "router arbitration_window must be at least 1 (a zero window never grants)"
        );
        let g = usize::from(GRID);
        // An exact-size iterator: the vector is allocated once and each
        // router is built straight into it.
        let routers: Vec<Router> = (0..g * g)
            .map(|i| Router::new(Coord::new((i % g) as u8, (i / g) as u8)))
            .collect();
        MeshNoc {
            cfg,
            active: BitSet::new(routers.len()),
            routers,
            slab: FlightSlab::default(),
            // Tiles, then an NI block and an MC per row.
            endpoints: Endpoints::new(g * g + 2 * g),
            links: LinkRing {
                slots: (0..=cfg.router.hop_latency)
                    .map(|_| VecDeque::new())
                    .collect(),
                absorbed: Cycle::ZERO,
            },
            rng: SplitMix::new(O1TURN_SEED),
            stats: NocStats::default(),
            in_flight: 0,
            last_progress: Cycle::ZERO,
            grants: Vec::new(),
        }
    }

    /// Mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    fn router_index(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(GRID) + usize::from(c.x)
    }

    /// Dense endpoint index: tiles, then NI blocks, then MCs.
    fn endpoint_index(&self, node: NocNode) -> usize {
        let tiles = usize::from(GRID) * usize::from(GRID);
        match node {
            NocNode::Tile(c) => self.router_index(c),
            NocNode::NiBlock(r) => tiles + usize::from(r),
            NocNode::Mc(r) => tiles + usize::from(GRID) + usize::from(r),
            NocNode::Llc(_) => panic!("Llc nodes do not exist in a mesh"),
        }
    }

    /// Coordinate of the router on the far side of `port` from `c`, if any.
    fn neighbor(&self, c: Coord, port: Port) -> Option<Coord> {
        match port {
            Port::North if c.y > 0 => Some(Coord::new(c.x, c.y - 1)),
            Port::South if c.y + 1 < GRID => Some(Coord::new(c.x, c.y + 1)),
            Port::East if c.x + 1 < GRID => Some(Coord::new(c.x + 1, c.y)),
            Port::West if c.x > 0 => Some(Coord::new(c.x - 1, c.y)),
            _ => None,
        }
    }

    /// Input port on the downstream router fed by an upstream `port` output.
    fn opposite(port: Port) -> Port {
        match port {
            Port::North => Port::South,
            Port::South => Port::North,
            Port::East => Port::West,
            Port::West => Port::East,
            p => p,
        }
    }

    /// The endpoint node delivered to by output `port` of router at `c`.
    fn delivery_node(&self, c: Coord, port: Port) -> NocNode {
        match port {
            Port::Local => NocNode::Tile(c),
            Port::NiAttach => NocNode::NiBlock(c.y),
            Port::McAttach => NocNode::Mc(c.y),
            _ => unreachable!("not a delivery port"),
        }
    }

    /// True when a transfer from column `from_x` toward `port` crosses the
    /// central vertical bisection.
    fn crosses_bisection(from_x: u8, port: Port) -> bool {
        let cut = GRID / 2;
        match port {
            Port::East => from_x + 1 == cut,
            Port::West => from_x == cut,
            _ => false,
        }
    }

    /// Move link events that arrived since the last tick into their
    /// destination buffers, one arrival cycle at a time. Callers may skip
    /// cycles; nothing arrives more than `hop_latency` cycles after the
    /// tick that sent it, so only `(absorbed, absorbed + hop_latency]` can
    /// hold events.
    fn absorb_arrivals(&mut self, now: Cycle) {
        let last = Cycle(
            now.0
                .min(self.links.absorbed.0 + self.cfg.router.hop_latency),
        );
        let mut at = self.links.absorbed;
        while at < last {
            at += 1;
            let s = self.links.slot(at);
            while let Some(ev) = self.links.slots[s].pop_front() {
                match ev {
                    LinkDest::RouterIn(r, port, vq, id) => {
                        self.routers[r].accept(port, vq, id, &mut self.slab);
                        self.active.insert(r);
                    }
                    LinkDest::Endpoint(idx, pkt) => {
                        self.stats
                            .record_delivery(pkt.class, pkt.flits, pkt.injected_at, now);
                        self.endpoints.deliver(idx, pkt);
                        self.in_flight -= 1;
                        self.last_progress = now;
                    }
                }
            }
        }
        self.links.absorbed = self.links.absorbed.max(now);
    }

    /// One grant pass over every output port of every active router.
    fn arbitrate(&mut self, now: Cycle) {
        // Phase A: decide grants. Each (router, output) pair feeds a distinct
        // downstream buffer, so decisions are independent within a cycle.
        self.grants.clear();
        for r_idx in self.active.iter() {
            for port in Port::ALL {
                let p_idx = port.index();
                let out = &self.routers[r_idx].outputs[p_idx];
                if out.busy_until > now || out.candidates.is_empty() {
                    continue;
                }
                if let Some(slot) = self.pick_candidate(r_idx, port) {
                    self.grants.push((r_idx, p_idx));
                    // Rotate losers later; record chosen slot by moving it to
                    // the ring front so phase B pops the right entry.
                    let ring = &mut self.routers[r_idx].outputs[p_idx].candidates;
                    if slot != 0 {
                        let entry = ring.remove(slot).expect("slot in ring");
                        ring.push_front(entry);
                    }
                } else {
                    // Head-of-ring can't move: rotate for fairness.
                    let ring = &mut self.routers[r_idx].outputs[p_idx].candidates;
                    if let Some(e) = ring.pop_front() {
                        ring.push_back(e);
                    }
                }
            }
        }
        // Phase B: apply grants.
        for i in 0..self.grants.len() {
            let (r_idx, p_idx) = self.grants[i];
            self.apply_grant(r_idx, p_idx, now);
        }
    }

    /// Find the first grantable candidate (within the arbitration window) of
    /// output `port` on router `r_idx`. Returns its ring slot.
    fn pick_candidate(&self, r_idx: usize, port: Port) -> Option<usize> {
        let router = &self.routers[r_idx];
        let ring = &router.outputs[port.index()].candidates;
        let window = self.cfg.router.arbitration_window.min(ring.len());
        for (slot, &(in_port, vq)) in ring.iter().enumerate().take(window) {
            let head = router
                .input(usize::from(in_port), usize::from(vq))
                .head()
                .expect("registered candidate has a head");
            let flits = self.slab.get(head).pkt.flits;
            let ok = match port {
                Port::North | Port::South | Port::East | Port::West => {
                    let n = self
                        .neighbor(router.coord, port)
                        .expect("mesh route never exits the grid");
                    let n_idx = self.router_index(n);
                    self.routers[n_idx].free_flits(
                        Self::opposite(port).index(),
                        usize::from(vq),
                        self.cfg.router.vq_capacity_flits,
                    ) >= u32::from(flits)
                }
                Port::Local | Port::NiAttach | Port::McAttach => {
                    let e = self.endpoint_index(self.delivery_node(router.coord, port));
                    self.endpoints.free_flits(e) >= u32::from(flits)
                }
            };
            if ok {
                return Some(slot);
            }
        }
        None
    }

    /// Execute a grant: move the head of the winning queue onto the link.
    fn apply_grant(&mut self, r_idx: usize, p_idx: usize, now: Cycle) {
        let port = Port::ALL[p_idx];
        let (in_port, vq) = self.routers[r_idx].outputs[p_idx]
            .candidates
            .pop_front()
            .expect("grant requires a candidate");
        let id =
            self.routers[r_idx].take_granted(usize::from(in_port), usize::from(vq), &self.slab);
        if self.routers[r_idx].queued_packets == 0 {
            self.active.remove(r_idx);
        }
        let flits = self.slab.get(id).pkt.flits;
        let coord = self.routers[r_idx].coord;
        let out: &mut OutPort = &mut self.routers[r_idx].outputs[p_idx];
        out.busy_until = now + u64::from(flits);
        self.last_progress = now;
        match port {
            Port::North | Port::South | Port::East | Port::West => {
                let n = self.neighbor(coord, port).expect("grant checked neighbor");
                let n_idx = self.router_index(n);
                self.routers[n_idx].reserve(Self::opposite(port).index(), usize::from(vq), flits);
                self.stats
                    .record_hop(flits, Self::crosses_bisection(coord.x, port));
                self.links.push(
                    now + self.cfg.router.hop_latency,
                    LinkDest::RouterIn(n_idx, Self::opposite(port).index(), usize::from(vq), id),
                );
            }
            Port::Local | Port::NiAttach | Port::McAttach => {
                let node = self.delivery_node(coord, port);
                let e = self.endpoint_index(node);
                self.endpoints.reserve(e, flits);
                if port != Port::Local {
                    // Attach links are real wires (Fig. 2); count them.
                    self.stats.record_hop(flits, false);
                }
                let pkt = self.slab.remove(id).pkt;
                self.links.push(now + 1, LinkDest::Endpoint(e, pkt));
            }
        }
    }

    fn check_watchdog(&self, now: Cycle) {
        if self.in_flight > 0 && now.saturating_since(self.last_progress) > WATCHDOG_CYCLES {
            panic!(
                "mesh NOC watchdog: {} packets in flight with no progress since {:?} (now {:?})",
                self.in_flight, self.last_progress, now
            );
        }
    }

    /// Check the tick-to-tick bookkeeping: a router is in the active set
    /// exactly when it buffers packets, an endpoint is ready exactly when
    /// its delivery queue is non-empty, every packet in flight is either
    /// buffered in a router or on a link (packet conservation), and every
    /// slab slot is either free or holds a flight buffered in a router or
    /// on a router-bound link (slab conservation). Pure: for debug
    /// assertions.
    fn audit(&self) -> Result<(), String> {
        if let Some((i, r)) = self
            .routers
            .iter()
            .enumerate()
            .find(|&(i, r)| self.active.contains(i) != (r.queued_packets > 0))
        {
            return Err(format!(
                "router {i}: active bit {} with {} packets queued",
                self.active.contains(i),
                r.queued_packets
            ));
        }
        self.endpoints.audit()?;
        let queued: u64 = self
            .routers
            .iter()
            .map(|r| u64::from(r.queued_packets))
            .sum();
        let on_links = self.links.len() as u64;
        if self.in_flight != queued + on_links {
            return Err(format!(
                "{} packets in flight but {queued} queued + {on_links} on links",
                self.in_flight
            ));
        }
        let live = self.slab.live();
        let router_bound = self.links.router_bound();
        if live as u64 != queued + router_bound as u64 {
            return Err(format!(
                "{live} live slab slots but {queued} queued + {router_bound} on router-bound links"
            ));
        }
        let free = self.slab.free_len();
        if free + live != self.slab.slots() {
            return Err(format!(
                "{free} free + {live} live slab slots, but the slab holds {}",
                self.slab.slots()
            ));
        }
        Ok(())
    }
}

impl<P> Interconnect<P> for MeshNoc<P> {
    fn try_inject(&mut self, now: Cycle, mut pkt: Packet<P>) -> Result<(), Packet<P>> {
        // A node injects through the same router port it is delivered on.
        let (coord, port) = attach_of(pkt.src);
        let src_idx = self.endpoint_index(pkt.src);
        if self.endpoints.inject_busy(src_idx, now) {
            self.stats.inject_rejects.incr();
            return Err(pkt);
        }
        let route = self.cfg.policy.choose(&pkt, &mut self.rng);
        let vq = vq_index(pkt.class, route);
        let r_idx = self.router_index(coord);
        if self.routers[r_idx].free_flits(port.index(), vq, self.cfg.router.vq_capacity_flits)
            < u32::from(pkt.flits)
        {
            self.stats.inject_rejects.incr();
            return Err(pkt);
        }
        pkt.injected_at = now;
        let (target, exit) = attach_of(pkt.dst);
        let flits = pkt.flits;
        let id = self.slab.insert(Flight {
            pkt,
            route,
            target,
            exit,
        });
        self.routers[r_idx].reserve(port.index(), vq, flits);
        self.routers[r_idx].accept(port.index(), vq, id, &mut self.slab);
        self.active.insert(r_idx);
        // Injection port serializes at one flit per cycle.
        self.endpoints.start_inject(src_idx, now, flits);
        self.in_flight += 1;
        self.stats.injected_packets.incr();
        self.last_progress = now;
        Ok(())
    }

    fn eject(&mut self, node: NocNode) -> Option<Packet<P>> {
        let e = self.endpoint_index(node);
        self.endpoints.eject(e)
    }

    fn eject_next(&mut self) -> Option<Packet<P>> {
        self.endpoints.eject_next()
    }

    /// Advance one cycle. Tick times must not decrease; cycles may be
    /// skipped.
    fn tick(&mut self, now: Cycle) {
        self.absorb_arrivals(now);
        self.arbitrate(now);
        self.check_watchdog(now);
        debug_assert_eq!(self.audit(), Ok(()), "mesh NOC bookkeeping at {now:?}");
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// `now` while a router buffers a packet (arbitration runs every
    /// cycle); otherwise every packet in flight is on a wire, and the tick
    /// that absorbs the first arrival is the first to do anything.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.in_flight == 0 {
            return None;
        }
        if self.active.first().is_some() {
            return Some(now);
        }
        self.links.next_arrival().map(|at| at.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MessageClass;

    fn run_until_delivered(
        noc: &mut MeshNoc<u64>,
        dst: NocNode,
        start: Cycle,
        limit: u64,
    ) -> (Packet<u64>, Cycle) {
        let mut now = start;
        loop {
            noc.tick(now);
            if let Some(p) = noc.eject(dst) {
                return (p, now);
            }
            now += 1;
            assert!(now.0 < start.0 + limit, "packet not delivered in time");
        }
    }

    #[test]
    fn single_hop_latency_is_small() {
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        let pkt = Packet::new(
            NocNode::tile(1, 0),
            NocNode::tile(0, 0),
            MessageClass::CohReq,
            1,
            1,
        );
        noc.try_inject(Cycle(0), pkt).unwrap();
        let (_, when) = run_until_delivered(&mut noc, NocNode::tile(0, 0), Cycle(0), 100);
        // One mesh hop (3 cycles) + delivery: well under 10 cycles.
        assert!(when.0 <= 10, "one hop took {} cycles", when.0);
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        noc.try_inject(
            Cycle(0),
            Packet::new(
                NocNode::tile(7, 7),
                NocNode::tile(0, 0),
                MessageClass::CohReq,
                1,
                1,
            ),
        )
        .unwrap();
        let (_, when) = run_until_delivered(&mut noc, NocNode::tile(0, 0), Cycle(0), 200);
        // 14 hops at 3 cycles plus delivery.
        assert!(when.0 >= 14 * 3, "too fast: {}", when.0);
        assert!(when.0 <= 14 * 4 + 10, "too slow: {}", when.0);
    }

    #[test]
    fn delivers_to_ni_block_and_mc() {
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        noc.try_inject(
            Cycle(0),
            Packet::new(
                NocNode::tile(4, 2),
                NocNode::NiBlock(2),
                MessageClass::NiData,
                2,
                11,
            ),
        )
        .unwrap();
        let (p, _) = run_until_delivered(&mut noc, NocNode::NiBlock(2), Cycle(0), 200);
        assert_eq!(p.payload, 11);

        noc.try_inject(
            Cycle(100),
            Packet::new(
                NocNode::NiBlock(0),
                NocNode::Mc(5),
                MessageClass::MemReq,
                1,
                12,
            ),
        )
        .unwrap();
        let (p, _) = run_until_delivered(&mut noc, NocNode::Mc(5), Cycle(100), 300);
        assert_eq!(p.payload, 12);
    }

    #[test]
    fn injection_port_serializes() {
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        let mk = |id| {
            Packet::new(
                NocNode::tile(3, 3),
                NocNode::tile(0, 3),
                MessageClass::NiData,
                5,
                id,
            )
        };
        noc.try_inject(Cycle(0), mk(1)).unwrap();
        // Second 5-flit packet must wait 5 cycles for the injection port.
        assert!(noc.try_inject(Cycle(1), mk(2)).is_err());
        assert!(noc.try_inject(Cycle(5), mk(2)).is_ok());
        assert_eq!(noc.stats().inject_rejects.get(), 1);
    }

    #[test]
    fn all_policies_deliver_cross_traffic() {
        for policy in RoutingPolicy::ALL {
            let cfg = MeshConfig {
                policy,
                ..MeshConfig::default()
            };
            let mut noc: MeshNoc<u64> = MeshNoc::new(cfg);
            let mut now = Cycle(0);
            let mut expected = Vec::new();
            for i in 0..8u8 {
                let pkt = Packet::new(
                    NocNode::tile(i % 8, (i * 3) % 8),
                    NocNode::tile((7 - i) % 8, (i * 5) % 8),
                    MessageClass::CohResp,
                    5,
                    u64::from(i),
                );
                let dst = pkt.dst;
                // Stagger injections so each endpoint port is free.
                while noc.try_inject(now, pkt.clone()).is_err() {
                    noc.tick(now);
                    now += 1;
                }
                expected.push((dst, u64::from(i)));
            }
            let mut got = 0;
            for _ in 0..2000 {
                noc.tick(now);
                for (dst, _) in &expected {
                    if noc.eject(*dst).is_some() {
                        got += 1;
                    }
                }
                now += 1;
                if got == expected.len() {
                    break;
                }
            }
            assert_eq!(got, expected.len(), "policy {policy:?} lost packets");
            assert!(noc.is_idle());
        }
    }

    #[test]
    fn bisection_counted_for_cross_chip_traffic() {
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        noc.try_inject(
            Cycle(0),
            Packet::new(
                NocNode::tile(0, 0),
                NocNode::tile(7, 0),
                MessageClass::NiData,
                5,
                1,
            ),
        )
        .unwrap();
        run_until_delivered(&mut noc, NocNode::tile(7, 0), Cycle(0), 200);
        assert_eq!(noc.stats().bisection_flits.get(), 5);
    }

    #[test]
    fn backpressure_rejects_when_buffers_full() {
        let cfg = MeshConfig {
            router: RouterConfig {
                vq_capacity_flits: 5,
                ..RouterConfig::default()
            },
            ..MeshConfig::default()
        };
        let mut noc: MeshNoc<u64> = MeshNoc::new(cfg);
        let mk = |src: NocNode| Packet::new(src, NocNode::tile(0, 0), MessageClass::NiData, 5, 9);
        // The first packet fills the 5-flit injection buffer at (1,0). At
        // cycle 5 the injection port is free again but the buffer is not.
        noc.try_inject(Cycle(0), mk(NocNode::tile(1, 0))).unwrap();
        assert!(noc.try_inject(Cycle(5), mk(NocNode::tile(1, 0))).is_err());
        assert_eq!(noc.stats().inject_rejects.get(), 1);
        // One tick grants the buffered packet westward, draining the buffer.
        noc.tick(Cycle(5));
        assert!(noc.try_inject(Cycle(6), mk(NocNode::tile(1, 0))).is_ok());
        assert_eq!(noc.stats().inject_rejects.get(), 1);
    }

    #[test]
    fn draining_congested_cross_traffic_frees_every_slab_slot() {
        // One-packet virtual queues and every tile sending 5-flit packets
        // across the mesh keep flights queued behind each other.
        let cfg = MeshConfig {
            router: RouterConfig {
                vq_capacity_flits: 5,
                ..RouterConfig::default()
            },
            ..MeshConfig::default()
        };
        let mut noc: MeshNoc<u64> = MeshNoc::new(cfg);
        let (mut sent, mut got, mut peak_live) = (0u64, 0u64, 0);
        let mut now = Cycle(0);
        while now.0 < 3000 && (now.0 < 200 || !noc.is_idle()) {
            if now.0 < 200 {
                for (x, y) in (0..8u8).flat_map(|x| (0..8u8).map(move |y| (x, y))) {
                    let dst = if x == y {
                        NocNode::tile(7 - x, 7 - y)
                    } else {
                        NocNode::tile(y, x)
                    };
                    let pkt = Packet::new(NocNode::tile(x, y), dst, MessageClass::NiData, 5, sent);
                    if noc.try_inject(now, pkt).is_ok() {
                        sent += 1;
                    }
                }
            }
            noc.tick(now);
            peak_live = peak_live.max(noc.slab.live());
            while noc.eject_next().is_some() {
                got += 1;
            }
            now += 1;
        }
        assert!(noc.is_idle(), "traffic did not drain by {now:?}");
        assert_eq!(got, sent);
        assert!(
            noc.stats().inject_rejects.get() > 0,
            "traffic never backed up"
        );
        assert!(
            peak_live > 64,
            "only {peak_live} flights were ever buffered at once"
        );
        assert!(noc.slab.slots() >= peak_live);
        assert_eq!(noc.slab.live(), 0);
        assert_eq!(noc.slab.free_len(), noc.slab.slots());
        assert_eq!(noc.audit(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "hop_latency")]
    fn zero_hop_latency_rejected() {
        let cfg = MeshConfig {
            router: RouterConfig {
                hop_latency: 0,
                ..RouterConfig::default()
            },
            ..MeshConfig::default()
        };
        let _: MeshNoc<u64> = MeshNoc::new(cfg);
    }

    #[test]
    #[should_panic(expected = "arbitration_window")]
    fn zero_arbitration_window_rejected() {
        let cfg = MeshConfig {
            router: RouterConfig {
                arbitration_window: 0,
                ..RouterConfig::default()
            },
            ..MeshConfig::default()
        };
        let _: MeshNoc<u64> = MeshNoc::new(cfg);
    }

    #[test]
    fn sparse_ticks_absorb_every_skipped_arrival() {
        // Ticking every 10th cycle (more than the 4-slot link ring spans)
        // moves a packet one hop per tick: each tick absorbs the arrival
        // the previous tick's grant scheduled, then grants the next hop.
        let mut noc: MeshNoc<u64> = MeshNoc::new(MeshConfig::default());
        let pkt = Packet::new(
            NocNode::tile(3, 2),
            NocNode::tile(0, 2),
            MessageClass::CohReq,
            1,
            5,
        );
        noc.try_inject(Cycle(0), pkt).unwrap();
        let mut now = Cycle(0);
        let got = loop {
            noc.tick(now);
            if let Some(p) = noc.eject_next() {
                break p;
            }
            now += 10;
            assert!(now.0 < 200, "packet lost across sparse ticks");
        };
        // Three mesh hops and the local delivery: five ticks.
        assert_eq!((got.payload, now), (5, Cycle(40)));
        assert_eq!(noc.stats().mean_latency(), 40.0);
        assert!(noc.is_idle());
    }
}
