//! NOC-Out interconnect (§6.3, Fig. 8; Lotfi-Kamran et al., MICRO 2012).
//!
//! Eight LLC tiles form a row in the middle of the chip, richly connected by
//! a flattened butterfly (2 tiles/cycle). The 64 cores sit in eight columns,
//! four above and four below the LLC row, each column chained to its LLC
//! tile by 1-cycle-per-hop reduction (up) and dispersion (down) networks.
//! Memory controllers and the chip-to-chip router hang off the butterfly.
//!
//! Unlike the mesh there is no adaptive routing: every (src, dst) pair has a
//! unique path, so packets are *source-routed* through a station graph. Each
//! station forwards at 16B/cycle per outgoing wire with three virtual-queue
//! groups (request / forward / response) for protocol-deadlock freedom.
//!
//! NI placement in this topology (paper §6.3): RRPPs and RGP/RCP backends
//! live at the LLC tiles ("NImiddle"), addressed as [`NocNode::NiBlock`]\(c\)
//! aliases of LLC tile `c`, so the RMC layer is topology-agnostic.

use std::collections::VecDeque;

use ni_engine::{Cycle, DelayLine};

use crate::endpoint::Endpoints;
use crate::packet::{Coord, MessageClass, NocNode, Packet, GRID};
use crate::stats::NocStats;
use crate::{Interconnect, WATCHDOG_CYCLES};

/// Number of virtual-queue groups on NOC-Out links.
const NUM_GROUPS: usize = 3;

/// Map a message class to its queue group (requests / forwards / responses).
fn group_of(class: MessageClass) -> usize {
    match class {
        MessageClass::CohReq | MessageClass::MemReq => 0,
        MessageClass::CohFwd | MessageClass::NiCmd => 1,
        MessageClass::CohResp | MessageClass::MemResp | MessageClass::NiData => 2,
    }
}

/// Tiles traversed per cycle on the flattened butterfly (Table 2: 2).
const BUTTERFLY_TILES_PER_CYCLE: u64 = 2;

/// Per-queue capacity in flits.
const QUEUE_CAPACITY_FLITS: u32 = 16;

/// Columns (LLC tiles), which is also the cores per column.
const COLS: usize = GRID as usize;

/// Core tiles.
const CORES: usize = COLS * COLS;

/// A packet in flight with its remaining source route.
#[derive(Debug)]
struct Flight<P> {
    pkt: Packet<P>,
    /// Remaining stations to visit; the current station is not included.
    path: VecDeque<u16>,
    /// Delivery endpoint index once the path is exhausted.
    endpoint: usize,
}

/// One queue at a station, keyed by the next station it feeds.
#[derive(Debug)]
struct WireQueue<P> {
    next: u16,
    /// Wire is serializing until this cycle.
    busy_until: Cycle,
    /// Wire latency in cycles.
    latency: u64,
    groups: [VecDeque<Flight<P>>; NUM_GROUPS],
    /// Flits resident or reserved per group.
    reserved: [u32; NUM_GROUPS],
    /// Round-robin pointer over groups.
    rr: usize,
}

impl<P> WireQueue<P> {
    fn new(next: u16, latency: u64) -> Self {
        WireQueue {
            next,
            busy_until: Cycle::ZERO,
            latency,
            groups: Default::default(),
            reserved: [0; NUM_GROUPS],
            rr: 0,
        }
    }

    fn total_queued(&self) -> usize {
        self.groups.iter().map(VecDeque::len).sum()
    }
}

/// A station of the NOC-Out graph (a core tile, an LLC tile, or an MC).
#[derive(Debug)]
struct Station<P> {
    wires: Vec<WireQueue<P>>,
    queued: u32,
}

impl<P> Station<P> {
    fn wire_to(&self, next: u16) -> Option<usize> {
        self.wires.iter().position(|w| w.next == next)
    }
}

#[derive(Debug, Clone, Copy)]
enum WireEnd {
    Station(u16),
    Endpoint(usize),
}

/// The NOC-Out interconnect: [`GRID`] columns (LLC tiles) of [`GRID`]
/// cores each, half above and half below the LLC row.
#[derive(Debug)]
pub struct NocOutNoc<P> {
    stations: Vec<Station<P>>,
    endpoints: Endpoints<P>,
    /// In-flight wire traversals.
    links: DelayLine<(WireEnd, Flight<P>)>,
    stats: NocStats,
    in_flight: u64,
    last_progress: Cycle,
}

impl<P> Default for NocOutNoc<P> {
    /// Build the station graph.
    fn default() -> NocOutNoc<P> {
        let (cols, cpc, n_cores) = (COLS, COLS, CORES);
        let n_stations = n_cores + cols /* LLC */ + cols /* MC */;
        let mut stations: Vec<Station<P>> = (0..n_stations)
            .map(|_| Station {
                wires: Vec::new(),
                queued: 0,
            })
            .collect();

        let this = |x: usize, y: usize| (y * cols + x) as u16;
        let llc = |c: usize| (n_cores + c) as u16;
        let mc = |c: usize| (n_cores + cols + c) as u16;
        let half = cpc / 2;

        // Column chains. Rows 0..half sit north of the LLC row (row half-1
        // is depth 1); rows half..cpc sit south (row half is depth 1).
        for c in 0..cols {
            for y in 0..cpc {
                let toward_llc: u16 = if y < half {
                    if y + 1 < half {
                        this(c, y + 1)
                    } else {
                        llc(c)
                    }
                } else if y == half {
                    llc(c)
                } else {
                    this(c, y - 1)
                };
                stations[this(c, y) as usize]
                    .wires
                    .push(WireQueue::new(toward_llc, 1));
                // Matching down wire from the inner neighbour back out.
                stations[toward_llc as usize]
                    .wires
                    .push(WireQueue::new(this(c, y), 1));
            }
        }
        // Flattened butterfly: all-to-all among LLC tiles and MCs.
        let fb_latency = |a: usize, b: usize| {
            let tiles = a.abs_diff(b).max(1) as u64;
            tiles.div_ceil(BUTTERFLY_TILES_PER_CYCLE).max(1)
        };
        let fb_nodes: Vec<u16> = (0..cols).map(llc).chain((0..cols).map(mc)).collect();
        for (i, &a) in fb_nodes.iter().enumerate() {
            for (j, &b) in fb_nodes.iter().enumerate() {
                if i != j {
                    let lat = fb_latency(i % cols, j % cols);
                    stations[a as usize].wires.push(WireQueue::new(b, lat));
                }
            }
        }

        let n_endpoints = n_cores + cols /* llc */ + cols /* niblock */ + cols /* mc */;
        NocOutNoc {
            stations,
            endpoints: Endpoints::new(n_endpoints),
            links: DelayLine::new(),
            stats: NocStats::default(),
            in_flight: 0,
            last_progress: Cycle::ZERO,
        }
    }
}

impl<P> NocOutNoc<P> {
    /// Station hosting `node`.
    fn station_of(&self, node: NocNode) -> u16 {
        match node {
            NocNode::Tile(c) => (usize::from(c.y) * COLS + usize::from(c.x)) as u16,
            NocNode::Llc(c) | NocNode::NiBlock(c) => (CORES + usize::from(c)) as u16,
            NocNode::Mc(r) => (CORES + COLS + usize::from(r)) as u16,
        }
    }

    /// Dense endpoint index for delivery queues.
    fn endpoint_index(&self, node: NocNode) -> usize {
        match node {
            NocNode::Tile(c) => usize::from(c.y) * COLS + usize::from(c.x),
            NocNode::Llc(c) => CORES + usize::from(c),
            NocNode::NiBlock(c) => CORES + COLS + usize::from(c),
            NocNode::Mc(r) => CORES + 2 * COLS + usize::from(r),
        }
    }

    /// LLC tile station of a core's column.
    fn column_llc(&self, c: Coord) -> u16 {
        (CORES + usize::from(c.x)) as u16
    }

    /// Stations between a core and its LLC tile, in the up direction
    /// (excluding the core itself, including the LLC station).
    fn chain_up(&self, c: Coord) -> Vec<u16> {
        let half = COLS / 2;
        let mut path = Vec::new();
        let y = usize::from(c.y);
        if y < half {
            for yy in (y + 1)..half {
                path.push((yy * COLS + usize::from(c.x)) as u16);
            }
        } else {
            for yy in (half..y).rev() {
                path.push((yy * COLS + usize::from(c.x)) as u16);
            }
        }
        path.push(self.column_llc(c));
        path
    }

    /// Stations from an LLC tile down to a core (excluding the LLC,
    /// including the core).
    fn chain_down(&self, c: Coord) -> Vec<u16> {
        let mut p = self.chain_up(c);
        p.pop(); // drop the LLC
        p.reverse();
        p.push((usize::from(c.y) * COLS + usize::from(c.x)) as u16);
        p
    }

    /// Full source route from `src` to `dst` (excluding the source station).
    fn route(&self, src: NocNode, dst: NocNode) -> VecDeque<u16> {
        let mut path = VecDeque::new();
        let src_fb = !matches!(src, NocNode::Tile(_));
        let dst_fb = !matches!(dst, NocNode::Tile(_));
        match (src, dst) {
            (NocNode::Tile(a), NocNode::Tile(b)) => {
                path.extend(self.chain_up(a));
                if a.x != b.x {
                    path.push_back(self.column_llc(b));
                }
                path.extend(self.chain_down(b));
            }
            (NocNode::Tile(a), _) if dst_fb => {
                path.extend(self.chain_up(a));
                let d = self.station_of(dst);
                if *path.back().expect("chain is non-empty") != d {
                    path.push_back(d);
                }
            }
            (_, NocNode::Tile(b)) if src_fb => {
                let s = self.station_of(src);
                let l = self.column_llc(b);
                if s != l {
                    path.push_back(l);
                }
                path.extend(self.chain_down(b));
            }
            _ => {
                let s = self.station_of(src);
                let d = self.station_of(dst);
                if s != d {
                    path.push_back(d);
                }
            }
        }
        path
    }

    fn absorb_arrivals(&mut self, now: Cycle) {
        while let Some((end, flight)) = self.links.pop_ready(now) {
            match end {
                WireEnd::Station(s) => {
                    self.enqueue_at(s, flight);
                }
                WireEnd::Endpoint(e) => {
                    self.stats.record_delivery(
                        flight.pkt.class,
                        flight.pkt.flits,
                        flight.pkt.injected_at,
                        now,
                    );
                    self.endpoints.deliver(e, flight.pkt);
                    self.in_flight -= 1;
                    self.last_progress = now;
                }
            }
        }
    }

    /// Place an arrived flight into the queue feeding its next wire at `s`.
    /// Space was reserved at grant/injection time.
    fn enqueue_at(&mut self, s: u16, flight: Flight<P>) {
        let g = group_of(flight.pkt.class);
        let key = flight.path.front().copied().unwrap_or(s);
        let st = &mut self.stations[s as usize];
        let w = st.wire_to(key).expect("reservation created the wire queue");
        st.wires[w].groups[g].push_back(flight);
        st.queued += 1;
    }

    /// Reserve space in the queue a flight will join at station `s` en route
    /// to `next` (`None` = terminal delivery at `s`). Returns `false` when
    /// the queue is full.
    fn try_reserve(&mut self, s: u16, next: Option<u16>, class: MessageClass, flits: u8) -> bool {
        let g = group_of(class);
        let key = next.unwrap_or(s);
        let st = &mut self.stations[s as usize];
        let w = match st.wire_to(key) {
            Some(i) => i,
            None if next.is_none() => {
                // Lazily create the local-delivery pseudo-wire.
                st.wires.push(WireQueue::new(s, 1));
                st.wires.len() - 1
            }
            None => panic!("no wire from station {s} to {key}"),
        };
        if QUEUE_CAPACITY_FLITS.saturating_sub(st.wires[w].reserved[g]) < u32::from(flits) {
            return false;
        }
        st.wires[w].reserved[g] += u32::from(flits);
        true
    }

    fn forward_all(&mut self, now: Cycle) {
        for s in 0..self.stations.len() as u16 {
            if self.stations[s as usize].queued == 0 {
                continue;
            }
            for w in 0..self.stations[s as usize].wires.len() {
                self.forward_wire(s, w, now);
            }
        }
    }

    /// Try to move one flight out of wire queue `w` at station `s`.
    fn forward_wire(&mut self, s: u16, w: usize, now: Cycle) {
        let (next, latency, group) = {
            let wq = &self.stations[s as usize].wires[w];
            if wq.busy_until > now || wq.total_queued() == 0 {
                return;
            }
            let mut chosen = None;
            for k in 0..NUM_GROUPS {
                let g = (wq.rr + k) % NUM_GROUPS;
                if !wq.groups[g].is_empty() {
                    chosen = Some(g);
                    break;
                }
            }
            let Some(g) = chosen else { return };
            (wq.next, wq.latency, g)
        };

        if next == s {
            // Local delivery pseudo-wire.
            let (flits, endpoint) = {
                let f = self.stations[s as usize].wires[w].groups[group]
                    .front()
                    .expect("non-empty group");
                (f.pkt.flits, f.endpoint)
            };
            if self.endpoints.free_flits(endpoint) < u32::from(flits) {
                return;
            }
            let wq = &mut self.stations[s as usize].wires[w];
            let flight = wq.groups[group].pop_front().expect("checked non-empty");
            wq.reserved[group] -= u32::from(flits);
            wq.busy_until = now + u64::from(flits);
            wq.rr = (group + 1) % NUM_GROUPS;
            self.stations[s as usize].queued -= 1;
            self.endpoints.reserve(endpoint, flits);
            self.links
                .push_at(now + 1, (WireEnd::Endpoint(endpoint), flight));
            self.last_progress = now;
            return;
        }

        let (flits, class, after_next) = {
            let f = self.stations[s as usize].wires[w].groups[group]
                .front()
                .expect("non-empty group");
            (f.pkt.flits, f.pkt.class, f.path.get(1).copied())
        };
        if !self.try_reserve(next, after_next, class, flits) {
            return;
        }
        let wq = &mut self.stations[s as usize].wires[w];
        let mut flight = wq.groups[group].pop_front().expect("checked non-empty");
        wq.reserved[group] -= u32::from(flits);
        wq.busy_until = now + u64::from(flits);
        wq.rr = (group + 1) % NUM_GROUPS;
        self.stations[s as usize].queued -= 1;
        flight.path.pop_front();
        self.stats.record_hop(flits, false);
        self.links
            .push_at(now + latency, (WireEnd::Station(next), flight));
        self.last_progress = now;
    }
}

impl<P> Interconnect<P> for NocOutNoc<P> {
    fn try_inject(&mut self, now: Cycle, mut pkt: Packet<P>) -> Result<(), Packet<P>> {
        let src_idx = self.endpoint_index(pkt.src);
        if self.endpoints.inject_busy(src_idx, now) {
            self.stats.inject_rejects.incr();
            return Err(pkt);
        }
        let s = self.station_of(pkt.src);
        let path = self.route(pkt.src, pkt.dst);
        let next = path.front().copied();
        if !self.try_reserve(s, next, pkt.class, pkt.flits) {
            self.stats.inject_rejects.incr();
            return Err(pkt);
        }
        pkt.injected_at = now;
        let flits = pkt.flits;
        let endpoint = self.endpoint_index(pkt.dst);
        self.endpoints.start_inject(src_idx, now, flits);
        self.in_flight += 1;
        self.stats.injected_packets.incr();
        self.last_progress = now;
        self.enqueue_at(
            s,
            Flight {
                pkt,
                path,
                endpoint,
            },
        );
        Ok(())
    }

    fn eject(&mut self, node: NocNode) -> Option<Packet<P>> {
        let e = self.endpoint_index(node);
        self.endpoints.eject(e)
    }

    fn eject_next(&mut self) -> Option<Packet<P>> {
        self.endpoints.eject_next()
    }

    fn tick(&mut self, now: Cycle) {
        self.absorb_arrivals(now);
        self.forward_all(now);
        if self.in_flight > 0 && now.saturating_since(self.last_progress) > WATCHDOG_CYCLES {
            panic!(
                "NOC-Out watchdog: {} packets stalled since {:?} (now {:?})",
                self.in_flight, self.last_progress, now
            );
        }
        debug_assert_eq!(
            self.endpoints.audit(),
            Ok(()),
            "NOC-Out endpoints at {now:?}"
        );
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn is_idle(&self) -> bool {
        self.in_flight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(
        noc: &mut NocOutNoc<u32>,
        dst: NocNode,
        mut now: Cycle,
        limit: u64,
    ) -> (Packet<u32>, Cycle) {
        let start = now;
        loop {
            noc.tick(now);
            if let Some(p) = noc.eject(dst) {
                return (p, now);
            }
            now += 1;
            assert!(now.0 < start.0 + limit, "not delivered within {limit}");
        }
    }

    fn send(noc: &mut NocOutNoc<u32>, src: NocNode, dst: NocNode, flits: u8, tag: u32) {
        let pkt = Packet::new(src, dst, MessageClass::CohReq, flits, tag);
        noc.try_inject(Cycle(0), pkt).unwrap();
    }

    #[test]
    fn core_reaches_own_llc_quickly() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        // Row 3 is depth 1 north: one hop to the LLC.
        send(&mut noc, NocNode::tile(2, 3), NocNode::Llc(2), 1, 5);
        let (p, when) = deliver(&mut noc, NocNode::Llc(2), Cycle(0), 100);
        assert_eq!(p.payload, 5);
        assert!(when.0 <= 5, "depth-1 core took {} cycles", when.0);
    }

    #[test]
    fn deeper_cores_take_longer() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc, NocNode::tile(2, 0), NocNode::Llc(2), 1, 1);
        let (_, t_deep) = deliver(&mut noc, NocNode::Llc(2), Cycle(0), 100);
        let mut noc2: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc2, NocNode::tile(2, 3), NocNode::Llc(2), 1, 1);
        let (_, t_shallow) = deliver(&mut noc2, NocNode::Llc(2), Cycle(0), 100);
        assert!(
            t_deep > t_shallow,
            "depth 4 {} vs depth 1 {}",
            t_deep.0,
            t_shallow.0
        );
    }

    #[test]
    fn south_side_chains_work_symmetrically() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc, NocNode::tile(3, 7), NocNode::Llc(3), 1, 8);
        let (p, _) = deliver(&mut noc, NocNode::Llc(3), Cycle(0), 100);
        assert_eq!(p.payload, 8);
    }

    #[test]
    fn cross_column_core_to_core() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc, NocNode::tile(0, 0), NocNode::tile(7, 7), 5, 42);
        let (p, _) = deliver(&mut noc, NocNode::tile(7, 7), Cycle(0), 500);
        assert_eq!(p.payload, 42);
        assert!(noc.is_idle());
    }

    #[test]
    fn butterfly_connects_llc_and_mc() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc, NocNode::Llc(0), NocNode::Mc(7), 5, 9);
        let (p, when) = deliver(&mut noc, NocNode::Mc(7), Cycle(0), 100);
        assert_eq!(p.payload, 9);
        // 7 tiles at 2 tiles/cycle: about 4 cycles plus queuing/delivery.
        assert!(when.0 <= 15, "butterfly hop took {}", when.0);
    }

    #[test]
    fn ni_block_aliases_llc_tile_with_separate_queue() {
        let mut noc: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut noc, NocNode::tile(4, 4), NocNode::NiBlock(4), 2, 77);
        let (p, _) = deliver(&mut noc, NocNode::NiBlock(4), Cycle(0), 100);
        assert_eq!(p.payload, 77);
        assert!(noc.eject(NocNode::Llc(4)).is_none());
    }

    #[test]
    fn chain_sharing_serializes_column_traffic() {
        // Two deep cores of the same column both send 5-flit packets; the
        // shared chain serializes them at the inner station.
        let mut same: NocOutNoc<u32> = NocOutNoc::default();
        send(&mut same, NocNode::tile(1, 0), NocNode::Llc(1), 5, 1);
        send(&mut same, NocNode::tile(1, 1), NocNode::Llc(1), 5, 2);
        let (_, t1) = deliver(&mut same, NocNode::Llc(1), Cycle(0), 300);
        let (_, t2) = deliver(&mut same, NocNode::Llc(1), t1, 300);
        assert!(t2.0 > t1.0);
    }
}
