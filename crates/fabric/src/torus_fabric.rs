//! A real multi-node rack transport over the 3D torus.
//!
//! Where the rate-matching emulator *answers* a node's traffic,
//! [`TorusFabric`] *carries* it: every request and response is forwarded
//! hop-by-hop along a minimal (Lee-distance) path, paying per-hop wire
//! latency plus serialization on each directed link. Links have finite
//! bandwidth: a packet occupies its link for
//! `ceil(bytes / link_bytes_per_cycle)` cycles and later packets queue
//! behind it, so congestion emerges rather than being modeled by a rate
//! estimate. Every directed link keeps an occupancy/bandwidth accumulator
//! ([`LinkLoad`]) from which per-link peak GB/s reports are drawn.
//!
//! *Which* minimal path a packet takes is decided per hop by a pluggable
//! [`RoutingPolicy`]: deterministic dimension order
//! ([`DimensionOrder`](crate::routing::DimensionOrder), the default),
//! congestion-aware minimal-adaptive routing steered by each node's
//! [`LinkView`] of its links' backlogs
//! ([`MinimalAdaptive`](crate::routing::MinimalAdaptive)), a seeded random
//! oblivious baseline ([`RandomMinimal`](crate::routing::RandomMinimal)),
//! or any external implementation handed to
//! [`TorusFabric::with_policy`].
//!
//! The fabric can degrade mid-run: a [`FaultPlan`] in the config schedules
//! link and node kills (and repairs) at fixed cycles. Dead links stop
//! accepting and serializing flits — packets routed at them park and retry
//! each cycle — while dead nodes drop every packet they would source,
//! relay, or consume. Health is visible to routing through the per-hop
//! [`LinkView`], which is how
//! [`FaultAdaptive`](crate::routing::FaultAdaptive) steers around kills;
//! end-to-end recovery of erased traffic belongs to the RMC backend's ITT
//! timeout/retry machinery, not the fabric.
//!
//! The fabric implements [`Fabric`], making it a drop-in replacement for
//! the emulator behind any chip's network router.
//!
//! A packet on its final hop has a fixed delivery cycle, so final hops wait
//! in a delivery heap of their own, apart from the packets still to be
//! routed. [`TorusFabric::tick`] delivers the due ones into per-node
//! queues, one cycle at a time. A rack driver that runs its chips a whole
//! lookahead window at a time ([`TorusFabric::lookahead`]) instead moves
//! every delivery due inside the window straight into the nodes'
//! [`FabricPort`]s up front ([`TorusFabric::open_window`]).

use std::collections::VecDeque;

use ni_engine::{Counter, Cycle, DelayLine, Frequency, LinkLoad};

use crate::fabric::{Fabric, FabricStats};
use crate::fault::{FaultEvent, FaultPlan};
use crate::port::FabricPort;
use crate::rack::{RemoteReq, RemoteResp, HOP_CYCLES};
use crate::routing::{LinkView, RoutingKind, RoutingPolicy, ESCAPE_HOP_BUDGET};
use crate::torus::{Dir, Torus3D};

/// Transport configuration.
#[derive(Clone, Debug)]
pub struct TorusFabricConfig {
    /// Rack geometry.
    pub torus: Torus3D,
    /// Wire latency per hop in cycles (35ns = 70 cycles at 2 GHz, §5).
    pub hop_cycles: u64,
    /// Link bandwidth in bytes per cycle (serialization rate). The paper's
    /// chips drive multiple tens of GB/s of rack traffic; 16 B/cycle
    /// (32 GB/s at 2 GHz, one NOC flit per cycle) is the default.
    pub link_bytes_per_cycle: u64,
    /// Window length in cycles for per-link peak-bandwidth tracking.
    pub stats_window: u64,
    /// Built-in routing policy ([`RoutingKind::DimensionOrder`] by
    /// default); custom [`RoutingPolicy`] implementations go through
    /// [`TorusFabric::with_policy`] instead.
    pub routing: RoutingKind,
    /// Scheduled link/node failures (and repairs), applied by the fabric
    /// at their firing cycles. Empty by default (a healthy fabric).
    pub faults: FaultPlan,
}

impl Default for TorusFabricConfig {
    fn default() -> Self {
        TorusFabricConfig {
            torus: Torus3D::new(2, 2, 2),
            hop_cycles: HOP_CYCLES,
            link_bytes_per_cycle: 16,
            stats_window: 10_000,
            routing: RoutingKind::DimensionOrder,
            faults: FaultPlan::default(),
        }
    }
}

/// Cycles from injecting a self-addressed packet to its delivery: it
/// touches no link.
pub(crate) const SELF_DELIVERY_CYCLES: u64 = 1;

/// Wire size of a header-only packet: two 16-byte flits (§6.1.3).
const HEADER_PKT_BYTES: u64 = 32;
/// Wire size of a packet carrying a 64-byte cache block: six flits.
const DATA_PKT_BYTES: u64 = 96;

/// What travels the wires.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TorusPkt {
    Req(RemoteReq),
    Resp(RemoteResp),
}

impl TorusPkt {
    pub(crate) fn dest(&self) -> u16 {
        match self {
            TorusPkt::Req(r) => r.target_node,
            TorusPkt::Resp(r) => r.dst_node,
        }
    }

    /// Wire size in bytes: 16-byte flits, two for a header-only packet and
    /// six when a 64-byte cache block rides along (§6.1.3).
    fn wire_bytes(&self) -> u64 {
        let data = match self {
            TorusPkt::Req(r) => !r.is_read,
            TorusPkt::Resp(r) => r.is_read,
        };
        if data {
            DATA_PKT_BYTES
        } else {
            HEADER_PKT_BYTES
        }
    }
}

/// A packet parked at a node, waiting to cross its next link.
#[derive(Clone, Copy, Debug)]
struct Transit {
    at_node: u32,
    pkt: TorusPkt,
    /// Non-minimal escape hops this packet may still spend (see
    /// [`ESCAPE_HOP_BUDGET`]).
    escapes_left: u8,
}

/// One directed link's state.
#[derive(Clone, Debug)]
struct Link {
    /// The cycle this link finishes serializing its last-accepted packet.
    busy_until: Cycle,
    /// False while a [`FaultEvent::LinkDown`] is in effect: the link
    /// accepts and serializes nothing.
    up: bool,
    load: LinkLoad,
}

ni_engine::stats! {
    /// Fault-path counters of one [`TorusFabric`] (all zero on a healthy run).
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct FaultStats {
        /// Packets dropped because their source, current, or destination node
        /// was dead — the traffic a [`FaultEvent::NodeDown`] erases.
        pub packets_dropped: Counter,
        /// Forward attempts parked because the chosen link was dead (one per
        /// packet per cycle spent waiting — a measure of stall pressure, not
        /// of distinct packets).
        pub dead_link_stalls: Counter,
        /// Non-minimal escape hops actually taken (see [`ESCAPE_HOP_BUDGET`]).
        pub escape_hops: Counter,
    }
}

/// Report row for one directed link.
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// Source node of the directed link.
    pub node: u32,
    /// Ring direction the link points in.
    pub dir: Dir,
    /// Packets that crossed it.
    pub packets: u64,
    /// Bytes that crossed it.
    pub bytes: u64,
    /// Cycles spent serializing.
    pub busy_cycles: u64,
    /// Peak bandwidth over any stats window, GB/s at 2 GHz.
    pub peak_gbps: f64,
}

impl LinkReport {
    /// Column names of [`csv_row`](LinkReport::csv_row), comma-separated.
    pub const CSV_HEADER: &'static str = "node,dir,packets,bytes,busy_cycles,peak_gbps";

    /// This row in the [`CSV_HEADER`](LinkReport::CSV_HEADER) column order
    /// (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.6}",
            self.node, self.dir, self.packets, self.bytes, self.busy_cycles, self.peak_gbps
        )
    }
}

/// Serialize a link report as CSV (header plus one row per directed link).
pub fn link_report_csv(links: &[LinkReport]) -> String {
    let mut out = String::from(LinkReport::CSV_HEADER);
    out.push('\n');
    for l in links {
        out.push_str(&l.csv_row());
        out.push('\n');
    }
    out
}

/// The multi-node torus transport.
pub struct TorusFabric {
    cfg: TorusFabricConfig,
    /// Packets still to be routed (relayed, or parked at a dead link),
    /// keyed by arrival time at their next node.
    wires: DelayLine<Transit>,
    /// Packets on their final hop (self-addressed ones included), keyed by
    /// delivery cycle at their destination node.
    arrivals: DelayLine<(u32, TorusPkt)>,
    /// Per-node arrival queues.
    incoming: Vec<VecDeque<RemoteReq>>,
    responses: Vec<VecDeque<RemoteResp>>,
    /// Total entries across all arrival queues, maintained at the only
    /// push/pop sites ([`TorusFabric::deliver`] and the two `pop_*`s) so
    /// the rack driver can skip the whole per-node collection scan on
    /// cycles with nothing delivered.
    queued: usize,
    /// Directed links, indexed `node * 6 + dir.index()`.
    links: Vec<Link>,
    /// Per-node liveness (false while a [`FaultEvent::NodeDown`] is in
    /// effect).
    node_up: Vec<bool>,
    /// The fault schedule, sorted by firing cycle.
    fault_events: Vec<FaultEvent>,
    /// Index of the next unapplied event in `fault_events`.
    next_fault: usize,
    /// True when the config scheduled any fault at all — false skips every
    /// per-hop liveness check, so a healthy run pays nothing for the fault
    /// machinery.
    has_faults: bool,
    /// Per-hop routing decision procedure (see [`RoutingPolicy`]).
    policy: Box<dyn RoutingPolicy>,
    stats: FabricStats,
    fault_stats: FaultStats,
    /// Total link traversals (= hops) completed, across all packets.
    hops_traversed: Counter,
}

impl TorusFabric {
    /// Build an idle fabric over `cfg.torus`, routing with the built-in
    /// policy named by `cfg.routing`.
    ///
    /// # Panics
    /// Panics if `link_bytes_per_cycle` or `stats_window` is zero.
    pub fn new(cfg: TorusFabricConfig) -> TorusFabric {
        let policy = cfg.routing.build();
        TorusFabric::with_policy(cfg, policy)
    }

    /// As [`new`](TorusFabric::new) with an arbitrary [`RoutingPolicy`] —
    /// the open extension point (`cfg.routing` is ignored).
    ///
    /// # Panics
    /// Panics if `link_bytes_per_cycle` or `stats_window` is zero, or if
    /// `cfg.faults` names a node outside the torus or a link between
    /// non-neighbors.
    pub fn with_policy(cfg: TorusFabricConfig, policy: Box<dyn RoutingPolicy>) -> TorusFabric {
        assert!(
            cfg.link_bytes_per_cycle > 0,
            "links need non-zero bandwidth"
        );
        let fault_events = cfg.faults.sorted_events();
        for e in &fault_events {
            match *e {
                FaultEvent::LinkDown { a, b, .. } | FaultEvent::LinkUp { a, b, .. } => {
                    assert!(
                        a < cfg.torus.nodes() && b < cfg.torus.nodes(),
                        "fault plan link {a}<->{b} outside the {:?} torus",
                        cfg.torus.dims()
                    );
                    assert!(
                        cfg.torus.hops(a, b) == 1,
                        "fault plan link {a}<->{b} joins non-neighbors"
                    );
                }
                FaultEvent::NodeDown { node, .. } | FaultEvent::NodeUp { node, .. } => {
                    assert!(
                        node < cfg.torus.nodes(),
                        "fault plan node {node} outside the {:?} torus",
                        cfg.torus.dims()
                    );
                }
            }
        }
        let n = cfg.torus.nodes() as usize;
        TorusFabric {
            wires: DelayLine::new(),
            arrivals: DelayLine::new(),
            incoming: (0..n).map(|_| VecDeque::new()).collect(),
            responses: (0..n).map(|_| VecDeque::new()).collect(),
            queued: 0,
            links: (0..n * 6)
                .map(|_| Link {
                    busy_until: Cycle::ZERO,
                    up: true,
                    load: LinkLoad::new(cfg.stats_window),
                })
                .collect(),
            node_up: vec![true; n],
            has_faults: !fault_events.is_empty(),
            fault_events,
            next_fault: 0,
            policy,
            stats: FabricStats::default(),
            fault_stats: FaultStats::default(),
            hops_traversed: Counter::default(),
            cfg,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &TorusFabricConfig {
        &self.cfg
    }

    /// Short name of the routing policy in use (`"dor"`, `"adaptive"`, ...).
    pub fn routing_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Fault-path counters (packets dropped by dead nodes, forward
    /// attempts stalled at dead links, escape hops taken). All zero when
    /// the fault plan is empty.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// True when the directed link leaving `from` toward `d` can carry
    /// traffic right now: the link itself is up and the neighbor it leads
    /// to is not a dead node.
    pub fn link_live(&self, from: u32, d: Dir) -> bool {
        self.links[from as usize * 6 + d.index()].up
            && self.node_up[self.cfg.torus.neighbor(from, d) as usize]
    }

    /// Apply every scheduled fault event due by `now` (idempotent; called
    /// from `tick` and the injection paths so link state is current before
    /// any routing decision).
    fn apply_faults(&mut self, now: Cycle) {
        while let Some(e) = self.fault_events.get(self.next_fault) {
            if e.at_cycle() > now.0 {
                break;
            }
            let e = *e;
            self.next_fault += 1;
            match e {
                FaultEvent::LinkDown { a, b, .. } => self.set_link(a, b, false),
                FaultEvent::LinkUp { a, b, .. } => self.set_link(a, b, true),
                FaultEvent::NodeDown { node, .. } => self.node_up[node as usize] = false,
                FaultEvent::NodeUp { node, .. } => self.node_up[node as usize] = true,
            }
        }
    }

    /// Set both directed links between neighbors `a` and `b` (on a 2-ring,
    /// where both ring directions join the same pair, all of them).
    fn set_link(&mut self, a: u32, b: u32, up: bool) {
        for d in Dir::ALL {
            if self.cfg.torus.neighbor(a, d) == b {
                self.links[a as usize * 6 + d.index()].up = up;
            }
            if self.cfg.torus.neighbor(b, d) == a {
                self.links[b as usize * 6 + d.index()].up = up;
            }
        }
    }

    /// The [`LinkView`] a packet at `node` would be routed with at `now`:
    /// the serialization backlogs and liveness of the node's six outgoing
    /// links (a fresh packet's full escape budget); `route` substitutes the
    /// routed packet's remaining budget.
    fn link_view(&self, node: u32, now: Cycle) -> LinkView {
        let base = node as usize * 6;
        let mut backlog = [0u64; 6];
        for (i, b) in backlog.iter_mut().enumerate() {
            *b = self.links[base + i].busy_until.saturating_since(now);
        }
        let mut up = [true; 6];
        if self.has_faults {
            for (i, u) in up.iter_mut().enumerate() {
                *u = self.link_live(node, Dir::ALL[i]);
            }
        }
        LinkView::new(backlog).with_health(up)
    }

    /// Total link traversals completed so far (one per packet per link).
    pub fn hops_traversed(&self) -> u64 {
        self.hops_traversed.get()
    }

    /// Per-directed-link traffic report, in `(node, dir)` order, links that
    /// never carried a packet included.
    pub fn link_report(&self) -> Vec<LinkReport> {
        let mut out = Vec::with_capacity(self.links.len());
        for node in 0..self.cfg.torus.nodes() {
            for d in Dir::ALL {
                let l = &self.links[node as usize * 6 + d.index()];
                out.push(LinkReport {
                    node,
                    dir: d,
                    packets: l.load.packets(),
                    bytes: l.load.total_bytes(),
                    busy_cycles: l.load.busy_cycles(),
                    peak_gbps: l.load.peak_gbps(Frequency::GHZ2),
                });
            }
        }
        out
    }

    /// Largest per-link peak bandwidth in GB/s (0 when idle).
    pub fn peak_link_gbps(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.load.peak_gbps(Frequency::GHZ2))
            .fold(0.0, f64::max)
    }

    /// Per-link load imbalance: the busiest link's total bytes over the
    /// mean of all loaded links (1.0 when balanced or idle). Computed
    /// straight off the link accumulators — no report allocation — so it is
    /// safe to sample every cycle.
    pub fn link_byte_skew(&self) -> f64 {
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut loaded = 0u64;
        for l in &self.links {
            let b = l.load.total_bytes();
            if b > 0 {
                max = max.max(b);
                sum += b;
                loaded += 1;
            }
        }
        if loaded == 0 {
            return 1.0;
        }
        max as f64 / (sum as f64 / loaded as f64).max(1.0)
    }

    /// Bounds-check a node id at the injection boundary. This stays a hard
    /// assert: it runs once per packet (never per hop/forward), and an
    /// out-of-range destination admitted in release would bounce on the
    /// torus forever instead of failing loudly — custom scenarios are an
    /// advertised extension point and can hand us any id.
    #[inline]
    fn validate_node(&self, node: u16) -> u32 {
        assert!(
            u32::from(node) < self.cfg.torus.nodes(),
            "node {node} outside the {:?} torus",
            self.cfg.torus.dims()
        );
        u32::from(node)
    }

    /// Debug-only variant for the per-cycle pop paths, where an invalid id
    /// would fault on the queue index immediately anyway.
    #[inline]
    fn debug_validate_node(&self, node: u16) -> u32 {
        debug_assert!(
            u32::from(node) < self.cfg.torus.nodes(),
            "node {node} outside the {:?} torus",
            self.cfg.torus.dims()
        );
        u32::from(node)
    }

    /// Send `pkt` across its next link out of `from` — the direction chosen
    /// by the routing policy from a fresh [`LinkView`] — honoring the
    /// link's serialization backlog and health, and schedule its arrival at
    /// the neighbor. `escapes_left` is the packet's remaining non-minimal
    /// hop budget (see [`ESCAPE_HOP_BUDGET`]).
    fn forward(&mut self, now: Cycle, from: u32, pkt: TorusPkt, escapes_left: u8) {
        let dest = u32::from(pkt.dest());
        // Dead nodes drop their traffic: anything a dead node would source
        // or relay disappears, and traffic *to* a dead node is erased at
        // the first forward attempt rather than parked forever — recovery
        // is the requester's ITT timeout, not the fabric's.
        if self.has_faults && (!self.node_up[from as usize] || !self.node_up[dest as usize]) {
            self.fault_stats.packets_dropped.incr();
            return;
        }
        let Some(dir) = self.route(now, from, dest, escapes_left) else {
            // Already home (self-addressed traffic): deliver next cycle
            // without touching any link.
            self.arrivals
                .push_after(now, SELF_DELIVERY_CYCLES, (from, pkt));
            return;
        };
        // No packet ever crosses a dead link, whatever the policy chose:
        // park it one cycle and retry — the measured stall of a
        // health-blind policy (DimensionOrder) at a kill site, and the
        // wait-for-repair path otherwise.
        if self.has_faults && !self.link_live(from, dir) {
            self.fault_stats.dead_link_stalls.incr();
            self.wires.push_after(
                now,
                1,
                Transit {
                    at_node: from,
                    pkt,
                    escapes_left,
                },
            );
            return;
        }
        // Minimality contract: every hop must strictly close on the
        // destination, which is what bounds delivery at the Lee distance.
        // Policies that declare themselves non-minimal may instead spend
        // the packet's bounded escape budget (fault avoidance), which is
        // what keeps even their detours livelock-free.
        let productive = self
            .cfg
            .torus
            .hops(self.cfg.torus.neighbor(from, dir), dest)
            < self.cfg.torus.hops(from, dest);
        let escapes_left = if productive {
            escapes_left
        } else {
            debug_assert!(
                !self.policy.strictly_minimal(),
                "policy {} picked unproductive {dir} at {from} toward {dest}",
                self.policy.name()
            );
            debug_assert!(
                escapes_left > 0,
                "policy {} escaped at {from} toward {dest} with no budget left",
                self.policy.name()
            );
            if escapes_left == 0 {
                // Release-mode safety net for a buggy policy: refuse the
                // unbudgeted non-minimal hop and park instead of
                // livelocking.
                self.fault_stats.dead_link_stalls.incr();
                self.wires.push_after(
                    now,
                    1,
                    Transit {
                        at_node: from,
                        pkt,
                        escapes_left,
                    },
                );
                return;
            }
            self.fault_stats.escape_hops.incr();
            escapes_left - 1
        };
        let bytes = pkt.wire_bytes();
        let ser = bytes.div_ceil(self.cfg.link_bytes_per_cycle);
        let link = &mut self.links[from as usize * 6 + dir.index()];
        let depart = now.max(link.busy_until);
        link.busy_until = depart + ser;
        link.load.record(depart, bytes, ser);
        let next = self.cfg.torus.neighbor(from, dir);
        let arrive_in = (depart - now) + ser + self.cfg.hop_cycles;
        self.hops_traversed.incr();
        if next == dest {
            self.arrivals.push_after(now, arrive_in, (next, pkt));
        } else {
            self.wires.push_after(
                now,
                arrive_in,
                Transit {
                    at_node: next,
                    pkt,
                    escapes_left,
                },
            );
        }
    }

    /// Ask the routing policy for the next hop of a packet at `from`
    /// headed to `dest`: `None` exactly when it is already home.
    fn route(&mut self, now: Cycle, from: u32, dest: u32, escapes_left: u8) -> Option<Dir> {
        // Congestion-blind policies skip the six-counter snapshot on this
        // per-link-traversal hot path (see RoutingPolicy::uses_link_view).
        let view = if self.policy.uses_link_view() {
            self.link_view(from, now).with_escapes(escapes_left)
        } else {
            LinkView::idle()
        };
        let dir = self.policy.route(&self.cfg.torus, from, dest, &view);
        // Hard assert (rare path, O(1)): a custom policy returning None
        // off-destination would otherwise self-requeue its packet every
        // cycle — a silent livelock in release builds.
        assert!(
            dir.is_some() || from == dest,
            "policy {} returned None at {from} toward {dest}",
            self.policy.name()
        );
        dir
    }

    /// True when a packet arriving at `node` now is lost with it (the node
    /// is dead), counting the drop.
    fn lost_at(&mut self, node: u32) -> bool {
        let lost = self.has_faults && !self.node_up[node as usize];
        if lost {
            self.fault_stats.packets_dropped.incr();
        }
        lost
    }

    /// Count a delivery at its destination node.
    fn count_delivery(&mut self, pkt: &TorusPkt) {
        match pkt {
            TorusPkt::Req(_) => self.stats.incoming_generated.incr(),
            TorusPkt::Resp(_) => self.stats.responded.incr(),
        }
    }

    fn deliver(&mut self, node: u32, pkt: TorusPkt) {
        self.count_delivery(&pkt);
        self.queued += 1;
        match pkt {
            TorusPkt::Req(r) => self.incoming[node as usize].push_back(r),
            TorusPkt::Resp(r) => self.responses[node as usize].push_back(r),
        }
    }

    /// The fewest cycles between a packet's injection and its delivery at
    /// another node: one hop's wire latency plus the serialization of the
    /// smallest (header-only) packet. 72 cycles at the defaults. Nothing a
    /// node injects at cycle `t` can reach another node before
    /// `t + lookahead()`, so chips may run that long between exchanges
    /// without missing an arrival (the conservative lookahead of parallel
    /// discrete-event simulation).
    pub fn lookahead(&self) -> u64 {
        self.cfg.hop_cycles + HEADER_PKT_BYTES.div_ceil(self.cfg.link_bytes_per_cycle)
    }

    /// Open a lookahead window starting at `start`; returns its end.
    ///
    /// Applies the fault events due by `start`, then ends the window at
    /// the first of `start + lookahead()`, `limit` and the next fault
    /// event, so node and link health stay fixed inside it. Every packet
    /// due to land in `[start, end)` is already on its final hop: it is
    /// counted (or dropped at a dead node) as [`Fabric::tick`] would count
    /// it, and handed to its node's port in `ports` (indexed by node id)
    /// with its due cycle, in delivery order. Ports of live nodes may then
    /// loop self-addressed packets back inside the window (see
    /// [`FabricPort`]). The driver replays the window's outboxes into the
    /// fabric afterwards, cycle by cycle, with [`Fabric::tick`] and
    /// [`FabricPort::flush_outbox`].
    ///
    /// # Panics
    /// Panics if `limit <= start`.
    pub fn open_window(&mut self, start: Cycle, limit: Cycle, ports: &[FabricPort]) -> Cycle {
        assert!(limit > start, "empty window at {start:?}");
        debug_assert_eq!(ports.len(), self.node_up.len(), "one port per node");
        self.apply_faults(start);
        let mut end = limit.min(start + self.lookahead());
        if let Some(e) = self.fault_events.get(self.next_fault) {
            end = end.min(Cycle(e.at_cycle()));
        }
        while let Some(due) = self.arrivals.next_ready_at().filter(|&d| d < end) {
            let (node, pkt) = self.arrivals.pop_ready(due).expect("peeked arrival");
            debug_assert!(due >= start, "arrival due at {due:?} missed its window");
            if !self.lost_at(node) {
                self.count_delivery(&pkt);
                ports[node as usize].push_arrival(due, pkt);
            }
        }
        for port in ports {
            let up = !self.has_faults || self.node_up[usize::from(port.node())];
            port.set_loopback_until(if up { end } else { start });
        }
        end
    }

    /// Account a self-addressed packet that its node's port delivered
    /// itself [`SELF_DELIVERY_CYCLES`] after `now`, inside a lookahead
    /// window: the injection and
    /// the delivery [`Fabric::inject`] and the next [`Fabric::tick`] would
    /// count, with the same routing-policy call, and no wire.
    pub(crate) fn account_loopback(&mut self, now: Cycle, from: u16, pkt: TorusPkt) {
        self.apply_faults(now);
        let node = self.validate_node(from);
        debug_assert_eq!(u32::from(pkt.dest()), node, "looped back a foreign packet");
        debug_assert!(
            !self.has_faults || self.node_up[node as usize],
            "node {node} looped back a packet while dead"
        );
        if let TorusPkt::Req(_) = pkt {
            self.stats.sent.incr();
        }
        let dir = self.route(now, node, node, ESCAPE_HOP_BUDGET);
        debug_assert!(dir.is_none(), "policy routed a packet away from home");
        self.count_delivery(&pkt);
    }

    /// True when any node has undrained arrivals: the cue for the rack
    /// driver to run (or skip) its per-node collection scan.
    pub fn has_deliveries(&self) -> bool {
        self.queued != 0
    }
}

impl Fabric for TorusFabric {
    fn inject(&mut self, now: Cycle, from: u16, req: RemoteReq) {
        self.apply_faults(now);
        let src = self.validate_node(from);
        self.validate_node(req.target_node);
        self.stats.sent.incr();
        let mut req = req;
        req.src_node = from;
        self.forward(now, src, TorusPkt::Req(req), ESCAPE_HOP_BUDGET);
    }

    fn inject_resp(&mut self, now: Cycle, from: u16, resp: RemoteResp) {
        self.apply_faults(now);
        let src = self.validate_node(from);
        self.validate_node(resp.dst_node);
        self.forward(now, src, TorusPkt::Resp(resp), ESCAPE_HOP_BUDGET);
    }

    fn tick(&mut self, now: Cycle) {
        self.apply_faults(now);
        // Naturally idempotent within a cycle: everything `forward` pushes
        // (relay hops included) arrives strictly after `now`, so a second
        // call at the same cycle pops nothing. No guard state needed.
        // Relays and deliveries touch disjoint state, so routing every
        // due relay before delivering changes no outcome.
        while let Some(t) = self.wires.pop_ready(now) {
            debug_assert_ne!(u32::from(t.pkt.dest()), t.at_node, "final hop among relays");
            // In flight when its current node died: dropped with it.
            if !self.lost_at(t.at_node) {
                self.forward(now, t.at_node, t.pkt, t.escapes_left);
            }
        }
        while let Some((node, pkt)) = self.arrivals.pop_ready(now) {
            if !self.lost_at(node) {
                self.deliver(node, pkt);
            }
        }
    }

    fn pop_response(&mut self, _now: Cycle, node: u16) -> Option<RemoteResp> {
        let n = self.debug_validate_node(node) as usize;
        let r = self.responses[n].pop_front();
        if r.is_some() {
            self.queued -= 1;
        }
        r
    }

    fn pop_incoming(&mut self, _now: Cycle, node: u16) -> Option<RemoteReq> {
        let n = self.debug_validate_node(node) as usize;
        let r = self.incoming[n].pop_front();
        if r.is_some() {
            self.queued -= 1;
        }
        r
    }

    fn record_rrpp_latency(&mut self, _node: u16, _cycles: u64) {
        // Real remote ends are simulated in detail; no estimate to refine.
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn is_idle(&self) -> bool {
        self.wires.is_empty() && self.arrivals.is_empty() && self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ni_mem::BlockAddr;

    fn fabric(x: u16, y: u16, z: u16) -> TorusFabric {
        TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(x, y, z),
            ..TorusFabricConfig::default()
        })
    }

    fn req(tid: u64, target: u16) -> RemoteReq {
        RemoteReq {
            tid,
            is_read: true,
            src_node: 0,
            target_node: target,
            remote_block: BlockAddr(5),
            value: 0,
            service: 0,
        }
    }

    fn run_until_idle(f: &mut TorusFabric, from: Cycle, limit: u64) -> Cycle {
        let mut now = from;
        while !f.wires.is_empty() || !f.arrivals.is_empty() {
            f.tick(now);
            now += 1;
            assert!(now.0 < limit, "fabric never drained");
        }
        now
    }

    #[test]
    fn one_hop_request_arrives_after_serialization_plus_wire() {
        let mut f = fabric(2, 1, 1);
        f.inject(Cycle(0), 0, req(1, 1));
        // 32B at 16B/cycle = 2 cycles serialization + 70 wire.
        f.tick(Cycle(71));
        assert!(f.pop_incoming(Cycle(71), 1).is_none());
        f.tick(Cycle(72));
        let got = f.pop_incoming(Cycle(72), 1).expect("arrived");
        assert_eq!(got.tid, 1);
        assert_eq!(got.src_node, 0, "fabric stamps the source");
        assert_eq!(f.hops_traversed(), 1);
    }

    #[test]
    fn multi_hop_routes_use_exactly_lee_distance_links() {
        let mut f = fabric(4, 4, 4);
        let t = f.config().torus;
        let (a, b) = (0u16, 63u16 - 21); // arbitrary pair
        f.inject(Cycle(0), a, req(9, b));
        run_until_idle(&mut f, Cycle(0), 100_000);
        assert_eq!(
            f.hops_traversed(),
            u64::from(t.hops(u32::from(a), u32::from(b)))
        );
        let link_sum: u64 = f.link_report().iter().map(|l| l.packets).sum();
        assert_eq!(link_sum, f.hops_traversed());
    }

    #[test]
    fn responses_route_back_to_the_requester() {
        let mut f = fabric(2, 2, 2);
        f.inject_resp(
            Cycle(0),
            7,
            RemoteResp {
                tid: 4,
                dst_node: 0,
                remote_block: BlockAddr(5),
                value: 1234,
                is_read: true,
            },
        );
        let end = run_until_idle(&mut f, Cycle(0), 100_000);
        let _ = end;
        // Drain at the destination only.
        for n in 1..8 {
            assert!(f.pop_response(Cycle(10_000), n).is_none());
        }
        let got = f.pop_response(Cycle(10_000), 0).expect("delivered");
        assert_eq!(got.value, 1234);
        // 3 hops from node 7 (1,1,1) to node 0, 96B data packets.
        assert_eq!(f.hops_traversed(), 3);
    }

    #[test]
    fn finite_link_bandwidth_serializes_back_to_back_packets() {
        let mut f = fabric(2, 1, 1);
        // Two 32B requests at the same cycle share the single +x link:
        // the second departs 2 cycles after the first.
        f.inject(Cycle(0), 0, req(1, 1));
        f.inject(Cycle(0), 0, req(2, 1));
        f.tick(Cycle(72));
        assert!(f.pop_incoming(Cycle(72), 1).is_some());
        assert!(
            f.pop_incoming(Cycle(72), 1).is_none(),
            "second still in flight"
        );
        f.tick(Cycle(74));
        assert!(f.pop_incoming(Cycle(74), 1).is_some());
        let report = f.link_report();
        let busy: u64 = report.iter().map(|l| l.busy_cycles).sum();
        assert_eq!(busy, 4, "two packets x two serialization cycles");
    }

    #[test]
    fn tick_is_naturally_idempotent_within_a_cycle() {
        let mut f = fabric(2, 1, 1);
        f.inject(Cycle(0), 0, req(1, 1));
        f.tick(Cycle(72));
        f.tick(Cycle(72));
        f.tick(Cycle(72));
        assert!(f.pop_incoming(Cycle(72), 1).is_some());
        assert!(f.pop_incoming(Cycle(72), 1).is_none());
    }

    #[test]
    fn link_byte_skew_matches_the_report() {
        let mut f = fabric(2, 2, 1);
        f.inject(Cycle(0), 0, req(1, 1));
        f.inject(Cycle(0), 0, req(2, 1));
        f.inject(Cycle(0), 2, req(3, 3));
        run_until_idle(&mut f, Cycle(0), 100_000);
        let loaded: Vec<u64> = f
            .link_report()
            .iter()
            .map(|l| l.bytes)
            .filter(|&b| b > 0)
            .collect();
        let max = *loaded.iter().max().expect("traffic flowed") as f64;
        let mean = loaded.iter().sum::<u64>() as f64 / loaded.len() as f64;
        assert!((f.link_byte_skew() - max / mean).abs() < 1e-12);
    }

    /// The injection boundary must reject out-of-range destinations in
    /// every build profile: a bad id admitted here would relay on the torus
    /// forever instead of failing loudly.
    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_targets_are_rejected() {
        let mut f = fabric(2, 1, 1);
        f.inject(Cycle(0), 0, req(1, 9));
    }

    fn faulted(x: u16, y: u16, z: u16, routing: RoutingKind, faults: FaultPlan) -> TorusFabric {
        TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(x, y, z),
            routing,
            faults,
            ..TorusFabricConfig::default()
        })
    }

    /// A packet routed at a dead link by a health-blind policy parks and
    /// retries each cycle; after the scheduled repair it crosses and
    /// delivers.
    #[test]
    fn dor_stalls_at_a_dead_link_until_repair() {
        let plan = FaultPlan::new().link_down(0, 1, 0).link_up(0, 1, 500);
        let mut f = faulted(4, 1, 1, RoutingKind::DimensionOrder, plan);
        f.inject(Cycle(0), 0, req(1, 1));
        for c in 0..=499u64 {
            f.tick(Cycle(c));
            assert!(f.pop_incoming(Cycle(c), 1).is_none(), "delivered at {c}?");
        }
        assert!(f.fault_stats().dead_link_stalls.get() > 400);
        assert_eq!(f.hops_traversed(), 0, "nothing crossed while dead");
        // Repair at 500: 2 serialization + 70 wire cycles later it lands.
        for c in 500..=572u64 {
            f.tick(Cycle(c));
        }
        let got = f.pop_incoming(Cycle(572), 1).expect("arrived after repair");
        assert_eq!(got.tid, 1);
        assert_eq!(f.hops_traversed(), 1);
    }

    /// Fault-adaptive routing rides the surviving ring around a dead link:
    /// same delivery, more hops, zero stalls.
    #[test]
    fn fault_adaptive_routes_around_a_dead_link() {
        let plan = FaultPlan::new().link_down(0, 1, 0);
        let mut f = faulted(4, 1, 1, RoutingKind::FaultAdaptive, plan);
        f.inject(Cycle(0), 0, req(9, 1));
        let end = run_until_idle(&mut f, Cycle(0), 100_000);
        let got = f.pop_incoming(end, 1).expect("delivered the long way");
        assert_eq!(got.tid, 9);
        // 0 -> 3 -> 2 -> 1 on the ring: one escape hop then two minimal.
        assert_eq!(f.hops_traversed(), 3);
        assert_eq!(f.fault_stats().escape_hops.get(), 1);
        assert_eq!(f.fault_stats().dead_link_stalls.get(), 0);
    }

    /// Dead nodes drop traffic in every role: sourced by, addressed to, or
    /// relayed through them.
    #[test]
    fn dead_nodes_drop_sourced_addressed_and_relayed_traffic() {
        // 4x1x1 ring, node 2 dead from cycle 0.
        let plan = FaultPlan::new().node_down(2, 0);
        let mut f = faulted(4, 1, 1, RoutingKind::DimensionOrder, plan);
        // Addressed to the dead node: dropped at first forward.
        f.inject(Cycle(0), 1, req(1, 2));
        // Sourced by the dead node: dropped at injection.
        f.inject(Cycle(0), 2, req(2, 0));
        assert_eq!(f.fault_stats().packets_dropped.get(), 2);
        // Routed *through* it by a health-blind policy (1 -> 3: DOR picks
        // +x from 1, i.e. the dead node 2): the incident link reads as
        // down, so the packet parks at node 1 exactly like a dead-link
        // stall — the requester's ITT timeout is the recovery path.
        f.inject(Cycle(0), 1, req(3, 3));
        for c in 0..500u64 {
            f.tick(Cycle(c));
        }
        assert_eq!(f.fault_stats().packets_dropped.get(), 2);
        assert!(f.fault_stats().dead_link_stalls.get() > 400);
        assert!(!f.is_idle(), "the stalled packet stays in flight");
        // A packet already in flight toward the dead node when it died is
        // dropped on arrival.
        let plan = FaultPlan::new().node_down(1, 10);
        let mut f = faulted(4, 1, 1, RoutingKind::DimensionOrder, plan);
        f.inject(Cycle(0), 0, req(7, 1)); // arrives at cycle 72 > 10
        for c in 0..200u64 {
            f.tick(Cycle(c));
        }
        assert_eq!(f.fault_stats().packets_dropped.get(), 1);
        assert!(f.is_idle());
    }

    /// Repairing a dead node restores delivery.
    #[test]
    fn node_repair_restores_delivery() {
        let plan = FaultPlan::new().node_down(1, 0).node_up(1, 1_000);
        let mut f = faulted(2, 2, 1, RoutingKind::FaultAdaptive, plan);
        f.inject(Cycle(0), 0, req(5, 1));
        f.tick(Cycle(0));
        assert_eq!(f.fault_stats().packets_dropped.get(), 1);
        f.inject(Cycle(1_000), 0, req(6, 1));
        let end = run_until_idle(&mut f, Cycle(1_000), 100_000);
        assert_eq!(f.pop_incoming(end, 1).expect("delivered").tid, 6);
    }

    /// A fault plan naming a non-neighbor pair must fail loudly at
    /// construction, not corrupt link state at runtime.
    #[test]
    #[should_panic(expected = "non-neighbors")]
    fn fault_plans_between_non_neighbors_are_rejected() {
        faulted(
            4,
            4,
            1,
            RoutingKind::DimensionOrder,
            FaultPlan::new().link_down(0, 5, 10),
        );
    }
}
