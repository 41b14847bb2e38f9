//! Buffered per-node fabric endpoints for parallel lock-step racks.
//!
//! A [`FabricPort`] is a per-node *outbox/inbox pair* implementing
//! [`Fabric`], so a chip ticks entirely against local buffers and never
//! touches the shared transport. Every entry carries a cycle: an outbox
//! entry the cycle the chip emitted it, an inbox entry the cycle it is due,
//! and the chip pops only arrivals that are due. That lets the rack driver
//! run every chip a whole lookahead window between exchanges
//! ([`TorusFabric::lookahead`]: no packet a node injects can reach another
//! node sooner):
//!
//! 1. **Open** — [`TorusFabric::open_window`] hands every port the arrivals
//!    the fabric will deliver inside the window, each with its due cycle.
//! 2. **Compute** — every chip runs the whole window against its own port
//!    (farmed across host threads, each worker handed the window end on a
//!    channel and replying on another), emitting into its outbox and
//!    popping arrivals as they fall due.
//! 3. **Replay** — the driver advances the fabric one cycle at a time and
//!    after each [`Fabric::tick`] flushes that cycle's emissions
//!    ([`FabricPort::flush_outbox`]) in node-id order, so routing decisions
//!    and fault events see exactly the per-cycle schedule.
//!
//! Driven one cycle at a time instead — fabric tick,
//! [`collect_arrivals`](FabricPort::collect_arrivals), chip tick,
//! [`flush_outbox`](FabricPort::flush_outbox) — a port is the per-cycle
//! exchange the windowed schedule reproduces.
//!
//! A self-addressed packet lands one cycle after injection, deep inside a
//! window. A port opened for a window of a live node therefore loops it
//! back itself, due at `now + 1` behind the fabric arrivals due that cycle,
//! and its outbox entry only has the fabric count it.
//!
//! Because the replay order is fixed (cycle, then node id, FIFO within a
//! node) and chips share no state while they compute, a run is
//! bit-identical to ticking the chips serially against a shared fabric — at
//! any worker-thread count. Ports are cloneable handles over an
//! `Arc<Mutex<_>>` (uncontended by construction: a port is touched by
//! exactly one thread in each phase), which is what makes the owning
//! [`Chip`](../../ni_soc) `Send`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ni_engine::Cycle;

use crate::fabric::{Fabric, FabricStats};
use crate::rack::{RemoteReq, RemoteResp};
use crate::torus_fabric::{TorusFabric, TorusPkt, SELF_DELIVERY_CYCLES};

/// What [`PortShared`]'s cycle fields hold while their buffer is empty.
const EMPTY: u64 = u64::MAX;

/// One packet a chip emitted, replayed into the real fabric at its
/// emission cycle. A single FIFO preserves the chip's exact emission order
/// across requests and responses.
#[derive(Clone, Copy, Debug)]
struct Emission {
    at: Cycle,
    pkt: TorusPkt,
    /// The port delivered this self-addressed packet itself; the fabric
    /// only counts it.
    looped: bool,
}

#[derive(Debug, Default)]
struct PortState {
    /// Emissions in emission order (cycles never decrease).
    outbox: VecDeque<Emission>,
    /// Arrivals by due cycle, FIFO within a cycle.
    inbox_reqs: VecDeque<(Cycle, RemoteReq)>,
    inbox_resps: VecDeque<(Cycle, RemoteResp)>,
    /// Self-addressed packets due before this cycle loop back inside the
    /// port; set by [`TorusFabric::open_window`], and zero (never) for a
    /// port driven one cycle at a time.
    loopback_until: Cycle,
    /// Port-local traffic counters (this node's view; rack-wide numbers
    /// come from the shared fabric the driver owns).
    stats: FabricStats,
}

impl PortState {
    fn inbox_next(&self) -> u64 {
        let req = self.inbox_reqs.front().map_or(EMPTY, |e| e.0 .0);
        let resp = self.inbox_resps.front().map_or(EMPTY, |e| e.0 .0);
        req.min(resp)
    }

    fn outbox_next(&self) -> u64 {
        self.outbox.front().map_or(EMPTY, |e| e.at.0)
    }

    /// Queue an arrival due at `due`.
    fn receive(&mut self, due: Cycle, pkt: TorusPkt) {
        match pkt {
            TorusPkt::Req(r) => enqueue(&mut self.inbox_reqs, due, r),
            TorusPkt::Resp(r) => enqueue(&mut self.inbox_resps, due, r),
        }
    }
}

/// Insert `item` due at `due` behind every entry due by then.
fn enqueue<T>(q: &mut VecDeque<(Cycle, T)>, due: Cycle, item: T) {
    let i = q.partition_point(|e| e.0 <= due);
    q.insert(i, (due, item));
}

/// The buffers plus lock-free copies of their earliest cycles. The copies
/// let the hot paths — the driver's per-cycle flush scan and the chip's
/// per-cycle pops and dormant check — skip the mutex whenever nothing is
/// pending by `now`: on a large mostly-idle rack those run once per node
/// per cycle. Each copy is stored (`Release`) under the lock after every
/// change to its buffer, so it is exact, and a lock-free `Acquire` load
/// that reads a cycle is followed by a locked read that finds the entry
/// it describes. Between the compute and exchange steps the rack's
/// channel handoff orders the two sides anyway.
#[derive(Debug)]
struct PortShared {
    state: Mutex<PortState>,
    /// Emission cycle of the oldest outbox entry, [`EMPTY`] when none.
    outbox_next: AtomicU64,
    /// Due cycle of the earliest inbox entry, [`EMPTY`] when none.
    inbox_next: AtomicU64,
}

/// A per-node buffered endpoint of a lock-step rack: the chip side emits
/// into the outbox and pops due arrivals from the inbox; the rack side
/// exchanges both with the real transport between compute phases. Cloning
/// yields another handle onto the same buffers.
#[derive(Clone, Debug)]
pub struct FabricPort {
    node: u16,
    shared: Arc<PortShared>,
}

impl FabricPort {
    /// Create the port for rack node `node`.
    pub fn new(node: u16) -> FabricPort {
        FabricPort {
            node,
            shared: Arc::new(PortShared {
                state: Mutex::new(PortState::default()),
                outbox_next: AtomicU64::new(EMPTY),
                inbox_next: AtomicU64::new(EMPTY),
            }),
        }
    }

    /// The node this port belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    fn lock(&self) -> MutexGuard<'_, PortState> {
        self.shared.state.lock().expect("port mutex never poisoned")
    }

    /// Due cycle of the earliest queued arrival, [`EMPTY`] when none
    /// (lock-free).
    fn inbox_next(&self) -> u64 {
        self.shared.inbox_next.load(Ordering::Acquire)
    }

    fn outbox_next(&self) -> u64 {
        self.shared.outbox_next.load(Ordering::Acquire)
    }

    fn publish_inbox(&self, s: &PortState) {
        self.shared
            .inbox_next
            .store(s.inbox_next(), Ordering::Release);
    }

    fn publish_outbox(&self, s: &PortState) {
        self.shared
            .outbox_next
            .store(s.outbox_next(), Ordering::Release);
    }

    /// True when the outbox holds emissions awaiting
    /// [`flush_outbox`](FabricPort::flush_outbox) — a lock-free peek.
    pub fn outbox_pending(&self) -> bool {
        self.outbox_next() != EMPTY
    }

    /// Exchange step: replay this port's emissions stamped up to `now` into
    /// `fabric` in emission order, injected at `now`; emissions stamped
    /// later stay queued. Called by the rack driver for every node in
    /// node-id order after each fabric tick, which reproduces the exact
    /// injection order of a serial run. Returns without locking when
    /// nothing is pending by `now`.
    pub fn flush_outbox(&self, now: Cycle, fabric: &mut TorusFabric) {
        if self.outbox_next() > now.0 {
            return;
        }
        let mut s = self.lock();
        while let Some(e) = s.outbox.front().copied().filter(|e| e.at <= now) {
            s.outbox.pop_front();
            match (e.looped, e.pkt) {
                (true, pkt) => fabric.account_loopback(now, self.node, pkt),
                (false, TorusPkt::Req(req)) => fabric.inject(now, self.node, req),
                (false, TorusPkt::Resp(resp)) => fabric.inject_resp(now, self.node, resp),
            }
        }
        self.publish_outbox(&s);
    }

    /// Per-cycle exchange step: move every arrival [`Fabric::tick`]
    /// delivered to this node out of `fabric` into the port inbox, due at
    /// `now` (FIFO order preserved), making it visible to the chip's next
    /// tick.
    pub fn collect_arrivals(&self, now: Cycle, fabric: &mut TorusFabric) {
        let mut s = self.lock();
        while let Some(r) = fabric.pop_response(now, self.node) {
            enqueue(&mut s.inbox_resps, now, r);
        }
        while let Some(r) = fabric.pop_incoming(now, self.node) {
            enqueue(&mut s.inbox_reqs, now, r);
        }
        self.publish_inbox(&s);
    }

    /// Window step 1: queue an arrival the fabric delivers at `due`.
    pub(crate) fn push_arrival(&self, due: Cycle, pkt: TorusPkt) {
        let mut s = self.lock();
        s.receive(due, pkt);
        self.publish_inbox(&s);
    }

    /// Window step 1: loop self-addressed packets due before `end` back
    /// inside the port (`end` at or before the next cycle disables it).
    pub(crate) fn set_loopback_until(&self, end: Cycle) {
        self.lock().loopback_until = end;
    }

    /// Queue `pkt`, emitted at `now`; a self-addressed packet due inside
    /// the open window also lands in the inbox, behind the arrivals due
    /// the same cycle.
    fn emit(&self, s: &mut PortState, now: Cycle, pkt: TorusPkt) {
        let due = now + SELF_DELIVERY_CYCLES;
        let looped = pkt.dest() == self.node && due < s.loopback_until;
        if looped {
            s.receive(due, pkt);
            self.publish_inbox(s);
        }
        s.outbox.push_back(Emission {
            at: now,
            pkt,
            looped,
        });
        self.publish_outbox(s);
    }
}

impl Fabric for FabricPort {
    fn inject(&mut self, now: Cycle, from: u16, req: RemoteReq) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        let mut s = self.lock();
        s.stats.sent.incr();
        let mut req = req;
        req.src_node = from;
        self.emit(&mut s, now, TorusPkt::Req(req));
    }

    fn inject_resp(&mut self, now: Cycle, from: u16, resp: RemoteResp) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        let mut s = self.lock();
        self.emit(&mut s, now, TorusPkt::Resp(resp));
    }

    fn tick(&mut self, _now: Cycle) {
        // Transport time passes in the shared fabric during the exchange
        // phase; the port itself has no clocked state.
    }

    fn pop_response(&mut self, now: Cycle, node: u16) -> Option<RemoteResp> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        // Every full chip tick polls both inboxes; the lock-free due cycle
        // rules out the common case (nothing due) without the lock.
        if self.inbox_next() > now.0 {
            return None;
        }
        let mut s = self.lock();
        let &(due, r) = s.inbox_resps.front()?;
        if due > now {
            return None;
        }
        s.inbox_resps.pop_front();
        s.stats.responded.incr();
        self.publish_inbox(&s);
        Some(r)
    }

    fn pop_incoming(&mut self, now: Cycle, node: u16) -> Option<RemoteReq> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        if self.inbox_next() > now.0 {
            return None;
        }
        let mut s = self.lock();
        let &(due, r) = s.inbox_reqs.front()?;
        if due > now {
            return None;
        }
        s.inbox_reqs.pop_front();
        s.stats.incoming_generated.incr();
        self.publish_inbox(&s);
        Some(r)
    }

    fn record_rrpp_latency(&mut self, node: u16, _cycles: u64) {
        // The torus simulates every remote end in detail: there is no
        // estimate to feed.
        debug_assert_eq!(node, self.node, "port used by a foreign node");
    }

    fn stats(&self) -> FabricStats {
        self.lock().stats
    }

    fn is_idle(&self) -> bool {
        !self.outbox_pending() && self.inbox_next() == EMPTY
    }

    /// The due cycle of the earliest queued arrival (`now` if it is
    /// overdue): the cycle the chip's next pop returns something. `None`
    /// when the inbox is empty — a port never acts on its own, so it stays
    /// silent until the driver queues an arrival between compute phases or
    /// the chip loops a packet back. Emissions waiting in the outbox are
    /// not events: the chip has already acted on them.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self.inbox_next() {
            EMPTY => None,
            due => Some(Cycle(due.max(now.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus_fabric::{TorusFabric, TorusFabricConfig};
    use crate::Torus3D;
    use ni_mem::BlockAddr;

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

    #[test]
    fn outbox_replays_in_emission_order_and_inbox_preserves_fifo() {
        let mut fabric = TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(2, 1, 1),
            ..TorusFabricConfig::default()
        });
        let mut port0 = FabricPort::new(0);
        let port1 = FabricPort::new(1);
        port0.inject(Cycle(0), 0, req(1, 1));
        port0.inject(Cycle(0), 0, req(2, 1));
        assert!(!port0.is_idle());
        port0.flush_outbox(Cycle(0), &mut fabric);
        assert!(port0.is_idle());
        assert_eq!(fabric.stats().sent.get(), 2);
        // 32B at 16 B/cycle = 2 cycles serialization + 70 wire; the second
        // request queues 2 more cycles behind the first.
        for now in 1..=74 {
            fabric.tick(Cycle(now));
        }
        port1.collect_arrivals(Cycle(74), &mut fabric);
        let mut chip_side = port1.clone();
        let a = chip_side.pop_incoming(Cycle(74), 1).expect("first arrival");
        let b = chip_side
            .pop_incoming(Cycle(74), 1)
            .expect("second arrival");
        assert_eq!((a.tid, b.tid), (1, 2), "FIFO order preserved end to end");
        assert!(chip_side.pop_incoming(Cycle(74), 1).is_none());
        assert_eq!(chip_side.stats().incoming_generated.get(), 2);
    }

    #[test]
    fn pops_return_arrivals_only_once_due() {
        let mut port = FabricPort::new(1);
        port.push_arrival(Cycle(10), TorusPkt::Req(req(1, 1)));
        port.push_arrival(Cycle(12), TorusPkt::Req(req(2, 1)));
        assert_eq!(port.next_event(Cycle(0)), Some(Cycle(10)));
        assert!(port.pop_incoming(Cycle(9), 1).is_none());
        assert_eq!(port.pop_incoming(Cycle(10), 1).map(|r| r.tid), Some(1));
        assert!(port.pop_incoming(Cycle(11), 1).is_none());
        assert_eq!(port.next_event(Cycle(11)), Some(Cycle(12)));
        assert_eq!(port.pop_incoming(Cycle(12), 1).map(|r| r.tid), Some(2));
        assert_eq!(port.next_event(Cycle(12)), None);
        assert!(port.is_idle());
    }

    #[test]
    fn flush_outbox_replays_only_emissions_stamped_by_now() {
        let mut fabric = TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(2, 1, 1),
            ..TorusFabricConfig::default()
        });
        let mut port = FabricPort::new(0);
        port.inject(Cycle(3), 0, req(1, 1));
        port.inject(Cycle(5), 0, req(2, 1));
        port.flush_outbox(Cycle(4), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 1);
        assert!(port.outbox_pending());
        port.flush_outbox(Cycle(5), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 2);
        assert!(port.is_idle());
    }

    /// A window hands its arrivals to the ports up front; a self-addressed
    /// packet due inside the window is looped back behind the arrival due
    /// the same cycle, and the replay counts it as the fabric would have.
    #[test]
    fn windows_hand_over_arrivals_and_loop_self_traffic_back() {
        let mut fabric = TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(2, 1, 1),
            ..TorusFabricConfig::default()
        });
        assert_eq!(fabric.lookahead(), 72);
        let ports = [FabricPort::new(0), FabricPort::new(1)];
        let (mut p0, mut p1) = (ports[0].clone(), ports[1].clone());
        p0.inject(Cycle(0), 0, req(1, 1));
        fabric.tick(Cycle(0));
        ports[0].flush_outbox(Cycle(0), &mut fabric);
        let end = fabric.open_window(Cycle(1), Cycle(1_000), &ports);
        assert_eq!(end, Cycle(73));
        assert_eq!(p1.next_event(Cycle(1)), Some(Cycle(72)), "due at 2 + 70");
        // Node 1 sends itself a request at 71 (looped back, due 72) and at
        // 72 (due 73, past the window: left to the fabric).
        p1.inject(Cycle(71), 1, req(9, 1));
        p1.inject(Cycle(72), 1, req(10, 1));
        let tids: Vec<u64> = std::iter::from_fn(|| p1.pop_incoming(Cycle(72), 1))
            .map(|r| r.tid)
            .collect();
        assert_eq!(tids, [1, 9], "the loopback queues behind the arrival");
        for c in 1..73 {
            fabric.tick(Cycle(c));
            for port in &ports {
                port.flush_outbox(Cycle(c), &mut fabric);
            }
        }
        assert_eq!(fabric.stats().sent.get(), 3);
        assert_eq!(fabric.stats().incoming_generated.get(), 2);
        fabric.tick(Cycle(73));
        ports[1].collect_arrivals(Cycle(73), &mut fabric);
        assert_eq!(p1.pop_incoming(Cycle(73), 1).map(|r| r.tid), Some(10));
        assert_eq!(fabric.stats().incoming_generated.get(), 3);
    }

    /// A dead node's port never loops back: the fabric must see (and drop)
    /// its self-addressed traffic.
    #[test]
    fn dead_nodes_do_not_loop_back() {
        let mut fabric = TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(2, 1, 1),
            faults: crate::FaultPlan::new().node_down(1, 0),
            ..TorusFabricConfig::default()
        });
        let ports = [FabricPort::new(0), FabricPort::new(1)];
        let mut p1 = ports[1].clone();
        fabric.open_window(Cycle(0), Cycle(1_000), &ports);
        p1.inject(Cycle(0), 1, req(9, 1));
        assert_eq!(p1.next_event(Cycle(0)), None, "nothing looped back");
        ports[1].flush_outbox(Cycle(0), &mut fabric);
        assert_eq!(fabric.fault_stats().packets_dropped.get(), 1);
    }

    #[test]
    fn clones_share_the_same_buffers() {
        let mut a = FabricPort::new(3);
        let b = a.clone();
        a.inject(Cycle(0), 3, req(9, 0));
        assert!(!b.is_idle());
        assert_eq!(b.stats().sent.get(), 1);
    }
}
