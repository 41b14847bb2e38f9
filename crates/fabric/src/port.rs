//! Buffered per-node fabric endpoints for parallel lock-step racks.
//!
//! A multi-node rack used to hand every chip an `Rc<RefCell<TorusFabric>>`
//! handle, serializing the whole rack behind one shared borrow. A
//! [`FabricPort`] cuts that dependency: it is a per-node *outbox/inbox pair*
//! implementing [`Fabric`], so a chip ticks entirely against local buffers
//! and never touches the shared transport. The rack driver then runs a
//! deterministic two-phase cycle:
//!
//! 1. **Compute** — every chip ticks independently (farmed across host
//!    threads), injecting into its port's outbox and draining arrivals from
//!    its port's inbox.
//! 2. **Exchange** — the driver merges all outboxes into the real fabric in
//!    node-id order, advances the fabric exactly once, and distributes the
//!    new arrivals back into per-node inboxes.
//!
//! Because the merge order is fixed (node id, FIFO within a node) and chips
//! share no state during the compute phase, the result is bit-identical to
//! ticking the chips serially against a shared fabric — at any worker-thread
//! count. Ports are cloneable handles over an `Arc<Mutex<_>>` (uncontended
//! by construction: a port is touched by exactly one thread in each phase),
//! which is what makes the owning [`Chip`](../../ni_soc) `Send`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ni_engine::Cycle;

use crate::fabric::{Fabric, FabricStats};
use crate::rack::{RemoteReq, RemoteResp};

/// One buffered event emitted by a chip during the compute phase, replayed
/// into the real fabric during the exchange phase. A single FIFO preserves
/// the chip's exact emission order across requests, responses, and latency
/// samples.
#[derive(Clone, Copy, Debug)]
enum PortEvent {
    /// An outgoing request ([`Fabric::inject`]).
    Req(RemoteReq),
    /// An outgoing response ([`Fabric::inject_resp`]).
    Resp(RemoteResp),
    /// A measured RRPP service latency ([`Fabric::record_rrpp_latency`]).
    RrppLatency(u64),
}

#[derive(Debug, Default)]
struct PortState {
    outbox: Vec<PortEvent>,
    inbox_reqs: VecDeque<RemoteReq>,
    inbox_resps: VecDeque<RemoteResp>,
    /// Port-local traffic counters (this node's view; rack-wide numbers
    /// come from the shared fabric the driver owns).
    stats: FabricStats,
}

/// The buffers plus lock-free occupancy flags. The flags let the hot
/// idle-port paths — the rack driver's per-cycle merge scan and the chip's
/// `is_idle` check — skip the mutex entirely: on a large mostly-idle rack
/// those run once per node per cycle. A flag may conservatively read `true`
/// for an empty buffer (the next locked pass clears it); it is never
/// `false` for a non-empty one.
#[derive(Debug, Default)]
struct PortShared {
    state: Mutex<PortState>,
    /// True whenever the outbox may hold undelivered events.
    outbox_pending: AtomicBool,
    /// True whenever either inbox may hold undrained arrivals.
    inbox_pending: AtomicBool,
}

/// A per-node buffered endpoint of a lock-step rack: the chip side injects
/// into the outbox and drains the inbox; the rack side exchanges both with
/// the real transport between compute phases. Cloning yields another handle
/// onto the same buffers.
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
            shared: Arc::new(PortShared::default()),
        }
    }

    /// The node this port belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    fn lock(&self) -> MutexGuard<'_, PortState> {
        self.shared.state.lock().expect("port mutex never poisoned")
    }

    /// True when either inbox may hold undrained arrivals (lock-free).
    fn inbox_pending(&self) -> bool {
        self.shared.inbox_pending.load(Ordering::Acquire)
    }

    /// True when the outbox may hold events awaiting
    /// [`flush_outbox`](FabricPort::flush_outbox) — a lock-free peek the
    /// rack driver uses to skip the whole merge pass on quiet cycles.
    pub fn outbox_pending(&self) -> bool {
        self.shared.outbox_pending.load(Ordering::Acquire)
    }

    /// Exchange-phase step 1: replay this port's buffered outbox into
    /// `fabric` in emission order, stamped at `now`. Called by the rack
    /// driver for every node in node-id order, which reproduces the exact
    /// injection order of a serial run. Returns without locking when the
    /// outbox flag shows nothing pending.
    pub fn flush_outbox(&self, now: Cycle, fabric: &mut dyn Fabric) {
        if !self.outbox_pending() {
            return;
        }
        let mut s = self.lock();
        for ev in s.outbox.drain(..) {
            match ev {
                PortEvent::Req(req) => fabric.inject(now, self.node, req),
                PortEvent::Resp(resp) => fabric.inject_resp(now, self.node, resp),
                PortEvent::RrppLatency(cycles) => fabric.record_rrpp_latency(self.node, cycles),
            }
        }
        self.shared.outbox_pending.store(false, Ordering::Release);
    }

    /// Exchange-phase step 2: move every arrival addressed to this node out
    /// of `fabric` into the port inbox (FIFO order preserved), making it
    /// visible to the chip's next compute phase.
    pub fn collect_arrivals(&self, now: Cycle, fabric: &mut dyn Fabric) {
        let mut s = self.lock();
        let mut any = false;
        while let Some(r) = fabric.pop_response(now, self.node) {
            s.inbox_resps.push_back(r);
            any = true;
        }
        while let Some(r) = fabric.pop_incoming(now, self.node) {
            s.inbox_reqs.push_back(r);
            any = true;
        }
        if any {
            self.shared.inbox_pending.store(true, Ordering::Release);
        }
    }
}

impl Fabric for FabricPort {
    fn inject(&mut self, _now: Cycle, from: u16, req: RemoteReq) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        let mut s = self.lock();
        s.stats.sent.incr();
        let mut req = req;
        req.src_node = from;
        s.outbox.push(PortEvent::Req(req));
        self.shared.outbox_pending.store(true, Ordering::Release);
    }

    fn inject_resp(&mut self, _now: Cycle, from: u16, resp: RemoteResp) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        self.lock().outbox.push(PortEvent::Resp(resp));
        self.shared.outbox_pending.store(true, Ordering::Release);
    }

    fn tick(&mut self, _now: Cycle) {
        // Transport time passes in the shared fabric during the exchange
        // phase; the port itself has no clocked state.
    }

    fn pop_response(&mut self, _now: Cycle, node: u16) -> Option<RemoteResp> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        // Every full chip tick polls both inboxes; a clear flag proves them
        // empty (see [`PortShared`]), so the common case takes no lock.
        if !self.inbox_pending() {
            return None;
        }
        let mut s = self.lock();
        let r = s.inbox_resps.pop_front();
        if r.is_some() {
            s.stats.responded.incr();
            if s.inbox_resps.is_empty() && s.inbox_reqs.is_empty() {
                self.shared.inbox_pending.store(false, Ordering::Release);
            }
        }
        r
    }

    fn pop_incoming(&mut self, _now: Cycle, node: u16) -> Option<RemoteReq> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        if !self.inbox_pending() {
            return None;
        }
        let mut s = self.lock();
        let r = s.inbox_reqs.pop_front();
        if r.is_some() {
            s.stats.incoming_generated.incr();
            if s.inbox_resps.is_empty() && s.inbox_reqs.is_empty() {
                self.shared.inbox_pending.store(false, Ordering::Release);
            }
        }
        r
    }

    fn record_rrpp_latency(&mut self, node: u16, cycles: u64) {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        self.lock().outbox.push(PortEvent::RrppLatency(cycles));
        self.shared.outbox_pending.store(true, Ordering::Release);
    }

    fn stats(&self) -> FabricStats {
        self.lock().stats
    }

    fn is_idle(&self) -> bool {
        // Two lock-free loads: this runs in every chip's per-cycle fast
        // path. Conservative by construction (see [`PortShared`]).
        !self.outbox_pending() && !self.inbox_pending()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A port never acts on its own: its tick is a no-op and arrivals
        // only appear when the rack driver collects them between compute
        // phases. Undrained arrivals surface at the chip's next
        // `pop_*`, so report them as due now; otherwise stay silent.
        if self.inbox_pending() {
            Some(now)
        } else {
            None
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
    fn clones_share_the_same_buffers() {
        let mut a = FabricPort::new(3);
        let b = a.clone();
        a.inject(Cycle(0), 3, req(9, 0));
        assert!(!b.is_idle());
        assert_eq!(b.stats().sent.get(), 1);
    }
}
