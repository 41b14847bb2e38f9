//! The chip ↔ rack boundary as a trait.
//!
//! A simulated node used to be hardwired to the rate-matching
//! [`RackEmulator`]: every outgoing request went
//! straight into the emulator and every arrival came straight out of it.
//! [`Fabric`] makes that boundary pluggable. A chip *injects* outgoing
//! requests and responses, *ticks* the fabric once per cycle, and *drains*
//! arrivals addressed to its node id. Two interchangeable backends exist:
//!
//! * [`RackEmulator`] — the paper's single-node
//!   methodology (§5): remote ends answered after `2 × hops × 35ns` plus a
//!   measured-RRPP estimate, with mirrored incoming traffic.
//! * [`TorusFabric`](crate::TorusFabric) — a real multi-node transport:
//!   packets travel hop-by-hop over the 3D torus between fully simulated
//!   chips, with per-directed-link occupancy and finite link bandwidth.
//!
//! Multi-node racks do not share a backend instance across chips: each chip
//! owns a buffered [`FabricPort`](crate::FabricPort) and the rack driver
//! exchanges the port buffers with one [`TorusFabric`](crate::TorusFabric)
//! between compute steps, which is what lets chips run on separate host
//! threads.

use ni_engine::{Counter, Cycle};

use crate::rack::{RackEmulator, RemoteReq, RemoteResp};

ni_engine::stats! {
    /// Backend-independent traffic counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct FabricStats {
        /// Requests injected into the rack by local nodes.
        pub sent: Counter,
        /// Responses delivered back to requesting nodes.
        pub responded: Counter,
        /// Incoming requests delivered to servicing nodes (for the emulator:
        /// mirrored traffic generated).
        pub incoming_generated: Counter,
    }
}

/// The chip ↔ rack boundary.
///
/// All methods take the acting node's id so one fabric instance can serve a
/// whole rack; the single-node emulator simply ignores it.
pub trait Fabric {
    /// Node `from`'s network router hands over an outgoing request at `now`.
    /// The fabric stamps `req.src_node = from` before routing.
    fn inject(&mut self, now: Cycle, from: u16, req: RemoteReq);

    /// Node `from`'s RRPP hands over a response at `now`, routed to
    /// `resp.dst_node`.
    fn inject_resp(&mut self, now: Cycle, from: u16, resp: RemoteResp);

    /// Advance internal transport state to `now`. The driving loop calls
    /// this exactly once per cycle per fabric instance (a chip ticks the
    /// fabric it owns; a rack driver ticks the shared transport itself and
    /// hands each chip a buffered [`FabricPort`](crate::FabricPort) whose
    /// `tick` is a no-op).
    fn tick(&mut self, now: Cycle);

    /// Next response due at `node` by `now`, if any.
    fn pop_response(&mut self, now: Cycle, node: u16) -> Option<RemoteResp>;

    /// Next incoming remote request due at `node` by `now`, if any.
    fn pop_incoming(&mut self, now: Cycle, node: u16) -> Option<RemoteReq>;

    /// Node `node` measured one local RRPP service latency (feeds the
    /// emulator's symmetric-rack estimate; real transports ignore it).
    fn record_rrpp_latency(&mut self, node: u16, cycles: u64);

    /// Aggregate traffic counters.
    fn stats(&self) -> FabricStats;

    /// True when no traffic is in flight anywhere in the fabric.
    fn is_idle(&self) -> bool;

    /// Earliest cycle `>= now` at which this fabric may do anything on its
    /// own — deliver a response or incoming request, or otherwise change
    /// state in [`Fabric::tick`]. An event-driven chip reads it every cycle
    /// it could skip: with nothing else due it skips every cycle before
    /// the one returned, and jumps over all of them at once in a run
    /// (the soc crate's dormant fast path and next-event jump).
    ///
    /// `None` promises the fabric stays silent at *every* future cycle
    /// unless the owning chip injects first. The default is the
    /// conservative `Some(now)`: never skippable. Backends with
    /// self-driven schedules (fault plans, stats windows) must keep it.
    ///
    /// For a rack's [`FabricPort`](crate::FabricPort), `Some(t)` is the due
    /// cycle of the earliest arrival queued in its inbox (`now` if it is
    /// overdue), which may lie anywhere in the current lookahead window;
    /// `None` means the inbox is empty. Emissions waiting in the outbox for
    /// the driver's replay are not events: the chip has already acted.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }
}

impl Fabric for RackEmulator {
    fn inject(&mut self, now: Cycle, from: u16, req: RemoteReq) {
        let mut req = req;
        req.src_node = from;
        RackEmulator::send(self, now, req);
    }

    fn inject_resp(&mut self, _now: Cycle, _from: u16, _resp: RemoteResp) {
        // The emulated remote requester does not consume responses; RRPP
        // stats already account the bandwidth (§6.2's methodology).
    }

    fn tick(&mut self, _now: Cycle) {}

    fn pop_response(&mut self, now: Cycle, _node: u16) -> Option<RemoteResp> {
        RackEmulator::pop_response(self, now)
    }

    fn pop_incoming(&mut self, now: Cycle, _node: u16) -> Option<RemoteReq> {
        RackEmulator::pop_incoming(self, now)
    }

    fn record_rrpp_latency(&mut self, _node: u16, cycles: u64) {
        RackEmulator::record_rrpp_latency(self, cycles);
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn is_idle(&self) -> bool {
        RackEmulator::is_idle(self)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The emulator's `tick` is empty and responses/mirrored requests
        // only ever stem from earlier injections, so an idle emulator is
        // silent forever. With traffic in flight stay conservative: the
        // per-cycle pops are time-gated anyway.
        if RackEmulator::is_idle(self) {
            None
        } else {
            Some(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rack::RackConfig;
    use ni_mem::BlockAddr;

    fn req(tid: u64) -> RemoteReq {
        RemoteReq {
            tid,
            is_read: true,
            src_node: 0,
            target_node: 1,
            remote_block: BlockAddr(9),
            value: 0,
            service: 0,
        }
    }

    #[test]
    fn emulator_works_through_the_trait_object() {
        let mut f: Box<dyn Fabric> = Box::new(RackEmulator::new(RackConfig {
            mirror_incoming: false,
            ..RackConfig::default()
        }));
        f.inject(Cycle(0), 3, req(7));
        assert!(!f.is_idle());
        // 2 x 70 + 208 = 348, as through the inherent API.
        assert!(f.pop_response(Cycle(347), 3).is_none());
        let resp = f.pop_response(Cycle(348), 3).expect("due");
        assert_eq!(resp.tid, 7);
        assert_eq!(resp.dst_node, 3, "emulator echoes the stamped source");
        assert_eq!(f.stats().sent.get(), 1);
        assert_eq!(f.stats().responded.get(), 1);
        assert!(f.is_idle());
    }

    #[test]
    fn boxed_fabrics_are_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let f: Box<dyn Fabric + Send> = Box::new(RackEmulator::new(RackConfig::default()));
        assert_send(&f);
    }
}
