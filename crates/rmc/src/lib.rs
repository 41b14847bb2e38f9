//! # ni-rmc — the Remote Memory Controller (soNUMA NI) pipelines
//!
//! §4 of the paper: every remote operation passes through three independent
//! pipelines — the Request Generation Pipeline (RGP), the Request Completion
//! Pipeline (RCP) and the Remote Request Processing Pipeline (RRPP). This
//! crate implements them as explicit state machines:
//!
//! * [`frontend::NiFrontend`] — the RGP/RCP *frontends*: QP selection, WQ
//!   polling through the NI cache, and CQ entry writes (Fig. 4). One per
//!   tile in the NIper-tile and NIsplit designs; one per NI block (serving a
//!   whole mesh row of cores) in NIedge.
//! * [`backend::NiBackend`] — the RGP/RCP *backends*: the inflight transfer
//!   table (ITT), request unrolling into cache-block-sized network packets
//!   at one per cycle (§6.1.3), and delivery of response payloads into local
//!   memory through the non-caching LLC path. One per NI block (edge rows)
//!   in NIedge/NIsplit; one per tile in NIper-tile.
//! * [`rrpp::Rrpp`] — services incoming remote requests against local
//!   memory; always placed across the chip's edge (all designs, §4.2).
//!
//! The Frontend-Backend Interface (§4.2) is a pipeline latch in NIedge and
//! NIper-tile, and a NOC message ([`NiMsg::WqFwd`] / [`NiMsg::CqNotify`]) in
//! NIsplit.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod frontend;
pub mod rrpp;
pub mod trace;

pub use backend::{BackendStats, NiBackend, RCP_BE_PROC, RGP_BE_PROC, UNROLL_PER_CYCLE};
pub use config::{NiPlacement, RmcConfig};
pub use frontend::{NiFrontend, RCP_FE_PROC, RGP_FE_PROC};
pub use rrpp::{Rrpp, RrppStats, RRPP_PROC};
pub use trace::{Stage, TraceEvent, TraceTable};

use ni_coherence::Egress;
use ni_fabric::{RemoteReq, RemoteResp};
use ni_noc::NocNode;
use ni_qp::WqEntry;

/// RMC-level messages carried over the NOC between NI components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NiMsg {
    /// Frontend-to-backend WQ entry transfer (NIsplit's extra pipeline
    /// stage that packetizes a valid WQ entry, §4.2).
    WqFwd {
        /// The work-queue entry being forwarded.
        entry: WqEntry,
        /// Owning queue pair.
        qp: u32,
        /// Issuing frontend (for the completion notification route back).
        fe: NocNode,
    },
    /// Backend-to-frontend completion notification (NIsplit RCP split).
    CqNotify {
        /// Owning queue pair.
        qp: u32,
        /// Completed WQ entry id.
        wq_id: u64,
        /// Completion status written into the CQ entry: `false` when the
        /// backend gave up on the transfer (ITT timeout past the retry
        /// budget) so the core observes the failure instead of hanging.
        ok: bool,
        /// Degraded-path marker carried into
        /// [`ni_qp::CqEntry::degraded`]: the transfer needed a WQ replay
        /// to an alternate replica, or its write quorum absorbed a dead
        /// fan-out leg.
        degraded: bool,
    },
    /// A per-tile backend's unrolled request traveling to the chip edge.
    NetOut(RemoteReq),
    /// A response payload traveling from the chip edge to a per-tile
    /// backend (the NIper-tile indirection of §6.2).
    NetIn(RemoteResp),
}

impl NiMsg {
    /// Wire length in 16-byte flits (§6.1.3: a request packet encapsulated
    /// in a NOC packet takes two flits; block-data packets take six).
    pub fn flits(&self) -> u8 {
        match self {
            NiMsg::WqFwd { .. } => 2,
            NiMsg::CqNotify { .. } => 1,
            NiMsg::NetOut(r) => {
                if r.is_read {
                    2
                } else {
                    6
                }
            }
            NiMsg::NetIn(r) => {
                if r.is_read {
                    6
                } else {
                    2
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ni_mem::Addr;
    use ni_qp::RemoteOp;

    fn wq_entry() -> WqEntry {
        WqEntry {
            id: 1,
            op: RemoteOp::Read,
            remote_node: 0,
            remote_addr: Addr(0),
            local_addr: Addr(0),
            length: 64,
            service: 0,
        }
    }

    #[test]
    fn command_messages_are_short() {
        let fwd = NiMsg::WqFwd {
            entry: wq_entry(),
            qp: 0,
            fe: NocNode::tile(0, 0),
        };
        assert_eq!(fwd.flits(), 2, "a WQ entry plus header fits two flits");
        let note = NiMsg::CqNotify {
            qp: 0,
            wq_id: 1,
            ok: true,
            degraded: false,
        };
        assert_eq!(note.flits(), 1);
    }

    #[test]
    fn data_direction_determines_packet_length() {
        let read_req = RemoteReq {
            tid: 0,
            is_read: true,
            src_node: 0,
            target_node: 0,
            remote_block: ni_mem::BlockAddr(0),
            value: 0,
            service: 0,
        };
        let write_req = RemoteReq {
            is_read: false,
            ..read_req
        };
        // Read requests carry no payload (2 flits); write requests carry a
        // block (6 flits). Responses mirror that.
        assert_eq!(NiMsg::NetOut(read_req).flits(), 2);
        assert_eq!(NiMsg::NetOut(write_req).flits(), 6);
        let read_resp = RemoteResp {
            tid: 0,
            dst_node: 0,
            remote_block: ni_mem::BlockAddr(0),
            value: 0,
            is_read: true,
        };
        let write_resp = RemoteResp {
            is_read: false,
            ..read_resp
        };
        assert_eq!(NiMsg::NetIn(read_resp).flits(), 6);
        assert_eq!(NiMsg::NetIn(write_resp).flits(), 2);
    }
}

/// Everything an RMC pipeline can emit in one tick.
#[derive(Clone, Copy, Debug)]
pub enum RmcEgress {
    /// A coherence-layer message (non-caching LLC access) to a directory.
    Coh(Egress),
    /// An RMC message to another NI component over the NOC.
    Ni {
        /// Destination NI component.
        dst: NocNode,
        /// Message.
        msg: NiMsg,
    },
    /// A request handed directly to the network router (co-located NIs).
    Net(RemoteReq),
    /// A response handed directly to the network router (RRPP output).
    NetResp(RemoteResp),
    /// A latency-tomography event.
    Trace(TraceEvent),
}
