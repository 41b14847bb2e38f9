//! Unit/integration tests for the RMC pipelines driven in isolation: the
//! backend's unroll engine and ITT, and the RRPP service loop.

use ni_engine::Cycle;
use std::sync::Arc;

use ni_fabric::{RemoteReq, RemoteResp, ReplicaMap};
use ni_mem::{Addr, BlockAddr};
use ni_noc::NocNode;
use ni_qp::{RemoteOp, WqEntry};
use ni_rmc::{NiBackend, NiMsg, RmcConfig, RmcEgress, Rrpp, Stage};

fn home(b: BlockAddr, n_banks: u32) -> NocNode {
    NocNode::tile((b.0 % u64::from(n_banks)) as u8, 0)
}

fn backend(edge_via: Option<NocNode>) -> NiBackend {
    NiBackend::new(
        NocNode::NiBlock(0),
        3,
        RmcConfig::default(),
        home,
        64,
        edge_via,
    )
}

fn entry(id: u64, op: RemoteOp, len: u64) -> WqEntry {
    WqEntry {
        id,
        op,
        remote_node: 1,
        remote_addr: Addr(0x10_0000),
        local_addr: Addr(0x20_0000),
        length: len,
        service: 0,
    }
}

/// Drive `be` for `cycles`, partitioning egress by kind.
struct Drained {
    net: Vec<RemoteReq>,
    coh: Vec<ni_coherence::Egress>,
    ni: Vec<(NocNode, NiMsg)>,
    stages: Vec<Stage>,
}

fn drain(be: &mut NiBackend, start: u64, cycles: u64) -> Drained {
    let mut d = Drained {
        net: Vec::new(),
        coh: Vec::new(),
        ni: Vec::new(),
        stages: Vec::new(),
    };
    for t in start..start + cycles {
        be.tick(Cycle(t));
        while let Some(e) = be.pop_egress() {
            match e {
                RmcEgress::Net(r) => d.net.push(r),
                RmcEgress::Coh(c) => d.coh.push(c),
                RmcEgress::Ni { dst, msg } => d.ni.push((dst, msg)),
                RmcEgress::NetResp(_) => {}
                RmcEgress::Trace(t) => d.stages.push(t.stage),
            }
        }
    }
    d
}

#[test]
fn read_entry_unrolls_into_one_request_per_block() {
    let mut be = backend(None);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 8 * 64),
        5,
        NocNode::tile(2, 2),
    );
    let d = drain(&mut be, 0, 40);
    assert_eq!(d.net.len(), 8, "8 blocks -> 8 requests");
    for (i, r) in d.net.iter().enumerate() {
        assert!(r.is_read);
        assert_eq!(r.target_node, 1);
        assert_eq!(
            r.remote_block,
            Addr(0x10_0000).block().step(i as u64),
            "blocks are consecutive"
        );
        assert_eq!(
            NiBackend::backend_of_tid(r.tid),
            3,
            "tid carries backend id"
        );
    }
    assert!(d.stages.contains(&Stage::BeReceived));
    assert!(d.stages.contains(&Stage::NetOut));
    assert_eq!(
        be.inflight(),
        1,
        "transfer stays in the ITT until responses"
    );
}

#[test]
fn unroll_rate_is_bounded_per_cycle() {
    let mut be = backend(None);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 64 * 64),
        0,
        NocNode::tile(0, 0),
    );
    // After activation (rgp_be_proc = 4) + k cycles, at most k requests.
    let d = drain(&mut be, 0, 20);
    assert!(
        d.net.len() <= 16,
        "{} requests in 20 cycles exceeds 1/cycle after activation",
        d.net.len()
    );
    let rest = drain(&mut be, 20, 100);
    assert_eq!(
        d.net.len() + rest.net.len(),
        64,
        "all blocks eventually sent"
    );
}

#[test]
fn responses_complete_transfer_and_notify_frontend() {
    let fe = NocNode::tile(4, 1);
    let mut be = backend(None);
    be.on_wq_entry(Cycle(0), entry(9, RemoteOp::Read, 2 * 64), 7, fe);
    let d = drain(&mut be, 0, 20);
    assert_eq!(d.net.len(), 2);
    // Feed both responses back.
    for (i, r) in d.net.iter().enumerate() {
        be.on_response(
            Cycle(30 + i as u64),
            RemoteResp {
                tid: r.tid,
                dst_node: 0,
                remote_block: r.remote_block,
                value: 0xAB + i as u64,
                is_read: true,
            },
        );
    }
    let d2 = drain(&mut be, 30, 30);
    // Each read response lands in local memory through a non-caching write.
    let writes: Vec<_> = d2
        .coh
        .iter()
        .filter(|e| matches!(e.msg, ni_coherence::CohMsg::NcWrite { .. }))
        .collect();
    assert_eq!(writes.len(), 2, "one NcWrite per payload block");
    // Completion notification goes to the issuing frontend.
    let notifies: Vec<_> = d2
        .ni
        .iter()
        .filter(|(dst, msg)| {
            *dst == fe
                && matches!(
                    msg,
                    NiMsg::CqNotify {
                        qp: 7,
                        wq_id: 9,
                        ok: true,
                        ..
                    }
                )
        })
        .collect();
    assert_eq!(notifies.len(), 1, "exactly one CqNotify");
    assert_eq!(be.inflight(), 0, "ITT slot freed");
    assert!(d2.stages.contains(&Stage::NetIn));
    assert!(d2.stages.contains(&Stage::DataWritten));
}

#[test]
fn itt_exhaustion_queues_and_drains() {
    let cfg = RmcConfig {
        itt_slots: 2,
        ..RmcConfig::default()
    };
    let mut be = NiBackend::new(NocNode::NiBlock(0), 0, cfg, home, 64, None);
    for id in 1..=4u64 {
        be.on_wq_entry(
            Cycle(0),
            entry(id, RemoteOp::Read, 64),
            id as u32,
            NocNode::tile(0, 0),
        );
    }
    let d = drain(&mut be, 0, 30);
    assert_eq!(d.net.len(), 2, "only two slots admit transfers");
    assert_eq!(be.stats().itt_stalls.get(), 2, "two entries stalled");
    // Complete the first two; the stalled ones must now proceed.
    for r in &d.net {
        be.on_response(
            Cycle(40),
            RemoteResp {
                tid: r.tid,
                dst_node: 0,
                remote_block: r.remote_block,
                value: 0,
                is_read: true,
            },
        );
    }
    let d2 = drain(&mut be, 40, 40);
    assert_eq!(d2.net.len(), 2, "stalled transfers drained");
}

#[test]
fn write_entry_loads_payload_before_shipping() {
    let mut be = backend(None);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Write, 3 * 64),
        0,
        NocNode::tile(0, 0),
    );
    let d = drain(&mut be, 0, 30);
    assert!(
        d.net.is_empty(),
        "nothing ships before the local reads return"
    );
    let reads: Vec<_> = d
        .coh
        .iter()
        .filter_map(|e| match e.msg {
            ni_coherence::CohMsg::NcRead { block } => Some(block),
            _ => None,
        })
        .collect();
    assert_eq!(reads.len(), 3, "one local payload read per block");
    // Return the local data; each NcData produces one outbound write.
    for (i, &b) in reads.iter().enumerate() {
        be.on_nc_data(Cycle(40 + i as u64), b, 100 + i as u64);
    }
    let d2 = drain(&mut be, 40, 20);
    assert_eq!(d2.net.len(), 3);
    for r in &d2.net {
        assert!(!r.is_read);
        assert!(r.value >= 100 && r.value < 103, "payload value shipped");
    }
    assert_eq!(be.stats().payload_bytes.get(), 3 * 64);
}

#[test]
fn per_tile_backend_detours_via_edge() {
    let via = NocNode::NiBlock(5);
    let mut be = backend(Some(via));
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 64),
        0,
        NocNode::tile(0, 0),
    );
    let d = drain(&mut be, 0, 20);
    assert!(
        d.net.is_empty(),
        "per-tile backends cannot reach the router directly"
    );
    let outs: Vec<_> =
        d.ni.iter()
            .filter(|(dst, msg)| *dst == via && matches!(msg, NiMsg::NetOut(_)))
            .collect();
    assert_eq!(
        outs.len(),
        1,
        "request detours via the edge NI block (§6.2)"
    );
}

#[test]
fn concurrent_transfers_interleave_round_robin() {
    let mut be = backend(None);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 4 * 64),
        1,
        NocNode::tile(0, 0),
    );
    be.on_wq_entry(
        Cycle(0),
        entry(2, RemoteOp::Read, 4 * 64),
        2,
        NocNode::tile(1, 0),
    );
    let d = drain(&mut be, 0, 40);
    assert_eq!(d.net.len(), 8);
    // Both transfers make progress within the first half of the unrolls.
    let first_half: Vec<u16> = d.net[..4].iter().map(|r| (r.tid >> 32) as u16).collect();
    let slots: std::collections::HashSet<u64> =
        d.net[..4].iter().map(|r| r.tid & 0xffff_ffff).collect();
    assert!(
        slots.len() > 1,
        "round-robin interleaves slots: {first_half:?}"
    );
}

// ---- ITT timeout / retry ----------------------------------------------

fn watchdog_backend(timeout: u64, retries: u32) -> NiBackend {
    NiBackend::new(
        NocNode::NiBlock(0),
        3,
        RmcConfig {
            itt_timeout: timeout,
            itt_retries: retries,
            ..RmcConfig::default()
        },
        home,
        64,
        None,
    )
}

fn resp_for(r: &RemoteReq) -> RemoteResp {
    RemoteResp {
        tid: r.tid,
        dst_node: 0,
        remote_block: r.remote_block,
        value: 1,
        is_read: true,
    }
}

#[test]
fn itt_timeout_resends_only_the_missing_blocks() {
    let fe = NocNode::tile(1, 1);
    let mut be = watchdog_backend(100, 2);
    be.on_wq_entry(Cycle(0), entry(1, RemoteOp::Read, 4 * 64), 0, fe);
    let d = drain(&mut be, 0, 20);
    assert_eq!(d.net.len(), 4);
    // Two blocks answered; two lost to a (simulated) dead link.
    be.on_response(Cycle(30), resp_for(&d.net[0]));
    be.on_response(Cycle(31), resp_for(&d.net[1]));
    let d2 = drain(&mut be, 20, 80);
    assert!(d2.net.is_empty(), "nothing re-sent before the deadline");
    // Progress was at cycle 31; the watchdog fires at 131.
    let d3 = drain(&mut be, 100, 60);
    assert_eq!(d3.net.len(), 2, "exactly the unanswered tail re-sent");
    assert_eq!(be.stats().itt_timeouts.get(), 1);
    assert_eq!(be.stats().itt_retries.get(), 1);
    assert_eq!(be.stats().failed_transfers.get(), 0);
    // The re-sent blocks arrive: the transfer completes successfully.
    be.on_response(Cycle(170), resp_for(&d3.net[0]));
    be.on_response(Cycle(171), resp_for(&d3.net[1]));
    let d4 = drain(&mut be, 170, 20);
    assert!(d4.ni.iter().any(|(dst, msg)| *dst == fe
        && matches!(
            msg,
            NiMsg::CqNotify {
                qp: 0,
                wq_id: 1,
                ok: true,
                ..
            }
        )));
    assert_eq!(be.inflight(), 0);
    assert!(be.is_quiescent());
}

#[test]
fn exhausted_retry_budget_completes_with_an_error_status() {
    let fe = NocNode::tile(2, 0);
    let mut be = watchdog_backend(50, 1);
    be.on_wq_entry(Cycle(0), entry(7, RemoteOp::Read, 64), 4, fe);
    // No responses ever arrive (dead destination). One retry at ~+50,
    // then the error completion at ~+100.
    let d = drain(&mut be, 0, 200);
    assert_eq!(d.net.len(), 2, "original send plus one retry");
    assert_eq!(be.stats().itt_timeouts.get(), 2);
    assert_eq!(be.stats().itt_retries.get(), 1);
    assert_eq!(be.stats().failed_transfers.get(), 1);
    let fails: Vec<_> =
        d.ni.iter()
            .filter(|(dst, msg)| {
                *dst == fe
                    && matches!(
                        msg,
                        NiMsg::CqNotify {
                            qp: 4,
                            wq_id: 7,
                            ok: false,
                            ..
                        }
                    )
            })
            .collect();
    assert_eq!(fails.len(), 1, "exactly one error CqNotify");
    assert_eq!(be.inflight(), 0, "the slot is freed on failure");
    assert!(be.is_quiescent(), "an abandoned transfer leaves no residue");
}

#[test]
fn responses_outliving_their_transfer_are_dropped_as_stale() {
    let mut be = watchdog_backend(50, 0);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 64),
        0,
        NocNode::tile(0, 0),
    );
    let d = drain(&mut be, 0, 120);
    assert_eq!(
        be.stats().failed_transfers.get(),
        1,
        "gave up with 0 retries"
    );
    // A new transfer recycles the same slot under a fresh generation.
    be.on_wq_entry(
        Cycle(200),
        entry(2, RemoteOp::Read, 64),
        0,
        NocNode::tile(0, 0),
    );
    let d2 = drain(&mut be, 200, 20);
    assert_eq!(d2.net.len(), 1);
    assert_ne!(
        d2.net[0].tid, d.net[0].tid,
        "slot reuse must mint a fresh generation"
    );
    // The original response finally limps home: dropped, not matched.
    be.on_response(Cycle(230), resp_for(&d.net[0]));
    drain(&mut be, 230, 20);
    assert_eq!(be.stats().stale_responses.get(), 1);
    assert_eq!(
        be.inflight(),
        1,
        "the recycled slot's live transfer is untouched"
    );
    // The real response completes it.
    be.on_response(Cycle(260), resp_for(&d2.net[0]));
    drain(&mut be, 260, 20);
    assert_eq!(be.inflight(), 0);
}

/// A WQ replay bumps its slot's generation mid-transfer. Once the slot is
/// vacated, its next occupant must count on from the bumped generation, so
/// late responses owed to either earlier destination cannot match it.
#[test]
fn slot_reused_after_a_replay_mints_a_fresh_generation() {
    let mut be = NiBackend::new(
        NocNode::NiBlock(0),
        3,
        RmcConfig {
            itt_timeout: 50,
            itt_retries: 0,
            replay_budget: 1,
            ..RmcConfig::default()
        },
        home,
        64,
        None,
    );
    be.set_replicas(Some(Arc::new(ReplicaMap::ring(4, 1, 2))));
    let fe = NocNode::tile(0, 0);
    be.on_wq_entry(Cycle(0), entry(1, RemoteOp::Read, 64), 0, fe);
    // Nothing answers: the first deadline replays the read toward the
    // other replica, the second gives up.
    let d = drain(&mut be, 0, 200);
    assert_eq!(d.net.len(), 2, "original send plus the replay");
    assert_ne!(
        d.net[0].target_node, d.net[1].target_node,
        "the replay targets another replica"
    );
    assert_ne!(
        d.net[0].tid, d.net[1].tid,
        "the replay runs under a bumped generation"
    );
    assert_eq!(be.stats().replays.get(), 1);
    assert_eq!(be.stats().failed_transfers.get(), 1);
    assert_eq!(be.inflight(), 0);
    // The vacated slot takes the next transfer.
    be.on_wq_entry(Cycle(300), entry(2, RemoteOp::Read, 64), 0, fe);
    let d2 = drain(&mut be, 300, 20);
    assert_eq!(d2.net.len(), 1);
    let fresh = d2.net[0].tid;
    assert_eq!(fresh & 0xffff, d.net[1].tid & 0xffff, "the slot is reused");
    for old in &d.net {
        assert_ne!(
            fresh, old.tid,
            "slot reuse after a replay must mint a fresh generation"
        );
    }
    // Both earlier generations' responses limp home: dropped, not matched.
    be.on_response(Cycle(320), resp_for(&d.net[0]));
    be.on_response(Cycle(321), resp_for(&d.net[1]));
    drain(&mut be, 320, 10);
    assert_eq!(be.stats().stale_responses.get(), 2);
    assert_eq!(be.inflight(), 1, "the new occupant is untouched");
    // Its own response lands before its deadline and completes it.
    be.on_response(Cycle(330), resp_for(&d2.net[0]));
    drain(&mut be, 330, 10);
    assert_eq!(be.inflight(), 0);
    assert!(be.is_quiescent());
}

#[test]
fn write_transfer_failure_orphans_pending_local_reads() {
    let mut be = watchdog_backend(50, 0);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Write, 2 * 64),
        0,
        NocNode::tile(0, 0),
    );
    let d = drain(&mut be, 0, 10);
    let reads: Vec<_> = d
        .coh
        .iter()
        .filter_map(|e| match e.msg {
            ni_coherence::CohMsg::NcRead { block } => Some(block),
            _ => None,
        })
        .collect();
    assert_eq!(reads.len(), 2, "payload reads issued");
    // The watchdog abandons the transfer before local data returns.
    drain(&mut be, 10, 120);
    assert_eq!(be.stats().failed_transfers.get(), 1);
    // Late local data must not resolve against the freed slot (this used
    // to be an `expect("slot live while reads pending")` panic path).
    be.on_nc_data(Cycle(150), reads[0], 0xEE);
    be.on_nc_data(Cycle(151), reads[1], 0xEF);
    let d2 = drain(&mut be, 150, 20);
    assert!(d2.net.is_empty(), "no payload ships for a dead transfer");
    assert!(be.is_quiescent());
}

/// A block lost in the *middle* of a transfer (later blocks answered) must
/// be exactly what the retry re-sends — a suffix-based resend would skip
/// it and let duplicate arrivals complete the transfer `ok` with data
/// missing.
#[test]
fn retry_resends_a_block_lost_mid_transfer() {
    let fe = NocNode::tile(0, 3);
    let mut be = watchdog_backend(100, 1);
    be.on_wq_entry(Cycle(0), entry(1, RemoteOp::Read, 3 * 64), 0, fe);
    let d = drain(&mut be, 0, 20);
    assert_eq!(d.net.len(), 3);
    // Blocks 1 and 2 answered; block 0's request was erased by the fabric.
    be.on_response(Cycle(30), resp_for(&d.net[1]));
    be.on_response(Cycle(31), resp_for(&d.net[2]));
    let d2 = drain(&mut be, 20, 150);
    assert_eq!(d2.net.len(), 1, "exactly the lost block re-sent");
    assert_eq!(
        d2.net[0].remote_block, d.net[0].remote_block,
        "the re-send must target the missing block, not the tail"
    );
    // A duplicate of an already-answered block must not complete the
    // transfer...
    be.on_response(Cycle(200), resp_for(&d.net[1]));
    drain(&mut be, 200, 20);
    assert_eq!(be.inflight(), 1, "duplicate must not count as progress");
    assert_eq!(be.stats().stale_responses.get(), 1);
    // ...only the real missing data does.
    be.on_response(Cycle(230), resp_for(&d2.net[0]));
    let d3 = drain(&mut be, 230, 20);
    assert!(d3
        .ni
        .iter()
        .any(|(_, msg)| matches!(msg, NiMsg::CqNotify { ok: true, .. })));
    assert_eq!(be.inflight(), 0);
    assert!(be.is_quiescent());
}

/// A parked original response can arrive in the same tick the watchdog
/// re-queues its slot for resending: the completion must pull the slot
/// back out of the unroll queue, or the next `unroll_one` drives a freed
/// (or recycled) slot. This used to panic on `active slot is live`.
#[test]
fn response_arriving_as_the_watchdog_retries_completes_cleanly() {
    let mut be = watchdog_backend(50, 1);
    be.on_wq_entry(
        Cycle(0),
        entry(1, RemoteOp::Read, 64),
        0,
        NocNode::tile(0, 0),
    );
    let d = drain(&mut be, 0, 10);
    assert_eq!(d.net.len(), 1);
    // Admission happened at cycle 4 (rgp_be_proc), so the watchdog fires
    // at tick 54. RespDone events pay rcp_be_proc = 4 cycles: delivering
    // the response at 50 makes it land in tick 54's event loop — after
    // check_timeouts re-queued the slot, before the unroll phase resends.
    be.on_response(Cycle(50), resp_for(&d.net[0]));
    let d2 = drain(&mut be, 10, 100);
    assert!(d2.net.is_empty(), "completion must cancel the re-send");
    assert_eq!(be.stats().itt_retries.get(), 1, "the watchdog did fire");
    assert!(d2
        .ni
        .iter()
        .any(|(_, msg)| matches!(msg, NiMsg::CqNotify { ok: true, .. })));
    assert_eq!(be.inflight(), 0);
    assert!(
        be.is_quiescent(),
        "no zombie slot may stay in the unroll queue"
    );
    // The freed slot must be reusable without interference.
    be.on_wq_entry(
        Cycle(200),
        entry(2, RemoteOp::Read, 64),
        0,
        NocNode::tile(0, 0),
    );
    let d3 = drain(&mut be, 200, 20);
    assert_eq!(d3.net.len(), 1, "recycled slot unrolls exactly once");
}

// ---- RRPP --------------------------------------------------------------

fn rrpp() -> Rrpp {
    Rrpp::new(NocNode::NiBlock(2), RmcConfig::default(), home, 64)
}

fn req(tid: u64, is_read: bool, block: u64) -> RemoteReq {
    RemoteReq {
        tid,
        is_read,
        src_node: 0,
        target_node: 0,
        remote_block: BlockAddr(block),
        value: 0x77,
        service: 0,
    }
}

#[test]
fn rrpp_services_read_with_local_access_and_responds() {
    let mut r = rrpp();
    r.on_request(Cycle(0), req(11, true, 42));
    let mut reads = Vec::new();
    let mut resps = Vec::new();
    for t in 0..30u64 {
        r.tick(Cycle(t));
        while let Some(e) = r.pop_egress() {
            match e {
                RmcEgress::Coh(c) => reads.push(c),
                RmcEgress::NetResp(resp) => resps.push(resp),
                _ => {}
            }
        }
        if t == 15 && !reads.is_empty() && resps.is_empty() {
            r.on_nc_data(Cycle(t), BlockAddr(42), 0xDEAD);
        }
    }
    assert_eq!(reads.len(), 1);
    assert_eq!(
        reads[0].dst,
        home(BlockAddr(42), 64),
        "local access goes to the home bank"
    );
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].tid, 11);
    assert_eq!(resps[0].value, 0xDEAD);
    assert!(resps[0].is_read);
    assert_eq!(r.stats().serviced.get(), 1);
    assert!(
        r.pop_latency_sample().is_some(),
        "latency sample feeds the rack emulator"
    );
}

#[test]
fn rrpp_services_write_with_nc_write() {
    let mut r = rrpp();
    r.on_request(Cycle(0), req(5, false, 7));
    let mut writes = 0;
    let mut resps = 0;
    for t in 0..30u64 {
        r.tick(Cycle(t));
        while let Some(e) = r.pop_egress() {
            match e {
                RmcEgress::Coh(c) => {
                    if let ni_coherence::CohMsg::NcWrite { value, .. } = c.msg {
                        assert_eq!(value, 0x77, "write payload forwarded to memory");
                        writes += 1;
                    }
                }
                RmcEgress::NetResp(resp) => {
                    assert!(!resp.is_read);
                    resps += 1;
                }
                _ => {}
            }
        }
        if t == 15 && writes > 0 && resps == 0 {
            r.on_nc_wack(Cycle(t), BlockAddr(7));
        }
    }
    assert_eq!(writes, 1);
    assert_eq!(resps, 1);
}

#[test]
fn rrpp_outstanding_window_is_bounded() {
    let cfg = RmcConfig {
        rrpp_max_outstanding: 4,
        ..RmcConfig::default()
    };
    let mut r = Rrpp::new(NocNode::NiBlock(0), cfg, home, 64);
    for i in 0..20u64 {
        r.on_request(Cycle(0), req(i, true, i));
    }
    let mut issued = 0;
    for t in 0..40u64 {
        r.tick(Cycle(t));
        while let Some(e) = r.pop_egress() {
            if matches!(e, RmcEgress::Coh(_)) {
                issued += 1;
            }
        }
    }
    assert_eq!(issued, 4, "no more than the window may be outstanding");
    assert_eq!(r.inflight(), 20, "the rest wait in the queue");
}

#[test]
fn rrpp_latency_counts_queueing_time() {
    let mut r = rrpp();
    r.on_request(Cycle(0), req(1, true, 1));
    for t in 0..10u64 {
        r.tick(Cycle(t));
        while r.pop_egress().is_some() {}
    }
    // Local data returns late: service latency includes the wait.
    r.on_nc_data(Cycle(500), BlockAddr(1), 0);
    while r.pop_egress().is_some() {}
    assert_eq!(r.pop_latency_sample(), Some(500));
    assert!((r.mean_latency() - 500.0).abs() < 1e-9);
}
