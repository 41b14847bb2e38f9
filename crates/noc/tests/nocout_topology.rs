//! Focused NOC-Out topology tests: latency structure of the tree +
//! flattened-butterfly station graph (§6.3, Fig. 8).

use ni_engine::Cycle;
use ni_noc::{Interconnect, MessageClass, NocNode, NocOutNoc, Packet};

/// Inject one packet into a fresh NOC and return its delivery cycle.
fn deliver(pkt: Packet<u64>, limit: u64) -> u64 {
    let mut noc: NocOutNoc<u64> = NocOutNoc::default();
    let dst = pkt.dst;
    let start = Cycle(0);
    noc.try_inject(start, pkt).expect("empty NOC accepts");
    let mut now = start;
    loop {
        noc.tick(now);
        if noc.eject(dst).is_some() {
            return now.0;
        }
        now += 1;
        assert!(now.0 < limit, "packet to {dst:?} not delivered");
    }
}

fn pkt(src: NocNode, dst: NocNode) -> Packet<u64> {
    Packet::new(src, dst, MessageClass::CohReq, 1, 0)
}

#[test]
fn core_to_own_llc_tile_uses_only_the_tree() {
    // Tile (3, 0) sits at the top of column 3: four tree hops to the LLC row.
    let near = deliver(pkt(NocNode::tile(3, 3), NocNode::Llc(3)), 100);
    let far = deliver(pkt(NocNode::tile(3, 0), NocNode::Llc(3)), 100);
    assert!(
        far > near,
        "deeper tree position must cost more: {far} vs {near}"
    );
}

#[test]
fn cross_column_traffic_crosses_the_butterfly() {
    let same = deliver(pkt(NocNode::tile(0, 3), NocNode::Llc(0)), 100);
    let cross = deliver(pkt(NocNode::tile(0, 3), NocNode::Llc(7)), 100);
    // The butterfly moves 2 tiles/cycle: 7 columns cost ~4 extra cycles.
    assert!(
        cross > same,
        "butterfly traversal must show: {cross} vs {same}"
    );
    assert!(
        cross - same <= 8,
        "rich butterfly connectivity keeps it cheap: +{}",
        cross - same
    );
}

#[test]
fn llc_reaches_memory_controllers_and_router_edge() {
    let to_mc = deliver(pkt(NocNode::Llc(2), NocNode::Mc(2)), 100);
    assert!(to_mc <= 10, "MCs hang off the butterfly: {to_mc}");
    // NI blocks alias the LLC tiles in NOC-Out ("NImiddle", §6.3).
    let to_ni = deliver(pkt(NocNode::tile(4, 2), NocNode::NiBlock(4)), 100);
    assert!(to_ni <= 20, "NI at the LLC row: {to_ni}");
}

#[test]
fn llc_access_is_faster_than_mesh_average() {
    // §6.3: the flattened butterfly speeds up LLC access versus the mesh.
    // A worst-case core->LLC path on NOC-Out (tree depth 4 + butterfly)
    // must beat a worst-case mesh corner-to-corner path (14 hops x 3).
    let worst = deliver(pkt(NocNode::tile(0, 0), NocNode::Llc(7)), 200);
    assert!(
        worst < 14 * 3,
        "NOC-Out worst LLC access {worst} vs mesh 42"
    );
}

#[test]
fn response_and_request_groups_do_not_block_each_other() {
    let mut noc: NocOutNoc<u64> = NocOutNoc::default();
    // Saturate the request group toward one LLC tile, then send a response:
    // it must not be stuck behind the request queue (separate VQ group).
    let mut now = Cycle(0);
    for i in 0..6u64 {
        let p = Packet::new(
            NocNode::tile(1, 3),
            NocNode::Llc(1),
            MessageClass::CohReq,
            5,
            i,
        );
        while noc.try_inject(now, p.clone()).is_err() {
            noc.tick(now);
            now += 1;
        }
    }
    let resp = Packet::new(
        NocNode::tile(1, 4),
        NocNode::Llc(1),
        MessageClass::CohResp,
        5,
        99,
    );
    while noc.try_inject(now, resp.clone()).is_err() {
        noc.tick(now);
        now += 1;
    }
    let mut got_resp_at = None;
    let deadline = now + 200;
    while now < deadline {
        noc.tick(now);
        while let Some(p) = noc.eject(NocNode::Llc(1)) {
            if p.payload == 99 {
                got_resp_at = Some(now);
            }
        }
        if got_resp_at.is_some() {
            break;
        }
        now += 1;
    }
    assert!(got_resp_at.is_some(), "response starved behind requests");
}
