//! `Interconnect::next_activity` against the every-cycle tick: a caller
//! that ticks a mesh only at its next activity, skipping the cycles when
//! every packet is on a wire, sees each packet arrive on the same cycle,
//! and the same statistics, as one that ticks every cycle.

use ni_engine::Cycle;
use ni_noc::{
    Interconnect, MeshConfig, MeshNoc, MessageClass, NocNode, NocStats, Packet, RoutingPolicy,
};

/// Where a lone packet is delivered, at which cycle, and how many ticks
/// it took.
struct Delivery {
    at: Cycle,
    ticks: u64,
    stats: NocStats,
}

/// Inject one packet at cycle 0 and tick until it leaves at `dst`: every
/// cycle, or only at the mesh's next activity.
fn deliver(policy: RoutingPolicy, src: NocNode, dst: NocNode, skip: bool) -> Delivery {
    let mut noc: MeshNoc<u32> = MeshNoc::new(MeshConfig {
        policy,
        ..MeshConfig::default()
    });
    let pkt = Packet::new(src, dst, MessageClass::CohReq, 3, 7);
    noc.try_inject(Cycle(0), pkt)
        .expect("an empty mesh takes the packet");
    let (mut now, mut ticks) = (Cycle(0), 0);
    loop {
        assert!(
            now.0 < 1_000,
            "{policy:?}: {src:?} -> {dst:?} not delivered"
        );
        if skip {
            now = noc.next_activity(now).expect("the packet is in flight");
        }
        noc.tick(now);
        ticks += 1;
        if let Some(p) = noc.eject(dst) {
            assert_eq!(p.payload, 7);
            assert_eq!(noc.next_activity(now + 1), None, "delivered, so idle");
            return Delivery {
                at: now,
                ticks,
                stats: noc.stats().clone(),
            };
        }
        now += 1;
    }
}

#[test]
fn a_lone_packet_ticked_only_at_next_activity_arrives_as_one_ticked_every_cycle() {
    let routes = [
        (NocNode::tile(0, 0), NocNode::tile(7, 7)),
        (NocNode::tile(6, 1), NocNode::tile(1, 5)),
        (NocNode::tile(3, 4), NocNode::NiBlock(2)),
        (NocNode::Mc(5), NocNode::tile(2, 0)),
    ];
    for policy in RoutingPolicy::ALL {
        for (src, dst) in routes {
            let every = deliver(policy, src, dst, false);
            let skipping = deliver(policy, src, dst, true);
            let at = format!("{policy:?}: {src:?} -> {dst:?}");
            assert_eq!(skipping.at, every.at, "{at}: arrival cycle");
            assert_eq!(skipping.stats, every.stats, "{at}: statistics");
            assert!(
                skipping.ticks < every.ticks,
                "{at}: {} ticks skipping, {} every cycle",
                skipping.ticks,
                every.ticks
            );
        }
    }
}
