//! Tests of the experiment layer itself: each table/figure function must
//! produce structurally valid, paper-shaped output at quick scale.

use rackni::experiments::{self, fig5, latency_vs_size, nicache_ablation, table1, table3, Scale};
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::Topology;

#[test]
fn table1_shows_the_qp_tax() {
    let (edge, numa) = table1(Scale::Quick);
    assert_eq!(edge.placement, NiPlacement::Edge);
    assert_eq!(numa.placement, NiPlacement::Numa);
    assert!(
        edge.cycles > numa.cycles * 1.4,
        "{} vs {}",
        edge.cycles,
        numa.cycles
    );
    assert_eq!(edge.paper_cycles, 710);
    assert_eq!(numa.paper_cycles, 395);
    let render = experiments::table1_render(Scale::Quick);
    assert!(render.contains("QP-based (NI_edge)"));
    assert!(render.contains("710"));
}

#[test]
fn table3_breakdowns_sum_to_totals() {
    let t3 = table3(Scale::Quick);
    assert_eq!(t3.breakdowns.len(), 3);
    for (p, b) in &t3.breakdowns {
        let sum = b.wq_write
            + b.wq_read_and_rgp
            + b.fe_to_net
            + b.net_round_trip
            + b.rcp_and_cq_write
            + b.cq_read;
        assert!(
            (sum - b.total).abs() < 2.0,
            "{p:?}: stages {sum} vs total {}",
            b.total
        );
        assert!(b.total > t3.numa_cycles, "{p:?} cannot beat the NUMA floor");
    }
    // The paper's key structural finding: NIedge's WQ-interaction stages
    // dominate its gap over the split design.
    let edge = &t3
        .breakdowns
        .iter()
        .find(|(p, _)| *p == NiPlacement::Edge)
        .expect("edge")
        .1;
    let split = &t3
        .breakdowns
        .iter()
        .find(|(p, _)| *p == NiPlacement::Split)
        .expect("split")
        .1;
    assert!(
        edge.wq_write + edge.wq_read_and_rgp > split.wq_write + split.wq_read_and_rgp + 100.0,
        "edge QP interaction must dominate"
    );
}

/// The fixed model constants the paper publishes (Table 3) equal its
/// numbers; a constant that differs by design is listed with its reason.
#[test]
fn model_constants_match_the_paper() {
    use rackni::ni_coherence::NI_TRANSFER_LATENCY;
    use rackni::ni_fabric::{HOP_CYCLES, INITIAL_RRPP_ESTIMATE};
    use rackni::ni_rmc::{RCP_BE_PROC, RCP_FE_PROC, RGP_BE_PROC, RGP_FE_PROC};
    use rackni::paper::{table3_edge, table3_split};

    assert_eq!(HOP_CYCLES, table3_edge::NET_HOP);
    assert_eq!(INITIAL_RRPP_ESTIMATE, table3_edge::RRPP);
    assert_eq!(RGP_FE_PROC, table3_split::RGP_FE);
    assert_eq!(RGP_BE_PROC, table3_split::RGP_BE);
    assert_eq!(RCP_BE_PROC, table3_split::RCP_BE);
    assert_eq!(NI_TRANSFER_LATENCY, table3_split::WQ_TRANSFER);
    assert_eq!(NI_TRANSFER_LATENCY, table3_split::CQ_TRANSFER);

    let by_design = [(
        RCP_FE_PROC,
        table3_split::RCP_FE,
        "Table 3's RCP frontend row includes the CQ store, which the NI cache simulates",
    )];
    for (ours, paper, why) in by_design {
        assert_ne!(ours, paper, "now equal, so assert it above: {why}");
    }
}

#[test]
fn fig5_overheads_shrink_with_hop_count() {
    let pts = fig5(Scale::Quick);
    assert_eq!(pts.len(), 13, "0..=12 hops");
    for w in pts.windows(2) {
        assert!(w[1].numa_ns > w[0].numa_ns, "latency grows with hops");
        assert!(
            w[1].edge_pct <= w[0].edge_pct + 1e-9,
            "edge overhead must shrink as hops amortize it"
        );
        assert!(w[1].split_pct <= w[0].split_pct + 1e-9);
    }
    // Paper (§6.1.2): at 6 hops edge ~28.6%, split ~4.7%; shapes must hold
    // loosely — edge well above split, both far below their 1-hop values.
    let p6 = &pts[6];
    assert!(
        p6.edge_pct > 2.0 * p6.split_pct,
        "{} vs {}",
        p6.edge_pct,
        p6.split_pct
    );
    let p1 = &pts[1];
    assert!(p1.edge_pct > p6.edge_pct);
}

#[test]
fn fig6_pertile_loses_at_large_transfers() {
    let pts = latency_vs_size(Scale::Quick, Topology::Mesh, &[64, 16384]);
    let small = &pts[0];
    let big = &pts[1];
    // [edge, split, per-tile]
    assert!(
        small.ns[2] <= small.ns[1] * 1.05,
        "per-tile wins small transfers"
    );
    assert!(small.ns[0] > small.ns[1], "edge loses small transfers");
    assert!(
        big.ns[2] > big.ns[1],
        "per-tile unroll queueing must show at 16KB: {} vs {}",
        big.ns[2],
        big.ns[1]
    );
    assert!(
        big.numa_proj_ns < big.ns[1],
        "projection subtracts QP overhead"
    );
    assert!(
        big.numa_proj_ns > small.numa_proj_ns,
        "projection grows with size"
    );
}

#[test]
fn nicache_owned_state_saves_cycles() {
    let (on, off) = nicache_ablation(Scale::Quick);
    assert!(
        off > on,
        "disabling the Owned state must cost latency: on {on}, off {off}"
    );
}

#[test]
fn scenario_sweep_covers_every_builtin() {
    let pts = experiments::scenario_sweep(Scale::Quick);
    let names: Vec<&str> = pts.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["synthetic", "zipf-hotspot", "kv-store", "graph-shard"],
        "stable scenario order"
    );
    for p in &pts {
        let s = &p.snapshot;
        assert!(s.cores.completed > 0, "{}: rack idle", p.name);
        assert!(s.app_gbps(p.cycles) > 0.0, "{}: no NI traffic", p.name);
        assert!(s.hops > 0, "{}: nothing crossed the fabric", p.name);
        assert!(
            p.link_skew >= 1.0 && p.rrpp_skew >= 1.0,
            "{}: skews are ratios",
            p.name
        );
    }
    // The hotspot scenario must stand out from the synthetic baseline.
    let synth = &pts[0];
    let zipf = &pts[1];
    assert!(
        zipf.link_skew > synth.link_skew,
        "zipf {} vs synthetic {}",
        zipf.link_skew,
        synth.link_skew
    );
    let render = experiments::scenario_sweep_render(Scale::Quick);
    assert!(render.contains("zipf-hotspot") && render.contains("link skew"));
}

#[test]
fn scale_from_env_defaults_to_quick() {
    if std::env::var("RACKNI_SCALE").is_err() {
        assert_eq!(Scale::from_env(), Scale::Quick);
    }
}
