//! Routing study, on-chip and rack-scale.
//!
//! Two layers of the design space share the name "routing":
//!
//! 1. **On-chip (§4.3/§6.2)**: why soNUMA chips need the NI-aware CDR
//!    variant. Remote-machine traffic enters and leaves through one chip
//!    edge while most of it terminates at the memory controllers on the
//!    opposite edge; dimension-order routing funnels that traffic into the
//!    peripheral columns, and the paper's fix routes directory-sourced
//!    traffic YX so it never turns at the edges.
//! 2. **Rack-scale (this repo's extension)**: which *torus* routing policy
//!    carries chip-to-chip traffic. `experiments::routing_sweep` compares
//!    deterministic dimension-order routing against congestion-aware
//!    minimal-adaptive and seeded random-minimal policies
//!    (`ni_fabric::RoutingPolicy`) on a 64-node 4x4x4 rack across uniform,
//!    antipodal, and Zipf-hotspot traffic.
//!
//! ```sh
//! cargo run --release --example routing_study
//! ```

use rackni::experiments::{routing_ablation, routing_points_render, routing_sweep, Scale};
use rackni::ni_fabric::RoutingKind;
use rackni::ni_noc::RoutingPolicy;
use rackni::report::{f1, Table};

fn main() {
    let scale = Scale::from_env();
    println!("routing_study: NI_split aggregate bandwidth by on-chip routing policy [scale: {scale:?}]\n");

    let rows = routing_ablation(scale, 2048);
    let cdr_ni = rows
        .iter()
        .find(|(p, _)| *p == RoutingPolicy::CdrNi)
        .map(|&(_, g)| g)
        .expect("sweep includes CdrNi");

    let mut t = Table::new(&["policy", "app GBps", "vs CDR+NI"]);
    for (p, g) in &rows {
        t.row_owned(vec![
            format!("{p:?}"),
            f1(*g),
            format!("{:.0}%", 100.0 * g / cdr_ni),
        ]);
    }
    println!("{}", t.render());
    println!("The paper reports sub-half peak (~100 vs 214 GBps) without CDR; the");
    println!("NI-aware class keeps directory traffic off the NI and MC edge columns.\n");

    println!("torus routing-policy sweep: 4x4x4 rack, capped jobs run to completion\n");
    let pts = routing_sweep(scale);
    println!("{}", routing_points_render(&pts));
    println!("DOR is deterministic dimension order (the pre-policy status quo);");
    println!("adaptive picks the least-backlogged productive link per hop (DOR on");
    println!("ties); random is the seeded oblivious minimal baseline.");

    // The sweep's headline claim, enforced so CI catches a regression: on
    // Zipf-hotspot traffic, minimal-adaptive routing must spread the hot
    // node's load and beat dimension order on link byte skew.
    let skew = |routing: RoutingKind| {
        pts.iter()
            .find(|p| p.cell.scenario == "zipf" && p.cell.cfg.routing == routing)
            .expect("sweep covers the zipf rows")
            .link_skew
    };
    let (dor, ada) = (
        skew(RoutingKind::DimensionOrder),
        skew(RoutingKind::MinimalAdaptive),
    );
    assert!(
        ada < dor,
        "minimal-adaptive skew {ada:.2}x must undercut DOR {dor:.2}x on the Zipf hotspot"
    );
    println!(
        "\nzipf hotspot: adaptive routing cuts link byte skew {dor:.2}x -> {ada:.2}x ({:+.1}%)",
        (ada / dor - 1.0) * 100.0
    );
}
