//! True multi-node rack simulation: a 2x2x2 torus of eight fully simulated
//! 64-core chips, real cross-node traffic hop-by-hop over the fabric, and
//! the per-directed-link bandwidth report the single-node emulator cannot
//! produce.
//!
//! ```sh
//! cargo run --release --example rack_scale
//! ```

use rackni::experiments::Scale;
use rackni::ni_fabric::Torus3D;
use rackni::ni_soc::{
    ChipConfig, Rack, RackSimConfig, Synthetic, TrafficPattern, Workload, ZipfHotspot,
};
use rackni::report::{f1, Table};

fn main() {
    let torus = Torus3D::new(2, 2, 2);
    // RACKNI_SCALE=quick keeps CI smoke runs short; full runs longer.
    let cycles = Scale::from_env().rack_cycles().max(20_000);
    println!(
        "rackni rack_scale: {} nodes ({}x{}x{} torus), every node a full chip, {} cycles\n",
        torus.nodes(),
        torus.dims().0,
        torus.dims().1,
        torus.dims().2,
        cycles
    );

    let mut summary = Table::new(&[
        "traffic",
        "ops",
        "agg NI (GBps)",
        "fabric hops",
        "peak link (GBps)",
    ]);
    let mut detail: Option<(TrafficPattern, Rack)> = None;
    for traffic in [
        TrafficPattern::Neighbor,
        TrafficPattern::Uniform,
        TrafficPattern::Opposite,
    ] {
        let cfg = RackSimConfig {
            torus,
            chip: ChipConfig {
                active_cores: 4,
                ..ChipConfig::default()
            },
            ..RackSimConfig::default()
        };
        let reads = Synthetic::from_workload(Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        })
        .with_pattern(traffic);
        let mut rack = Rack::with_scenario(cfg, &reads);
        rack.run(cycles);
        let s = rack.snapshot();
        summary.row_owned(vec![
            format!("{traffic:?}"),
            s.cores.completed.to_string(),
            f1(s.app_gbps(cycles)),
            s.hops.to_string(),
            f1(rack.peak_link_gbps()),
        ]);
        if traffic == TrafficPattern::Uniform {
            detail = Some((traffic, rack));
        }
    }
    println!("{}", summary.render());

    let (traffic, rack) = detail.expect("uniform pattern ran");
    println!("per-node completion, {traffic:?} traffic:");
    let mut nodes = Table::new(&["node", "coords", "ops", "NI bytes"]);
    for chip in rack.chips() {
        let id = u32::from(chip.node_id());
        let c = torus.coords(id);
        nodes.row_owned(vec![
            id.to_string(),
            format!("({},{},{})", c.0, c.1, c.2),
            chip.completed_ops().to_string(),
            chip.app_payload_bytes().to_string(),
        ]);
    }
    println!("{}", nodes.render());

    println!("all 48 directed links, peak bandwidth over any 10K-cycle window:");
    let mut links = rack.link_report();
    links.sort_by(|a, b| b.peak_gbps.total_cmp(&a.peak_gbps));
    let mut lt = Table::new(&["link", "packets", "bytes", "busy", "util", "peak GBps"]);
    for l in &links {
        lt.row_owned(vec![
            format!("n{} {}", l.node, l.dir),
            l.packets.to_string(),
            l.bytes.to_string(),
            l.busy_cycles.to_string(),
            format!("{:.1}%", l.busy_cycles as f64 / cycles as f64 * 100.0),
            f1(l.peak_gbps),
        ]);
    }
    println!("{}", lt.render());

    let moved: u64 = links.iter().map(|l| l.packets).sum();
    assert_eq!(
        moved,
        rack.hops_traversed(),
        "link counters account every hop"
    );
    println!(
        "fabric totals: {} packets delivered, {} link traversals, busiest link {:.1} GBps",
        {
            let s = rack.fabric_stats();
            s.incoming_generated.get() + s.responded.get()
        },
        rack.hops_traversed(),
        rack.peak_link_gbps()
    );

    // Machine-readable per-link dump for offline congestion analysis.
    std::fs::create_dir_all("target").expect("create target/");
    let csv_path = std::path::Path::new("target").join("rack_scale_links.csv");
    let mut csv = std::fs::File::create(&csv_path).expect("create link report");
    rack.write_link_report(&mut csv).expect("write link report");
    println!("per-link report written to {}\n", csv_path.display());

    // Hotspot study: the same rack under Zipf-skewed destinations — the
    // first-class scenario the uniform TrafficPattern enum could not
    // express. Most requests pile onto one hot node, so its incoming links
    // run far above the mean while uniform traffic stays balanced.
    let hot_cfg = RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores: 4,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    };
    let mut hot = Rack::with_scenario(hot_cfg, &ZipfHotspot::default());
    hot.run(cycles);
    let uniform_skew = rack.link_byte_skew();
    let hot_skew = hot.link_byte_skew();
    println!(
        "link load skew (busiest link bytes / mean loaded link): uniform {uniform_skew:.2}x, \
         zipf-hotspot {hot_skew:.2}x"
    );
    let rrpp: Vec<f64> = hot
        .chips()
        .iter()
        .map(|c| c.rrpp_mean_latency().round())
        .collect();
    println!("zipf-hotspot RRPP mean service latency per node: {rrpp:?} cycles");
    assert!(
        hot_skew > uniform_skew,
        "zipf hotspot must load links more unevenly than uniform traffic"
    );
    let hot_csv = std::path::Path::new("target").join("rack_scale_links_hotspot.csv");
    let mut f = std::fs::File::create(&hot_csv).expect("create hotspot report");
    hot.write_link_report(&mut f).expect("write hotspot report");
    println!("hotspot per-link report written to {}", hot_csv.display());
}
