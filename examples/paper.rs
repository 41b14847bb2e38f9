//! The paper's evaluation, section by section: Tables 1–3, Figs. 5–10, the
//! §3.4/§6.2 ablations and the §6 conclusion matrix, with the published
//! numbers alongside where the paper has them, plus this repo's rack-scale
//! and scenario sweeps.
//!
//! ```sh
//! cargo run --release --example paper                    # every section
//! cargo run --release --example paper -- fig7 table3     # chosen sections
//! RACKNI_SCALE=full cargo run --release --example paper  # §5 methodology
//! ```
//!
//! Sections print in the order of `SECTIONS`, whatever order they are named
//! in; an unknown id lists the valid ones. The output depends only on the
//! scale, so two runs print the same bytes. The torus routing-policy sweep
//! is printed by the `routing_study` example.

use rackni::experiments::{
    self, bandwidth_vs_size, latency_vs_size, nicache_ablation, routing_ablation, table3, Scale,
    BANDWIDTH_SIZES, LATENCY_SIZES,
};
use rackni::ni_engine::parallel::par_map;
use rackni::ni_fabric::{Torus3D, HOP_CYCLES};
use rackni::ni_mem::MemConfig;
use rackni::ni_noc::{RouterConfig, RoutingPolicy};
use rackni::ni_qp::WQ_ENTRIES;
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{run_sync_latency, ChipConfig, Topology};
use rackni::paper;
use rackni::report::{f1, pct, Table};

/// One printable section: the id that selects it, its banner, its body.
struct Section {
    id: &'static str,
    title: &'static str,
    what: &'static str,
    print: fn(Scale),
}

const SECTIONS: [Section; 14] = [
    Section {
        id: "table1",
        title: "Table 1",
        what: "QP-based model vs. NUMA load/store, single-block read",
        print: |s| println!("{}", experiments::table1_render(s)),
    },
    Section {
        id: "table2",
        title: "Table 2",
        what: "system parameters (simulation configuration)",
        print: |_| table2(),
    },
    Section {
        id: "table3",
        title: "Table 3",
        what: "zero-load single-block latency tomography, all designs",
        print: |s| println!("{}", experiments::table3_render(s)),
    },
    Section {
        id: "fig5",
        title: "Fig. 5",
        what: "E2E latency vs. hop count (512-node 3D torus projection)",
        print: fig5,
    },
    Section {
        id: "fig6",
        title: "Fig. 6",
        what: "sync remote-read latency vs. transfer size (mesh)",
        print: |s| println!("{}", latency_render(s, Topology::Mesh)),
    },
    Section {
        id: "fig7",
        title: "Fig. 7",
        what: "aggregate app bandwidth vs. transfer size (mesh, async)",
        print: fig7,
    },
    Section {
        id: "fig9",
        title: "Fig. 9",
        what: "sync remote-read latency vs. transfer size (NOC-Out)",
        print: |s| println!("{}", latency_render(s, Topology::NocOut)),
    },
    Section {
        id: "fig10",
        title: "Fig. 10",
        what: "aggregate app bandwidth vs. transfer size (NOC-Out, async)",
        print: |s| println!("{}", bandwidth_render(s, Topology::NocOut)),
    },
    Section {
        id: "a1",
        title: "Ablation A1",
        what: "routing policy vs. aggregate bandwidth (NI_split, 2KB)",
        print: ablation_routing,
    },
    Section {
        id: "a2",
        title: "Ablation A2",
        what: "NI-cache Owned-state fast path (NI_split, 64B sync reads)",
        print: ablation_nicache,
    },
    Section {
        id: "a3",
        title: "Ablation A3",
        what: "NIedge frontend poll concurrency vs. single-block latency",
        print: ablation_fe_concurrency,
    },
    Section {
        id: "conclusion",
        title: "Conclusion",
        what: "NI placement trade-offs on the mesh (§6)",
        print: conclusion,
    },
    Section {
        id: "rack",
        title: "Rack scale",
        what: "multi-node torus racks, hop-by-hop fabric, lookahead-windowed parallel ticking",
        print: |s| println!("{}", experiments::rack_scale_render(s)),
    },
    Section {
        id: "scenarios",
        title: "Scenario sweep",
        what: "built-in application scenarios on an 8-node rack (throughput, link/RRPP skew)",
        print: |s| println!("{}", experiments::scenario_sweep_render(s)),
    },
];

fn main() {
    let scale = Scale::from_env();
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = wanted.iter().find(|w| SECTIONS.iter().all(|s| s.id != *w)) {
        let ids: Vec<&str> = SECTIONS.iter().map(|s| s.id).collect();
        eprintln!("unknown section `{bad}`; sections: {}", ids.join(" "));
        std::process::exit(2);
    }
    for s in &SECTIONS {
        if wanted.is_empty() || wanted.iter().any(|w| w == s.id) {
            println!("\n=== {}: {} [scale: {scale:?}] ===", s.title, s.what);
            (s.print)(scale);
        }
    }
}

fn latency_render(scale: Scale, topology: Topology) -> String {
    experiments::latency_vs_size_render(scale, topology, &LATENCY_SIZES)
}

fn bandwidth_render(scale: Scale, topology: Topology) -> String {
    experiments::bandwidth_vs_size_render(scale, topology, &BANDWIDTH_SIZES)
}

/// The configuration every other section runs, against the paper's.
fn table2() {
    let c = ChipConfig::default();
    let mut t = Table::new(&["parameter", "value", "paper (Table 2)"]);
    t.row(&[
        "cores",
        "64 (8x8 mesh tiles)",
        "64, ARM Cortex-A15-like, 2GHz",
    ]);
    t.row_owned(vec![
        "LLC banks".into(),
        c.n_banks().to_string(),
        "16MB NUCA, 1 bank/tile".into(),
    ]);
    t.row(&[
        "coherence",
        "directory-based non-inclusive MESI (+NI Owned state)",
        "Directory-based Non-Inclusive MESI",
    ]);
    t.row_owned(vec![
        "memory latency".into(),
        format!("{} cycles", MemConfig::default().latency),
        "50ns (100 cycles @ 2GHz)".into(),
    ]);
    t.row_owned(vec![
        "mesh link / hop".into(),
        format!(
            "{}B links, {} cycles/hop",
            16,
            RouterConfig::default().hop_latency
        ),
        "16B links, 3 cycles/hop".into(),
    ]);
    t.row_owned(vec![
        "NI".into(),
        format!("RGP/RCP/RRPP, {} RRPPs (one per row)", c.n_edge()),
        "3 pipelines, one RRPP per row (8)".into(),
    ]);
    t.row_owned(vec![
        "network hop".into(),
        format!("{HOP_CYCLES} cycles"),
        "fixed 35ns per hop (70 cycles)".into(),
    ]);
    t.row_owned(vec![
        "WQ entries".into(),
        WQ_ENTRIES.to_string(),
        "128 (bandwidth microbenchmark, §5)".into(),
    ]);
    println!("{}", t.render());
}

fn fig5(scale: Scale) {
    println!("{}", experiments::fig5_render(scale));
    // The projection's hop range comes from the rack geometry (§6.1.2).
    let t = Torus3D::new(8, 8, 8);
    println!(
        "torus 8x8x8: {} nodes, avg hops {:.1} (paper: 6), diameter {} (paper: 12)\n",
        t.nodes(),
        t.average_hops(),
        t.max_hops()
    );
}

fn fig7(scale: Scale) {
    println!("{}", bandwidth_render(scale, Topology::Mesh));
    let pts = bandwidth_vs_size(scale, Topology::Mesh, &[2048]);
    let peak = pts[0].gbps[0].max(pts[0].gbps[1]);
    println!(
        "peak (2KB): {:.0} GBps measured vs {:.0} GBps paper; NOC aggregate {:.0} GBps \
         measured vs {:.0} GBps paper ({:.1}x amplification vs {:.1}x)\n",
        peak,
        paper::bandwidth::PEAK_APP_GBPS,
        pts[0].split_noc_gbps,
        paper::bandwidth::NOC_AGGREGATE_GBPS,
        pts[0].split_noc_gbps / pts[0].gbps[1].max(1.0),
        paper::bandwidth::TRAFFIC_AMPLIFICATION,
    );
}

/// §6.2 / §4.3: without CDR the peak any design reaches is less than half
/// (~100GBps) of the ~214GBps the NI-aware CDR variant achieves. 2KB sits
/// on the flat top of Fig. 7.
fn ablation_routing(scale: Scale) {
    let mut t = Table::new(&["routing", "app GBps", "paper note"]);
    for (policy, gbps) in routing_ablation(scale, 2048) {
        let note = match policy {
            RoutingPolicy::CdrNi => "paper's default, peak 214 GBps",
            RoutingPolicy::Cdr => "MC-oriented CDR [1], NI column still hot",
            _ => "\"less than half (~100GBps)\" without CDR",
        };
        t.row_owned(vec![format!("{policy:?}"), f1(gbps), note.into()]);
    }
    println!("{}", t.render());
    println!(
        "paper: no-CDR peak ~{:.0} GBps, CDR peak {:.0} GBps\n",
        paper::bandwidth::NO_CDR_PEAK_GBPS,
        paper::bandwidth::PEAK_APP_GBPS
    );
}

/// §3.4: with the NI cache's Owned state off, every core poll of a freshly
/// written CQ entry pays a writeback round trip through the LLC.
fn ablation_nicache(scale: Scale) {
    let (on, off) = nicache_ablation(scale);
    let mut t = Table::new(&["owned state", "E2E cycles", "delta"]);
    t.row_owned(vec!["enabled (paper §3.4)".into(), f1(on), "-".into()]);
    t.row_owned(vec![
        "disabled".into(),
        f1(off),
        pct((off / on - 1.0) * 100.0),
    ]);
    println!("{}", t.render());
}

/// Extension: an edge frontend that overlaps polls of distinct QPs shows
/// how much of NIedge's latency penalty is scheduling and how much is
/// coherence ping-pong that only moving the frontend (NIsplit) removes.
fn ablation_fe_concurrency(scale: Scale) {
    let ops = match scale {
        Scale::Quick => 8,
        Scale::Full => 50,
    };
    let cfg = |placement| ChipConfig {
        placement,
        ..ChipConfig::default()
    };
    let numa = run_sync_latency(cfg(NiPlacement::Numa), 64, ops);
    let split = run_sync_latency(ChipConfig::default(), 64, ops);
    let rows = par_map(vec![1usize, 2, 4, 8], |k| {
        let mut c = cfg(NiPlacement::Edge);
        c.rmc.fe_poll_concurrency = k;
        (k, run_sync_latency(c, 64, ops))
    });
    let over_numa = |cycles: f64| pct((cycles / numa.mean_cycles - 1.0) * 100.0);
    let mut t = Table::new(&["fe_poll_concurrency", "E2E cycles", "overhead vs NUMA"]);
    for (k, r) in rows {
        t.row_owned(vec![
            k.to_string(),
            f1(r.mean_cycles),
            over_numa(r.mean_cycles),
        ]);
    }
    t.row_owned(vec![
        "NI_split (any)".into(),
        f1(split.mean_cycles),
        over_numa(split.mean_cycles),
    ]);
    println!("{}", t.render());
    println!("Even a fully concurrent edge frontend cannot reach NI_split: the\nremaining gap is the QP blocks ping-ponging across the whole mesh.\n");
}

/// Who wins on latency, who wins on bandwidth: the §6 conclusion matrix.
fn conclusion(scale: Scale) {
    let lat = latency_vs_size(scale, Topology::Mesh, &[64, 16384]);
    let bw = bandwidth_vs_size(scale, Topology::Mesh, &[64, 8192]);
    let names = ["NI_edge", "NI_split", "NI_per-tile"];
    let row = |name: &str, vals: [f64; 3], higher_better: bool| {
        let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
        let best = (1..3).fold(0, |b, i| if better(vals[i], vals[b]) { i } else { b });
        vec![
            name.to_string(),
            f1(vals[0]),
            f1(vals[1]),
            f1(vals[2]),
            names[best].to_string(),
        ]
    };
    let mut t = Table::new(&["metric", "NI_edge", "NI_split", "NI_per-tile", "winner"]);
    t.row_owned(row("64B latency (ns)", lat[0].ns, false));
    t.row_owned(row("16KB latency (ns)", lat[1].ns, false));
    t.row_owned(row("64B bandwidth (GBps)", bw[0].gbps, true));
    t.row_owned(row("8KB bandwidth (GBps)", bw[1].gbps, true));
    println!("{}", t.render());
    println!(
        "NUMA floor: {:.0} cycles. NI_split tracks the per-tile design on latency\n\
         and the edge design on bandwidth — the paper's conclusion reproduced.",
        table3(scale).numa_cycles
    );
}
