//! Graph-processing scenario (§1/§2.1 of the paper), driven by the
//! first-class [`GraphShard`] `Scenario`.
//!
//! Graph analytics over a rack-partitioned graph is the paper's motivating
//! bandwidth-bound workload: poor locality means a large fraction of edge
//! lists live on other nodes, and that fraction grows with rack size. Each
//! out-of-shard vertex expansion is a bulk one-sided read of the neighbor
//! list (2KB–8KB here, Lim et al. [32]). The same scenario object drives
//! the single-chip design comparison and an eight-node rack.
//!
//! ```sh
//! cargo run --release --example graph_shard
//! ```

use rackni::experiments::{run_scenario_point, Scale};
use rackni::ni_engine::parallel::par_map;
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{Chip, ChipConfig, GraphShard};
use rackni::report::{f1, Table};

/// Bytes per edge in the fetched adjacency lists (destination id + weight).
const EDGE_BYTES: f64 = 8.0;

fn main() {
    println!("graph_shard: bulk 2KB..8KB edge-list fetches from remote shards\n");
    let scale = Scale::from_env();
    let chip_cycles = 4 * scale.rack_cycles();
    let designs = [NiPlacement::Edge, NiPlacement::PerTile, NiPlacement::Split];

    let gbps = par_map(designs.to_vec(), move |p| {
        let cfg = ChipConfig {
            placement: p,
            ..ChipConfig::default()
        };
        let mut chip = Chip::with_scenario(cfg, &GraphShard::default());
        chip.run(chip_cycles);
        chip.snapshot().app_gbps(chip_cycles)
    });

    let mut t = Table::new(&["design", "GBps", "edges/s"]);
    for (p, g) in designs.iter().zip(&gbps) {
        // Traversed edges: fetched bytes (one direction) / edge size.
        let edges = g / 2.0 * 1e9 / EDGE_BYTES;
        t.row_owned(vec![
            p.name().to_string(),
            f1(*g),
            format!("{:.1}B", edges / 1e9),
        ]);
    }
    println!(
        "aggregate fetch bandwidth (64 cores async):\n{}",
        t.render()
    );
    println!(
        "NI_per-tile reaches {:.0}% of NI_edge (paper: ~25% at 8KB): unrolling at\n\
         the source tile floods the NOC, so bulk transfers need an edge engine.\n",
        100.0 * gbps[1] / gbps[0].max(1e-9)
    );

    // Rack: the same scenario on the sweep's canonical 8-node rack, shards
    // scattered across the torus.
    let pt = run_scenario_point(&GraphShard::default(), scale.rack_cycles());
    println!(
        "8-node rack ({} scenario): {} fetches, {} GBps aggregate NI, {} fabric hops",
        pt.name,
        pt.snapshot.cores.completed,
        f1(pt.snapshot.app_gbps(pt.cycles)),
        pt.snapshot.hops
    );
}
