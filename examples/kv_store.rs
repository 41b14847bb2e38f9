//! Distributed key-value store scenario (§2.1 of the paper), driven by the
//! first-class [`KvStore`] `Scenario`.
//!
//! Most key-value stores operate on objects between 16 and 512 bytes
//! (Atikoglu et al. [5]; Facebook's Memcached pools average ~500B). A GET
//! against a remote shard is one one-sided remote read of the value, a PUT
//! one one-sided write. The same scenario object drives both evaluation
//! paths:
//!
//! * single chip behind the paper's rack emulator — per-GET latency and
//!   aggregate GET/PUT throughput per NI design, over the full object mix;
//! * an eight-node 2x2x2 rack of fully simulated chips — rack-wide store
//!   throughput with real cross-node traffic.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use rackni::experiments::{run_scenario_point, Scale};
use rackni::ni_engine::parallel::par_map;
use rackni::ni_engine::{Frequency, Histogram};
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{Chip, ChipConfig, KvStore};
use rackni::report::{f1, Table};

fn cfg(p: NiPlacement) -> ChipConfig {
    ChipConfig {
        placement: p,
        ..ChipConfig::default()
    }
}

fn main() {
    println!("kv_store: GET/PUT mix over one-sided ops, objects 64B..512B (95% GET)\n");
    let scale = Scale::from_env();
    let chip_cycles = 4 * scale.rack_cycles();
    let designs = [NiPlacement::Edge, NiPlacement::PerTile, NiPlacement::Split];

    // Latency: one core issuing synchronous GET/PUTs over the object mix.
    let lat_runs = par_map(designs.to_vec(), move |p| {
        let mut c = cfg(p);
        c.active_cores = 1;
        let mut chip = Chip::with_scenario(c, &KvStore::default().synchronous());
        chip.run(chip_cycles);
        // Synchronous latency over the whole GET/PUT mix, not just reads.
        let mut sync = Histogram::new();
        for core in &chip.cores {
            sync.merge(core.latency_histogram());
        }
        (chip.snapshot().cores.completed, sync)
    });
    let mut t = Table::new(&["design", "ops", "mix mean (ns)", "p99 (ns)"]);
    for (p, (ops, sync)) in designs.iter().zip(&lat_runs) {
        t.row_owned(vec![
            p.name().to_string(),
            ops.to_string(),
            f1(sync.stats().mean() * Frequency::GHZ2.nanos_per_cycle()),
            f1(sync.percentile(0.99) as f64 * 0.5),
        ]);
    }
    println!(
        "unloaded request latency over the object mix:\n{}",
        t.render()
    );

    // Throughput: all 64 cores streaming the async GET/PUT mix.
    let thr_runs = par_map(designs.to_vec(), move |p| {
        let mut chip = Chip::with_scenario(cfg(p), &KvStore::default());
        chip.run(chip_cycles);
        chip.snapshot()
    });
    let mut t = Table::new(&["design", "GBps", "requests/s"]);
    for (p, s) in designs.iter().zip(&thr_runs) {
        let per_sec = s.cores.completed as f64 / chip_cycles as f64 * 2e9;
        t.row_owned(vec![
            p.name().into(),
            f1(s.app_gbps(chip_cycles)),
            format!("{:.1}M", per_sec / 1e6),
        ]);
    }
    println!("loaded throughput (64 cores async):\n{}", t.render());

    // Rack: the same scenario object on the sweep's canonical 8-node rack.
    let pt = run_scenario_point(&KvStore::default(), scale.rack_cycles());
    println!(
        "8-node rack ({} scenario): {} requests served, {} GBps aggregate NI, peak link {} GBps",
        pt.name,
        pt.snapshot.cores.completed,
        f1(pt.snapshot.app_gbps(pt.cycles)),
        f1(pt.peak_link_gbps)
    );
    println!("\nNI_split keeps per-tile GET latency while matching edge throughput —");
    println!("for small objects, QP placement (not link speed) decides the tail.");
}
