//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function returns structured data and can render a paper-style
//! table; the `paper` example (`examples/paper.rs`) prints
//! paper-vs-measured side by side.
//! Experiment scale (operations per point, window sizes) accepts a
//! [`Scale`] so CI runs stay fast while full runs match the paper's
//! methodology.

use ni_engine::parallel::par_map;
use ni_fabric::{Dir, FaultPlan, ReplicaCfg, RoutingKind, Torus3D, HOP_CYCLES};
use ni_metrics::{interference_index, SloSummary};
use ni_noc::RoutingPolicy;
use ni_rmc::NiPlacement;
use ni_soc::bench::{run_bandwidth, run_sync_latency, stage_breakdown, StageBreakdown};
use ni_soc::{
    builtin_scenarios, Bursty, Capped, Chip, ChipConfig, ClosedLoop, GraphShard, KvStore, Rack,
    RackSimConfig, Scenario, Snapshot, Synthetic, TenantMix, TickMode, Topology, TrafficPattern,
    Workload, ZipfHotspot,
};

use crate::paper;
use crate::report::{f1, pct, JsonRow, Table};

/// Experiment scale: trade fidelity for wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few operations / short windows (tests, smoke runs).
    Quick,
    /// The paper's methodology (§5): more samples, windowed convergence.
    Full,
}

impl Scale {
    /// Read `RACKNI_SCALE=full|quick` from the environment (default quick).
    ///
    /// # Panics
    /// Panics when `RACKNI_SCALE` is set to anything else.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("RACKNI_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref())
    }

    /// The scale a `RACKNI_SCALE` value names; unset means quick.
    fn parse(value: Option<&str>) -> Scale {
        match value {
            None | Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            Some(v) => panic!("RACKNI_SCALE={v:?}: expected quick or full"),
        }
    }

    fn latency_ops(self) -> u64 {
        match self {
            Scale::Quick => 8,
            Scale::Full => 100,
        }
    }

    fn bw_window(self) -> u64 {
        match self {
            Scale::Quick => 50_000,
            Scale::Full => 200_000,
        }
    }

    fn bw_max_windows(self) -> u32 {
        match self {
            Scale::Quick => 6,
            Scale::Full => 12,
        }
    }

    /// Simulation horizon for one multi-node rack run at this scale.
    pub fn rack_cycles(self) -> u64 {
        match self {
            Scale::Quick => 15_000,
            Scale::Full => 60_000,
        }
    }
}

/// A torus's dimensions as written in tables and BENCH rows (`4x4x4`).
fn dims_label((x, y, z): (u16, u16, u16)) -> String {
    format!("{x}x{y}x{z}")
}

fn cfg_for(placement: NiPlacement, topology: Topology) -> ChipConfig {
    ChipConfig {
        placement,
        topology,
        ..ChipConfig::default()
    }
}

/// Measured end-to-end single-block latency for one design.
#[derive(Clone, Copy, Debug)]
pub struct DesignLatency {
    /// NI design.
    pub placement: NiPlacement,
    /// Measured mean end-to-end cycles.
    pub cycles: f64,
    /// Paper's Table 3 total for the same design.
    pub paper_cycles: u64,
}

/// Table 1: QP-based model (NIedge) vs the NUMA load/store baseline for a
/// single-block remote read at one network hop.
pub fn table1(scale: Scale) -> (DesignLatency, DesignLatency) {
    let ops = scale.latency_ops();
    let mut runs = par_map(vec![NiPlacement::Edge, NiPlacement::Numa], |p| {
        run_sync_latency(cfg_for(p, Topology::Mesh), 64, ops)
    });
    let numa = runs.pop().expect("two runs");
    let edge = runs.pop().expect("two runs");
    (
        DesignLatency {
            placement: NiPlacement::Edge,
            cycles: edge.mean_cycles,
            paper_cycles: paper::table3_edge::TOTAL,
        },
        DesignLatency {
            placement: NiPlacement::Numa,
            cycles: numa.mean_cycles,
            paper_cycles: paper::table3_numa::TOTAL,
        },
    )
}

/// Render Table 1.
pub fn table1_render(scale: Scale) -> String {
    let (edge, numa) = table1(scale);
    let mut t = Table::new(&[
        "model",
        "measured (cycles)",
        "paper (cycles)",
        "measured overhead",
        "paper overhead",
    ]);
    let oh = (edge.cycles / numa.cycles - 1.0) * 100.0;
    t.row_owned(vec![
        "QP-based (NI_edge)".into(),
        f1(edge.cycles),
        edge.paper_cycles.to_string(),
        pct(oh),
        pct(paper::overheads::EDGE_1HOP_PCT),
    ]);
    t.row_owned(vec![
        "NUMA (load/store)".into(),
        f1(numa.cycles),
        numa.paper_cycles.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.render()
}

/// Table 3: zero-load latency breakdown for all three NI designs plus the
/// measured NUMA baseline.
pub struct Table3 {
    /// Per-design stage tomography.
    pub breakdowns: Vec<(NiPlacement, StageBreakdown)>,
    /// Measured NUMA end-to-end cycles.
    pub numa_cycles: f64,
}

/// Run Table 3.
pub fn table3(scale: Scale) -> Table3 {
    let ops = scale.latency_ops();
    let breakdowns = par_map(NiPlacement::QP_DESIGNS.to_vec(), |p| {
        (p, stage_breakdown(cfg_for(p, Topology::Mesh), ops))
    });
    let numa = run_sync_latency(cfg_for(NiPlacement::Numa, Topology::Mesh), 64, ops);
    Table3 {
        breakdowns,
        numa_cycles: numa.mean_cycles,
    }
}

/// Render Table 3 with the paper's totals alongside.
pub fn table3_render(scale: Scale) -> String {
    let t3 = table3(scale);
    let mut t = Table::new(&[
        "design",
        "WQ write",
        "WQ read+RGP",
        "to edge",
        "net+remote",
        "RCP+CQ write",
        "CQ read",
        "total",
        "paper total",
        "overhead/NUMA",
        "paper overhead",
    ]);
    for (p, b) in &t3.breakdowns {
        let paper_total = match p {
            NiPlacement::Edge => paper::table3_edge::TOTAL,
            NiPlacement::PerTile => paper::table3_per_tile::TOTAL,
            NiPlacement::Split => paper::table3_split::TOTAL,
            NiPlacement::Numa => paper::table3_numa::TOTAL,
        };
        let paper_oh = match p {
            NiPlacement::Edge => paper::overheads::EDGE_1HOP_PCT,
            NiPlacement::PerTile => paper::overheads::PER_TILE_1HOP_PCT,
            _ => paper::overheads::SPLIT_1HOP_PCT,
        };
        t.row_owned(vec![
            p.name().into(),
            f1(b.wq_write),
            f1(b.wq_read_and_rgp),
            f1(b.fe_to_net),
            f1(b.net_round_trip),
            f1(b.rcp_and_cq_write),
            f1(b.cq_read),
            f1(b.total),
            paper_total.to_string(),
            pct((b.total / t3.numa_cycles - 1.0) * 100.0),
            pct(paper_oh),
        ]);
    }
    t.row_owned(vec![
        "NUMA".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        f1(t3.numa_cycles),
        paper::table3_numa::TOTAL.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.render()
}

/// One point of the Fig. 5 hop-count projection.
#[derive(Clone, Copy, Debug)]
pub struct HopPoint {
    /// Network hops each way.
    pub hops: u32,
    /// NUMA end-to-end nanoseconds.
    pub numa_ns: f64,
    /// NIsplit end-to-end nanoseconds.
    pub split_ns: f64,
    /// NIedge end-to-end nanoseconds.
    pub edge_ns: f64,
    /// NIsplit overhead over NUMA.
    pub split_pct: f64,
    /// NIedge overhead over NUMA.
    pub edge_pct: f64,
}

/// Fig. 5: project the measured 1-hop breakdowns across 0..=12 hops, the
/// paper's §6.1.2 methodology (add [`HOP_CYCLES`] per hop per direction,
/// the hop latency the measured runs paid).
pub fn fig5(scale: Scale) -> Vec<HopPoint> {
    let ops = scale.latency_ops();
    let mut runs = par_map(
        vec![NiPlacement::Edge, NiPlacement::Split, NiPlacement::Numa],
        |p| run_sync_latency(cfg_for(p, Topology::Mesh), 64, ops),
    );
    let numa = runs.pop().expect("three runs");
    let split = runs.pop().expect("three runs");
    let edge = runs.pop().expect("three runs");
    let hop_cycles = HOP_CYCLES as f64;
    let base = 2.0 * hop_cycles; // measured runs used one hop each way
    let to_ns = 0.5;
    (0..=12)
        .map(|h| {
            let extra = 2.0 * hop_cycles * h as f64 - base;
            let e = edge.mean_cycles + extra;
            let s = split.mean_cycles + extra;
            let n = numa.mean_cycles + extra;
            HopPoint {
                hops: h,
                numa_ns: n * to_ns,
                split_ns: s * to_ns,
                edge_ns: e * to_ns,
                split_pct: (s / n - 1.0) * 100.0,
                edge_pct: (e / n - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Render Fig. 5 as a table, with the paper's quoted overheads at 6/12 hops.
pub fn fig5_render(scale: Scale) -> String {
    let pts = fig5(scale);
    let mut t = Table::new(&[
        "hops",
        "NUMA (ns)",
        "NI_split (ns)",
        "NI_edge (ns)",
        "split oh",
        "edge oh",
        "paper split oh",
        "paper edge oh",
    ]);
    for p in &pts {
        let (ps, pe) = match p.hops {
            1 => (
                pct(paper::overheads::SPLIT_1HOP_PCT),
                pct(paper::overheads::EDGE_1HOP_PCT),
            ),
            6 => (
                pct(paper::overheads::SPLIT_6HOP_PCT),
                pct(paper::overheads::EDGE_6HOP_PCT),
            ),
            12 => (
                pct(paper::overheads::SPLIT_12HOP_PCT),
                pct(paper::overheads::EDGE_12HOP_PCT),
            ),
            _ => ("-".into(), "-".into()),
        };
        t.row_owned(vec![
            p.hops.to_string(),
            f1(p.numa_ns),
            f1(p.split_ns),
            f1(p.edge_ns),
            pct(p.split_pct),
            pct(p.edge_pct),
            ps,
            pe,
        ]);
    }
    t.render()
}

/// One latency-vs-size series point (Figs. 6 and 9).
#[derive(Clone, Copy, Debug)]
pub struct SizeLatency {
    /// Transfer size in bytes.
    pub size: u64,
    /// Mean latency (ns) per design, ordered as [edge, split, per-tile].
    pub ns: [f64; 3],
    /// NUMA projection (ns): NIsplit minus the measured QP overhead.
    pub numa_proj_ns: f64,
}

/// Figs. 6/9: synchronous remote-read latency across transfer sizes.
pub fn latency_vs_size(scale: Scale, topology: Topology, sizes: &[u64]) -> Vec<SizeLatency> {
    let ops = scale.latency_ops().min(20);
    let numa64 = run_sync_latency(cfg_for(NiPlacement::Numa, topology), 64, ops);
    // NUMA projection baseline (§6.1.3's method): the QP-interaction
    // overhead is the gap between NIsplit and NUMA on a single-block read;
    // an ideal NUMA machine at any size is NIsplit minus that constant.
    let split64 = run_sync_latency(cfg_for(NiPlacement::Split, topology), 64, ops);
    let qp_overhead64 = (split64.mean_cycles - numa64.mean_cycles).max(0.0);
    let designs = [NiPlacement::Edge, NiPlacement::Split, NiPlacement::PerTile];
    let grid: Vec<(u64, NiPlacement)> = sizes
        .iter()
        .flat_map(|&s| designs.iter().map(move |&p| (s, p)))
        .collect();
    let runs = par_map(grid, |(size, p)| {
        run_sync_latency(cfg_for(p, topology), size, ops)
    });
    let mut out = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let mut ns = [0.0; 3];
        let mut split_cycles = 0.0;
        for (di, _) in designs.iter().enumerate() {
            let r = &runs[si * designs.len() + di];
            ns[di] = r.mean_ns;
            if designs[di] == NiPlacement::Split {
                split_cycles = r.mean_cycles;
            }
        }
        let numa_proj = (split_cycles - qp_overhead64).max(numa64.mean_cycles);
        out.push(SizeLatency {
            size,
            ns,
            numa_proj_ns: numa_proj * 0.5,
        });
    }
    out
}

/// Render Fig. 6 (mesh) or Fig. 9 (NOC-Out).
pub fn latency_vs_size_render(scale: Scale, topology: Topology, sizes: &[u64]) -> String {
    let pts = latency_vs_size(scale, topology, sizes);
    let mut t = Table::new(&[
        "size (B)",
        "NI_edge (ns)",
        "NI_split (ns)",
        "NI_per-tile (ns)",
        "NUMA proj (ns)",
    ]);
    for p in &pts {
        t.row_owned(vec![
            p.size.to_string(),
            f1(p.ns[0]),
            f1(p.ns[1]),
            f1(p.ns[2]),
            f1(p.numa_proj_ns),
        ]);
    }
    t.render()
}

/// One bandwidth-vs-size series point (Figs. 7 and 10).
#[derive(Clone, Copy, Debug)]
pub struct SizeBandwidth {
    /// Transfer size in bytes.
    pub size: u64,
    /// Aggregate application GBps per design [edge, split, per-tile].
    pub gbps: [f64; 3],
    /// Aggregate NOC GBps of the NIsplit run.
    pub split_noc_gbps: f64,
}

/// Figs. 7/10: aggregate application bandwidth, all 64 cores asynchronous.
pub fn bandwidth_vs_size(scale: Scale, topology: Topology, sizes: &[u64]) -> Vec<SizeBandwidth> {
    bandwidth_vs_size_with(scale, topology, RoutingPolicy::CdrNi, sizes)
}

/// As [`bandwidth_vs_size`] with an explicit routing policy (ablation A1).
pub fn bandwidth_vs_size_with(
    scale: Scale,
    topology: Topology,
    routing: RoutingPolicy,
    sizes: &[u64],
) -> Vec<SizeBandwidth> {
    let designs = [NiPlacement::Edge, NiPlacement::Split, NiPlacement::PerTile];
    let grid: Vec<(u64, NiPlacement)> = sizes
        .iter()
        .flat_map(|&s| designs.iter().map(move |&p| (s, p)))
        .collect();
    let runs = par_map(grid, |(size, p)| {
        let mut c = cfg_for(p, topology);
        c.routing = routing;
        run_bandwidth(c, size, scale.bw_window(), scale.bw_max_windows())
    });
    sizes
        .iter()
        .enumerate()
        .map(|(si, &size)| {
            let at = |di: usize| &runs[si * designs.len() + di];
            SizeBandwidth {
                size,
                gbps: [at(0).app_gbps, at(1).app_gbps, at(2).app_gbps],
                split_noc_gbps: at(1).noc_gbps,
            }
        })
        .collect()
}

/// Render Fig. 7 (mesh) or Fig. 10 (NOC-Out).
pub fn bandwidth_vs_size_render(scale: Scale, topology: Topology, sizes: &[u64]) -> String {
    let pts = bandwidth_vs_size(scale, topology, sizes);
    let mut t = Table::new(&[
        "size (B)",
        "NI_edge (GBps)",
        "NI_split (GBps)",
        "NI_per-tile (GBps)",
        "split NOC traffic (GBps)",
    ]);
    for p in &pts {
        t.row_owned(vec![
            p.size.to_string(),
            f1(p.gbps[0]),
            f1(p.gbps[1]),
            f1(p.gbps[2]),
            f1(p.split_noc_gbps),
        ]);
    }
    t.render()
}

/// Routing-policy ablation (§6.2: without CDR, peak bandwidth halves).
pub fn routing_ablation(scale: Scale, size: u64) -> Vec<(RoutingPolicy, f64)> {
    par_map(RoutingPolicy::ALL.to_vec(), |r| {
        let mut c = cfg_for(NiPlacement::Split, Topology::Mesh);
        c.routing = r;
        let b = run_bandwidth(c, size, scale.bw_window(), scale.bw_max_windows());
        (r, b.app_gbps)
    })
}

/// NI-cache Owned-state ablation (§3.4): with the optimization off, every
/// core poll of a dirty CQ block costs a writeback round trip.
pub fn nicache_ablation(scale: Scale) -> (f64, f64) {
    let ops = scale.latency_ops();
    let mut runs = par_map(vec![true, false], |owned| {
        let mut c = cfg_for(NiPlacement::Split, Topology::Mesh);
        c.coherence.ni_owned_state = owned;
        run_sync_latency(c, 64, ops)
    });
    let off = runs.pop().expect("two runs");
    let on = runs.pop().expect("two runs");
    (on.mean_cycles, off.mean_cycles)
}

/// One point of the multi-node rack-scale sweep.
#[derive(Clone, Debug)]
pub struct RackScalePoint {
    /// Torus dimensions.
    pub dims: (u16, u16, u16),
    /// Node count.
    pub nodes: u32,
    /// Busiest directed link's peak bandwidth, GB/s.
    pub peak_link_gbps: f64,
    /// Mean hops per fabric packet (requests + responses).
    pub mean_hops: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// The rack's counters at the end of the run.
    pub snapshot: Snapshot,
}

fn rack_dims(scale: Scale) -> Vec<(u16, u16, u16)> {
    match scale {
        Scale::Quick => vec![(2, 1, 1), (2, 2, 1), (2, 2, 2)],
        // The paper's rack is the 8x8x8 512-node torus (§1); the full sweep
        // walks up to it.
        Scale::Full => vec![(2, 2, 2), (3, 3, 3), (4, 4, 4), (8, 8, 8)],
    }
}

/// Simulation horizon for one sweep point: the scale's rack horizon, except
/// the 512-node full-scale point which is pinned to a 50k-cycle horizon
/// (long enough for thousands of completed round trips, short enough to
/// finish in minutes at interactive throughput).
fn rack_point_cycles(scale: Scale, dims: (u16, u16, u16)) -> u64 {
    let nodes = u64::from(dims.0) * u64::from(dims.1) * u64::from(dims.2);
    if scale == Scale::Full && nodes >= 512 {
        50_000
    } else {
        scale.rack_cycles()
    }
}

/// The sweep's canonical rack for one dims point, run for `cycles`. Both
/// the summary rows and the per-link detail table come through here, so
/// they always describe the same experiment.
///
/// Chips use the paper's NIedge placement: it is the design the paper
/// scales to the full rack, and its edge-resident frontends make a 512-node
/// fully simulated sweep tractable (per-tile frontends cost ~4x the
/// per-chip tick time for identical fabric behavior).
/// Build (without running) the sweep's canonical rack for one dims point:
/// NIedge chips, four requesting cores per node, 512B async reads. This is
/// the single source of truth for the rack-throughput baseline — the
/// `rack_scale` sweep, its render, and the `simperf` bench's
/// `uniform_async_*` points (the `BENCH_simperf.json` trajectory) all
/// construct their racks here, so they always measure the same experiment.
/// `threads` is the compute-phase worker count (0 = auto, 1 = serial).
pub fn build_rack_point(dims: (u16, u16, u16), traffic: TrafficPattern, threads: usize) -> Rack {
    let cfg = RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip: ChipConfig {
            // Four requesting cores per node keeps multi-rack sweeps
            // tractable while still loading every link class.
            active_cores: 4,
            placement: NiPlacement::Edge,
            ..ChipConfig::default()
        },
        threads,
        ..RackSimConfig::default()
    };
    let reads = Synthetic::from_workload(Workload::AsyncRead {
        size: 512,
        poll_every: 4,
    })
    .with_pattern(traffic);
    Rack::with_scenario(cfg, &reads)
}

/// Build the *idle-heavy* variant of a rack point: NIedge chips where one
/// core per node runs a stencil-like nearest-neighbour exchange — 2-op
/// bursts of 64B async reads against the [`TrafficPattern::Neighbor`]
/// node, separated by 10,000 declared idle cycles of "compute"
/// ([`Bursty`]) — with the RMC frontends backing their WQ poll loop off to
/// a 512-cycle cadence instead of spinning.
///
/// The shape is deliberate on two counts. Neighbour traffic keeps the
/// arrival spread at one hop, so a node's serving role finishes quickly
/// and the declared idle window is *actually* idle at every rack size
/// (uniform traffic at 512+ nodes smears arrivals across a multi-thousand
/// cycle hop spread, leaving no per-node quiet time at all). And the
/// 10k-cycle think window dwarfs the ~1.5k-cycle burst-plus-drain tail
/// (small 64B payloads keep the landing to one cache block), so most
/// simulated cycles touch no component — the regime the event-driven chip
/// tick's dormant fast path and the rack's merge/collect skips are built
/// for. `tick_mode` selects the chip ticking strategy so benchmarks can
/// measure poll and event head-to-head on a bit-identical workload.
pub fn build_idle_rack_point(dims: (u16, u16, u16), threads: usize, tick_mode: TickMode) -> Rack {
    let mut chip = ChipConfig {
        active_cores: 1,
        placement: NiPlacement::Edge,
        tick_mode,
        ..ChipConfig::default()
    };
    // The frontends poll their WQs on a 512-cycle cadence (edge placement
    // assigns every row's QPs to its frontend, so all edge frontends poll
    // regardless of how many cores issue work). The event tick would park
    // a quiet loop at any backoff; the cadence stays because it defines
    // the workload that perfbench's `rack-idle` and `simperf`'s
    // idle-heavy baselines measure, identically under both tick modes.
    chip.rmc.poll_backoff = 512;
    let cfg = RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip,
        threads,
        ..RackSimConfig::default()
    };
    let scenario = Bursty::new(
        Box::new(
            Synthetic::from_workload(Workload::AsyncRead {
                size: 64,
                poll_every: 2,
            })
            .with_pattern(TrafficPattern::Neighbor),
        ),
        2,
        10_000,
    );
    Rack::with_scenario(cfg, &scenario)
}

fn run_rack_point(dims: (u16, u16, u16), traffic: TrafficPattern, cycles: u64) -> Rack {
    let mut rack = build_rack_point(dims, traffic, 0);
    rack.run(cycles);
    rack
}

fn measure_rack_point(
    dims: (u16, u16, u16),
    traffic: TrafficPattern,
    cycles: u64,
) -> RackScalePoint {
    let torus = Torus3D::new(dims.0, dims.1, dims.2);
    let rack = run_rack_point(dims, traffic, cycles);
    let s = rack.snapshot();
    // Packets that finished their journey (in-flight ones still hold
    // un-attributed hops; negligible over a full run).
    let packets = s.fabric.incoming_generated.get() + s.fabric.responded.get();
    RackScalePoint {
        dims,
        nodes: torus.nodes(),
        peak_link_gbps: rack.peak_link_gbps(),
        mean_hops: if packets == 0 {
            0.0
        } else {
            s.hops as f64 / packets as f64
        },
        cycles,
        snapshot: s,
    }
}

/// Multi-node rack-scale sweep: racks of growing torus dimensions — up to
/// the paper's 512-node 8x8x8 at [`Scale::Full`] — every node a fully
/// simulated chip, traffic crossing the fabric hop-by-hop. This is the
/// experiment the paper's single-node methodology (§5) cannot express —
/// cross-node flows, per-link load, and scaling with rack size.
///
/// Points run *sequentially*; each rack parallelizes internally across the
/// compute-phase worker threads.
pub fn rack_scale(scale: Scale, traffic: TrafficPattern) -> Vec<RackScalePoint> {
    rack_dims(scale)
        .into_iter()
        .map(|dims| measure_rack_point(dims, traffic, rack_point_cycles(scale, dims)))
        .collect()
}

/// Render the rack-scale sweep, plus a per-directed-link detail table for
/// a canonical 2x2x2 rack (the link-level rerun is capped there so
/// rendering stays cheap even when the sweep itself went to 512 nodes).
pub fn rack_scale_render(scale: Scale) -> String {
    let pts = rack_scale(scale, TrafficPattern::Uniform);
    let mut t = Table::new(&[
        "torus",
        "nodes",
        "ops",
        "agg NI GBps (per-node sum)",
        "peak link (GBps)",
        "hops",
        "mean hops/pkt",
    ]);
    for p in &pts {
        t.row_owned(vec![
            dims_label(p.dims),
            p.nodes.to_string(),
            p.snapshot.cores.completed.to_string(),
            f1(p.snapshot.app_gbps(p.cycles)),
            f1(p.peak_link_gbps),
            p.snapshot.hops.to_string(),
            f1(p.mean_hops),
        ]);
    }
    let mut out = t.render();

    // Per-directed-link detail for the largest *quick-sized* rack — the
    // congestion-study raw material. Rerun through the same
    // `run_rack_point` config as the summary rows (determinism makes the
    // rerun bit-identical); capped at 2x2x2 so rendering stays cheap even
    // at full scale.
    let (x, y, z) = (2, 2, 2);
    let rack = run_rack_point(
        (x, y, z),
        TrafficPattern::Uniform,
        rack_point_cycles(scale, (x, y, z)),
    );
    let mut links = rack.link_report();
    links.sort_by(|a, b| b.peak_gbps.total_cmp(&a.peak_gbps));
    let mut lt = Table::new(&["link", "packets", "bytes", "busy cycles", "peak GBps"]);
    for l in links.iter().take(8) {
        lt.row_owned(vec![
            format!("n{} {}", l.node, l.dir),
            l.packets.to_string(),
            l.bytes.to_string(),
            l.busy_cycles.to_string(),
            f1(l.peak_gbps),
        ]);
    }
    out.push_str(&format!("\nbusiest directed links, {x}x{y}x{z} rack:\n"));
    out.push_str(&lt.render());
    out
}

/// One row of the scenario sweep: a built-in [`Scenario`] run on a full
/// multi-node rack.
#[derive(Clone, Debug)]
pub struct ScenarioPoint {
    /// Scenario name.
    pub name: String,
    /// Busiest directed link's peak bandwidth, GB/s.
    pub peak_link_gbps: f64,
    /// Per-link load imbalance: busiest link's total bytes over the mean of
    /// all loaded links (1.0 = perfectly balanced; hotspot scenarios are
    /// far above the uniform baseline).
    pub link_skew: f64,
    /// RRPP queueing imbalance: hottest node's mean RRPP service latency
    /// over the rack-wide mean (1.0 = balanced).
    pub rrpp_skew: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// The rack's counters at the end of the run.
    pub snapshot: Snapshot,
}

fn rrpp_latency_skew(rack: &Rack) -> f64 {
    let lats: Vec<f64> = rack
        .chips()
        .iter()
        .map(Chip::rrpp_mean_latency)
        .filter(|&l| l > 0.0)
        .collect();
    if lats.is_empty() {
        return 1.0;
    }
    let max = lats.iter().fold(0.0f64, |a, &b| a.max(b));
    let mean = lats.iter().sum::<f64>() / lats.len() as f64;
    max / mean.max(1.0)
}

/// Run one scenario on the sweep's canonical 8-node rack and measure it.
pub fn run_scenario_point(scenario: &dyn Scenario, cycles: u64) -> ScenarioPoint {
    let cfg = RackSimConfig {
        torus: Torus3D::new(2, 2, 2),
        chip: ChipConfig {
            active_cores: 4,
            ..ChipConfig::default()
        },
        // The scenario sweep already saturates the host via `par_map` over
        // points; nesting the rack's own worker pool inside it would
        // oversubscribe every core and add handoff churn for nothing.
        threads: 1,
        ..RackSimConfig::default()
    };
    let mut rack = Rack::with_scenario(cfg, scenario);
    rack.run(cycles);
    ScenarioPoint {
        name: rack.scenario_name().to_string(),
        peak_link_gbps: rack.peak_link_gbps(),
        link_skew: rack.link_byte_skew(),
        rrpp_skew: rrpp_latency_skew(&rack),
        cycles,
        snapshot: rack.snapshot(),
    }
}

/// Scenario sweep: every built-in [`Scenario`] on an 8-node (2x2x2) rack of
/// fully simulated chips. The experiment the closed `Workload` enum could
/// not express: application traffic — synthetic streams, Zipf hotspots,
/// key-value GET/PUT mixes, bulk graph fetches — through one trait, with
/// per-link and per-RRPP skew measured against the paper's balanced
/// assumption.
pub fn scenario_sweep(scale: Scale) -> Vec<ScenarioPoint> {
    let cycles = scale.rack_cycles();
    let scenarios = builtin_scenarios();
    par_map(scenarios, move |s| run_scenario_point(s.as_ref(), cycles))
}

/// Render the scenario sweep.
pub fn scenario_sweep_render(scale: Scale) -> String {
    let pts = scenario_sweep(scale);
    let mut t = Table::new(&[
        "scenario",
        "ops",
        "agg NI GBps (per-node sum)",
        "peak link (GBps)",
        "link skew",
        "RRPP skew",
        "hops",
    ]);
    for p in &pts {
        t.row_owned(vec![
            p.name.clone(),
            p.snapshot.cores.completed.to_string(),
            f1(p.snapshot.app_gbps(p.cycles)),
            f1(p.peak_link_gbps),
            format!("{:.2}x", p.link_skew),
            format!("{:.2}x", p.rrpp_skew),
            p.snapshot.hops.to_string(),
        ]);
    }
    t.render()
}

// ---- capped-job studies: routing, failure, availability ----------------------

/// A scenario constructor: a cell builds its own prototype because
/// scenarios are not `Clone`.
pub type ScenarioFactory = fn() -> Box<dyn Scenario>;

/// 512 B asynchronous reads sent where `pattern` says.
fn reads(pattern: TrafficPattern) -> Box<dyn Scenario> {
    Box::new(
        Synthetic::from_workload(Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        })
        .with_pattern(pattern),
    )
}

/// Placement seed every availability cell derives its [`ReplicaCfg`] from.
const REPLICA_SEED: u64 = 0x5eed_ab1e;

/// Which failure schedule one cell injects mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCase {
    /// Healthy fabric — the baseline every degraded cell is read against.
    None,
    /// Kill the undirected link between the Zipf hot node (node 0) and its
    /// `+x` neighbor: the busiest kill a single link can be under hotspot
    /// traffic, and a routable-around fault (the torus stays connected).
    LinkKill,
    /// Kill node 0 (the Zipf hot node) outright and never repair it: its
    /// traffic — sourced, relayed, and addressed — is erased, so every op
    /// targeting it finishes through the ITT's error completion or a
    /// replica. The single-permanent-failure case the zero-lost-reads
    /// claim is made on.
    NodeKill,
    /// A rolling fault storm: two waves of one random node kill each,
    /// every kill repaired before the run ends — the churn case where
    /// repair-aware re-balancing (new ops always restart at the primary)
    /// matters.
    Storm,
}

impl FaultCase {
    /// Stable label for tables and JSON (`"none"`, `"link-kill"`,
    /// `"node-kill"`, `"storm"`).
    pub fn label(self) -> &'static str {
        match self {
            FaultCase::None => "none",
            FaultCase::LinkKill => "link-kill",
            FaultCase::NodeKill => "node-kill",
            FaultCase::Storm => "storm",
        }
    }

    /// The canonical [`FaultPlan`] of this case on `torus`, its first
    /// fault firing at `params.kill_at`. The link kill targets node 0's
    /// first real neighbor in dimension order (`+x` on any torus wider
    /// than one in x; degenerate 1-wide dimensions are skipped rather than
    /// producing a self-link). On a 1×1×1 "torus" — a single node with no
    /// links — a [`FaultCase::LinkKill`] degrades to the empty plan (there
    /// is nothing to kill, and a healthy run is the honest result) instead
    /// of panicking.
    pub fn plan(self, torus: Torus3D, params: FailureParams) -> FaultPlan {
        let at = params.kill_at;
        match self {
            FaultCase::None => FaultPlan::new(),
            FaultCase::LinkKill => {
                match Dir::ALL
                    .iter()
                    .map(|&d| torus.neighbor(0, d))
                    .find(|&n| n != 0)
                {
                    Some(neighbor) => FaultPlan::new().link_down(0, neighbor, at),
                    None => FaultPlan::new(),
                }
            }
            FaultCase::NodeKill => FaultPlan::new().node_down(0, at),
            FaultCase::Storm => {
                let t = params.itt_timeout;
                FaultPlan::fault_storm(torus, REPLICA_SEED, 2, 1, at, t * 4, t * 2)
            }
        }
    }
}

/// Failure-sweep knobs at one [`Scale`]: per-core op budget, fault firing
/// cycle, ITT watchdog, and run horizon.
#[derive(Clone, Copy, Debug)]
pub struct FailureParams {
    /// Ops per active core of the capped job.
    pub ops_per_core: u64,
    /// Cycle the fault fires (mid-run: after warmup, before the healthy
    /// job would complete).
    pub kill_at: u64,
    /// [`RmcConfig::itt_timeout`](ni_rmc::RmcConfig::itt_timeout) for
    /// every node — comfortably above the worst healthy round trip so
    /// only genuinely erased traffic trips it.
    pub itt_timeout: u64,
    /// Retry budget per transfer before the error completion.
    pub itt_retries: u32,
    /// Hard cycle cap per cell.
    pub horizon: u64,
}

impl FailureParams {
    /// The sweep's canonical parameters at `scale`.
    pub fn at(scale: Scale) -> FailureParams {
        match scale {
            Scale::Quick => FailureParams {
                ops_per_core: 8,
                kill_at: 800,
                itt_timeout: 4_000,
                itt_retries: 1,
                horizon: 60_000,
            },
            Scale::Full => FailureParams {
                ops_per_core: 24,
                kill_at: 2_500,
                itt_timeout: 8_000,
                itt_retries: 1,
                horizon: 240_000,
            },
        }
    }
}

/// One cell of the routing, failure or availability study: a scenario
/// capped at `ops_per_core` ops per active core on the rack `cfg`
/// describes, run until every capped op completed or `horizon` passed.
#[derive(Clone, Debug)]
pub struct JobCell {
    /// Traffic scenario label (`"uniform"`, `"zipf"`, `"reads"`, ...).
    pub scenario: &'static str,
    /// Builds the scenario.
    pub make: ScenarioFactory,
    /// The injected fault; `cfg.faults` is its plan.
    pub fault: FaultCase,
    /// Cycle the fault fires at (0 in a routing cell).
    pub kill_at: u64,
    /// Ops per active core of the capped job.
    pub ops_per_core: u64,
    /// Hard cycle cap.
    pub horizon: u64,
    /// The rack: torus, routing, chips and fault plan.
    pub cfg: RackSimConfig,
}

impl JobCell {
    /// A routing cell: `scenario` on a `dims` rack of two-core chips with
    /// the default RMC, routed by `routing`, with no fault.
    pub fn routing(
        dims: (u16, u16, u16),
        (scenario, make): (&'static str, ScenarioFactory),
        routing: RoutingKind,
        ops_per_core: u64,
        horizon: u64,
    ) -> JobCell {
        JobCell {
            scenario,
            make,
            fault: FaultCase::None,
            kill_at: 0,
            ops_per_core,
            horizon,
            cfg: RackSimConfig {
                torus: Torus3D::new(dims.0, dims.1, dims.2),
                chip: ChipConfig {
                    active_cores: 2,
                    ..ChipConfig::default()
                },
                routing,
                // Grid cells already saturate the host via `par_map`;
                // nesting the rack's worker pool inside would oversubscribe
                // it.
                threads: 1,
                ..RackSimConfig::default()
            },
        }
    }

    /// A failure cell: a routing cell with the ITT watchdog of `params`
    /// armed and `fault`'s plan firing at `params.kill_at`.
    pub fn failure(
        dims: (u16, u16, u16),
        scenario: (&'static str, ScenarioFactory),
        routing: RoutingKind,
        fault: FaultCase,
        params: FailureParams,
    ) -> JobCell {
        let mut cell =
            JobCell::routing(dims, scenario, routing, params.ops_per_core, params.horizon);
        // The ITT watchdog is the recovery story for erased traffic;
        // without it a node kill would wedge every op targeting the corpse.
        cell.cfg.chip.rmc.itt_timeout = params.itt_timeout;
        cell.cfg.chip.rmc.itt_retries = params.itt_retries;
        cell.cfg.faults = fault.plan(cell.cfg.torus, params);
        JobCell {
            fault,
            kill_at: params.kill_at,
            ..cell
        }
    }

    /// An availability cell: a fault-adaptive failure cell whose chips
    /// replicate `k` ways with write quorum `w` and replay a timed-out
    /// request up to `k - 1` times.
    pub fn availability(
        dims: (u16, u16, u16),
        scenario: (&'static str, ScenarioFactory),
        fault: FaultCase,
        (k, w): (u8, u8),
        params: FailureParams,
    ) -> JobCell {
        let mut cell = JobCell::failure(dims, scenario, RoutingKind::FaultAdaptive, fault, params);
        let rmc = &mut cell.cfg.chip.rmc;
        rmc.replication = ReplicaCfg {
            k,
            w,
            seed: REPLICA_SEED,
        };
        rmc.replay_budget = u32::from(k.saturating_sub(1));
        cell
    }
}

/// What one [`JobCell`] measured.
#[derive(Clone, Debug)]
pub struct JobPoint {
    /// The cell that ran.
    pub cell: JobCell,
    /// Operations the capped job was expected to complete.
    pub expected_ops: u64,
    /// Cycles until every capped op completed (= the horizon on timeout).
    pub completion_cycles: u64,
    /// Recovery time: cycles from the first kill to the last 200-cycle
    /// slice in which a failed or degraded completion landed — how long
    /// the rack stayed visibly degraded. Zero when none landed.
    pub recovery_cycles: u64,
    /// Remote reads *lost* — error-completed on nodes the fault plan never
    /// killed. Corpse-issued work is excluded on purpose: a dead server's
    /// own in-flight client activity is not user traffic, while a
    /// survivor's failed read is exactly the request loss replication
    /// exists to prevent. The headline claim: `k >= 2` with replay keeps
    /// this at zero under a node kill.
    pub lost_reads: u64,
    /// Error-completed reads on killed nodes (reported for transparency,
    /// not counted as losses).
    pub corpse_failed_reads: u64,
    /// Busiest link's total bytes over the mean of all loaded links.
    pub link_skew: f64,
    /// The rack's counters at the end of the run.
    pub snapshot: Snapshot,
}

impl JobPoint {
    /// True when every expected op completed (ok or with an error status)
    /// within the horizon.
    pub fn completed_all(&self) -> bool {
        self.snapshot.cores.completed >= self.expected_ops
    }

    /// Throughput, degraded or not: completed ops per kilocycle.
    pub fn ops_per_kcycle(&self) -> f64 {
        if self.completion_cycles == 0 {
            0.0
        } else {
            self.snapshot.cores.completed as f64 * 1000.0 / self.completion_cycles as f64
        }
    }

    /// This cell's `BENCH_failure.json` point.
    pub fn failure_row(&self) -> JsonRow {
        let (c, s) = (&self.cell, &self.snapshot);
        let mut row = JsonRow::default();
        row.str("scenario", c.scenario)
            .str("fault", c.fault.label())
            .str("routing", c.cfg.routing.name())
            .str("torus", dims_label(c.cfg.torus.dims()))
            .num("kill_at", c.kill_at)
            .num("expected_ops", self.expected_ops)
            .num("completed_ops", s.cores.completed)
            .num("failed_ops", s.cores.failed)
            .num("completed_all", self.completed_all())
            .num("completion_cycles", self.completion_cycles)
            .num("p50_ok_read", s.reads.percentile(0.50))
            .num("p99_ok_read", s.reads.percentile(0.99))
            .float("link_skew", self.link_skew, 4)
            .num("itt_timeouts", s.backends.itt_timeouts)
            .num("itt_retries", s.backends.itt_retries)
            .num("packets_dropped", s.faults.packets_dropped)
            .num("dead_link_stalls", s.faults.dead_link_stalls)
            .num("escape_hops", s.faults.escape_hops);
        row
    }

    /// This cell's `BENCH_availability.json` point.
    pub fn availability_row(&self) -> JsonRow {
        let (c, s) = (&self.cell, &self.snapshot);
        let mut row = JsonRow::default();
        row.str("scenario", c.scenario)
            .str("fault", c.fault.label())
            .num("k", c.cfg.chip.rmc.replication.k)
            .num("w", c.cfg.chip.rmc.replication.w)
            .str("torus", dims_label(c.cfg.torus.dims()))
            .num("kill_at", c.kill_at)
            .num("expected_ops", self.expected_ops)
            .num("completed_ops", s.cores.completed)
            .num("failed_ops", s.cores.failed)
            .num("lost_reads", self.lost_reads)
            .num("corpse_failed_reads", self.corpse_failed_reads)
            .num("degraded_ops", s.cores.degraded)
            .num("replays", s.backends.replays)
            .num("quorum_writes", s.backends.quorum_writes)
            .num("quorum_leg_failures", s.backends.quorum_leg_failures)
            .num("completed_all", self.completed_all())
            .num("completion_cycles", self.completion_cycles)
            .num("recovery_cycles", self.recovery_cycles)
            .float("ops_per_kcycle", self.ops_per_kcycle(), 4)
            .num("p50_ok_read", s.reads.percentile(0.50))
            .num("p99_ok_read", s.reads.percentile(0.99))
            .num("p99_degraded_read", s.degraded_reads.percentile(0.99));
        row
    }
}

/// Run `cell`'s capped job in 200-cycle slices (a tight completion cycle
/// without checking every cycle) until every capped op completes or the
/// horizon passes, noting after each slice whether a failed or degraded
/// completion landed.
pub fn run_job(cell: JobCell) -> JobPoint {
    const SLICE: u64 = 200;
    let cfg = &cell.cfg;
    let expected_ops =
        u64::from(cfg.torus.nodes()) * cfg.chip.active_cores as u64 * cell.ops_per_core;
    let killed = cfg.faults.killed_nodes();
    let capped = Capped::new((cell.make)(), cell.ops_per_core);
    let mut rack = Rack::with_scenario(cfg.clone(), &capped);
    let completed = |rack: &Rack| rack.chips().iter().map(Chip::completed_ops).sum::<u64>();
    let (mut seen, mut last_degraded) = ((0, 0), 0);
    while completed(&rack) < expected_ops && rack.now().0 < cell.horizon {
        rack.run(SLICE.min(cell.horizon - rack.now().0));
        let chips = rack.chips().iter();
        let cur = chips.fold((0, 0), |(f, d), c| {
            (f + c.failed_ops(), d + c.degraded_ops())
        });
        if cur != seen {
            seen = cur;
            last_degraded = rack.now().0;
        }
    }
    let (mut lost_reads, mut corpse_failed_reads) = (0, 0);
    for (node, c) in rack.chips().iter().enumerate() {
        let failed = c.snapshot().cores.failed_reads;
        if killed.contains(&(node as u32)) {
            corpse_failed_reads += failed;
        } else {
            lost_reads += failed;
        }
    }
    JobPoint {
        expected_ops,
        completion_cycles: rack.now().0,
        recovery_cycles: last_degraded.saturating_sub(cell.kill_at),
        lost_reads,
        corpse_failed_reads,
        link_skew: rack.link_byte_skew(),
        snapshot: rack.snapshot(),
        cell,
    }
}

/// The paper-facing routing sweep (ROADMAP's "adaptive routing under
/// congestion"): dimension-order vs minimal-adaptive vs random-minimal
/// torus routing on a 4x4x4 64-node rack, across uniformly spread
/// asynchronous reads, the antipodal bisection stressor, and the Zipf
/// hotspot — balanced, adversarial-but-symmetric, and skewed load — each
/// cell a capped job run to completion. Reports job completion time, the
/// remote-read tail, and per-link byte skew — the axis where
/// congestion-aware routing should buy tail latency and balance without
/// costing the deterministic baseline anything at zero load.
pub fn routing_sweep(scale: Scale) -> Vec<JobPoint> {
    let ops = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let horizon = scale.rack_cycles() * 4;
    let scenarios: [(&'static str, ScenarioFactory); 3] = [
        ("uniform", || reads(TrafficPattern::Uniform)),
        ("opposite", || reads(TrafficPattern::Opposite)),
        ("zipf", || Box::<ZipfHotspot>::default()),
    ];
    let grid = scenarios.into_iter().flat_map(|s| {
        RoutingKind::ALL
            .into_iter()
            .map(move |r| JobCell::routing((4, 4, 4), s, r, ops, horizon))
    });
    par_map(grid.collect(), run_job)
}

/// Render a routing-sweep grid, grouped by scenario, with the DOR-relative
/// skew deltas that make the comparison legible.
pub fn routing_points_render(pts: &[JobPoint]) -> String {
    let mut t = Table::new(&[
        "scenario",
        "routing",
        "ops",
        "completion (cycles)",
        "p50 read",
        "p99 read",
        "link skew",
        "vs DOR skew",
        "hops",
    ]);
    let dor = RoutingKind::DimensionOrder;
    for p in pts {
        let (c, s) = (&p.cell, &p.snapshot);
        let dor_skew = pts
            .iter()
            .find(|q| q.cell.scenario == c.scenario && q.cell.cfg.routing == dor)
            .map(|q| q.link_skew);
        let rel = match dor_skew {
            Some(d) if d > 0.0 && c.cfg.routing != dor => {
                format!("{:+.1}%", (p.link_skew / d - 1.0) * 100.0)
            }
            _ => "-".into(),
        };
        t.row_owned(vec![
            c.scenario.into(),
            c.cfg.routing.name().into(),
            format!("{}/{}", s.cores.completed, p.expected_ops),
            p.completion_cycles.to_string(),
            s.reads.percentile(0.50).to_string(),
            s.reads.percentile(0.99).to_string(),
            format!("{:.2}x", p.link_skew),
            rel,
            s.hops.to_string(),
        ]);
    }
    t.render()
}

/// The paper-facing failure sweep (ROADMAP's "failure injection"): kill a
/// link or a node of a 4x4x4 64-node rack mid-run and measure the blast
/// radius — job completion, failed-op count, the surviving reads' tail,
/// and link skew — under health-blind dimension-order routing versus
/// [`FaultAdaptive`](ni_fabric::FaultAdaptive). The grid is
/// `{uniform, zipf}` × `{none, link-kill, node-kill}` ×
/// `{dor, fault-adaptive}`, each cell a capped job run to completion (or
/// the horizon). The claims the CI-run `examples/failure_study.rs` asserts
/// come from exactly this grid.
pub fn failure_sweep(scale: Scale) -> Vec<JobPoint> {
    let params = FailureParams::at(scale);
    // The Zipf hot node (node 0) is the one the canonical faults hit.
    let scenarios: [(&'static str, ScenarioFactory); 2] = [
        ("uniform", || reads(TrafficPattern::Uniform)),
        ("zipf", || Box::<ZipfHotspot>::default()),
    ];
    let faults = [FaultCase::None, FaultCase::LinkKill, FaultCase::NodeKill];
    let routings = [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive];
    let grid = scenarios.into_iter().flat_map(|s| {
        faults.into_iter().flat_map(move |f| {
            routings
                .into_iter()
                .map(move |r| JobCell::failure((4, 4, 4), s, r, f, params))
        })
    });
    par_map(grid.collect(), run_job)
}

/// The sweep's replication axis: no replication (the blast-radius
/// baseline), mirrored pairs completing on one ack, and 3-way replication
/// with a majority write quorum.
pub const AVAIL_KW: [(u8, u8); 3] = [(1, 1), (2, 1), (3, 2)];

/// The paper-facing availability study (ROADMAP's "transparent recovery"):
/// on a 4×4×4 64-node rack, sweep replication degree and write quorum
/// against mid-run node kills and fault storms, and report requests lost,
/// degraded-mode throughput, replay counts, and recovery time. The grid is
/// `{reads, writes}` × [`AVAIL_KW`] × `{none, node-kill, storm}`: a
/// read-only and a write-only uniform job, so read failover and write
/// quorums are each exercised in isolation and attribution stays
/// unambiguous. The claims the CI-run `examples/availability_study.rs`
/// asserts — above all "a node kill at `k >= 2` loses zero reads" — come
/// from exactly this grid.
pub fn availability_sweep(scale: Scale) -> Vec<JobPoint> {
    let params = FailureParams::at(scale);
    let scenarios: [(&'static str, ScenarioFactory); 2] = [
        ("reads", || reads(TrafficPattern::Uniform)),
        ("writes", || {
            Box::new(
                Synthetic::from_workload(Workload::AsyncWrite {
                    size: 512,
                    poll_every: 4,
                })
                .with_pattern(TrafficPattern::Uniform),
            )
        }),
    ];
    let faults = [FaultCase::None, FaultCase::NodeKill, FaultCase::Storm];
    let grid = scenarios.into_iter().flat_map(|s| {
        AVAIL_KW.into_iter().flat_map(move |kw| {
            faults
                .into_iter()
                .map(move |f| JobCell::availability((4, 4, 4), s, f, kw, params))
        })
    });
    par_map(grid.collect(), run_job)
}

/// Tenant tag of the latency-sensitive closed-loop KV tenant in the
/// serving sweep (tag 0 is reserved for idle filler cores).
pub const TENANT_KV: u8 = 1;

/// Tenant tag of the throughput-oriented bulk graph tenant.
pub const TENANT_BULK: u8 = 2;

/// Closed-loop window of the KV tenant: outstanding requests per core.
pub const SERVING_WINDOW: u64 = 4;

/// Mean think-time parameter of the KV tenant at peak load; think times
/// are drawn uniformly from `[1, 2·think]` per op.
pub const SERVING_THINK: u64 = 64;

/// Remote service time the serving RRPP "computes" per KV GET block
/// before replying — what makes the GETs two-sided request–response ops.
pub const SERVING_KV_SERVICE: u64 = 150;

/// Human label for a serving-sweep tenant tag.
pub fn tenant_label(tag: u8) -> &'static str {
    match tag {
        TENANT_KV => "kv",
        TENANT_BULK => "bulk",
        _ => "other",
    }
}

/// The latency-sensitive tenant: a closed-loop Zipf KV front end whose
/// GETs are two-sided RPCs ([`SERVING_KV_SERVICE`] cycles of remote
/// compute per block), [`SERVING_WINDOW`] outstanding per core, seeded
/// think times around `think`.
fn serving_kv(think: u64) -> Box<dyn Scenario> {
    Box::new(ClosedLoop::new(
        Box::new(KvStore::default().with_service(SERVING_KV_SERVICE)),
        SERVING_WINDOW,
        think,
    ))
}

/// The bulk tenant: open-loop graph-shard adjacency fetches — large
/// payloads that keep the shared NI and fabric busy.
fn serving_bulk() -> Box<dyn Scenario> {
    Box::new(GraphShard::default())
}

/// Idle filler occupying a tenant slot so solo runs place the live
/// tenant on exactly the cores it owns in the shared run.
fn serving_idle() -> Box<dyn Scenario> {
    Box::new(Synthetic::from_workload(Workload::Idle))
}

/// Solo KV baseline: KV on the even cores (as in the shared mix), the
/// bulk tenant's cores idle.
fn serving_mix_solo_kv(think: u64) -> Box<dyn Scenario> {
    Box::new(
        TenantMix::new()
            .with_tenant(TENANT_KV, serving_kv(think), 1)
            .with_tenant(0, serving_idle(), 1),
    )
}

/// Solo bulk baseline: the KV cores idle, bulk on the odd cores.
fn serving_mix_solo_bulk() -> Box<dyn Scenario> {
    Box::new(
        TenantMix::new()
            .with_tenant(0, serving_idle(), 1)
            .with_tenant(TENANT_BULK, serving_bulk(), 1),
    )
}

/// The shared mix: both tenants live, on the same disjoint core sets
/// the solo baselines used, contending for NI pipelines and fabric.
fn serving_mix_shared(think: u64) -> Box<dyn Scenario> {
    Box::new(
        TenantMix::new()
            .with_tenant(TENANT_KV, serving_kv(think), 1)
            .with_tenant(TENANT_BULK, serving_bulk(), 1),
    )
}

/// One tenant's row of a serving point.
#[derive(Clone, Copy, Debug)]
pub struct ServingTenant {
    /// Tenant tag (see [`TENANT_KV`] / [`TENANT_BULK`]).
    pub tag: u8,
    /// Human label for the tag.
    pub label: &'static str,
    /// The tenant's SLO summary over the measured window.
    pub slo: SloSummary,
}

/// One cell of the serving sweep: a tenant mix run on a full rack, with
/// per-tenant SLO observables.
#[derive(Clone, Debug)]
pub struct ServingPoint {
    /// Case label (`"solo-kv"`, `"solo-bulk"`, `"shared"`, `"diurnal"`).
    pub case: &'static str,
    /// Torus dimensions.
    pub dims: (u16, u16, u16),
    /// Cycles simulated.
    pub cycles: u64,
    /// Live tenants (idle filler excluded), in tag order.
    pub tenants: Vec<ServingTenant>,
}

impl ServingPoint {
    /// This point's SLO summary for `tag`, if that tenant was live.
    pub fn tenant(&self, tag: u8) -> Option<&SloSummary> {
        self.tenants.iter().find(|t| t.tag == tag).map(|t| &t.slo)
    }

    /// This point's `BENCH_serving.json` points, one per live tenant.
    pub fn rows(&self) -> Vec<JsonRow> {
        let row = |t: &ServingTenant| {
            let mut row = JsonRow::default();
            row.str("case", self.case)
                .str("tenant", t.label)
                .num("tag", t.tag)
                .str("torus", dims_label(self.dims))
                .num("cycles", self.cycles)
                .float("offered_per_kcycle", t.slo.offered_per_kcycle, 4)
                .float("achieved_per_kcycle", t.slo.achieved_per_kcycle, 4)
                .float(
                    "goodput_bytes_per_kcycle",
                    t.slo.goodput_bytes_per_kcycle,
                    4,
                )
                .float("failure_rate", t.slo.failure_rate, 6)
                .num("p50", t.slo.p50)
                .num("p99", t.slo.p99)
                .num("p999", t.slo.p999)
                .num("samples", t.slo.samples);
            row
        };
        self.tenants.iter().map(row).collect()
    }
}

/// Run one serving case: `scenario` on a `dims` rack for `cycles` cycles.
/// With `phase2`, the run is diurnal: the rack starts under `scenario`
/// (off-peak), then [`Rack::reset_scenario`] swaps every core to
/// `phase2`'s generators at half-time (peak) — in-flight ops drain
/// normally across the phase change.
pub fn run_serving_point(
    dims: (u16, u16, u16),
    case: &'static str,
    scenario: &dyn Scenario,
    phase2: Option<&dyn Scenario>,
    cycles: u64,
) -> ServingPoint {
    let cfg = RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip: ChipConfig {
            // One KV core and one bulk core per chip: every chip hosts
            // both tenants, so they share its NI pipelines, not just links.
            active_cores: 2,
            ..ChipConfig::default()
        },
        // Grid cells already saturate the host via `par_map`.
        threads: 1,
        ..RackSimConfig::default()
    };
    let mut rack = Rack::with_scenario(cfg, scenario);
    match phase2 {
        Some(peak) => {
            rack.run(cycles / 2);
            rack.reset_scenario(peak);
            rack.run(cycles - cycles / 2);
        }
        None => rack.run(cycles),
    }
    let tenants = rack
        .snapshot()
        .tenants
        .iter()
        // Idle filler cores report tag 0 with nothing issued; drop them.
        .filter(|(_, a)| a.issued > 0)
        .map(|(tag, a)| ServingTenant {
            tag: *tag,
            label: tenant_label(*tag),
            slo: SloSummary::over(a, cycles),
        })
        .collect();
    ServingPoint {
        case,
        dims,
        cycles,
        tenants,
    }
}

/// The paper-facing multi-tenant serving study: on a 4×4×4 64-node rack,
/// a closed-loop KV tenant and a bulk graph tenant on disjoint cores of
/// every chip, measured solo and shared, plus a diurnal run that
/// phase-changes from off-peak (8× think time, no bulk) to the peak shared
/// mix at half-time. The claims the CI-run `examples/serving_study.rs`
/// gates on — the KV tenant's p99 SLO under the shared mix, its goodput
/// floor, and measurable cross-tenant interference — come from exactly
/// this grid.
pub fn serving_sweep(scale: Scale) -> Vec<ServingPoint> {
    let cycles = scale.rack_cycles();
    type Mk = fn() -> Box<dyn Scenario>;
    let grid: Vec<(&'static str, Mk, Option<Mk>)> = vec![
        ("solo-kv", || serving_mix_solo_kv(SERVING_THINK), None),
        ("solo-bulk", serving_mix_solo_bulk, None),
        ("shared", || serving_mix_shared(SERVING_THINK), None),
        (
            "diurnal",
            || serving_mix_solo_kv(8 * SERVING_THINK),
            Some(|| serving_mix_shared(SERVING_THINK)),
        ),
    ];
    par_map(grid, move |(case, mk, mk2)| {
        let phase2 = mk2.map(|f| f());
        run_serving_point((4, 4, 4), case, mk().as_ref(), phase2.as_deref(), cycles)
    })
}

/// The KV tenant's interference index across a serving sweep: its p99
/// under the `"shared"` mix over its p99 running `"solo-kv"` (NaN when
/// either case is missing or the solo tail is empty).
pub fn serving_interference(pts: &[ServingPoint]) -> f64 {
    let p99 = |case: &str| {
        pts.iter()
            .find(|p| p.case == case)
            .and_then(|p| p.tenant(TENANT_KV))
            .map_or(0, |s| s.p99)
    };
    interference_index(p99("shared"), p99("solo-kv"))
}

/// The default size sweep of the paper's latency figures (64B to 16KB).
pub const LATENCY_SIZES: [u64; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// The default size sweep of the paper's bandwidth figures (64B to 8KB).
pub const BANDWIDTH_SIZES: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rackni_scale_reads_unset_as_quick_and_names_both_scales() {
        assert_eq!(Scale::parse(None), Scale::Quick);
        assert_eq!(Scale::parse(Some("quick")), Scale::Quick);
        assert_eq!(Scale::parse(Some("full")), Scale::Full);
    }

    #[test]
    #[should_panic(expected = "RACKNI_SCALE=\"Full\"")]
    fn rackni_scale_rejects_any_other_value() {
        Scale::parse(Some("Full"));
    }
}
