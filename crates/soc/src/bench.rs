//! Experiment drivers: the paper's latency and bandwidth microbenchmarks.

use ni_engine::{ConvergenceMonitor, Frequency, WindowStatus};
use ni_rmc::Stage;

use crate::chip::Chip;
use crate::config::ChipConfig;
use crate::core_model::Workload;

/// Result of a synchronous-read latency run.
#[derive(Clone, Copy, Debug)]
pub struct LatencyResult {
    /// Transfer size in bytes.
    pub size: u64,
    /// Mean end-to-end latency in cycles (WQ write start to CQ read done).
    pub mean_cycles: f64,
    /// Mean end-to-end latency in nanoseconds at 2 GHz.
    pub mean_ns: f64,
    /// Operations measured.
    pub ops: u64,
    /// Mean measured RRPP service latency (cycles).
    pub rrpp_cycles: f64,
    /// Median end-to-end latency (cycles).
    pub p50_cycles: u64,
    /// 95th-percentile end-to-end latency (cycles).
    pub p95_cycles: u64,
    /// 99th-percentile end-to-end latency (cycles).
    pub p99_cycles: u64,
}

/// Run the unloaded synchronous remote-read microbenchmark (§5): one core
/// issues `ops` synchronous reads of `size` bytes; everything else idles.
///
/// With [`ni_rmc::NiPlacement::Numa`] the core issues direct single-block loads (the
/// Table 1 baseline); `size` is ignored because the hardware NUMA interface
/// supports one cache block per operation (§3.1).
pub fn run_sync_latency(cfg: ChipConfig, size: u64, ops: u64) -> LatencyResult {
    let workload = if cfg.placement == ni_rmc::NiPlacement::Numa {
        Workload::NumaRead
    } else {
        Workload::SyncRead { size }
    };
    run_latency_workload(cfg, workload, size, ops)
}

/// As [`run_sync_latency`] but issuing synchronous remote *writes*: the RGP
/// backend loads each payload block from local memory before shipping it
/// (Fig. 4a), so write latency carries an extra local memory access over
/// the read path.
pub fn run_sync_write_latency(cfg: ChipConfig, size: u64, ops: u64) -> LatencyResult {
    run_latency_workload(cfg, Workload::SyncWrite { size }, size, ops)
}

fn run_latency_workload(
    mut cfg: ChipConfig,
    workload: Workload,
    size: u64,
    ops: u64,
) -> LatencyResult {
    cfg.active_cores = 1;
    let mut chip = Chip::new(cfg, workload);
    let limit = 40_000_000u64;
    let mut guard = 0u64;
    while chip.completed_ops() < ops {
        chip.tick();
        guard += 1;
        assert!(guard < limit, "latency run did not complete {ops} ops");
    }
    let hist = chip.cores[0].latency_histogram();
    let mean = hist.stats().mean();
    LatencyResult {
        size,
        mean_cycles: mean,
        mean_ns: mean * Frequency::GHZ2.nanos_per_cycle(),
        ops: chip.completed_ops(),
        rrpp_cycles: chip.rrpp_mean_latency(),
        p50_cycles: hist.percentile(0.50),
        p95_cycles: hist.percentile(0.95),
        p99_cycles: hist.percentile(0.99),
    }
}

/// Per-stage mean durations for the Table 1/3 tomography.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBreakdown {
    /// WQ write (software + coherence), cycles.
    pub wq_write: f64,
    /// WQ observation by the NI (poll + transfer + frontend processing).
    pub wq_read_and_rgp: f64,
    /// Frontend-to-backend transfer plus backend processing.
    pub fe_to_net: f64,
    /// Network + remote service round trip.
    pub net_round_trip: f64,
    /// RCP processing and CQ entry write.
    pub rcp_and_cq_write: f64,
    /// CQ read by the core.
    pub cq_read: f64,
    /// End-to-end.
    pub total: f64,
}

/// Run a single-block sync workload and extract the stage tomography.
pub fn stage_breakdown(cfg: ChipConfig, ops: u64) -> StageBreakdown {
    let mut c = cfg;
    c.active_cores = 1;
    let mut chip = Chip::new(c, Workload::SyncRead { size: 64 });
    let mut guard = 0u64;
    while chip.completed_ops() < ops {
        chip.tick();
        guard += 1;
        assert!(guard < 20_000_000, "breakdown run stalled");
    }
    // Drain the final op's trace events so every stage mean covers the
    // same operation population (the deltas then sum to the end-to-end).
    chip.run(16);
    let t = &chip.traces;
    let d = |a, b| t.mean_between(a, b).unwrap_or(0.0);
    StageBreakdown {
        wq_write: d(Stage::WqWriteStart, Stage::WqWriteDone),
        wq_read_and_rgp: d(Stage::WqWriteDone, Stage::BeReceived),
        fe_to_net: d(Stage::BeReceived, Stage::NetOut),
        net_round_trip: d(Stage::NetOut, Stage::NetIn),
        rcp_and_cq_write: d(Stage::NetIn, Stage::CqWritten),
        cq_read: d(Stage::CqWritten, Stage::CqReadDone),
        total: t.mean_end_to_end().unwrap_or(0.0),
    }
}

/// Result of an asynchronous bandwidth run.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthResult {
    /// Transfer size in bytes.
    pub size: u64,
    /// Aggregate application bandwidth in GBps (both directions, §6.2).
    pub app_gbps: f64,
    /// Aggregate NOC traffic in GBps over the same window.
    pub noc_gbps: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether the §5 convergence criterion was met (vs. hitting the cap).
    pub converged: bool,
}

/// Run the asynchronous bandwidth microbenchmark (§5): all active cores
/// enqueue `size`-byte reads as fast as the WQ allows; the rack emulator
/// mirrors the rate as incoming requests. Bandwidth is measured in windows
/// until the delta between consecutive windows is below 1%.
pub fn run_bandwidth(cfg: ChipConfig, size: u64, window: u64, max_windows: u32) -> BandwidthResult {
    run_bandwidth_workload(
        cfg,
        Workload::AsyncRead {
            size,
            poll_every: 4,
        },
        size,
        window,
        max_windows,
    )
}

/// As [`run_bandwidth`] but issuing asynchronous remote *writes*.
pub fn run_write_bandwidth(
    cfg: ChipConfig,
    size: u64,
    window: u64,
    max_windows: u32,
) -> BandwidthResult {
    run_bandwidth_workload(
        cfg,
        Workload::AsyncWrite {
            size,
            poll_every: 4,
        },
        size,
        window,
        max_windows,
    )
}

fn run_bandwidth_workload(
    cfg: ChipConfig,
    workload: Workload,
    size: u64,
    window: u64,
    max_windows: u32,
) -> BandwidthResult {
    let mut chip = Chip::new(cfg, workload);
    let mut monitor = ConvergenceMonitor::new(window, 0.01, 2);
    let freq = Frequency::GHZ2;
    let mut last_bytes = 0u64;
    let mut last_noc_bytes = 0u64;
    let mut windows = 0u32;
    let mut next_boundary = window;
    let (app_gbps, noc_gbps, converged) = loop {
        chip.tick();
        let now = chip.now();
        if now.0 < next_boundary {
            continue;
        }
        next_boundary += window;
        // Per-window application bandwidth is the metric the paper's
        // convergence criterion applies to.
        let bytes = chip.app_payload_bytes();
        let noc_bytes = chip.noc_stats().delivered_bytes();
        let window_gbps =
            freq.gbps_from_bytes_per_cycle((bytes - last_bytes) as f64 / window as f64);
        let window_noc =
            freq.gbps_from_bytes_per_cycle((noc_bytes - last_noc_bytes) as f64 / window as f64);
        last_bytes = bytes;
        last_noc_bytes = noc_bytes;
        windows += 1;
        if let Some(WindowStatus::Converged { .. }) = monitor.observe(now, window_gbps) {
            break (window_gbps, window_noc, true);
        }
        if windows >= max_windows {
            break (window_gbps, window_noc, false);
        }
    };
    BandwidthResult {
        size,
        app_gbps,
        noc_gbps,
        cycles: chip.now().0,
        converged,
    }
}
