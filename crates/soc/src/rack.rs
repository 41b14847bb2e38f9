//! Multi-node rack simulation: N fully simulated chips in lock step over a
//! real [`TorusFabric`], ticked in parallel across host threads.
//!
//! This is the driver the paper's methodology could not afford (§5 simulates
//! one node and emulates the rest): every node of the rack is a complete
//! [`Chip`] — cores, caches, directories, RMC pipelines, NOC — and all
//! chip-to-chip traffic crosses the 3D torus hop-by-hop with finite link
//! bandwidth. Cross-node request/response flows are therefore *real*: node
//! A's RGP unrolls onto the fabric, node B's RRPP services against node B's
//! memory, and the response rides the torus back to node A's RCP.
//!
//! # Lookahead-windowed lock step
//!
//! Chips never touch the shared fabric directly. Each owns a buffered
//! [`FabricPort`] (outbox/inbox pair, every entry stamped with its cycle).
//! No packet a chip injects at cycle `t` can reach another node before
//! `t + L`, where L is the fabric's [`lookahead`](TorusFabric::lookahead):
//! one hop's wire latency plus the serialization of the smallest packet,
//! 72 cycles at the defaults, derived from the config. So [`Rack::run`]
//! advances in windows of up to L cycles, each a three-step round:
//!
//! 1. **Open** — the fabric hands every port the arrivals it will deliver
//!    inside the window, each due at its cycle
//!    ([`TorusFabric::open_window`]).
//! 2. **Compute** — every chip runs the whole window against its port.
//!    With several workers the chips are farmed across threads in static
//!    chunks, with one barrier pair per window.
//! 3. **Replay** — the driver advances the fabric one cycle at a time and
//!    after each tick flushes that cycle's outbox entries into it in
//!    node-id order, so routing views and fault events see exactly the
//!    per-cycle schedule.
//!
//! A window also ends at the next fault event, so node health is fixed
//! inside it. A self-addressed packet lands one cycle after injection,
//! deep inside a window, so a live node's port loops it back itself.
//!
//! [`Rack::tick`] is the per-cycle reference the windowed run must
//! reproduce: advance the fabric once and collect its deliveries into the
//! ports, tick every chip, flush every outbox. Chips share no state while
//! they compute and the replay order is fixed, so a run is
//! **bit-identical at any window and thread count** — per-cycle ticking,
//! one worker, and N workers produce the same
//! [`FabricStats`](ni_fabric::FabricStats), completed-op counts, latency
//! distributions and per-chip full-tick counts for the same seed. Under
//! the default [`TickMode::Event`](crate::TickMode::Event) a chip whose
//! every component sleeps past the current cycle, with nothing due at its
//! port, skips the cycle, and [`Chip::run`] jumps whole idle stretches, so
//! huge racks with sparse activity stay cheap.
//!
//! Worker count: [`RackSimConfig::threads`] (0 = the `RACKNI_THREADS`
//! environment variable, else [`std::thread::available_parallelism`]).
//!
//! Workloads come from a [`Scenario`]: [`Rack::with_scenario`] hands every
//! active core of every node its own seeded generator. The pre-scenario
//! [`Rack::new`]`(cfg, workload)` constructor survives as a thin wrapper
//! over [`Synthetic`] with the config's [`TrafficPattern`].

use std::io::{self, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use ni_engine::parallel::{default_threads, par_map_threads};
use ni_engine::Cycle;
use ni_fabric::{
    link_report_csv, link_report_json, Fabric, FabricPort, FaultPlan, FaultStats, LinkReport,
    RoutingKind, Torus3D, TorusFabric, TorusFabricConfig,
};

use crate::chip::Chip;
use crate::config::ChipConfig;
use crate::core_model::Workload;
use crate::scenario::{Scenario, Synthetic};

/// How active cores choose their remote destination node (the destination
/// vocabulary of the built-in [`Synthetic`] scenario).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every core on node `n` targets node `n+1` (mod N): a directed ring,
    /// one hop per request on the x-dimension where possible.
    Neighbor,
    /// Core `i` on node `n` targets `(n + 1 + (i mod (N-1))) mod N`: each
    /// node spreads its cores across all other nodes near-uniformly.
    Uniform,
    /// Every core on node `n` targets a torus antipode of `n`
    /// ([`Torus3D::antipode`]): maximal hop count per request, the
    /// worst-case bisection load. On odd dimensions the antipode is one of
    /// several equally distant peers; see the antipode docs.
    Opposite,
}

impl TrafficPattern {
    /// Destination node for core `core` of node `node` in `torus`.
    pub fn target(self, torus: Torus3D, node: u32, core: usize) -> u32 {
        let n = torus.nodes();
        if n == 1 {
            return node;
        }
        match self {
            TrafficPattern::Neighbor => (node + 1) % n,
            TrafficPattern::Uniform => (node + 1 + (core as u32 % (n - 1))) % n,
            TrafficPattern::Opposite => torus.antipode(node),
        }
    }
}

/// Serialization format for [`Rack::write_link_report`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkReportFormat {
    /// One header line plus one comma-separated row per directed link.
    Csv,
    /// A JSON array of per-link objects.
    Json,
}

/// Multi-node rack configuration.
#[derive(Clone, Debug)]
pub struct RackSimConfig {
    /// Rack geometry (also sets the node count).
    pub torus: Torus3D,
    /// Per-node chip configuration. `node_id` is assigned per chip and the
    /// per-chip seed is derived from `chip.seed` and the node id; the
    /// emulator-specific `rack` settings are unused.
    pub chip: ChipConfig,
    /// Wire latency per torus hop in cycles (35ns = 70 cycles at 2 GHz).
    pub hop_cycles: u64,
    /// Link bandwidth in bytes per cycle.
    pub link_bytes_per_cycle: u64,
    /// Window length for per-link peak-bandwidth tracking, in cycles.
    pub stats_window: u64,
    /// Torus routing policy ([`RoutingKind::DimensionOrder`] by default):
    /// deterministic dimension order, congestion-aware minimal-adaptive, or
    /// the seeded random-minimal baseline. Custom
    /// [`RoutingPolicy`](ni_fabric::RoutingPolicy) implementations plug in
    /// at the fabric layer via
    /// [`TorusFabric::with_policy`](ni_fabric::TorusFabric::with_policy).
    pub routing: RoutingKind,
    /// Scheduled torus link/node failures (and repairs), applied by the
    /// shared fabric at their firing cycles — threaded to
    /// [`TorusFabricConfig::faults`] exactly like `routing`. Empty by
    /// default. Pair a non-empty plan with a non-zero
    /// [`RmcConfig::itt_timeout`](ni_rmc::RmcConfig::itt_timeout) in
    /// `chip.rmc`, or operations whose traffic a dead node erases will
    /// wait forever instead of error-completing.
    pub faults: FaultPlan,
    /// Destination assignment used by the [`Workload`]-based [`Rack::new`]
    /// constructor; scenario-driven racks pick destinations per op instead.
    pub traffic: TrafficPattern,
    /// Worker threads for the compute step of [`Rack::run`] (and for chip
    /// construction). `0` resolves at run time via
    /// [`default_threads`] (the `RACKNI_THREADS` environment variable,
    /// else the host's available parallelism); `1` forces the serial path.
    /// Results are bit-identical at every setting.
    pub threads: usize,
}

impl Default for RackSimConfig {
    fn default() -> Self {
        let fabric = TorusFabricConfig::default();
        RackSimConfig {
            torus: fabric.torus,
            chip: ChipConfig::default(),
            hop_cycles: fabric.hop_cycles,
            link_bytes_per_cycle: fabric.link_bytes_per_cycle,
            stats_window: fabric.stats_window,
            routing: fabric.routing,
            faults: fabric.faults,
            traffic: TrafficPattern::Uniform,
            threads: 0,
        }
    }
}

impl RackSimConfig {
    /// The resolved compute-phase worker count: `threads`, or
    /// [`default_threads`] when zero.
    pub fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }
}

/// A lock-stepped multi-node rack.
pub struct Rack {
    cfg: RackSimConfig,
    chips: Vec<Chip>,
    /// The shared transport. Owned directly — chips reach it only through
    /// their buffered ports, during the exchange phase.
    fabric: TorusFabric,
    /// Rack-side handles onto each chip's port, in node-id order.
    ports: Vec<FabricPort>,
    scenario_name: String,
    now: Cycle,
    /// Compute/exchange rounds run so far; see [`Rack::sync_rounds`].
    sync_rounds: u64,
}

impl Rack {
    /// Build a rack of `cfg.torus.nodes()` chips, every active core running
    /// `workload` against the destination chosen by `cfg.traffic` — the
    /// pre-scenario constructor, now a wrapper over [`Rack::with_scenario`].
    pub fn new(cfg: RackSimConfig, workload: Workload) -> Rack {
        let scenario = Synthetic::from_workload(workload).with_pattern(cfg.traffic);
        Rack::with_scenario(cfg, &scenario)
    }

    /// Build a rack of `cfg.torus.nodes()` chips, every active core of every
    /// node driven by its own generator from `scenario` (see
    /// [`Scenario::for_core`]). Chip construction is farmed across the
    /// configured worker threads (chips are independent, so the result is
    /// identical to building them sequentially).
    pub fn with_scenario(cfg: RackSimConfig, scenario: &dyn Scenario) -> Rack {
        let fabric = TorusFabric::new(TorusFabricConfig {
            torus: cfg.torus,
            hop_cycles: cfg.hop_cycles,
            link_bytes_per_cycle: cfg.link_bytes_per_cycle,
            stats_window: cfg.stats_window,
            routing: cfg.routing,
            faults: cfg.faults.clone(),
        });
        let nodes = cfg.torus.nodes();
        assert!(nodes <= u32::from(u16::MAX), "node ids are u16 on the wire");
        let ports: Vec<FabricPort> = (0..nodes).map(|n| FabricPort::new(n as u16)).collect();
        let port_refs: Vec<FabricPort> = ports.clone();
        // Only the `Copy` pieces of the config cross into the construction
        // closure (the config itself holds the non-`Copy` fault plan).
        let (base_chip, torus) = (cfg.chip, cfg.torus);
        let chips = par_map_threads(
            (0..nodes).collect(),
            cfg.worker_threads(),
            move |node: u32| {
                let chip_cfg = ChipConfig {
                    node_id: node as u16,
                    // Distinct, reproducible per-node streams from one
                    // master seed (splitmix-style odd multiplier keeps them
                    // decorrelated).
                    seed: base_chip
                        .seed
                        .wrapping_add(u64::from(node).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    ..base_chip
                };
                Chip::with_scenario_on(
                    chip_cfg,
                    scenario,
                    Box::new(port_refs[node as usize].clone()),
                    nodes,
                    Some(torus),
                )
            },
        );
        Rack {
            cfg,
            chips,
            fabric,
            ports,
            scenario_name: scenario.name().to_string(),
            now: Cycle::ZERO,
            sync_rounds: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &RackSimConfig {
        &self.cfg
    }

    /// Name of the scenario driving this rack's cores.
    pub fn scenario_name(&self) -> &str {
        &self.scenario_name
    }

    /// Short name of the torus routing policy in use (`"dor"`,
    /// `"adaptive"`, `"random"`).
    pub fn routing_name(&self) -> &'static str {
        self.fabric.routing_name()
    }

    /// Compute-step workers [`Rack::run`] will actually use: the
    /// configured [`RackSimConfig::worker_threads`] clamped to the chip
    /// count (a 8-chip rack never runs more than 8 workers). Report this —
    /// not the raw config — in throughput trajectories.
    pub fn worker_count(&self) -> usize {
        self.cfg.worker_threads().min(self.chips.len()).max(1)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Compute/exchange rounds run so far: one per [`Rack::tick`], one per
    /// lookahead window under [`Rack::run`]. A deterministic work counter:
    /// a long healthy run takes one round per L simulated cycles (see
    /// [`TorusFabric::lookahead`]), and each round costs one barrier pair
    /// when chips compute on worker threads.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// The simulated chips, in node-id order.
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// Mutable access to one chip (workload resets, memory pokes). The
    /// chip is [woken](Chip::wake) first: direct mutation bypasses the
    /// event-driven bookkeeping, so every wake slot and the dormant horizon
    /// are conservatively reset.
    pub fn chip_mut(&mut self, node: u32) -> &mut Chip {
        let chip = &mut self.chips[node as usize];
        chip.wake();
        chip
    }

    /// Rebind every active core of every chip to a fresh generator from
    /// the prototype `scenario` (see [`Chip::reset_scenario`]): the
    /// rack-wide phase change used by diurnal serving studies. In-flight
    /// operations drain normally under the new phase.
    pub fn reset_scenario(&mut self, scenario: &dyn Scenario) {
        for chip in &mut self.chips {
            chip.reset_scenario(scenario);
        }
    }

    /// Advance the whole rack by one cycle — the per-cycle reference
    /// schedule [`Rack::run`] reproduces window by window: advance the
    /// fabric exactly once and move its deliveries into the ports, tick
    /// every chip against its port, then flush every outbox into the
    /// fabric in node-id order (FIFO within a node).
    pub fn tick(&mut self) {
        let now = self.now;
        self.fabric.tick(now);
        // On quiet cycles (nothing landed anywhere this tick) the whole
        // per-node collection scan is one counter check.
        if self.fabric.has_deliveries() {
            for port in &self.ports {
                port.collect_arrivals(now, &mut self.fabric);
            }
        }
        for chip in &mut self.chips {
            chip.tick();
        }
        for port in &self.ports {
            port.flush_outbox(now, &mut self.fabric);
        }
        self.now += 1;
        self.sync_rounds += 1;
    }

    /// Replay step of the window `[start, end)`: advance the fabric one
    /// cycle at a time and after each tick flush that cycle's emissions
    /// into it in node-id order. Ports with an empty outbox are left out
    /// up front (one lock-free load each); the rest are visited every
    /// cycle, which returns without locking until their next emission.
    /// Every delivery due inside the window went to the ports when it
    /// opened, so these ticks only route.
    fn replay(fabric: &mut TorusFabric, ports: &[FabricPort], start: Cycle, end: Cycle) {
        let busy: Vec<&FabricPort> = ports.iter().filter(|p| p.outbox_pending()).collect();
        let mut now = start;
        while now < end {
            fabric.tick(now);
            for port in &busy {
                port.flush_outbox(now, fabric);
            }
            now += 1;
        }
        debug_assert!(
            !fabric.has_deliveries(),
            "a delivery fell inside its window"
        );
    }

    /// Run for `cycles`, in lookahead windows: bit-identical to calling
    /// [`Rack::tick`] `cycles` times.
    ///
    /// Each window runs [`TorusFabric::open_window`] (arrivals due inside
    /// it into the ports), every chip's [`Chip::run`] to the window end,
    /// then the replay of the window's outboxes into the fabric. A window
    /// lasts the fabric's [`lookahead`](TorusFabric::lookahead) — shorter
    /// only where the run ends or a fault event fires. With one worker
    /// (see [`RackSimConfig::threads`]) the chips run inline. With more,
    /// the thread pool lives for the whole call: workers are spawned once,
    /// own static chip chunks, and meet the driver at one barrier pair per
    /// window while the driver thread opens and replays windows.
    ///
    /// # Panics
    /// Propagates the first panic raised inside any chip's tick or the
    /// driver's exchange.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        if cycles > 0 && self.worker_count() > 1 {
            return self.run_threaded(end);
        }
        while self.now < end {
            let start = self.now;
            let stop = self.fabric.open_window(start, end, &self.ports);
            for chip in &mut self.chips {
                chip.run(stop - start);
            }
            Self::replay(&mut self.fabric, &self.ports, start, stop);
            self.now = stop;
            self.sync_rounds += 1;
        }
    }

    /// The windowed loop of [`Rack::run`] with chips computing on worker
    /// threads.
    fn run_threaded(&mut self, end: Cycle) {
        let workers = self.worker_count();
        // Split borrows: workers own disjoint chip chunks for the whole
        // run; the driver keeps the fabric and the port handles.
        let Rack {
            chips,
            fabric,
            ports,
            now,
            sync_rounds,
            ..
        } = self;
        let chunk_len = chips.len().div_ceil(workers);
        // Ceil-divided chunks can come out fewer than `workers` (e.g. 5
        // chips over 4 workers yield 3 chunks of <=2): the barrier must be
        // sized to the threads that actually exist or everyone deadlocks.
        let chunks: Vec<&mut [Chip]> = chips.chunks_mut(chunk_len).collect();
        // One rendezvous opens a window's compute step and one closes it.
        // The driver publishes each window's end (a `Release` store the
        // workers' `Acquire` load pairs with; the barrier orders them as
        // well) before opening it, and
        // after the last window opens one more rendezvous with the end set
        // to `DONE`, which dismisses the workers. A panicking participant
        // — worker *or* driver — keeps honoring the protocol (skipping its
        // work, and the driver opens no further window) so no thread is
        // ever left waiting, and re-raises its payload once the workers
        // are dismissed.
        const DONE: u64 = u64::MAX;
        let barrier = Barrier::new(chunks.len() + 1);
        let window_end = AtomicU64::new(DONE);
        let poisoned = AtomicBool::new(false);
        let mut driver_payload = None;
        std::thread::scope(|s| {
            for chunk in chunks {
                s.spawn(|| {
                    let mut payload = None;
                    loop {
                        barrier.wait();
                        let stop = window_end.load(Ordering::Acquire);
                        if stop == DONE {
                            break;
                        }
                        if payload.is_none() && !poisoned.load(Ordering::Acquire) {
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                for chip in chunk.iter_mut() {
                                    chip.run(Cycle(stop) - chip.now());
                                }
                            }));
                            if let Err(p) = r {
                                poisoned.store(true, Ordering::Release);
                                payload = Some(p);
                            }
                        }
                        barrier.wait();
                    }
                    if let Some(p) = payload {
                        resume_unwind(p);
                    }
                });
            }
            // Driver loop. Exchange panics (e.g. a hard assert on an
            // out-of-range destination inside the replay) must not unwind
            // past the barrier protocol: workers would block on a
            // rendezvous the driver never reaches and the scope join would
            // deadlock. Trap them, dismiss the workers, re-raise after the
            // scope.
            let trap = |driver_payload: &mut Option<_>, f: &mut dyn FnMut()| {
                if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                    poisoned.store(true, Ordering::Release);
                    *driver_payload = Some(p);
                }
            };
            while *now < end && !poisoned.load(Ordering::Acquire) {
                let start = *now;
                let mut stop = None;
                trap(&mut driver_payload, &mut || {
                    stop = Some(fabric.open_window(start, end, ports));
                });
                let Some(stop) = stop else { break };
                window_end.store(stop.0, Ordering::Release);
                barrier.wait(); // open the compute step
                barrier.wait(); // close the compute step
                if poisoned.load(Ordering::Acquire) {
                    break;
                }
                trap(&mut driver_payload, &mut || {
                    Self::replay(fabric, ports, start, stop);
                    *now = stop;
                    *sync_rounds += 1;
                });
            }
            window_end.store(DONE, Ordering::Release);
            barrier.wait(); // dismiss the workers
        });
        if let Some(p) = driver_payload {
            resume_unwind(p);
        }
    }

    /// Total operations completed across all nodes (successful and failed
    /// — see [`Rack::failed_ops`]).
    pub fn completed_ops(&self) -> u64 {
        self.chips.iter().map(Chip::completed_ops).sum()
    }

    /// Operations rack-wide that completed with an error CQ status (the
    /// NI gave up after a link or node death) — the blast radius the
    /// failure sweep reports.
    pub fn failed_ops(&self) -> u64 {
        self.chips.iter().map(Chip::failed_ops).sum()
    }

    /// Remote reads rack-wide that completed with an error CQ status —
    /// the user-visible losses the availability sweep reports. At `k >= 2`
    /// with replay enabled this should stay zero for reads issued by
    /// surviving nodes (a dead node's own in-flight work is not counted as
    /// lost user traffic by the sweep; see `Chip::failed_reads` per node).
    pub fn failed_reads(&self) -> u64 {
        self.chips.iter().map(Chip::failed_reads).sum()
    }

    /// Operations rack-wide that completed ok but through a recovery path
    /// (WQ replay or a quorum that absorbed a dead leg) — the degraded-mode
    /// work an availability study weighs against outright losses.
    pub fn degraded_ops(&self) -> u64 {
        self.chips.iter().map(Chip::degraded_ops).sum()
    }

    /// Aggregate RGP/RCP backend statistics over every backend of every
    /// node — rack-wide ITT timeout/retry pressure.
    pub fn backend_stats(&self) -> ni_rmc::BackendStats {
        let mut total = ni_rmc::BackendStats::default();
        for chip in &self.chips {
            total.merge(&chip.backend_stats());
        }
        total
    }

    /// Fault-path counters of the shared fabric (packets dropped by dead
    /// nodes, forward attempts stalled at dead links, escape hops taken).
    pub fn fault_stats(&self) -> FaultStats {
        self.fabric.fault_stats()
    }

    /// Application payload bytes moved rack-wide (RCP deliveries plus RRPP
    /// services, summed over nodes — §6.2's definition per node).
    pub fn app_payload_bytes(&self) -> u64 {
        self.chips.iter().map(Chip::app_payload_bytes).sum()
    }

    /// Fabric-wide traffic counters.
    pub fn fabric_stats(&self) -> ni_fabric::FabricStats {
        self.fabric.stats()
    }

    /// Per-directed-link traffic report of the shared fabric.
    pub fn link_report(&self) -> Vec<LinkReport> {
        self.fabric.link_report()
    }

    /// As [`link_report`](Rack::link_report), reusing `out`'s allocation —
    /// for periodic sampling inside measurement loops.
    pub fn link_report_into(&self, out: &mut Vec<LinkReport>) {
        self.fabric.link_report_into(out);
    }

    /// Per-link load imbalance: busiest link's total bytes over the mean of
    /// all loaded links (1.0 when balanced or idle); allocation-free.
    pub fn link_byte_skew(&self) -> f64 {
        self.fabric.link_byte_skew()
    }

    /// Write the per-directed-link report to `w` in the given `format` —
    /// machine-readable output for hotspot and congestion studies.
    pub fn write_link_report(&self, w: &mut dyn Write, format: LinkReportFormat) -> io::Result<()> {
        let links = self.link_report();
        let body = match format {
            LinkReportFormat::Csv => link_report_csv(&links),
            LinkReportFormat::Json => link_report_json(&links),
        };
        w.write_all(body.as_bytes())
    }

    /// Mean RRPP service latency of each node, in node-id order — skewed
    /// scenarios show queueing on the hot node here.
    pub fn rrpp_mean_latencies(&self) -> Vec<f64> {
        self.chips.iter().map(Chip::rrpp_mean_latency).collect()
    }

    /// Rack-wide distribution of end-to-end remote-read latencies (sync,
    /// async, and NUMA reads), merged over every core of every node in
    /// node-id order — `p99` of this is the tail metric the routing and
    /// congestion sweeps report.
    pub fn read_latency_histogram(&self) -> ni_engine::Histogram {
        let mut h = ni_engine::Histogram::new();
        for chip in &self.chips {
            h.merge(&chip.read_latency_histogram());
        }
        h
    }

    /// Rack-wide latency distribution of *degraded* remote reads — those
    /// completed through a WQ replay to an alternate replica — merged over
    /// every node. Reported next to [`Rack::read_latency_histogram`] so
    /// failover cost is a distribution of its own, not a fattening of the
    /// healthy tail.
    pub fn degraded_read_latency_histogram(&self) -> ni_engine::Histogram {
        let mut h = ni_engine::Histogram::new();
        for chip in &self.chips {
            h.merge(&chip.degraded_read_latency_histogram());
        }
        h
    }

    /// Rack-wide per-tenant SLO accumulators: every chip's
    /// [`Chip::tenant_stats`] merged by tenant tag in node-id order. The
    /// input `experiments::serving_sweep` summarizes into per-tenant
    /// offered/achieved load, goodput, and latency percentiles.
    pub fn tenant_stats(&self) -> ni_metrics::TenantStats {
        let mut map = ni_metrics::TenantStats::new();
        for chip in &self.chips {
            ni_metrics::merge_tenant_stats(&mut map, &chip.tenant_stats());
        }
        map
    }

    /// Largest per-link peak bandwidth seen so far, GB/s.
    pub fn peak_link_gbps(&self) -> f64 {
        self.fabric.peak_link_gbps()
    }

    /// Total torus link traversals completed.
    pub fn hops_traversed(&self) -> u64 {
        self.fabric.hops_traversed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_patterns_stay_in_range_and_avoid_self() {
        // Even and odd dimensions: the Opposite antipode must never
        // self-target on a 3x3x3 rack either (regression for odd rings).
        for t in [Torus3D::new(2, 2, 2), Torus3D::new(3, 3, 3)] {
            for p in [
                TrafficPattern::Neighbor,
                TrafficPattern::Uniform,
                TrafficPattern::Opposite,
            ] {
                for node in 0..t.nodes() {
                    for core in 0..64 {
                        let d = p.target(t, node, core);
                        assert!(d < t.nodes());
                        assert_ne!(d, node, "{p:?} node {node} core {core} targets itself");
                    }
                }
            }
        }
    }

    #[test]
    fn opposite_is_the_antipode() {
        let t = Torus3D::new(4, 4, 2);
        let d = TrafficPattern::Opposite.target(t, 0, 0);
        assert_eq!(t.hops(0, d), t.max_hops());
    }

    /// Regression: on odd torus dimensions (3x3x3) every node's Opposite
    /// target must still be at the full network diameter.
    #[test]
    fn opposite_is_lee_maximal_on_odd_dimensions() {
        let t = Torus3D::new(3, 3, 3);
        for node in 0..t.nodes() {
            let d = TrafficPattern::Opposite.target(t, node, 0);
            assert_eq!(
                t.hops(node, d),
                t.max_hops(),
                "node {node}: target {d} is not Lee-maximal"
            );
        }
    }

    /// Regression: when ceil-divided chip chunks come out fewer than the
    /// requested workers (5 chips over 4 threads yield 3 chunks), the
    /// barrier must be sized to the real thread count — this config used
    /// to deadlock. Also asserts the uneven split stays
    /// bit-identical to the serial path.
    #[test]
    fn uneven_chip_chunks_neither_deadlock_nor_diverge() {
        let build = |threads: usize| {
            let cfg = RackSimConfig {
                torus: Torus3D::new(5, 1, 1),
                chip: ChipConfig {
                    active_cores: 1,
                    ..ChipConfig::default()
                },
                traffic: TrafficPattern::Neighbor,
                threads,
                ..RackSimConfig::default()
            };
            Rack::new(cfg, Workload::SyncRead { size: 64 })
        };
        let mut serial = build(1);
        serial.run(1_200);
        let mut uneven = build(4);
        uneven.run(1_200);
        assert!(serial.completed_ops() > 0, "reference run must do work");
        assert_eq!(uneven.completed_ops(), serial.completed_ops());
        assert_eq!(uneven.hops_traversed(), serial.hops_traversed());
        assert_eq!(
            uneven.fabric_stats().sent.get(),
            serial.fabric_stats().sent.get()
        );
    }

    /// A panic on the *driver* thread during the exchange (here: the
    /// fabric's hard assert on an out-of-range destination firing inside
    /// the outbox replay) must propagate out of the threaded `Rack::run`
    /// instead of leaving the workers parked on a barrier the driver never
    /// reaches. Runs under a watchdog so a regression fails instead of
    /// hanging the suite.
    #[test]
    fn driver_phase_panic_propagates_instead_of_deadlocking() {
        use crate::core_model::REMOTE_BASE;
        use crate::scenario::{Op, OpCtx};
        use ni_mem::Addr;
        use ni_qp::RemoteOp;

        #[derive(Debug)]
        struct BadDest;
        impl Scenario for BadDest {
            fn name(&self) -> &str {
                "bad-dest"
            }
            fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
                Box::new(BadDest)
            }
            fn next_op(&mut self, _ctx: &OpCtx) -> Op {
                // Destination far outside the 4-node torus: the injection
                // boundary's hard assert fires on the driver thread.
                Op::Remote {
                    op: RemoteOp::Read,
                    to: 999,
                    addr: Addr(REMOTE_BASE),
                    size: 64,
                    sync: true,
                }
            }
        }

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = RackSimConfig {
                torus: Torus3D::new(4, 1, 1),
                chip: ChipConfig {
                    active_cores: 1,
                    ..ChipConfig::default()
                },
                threads: 2,
                ..RackSimConfig::default()
            };
            let mut rack = Rack::with_scenario(cfg, &BadDest);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rack.run(500)));
            let _ = tx.send(r.is_err());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(panicked) => assert!(panicked, "driver panic must surface to the caller"),
            Err(_) => panic!("threaded run deadlocked on a driver-phase panic"),
        }
    }

    /// A panic inside one chip's compute step must propagate out of the
    /// threaded `Rack::run` instead of deadlocking the barrier protocol.
    #[test]
    fn worker_panic_propagates_out_of_the_threaded_run() {
        let cfg = RackSimConfig {
            torus: Torus3D::new(4, 1, 1),
            chip: ChipConfig {
                active_cores: 1,
                ..ChipConfig::default()
            },
            traffic: TrafficPattern::Neighbor,
            threads: 2,
            ..RackSimConfig::default()
        };
        let mut rack = Rack::new(cfg, Workload::SyncRead { size: 64 });
        // Arm node 3 with a generator that panics on first issue, so the
        // explosion happens inside a worker's compute phase.
        #[derive(Debug)]
        struct Bomb;
        impl Scenario for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn for_core(&self, _ctx: &crate::scenario::OpCtx) -> Box<dyn Scenario> {
                Box::new(Bomb)
            }
            fn next_op(&mut self, _ctx: &crate::scenario::OpCtx) -> crate::scenario::Op {
                panic!("bomb scenario detonated");
            }
        }
        rack.chip_mut(3).cores[0].reset_scenario(Box::new(Bomb));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rack.run(50)));
        assert!(r.is_err(), "worker panic must surface to the caller");
    }

    #[test]
    fn link_report_serializes_to_csv_and_json() {
        let cfg = RackSimConfig {
            torus: Torus3D::new(2, 1, 1),
            chip: ChipConfig {
                active_cores: 1,
                ..ChipConfig::default()
            },
            ..RackSimConfig::default()
        };
        let mut rack = Rack::new(cfg, Workload::SyncRead { size: 64 });
        rack.run(3_000);
        let mut csv = Vec::new();
        rack.write_link_report(&mut csv, LinkReportFormat::Csv)
            .expect("in-memory write");
        let csv = String::from_utf8(csv).expect("utf8");
        // Header plus one row per directed link (2 nodes x 6 directions).
        assert_eq!(csv.lines().count(), 1 + 12);
        assert!(csv.starts_with(LinkReport::CSV_HEADER));
        let mut json = Vec::new();
        rack.write_link_report(&mut json, LinkReportFormat::Json)
            .expect("in-memory write");
        let json = String::from_utf8(json).expect("utf8");
        assert_eq!(json.matches("\"node\":").count(), 12);
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }
}
