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
//!    With several workers the chips are split into static chunks: the
//!    driver runs the first, and each other chunk's worker thread receives
//!    the window end on a channel and replies on another when done — one
//!    handoff per worker per window.
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
//! one worker, and N workers produce the same [`Rack::snapshot`] and
//! per-chip [`Chip::snapshot`]s for the same seed. Under
//! the default [`TickMode::Event`](crate::TickMode::Event) a chip whose
//! every component sleeps past the current cycle, with nothing due at its
//! port, skips the cycle, and [`Chip::run`] jumps whole idle stretches, so
//! huge racks with sparse activity stay cheap.
//!
//! Worker count: [`RackSimConfig::threads`] (0 = the `RACKNI_THREADS`
//! environment variable, else [`std::thread::available_parallelism`]).
//!
//! Workloads come from a [`Scenario`]: [`Rack::with_scenario`] hands every
//! active core of every node its own seeded generator. The paper's
//! microbenchmarks are a [`Synthetic`](crate::Synthetic) scenario, whose
//! [`TrafficPattern`] picks each core's destination node.

use std::io::{self, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

use ni_engine::parallel::{default_threads, par_map_threads};
use ni_engine::Cycle;
use ni_fabric::{
    link_report_csv, Fabric, FabricPort, FaultPlan, FaultStats, LinkReport, RoutingKind, Torus3D,
    TorusFabric, TorusFabricConfig,
};

use crate::chip::Chip;
use crate::config::ChipConfig;
use crate::scenario::Scenario;
use crate::snapshot::Snapshot;

/// How active cores choose their remote destination node (the destination
/// vocabulary of the built-in [`Synthetic`](crate::Synthetic) scenario).
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
    /// Worker threads for the compute step of [`Rack::run`] (and for chip
    /// construction). `0` resolves at run time via
    /// [`default_threads`] (the `RACKNI_THREADS` environment variable,
    /// else the host's available parallelism); `1` runs every chip on the
    /// calling thread. Results are bit-identical at every setting.
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

    /// Compute-step workers [`Rack::run`] will actually use, the calling
    /// thread included: the configured
    /// [`RackSimConfig::worker_threads`] clamped to the chip count (a
    /// 8-chip rack never runs more than 8 workers). Report this — not the
    /// raw config — in throughput trajectories.
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
    /// [`TorusFabric::lookahead`]), and each round costs one channel
    /// handoff per worker thread when chips compute on several.
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

    /// Compute step of a window for one chunk of chips: run each to the
    /// window end `stop`.
    fn compute(chips: &mut [Chip], stop: Cycle) {
        for chip in chips {
            chip.run(stop - chip.now());
        }
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
    /// only where the run ends or a fault event fires.
    ///
    /// The chips are split into at most
    /// [`worker_count`](Rack::worker_count) static chunks. The calling
    /// thread opens and replays every window and runs the first chunk;
    /// each other chunk gets a scoped worker that lives for the whole
    /// call, receives each window's end on a channel and replies on a
    /// second one when its chips reach it. With one worker no thread is
    /// spawned.
    ///
    /// # Panics
    /// Propagates a panic raised inside a chip's run or the driver's
    /// exchange. A worker that panics drops its reply channel, so the
    /// driver's wait for it panics in turn; an unwinding driver drops
    /// every window channel, which ends the other workers.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        let chunk_len = self.chips.len().div_ceil(self.worker_count());
        // Split borrows: each chunk is owned by one thread for the whole
        // run; the driver keeps the fabric and the port handles.
        let Rack {
            chips,
            fabric,
            ports,
            now,
            sync_rounds,
            ..
        } = self;
        let mut chunks = chips.chunks_mut(chunk_len);
        let own = chunks.next().expect("a torus has at least one node");
        std::thread::scope(|s| {
            let workers: Vec<(Sender<Cycle>, Receiver<()>)> = chunks
                .map(|chunk| {
                    let (window_tx, window_rx) = channel();
                    let (done_tx, done_rx) = channel();
                    s.spawn(move || {
                        for stop in window_rx {
                            Self::compute(chunk, stop);
                            if done_tx.send(()).is_err() {
                                break;
                            }
                        }
                    });
                    (window_tx, done_rx)
                })
                .collect();
            while *now < end {
                let start = *now;
                let stop = fabric.open_window(start, end, ports);
                for (window, _) in &workers {
                    window.send(stop).expect("a rack worker panicked");
                }
                Self::compute(own, stop);
                for (_, done) in &workers {
                    done.recv().expect("a rack worker panicked");
                }
                Self::replay(fabric, ports, start, stop);
                *now = stop;
                *sync_rounds += 1;
            }
        });
    }

    /// Every counter of the rack: the chips' [snapshots](Chip::snapshot)
    /// merged in node order, with `fabric`, `faults` and `hops` from the
    /// shared torus rather than summed over the chips' ports.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for chip in &self.chips {
            s.merge(&chip.snapshot());
        }
        s.fabric = self.fabric.stats();
        s.faults = self.fabric.fault_stats();
        s.hops = self.fabric.hops_traversed();
        s
    }

    /// Fault-path counters of the shared fabric (packets dropped by dead
    /// nodes, forward attempts stalled at dead links, escape hops taken).
    pub fn fault_stats(&self) -> FaultStats {
        self.fabric.fault_stats()
    }

    /// Fabric-wide traffic counters.
    pub fn fabric_stats(&self) -> ni_fabric::FabricStats {
        self.fabric.stats()
    }

    /// Per-directed-link traffic report of the shared fabric.
    pub fn link_report(&self) -> Vec<LinkReport> {
        self.fabric.link_report()
    }

    /// Per-link load imbalance: busiest link's total bytes over the mean of
    /// all loaded links (1.0 when balanced or idle); allocation-free.
    pub fn link_byte_skew(&self) -> f64 {
        self.fabric.link_byte_skew()
    }

    /// Write the per-directed-link report to `w` as CSV (one header line
    /// plus one row per directed link) — machine-readable output for
    /// hotspot and congestion studies.
    pub fn write_link_report(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(link_report_csv(&self.link_report()).as_bytes())
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
    use crate::core_model::Workload;
    use crate::scenario::Synthetic;

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
    /// requested workers (5 chips over 4 threads yield 3 chunks), the run
    /// must wait only on the threads that exist — this config used to
    /// deadlock. Also asserts the uneven split stays bit-identical to the
    /// serial path.
    #[test]
    fn uneven_chip_chunks_neither_deadlock_nor_diverge() {
        let build = |threads: usize| {
            let cfg = RackSimConfig {
                torus: Torus3D::new(5, 1, 1),
                chip: ChipConfig {
                    active_cores: 1,
                    ..ChipConfig::default()
                },
                threads,
                ..RackSimConfig::default()
            };
            let read = Synthetic::from_workload(Workload::SyncRead { size: 64 })
                .with_pattern(TrafficPattern::Neighbor);
            Rack::with_scenario(cfg, &read)
        };
        let mut serial = build(1);
        serial.run(1_200);
        let mut uneven = build(4);
        uneven.run(1_200);
        assert!(
            serial.snapshot().cores.completed > 0,
            "reference run must do work"
        );
        assert_eq!(uneven.snapshot().diff(&serial.snapshot()), None);
        for (a, b) in uneven.chips().iter().zip(serial.chips()) {
            assert_eq!(
                a.snapshot().diff(&b.snapshot()),
                None,
                "node {}",
                a.node_id()
            );
        }
    }

    /// A panic on the *driver* thread during the exchange (here: the
    /// fabric's hard assert on an out-of-range destination firing inside
    /// the outbox replay) must propagate out of the threaded `Rack::run`
    /// instead of leaving the workers waiting for a window the driver never
    /// sends. Runs under a watchdog so a regression fails instead of
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

    /// A panic inside one chip's compute step on a worker thread must
    /// propagate out of the threaded `Rack::run` instead of leaving the
    /// driver waiting for that worker's reply.
    #[test]
    fn worker_panic_propagates_out_of_the_threaded_run() {
        let cfg = RackSimConfig {
            torus: Torus3D::new(4, 1, 1),
            chip: ChipConfig {
                active_cores: 1,
                ..ChipConfig::default()
            },
            threads: 2,
            ..RackSimConfig::default()
        };
        let read = Synthetic::from_workload(Workload::SyncRead { size: 64 })
            .with_pattern(TrafficPattern::Neighbor);
        let mut rack = Rack::with_scenario(cfg, &read);
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
    fn link_report_serializes_to_csv() {
        let cfg = RackSimConfig {
            torus: Torus3D::new(2, 1, 1),
            chip: ChipConfig {
                active_cores: 1,
                ..ChipConfig::default()
            },
            ..RackSimConfig::default()
        };
        let read = Synthetic::from_workload(Workload::SyncRead { size: 64 });
        let mut rack = Rack::with_scenario(cfg, &read);
        rack.run(3_000);
        let mut csv = Vec::new();
        rack.write_link_report(&mut csv).expect("in-memory write");
        let csv = String::from_utf8(csv).expect("utf8");
        // Header plus one row per directed link (2 nodes x 6 directions).
        assert_eq!(csv.lines().count(), 1 + 12);
        assert!(csv.starts_with(LinkReport::CSV_HEADER));
    }
}
