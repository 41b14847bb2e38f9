//! The simulated node: cores, caches, directories, memory, RMC pipelines,
//! interconnect, network router and rack fabric, ticked in lock step.

use std::collections::{BTreeMap, VecDeque};

use ni_coherence::{wire_of, CacheComplex, ClientKind, CohMsg, DirectoryBank, Egress, HitRun};
use ni_engine::stats::sum;
use ni_engine::{Cycle, DelayLine};
use ni_fabric::{Fabric, FabricStats, RackConfig, RackEmulator, RemoteResp, ReplicaMap, Torus3D};
use ni_mem::{Addr, BlockAddr, MemConfig, MemRequestKind, MemoryController};
use ni_noc::{
    Coord, Interconnect, MeshConfig, MeshNoc, MessageClass, NocNode, NocOutNoc, NocStats, Packet,
    GRID,
};
use ni_qp::QueuePair;
use ni_rmc::{NiBackend, NiFrontend, NiMsg, NiPlacement, RmcEgress, Rrpp, TraceTable};

use crate::config::{ChipConfig, TickMode, Topology};
use crate::core_model::{Core, Workload, NUMA_TID_BASE};
use crate::scenario::{core_seed, OpCtx, Scenario, Synthetic};
use crate::snapshot::{QpStats, Snapshot, Work};

/// Wake timestamp meaning "only an external delivery re-activates this
/// component" (no self-driven event pending).
const NEVER: Cycle = Cycle(u64::MAX);

/// One component class's wake timestamps ([`TickMode::Event`]) together
/// with their minimum: component `i` is visited in its subphase iff
/// `slots[i] <= now`, and a subphase whose minimum lies past `now` returns
/// without touching a slot. [`NEVER`] marks a component only external
/// input can revive.
///
/// The minimum is exact: a pass rebuilds it from every slot it walks
/// ([`is_due`](WakeSlots::is_due) folds the slots it leaves alone,
/// [`set`](WakeSlots::set) the ones it refreshes), and every delivery path
/// lowers a slot and the minimum together.
struct WakeSlots {
    slots: Vec<Cycle>,
    min: Cycle,
}

impl WakeSlots {
    /// `n` components, all due at once (the first tick visits them all).
    fn new(n: usize) -> WakeSlots {
        let mut w = WakeSlots {
            slots: vec![Cycle::ZERO; n],
            min: NEVER,
        };
        w.reset();
        w
    }

    /// Start a subphase pass at `now`: `false`, with nothing touched, when
    /// no slot is due. Otherwise the minimum restarts from [`NEVER`] and the
    /// pass must call [`is_due`](WakeSlots::is_due) on every slot and
    /// [`set`](WakeSlots::set) every slot it finds due.
    fn begin_pass(&mut self, now: Cycle) -> bool {
        if self.min > now {
            return false;
        }
        self.min = NEVER;
        true
    }

    /// Whether component `i` is due at `now`. A slot that is not stays as
    /// it is, so it is folded into the minimum here.
    fn is_due(&mut self, i: usize, now: Cycle) -> bool {
        let at = self.slots[i];
        if at <= now {
            return true;
        }
        self.min = self.min.min(at);
        false
    }

    /// Refresh component `i`'s slot after a visit.
    fn set(&mut self, i: usize, at: Cycle) {
        self.slots[i] = at;
        self.min = self.min.min(at);
    }

    /// A delivery or submission gave component `i` work at `at`.
    fn lower(&mut self, i: usize, at: Cycle) {
        self.slots[i] = self.slots[i].min(at);
        self.min = self.min.min(at);
    }

    /// Component `i` went quiet outside its own subphase (a frontend
    /// parked): its slot becomes [`NEVER`], and the minimum is refolded
    /// when that slot held it.
    fn clear(&mut self, i: usize) {
        if std::mem::replace(&mut self.slots[i], NEVER) == self.min {
            self.min = self.slots.iter().copied().min().unwrap_or(NEVER);
        }
    }

    /// Make every component due (see [`Chip::wake`]).
    fn reset(&mut self) {
        self.slots.fill(Cycle::ZERO);
        self.min = if self.slots.is_empty() {
            NEVER
        } else {
            Cycle::ZERO
        };
    }

    /// Debug audit at `now`: the minimum equals a fresh fold of the
    /// slots, and each slot equals its component's next activity `next(i)`
    /// once both are clamped to `now`.
    fn audit(
        &self,
        class: &str,
        now: Cycle,
        next: impl Fn(usize) -> Option<Cycle>,
    ) -> Result<(), String> {
        let fold = self.slots.iter().copied().min().unwrap_or(NEVER);
        if self.min != fold {
            return Err(format!(
                "{class}: minimum {:?}, slots fold to {fold:?}",
                self.min
            ));
        }
        for (i, &at) in self.slots.iter().enumerate() {
            let (at, due) = (at.max(now), next(i).map_or(NEVER, |t| t.max(now)));
            if at != due {
                return Err(format!("{class} {i}: slot {at:?}, next activity {due:?}"));
            }
        }
        Ok(())
    }
}

ni_engine::stats! {
    /// How many times a tick gave each class's components their turn: every
    /// component every cycle under [`TickMode::Poll`], only the due ones under
    /// [`TickMode::Event`]. A deterministic work counter, independent of the
    /// host, so a change to the wake bookkeeping shows as a count and not only
    /// as wall-clock time. Deliveries between subphases (a completion handed
    /// to a core or frontend, a packet to a directory) are not visits.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Visits {
        /// Cores.
        pub cores: u64,
        /// RGP/RCP frontends.
        pub frontends: u64,
        /// RGP/RCP backends.
        pub backends: u64,
        /// Remote request processing pipelines.
        pub rrpps: u64,
        /// Cache complexes: the tiles', then the NIedge caches.
        pub complexes: u64,
        /// Directory banks.
        pub dirs: u64,
        /// Memory controllers.
        pub mcs: u64,
    }
}

/// QP region base (bytes).
const QP_BASE: u64 = 0x0100_0000;
/// Per-core QP region stride (bytes).
const QP_STRIDE: u64 = 0x4000;
/// Local buffer region base (bytes).
const LBUF_BASE: u64 = 0x4000_0000;
/// Per-core local buffer size (bytes): 64 cores x 16MB = 1GB >> 16MB LLC.
const LBUF_BYTES: u64 = 0x0100_0000;

/// NOC payload: coherence or RMC messages.
#[derive(Clone, Copy, Debug)]
pub enum ChipMsg {
    /// A coherence message for a client of the given kind at the endpoint.
    Coh {
        /// Addressee kind at the destination endpoint.
        kind: ClientKind,
        /// The protocol message.
        msg: CohMsg,
    },
    /// An RMC message.
    Ni(NiMsg),
}

/// Home directory node under static block interleaving (mesh: bank per tile).
fn home_mesh(b: BlockAddr, n_banks: u32) -> NocNode {
    let t = (b.0 % u64::from(n_banks)) as u8;
    NocNode::tile(t % GRID, t / GRID)
}

/// Home directory node on NOC-Out (bank per LLC tile).
fn home_nocout(b: BlockAddr, n_banks: u32) -> NocNode {
    NocNode::Llc((b.0 % u64::from(n_banks)) as u8)
}

/// The home-directory function of `topology`.
fn home_fn(topology: Topology) -> fn(BlockAddr, u32) -> NocNode {
    match topology {
        Topology::Mesh => home_mesh,
        Topology::NocOut => home_nocout,
    }
}

/// NOC node of tile `i`: both topologies lay tiles out [`GRID`] to a row.
fn tile_node(i: usize) -> NocNode {
    let g = usize::from(GRID);
    NocNode::Tile(Coord::new((i % g) as u8, (i / g) as u8))
}

/// Where the component at `node` sits in its class's vector: a tile's
/// row-major index (the inverse of [`tile_node`]), or an NI block's, LLC's
/// or MC's row or column. Directories, frontends, backends and memory
/// controllers are stored by this position; complexes too, except that NI
/// complexes follow the tiles (see [`Chip::complex_at`]).
fn position(node: NocNode) -> usize {
    match node {
        NocNode::Tile(c) => usize::from(c.y) * usize::from(GRID) + usize::from(c.x),
        NocNode::NiBlock(r) | NocNode::Llc(r) | NocNode::Mc(r) => usize::from(r),
    }
}

/// The NI block a tile's traffic exits through: its mesh row, or its
/// NOC-Out column.
fn edge_of_tile(topology: Topology, i: usize) -> u8 {
    match topology {
        Topology::Mesh => (i / usize::from(GRID)) as u8,
        Topology::NocOut => (i % usize::from(GRID)) as u8,
    }
}

/// Co-located (latch) deliveries between components at the same node.
#[derive(Debug)]
enum Latch {
    Coh {
        dst: NocNode,
        kind: ClientKind,
        src: NocNode,
        msg: CohMsg,
    },
    Ni {
        dst: NocNode,
        msg: NiMsg,
    },
    NetResp {
        backend: usize,
        resp: RemoteResp,
    },
}

/// The simulated node.
pub struct Chip {
    cfg: ChipConfig,
    now: Cycle,
    noc: Box<dyn Interconnect<ChipMsg> + Send>,
    /// Tile complexes `[0..n_cores)`, then edge NI complexes (NIedge only).
    complexes: Vec<CacheComplex>,
    /// Directory banks by [`position`]: one per tile on the mesh, one per
    /// LLC on NOC-Out.
    dirs: Vec<DirectoryBank>,
    /// Memory controllers by row (mesh) or column (NOC-Out). A request's
    /// tag is the position of the directory bank that sent it.
    mcs: Vec<MemoryController>,
    /// Queue pairs, one per core.
    pub qps: Vec<QueuePair>,
    /// Cores, one per tile. Read freely; mutate through
    /// [`Chip::core_mut`], or call [`Chip::wake`] afterwards: the event
    /// tick tracks every core by a wake slot that direct mutation does not
    /// move.
    pub cores: Vec<Core>,
    /// Frontends by [`position`]: per tile, or per NI block (NIedge).
    frontends: Vec<NiFrontend>,
    /// Backends by [`position`]: per tile (NIper-tile), or per NI block.
    backends: Vec<NiBackend>,
    rrpps: Vec<Rrpp>,
    /// This chip's node id in the rack.
    node_id: u16,
    /// The rack fabric behind the network router: the rate-matching
    /// emulator for single-node runs, or a buffered
    /// [`ni_fabric::FabricPort`] the multi-node rack driver exchanges with
    /// the real transport between lookahead windows. `Send` so whole chips
    /// can run on worker threads.
    fabric: Box<dyn Fabric + Send>,
    /// Collected latency tomography.
    pub traces: TraceTable,
    latch: DelayLine<Latch>,
    /// Packets that could not inject yet, FIFO per blocked source node;
    /// a source's queue is dropped as soon as it empties, so the map holds
    /// exactly the blocked sources. Only the head of each queue can
    /// possibly inject (the source's injection port serializes), so
    /// retries cost one attempt per blocked source per cycle, and
    /// point-to-point ordering per source is preserved. Ordered map: retry
    /// order across sources must be deterministic for same-seed runs to
    /// reproduce under congestion.
    backlog: BTreeMap<NocNode, VecDeque<Packet<ChipMsg>>>,
    /// Per-class wake slots ([`TickMode::Event`]). After a visit a slot is
    /// refreshed from the component's `next_activity` (`next_ready_at` for
    /// memory controllers); every delivery path lowers the target's slot,
    /// so a message can never out-sleep its addressee. Slots are exact,
    /// not merely early: a delivery lowers a slot to the addressee's next
    /// activity, never to the delivery cycle, and a parking frontend's slot
    /// is cleared, so the dormant skip engages exactly as often as a rescan
    /// of every component would allow.
    wake_cores: WakeSlots,
    wake_fes: WakeSlots,
    wake_bes: WakeSlots,
    wake_rrpps: WakeSlots,
    wake_cxs: WakeSlots,
    wake_dirs: WakeSlots,
    wake_mcs: WakeSlots,
    /// Cycle before which the dormant fast path may skip whole ticks: the
    /// earliest self-driven event of any component, cores included,
    /// recomputed at the end of every full event tick. `<= now` disables
    /// the skip.
    dormant_until: Cycle,
    /// Full (non-skipped) ticks and component visits per class so far, in
    /// either tick mode; see [`Chip::full_ticks`] and [`Chip::snapshot`].
    work: Work,
}

// The whole node must stay `Send`: the rack driver farms chips out across
// worker threads. This fails to compile if any component regresses.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Chip>()
};

impl Chip {
    /// Build a node behind the paper's rate-matching rack emulator: every
    /// core runs `workload`, cores `>= active_cores` idle. Thin wrapper over
    /// [`Chip::with_scenario`] with a [`Synthetic`] generator.
    pub fn new(cfg: ChipConfig, workload: Workload) -> Chip {
        Chip::with_scenario(cfg, &Synthetic::from_workload(workload))
    }

    /// Build a node behind the paper's rate-matching rack emulator, every
    /// active core driven by its own generator from `scenario`.
    pub fn with_scenario(cfg: ChipConfig, scenario: &dyn Scenario) -> Chip {
        // The chip-level seed is authoritative (reproducible from the
        // ChipConfig alone, emulated or multi-node).
        let emulator = RackEmulator::new(RackConfig {
            seed: cfg.seed,
            ..cfg.rack
        });
        // The emulated rack looks like one remote peer: node 1.
        Chip::with_scenario_on(cfg, scenario, Box::new(emulator), 2, None)
    }

    /// Build a node whose network router hands traffic to `fabric`, every
    /// active core driven by its own generator from `scenario` bound with
    /// the rack geometry (`nodes` peers, `torus` when the fabric is a real
    /// [`ni_fabric::TorusFabric`]). [`crate::Rack`] is the usual caller.
    ///
    /// # Panics
    /// On a replication setting that could not take effect, naming the
    /// field: `k` outside `1..=nodes`, `w` outside `1..=k`, or a non-zero
    /// `replay_budget` without an armed watchdog and `k > 1`.
    pub fn with_scenario_on(
        cfg: ChipConfig,
        scenario: &dyn Scenario,
        fabric: Box<dyn Fabric + Send>,
        nodes: u32,
        torus: Option<Torus3D>,
    ) -> Chip {
        let (rep, rmc) = (cfg.rmc.replication, cfg.rmc);
        assert!(
            (1..=nodes).contains(&u32::from(rep.k)),
            "rmc.replication.k = {} must lie in 1..={nodes}, the node count",
            rep.k
        );
        assert!(
            (1..=rep.k).contains(&rep.w),
            "rmc.replication.w = {} must lie in 1..=k ({})",
            rep.w,
            rep.k
        );
        assert!(
            rmc.replay_budget == 0 || (rmc.itt_timeout > 0 && rep.k > 1),
            "rmc.replay_budget = {} needs itt_timeout > 0 and replication.k > 1",
            rmc.replay_budget
        );
        let n = cfg.n_cores();
        let n_banks = cfg.n_banks();
        let n_edge = cfg.n_edge();
        let home = home_fn(cfg.topology);

        let noc: Box<dyn Interconnect<ChipMsg> + Send> = match cfg.topology {
            Topology::Mesh => Box::new(MeshNoc::new(MeshConfig {
                policy: cfg.routing,
                ..MeshConfig::default()
            })),
            Topology::NocOut => Box::new(NocOutNoc::default()),
        };

        // Tile complexes: NI cache present when frontends are per tile.
        let per_tile_fe = cfg.placement.frontend_per_tile();
        let mut complexes = Vec::new();
        for i in 0..n {
            complexes.push(CacheComplex::new(
                cfg.coherence,
                tile_node(i),
                per_tile_fe,
                home,
                n_banks,
            ));
        }
        // Edge NI complexes (NIedge): the NI cache participating in
        // coherence as its own client at the NI block.
        if cfg.placement == NiPlacement::Edge {
            for r in 0..n_edge {
                let node = NocNode::NiBlock(r as u8);
                complexes.push(CacheComplex::new(cfg.coherence, node, true, home, n_banks));
            }
        }

        // Directory banks.
        let mut dirs = Vec::new();
        for b in 0..n_banks {
            let (node, mc) = match cfg.topology {
                Topology::Mesh => {
                    let node = home_mesh(BlockAddr(u64::from(b)), n_banks);
                    let row = match node {
                        NocNode::Tile(c) => c.y,
                        _ => unreachable!(),
                    };
                    (node, NocNode::Mc(row))
                }
                Topology::NocOut => (NocNode::Llc(b as u8), NocNode::Mc(b as u8)),
            };
            dirs.push(DirectoryBank::new(node, mc));
        }

        let mcs: Vec<MemoryController> = (0..n_edge)
            .map(|_| MemoryController::new(MemConfig::default()))
            .collect();

        // Queue pairs and cores: one per-core generator each, bound to the
        // core's place in the rack and its decorrelated seed.
        let mut qps = Vec::new();
        let mut cores = Vec::new();
        for i in 0..n {
            let wq = Addr(QP_BASE + i as u64 * QP_STRIDE);
            let cq = Addr(QP_BASE + i as u64 * QP_STRIDE + QP_STRIDE / 2);
            qps.push(QueuePair::new(i as u32, wq, cq));
            let mut ctx = OpCtx::bind(cfg.node_id, i, nodes, torus, core_seed(cfg.seed, i));
            ctx.replication = cfg.rmc.replication;
            let gen: Box<dyn Scenario> = if i < cfg.active_cores {
                scenario.for_core(&ctx)
            } else {
                Synthetic::from_workload(Workload::Idle).for_core(&ctx)
            };
            cores.push(Core::new(
                i,
                i as u32,
                gen,
                ctx,
                LBUF_BASE + i as u64 * LBUF_BYTES,
                LBUF_BYTES,
            ));
        }

        // Backends.
        let mut backends = Vec::new();
        if cfg.placement.backend_per_tile() {
            for i in 0..n {
                backends.push(NiBackend::new(
                    tile_node(i),
                    i as u16,
                    cfg.rmc,
                    home,
                    n_banks,
                    Some(NocNode::NiBlock(edge_of_tile(cfg.topology, i))),
                ));
            }
        } else if cfg.placement != NiPlacement::Numa {
            for r in 0..n_edge {
                let node = NocNode::NiBlock(r as u8);
                backends.push(NiBackend::new(node, r as u16, cfg.rmc, home, n_banks, None));
            }
        }

        // K-way replication: every chip derives the identical placement
        // from (geometry, seed, k) — no coordination messages — and every
        // backend shares one read-only map. `k == 1` (the default) leaves
        // the map out entirely: the recovery paths stay off and runs stay
        // bit-identical with pre-replication builds.
        if cfg.rmc.replication.enabled() {
            let rep = cfg.rmc.replication;
            let map = std::sync::Arc::new(match torus {
                Some(t) => ReplicaMap::new(t, rep.seed, rep.k),
                None => ReplicaMap::ring(nodes, rep.seed, rep.k),
            });
            for be in &mut backends {
                be.set_replicas(Some(std::sync::Arc::clone(&map)));
            }
        }

        // Frontends.
        let mut frontends = Vec::new();
        match cfg.placement {
            NiPlacement::Numa => {}
            NiPlacement::Edge => {
                for r in 0..n_edge {
                    let node = NocNode::NiBlock(r as u8);
                    let mut row_qps = [0; GRID as usize];
                    let mut len = 0;
                    for i in 0..n {
                        if edge_of_tile(cfg.topology, i) == r as u8 {
                            row_qps[len] = i as u32;
                            len += 1;
                        }
                    }
                    frontends.push(NiFrontend::new(node, node, &row_qps[..len], cfg.rmc));
                }
            }
            NiPlacement::PerTile | NiPlacement::Split => {
                for i in 0..n {
                    let node = tile_node(i);
                    let backend = if cfg.placement == NiPlacement::PerTile {
                        node
                    } else {
                        NocNode::NiBlock(edge_of_tile(cfg.topology, i))
                    };
                    frontends.push(NiFrontend::new(node, backend, &[i as u32], cfg.rmc));
                }
            }
        }

        // RRPPs: always across the edge.
        let rrpps: Vec<Rrpp> = (0..n_edge)
            .map(|r| Rrpp::new(NocNode::NiBlock(r as u8), cfg.rmc, home, n_banks))
            .collect();

        Chip {
            // The slot vectors come first: they read the component counts
            // before the components move in.
            wake_cores: WakeSlots::new(cores.len()),
            wake_fes: WakeSlots::new(frontends.len()),
            wake_bes: WakeSlots::new(backends.len()),
            wake_rrpps: WakeSlots::new(rrpps.len()),
            wake_cxs: WakeSlots::new(complexes.len()),
            wake_dirs: WakeSlots::new(dirs.len()),
            wake_mcs: WakeSlots::new(mcs.len()),
            cfg,
            now: Cycle::ZERO,
            noc,
            complexes,
            dirs,
            mcs,
            qps,
            cores,
            frontends,
            backends,
            rrpps,
            node_id: cfg.node_id,
            fabric,
            traces: TraceTable::new(),
            latch: DelayLine::new(),
            backlog: BTreeMap::new(),
            dormant_until: Cycle::ZERO,
            work: Work::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// This chip's node id in the rack.
    pub fn node_id(&self) -> u16 {
        self.node_id
    }

    /// Traffic counters of the fabric endpoint behind the network router.
    /// Single-node chips see the emulator's totals; rack-driven chips see
    /// their own port's view (rack-wide totals come from
    /// [`Rack::fabric_stats`](crate::Rack::fabric_stats)).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Directly install a token in this node's memory hierarchy, bypassing
    /// timing (experiment setup: seed the data a remote peer will fetch).
    /// Updates the home LLC bank's copy in place when one exists, else the
    /// backing store; private L1 copies are not touched.
    pub fn poke_block(&mut self, b: BlockAddr, value: u64) {
        let home = self.home_of(b);
        if self.dirs[position(home)].poke_llc(b, value) {
            return;
        }
        let m = usize::from(self.edge_of_node(home));
        self.mcs[m].poke(b, value);
    }

    /// Directly read a token from this node's memory hierarchy, bypassing
    /// timing (end-to-end data verification): the home LLC bank's copy if
    /// resident (NUCA writes land there first), else the backing store.
    pub fn peek_block(&self, b: BlockAddr) -> u64 {
        let home = self.home_of(b);
        if let Some(v) = self.dirs[position(home)].peek_llc(b) {
            return v;
        }
        let m = usize::from(self.edge_of_node(home));
        self.mcs[m].peek(b)
    }

    /// Interconnect statistics.
    pub fn noc_stats(&self) -> &NocStats {
        self.noc.stats()
    }

    /// Application payload bytes moved so far: remote-read data delivered
    /// into local buffers by RCPs plus data sent out by RRPPs (§6.2's
    /// bandwidth definition).
    pub fn app_payload_bytes(&self) -> u64 {
        let be: u64 = self
            .backends
            .iter()
            .map(|b| b.stats().payload_bytes.get())
            .sum();
        let rr: u64 = self
            .rrpps
            .iter()
            .map(|r| r.stats().payload_bytes.get())
            .sum();
        be + rr
    }

    /// Total operations completed by all cores (successful and failed —
    /// see [`Chip::failed_ops`]).
    pub fn completed_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.completed).sum()
    }

    /// Operations that completed with an error CQ status (the NI's ITT
    /// watchdog abandoned the transfer after a link or node death).
    pub fn failed_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.failed).sum()
    }

    /// Operations that completed ok but through a recovery path: a WQ
    /// replay to an alternate replica, or a write quorum that absorbed a
    /// dead fan-out leg.
    pub fn degraded_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.degraded).sum()
    }

    /// Aggregate RGP/RCP backend statistics over every backend of this
    /// chip — the per-node view of ITT pressure, timeouts, and retries.
    pub fn backend_stats(&self) -> ni_rmc::BackendStats {
        sum(self.backends.iter().map(NiBackend::stats))
    }

    /// Chip-wide distribution of end-to-end remote-read latencies, merged
    /// over all cores (see [`Core::read_latency_histogram`] — covers sync,
    /// async, and NUMA reads alike).
    pub fn read_latency_histogram(&self) -> ni_engine::Histogram {
        sum(self.cores.iter().map(Core::read_latency_histogram))
    }

    /// Chip-wide latency distribution of *degraded* remote reads — those
    /// that completed only through a recovery path — kept apart from
    /// [`Chip::read_latency_histogram`] so failover cost is measurable
    /// instead of smearing the healthy tail.
    pub fn degraded_read_latency_histogram(&self) -> ni_engine::Histogram {
        sum(self.cores.iter().map(Core::degraded_read_latency_histogram))
    }

    /// Per-tenant SLO accumulators: every core's application-level counts
    /// and read-latency distribution, grouped by the tenant tag its bound
    /// generator reports ([`Scenario::tenant`]).
    /// Single-tenant scenarios land under tag 0; a
    /// [`TenantMix`](crate::TenantMix) splits cores across its tags. Merge
    /// chip maps rack-wide with [`ni_metrics::merge_tenant_stats`].
    pub fn tenant_stats(&self) -> ni_metrics::TenantStats {
        let mut map = ni_metrics::TenantStats::new();
        for c in &self.cores {
            let acc = map.entry(c.scenario().tenant()).or_default();
            acc.issued += c.stats.issued;
            acc.completed += c.stats.completed;
            acc.failed += c.stats.failed;
            acc.degraded += c.stats.degraded;
            acc.bytes += c.stats.bytes_completed;
            acc.latency.merge(c.read_latency_histogram());
        }
        map
    }

    /// Every counter of this chip, each component class summed in index
    /// order. `faults` and `hops` stay zero: the torus keeps them (see
    /// [`Rack::snapshot`](crate::Rack::snapshot)). The hits of parked poll
    /// loops, the frontends' and the cores', count as settling them now
    /// would credit them, so the reading is the poll tick's.
    pub fn snapshot(&self) -> Snapshot {
        let mut complexes = sum(self.complexes.iter().map(CacheComplex::stats));
        let (now, qps) = (self.now, &self.qps);
        let fes = self.frontends.iter().map(|f| f.parked_run(now, qps));
        let cores = self
            .cores
            .iter()
            .zip(qps)
            .map(|(c, q)| c.parked_run(now, q));
        complexes.hits.add(fes.chain(cores).map(|r| r.hits()).sum());
        Snapshot {
            cores: sum(self.cores.iter().map(|c| &c.stats)),
            backends: self.backend_stats(),
            rrpps: sum(self.rrpps.iter().map(Rrpp::stats)),
            complexes,
            dirs: sum(self.dirs.iter().map(DirectoryBank::stats)),
            mcs: sum(self.mcs.iter().map(MemoryController::stats)),
            noc: self.noc_stats().clone(),
            fabric: self.fabric_stats(),
            qps: QpStats {
                completions_written: self.qps.iter().map(QueuePair::completions_written).sum(),
                inflight: self.qps.iter().map(|q| q.inflight() as u64).sum(),
            },
            reads: self.read_latency_histogram(),
            degraded_reads: self.degraded_read_latency_histogram(),
            tenants: self.tenant_stats(),
            work: self.work,
            ..Snapshot::default()
        }
    }

    /// Rebind every active core to a fresh generator from the prototype
    /// `scenario` (idle filler cores stay idle) and wake the chip. The
    /// phase-change entry point for diurnal/bursty serving studies:
    /// in-flight operations drain normally, new issues come from the new
    /// phase's generators, per-core seeds are unchanged.
    pub fn reset_scenario(&mut self, scenario: &dyn Scenario) {
        // Wake first: settling a parked core credits its `next_op` calls,
        // which belong to the generator it is about to drop.
        self.wake();
        let active = self.cfg.active_cores;
        for c in self.cores.iter_mut().take(active) {
            c.rebind_scenario(scenario);
        }
    }

    /// Mutable access to core `i` (workload resets, retargeting). The chip
    /// is [woken](Chip::wake) first, like
    /// [`Rack::chip_mut`](crate::Rack::chip_mut): direct mutation bypasses
    /// the core's wake slot, and a woken chip revisits every core on its
    /// next tick.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        self.wake();
        &mut self.cores[i]
    }

    /// Mean zero-load RRPP service latency measured so far.
    pub fn rrpp_mean_latency(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for r in &self.rrpps {
            let s = r.stats().serviced.get();
            if s > 0 {
                sum += r.mean_latency() * s as f64;
                n += s as u32;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Advance the node by one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        // Advance the fabric first so this cycle's arrivals are visible.
        // For a chip-owned fabric (emulator, direct TorusFabric) this is
        // the once-per-cycle advance; a rack-driven chip holds a buffered
        // port whose tick is a no-op (the driver ticks the shared fabric).
        self.fabric.tick(now);
        match self.cfg.tick_mode {
            TickMode::Poll => self.tick_poll(now),
            TickMode::Event => self.tick_event(now),
        }
    }

    /// The poll-everything reference tick: every component of every class
    /// is visited every cycle.
    fn tick_poll(&mut self, now: Cycle) {
        self.retry_backlog(now);
        self.pump_fabric(now);
        self.pump_latch(now);
        self.tick_cores(now, false);
        self.tick_frontends(now, false);
        self.tick_rmc_backends(now, false);
        self.tick_rrpps(now, false);
        self.tick_complexes(now, false);
        self.tick_dirs(now, false);
        self.tick_mcs(now, false);
        self.noc.tick(now);
        self.drain_noc(now);
        self.now += 1;
        self.work.full_ticks += 1;
    }

    /// The event-driven tick: identical subphase order to
    /// [`Chip::tick_poll`], but each component is visited only when its
    /// wake slot is due, a subphase with nothing due returns at once, and a
    /// chip whose every self-driven event lies in the future skips the
    /// cycle outright. Every skipped visit is provably the no-op the poll
    /// loop would have performed, so the two modes stay bit-identical in
    /// all observables.
    fn tick_event(&mut self, now: Cycle) {
        // Dormant fast path: all work, cores included, is scheduled past
        // `now` and the fabric endpoint has nothing due by `now`. A rack
        // port may hold arrivals due later in its window and emissions
        // awaiting the driver's replay; neither needs this cycle.
        if now < self.dormant_until && self.fabric.next_event(now).is_none_or(|at| at > now) {
            self.now += 1;
            return;
        }
        self.retry_backlog(now);
        self.pump_fabric(now);
        self.pump_latch(now);
        self.tick_cores(now, true);
        self.tick_frontends(now, true);
        self.tick_rmc_backends(now, true);
        self.tick_rrpps(now, true);
        self.tick_complexes(now, true);
        self.tick_dirs(now, true);
        self.tick_mcs(now, true);
        // The NOC ticks and drains unconditionally in a full tick, exactly
        // like the poll loop (an idle NOC tick is a strict no-op; skipping
        // happens at whole-cycle granularity in the dormant path instead).
        self.noc.tick(now);
        self.drain_noc(now);
        self.now += 1;
        self.work.full_ticks += 1;
        self.dormant_until = self.compute_dormant_until();
        debug_assert_eq!(self.audit_wake(), Ok(()), "wake slots after {now:?}");
    }

    /// Number of *full* (non-skipped) ticks this chip has executed. Every
    /// [`TickMode::Poll`] cycle is a full tick; under [`TickMode::Event`],
    /// `now() - full_ticks()` is the cycles the dormant skip absorbed, and
    /// benches and the tick-cost table in ARCHITECTURE.md use the ratio to
    /// verify dormancy actually engages.
    pub fn full_ticks(&self) -> u64 {
        self.work.full_ticks
    }

    /// Earliest future cycle any component acts on its own, seen from
    /// `self.now` (the next cycle to simulate): the least class minimum,
    /// latch delivery or NOC activity ([`Interconnect::next_activity`]: a
    /// mesh whose packets are all on wires acts at the first arrival).
    /// `self.now` itself when backlogged or while the NOC arbitrates —
    /// those need the full per-cycle loop.
    fn compute_dormant_until(&self) -> Cycle {
        let noc = self.noc.next_activity(self.now).unwrap_or(NEVER);
        if !self.backlog.is_empty() || noc == self.now {
            return self.now;
        }
        [
            &self.wake_cores,
            &self.wake_fes,
            &self.wake_bes,
            &self.wake_rrpps,
            &self.wake_cxs,
            &self.wake_dirs,
            &self.wake_mcs,
        ]
        .iter()
        .fold(
            self.latch.next_ready_at().unwrap_or(NEVER).min(noc),
            |next, w| next.min(w.min),
        )
    }

    /// Debug audit of the wake bookkeeping at the end of a full event tick,
    /// seen from `self.now`: every class minimum equals the minimum of its
    /// slots, every slot equals its component's next activity once both
    /// are clamped to `self.now`, and every parked loop is still quiet, a
    /// parked core's tile frontend parked or asleep, which fails when
    /// something touched a tile without settling it first. Side-effect free, so it
    /// can run inside `debug_assert!`.
    fn audit_wake(&self) -> Result<(), String> {
        let now = self.now;
        for (f, fe) in self.frontends.iter().enumerate() {
            let cx = &self.complexes[self.complex_at(fe.node())];
            if fe.is_parked() && !fe.is_quiet(&self.qps, cx) {
                return Err(format!(
                    "frontend {f}: parked, but its poll loop is not quiet"
                ));
            }
        }
        for (i, core) in self.cores.iter().enumerate() {
            let fe = |f: usize| &self.frontends[f];
            let still = |f: usize| fe(f).is_parked() || fe(f).next_activity(now).is_none();
            let alone = self.frontend_at(tile_node(i)).is_none_or(still);
            if core.is_parked() && !(alone && core.is_quiet(&self.qps[i], &self.complexes[i])) {
                return Err(format!(
                    "core {i}: parked, but its tile's poll loops are not quiet"
                ));
            }
        }
        let cores = |i: usize| self.cores[i].next_activity(now);
        self.wake_cores.audit("core", now, cores)?;
        let fes = |i: usize| self.frontends[i].next_activity(now);
        self.wake_fes.audit("frontend", now, fes)?;
        let bes = |i: usize| self.backends[i].next_activity(now);
        self.wake_bes.audit("backend", now, bes)?;
        let rrpps = |i: usize| self.rrpps[i].next_activity(now);
        self.wake_rrpps.audit("rrpp", now, rrpps)?;
        let cxs = |i: usize| self.complexes[i].next_activity(now);
        self.wake_cxs.audit("complex", now, cxs)?;
        let dirs = |i: usize| self.dirs[i].next_activity(now);
        self.wake_dirs.audit("dir", now, dirs)?;
        let mcs = |i: usize| self.mcs[i].next_ready_at();
        self.wake_mcs.audit("mc", now, mcs)
    }

    /// Re-activate everything after external mutation: settle every
    /// parked poll loop, make every wake slot due and reset the dormant
    /// horizon. The rack driver calls this from `chip_mut`, and
    /// [`Chip::core_mut`] and [`Chip::reset_scenario`] call it too;
    /// anything else that reaches around the public API to mutate
    /// components directly should as well.
    pub fn wake(&mut self) {
        for c in 0..self.complexes.len() {
            self.settle(c, self.now);
        }
        self.dormant_until = Cycle::ZERO;
        for w in [
            &mut self.wake_cores,
            &mut self.wake_fes,
            &mut self.wake_bes,
            &mut self.wake_rrpps,
            &mut self.wake_cxs,
            &mut self.wake_dirs,
            &mut self.wake_mcs,
        ] {
            w.reset();
        }
    }

    /// Run for `cycles`, bit-identical to calling [`Chip::tick`] that many
    /// times. Under [`TickMode::Event`] a dormant chip jumps in one step to
    /// whichever comes first: its dormant horizon, the fabric's next event
    /// ([`Fabric::next_event`]; for a rack port, the next queued arrival)
    /// or the end of the run. Every cycle jumped over is one the dormant
    /// fast path would have skipped, so an idle chip crosses a rack's whole
    /// lookahead window in one step.
    pub fn run(&mut self, cycles: u64) {
        let end = Cycle(self.now.0.saturating_add(cycles));
        while self.now < end {
            if self.cfg.tick_mode == TickMode::Event && self.now < self.dormant_until {
                let to = self
                    .fabric
                    .next_event(self.now)
                    .map_or(end, |at| at.min(end))
                    .min(self.dormant_until);
                if to > self.now {
                    self.now = to;
                    continue;
                }
            }
            self.tick();
        }
    }

    // ---- plumbing ---------------------------------------------------------

    fn inject(&mut self, pkt: Packet<ChipMsg>) {
        // Same-node delivery short-circuits the NOC (components on a tile
        // talk through the tile's crossbar, one cycle).
        if pkt.src == pkt.dst {
            let lat = match pkt.payload {
                ChipMsg::Coh { kind, msg } => Latch::Coh {
                    dst: pkt.dst,
                    kind,
                    src: pkt.src,
                    msg,
                },
                ChipMsg::Ni(msg) => Latch::Ni { dst: pkt.dst, msg },
            };
            self.latch.push_after(self.now, 1, lat);
            return;
        }
        // Preserve per-source FIFO order: a fresh packet must queue behind
        // any packets from the same source still waiting to inject.
        if let Some(q) = self.backlog.get_mut(&pkt.src) {
            q.push_back(pkt);
            return;
        }
        if let Err(p) = self.noc.try_inject(self.now, pkt) {
            self.backlog.entry(p.src).or_default().push_back(p);
        }
    }

    /// Retry every blocked source in node order, dropping the sources that
    /// drain.
    fn retry_backlog(&mut self, now: Cycle) {
        let noc = &mut self.noc;
        self.backlog.retain(|_, q| {
            // Drain each source head-first; stop at the first rejection
            // (the injection port is serialized, so the rest cannot go
            // either).
            while let Some(pkt) = q.pop_front() {
                if let Err(p) = noc.try_inject(now, pkt) {
                    q.push_front(p);
                    break;
                }
            }
            !q.is_empty()
        });
    }

    fn coh_packet(src: NocNode, e: Egress, from_dir: bool) -> Packet<ChipMsg> {
        let meta = wire_of(&e.msg, from_dir);
        let mut pkt = Packet::new(
            src,
            e.dst,
            meta.class,
            meta.flits,
            ChipMsg::Coh {
                kind: e.kind,
                msg: e.msg,
            },
        );
        if meta.dir_sourced {
            pkt = pkt.dir_sourced();
        }
        pkt
    }

    fn ni_packet(src: NocNode, dst: NocNode, msg: NiMsg) -> Packet<ChipMsg> {
        let class = match msg {
            NiMsg::WqFwd { .. } | NiMsg::CqNotify { .. } => MessageClass::NiCmd,
            NiMsg::NetOut(_) | NiMsg::NetIn(_) => MessageClass::NiData,
        };
        Packet::new(src, dst, class, msg.flits(), ChipMsg::Ni(msg))
    }

    /// Responses and incoming remote requests arriving from the rack.
    fn pump_fabric(&mut self, now: Cycle) {
        while let Some(resp) = self.fabric.pop_response(now, self.node_id) {
            let bid = NiBackend::backend_of_tid(resp.tid) as usize;
            if resp.tid >= NUMA_TID_BASE {
                // NUMA-mode response: travels edge -> core tile over the NOC.
                let tile = (resp.tid & 0xffff_ffff) as usize;
                let row = edge_of_tile(self.cfg.topology, tile);
                let pkt =
                    Self::ni_packet(NocNode::NiBlock(row), tile_node(tile), NiMsg::NetIn(resp));
                self.inject(pkt);
            } else if self.cfg.placement.backend_per_tile() {
                // NIper-tile indirection: the response detours via the edge
                // NI to the issuing tile's backend (§6.2).
                let row = edge_of_tile(self.cfg.topology, bid);
                let pkt =
                    Self::ni_packet(NocNode::NiBlock(row), tile_node(bid), NiMsg::NetIn(resp));
                self.inject(pkt);
            } else {
                // Backend co-located with the network router.
                self.latch
                    .push_after(now, 2, Latch::NetResp { backend: bid, resp });
            }
        }
        while let Some(req) = self.fabric.pop_incoming(now, self.node_id) {
            // Address-interleaved to the RRPP nearest the home bank (§4.3).
            let home = self.home_of(req.remote_block);
            let r = usize::from(self.edge_of_node(home));
            self.rrpps[r].on_request(now, req);
            self.lower_rrpp(r, now);
        }
    }

    /// Latch deliveries, at the start of cycle `now`: no subphase of `now`
    /// has run yet.
    fn pump_latch(&mut self, now: Cycle) {
        while let Some(l) = self.latch.pop_ready(now) {
            match l {
                Latch::Coh {
                    dst,
                    kind,
                    src,
                    msg,
                } => self.deliver_coh(now, now, dst, kind, src, msg),
                Latch::Ni { dst, msg } => self.deliver_ni(now, now, dst, msg),
                Latch::NetResp { backend, resp } => {
                    self.backends[backend].on_response(now, resp);
                    self.lower_backend(backend, now);
                }
            }
        }
    }

    fn tick_cores(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_cores.begin_pass(now) {
            return;
        }
        for i in 0..self.cores.len() {
            if gated && !self.wake_cores.is_due(i, now) {
                continue;
            }
            self.work.visits.cores += 1;
            // Event mode skips cores that provably do nothing this cycle
            // (the predicate is exact, never late — see
            // [`Core::next_activity`]). A due slot is exact too, except
            // right after [`Chip::wake`] zeroed it, so the predicate is
            // re-checked: an idle core whose scenario is done must not draw
            // from it.
            if !gated || self.cores[i].next_activity(now).is_some_and(|t| t <= now) {
                self.tick_core(now, i);
            }
            if gated {
                self.wake_cores
                    .set(i, self.cores[i].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    fn tick_core(&mut self, now: Cycle, i: usize) {
        // The core may enqueue into its WQ and submit into its tile
        // complex, which hosts its frontend's NI cache on per-tile
        // placements.
        self.settle(i, now);
        self.cores[i].tick(now, &mut self.qps[i], &mut self.complexes[i]);
        // The core may have submitted into its tile complex: wake the
        // complex when that lookup is due.
        self.lower_complex(i, now);
        if let Some(req) = self.cores[i].take_numa_request() {
            // NUMA issue: request packet core tile -> edge -> rack.
            let row = edge_of_tile(self.cfg.topology, i);
            let pkt = Self::ni_packet(tile_node(i), NocNode::NiBlock(row), NiMsg::NetOut(req));
            self.inject(pkt);
        }
        for t in self.cores[i].drain_traces() {
            self.traces.record(t);
        }
    }

    fn tick_frontends(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_fes.begin_pass(now) {
            return;
        }
        for f in 0..self.frontends.len() {
            if gated && !self.wake_fes.is_due(f, now) {
                continue;
            }
            self.work.visits.frontends += 1;
            let fe_node = self.frontends[f].node();
            let cx = self.complex_at(fe_node);
            self.frontends[f].tick(now, &mut self.qps, &mut self.complexes[cx]);
            while let Some(e) = self.frontends[f].pop_egress() {
                self.dispatch_rmc(now, fe_node, e);
            }
            if gated {
                // The frontend may have submitted into its complex: wake
                // the complex when that lookup is due.
                self.lower_complex(cx, now);
                self.wake_fes
                    .set(f, self.frontends[f].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    /// Lower complex `c`'s slot to its next activity after a submit or a
    /// delivery: for a submit, the lookup's cycle (`now + 1` for the NI
    /// cache, `now + 3` for the L1) unless the complex has earlier work.
    /// Lowering to `now` instead would visit the complex in this cycle's
    /// subphase for nothing. The other classes' `lower_*` do the same, so
    /// every slot stays exact.
    fn lower_complex(&mut self, c: usize, now: Cycle) {
        let at = self.complexes[c].next_activity(now).unwrap_or(NEVER);
        self.wake_cxs.lower(c, at);
    }

    fn lower_frontend(&mut self, f: usize, now: Cycle) {
        let at = self.frontends[f].next_activity(now).unwrap_or(NEVER);
        self.wake_fes.lower(f, at);
    }

    fn lower_backend(&mut self, b: usize, now: Cycle) {
        let at = self.backends[b].next_activity(now).unwrap_or(NEVER);
        self.wake_bes.lower(b, at);
    }

    fn lower_rrpp(&mut self, r: usize, now: Cycle) {
        let at = self.rrpps[r].next_activity(now).unwrap_or(NEVER);
        self.wake_rrpps.lower(r, at);
    }

    fn lower_dir(&mut self, d: usize, now: Cycle) {
        let at = self.dirs[d].next_activity(now).unwrap_or(NEVER);
        self.wake_dirs.lower(d, at);
    }

    /// Settle the poll loops parked on complex `c` at the start of cycle
    /// `t`: the tile's core ([`Core::settle`]) and the frontend whose NI
    /// cache `c` holds ([`NiFrontend::settle`]). Their hits are credited
    /// in one merged pass, the core's first on a tie: its L1 lookup was
    /// submitted two cycles before an NI lookup due on the same cycle.
    /// Each loop and the complex then wake at their next activity. Every
    /// path that touches a parked tile calls this first: a core's tick (it
    /// stores into the WQ through its tile complex), a coherence delivery
    /// to the complex, a completion notification to the frontend,
    /// [`Chip::wake`] and [`Chip::reset_scenario`].
    fn settle(&mut self, c: usize, t: Cycle) {
        let node = self.complexes[c].node();
        let fe = self
            .frontend_at(node)
            .filter(|&f| self.frontends[f].is_parked());
        let core = self.cores.get(c).is_some_and(Core::is_parked);
        if fe.is_none() && !core {
            return;
        }
        let runs = [
            if core {
                self.cores[c].parked_run(t, &self.qps[c])
            } else {
                HitRun::NONE
            },
            fe.map_or(HitRun::NONE, |f| self.frontends[f].parked_run(t, &self.qps)),
        ];
        self.complexes[c].credit_hits(&runs);
        // The core resubmits an in-flight load first, as it submitted it
        // first.
        if core {
            self.cores[c].settle(t, &self.qps[c], &mut self.complexes[c]);
            let at = self.cores[c].next_activity(t).unwrap_or(NEVER);
            self.wake_cores.lower(c, at);
        }
        if let Some(f) = fe {
            self.frontends[f].settle(t, &self.qps, &mut self.complexes[c]);
            self.lower_frontend(f, t);
        }
        self.lower_complex(c, t);
    }

    fn tick_rmc_backends(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_bes.begin_pass(now) {
            return;
        }
        for b in 0..self.backends.len() {
            if gated && !self.wake_bes.is_due(b, now) {
                continue;
            }
            self.work.visits.backends += 1;
            self.backends[b].tick(now);
            let node = self.backends[b].node();
            while let Some(e) = self.backends[b].pop_egress() {
                self.dispatch_rmc(now, node, e);
            }
            if gated {
                self.wake_bes
                    .set(b, self.backends[b].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    fn tick_rrpps(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_rrpps.begin_pass(now) {
            return;
        }
        for r in 0..self.rrpps.len() {
            if gated && !self.wake_rrpps.is_due(r, now) {
                continue;
            }
            self.work.visits.rrpps += 1;
            self.rrpps[r].tick(now);
            let node = self.rrpps[r].node();
            while let Some(e) = self.rrpps[r].pop_egress() {
                self.dispatch_rmc(now, node, e);
            }
            while let Some(s) = self.rrpps[r].pop_latency_sample() {
                self.fabric.record_rrpp_latency(self.node_id, s);
            }
            if gated {
                self.wake_rrpps
                    .set(r, self.rrpps[r].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    fn dispatch_rmc(&mut self, now: Cycle, src: NocNode, e: RmcEgress) {
        match e {
            RmcEgress::Coh(eg) => {
                let pkt = Self::coh_packet(src, eg, false);
                self.inject(pkt);
            }
            RmcEgress::Ni { dst, msg } => {
                if dst == src {
                    self.latch.push_after(now, 1, Latch::Ni { dst, msg });
                } else {
                    let pkt = Self::ni_packet(src, dst, msg);
                    self.inject(pkt);
                }
            }
            RmcEgress::Net(req) => {
                self.fabric.inject(now, self.node_id, req);
            }
            RmcEgress::NetResp(resp) => {
                // Response leaves for the remote requester. The emulator
                // backend drops it (bandwidth already accounted by RRPP
                // stats); a real fabric routes it home.
                self.fabric.inject_resp(now, self.node_id, resp);
            }
            RmcEgress::Trace(t) => self.traces.record(t),
        }
    }

    fn tick_complexes(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_cxs.begin_pass(now) {
            return;
        }
        for c in 0..self.complexes.len() {
            if gated && !self.wake_cxs.is_due(c, now) {
                continue;
            }
            self.work.visits.complexes += 1;
            self.complexes[c].tick(now);
            let node = self.complexes[c].node();
            while let Some(e) = self.complexes[c].pop_egress() {
                let pkt = Self::coh_packet(node, e, false);
                self.inject(pkt);
            }
            // The frontend this NI cache serves, once it had a completion,
            // and whether the core had one.
            let (mut ni_done, mut core_done) = (None, false);
            while let Some(done) = self.complexes[c].pop_completion() {
                match done.origin {
                    ni_coherence::AccessOrigin::Core => {
                        let i = c; // tile complexes come first
                        self.cores[i].on_cache_completion(
                            done.at,
                            done.tag,
                            done.value,
                            &mut self.qps[i],
                        );
                        // The core subphase already ran this cycle; lower
                        // the slot to the core's exact next activity (not
                        // to `now`, which would cost a needless full tick).
                        self.wake_cores
                            .lower(i, self.cores[i].next_activity(now).unwrap_or(NEVER));
                        core_done = true;
                    }
                    ni_coherence::AccessOrigin::Ni => {
                        let f = position(node);
                        self.frontends[f]
                            .on_cache_completion(done.at, done.tag, done.value, &self.qps);
                        while let Some(e) = self.frontends[f].pop_egress() {
                            self.dispatch_rmc(now, node, e);
                        }
                        ni_done = Some(f);
                    }
                }
            }
            if gated && (core_done || ni_done.is_some()) {
                self.park_tile(c, now, ni_done.is_some());
            } else if let Some(f) = ni_done {
                self.lower_frontend(f, now);
            }
            if gated {
                self.wake_cxs
                    .set(c, self.complexes[c].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    /// With every completion of complex `c`'s visit at `now` handed out,
    /// park the quiet poll loops on it (event tick only): the frontend
    /// whose NI cache `c` holds ([`NiFrontend::park`]) and the tile's core
    /// ([`Core::park`]). Both submit into `c`, which keeps one LRU clock
    /// and one event queue, so the tile parks as one: a core parks only if
    /// that frontend is parked, parks now, or sleeps until a notification
    /// or a fill (both settle the tile first), and a frontend whose core
    /// parks now has nothing to settle it early. A frontend that had a
    /// completion (`ni_done`) and stays awake falls to its next activity:
    /// its subphase already ran this cycle, so `now` means the next cycle.
    fn park_tile(&mut self, c: usize, now: Cycle, ni_done: bool) {
        let cx = &self.complexes[c];
        let core = c < self.cores.len() && self.cores[c].can_park(now, &self.qps[c], cx);
        let fe_still = match self.frontend_at(cx.node()) {
            None => true,
            Some(f) if self.frontends[f].is_parked() => true,
            Some(f) => {
                // Unless its core parks, the tile's core (exact slot; tile
                // complexes come first) ticks and settles the loop.
                let core_due = self.wake_cores.slots.get(c).filter(|_| !core);
                let settle_by = core_due.map_or(NEVER, |&at| at.max(now + 1));
                if self.frontends[f].park(now, &self.qps, cx, settle_by) {
                    self.work.parks += 1;
                    self.wake_fes.clear(f);
                    true
                } else {
                    if ni_done {
                        self.lower_frontend(f, now);
                    }
                    self.frontends[f].next_activity(now).is_none()
                }
            }
        };
        if core && fe_still {
            self.cores[c].park(now);
            self.work.core_parks += 1;
            self.wake_cores.clear(c);
        }
    }

    fn tick_dirs(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_dirs.begin_pass(now) {
            return;
        }
        for d in 0..self.dirs.len() {
            if gated && !self.wake_dirs.is_due(d, now) {
                continue;
            }
            self.work.visits.dirs += 1;
            self.dirs[d].tick(now);
            let node = self.dirs[d].node();
            while let Some(e) = self.dirs[d].pop_egress() {
                let pkt = Self::coh_packet(node, e, true);
                self.inject(pkt);
            }
            if gated {
                self.wake_dirs
                    .set(d, self.dirs[d].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    fn tick_mcs(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_mcs.begin_pass(now) {
            return;
        }
        for m in 0..self.mcs.len() {
            if gated && !self.wake_mcs.is_due(m, now) {
                continue;
            }
            self.work.visits.mcs += 1;
            while let Some(reply) = self.mcs[m].pop_ready(now) {
                let to = self.dirs[reply.tag as usize].node();
                let msg = match reply.kind {
                    MemRequestKind::Read => CohMsg::NcData {
                        block: reply.block,
                        value: reply.value,
                    },
                    MemRequestKind::Write => CohMsg::NcWAck { block: reply.block },
                };
                let pkt = Self::coh_packet(
                    NocNode::Mc(m as u8),
                    Egress {
                        dst: to,
                        kind: ClientKind::Directory,
                        msg,
                    },
                    false,
                );
                self.inject(pkt);
            }
            if gated {
                self.wake_mcs
                    .set(m, self.mcs[m].next_ready_at().unwrap_or(NEVER));
            }
        }
    }

    /// Hand every delivered packet to its addressee, lowest endpoint index
    /// first. Runs stay reproducible as long as deliveries that share state
    /// keep their relative order, and only one pair does: a tile's NI-data
    /// delivery may reach its edge's RRPP, and tiles drain before NI
    /// blocks.
    ///
    /// The NOC drains after every subphase of `now`, so a parked pair a
    /// delivery reaches settles at `now + 1`.
    fn drain_noc(&mut self, now: Cycle) {
        let next = now + 1;
        while let Some(pkt) = self.noc.eject_next() {
            match pkt.payload {
                ChipMsg::Coh { kind, msg } => {
                    self.deliver_coh(now, next, pkt.dst, kind, pkt.src, msg)
                }
                ChipMsg::Ni(msg) => self.deliver_ni(now, next, pkt.dst, msg),
            }
        }
    }

    /// Deliver a coherence message at `now`; `next` is the first cycle
    /// none of whose subphases has run, where a parked addressee settles.
    fn deliver_coh(
        &mut self,
        now: Cycle,
        next: Cycle,
        dst: NocNode,
        kind: ClientKind,
        src: NocNode,
        msg: CohMsg,
    ) {
        match (dst, kind) {
            (NocNode::Mc(m), _) => {
                // Memory controller: service NcRead/NcWrite from a bank.
                // Only directories address MCs; the tag names the sender.
                let d = position(src);
                debug_assert_eq!(self.dirs[d].node(), src, "MC request from a non-directory");
                let (block, kind_req, value) = match msg {
                    CohMsg::NcRead { block } => (block, MemRequestKind::Read, 0),
                    CohMsg::NcWrite { block, value } => (block, MemRequestKind::Write, value),
                    other => panic!("MC received {other:?}"),
                };
                let m = usize::from(m);
                self.mcs[m].push(now, block, kind_req, value, d as u64);
                self.wake_mcs
                    .lower(m, self.mcs[m].next_ready_at().unwrap_or(NEVER));
            }
            (_, ClientKind::Directory) => {
                let d = position(dst);
                self.dirs[d].deliver(now, src, msg);
                self.lower_dir(d, now);
            }
            (_, ClientKind::Cache) => {
                let c = self.complex_at(dst);
                self.settle(c, next);
                self.complexes[c].deliver(now, msg);
                self.lower_complex(c, now);
            }
            (_, ClientKind::NiData) => {
                // RRPP or backend data path at this node.
                let (block, value, is_data) = match msg {
                    CohMsg::NcData { block, value } | CohMsg::DataS { block, value } => {
                        (block, value, true)
                    }
                    CohMsg::NcWAck { block } => (block, 0, false),
                    other => panic!("NiData client received {other:?}"),
                };
                let r = usize::from(self.edge_of_node(dst));
                let rrpp_has = self.rrpps[r].has_pending(block);
                if rrpp_has {
                    if is_data {
                        self.rrpps[r].on_nc_data(now, block, value);
                    } else {
                        self.rrpps[r].on_nc_wack(now, block);
                    }
                    self.lower_rrpp(r, now);
                } else if let Some(b) = self.backend_at(dst) {
                    if is_data {
                        self.backends[b].on_nc_data(now, block, value);
                    } else {
                        self.backends[b].on_nc_wack(now, block);
                    }
                    self.lower_backend(b, now);
                }
            }
        }
    }

    /// Deliver an RMC message at `now`; `next` as for
    /// [`Chip::deliver_coh`].
    fn deliver_ni(&mut self, now: Cycle, next: Cycle, dst: NocNode, msg: NiMsg) {
        match msg {
            NiMsg::WqFwd { entry, qp, fe } => {
                let b = position(dst);
                self.backends[b].on_wq_entry(now, entry, qp, fe);
                self.lower_backend(b, now);
            }
            NiMsg::CqNotify {
                qp,
                wq_id,
                ok,
                degraded,
            } => {
                let f = position(dst);
                self.settle(self.complex_at(dst), next);
                self.frontends[f].on_notify(qp, wq_id, ok, degraded);
                self.lower_frontend(f, now);
            }
            NiMsg::NetOut(req) => {
                // Arrived at the edge: hand to the network router / rack.
                self.fabric.inject(now, self.node_id, req);
            }
            NiMsg::NetIn(resp) => {
                if resp.tid >= NUMA_TID_BASE {
                    let tile = (resp.tid & 0xffff_ffff) as usize;
                    self.cores[tile].on_numa_response(now);
                    self.wake_cores
                        .lower(tile, self.cores[tile].next_activity(now).unwrap_or(NEVER));
                } else {
                    let b = position(dst);
                    self.backends[b].on_response(now, resp);
                    self.lower_backend(b, now);
                }
            }
        }
    }

    // ---- geometry helpers --------------------------------------------------

    fn home_of(&self, b: BlockAddr) -> NocNode {
        home_fn(self.cfg.topology)(b, self.cfg.n_banks())
    }

    /// Index into `complexes` of the complex at `node`: a tile's position,
    /// or for NI block `r`'s complex (NIedge) `r` past the tiles.
    fn complex_at(&self, node: NocNode) -> usize {
        match node {
            NocNode::NiBlock(r) => self.cores.len() + usize::from(r),
            _ => position(node),
        }
    }

    /// Index of the backend at `node`, if one sits there.
    fn backend_at(&self, node: NocNode) -> Option<usize> {
        let b = position(node);
        (self.backends.get(b)?.node() == node).then_some(b)
    }

    /// Index of the frontend at `node` (whose NI cache is the complex
    /// there), if one sits there.
    fn frontend_at(&self, node: NocNode) -> Option<usize> {
        let f = position(node);
        (self.frontends.get(f)?.node() == node).then_some(f)
    }

    /// NI-block row/column a node belongs to.
    fn edge_of_node(&self, node: NocNode) -> u8 {
        match (self.cfg.topology, node) {
            (Topology::Mesh, NocNode::Tile(c)) => c.y,
            (Topology::NocOut, NocNode::Tile(c)) => c.x,
            (_, NocNode::NiBlock(r)) | (_, NocNode::Mc(r)) | (_, NocNode::Llc(r)) => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Visits over cycles 1 000-2 000 of an all-idle default (NIsplit)
    /// chip. Each of the 64 frontends polls its empty WQ every other cycle,
    /// and every poll hits in its NI cache once the first one filled it.
    /// The event tick parks each such loop with its cache, so the chip
    /// sleeps: no visit and no full tick, while its snapshot still counts
    /// the polls' hits. The poll tick visits every component every cycle.
    #[test]
    fn an_idle_split_chip_sleeps_through_its_quiet_poll_loops() {
        let visits_over_second_kcycle = |tick_mode: TickMode| {
            let cfg = ChipConfig {
                tick_mode,
                ..ChipConfig::default()
            };
            let mut chip = Chip::new(cfg, Workload::Idle);
            chip.run(1_000);
            let (v0, t0) = (chip.work.visits, chip.full_ticks());
            chip.run(1_000);
            let (v1, t1) = (chip.work.visits, chip.full_ticks());
            let delta = Visits {
                cores: v1.cores - v0.cores,
                frontends: v1.frontends - v0.frontends,
                backends: v1.backends - v0.backends,
                rrpps: v1.rrpps - v0.rrpps,
                complexes: v1.complexes - v0.complexes,
                dirs: v1.dirs - v0.dirs,
                mcs: v1.mcs - v0.mcs,
            };
            (delta, t1 - t0)
        };
        let (event, full) = visits_over_second_kcycle(TickMode::Event);
        assert_eq!(event, Visits::default());
        assert_eq!(full, 0);
        let (poll, full) = visits_over_second_kcycle(TickMode::Poll);
        assert_eq!(full, 1_000);
        let every_cycle = Visits {
            cores: 64_000,
            frontends: 64_000,
            backends: 8_000,
            rrpps: 8_000,
            complexes: 64_000,
            dirs: 64_000,
            mcs: 8_000,
        };
        assert_eq!(poll, every_cycle);
    }

    /// A default (NIsplit) chip whose core 0 runs a closed loop at window
    /// 1, the other cores idle.
    fn one_closed_loop(tick_mode: TickMode) -> Chip {
        let cfg = ChipConfig {
            tick_mode,
            active_cores: 1,
            ..ChipConfig::default()
        };
        let inner = Synthetic::from_workload(Workload::AsyncRead {
            size: 64,
            poll_every: 1,
        });
        Chip::with_scenario(cfg, &crate::ClosedLoop::new(Box::new(inner), 1, 0))
    }

    /// The event chip of [`one_closed_loop`] run to the end of the first
    /// cycle at which tile 0's core and frontend parked together.
    fn tile_parked_as_one() -> (Chip, Cycle) {
        let mut chip = one_closed_loop(TickMode::Event);
        loop {
            assert!(chip.now.0 < 5_000, "tile 0 never parked as one");
            let fe_parked = chip.frontends[0].is_parked();
            let before = chip.work;
            chip.run(1);
            let parked_now = chip.work.core_parks > before.core_parks && !fe_parked;
            if parked_now && chip.frontends[0].is_parked() && chip.cores[0].is_parked() {
                let at = Cycle(chip.now.0 - 1);
                return (chip, at);
            }
        }
    }

    /// Tile 0's core, frontend and complex, through their `Debug` forms.
    fn tile_state(chip: &Chip) -> [String; 3] {
        [
            format!("{:?}", chip.cores[0]),
            format!("{:?}", chip.frontends[0]),
            format!("{:?}", chip.complexes[0]),
        ]
    }

    /// A tile whose core and frontend parked in the same step, settled by
    /// [`Chip::wake`] at the start of cycle `t`, holds what the poll tick
    /// leaves at `t`: the core, the frontend and the complex they share
    /// (LRU stamps of both loops' blocks included), and the chip's
    /// snapshot. `t` runs over both sides of the core's scheduled poll,
    /// in-flight load and hit, interleaved with the frontend's polls.
    #[test]
    fn a_tile_parked_as_one_settles_to_what_the_poll_tick_leaves() {
        let (_, parked_at) = tile_parked_as_one();
        let mut poll = one_closed_loop(TickMode::Poll);
        for t in parked_at.0 + 1..=parked_at.0 + 3 * 7 + 2 {
            poll.run(t - poll.now.0);
            let mut event = one_closed_loop(TickMode::Event);
            event.run(t);
            assert!(event.cores[0].is_parked(), "settled at {t}");
            event.wake();
            let at = format!("parked at {parked_at:?}, settled at {t}");
            assert_eq!(tile_state(&event), tile_state(&poll), "{at}");
            let (mut e, mut p) = (event.snapshot(), poll.snapshot());
            (e.work, p.work) = (Work::default(), Work::default());
            assert_eq!(e.diff(&p), None, "{at}");
        }
    }

    /// `Chip::reset_scenario` on a parked core settles it before it
    /// rebinds: the credited `next_op` calls count against the generator
    /// that answered them, and the rebound core's call count and context
    /// start from zero as the poll tick's do.
    #[test]
    fn reset_scenario_settles_a_parked_core_before_it_rebinds() {
        let (_, parked_at) = tile_parked_as_one();
        let t = parked_at.0 + 12;
        let (mut poll, mut event) = (
            one_closed_loop(TickMode::Poll),
            one_closed_loop(TickMode::Event),
        );
        poll.run(t);
        event.run(t);
        assert!(event.cores[0].is_parked());
        let inner = Synthetic::from_workload(Workload::AsyncRead {
            size: 64,
            poll_every: 1,
        });
        let next = crate::ClosedLoop::new(Box::new(inner), 2, 0);
        poll.reset_scenario(&next);
        event.reset_scenario(&next);
        assert_eq!(tile_state(&event), tile_state(&poll));
    }

    /// A tile parks as one: at the completion where tile 0 parked, its
    /// core parks again once woken, but not while the frontend has work
    /// (here a completion notification to turn into a CQ store).
    #[test]
    fn a_core_parks_only_beside_a_still_frontend() {
        let (mut chip, parked_at) = tile_parked_as_one();
        chip.wake();
        chip.park_tile(0, parked_at, false);
        assert!(chip.cores[0].is_parked(), "a quiet tile parks");
        chip.wake();
        chip.frontends[0].on_notify(0, 1, true, false);
        chip.park_tile(0, parked_at, false);
        assert!(!chip.frontends[0].is_parked());
        assert!(!chip.cores[0].is_parked(), "frontend active");
    }

    /// A chip with replication `(k, w)`, watchdog and replay budget; single
    /// chips see two nodes.
    fn replicated(k: u8, w: u8, itt_timeout: u64, replay_budget: u32) -> Chip {
        let mut cfg = ChipConfig::default();
        cfg.rmc.replication = ni_fabric::ReplicaCfg { k, w, seed: 1 };
        cfg.rmc.itt_timeout = itt_timeout;
        cfg.rmc.replay_budget = replay_budget;
        Chip::new(cfg, Workload::Idle)
    }

    #[test]
    #[should_panic(expected = "rmc.replication.k = 3 must lie in 1..=2")]
    fn replication_beyond_the_node_count_is_rejected() {
        replicated(3, 1, 1_500, 0);
    }

    #[test]
    #[should_panic(expected = "rmc.replication.w = 3 must lie in 1..=k (2)")]
    fn a_write_quorum_above_k_is_rejected() {
        replicated(2, 3, 1_500, 0);
    }

    #[test]
    #[should_panic(expected = "rmc.replay_budget = 1 needs itt_timeout > 0")]
    fn a_replay_budget_without_a_watchdog_is_rejected() {
        replicated(2, 1, 0, 1);
    }

    /// The position rule that replaced the chip's lookup maps: every
    /// complex, directory, frontend and backend sits at the index its node
    /// gives, and each frontend's NI cache is the complex at its node.
    #[test]
    fn components_sit_at_their_node_positions() {
        for topology in [Topology::Mesh, Topology::NocOut] {
            for placement in [
                NiPlacement::Numa,
                NiPlacement::Edge,
                NiPlacement::PerTile,
                NiPlacement::Split,
            ] {
                let cfg = ChipConfig {
                    topology,
                    placement,
                    ..ChipConfig::default()
                };
                let chip = Chip::new(cfg, Workload::Idle);
                let at = format!("{topology:?}/{placement:?}");
                for (i, c) in chip.complexes.iter().enumerate() {
                    assert_eq!(chip.complex_at(c.node()), i, "{at}: complex {i}");
                }
                for (i, d) in chip.dirs.iter().enumerate() {
                    assert_eq!(position(d.node()), i, "{at}: directory {i}");
                }
                for (i, f) in chip.frontends.iter().enumerate() {
                    assert_eq!(position(f.node()), i, "{at}: frontend {i}");
                    let cx = &chip.complexes[chip.complex_at(f.node())];
                    assert_eq!(cx.node(), f.node(), "{at}: frontend {i}'s complex");
                }
                for (i, b) in chip.backends.iter().enumerate() {
                    assert_eq!(chip.backend_at(b.node()), Some(i), "{at}: backend {i}");
                }
                // A node of the other kind holds no backend.
                let elsewhere = if placement.backend_per_tile() {
                    NocNode::NiBlock(0)
                } else {
                    tile_node(0)
                };
                assert_eq!(chip.backend_at(elsewhere), None, "{at}: {elsewhere:?}");
            }
        }
    }
}
