//! The simulated node: cores, caches, directories, memory, RMC pipelines,
//! interconnect, network router and rack fabric, ticked in lock step.

use std::collections::{BTreeMap, VecDeque};

use ni_coherence::{wire_of, CacheComplex, ClientKind, CohMsg, DirectoryBank, Egress};
use ni_engine::{Cycle, DelayLine};
use ni_fabric::{Fabric, FabricStats, RackConfig, RackEmulator, RemoteResp, ReplicaMap, Torus3D};
use ni_mem::{Addr, BlockAddr, MemRequestKind, MemoryController};
use ni_noc::{Coord, Interconnect, MeshNoc, MessageClass, NocNode, NocOutNoc, NocStats, Packet};
use ni_qp::QueuePair;
use ni_rmc::{NiBackend, NiFrontend, NiMsg, NiPlacement, RmcEgress, Rrpp, TraceTable};

use crate::config::{ChipConfig, TickMode, Topology};
use crate::core_model::{Core, Workload, NUMA_TID_BASE};
use crate::scenario::{core_seed, OpCtx, Scenario, Synthetic};

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
    /// slots, and no slot is later than its component's next activity
    /// `next(i)`; with `exact`, each slot equals it once both are clamped
    /// to `now`.
    fn audit(
        &self,
        class: &str,
        now: Cycle,
        exact: bool,
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
            if at > due || (exact && at != due) {
                return Err(format!("{class} {i}: slot {at:?}, next activity {due:?}"));
            }
        }
        Ok(())
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
    NocNode::tile(t % 8, t / 8)
}

/// Home directory node on NOC-Out (bank per LLC tile).
fn home_nocout(b: BlockAddr, n_banks: u32) -> NocNode {
    NocNode::Llc((b.0 % u64::from(n_banks)) as u8)
}

enum NocImpl {
    Mesh(MeshNoc<ChipMsg>),
    NocOut(NocOutNoc<ChipMsg>),
}

impl NocImpl {
    fn as_dyn(&mut self) -> &mut dyn Interconnect<ChipMsg> {
        match self {
            NocImpl::Mesh(m) => m,
            NocImpl::NocOut(n) => n,
        }
    }
    fn as_ref_dyn(&self) -> &dyn Interconnect<ChipMsg> {
        match self {
            NocImpl::Mesh(m) => m,
            NocImpl::NocOut(n) => n,
        }
    }
    fn stats(&self) -> &NocStats {
        match self {
            NocImpl::Mesh(m) => m.stats(),
            NocImpl::NocOut(n) => n.stats(),
        }
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
    noc: NocImpl,
    /// Tile complexes `[0..n_cores)`, then edge NI complexes (NIedge only).
    complexes: Vec<CacheComplex>,
    complex_index: BTreeMap<NocNode, usize>,
    dirs: Vec<DirectoryBank>,
    dir_index: BTreeMap<NocNode, usize>,
    mcs: Vec<MemoryController>,
    mc_pending: BTreeMap<u64, (NocNode, bool)>,
    mc_seq: u64,
    /// Queue pairs, one per core.
    pub qps: Vec<QueuePair>,
    /// Cores, one per tile. Read freely; mutate through
    /// [`Chip::core_mut`], or call [`Chip::wake`] afterwards: the event
    /// tick tracks every core by a wake slot that direct mutation does not
    /// move.
    pub cores: Vec<Core>,
    frontends: Vec<NiFrontend>,
    fe_index: BTreeMap<NocNode, usize>,
    /// Frontend index serving each complex index (for NI completions).
    fe_of_complex: BTreeMap<usize, usize>,
    backends: Vec<NiBackend>,
    backend_index: BTreeMap<NocNode, usize>,
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
    /// so a message can never out-sleep its addressee. Core and memory
    /// controller slots are exact, not merely early: a core slot is lowered
    /// to [`Core::next_activity`] after a completion, never to the
    /// delivery cycle, so the dormant skip engages exactly as often as a
    /// rescan of every core would allow.
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
    /// Full (non-skipped) ticks executed; see [`Chip::full_ticks`].
    full_ticks: u64,
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
    pub fn with_scenario_on(
        cfg: ChipConfig,
        scenario: &dyn Scenario,
        fabric: Box<dyn Fabric + Send>,
        nodes: u32,
        torus: Option<Torus3D>,
    ) -> Chip {
        let n = cfg.n_cores();
        let n_banks = cfg.n_banks();
        let n_edge = cfg.n_edge();
        let home: fn(BlockAddr, u32) -> NocNode = match cfg.topology {
            Topology::Mesh => home_mesh,
            Topology::NocOut => home_nocout,
        };
        let tile_node = |i: usize| -> NocNode {
            match cfg.topology {
                Topology::Mesh => NocNode::Tile(Coord::new((i % 8) as u8, (i / 8) as u8)),
                Topology::NocOut => NocNode::Tile(Coord::new((i % 8) as u8, (i / 8) as u8)),
            }
        };
        // The NI block a tile's traffic exits through: its mesh row, or its
        // NOC-Out column.
        let edge_of_tile = |i: usize| -> u8 {
            match cfg.topology {
                Topology::Mesh => (i / 8) as u8,
                Topology::NocOut => (i % 8) as u8,
            }
        };

        let noc = match cfg.topology {
            Topology::Mesh => {
                let mut m = cfg.mesh;
                m.policy = cfg.routing;
                NocImpl::Mesh(MeshNoc::new(m))
            }
            Topology::NocOut => NocImpl::NocOut(NocOutNoc::new(cfg.nocout)),
        };

        // Tile complexes: NI cache present when frontends are per tile.
        let per_tile_fe = cfg.placement.frontend_per_tile();
        let mut complexes = Vec::new();
        let mut complex_index = BTreeMap::new();
        for i in 0..n {
            let node = tile_node(i);
            complex_index.insert(node, complexes.len());
            complexes.push(CacheComplex::new(
                cfg.coherence,
                node,
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
                complex_index.insert(node, complexes.len());
                complexes.push(CacheComplex::new(cfg.coherence, node, true, home, n_banks));
            }
        }

        // Directory banks.
        let mut dirs = Vec::new();
        let mut dir_index = BTreeMap::new();
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
            dir_index.insert(node, dirs.len());
            dirs.push(DirectoryBank::new(cfg.coherence, node, mc));
        }

        let mcs: Vec<MemoryController> = (0..n_edge)
            .map(|_| MemoryController::new(cfg.mem))
            .collect();

        // Queue pairs and cores: one per-core generator each, bound to the
        // core's place in the rack and its decorrelated seed.
        let mut qps = Vec::new();
        let mut cores = Vec::new();
        for i in 0..n {
            let wq = Addr(QP_BASE + i as u64 * QP_STRIDE);
            let cq = Addr(QP_BASE + i as u64 * QP_STRIDE + QP_STRIDE / 2);
            qps.push(QueuePair::new(i as u32, cfg.qp, wq, cq));
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
                cfg.qp,
                LBUF_BASE + i as u64 * LBUF_BYTES,
                LBUF_BYTES,
            ));
        }

        // Backends.
        let mut backends = Vec::new();
        let mut backend_index = BTreeMap::new();
        if cfg.placement.backend_per_tile() {
            for i in 0..n {
                let node = tile_node(i);
                backend_index.insert(node, backends.len());
                backends.push(NiBackend::new(
                    node,
                    i as u16,
                    cfg.rmc,
                    cfg.qp,
                    home,
                    n_banks,
                    Some(NocNode::NiBlock(edge_of_tile(i))),
                ));
            }
        } else if cfg.placement != NiPlacement::Numa {
            for r in 0..n_edge {
                let node = NocNode::NiBlock(r as u8);
                backend_index.insert(node, backends.len());
                backends.push(NiBackend::new(
                    node, r as u16, cfg.rmc, cfg.qp, home, n_banks, None,
                ));
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
        let mut fe_index = BTreeMap::new();
        let mut fe_of_complex = BTreeMap::new();
        match cfg.placement {
            NiPlacement::Numa => {}
            NiPlacement::Edge => {
                for r in 0..n_edge {
                    let node = NocNode::NiBlock(r as u8);
                    let row_qps: Vec<u32> = (0..n as u32)
                        .filter(|&i| edge_of_tile(i as usize) == r as u8)
                        .collect();
                    fe_index.insert(node, frontends.len());
                    fe_of_complex.insert(complex_index[&node], frontends.len());
                    frontends.push(NiFrontend::new(node, node, row_qps, cfg.rmc));
                }
            }
            NiPlacement::PerTile | NiPlacement::Split => {
                for i in 0..n {
                    let node = tile_node(i);
                    let backend = if cfg.placement == NiPlacement::PerTile {
                        node
                    } else {
                        NocNode::NiBlock(edge_of_tile(i))
                    };
                    fe_index.insert(node, frontends.len());
                    fe_of_complex.insert(i, frontends.len());
                    frontends.push(NiFrontend::new(node, backend, vec![i as u32], cfg.rmc));
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
            complex_index,
            dirs,
            dir_index,
            mcs,
            mc_pending: BTreeMap::new(),
            mc_seq: 0,
            qps,
            cores,
            frontends,
            fe_index,
            fe_of_complex,
            backends,
            backend_index,
            rrpps,
            node_id: cfg.node_id,
            fabric,
            traces: TraceTable::new(),
            latch: DelayLine::new(),
            backlog: BTreeMap::new(),
            dormant_until: Cycle::ZERO,
            full_ticks: 0,
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
        if let Some(&d) = self.dir_index.get(&home) {
            if self.dirs[d].poke_llc(b, value) {
                return;
            }
        }
        let m = usize::from(self.edge_of_node(home));
        self.mcs[m].poke(b, value);
    }

    /// Directly read a token from this node's memory hierarchy, bypassing
    /// timing (end-to-end data verification): the home LLC bank's copy if
    /// resident (NUCA writes land there first), else the backing store.
    pub fn peek_block(&self, b: BlockAddr) -> u64 {
        let home = self.home_of(b);
        if let Some(&d) = self.dir_index.get(&home) {
            if let Some(v) = self.dirs[d].peek_llc(b) {
                return v;
            }
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

    /// Remote *reads* that completed with an error CQ status — the
    /// user-visible request losses an availability study counts (writes
    /// are reported separately through the quorum counters).
    pub fn failed_reads(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.failed_reads).sum()
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
        let mut total = ni_rmc::BackendStats::default();
        for b in &self.backends {
            total.merge(b.stats());
        }
        total
    }

    /// Chip-wide distribution of end-to-end remote-read latencies, merged
    /// over all cores (see [`Core::read_latency_histogram`] — covers sync,
    /// async, and NUMA reads alike).
    pub fn read_latency_histogram(&self) -> ni_engine::Histogram {
        let mut h = ni_engine::Histogram::new();
        for c in &self.cores {
            h.merge(c.read_latency_histogram());
        }
        h
    }

    /// Chip-wide latency distribution of *degraded* remote reads — those
    /// that completed only through a recovery path — kept apart from
    /// [`Chip::read_latency_histogram`] so failover cost is measurable
    /// instead of smearing the healthy tail.
    pub fn degraded_read_latency_histogram(&self) -> ni_engine::Histogram {
        let mut h = ni_engine::Histogram::new();
        for c in &self.cores {
            h.merge(c.degraded_read_latency_histogram());
        }
        h
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

    /// Rebind every active core to a fresh generator from the prototype
    /// `scenario` (idle filler cores stay idle) and wake the chip. The
    /// phase-change entry point for diurnal/bursty serving studies:
    /// in-flight operations drain normally, new issues come from the new
    /// phase's generators, per-core seeds are unchanged.
    pub fn reset_scenario(&mut self, scenario: &dyn Scenario) {
        let active = self.cfg.active_cores;
        for c in self.cores.iter_mut().take(active) {
            c.rebind_scenario(scenario);
        }
        self.wake();
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
        self.noc.as_dyn().tick(now);
        self.drain_noc(now);
        self.now += 1;
        self.full_ticks += 1;
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
        self.noc.as_dyn().tick(now);
        self.drain_noc(now);
        self.now += 1;
        self.full_ticks += 1;
        self.dormant_until = self.compute_dormant_until();
        debug_assert_eq!(self.audit_wake(), Ok(()), "wake slots after {now:?}");
    }

    /// Number of *full* (non-skipped) ticks this chip has executed. Every
    /// [`TickMode::Poll`] cycle is a full tick; under [`TickMode::Event`],
    /// `now() - full_ticks()` is the cycles the dormant skip absorbed, and
    /// benches and the tick-cost table in ARCHITECTURE.md use the ratio to
    /// verify dormancy actually engages.
    pub fn full_ticks(&self) -> u64 {
        self.full_ticks
    }

    /// Earliest future cycle any component acts on its own, seen from
    /// `self.now` (the next cycle to simulate): the least class minimum or
    /// latch delivery. `self.now` itself when backlogged or mid-NOC-flight
    /// — those need the full per-cycle loop.
    fn compute_dormant_until(&self) -> Cycle {
        if !self.backlog.is_empty() || !self.noc.as_ref_dyn().is_idle() {
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
        .fold(self.latch.next_ready_at().unwrap_or(NEVER), |next, w| {
            next.min(w.min)
        })
    }

    /// Debug audit of the wake bookkeeping at the end of a full event tick,
    /// seen from `self.now`: every class minimum equals the minimum of its
    /// slots, no slot is later than its component's next activity, and
    /// core and memory-controller slots are exact after clamping to
    /// `self.now`. Side-effect free, so it can run inside `debug_assert!`.
    fn audit_wake(&self) -> Result<(), String> {
        let now = self.now;
        let cores = |i: usize| self.cores[i].next_activity(now);
        self.wake_cores.audit("core", now, true, cores)?;
        let fes = |i: usize| self.frontends[i].next_activity(now);
        self.wake_fes.audit("frontend", now, false, fes)?;
        let bes = |i: usize| self.backends[i].next_activity(now);
        self.wake_bes.audit("backend", now, false, bes)?;
        let rrpps = |i: usize| self.rrpps[i].next_activity(now);
        self.wake_rrpps.audit("rrpp", now, false, rrpps)?;
        let cxs = |i: usize| self.complexes[i].next_activity(now);
        self.wake_cxs.audit("complex", now, false, cxs)?;
        let dirs = |i: usize| self.dirs[i].next_activity(now);
        self.wake_dirs.audit("dir", now, false, dirs)?;
        let mcs = |i: usize| self.mcs[i].next_ready_at();
        self.wake_mcs.audit("mc", now, true, mcs)
    }

    /// Re-activate everything after external mutation: make every wake
    /// slot due and reset the dormant horizon. The rack driver calls this
    /// from `chip_mut` and [`Chip::core_mut`] calls it too;
    /// anything else that reaches around the public API to mutate
    /// components directly should as well.
    pub fn wake(&mut self) {
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
        if let Err(p) = self.noc.as_dyn().try_inject(self.now, pkt) {
            self.backlog.entry(p.src).or_default().push_back(p);
        }
    }

    /// Retry every blocked source in node order, dropping the sources that
    /// drain.
    fn retry_backlog(&mut self, now: Cycle) {
        let noc = self.noc.as_dyn();
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
                let row = self.edge_of_tile(tile);
                let pkt = Self::ni_packet(
                    NocNode::NiBlock(row),
                    self.tile_node(tile),
                    NiMsg::NetIn(resp),
                );
                self.inject(pkt);
            } else if self.cfg.placement.backend_per_tile() {
                // NIper-tile indirection: the response detours via the edge
                // NI to the issuing tile's backend (§6.2).
                let row = self.edge_of_tile(bid);
                let pkt = Self::ni_packet(
                    NocNode::NiBlock(row),
                    self.tile_node(bid),
                    NiMsg::NetIn(resp),
                );
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
            self.wake_rrpps.lower(r, now);
        }
    }

    fn pump_latch(&mut self, now: Cycle) {
        while let Some(l) = self.latch.pop_ready(now) {
            match l {
                Latch::Coh {
                    dst,
                    kind,
                    src,
                    msg,
                } => self.deliver_coh(now, dst, kind, src, msg),
                Latch::Ni { dst, msg } => self.deliver_ni(now, dst, msg),
                Latch::NetResp { backend, resp } => {
                    self.backends[backend].on_response(now, resp);
                    self.wake_bes.lower(backend, now);
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
        self.cores[i].tick(now, &mut self.qps[i], &mut self.complexes[i]);
        // The core may have submitted into its tile complex, so that
        // complex must be visited too.
        self.wake_cxs.lower(i, now);
        if let Some(req) = self.cores[i].take_numa_request() {
            // NUMA issue: request packet core tile -> edge -> rack.
            let row = self.edge_of_tile(i);
            let pkt = Self::ni_packet(self.tile_node(i), NocNode::NiBlock(row), NiMsg::NetOut(req));
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
            let fe_node = self.frontends[f].node();
            let cx = self.complex_index[&fe_node];
            self.frontends[f].tick(now, &mut self.qps, &mut self.complexes[cx]);
            while let Some(e) = self.frontends[f].pop_egress() {
                self.dispatch_rmc(now, fe_node, e);
            }
            if gated {
                // The frontend may have submitted into its complex; the
                // complex subphase runs later this same cycle.
                self.wake_cxs.lower(cx, now);
                self.wake_fes
                    .set(f, self.frontends[f].next_activity(now + 1).unwrap_or(NEVER));
            }
        }
    }

    fn tick_rmc_backends(&mut self, now: Cycle, gated: bool) {
        if gated && !self.wake_bes.begin_pass(now) {
            return;
        }
        for b in 0..self.backends.len() {
            if gated && !self.wake_bes.is_due(b, now) {
                continue;
            }
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
            self.complexes[c].tick(now);
            let node = self.complexes[c].node();
            while let Some(e) = self.complexes[c].pop_egress() {
                let pkt = Self::coh_packet(node, e, false);
                self.inject(pkt);
            }
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
                    }
                    ni_coherence::AccessOrigin::Ni => {
                        let f = self.fe_of_complex[&c];
                        self.frontends[f].on_cache_completion(
                            done.at,
                            done.tag,
                            done.value,
                            &mut self.qps,
                        );
                        let fe_node = self.frontends[f].node();
                        while let Some(e) = self.frontends[f].pop_egress() {
                            self.dispatch_rmc(now, fe_node, e);
                        }
                        // The completion may have queued frontend work
                        // (CQ stores); its subphase already ran this
                        // cycle, so it wakes next cycle — exactly when
                        // the poll loop would next act on it.
                        self.wake_fes.lower(f, now);
                    }
                }
            }
            if gated {
                self.wake_cxs
                    .set(c, self.complexes[c].next_activity(now + 1).unwrap_or(NEVER));
            }
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
            while let Some(reply) = self.mcs[m].pop_ready(now) {
                let (to, _) = self.mc_pending.remove(&reply.tag).expect("tracked request");
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
    /// keep their relative order: MC deliveries share the `mc_seq` tag
    /// counter (MCs drain in ascending order), and a tile's NI-data
    /// delivery may reach its edge's RRPP (tiles drain before NI blocks).
    fn drain_noc(&mut self, now: Cycle) {
        while let Some(pkt) = self.noc.as_dyn().eject_next() {
            self.dispatch_packet(now, pkt);
        }
    }

    fn dispatch_packet(&mut self, now: Cycle, pkt: Packet<ChipMsg>) {
        match pkt.payload {
            ChipMsg::Coh { kind, msg } => self.deliver_coh(now, pkt.dst, kind, pkt.src, msg),
            ChipMsg::Ni(msg) => self.deliver_ni(now, pkt.dst, msg),
        }
    }

    fn deliver_coh(
        &mut self,
        now: Cycle,
        dst: NocNode,
        kind: ClientKind,
        src: NocNode,
        msg: CohMsg,
    ) {
        match (dst, kind) {
            (NocNode::Mc(m), _) => {
                // Memory controller: service NcRead/NcWrite from a bank.
                let tag = self.mc_seq;
                self.mc_seq += 1;
                let (block, kind_req, value) = match msg {
                    CohMsg::NcRead { block } => (block, MemRequestKind::Read, 0),
                    CohMsg::NcWrite { block, value } => (block, MemRequestKind::Write, value),
                    other => panic!("MC received {other:?}"),
                };
                self.mc_pending.insert(tag, (src, true));
                let m = usize::from(m);
                self.mcs[m]
                    .push(now, block, kind_req, value, tag)
                    .expect("uncapped memory controller");
                self.wake_mcs
                    .lower(m, self.mcs[m].next_ready_at().unwrap_or(NEVER));
            }
            (_, ClientKind::Directory) => {
                let d = self.dir_index[&dst];
                self.dirs[d].deliver(now, src, msg);
                self.wake_dirs.lower(d, now);
            }
            (_, ClientKind::Cache) => {
                let c = self.complex_index[&dst];
                self.complexes[c].deliver(now, msg);
                self.wake_cxs.lower(c, now);
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
                    self.wake_rrpps.lower(r, now);
                } else if let Some(&b) = self.backend_index.get(&dst) {
                    if is_data {
                        self.backends[b].on_nc_data(now, block, value);
                    } else {
                        self.backends[b].on_nc_wack(now, block);
                    }
                    self.wake_bes.lower(b, now);
                }
            }
        }
    }

    fn deliver_ni(&mut self, now: Cycle, dst: NocNode, msg: NiMsg) {
        match msg {
            NiMsg::WqFwd { entry, qp, fe } => {
                let b = self.backend_index[&dst];
                self.backends[b].on_wq_entry(now, entry, qp, fe);
                self.wake_bes.lower(b, now);
            }
            NiMsg::CqNotify {
                qp,
                wq_id,
                ok,
                degraded,
            } => {
                let f = self.fe_index[&dst];
                self.frontends[f].on_notify(qp, wq_id, ok, degraded);
                self.wake_fes.lower(f, now);
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
                    let b = self.backend_index[&dst];
                    self.backends[b].on_response(now, resp);
                    self.wake_bes.lower(b, now);
                }
            }
        }
    }

    // ---- geometry helpers --------------------------------------------------

    fn tile_node(&self, i: usize) -> NocNode {
        NocNode::Tile(Coord::new((i % 8) as u8, (i / 8) as u8))
    }

    fn edge_of_tile(&self, i: usize) -> u8 {
        match self.cfg.topology {
            Topology::Mesh => (i / 8) as u8,
            Topology::NocOut => (i % 8) as u8,
        }
    }

    fn home_of(&self, b: BlockAddr) -> NocNode {
        match self.cfg.topology {
            Topology::Mesh => home_mesh(b, self.cfg.n_banks()),
            Topology::NocOut => home_nocout(b, self.cfg.n_banks()),
        }
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
