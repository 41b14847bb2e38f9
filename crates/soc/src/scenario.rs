//! The `Scenario` API: pluggable, deterministic per-core workload generation.
//!
//! The paper motivates its NI designs with *application* traffic — key-value
//! GETs over 64–512B objects, bulk graph edge-list fetches (§2.1) — but the
//! simulator originally only spoke a closed [`Workload`] enum per core and a
//! closed [`TrafficPattern`] enum per rack. A [`Scenario`] opens that
//! boundary: it is a seeded per-core *operation generator* whose
//! [`next_op`](Scenario::next_op) is consulted by a [`Core`](crate::Core)
//! whenever it is ready to issue, and whose [`Op`]s name everything the
//! hardware needs — read/write, destination node, remote address, size, and
//! sync/async issue discipline. The same trait object drives the single-chip
//! bench path ([`Chip::with_scenario`](crate::Chip::with_scenario), behind
//! the paper's rack emulator) and every node of a multi-node
//! [`Rack`](crate::Rack) over a real [`TorusFabric`](ni_fabric::TorusFabric).
//!
//! Determinism contract: a generator must be a pure function of its
//! parameters and the [`OpCtx`] it is given — per-core randomness comes only
//! from [`OpCtx::seed`], which the chip derives from
//! [`ChipConfig::seed`](crate::ChipConfig::seed). Same config, same op
//! stream, bit for bit.
//!
//! Four built-ins ship behind the trait:
//!
//! * [`Synthetic`] — the paper's microbenchmarks: the old [`Workload`] enum
//!   (sync/async read/write, NUMA loads) plus a [`TrafficPattern`]
//!   destination assignment. [`Workload`]-taking constructors across the
//!   crate are thin wrappers over this type.
//! * [`ZipfHotspot`] — Zipf-skewed destinations and keys: most requests pile
//!   onto one hot node, loading its RRPPs and incoming links far beyond the
//!   uniform assumption.
//! * [`KvStore`] — a memcached-like GET/PUT mix over 64–512B objects.
//! * [`GraphShard`] — bulk edge-list fetches (KBs) from remote graph shards.

use ni_engine::Cycle;
use ni_fabric::{ReplicaCfg, ReplicaMap, Torus3D};
use ni_mem::Addr;
use ni_qp::RemoteOp;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::core_model::{Workload, REMOTE_BASE};
use crate::rack::TrafficPattern;

/// Everything a generator may condition on: the core's place in the rack,
/// its private seed, and the issue progress so far.
///
/// The same struct serves both binding time ([`Scenario::for_core`], with
/// `issued == 0`) and issue time ([`Scenario::next_op`], refreshed each
/// call) — generators that bind lazily on first `next_op` see identical
/// information either way.
#[derive(Clone, Copy, Debug)]
pub struct OpCtx {
    /// This chip's node id in the rack.
    pub node: u16,
    /// Core index on the chip.
    pub core: usize,
    /// Total rack node count (2 behind the single-node emulator: self plus
    /// the emulated remote end).
    pub nodes: u32,
    /// Rack geometry when running on a real multi-node fabric.
    pub torus: Option<Torus3D>,
    /// Per-core decorrelated seed (pure function of the chip seed and core
    /// index) — the only entropy source a deterministic scenario may use.
    pub seed: u64,
    /// Operations this core has fetched from the scenario so far.
    pub issued: u64,
    /// Operations this core has issued but not yet reaped from the CQ.
    /// What a closed-loop generator conditions on to bound its outstanding
    /// window; open-loop scenarios may ignore it.
    pub inflight: u64,
    /// Current simulation time.
    pub now: Cycle,
    /// The rack's replication config ([`ReplicaCfg::off`] unless the chip
    /// enables K-way replication). Scenarios may condition on it — e.g.
    /// [`ZipfHotspot`] spreads reads across a hot destination's replica set
    /// when `k > 1` — and every generator may ignore it.
    pub replication: ReplicaCfg,
}

impl OpCtx {
    /// Binding-time context for one core (no ops issued, time zero,
    /// replication off — the chip overwrites [`OpCtx::replication`] after
    /// binding when K-way replication is enabled).
    pub fn bind(node: u16, core: usize, nodes: u32, torus: Option<Torus3D>, seed: u64) -> OpCtx {
        OpCtx {
            node,
            core,
            nodes,
            torus,
            seed,
            issued: 0,
            inflight: 0,
            now: Cycle::ZERO,
            replication: ReplicaCfg::off(),
        }
    }
}

/// One application-level operation, as a core issues it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Nothing this cycle; the core asks again next cycle.
    Idle,
    /// Nothing for the next `cycles` cycles: a *declared* idle window the
    /// core commits to up front, so event-driven drivers can skip it in one
    /// jump instead of re-asking every cycle (duty-cycled workloads,
    /// think-time between bursts). Identical application behavior to
    /// returning [`Op::Idle`] `cycles` times, except the scenario is not
    /// consulted again until the window ends.
    IdleFor {
        /// Length of the idle window in cycles.
        cycles: u64,
    },
    /// A one-sided remote operation through the queue pair.
    Remote {
        /// Read (fetch remote into the local buffer) or write (push local
        /// memory to the remote node).
        op: RemoteOp,
        /// Destination node in the rack.
        to: u16,
        /// Remote virtual address.
        addr: Addr,
        /// Transfer length in bytes.
        size: u64,
        /// Synchronous (spin on the CQ until *this* op completes) vs
        /// asynchronous (enqueue and move on, polling per
        /// [`Scenario::poll_every`]).
        sync: bool,
    },
    /// An idealized NUMA single-block remote load issued directly from the
    /// core, bypassing the QP machinery (the Table 1 baseline).
    Numa {
        /// Destination node in the rack.
        to: u16,
        /// Remote address of the loaded block.
        addr: Addr,
    },
    /// A two-sided request–response operation: shaped like a remote read,
    /// but the serving node's RRPP "computes" for `service` cycles per
    /// block before replying, so the measured completion latency includes
    /// remote service time — the serving-tier request shape, vs the
    /// pure remote-memory semantics of [`Op::Remote`].
    Rpc {
        /// Serving node in the rack.
        to: u16,
        /// Remote address the response payload is read from.
        addr: Addr,
        /// Response length in bytes.
        size: u64,
        /// Remote per-block compute time in cycles.
        service: u64,
        /// Synchronous vs asynchronous issue discipline (see
        /// [`Op::Remote`]).
        sync: bool,
    },
}

/// A deterministic, seeded per-core operation generator.
///
/// A `Scenario` value is used in two roles: as a *prototype* handed to
/// [`Chip::with_scenario`](crate::Chip::with_scenario) /
/// [`Rack::with_scenario`](crate::Rack::with_scenario), and as the per-core
/// *generator* those constructors produce from it via [`for_core`]. Both
/// roles share this one trait so custom scenarios stay a single type.
///
/// ```
/// use ni_mem::Addr;
/// use ni_qp::RemoteOp;
/// use ni_soc::{Op, OpCtx, Scenario, REMOTE_BASE};
///
/// /// Every core ping-pongs 64B reads between its two ring neighbors.
/// #[derive(Clone, Debug)]
/// struct RingPingPong;
///
/// impl Scenario for RingPingPong {
///     fn name(&self) -> &str {
///         "ring-ping-pong"
///     }
///     fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
///         Box::new(self.clone())
///     }
///     fn next_op(&mut self, ctx: &OpCtx) -> Op {
///         let hop = if ctx.issued % 2 == 0 { 1 } else { ctx.nodes - 1 };
///         Op::Remote {
///             op: RemoteOp::Read,
///             to: ((u32::from(ctx.node) + hop) % ctx.nodes) as u16,
///             addr: Addr(REMOTE_BASE + ctx.issued * 64),
///             size: 64,
///             sync: false,
///         }
///     }
/// }
/// ```
///
/// [`for_core`]: Scenario::for_core
pub trait Scenario: std::fmt::Debug + Send + Sync {
    /// Human-readable name (report tables, CSV columns).
    fn name(&self) -> &str;

    /// Build the generator for one core. Must be a pure function of the
    /// prototype's parameters and `ctx` — two calls with equal inputs must
    /// yield generators producing identical op streams.
    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario>;

    /// The next operation this core should issue. Called whenever the core
    /// is ready (WQ has room, no synchronous op outstanding); returning
    /// [`Op::Idle`] defers by one cycle.
    fn next_op(&mut self, ctx: &OpCtx) -> Op;

    /// Asynchronous issue discipline: poll the CQ after this many issues
    /// even when the WQ still has room.
    fn poll_every(&self) -> u32 {
        4
    }

    /// Point subsequent ops at `node`, when this generator supports a fixed
    /// destination ([`Synthetic`] does; randomized scenarios ignore it).
    /// Backs [`Core::set_target`](crate::Core::set_target), the
    /// pre-scenario retargeting API.
    fn retarget(&mut self, node: u16) {
        let _ = node;
    }

    /// The single destination node of this generator when every one of its
    /// ops targets the same node (synthetic patterns); `None` for
    /// randomized scenarios. Feeds [`Core::target`](crate::Core::target).
    fn fixed_target(&self) -> Option<u16> {
        None
    }

    /// True when this generator will return [`Op::Idle`] on every future
    /// [`next_op`](Scenario::next_op) call regardless of context — a
    /// *permanent* idle promise, not a temporary stall. The event-driven
    /// chip tick uses it to let an idle core with nothing in flight sleep
    /// instead of consulting its generator every cycle; returning `false`
    /// (the default) is always safe and merely forgoes that skip.
    fn is_done(&self) -> bool {
        false
    }

    /// Tenant tag this generator's operations are accounted to. Per-tenant
    /// SLO aggregation (`ni_metrics`) groups core statistics by this tag;
    /// single-tenant scenarios keep the default tenant 0. [`TenantMix`]
    /// assigns distinct tags per tenant, and combinators delegate so the
    /// tag survives wrapping.
    fn tenant(&self) -> u8 {
        0
    }
}

/// Decorrelated per-core seed stream from a chip-level master seed (the
/// chip's own seed is already decorrelated per node by the rack driver).
pub fn core_seed(chip_seed: u64, core: usize) -> u64 {
    chip_seed ^ (core as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The four built-in scenarios at their default parameters, in a stable
/// order (sweeps, determinism tests, CI smoke runs).
pub fn builtin_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(Synthetic::from_workload(Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        })),
        Box::new(ZipfHotspot::default()),
        Box::new(KvStore::default()),
        Box::new(GraphShard::default()),
    ]
}

// ---- Capped -----------------------------------------------------------------

/// Caps any inner scenario at a fixed number of operations per core, then
/// promises permanent idleness ([`Scenario::is_done`]).
///
/// This turns an open-loop generator into a *finite job*, which is what
/// completion-time experiments need: run the rack until
/// `nodes x cores x ops_per_core` operations have completed and report the
/// cycle count (see `rackni::experiments::routing_sweep`). Because the cap
/// trips [`is_done`](Scenario::is_done), a core that has issued its share
/// and drained stops waking the event-driven chip tick.
#[derive(Debug)]
pub struct Capped {
    inner: Box<dyn Scenario>,
    ops_per_core: u64,
    issued: u64,
    name: String,
}

impl Capped {
    /// Cap `inner` at `ops_per_core` operations per core (0 = immediately
    /// idle).
    pub fn new(inner: Box<dyn Scenario>, ops_per_core: u64) -> Capped {
        let name = format!("{}-capped", inner.name());
        Capped {
            inner,
            ops_per_core,
            issued: 0,
            name,
        }
    }

    /// The per-core operation budget.
    pub fn ops_per_core(&self) -> u64 {
        self.ops_per_core
    }
}

impl Scenario for Capped {
    fn name(&self) -> &str {
        &self.name
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(Capped {
            inner: self.inner.for_core(ctx),
            ops_per_core: self.ops_per_core,
            issued: 0,
            name: self.name.clone(),
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        if self.issued >= self.ops_per_core {
            return Op::Idle;
        }
        let op = self.inner.next_op(ctx);
        // Only count real operations against the budget: an inner Idle or
        // IdleFor (e.g. a phase gap) must not burn it down.
        if !matches!(op, Op::Idle | Op::IdleFor { .. }) {
            self.issued += 1;
        }
        op
    }

    fn poll_every(&self) -> u32 {
        self.inner.poll_every()
    }

    fn retarget(&mut self, node: u16) {
        self.inner.retarget(node);
    }

    fn fixed_target(&self) -> Option<u16> {
        self.inner.fixed_target()
    }

    fn is_done(&self) -> bool {
        self.issued >= self.ops_per_core || self.inner.is_done()
    }

    fn tenant(&self) -> u8 {
        self.inner.tenant()
    }
}

// ---- Bursty -----------------------------------------------------------------

/// Duty-cycles any inner scenario: `burst_ops` real operations, then one
/// declared [`Op::IdleFor`] window of `idle_cycles`, repeating.
///
/// This is the canonical *idle-heavy* traffic shape: cores alternate short
/// request bursts with long think-time windows, the regime where the
/// event-driven chip tick's next-event skip dominates (the perf-trajectory
/// benchmarks measure it head-to-head against the poll-everything tick).
/// Inner [`Op::Idle`] results do not count against the burst budget, and
/// inner [`Op::IdleFor`] windows pass through untouched.
#[derive(Debug)]
pub struct Bursty {
    inner: Box<dyn Scenario>,
    burst_ops: u64,
    idle_cycles: u64,
    in_burst: u64,
    name: String,
}

impl Bursty {
    /// Duty-cycle `inner`: `burst_ops` operations per burst (min 1), then
    /// `idle_cycles` of declared idleness.
    pub fn new(inner: Box<dyn Scenario>, burst_ops: u64, idle_cycles: u64) -> Bursty {
        let name = format!("{}-bursty", inner.name());
        Bursty {
            inner,
            burst_ops: burst_ops.max(1),
            idle_cycles,
            in_burst: 0,
            name,
        }
    }
}

impl Scenario for Bursty {
    fn name(&self) -> &str {
        &self.name
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(Bursty {
            inner: self.inner.for_core(ctx),
            burst_ops: self.burst_ops,
            idle_cycles: self.idle_cycles,
            in_burst: 0,
            name: self.name.clone(),
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        if self.in_burst >= self.burst_ops {
            self.in_burst = 0;
            return Op::IdleFor {
                cycles: self.idle_cycles,
            };
        }
        let op = self.inner.next_op(ctx);
        if !matches!(op, Op::Idle | Op::IdleFor { .. }) {
            self.in_burst += 1;
        }
        op
    }

    fn poll_every(&self) -> u32 {
        self.inner.poll_every()
    }

    fn retarget(&mut self, node: u16) {
        self.inner.retarget(node);
    }

    fn fixed_target(&self) -> Option<u16> {
        self.inner.fixed_target()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn tenant(&self) -> u8 {
        self.inner.tenant()
    }
}

// ---- ClosedLoop -------------------------------------------------------------

/// Turns any open-loop scenario into a *closed-loop client*: at most
/// `window` operations outstanding per core, with a seeded think time drawn
/// after every completion-freeing issue.
///
/// Open-loop generators issue as fast as the WQ admits, so offered load
/// tracks simulator capacity rather than a client population. A closed
/// loop models `window` synchronous clients per core: while
/// [`OpCtx::inflight`] is at the window the generator returns [`Op::Idle`]
/// (the core keeps polling its CQ until a completion frees a slot), and
/// each real operation is preceded by a think-time window drawn uniformly
/// from `[1, 2·think]` cycles (mean `think`; `think == 0` disables it) from
/// an RNG salted off [`OpCtx::seed`] — decorrelated from the inner
/// scenario's own draws.
#[derive(Debug)]
pub struct ClosedLoop {
    inner: Box<dyn Scenario>,
    window: u64,
    think: u64,
    /// A real op was handed out since the last think window: the next
    /// below-window call owes a think time first.
    owe_think: bool,
    rng: Option<SmallRng>,
    name: String,
}

impl ClosedLoop {
    /// Close the loop over `inner`: at most `window` outstanding ops per
    /// core (min 1), `think` mean cycles between issues (0 = back to back).
    pub fn new(inner: Box<dyn Scenario>, window: u64, think: u64) -> ClosedLoop {
        let name = format!("{}-closed", inner.name());
        ClosedLoop {
            inner,
            window: window.max(1),
            think,
            owe_think: false,
            rng: None,
            name,
        }
    }

    /// The per-core outstanding-operation bound.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Scenario for ClosedLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(ClosedLoop {
            inner: self.inner.for_core(ctx),
            window: self.window,
            think: self.think,
            owe_think: false,
            rng: None,
            name: self.name.clone(),
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        if ctx.inflight >= self.window {
            // Window full: stall one cycle. The core polls its CQ while
            // anything is inflight, so a completion re-opens the window.
            return Op::Idle;
        }
        if self.owe_think && self.think > 0 {
            self.owe_think = false;
            let rng = self
                .rng
                .get_or_insert_with(|| SmallRng::seed_from_u64(ctx.seed ^ 0x7411_6b71_3e5a_11ed));
            return Op::IdleFor {
                cycles: rng.gen_range(1..=2 * self.think),
            };
        }
        let op = self.inner.next_op(ctx);
        if !matches!(op, Op::Idle | Op::IdleFor { .. }) {
            self.owe_think = true;
        }
        op
    }

    /// Closed loops poll every issue: a full window makes progress only
    /// through reaped completions, so the CQ must be checked eagerly.
    fn poll_every(&self) -> u32 {
        1
    }

    fn retarget(&mut self, node: u16) {
        self.inner.retarget(node);
    }

    fn fixed_target(&self) -> Option<u16> {
        self.inner.fixed_target()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn tenant(&self) -> u8 {
        self.inner.tenant()
    }
}

// ---- TenantMix --------------------------------------------------------------

/// One tenant of a [`TenantMix`]: a tag for per-tenant accounting, the
/// scenario prototype its cores run, and a share of the chip's cores.
#[derive(Debug)]
pub struct TenantSpec {
    /// Tenant tag stamped on every core this tenant owns (reported by
    /// [`Scenario::tenant`] and grouped by `ni_metrics`).
    pub tag: u8,
    /// Scenario prototype the tenant's cores bind generators from.
    pub scenario: Box<dyn Scenario>,
    /// Relative share of cores (cores are striped over cumulative shares).
    pub share: u32,
}

/// Statically partitions a chip's cores among tenants: core `i` belongs to
/// the tenant owning slot `i mod Σshares` of the share vector, and runs a
/// generator bound from that tenant's prototype, tagged with the tenant's
/// tag.
///
/// The partition is by *core*, not by op — tenants share the NI pipelines,
/// the NOC, and the fabric, which is exactly the contention surface a
/// multi-tenant serving study measures. Per-core seeds already decorrelate
/// the tenants' randomness; the tag rides [`Scenario::tenant`] from
/// generator to core to chip, where per-tenant statistics are grouped.
#[derive(Debug)]
pub struct TenantMix {
    tenants: Vec<TenantSpec>,
}

impl TenantMix {
    /// An empty mix; add tenants with [`with_tenant`](TenantMix::with_tenant).
    pub fn new() -> TenantMix {
        TenantMix {
            tenants: Vec::new(),
        }
    }

    /// Add a tenant running `scenario` on `share` of every `Σshares` cores.
    pub fn with_tenant(mut self, tag: u8, scenario: Box<dyn Scenario>, share: u32) -> TenantMix {
        self.tenants.push(TenantSpec {
            tag,
            scenario,
            share: share.max(1),
        });
        self
    }

    /// The tenant owning core index `core`.
    fn spec_for(&self, core: usize) -> &TenantSpec {
        assert!(
            !self.tenants.is_empty(),
            "TenantMix needs at least one tenant"
        );
        let total: u32 = self.tenants.iter().map(|t| t.share).sum();
        let mut slot = (core as u32) % total;
        for t in &self.tenants {
            if slot < t.share {
                return t;
            }
            slot -= t.share;
        }
        unreachable!("slot < total is covered by the cumulative scan")
    }
}

impl Default for TenantMix {
    fn default() -> Self {
        TenantMix::new()
    }
}

/// A bound tenant generator: delegates everything to the tenant's inner
/// generator but reports the tenant's tag.
#[derive(Debug)]
struct Tagged {
    inner: Box<dyn Scenario>,
    tag: u8,
}

impl Scenario for Tagged {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(Tagged {
            inner: self.inner.for_core(ctx),
            tag: self.tag,
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        self.inner.next_op(ctx)
    }

    fn poll_every(&self) -> u32 {
        self.inner.poll_every()
    }

    fn retarget(&mut self, node: u16) {
        self.inner.retarget(node);
    }

    fn fixed_target(&self) -> Option<u16> {
        self.inner.fixed_target()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn tenant(&self) -> u8 {
        self.tag
    }
}

impl Scenario for TenantMix {
    fn name(&self) -> &str {
        "tenant-mix"
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        let spec = self.spec_for(ctx.core);
        Box::new(Tagged {
            inner: spec.scenario.for_core(ctx),
            tag: spec.tag,
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        // The mix is a prototype: cores draw from their bound per-tenant
        // generators, never from the mix itself.
        let _ = ctx;
        Op::Idle
    }

    fn is_done(&self) -> bool {
        self.tenants.iter().all(|t| t.scenario.is_done())
    }
}

// ---- Synthetic --------------------------------------------------------------

/// The paper's microbenchmark traffic as a scenario: one fixed [`Workload`]
/// per core, destinations assigned by a [`TrafficPattern`] (multi-node) or
/// pointed at the emulated remote end (single-node).
///
/// This subsumes the pre-scenario `Workload`/`TrafficPattern` surface;
/// [`Chip::new`](crate::Chip::new) and [`Rack::new`](crate::Rack::new) are
/// thin wrappers over it.
#[derive(Clone, Debug)]
pub struct Synthetic {
    workload: Workload,
    pattern: TrafficPattern,
    /// Bound destination; `None` until [`Scenario::for_core`] (or an
    /// explicit [`with_dest`](Synthetic::with_dest)) fixes it.
    dest: Option<u16>,
    /// Remote address cursor (bytes past [`REMOTE_BASE`]).
    cursor: u64,
}

impl Synthetic {
    /// Wrap a workload with the default [`TrafficPattern::Uniform`]
    /// destination assignment.
    pub fn from_workload(workload: Workload) -> Synthetic {
        Synthetic {
            workload,
            pattern: TrafficPattern::Uniform,
            dest: None,
            cursor: 0,
        }
    }

    /// Use `pattern` to assign per-core destinations on a multi-node rack.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Synthetic {
        self.pattern = pattern;
        self
    }

    /// Pin every op of this generator at `node`, overriding the pattern.
    pub fn with_dest(mut self, node: u16) -> Synthetic {
        self.dest = Some(node);
        self
    }

    /// The wrapped workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    fn advance(&mut self, size: u64) -> Addr {
        let a = REMOTE_BASE + self.cursor;
        self.cursor += size.max(64).next_multiple_of(64);
        Addr(a)
    }
}

impl From<Workload> for Synthetic {
    fn from(w: Workload) -> Synthetic {
        Synthetic::from_workload(w)
    }
}

impl Scenario for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        let dest = self.dest.or(Some(match ctx.torus {
            // Multi-node rack: the pattern picks this core's destination.
            Some(t) => self.pattern.target(t, u32::from(ctx.node), ctx.core) as u16,
            // Single-node emulator: the (ignored) conventional remote end.
            None => 1,
        }));
        Box::new(Synthetic {
            dest,
            cursor: 0,
            ..self.clone()
        })
    }

    fn next_op(&mut self, _ctx: &OpCtx) -> Op {
        let to = self.dest.unwrap_or(1);
        match self.workload {
            Workload::Idle => Op::Idle,
            Workload::SyncRead { size } => Op::Remote {
                op: RemoteOp::Read,
                to,
                addr: self.advance(size),
                size,
                sync: true,
            },
            Workload::SyncWrite { size } => Op::Remote {
                op: RemoteOp::Write,
                to,
                addr: self.advance(size),
                size,
                sync: true,
            },
            Workload::AsyncRead { size, .. } => Op::Remote {
                op: RemoteOp::Read,
                to,
                addr: self.advance(size),
                size,
                sync: false,
            },
            Workload::AsyncWrite { size, .. } => Op::Remote {
                op: RemoteOp::Write,
                to,
                addr: self.advance(size),
                size,
                sync: false,
            },
            Workload::NumaRead => Op::Numa {
                to,
                addr: self.advance(64),
            },
        }
    }

    fn poll_every(&self) -> u32 {
        match self.workload {
            Workload::AsyncRead { poll_every, .. } | Workload::AsyncWrite { poll_every, .. } => {
                poll_every
            }
            _ => 4,
        }
    }

    fn fixed_target(&self) -> Option<u16> {
        self.dest
    }

    fn retarget(&mut self, node: u16) {
        self.dest = Some(node);
    }

    fn is_done(&self) -> bool {
        // An Idle workload never issues anything: the permanent-idle
        // promise that lets its core sleep under the event-driven tick.
        matches!(self.workload, Workload::Idle)
    }
}

// ---- Zipf sampling ----------------------------------------------------------

/// Zipf(θ) sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1/(r+1)^θ`. Precomputed CDF, `O(log n)` per sample.
/// θ = 0 degenerates to uniform; θ ≈ 1 is the classical web/KV skew; larger
/// θ concentrates harder on rank 0.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `theta` is negative.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(theta >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        // 53 uniform mantissa bits in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (self.cdf.partition_point(|&c| c < u)).min(self.cdf.len() - 1) as u64
    }
}

/// Uniform destination over every node but one's own (self when alone).
fn uniform_other(rng: &mut SmallRng, node: u16, nodes: u32) -> u16 {
    if nodes <= 1 {
        return node;
    }
    let r = rng.gen_range(0..nodes - 1);
    if r >= u32::from(node) {
        (r + 1) as u16
    } else {
        r as u16
    }
}

// ---- ZipfHotspot ------------------------------------------------------------

/// Zipf-skewed destinations *and* keys: the ROADMAP's "skewed / hotspot
/// traffic" scenario.
///
/// Destination rank `r` maps to node `(hot_node + r) mod N`, so every core
/// on every node agrees on which node is hottest — rank 0 receives the
/// Zipf(θ) head of the rack's whole request stream, queueing its RRPPs and
/// saturating its incoming links while the uniform assumption would spread
/// that load evenly. Keys are Zipf-skewed too, so the hot node's hot blocks
/// contend in its LLC. Compare
/// [`Rack::link_report`](crate::Rack::link_report) between this and
/// [`Synthetic`] uniform traffic to see the per-link hotspot.
#[derive(Clone, Debug)]
pub struct ZipfHotspot {
    /// Skew exponent for both destination and key draws.
    pub theta: f64,
    /// Transfer size in bytes.
    pub size: u64,
    /// Key-space size per node.
    pub keys: u64,
    /// Fraction of ops issued as remote writes (the rest read).
    pub write_fraction: f64,
    /// The rack-wide hottest node (rank 0 of the destination Zipf).
    pub hot_node: u32,
    /// Async poll cadence.
    pub poll_every: u32,
    state: Option<ZipfState>,
}

#[derive(Clone, Debug)]
struct ZipfState {
    rng: SmallRng,
    node_zipf: Zipf,
    key_zipf: Zipf,
    /// Replica placement, derived lazily when [`OpCtx::replication`] has
    /// `k > 1`: reads of a hot destination spread across its replica set
    /// (any replica serves a read), which is the client-side half of the
    /// availability story — the server-side half is the backend's failover
    /// and quorum machinery.
    replicas: Option<ReplicaMap>,
}

impl Default for ZipfHotspot {
    fn default() -> Self {
        ZipfHotspot {
            theta: 1.2,
            size: 256,
            keys: 4096,
            write_fraction: 0.0,
            hot_node: 0,
            poll_every: 4,
            state: None,
        }
    }
}

impl ZipfHotspot {
    /// Set the skew exponent (0 = uniform; ~1 = classical KV skew).
    pub fn with_theta(mut self, theta: f64) -> ZipfHotspot {
        self.theta = theta.max(0.0);
        self
    }

    /// Set the transfer size in bytes.
    pub fn with_size(mut self, size: u64) -> ZipfHotspot {
        self.size = size.max(1);
        self
    }

    /// Set which node receives the Zipf head of the rack's traffic.
    pub fn with_hot_node(mut self, node: u32) -> ZipfHotspot {
        self.hot_node = node;
        self
    }

    /// Set the fraction of ops issued as remote writes.
    pub fn with_write_fraction(mut self, f: f64) -> ZipfHotspot {
        self.write_fraction = f.clamp(0.0, 1.0);
        self
    }
}

impl Scenario for ZipfHotspot {
    fn name(&self) -> &str {
        "zipf-hotspot"
    }

    fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(ZipfHotspot {
            state: None,
            ..self.clone()
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        let nodes = ctx.nodes.max(1);
        let (theta, keys) = (self.theta, self.keys.max(1));
        let replication = ctx.replication;
        let torus = ctx.torus;
        let st = self.state.get_or_insert_with(|| ZipfState {
            rng: SmallRng::seed_from_u64(ctx.seed),
            node_zipf: Zipf::new(u64::from(nodes), theta),
            key_zipf: Zipf::new(keys, theta),
            replicas: replication.enabled().then(|| match torus {
                Some(t) => ReplicaMap::new(t, replication.seed, replication.k),
                None => ReplicaMap::ring(nodes, replication.seed, replication.k),
            }),
        });
        let rank = st.node_zipf.sample(&mut st.rng) as u32;
        let mut to = ((self.hot_node + rank) % nodes) as u16;
        if to == ctx.node && nodes > 1 {
            // Never self-target: the hot node bounces its own rank-0 draws
            // to the next-hotter neighbor.
            to = ((u32::from(to) + 1) % nodes) as u16;
        }
        let key = st.key_zipf.sample(&mut st.rng);
        let stride = self.size.max(64).next_multiple_of(64);
        let op = if self.write_fraction > 0.0 && st.rng.gen_range(0.0..1.0) < self.write_fraction {
            RemoteOp::Write
        } else {
            RemoteOp::Read
        };
        // With replication on, any replica serves a read: spread the hot
        // destination's read load uniformly across its replica set (writes
        // stay on the primary — the backend fans them out to the quorum).
        if op == RemoteOp::Read {
            if let Some(map) = &st.replicas {
                let set = map.replicas(to);
                if set.len() > 1 {
                    let pick = set[st.rng.gen_range(0..set.len())];
                    if pick != ctx.node {
                        to = pick;
                    }
                }
            }
        }
        Op::Remote {
            op,
            to,
            addr: Addr(REMOTE_BASE + key * stride),
            size: self.size,
            sync: false,
        }
    }

    fn poll_every(&self) -> u32 {
        self.poll_every
    }
}

// ---- KvStore ----------------------------------------------------------------

/// A distributed key-value store (§2.1): GETs are one-sided remote reads of
/// the value, PUTs one-sided remote writes, over a memcached-like object
/// size mix (Atikoglu et al. \[5\]) and uniform key/shard placement.
#[derive(Clone, Debug)]
pub struct KvStore {
    /// `(value bytes, weight)` object-size mix.
    pub mix: [(u64, f64); 4],
    /// Fraction of ops that are GETs (the rest PUT).
    pub get_fraction: f64,
    /// Keys per shard.
    pub keys: u64,
    /// Issue GETs synchronously (per-request latency mode) instead of
    /// streaming them asynchronously (throughput mode).
    pub sync: bool,
    /// Async poll cadence.
    pub poll_every: u32,
    /// Remote per-block compute time in cycles. Zero (the default) keeps
    /// GETs one-sided remote reads; non-zero turns them into two-sided
    /// [`Op::Rpc`] request–responses whose serving RRPP computes for this
    /// long before replying — the serving-tier shape.
    pub service: u64,
    rng: Option<SmallRng>,
}

impl KvStore {
    /// Largest value in the default mix; also the key stride in the remote
    /// address space.
    pub const MAX_VALUE_BYTES: u64 = 512;

    /// Issue GETs synchronously (per-request latency mode).
    pub fn synchronous(mut self) -> KvStore {
        self.sync = true;
        self
    }

    /// Set the GET fraction (the rest are PUTs).
    pub fn with_get_fraction(mut self, f: f64) -> KvStore {
        self.get_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Set the per-shard key-space size.
    pub fn with_keys(mut self, keys: u64) -> KvStore {
        self.keys = keys.max(1);
        self
    }

    /// Make GETs two-sided: the serving RRPP computes for `cycles` per
    /// block before replying (0 = one-sided reads, the default).
    pub fn with_service(mut self, cycles: u64) -> KvStore {
        self.service = cycles;
        self
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            // Facebook's Memcached pools: most objects 64..512B, ~500B mean
            // in the largest pools.
            mix: [(64, 0.35), (128, 0.30), (256, 0.20), (512, 0.15)],
            get_fraction: 0.95,
            keys: 65_536,
            sync: false,
            poll_every: 4,
            service: 0,
            rng: None,
        }
    }
}

impl Scenario for KvStore {
    fn name(&self) -> &str {
        "kv-store"
    }

    fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(KvStore {
            rng: None,
            ..self.clone()
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        let rng = self
            .rng
            .get_or_insert_with(|| SmallRng::seed_from_u64(ctx.seed));
        let to = uniform_other(rng, ctx.node, ctx.nodes);
        let total: f64 = self.mix.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen_range(0.0..1.0) * total.max(f64::EPSILON);
        let mut size = self.mix[self.mix.len() - 1].0;
        for &(s, w) in &self.mix {
            if pick < w {
                size = s;
                break;
            }
            pick -= w;
        }
        let key = rng.gen_range(0..self.keys.max(1));
        let op = if rng.gen_range(0.0..1.0) < self.get_fraction {
            RemoteOp::Read
        } else {
            RemoteOp::Write
        };
        let addr = Addr(REMOTE_BASE + key * Self::MAX_VALUE_BYTES);
        if op == RemoteOp::Read && self.service > 0 {
            // Two-sided GET: the server computes before the value comes
            // back; PUTs stay one-sided remote writes either way.
            return Op::Rpc {
                to,
                addr,
                size,
                service: self.service,
                sync: self.sync,
            };
        }
        Op::Remote {
            op,
            to,
            addr,
            size,
            sync: self.sync,
        }
    }

    fn poll_every(&self) -> u32 {
        self.poll_every
    }
}

// ---- GraphShard -------------------------------------------------------------

/// Graph analytics over a rack-partitioned graph (§1, §2.1): every
/// out-of-shard vertex expansion is a bulk one-sided read of the neighbor
/// list — kilobytes per op (Lim et al. \[32\]) — from a uniformly random
/// remote shard. List sizes are log-uniform over
/// `[min_list_bytes, max_list_bytes]` in power-of-two steps.
#[derive(Clone, Debug)]
pub struct GraphShard {
    /// Smallest edge-list fetch in bytes.
    pub min_list_bytes: u64,
    /// Largest edge-list fetch in bytes.
    pub max_list_bytes: u64,
    /// Vertices per shard (remote address space: one max-size slot each).
    pub vertices: u64,
    /// Async poll cadence.
    pub poll_every: u32,
    rng: Option<SmallRng>,
}

impl Default for GraphShard {
    fn default() -> Self {
        GraphShard {
            min_list_bytes: 2048,
            max_list_bytes: 8192,
            vertices: 4096,
            poll_every: 4,
            rng: None,
        }
    }
}

impl GraphShard {
    /// Set the edge-list size range in bytes (`min..=max`, power-of-two
    /// steps).
    pub fn with_lists(mut self, min_bytes: u64, max_bytes: u64) -> GraphShard {
        self.min_list_bytes = min_bytes.max(64);
        self.max_list_bytes = max_bytes.max(self.min_list_bytes);
        self
    }
}

impl Scenario for GraphShard {
    fn name(&self) -> &str {
        "graph-shard"
    }

    fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(GraphShard {
            rng: None,
            ..self.clone()
        })
    }

    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        let rng = self
            .rng
            .get_or_insert_with(|| SmallRng::seed_from_u64(ctx.seed));
        let to = uniform_other(rng, ctx.node, ctx.nodes);
        let min = self.min_list_bytes.max(64);
        let max = self.max_list_bytes.max(min);
        let steps = (max / min).max(1).ilog2();
        let size = (min << rng.gen_range(0..=u64::from(steps))).min(max);
        let vertex = rng.gen_range(0..self.vertices.max(1));
        Op::Remote {
            op: RemoteOp::Read,
            to,
            addr: Addr(REMOTE_BASE + vertex * max),
            size,
            sync: false,
        }
    }

    fn poll_every(&self) -> u32 {
        self.poll_every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(node: u16, core: usize, nodes: u32, seed: u64) -> OpCtx {
        OpCtx::bind(node, core, nodes, Some(Torus3D::new(2, 2, 2)), seed)
    }

    fn stream(s: &dyn Scenario, ctx: &OpCtx, n: usize) -> Vec<Op> {
        let mut g = s.for_core(ctx);
        let mut c = *ctx;
        (0..n)
            .map(|i| {
                c.issued = i as u64;
                g.next_op(&c)
            })
            .collect()
    }

    #[test]
    fn builtin_generators_are_deterministic_per_core() {
        let c = ctx(3, 5, 8, 0xdead_beef);
        for s in builtin_scenarios() {
            assert_eq!(
                stream(s.as_ref(), &c, 256),
                stream(s.as_ref(), &c, 256),
                "{} must replay identically from the same ctx",
                s.name()
            );
        }
    }

    #[test]
    fn builtin_generators_decorrelate_across_seeds() {
        let a = ctx(3, 5, 8, 1);
        let b = ctx(3, 5, 8, 2);
        for s in builtin_scenarios() {
            if s.name() == "synthetic" {
                continue; // synthetic streams are seed-independent by design
            }
            assert_ne!(
                stream(s.as_ref(), &a, 64),
                stream(s.as_ref(), &b, 64),
                "{} must vary with the seed",
                s.name()
            );
        }
    }

    #[test]
    fn ops_stay_on_the_rack_and_off_the_issuing_node() {
        for s in builtin_scenarios() {
            for node in 0..8u16 {
                let c = ctx(node, 0, 8, 42);
                for op in stream(s.as_ref(), &c, 200) {
                    if let Op::Remote { to, size, .. } = op {
                        assert!(u32::from(to) < 8, "{}: node {to} out of rack", s.name());
                        assert_ne!(to, node, "{}: self-targeted op", s.name());
                        assert!(size > 0, "{}: empty transfer", s.name());
                    }
                }
            }
        }
    }

    #[test]
    fn synthetic_reproduces_the_workload_cursor() {
        let c = ctx(0, 0, 8, 7);
        let ops = stream(
            &Synthetic::from_workload(Workload::SyncRead { size: 100 }),
            &c,
            3,
        );
        // 100B rounds to two 64B blocks: addresses step by 128.
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Remote { addr, sync, .. } => {
                    assert_eq!(addr, Addr(REMOTE_BASE + 128 * i as u64));
                    assert!(sync);
                }
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn synthetic_retargets_through_the_trait() {
        let c = ctx(0, 0, 8, 1);
        let mut g = Synthetic::from_workload(Workload::SyncRead { size: 64 }).for_core(&c);
        g.retarget(5);
        assert_eq!(g.fixed_target(), Some(5));
        match g.next_op(&c) {
            Op::Remote { to, .. } => assert_eq!(to, 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capped_issues_exactly_the_budget_then_promises_idleness() {
        let c = ctx(0, 0, 8, 3);
        let proto = Capped::new(
            Box::new(Synthetic::from_workload(Workload::AsyncRead {
                size: 128,
                poll_every: 2,
            })),
            4,
        );
        assert_eq!(proto.name(), "synthetic-capped");
        assert_eq!(proto.poll_every(), 2, "cadence must delegate to inner");
        let mut g = proto.for_core(&c);
        assert!(!g.is_done());
        let mut real = 0;
        let mut cx = c;
        for i in 0..20u64 {
            cx.issued = i;
            if g.next_op(&cx) != Op::Idle {
                real += 1;
            }
        }
        assert_eq!(real, 4, "exactly the budget issues");
        assert!(g.is_done(), "spent generator must promise permanent idle");
        // A fresh generator from the same prototype has its own budget.
        assert!(!proto.for_core(&c).is_done());
    }

    #[test]
    fn capped_propagates_inner_idles_and_doneness() {
        let c = ctx(0, 0, 8, 3);
        let mut g = Capped::new(Box::new(Synthetic::from_workload(Workload::Idle)), 4).for_core(&c);
        let mut cx = c;
        for i in 0..10u64 {
            cx.issued = i;
            // Inner idles pass through without burning the budget...
            assert_eq!(g.next_op(&cx), Op::Idle);
        }
        // ...and a permanently idle inner makes the wrapper done even with
        // budget left.
        assert!(g.is_done());
    }

    #[test]
    fn closed_loop_stalls_at_the_window_and_draws_think_time() {
        let c = ctx(0, 0, 8, 17);
        let proto = ClosedLoop::new(Box::new(KvStore::default()), 4, 100);
        assert_eq!(proto.name(), "kv-store-closed");
        assert_eq!(proto.poll_every(), 1, "closed loops poll eagerly");
        let mut g = proto.for_core(&c);
        let mut cx = c;
        // At the window: idle, and the inner scenario is not consulted.
        cx.inflight = 4;
        for _ in 0..8 {
            assert_eq!(g.next_op(&cx), Op::Idle);
        }
        // Below the window: a real op, then a think window, alternating.
        cx.inflight = 0;
        let mut real = 0;
        let mut thinks = 0;
        for i in 0..40u64 {
            cx.issued = i;
            match g.next_op(&cx) {
                Op::Idle => {}
                Op::IdleFor { cycles } => {
                    assert!((1..=200).contains(&cycles), "think {cycles}");
                    thinks += 1;
                }
                _ => real += 1,
            }
        }
        assert!(real > 0 && thinks > 0);
        assert_eq!(real, thinks, "every issue owes exactly one think window");
    }

    #[test]
    fn closed_loop_replays_identically_from_the_same_ctx() {
        let c = ctx(2, 3, 8, 0xabcd);
        let run = |n: usize| {
            let proto = ClosedLoop::new(Box::new(KvStore::default()), 8, 50);
            let mut g = proto.for_core(&c);
            let mut cx = c;
            (0..n)
                .map(|i| {
                    cx.issued = i as u64;
                    cx.inflight = (i as u64) % 9;
                    g.next_op(&cx)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(256), run(256));
    }

    #[test]
    fn tenant_mix_stripes_cores_and_tags_ops() {
        let mix = TenantMix::new()
            .with_tenant(1, Box::new(KvStore::default()), 3)
            .with_tenant(2, Box::new(GraphShard::default()), 1);
        // Shares 3:1 over 16 cores: cores 0..3 mod 4 → kv,kv,kv,graph.
        let mut counts = [0u32; 3];
        for core in 0..16 {
            let c = OpCtx::bind(0, core, 8, Some(Torus3D::new(2, 2, 2)), 9);
            let g = mix.for_core(&c);
            counts[usize::from(g.tenant())] += 1;
            match g.tenant() {
                1 => assert_eq!(g.name(), "kv-store"),
                2 => assert_eq!(g.name(), "graph-shard"),
                t => panic!("unexpected tenant {t}"),
            }
        }
        assert_eq!(counts, [0, 12, 4]);
    }

    #[test]
    fn tenant_tag_survives_combinator_wrapping() {
        let mix = TenantMix::new().with_tenant(7, Box::new(KvStore::default()), 1);
        let c = ctx(0, 0, 8, 1);
        let bound = mix.for_core(&c);
        let wrapped = ClosedLoop::new(Capped::new(bound, 100).for_core(&c), 4, 0);
        assert_eq!(wrapped.tenant(), 7);
    }

    #[test]
    fn kv_service_turns_gets_into_rpcs() {
        let c = ctx(1, 0, 8, 5);
        let mut saw_rpc = false;
        for op in stream(&KvStore::default().with_service(300), &c, 300) {
            match op {
                Op::Rpc { service, size, .. } => {
                    assert_eq!(service, 300);
                    assert!([64, 128, 256, 512].contains(&size));
                    saw_rpc = true;
                }
                Op::Remote { op, .. } => {
                    assert_eq!(op, RemoteOp::Write, "only PUTs stay one-sided")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_rpc);
    }

    #[test]
    fn zipf_head_dominates_with_skew() {
        let z = Zipf::new(64, 1.2);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut head = 0u32;
        for _ in 0..10_000 {
            if z.sample(&mut rng) == 0 {
                head += 1;
            }
        }
        // Rank 0 of Zipf(1.2) over 64 ranks carries ~28% of the mass.
        assert!((2_000..4_500).contains(&head), "head draws: {head}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for c in counts {
            assert!((1_700..2_300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn hotspot_concentrates_destinations_rack_wide() {
        // Tally destinations drawn by one core on each of 8 nodes: the
        // configured hot node must dominate even though it never targets
        // itself.
        let mut hits = [0u64; 8];
        for node in 0..8u16 {
            let c = ctx(node, 0, 8, 100 + u64::from(node));
            for op in stream(&ZipfHotspot::default(), &c, 500) {
                if let Op::Remote { to, .. } = op {
                    hits[usize::from(to)] += 1;
                }
            }
        }
        let hot = hits[0];
        let coldest = *hits.iter().min().expect("eight nodes");
        assert!(hot > 3 * coldest.max(1), "hot node must dominate: {hits:?}");
    }

    #[test]
    fn kv_mix_draws_only_configured_sizes() {
        let c = ctx(1, 2, 8, 5);
        for op in stream(&KvStore::default(), &c, 500) {
            if let Op::Remote { size, .. } = op {
                assert!([64, 128, 256, 512].contains(&size), "{size}");
            }
        }
    }

    #[test]
    fn graph_lists_stay_in_range_and_bulk() {
        let c = ctx(1, 2, 8, 5);
        for op in stream(&GraphShard::default(), &c, 500) {
            if let Op::Remote { size, .. } = op {
                assert!((2048..=8192).contains(&size), "{size}");
                assert!(size.is_power_of_two());
            }
        }
    }
}
