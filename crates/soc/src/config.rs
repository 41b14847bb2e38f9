//! Node configuration (Table 2 defaults).
//!
//! A [`ChipConfig`] holds what a study varies: NI placement, NOC topology
//! and routing, the cache and RMC knobs the ablations turn, and the rack
//! emulation. What Table 2 and Table 3 fix is a constant next to the code
//! that reads it: the [`GRID`]` x `[`GRID`] tile layout, router and memory
//! timing, cache latencies, RMC stage delays and the QP geometry.

use ni_coherence::CoherenceConfig;
use ni_fabric::RackConfig;
use ni_noc::{RoutingPolicy, GRID};
use ni_rmc::{NiPlacement, RmcConfig};

/// On-chip interconnect organization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// 2D mesh, one tile per core (Table 2).
    #[default]
    Mesh,
    /// NOC-Out: flattened-butterfly LLC row plus per-column trees (§6.3).
    NocOut,
}

/// How [`Chip::tick`](crate::Chip::tick) visits its components.
///
/// Both modes are bit-identical in every observable (fingerprints, stats,
/// traces): `Event` skips only ticks that are provably no-ops. `Poll` is
/// kept as the reference implementation the fingerprint tests compare
/// against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TickMode {
    /// Event-driven (default): per-class activity timestamps gate each
    /// component visit, and a chip whose next self-driven event is in the
    /// future skips whole cycles in its dormant fast path.
    #[default]
    Event,
    /// Poll everything: every component of every class is visited every
    /// cycle (the pre-event-driven reference behavior).
    Poll,
}

/// Full node configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChipConfig {
    /// Interconnect organization.
    pub topology: Topology,
    /// NI placement design point.
    pub placement: NiPlacement,
    /// Mesh routing policy (ignored by NOC-Out, which is source-routed).
    pub routing: RoutingPolicy,
    /// Cache hierarchy parameters.
    pub coherence: CoherenceConfig,
    /// RMC pipeline parameters.
    pub rmc: RmcConfig,
    /// Rack emulation parameters (hops, 35ns links, mirroring).
    pub rack: RackConfig,
    /// This chip's node id in the rack (0 for single-node runs; assigned by
    /// the multi-node [`crate::Rack`] driver otherwise).
    pub node_id: u16,
    /// Master RNG seed for this chip's run. Threaded into the rack
    /// emulator's traffic generator (overriding `rack.seed`) so every run —
    /// emulated or multi-node — is reproducible from its config alone.
    pub seed: u64,
    /// Cores running the workload (the rest idle), from core 0 upward.
    pub active_cores: usize,
    /// Tick discipline: event-driven active sets (default) or the
    /// poll-everything reference loop.
    pub tick_mode: TickMode,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            topology: Topology::Mesh,
            placement: NiPlacement::Split,
            routing: RoutingPolicy::CdrNi,
            coherence: CoherenceConfig::default(),
            rmc: RmcConfig::default(),
            rack: RackConfig::default(),
            node_id: 0,
            seed: RackConfig::default().seed,
            active_cores: 64,
            tick_mode: TickMode::default(),
        }
    }
}

impl ChipConfig {
    /// Total core count: one per tile on both topologies.
    pub fn n_cores(&self) -> usize {
        usize::from(GRID) * usize::from(GRID)
    }

    /// Number of LLC/directory banks (one per tile on the mesh, one per LLC
    /// tile on NOC-Out).
    pub fn n_banks(&self) -> u32 {
        match self.topology {
            Topology::Mesh => self.n_cores() as u32,
            Topology::NocOut => u32::from(GRID),
        }
    }

    /// Number of NI blocks / RRPPs / memory controllers (one per mesh row or
    /// butterfly column).
    pub fn n_edge(&self) -> usize {
        usize::from(GRID)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ni_fabric::HOP_CYCLES;
    use ni_mem::MemConfig;
    use ni_qp::WQ_ENTRIES;

    #[test]
    fn defaults_describe_the_paper_chip() {
        let c = ChipConfig::default();
        assert_eq!(c.n_cores(), 64);
        assert_eq!(c.n_banks(), 64);
        assert_eq!(c.n_edge(), 8);
        assert_eq!(c.placement, NiPlacement::Split);
        assert_eq!(c.routing, RoutingPolicy::CdrNi);
        // Table 2: 50 ns memory, 35 ns per rack hop at 2 GHz, and the §5
        // bandwidth microbenchmark's 128-entry WQs.
        assert_eq!(MemConfig::default().latency, 100);
        assert_eq!(HOP_CYCLES, 70);
        assert_eq!(WQ_ENTRIES, 128);
    }

    #[test]
    fn nocout_has_eight_llc_banks() {
        let c = ChipConfig {
            topology: Topology::NocOut,
            ..ChipConfig::default()
        };
        assert_eq!(c.n_cores(), 64);
        assert_eq!(c.n_banks(), 8);
        assert_eq!(c.n_edge(), 8);
    }
}
