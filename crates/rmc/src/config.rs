//! RMC configuration: pipeline timings and the NI placement design space.

use ni_fabric::ReplicaCfg;

/// The NI design space of §3 plus the idealized NUMA baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NiPlacement {
    /// Full RGP/RCP pipelines along the chip edge, one pair per NI block
    /// (§3.1). Lowest hardware cost; QP traffic crosses the whole NOC.
    Edge,
    /// Full RGP/RCP at every tile (§3.2). Minimal QP latency; unrolls and
    /// response indirection flood the NOC on bulk transfers.
    PerTile,
    /// The paper's contribution (§3.3): RGP/RCP frontends per tile, backends
    /// across the edge. Best of both.
    #[default]
    Split,
    /// Idealized hardware NUMA: the core issues single-block remote
    /// load/stores directly, with no QP machinery (Table 1's baseline).
    Numa,
}

impl NiPlacement {
    /// All QP-based placements (excludes the NUMA baseline).
    pub const QP_DESIGNS: [NiPlacement; 3] =
        [NiPlacement::Edge, NiPlacement::PerTile, NiPlacement::Split];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NiPlacement::Edge => "NI_edge",
            NiPlacement::PerTile => "NI_per-tile",
            NiPlacement::Split => "NI_split",
            NiPlacement::Numa => "NUMA",
        }
    }

    /// True when RGP/RCP frontends sit at each tile.
    pub fn frontend_per_tile(self) -> bool {
        matches!(self, NiPlacement::PerTile | NiPlacement::Split)
    }

    /// True when RGP/RCP backends sit at each tile.
    pub fn backend_per_tile(self) -> bool {
        matches!(self, NiPlacement::PerTile)
    }
}

/// Pipeline capacity and recovery parameters. The fixed stage delays sit
/// next to the stages: [`RGP_FE_PROC`](crate::RGP_FE_PROC) and
/// [`RCP_FE_PROC`](crate::RCP_FE_PROC) in the frontend,
/// [`RGP_BE_PROC`](crate::RGP_BE_PROC), [`RCP_BE_PROC`](crate::RCP_BE_PROC)
/// and [`UNROLL_PER_CYCLE`](crate::UNROLL_PER_CYCLE) in the backend,
/// [`RRPP_PROC`](crate::RRPP_PROC) in the RRPP.
#[derive(Clone, Copy, Debug)]
pub struct RmcConfig {
    /// Inflight Transfer Table slots per backend.
    pub itt_slots: usize,
    /// Concurrent requests one RRPP keeps in flight.
    pub rrpp_max_outstanding: usize,
    /// Cycles between WQ polls when the previous poll found nothing.
    pub poll_backoff: u64,
    /// WQ polls of *distinct* QPs one frontend keeps in flight. Per-tile
    /// frontends serve one QP, so this only matters for NIedge, where each
    /// edge frontend services a whole row of cores. The default of 1 models
    /// the paper's serialized RGP poll loop (and reproduces Table 3's
    /// NIedge numbers); higher values are an extension studied by ablation
    /// A3 of the `paper` example. Must be at least 1:
    /// [`NiFrontend::new`](crate::NiFrontend::new) rejects 0.
    pub fe_poll_concurrency: usize,
    /// Cycles an ITT entry may sit without progress (no response arriving)
    /// before the backend declares it timed out and re-sends its missing
    /// blocks — the recovery path for traffic a dead link or node erased.
    /// `0` disables the watchdog entirely (the paper's fault-free
    /// methodology, and the default: a healthy run is bit-identical with
    /// the watchdog armed or not, but disabled costs nothing per tick).
    /// When set, it must comfortably exceed the worst-case round trip
    /// *plus* the unroll time of the largest transfer, or healthy
    /// transfers will spuriously retry.
    pub itt_timeout: u64,
    /// Re-send attempts per ITT entry after a timeout before the backend
    /// gives up and completes the operation with an error CQ status
    /// ([`ni_qp::CqEntry::ok`]` == false`). Only meaningful with a
    /// non-zero `itt_timeout`.
    pub itt_retries: u32,
    /// K-way replication (`k`, write quorum `w`, placement seed). The
    /// default ([`ReplicaCfg::off`], `k == 1`) disables every recovery path
    /// and keeps all existing runs bit-identical. With `k > 1` the chip
    /// derives a deterministic [`ReplicaMap`](ni_fabric::ReplicaMap) and
    /// its backends fail reads over across it and fan writes out to a
    /// `w`-of-`k` quorum.
    pub replication: ReplicaCfg,
    /// WQ replays per transfer: after the ITT watchdog exhausts
    /// `itt_retries` re-sends toward one destination, the backend may
    /// re-inject the whole transfer from its WQ descriptor toward the next
    /// replica this many times before error-completing. `0` (the default)
    /// disables replay. Only read transfers replay (replicated writes
    /// recover through the quorum instead), and a chip rejects a non-zero
    /// budget without an armed watchdog and replication `k > 1`.
    pub replay_budget: u32,
}

impl Default for RmcConfig {
    fn default() -> Self {
        RmcConfig {
            itt_slots: 64,
            rrpp_max_outstanding: 64,
            poll_backoff: 0,
            fe_poll_concurrency: 1,
            itt_timeout: 0,
            itt_retries: 1,
            replication: ReplicaCfg::off(),
            replay_budget: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_predicates_match_paper_designs() {
        assert!(!NiPlacement::Edge.frontend_per_tile());
        assert!(!NiPlacement::Edge.backend_per_tile());
        assert!(NiPlacement::PerTile.frontend_per_tile());
        assert!(NiPlacement::PerTile.backend_per_tile());
        assert!(NiPlacement::Split.frontend_per_tile());
        assert!(!NiPlacement::Split.backend_per_tile());
        assert_eq!(NiPlacement::default(), NiPlacement::Split);
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(NiPlacement::Edge.name(), "NI_edge");
        assert_eq!(NiPlacement::Split.name(), "NI_split");
        assert_eq!(NiPlacement::PerTile.name(), "NI_per-tile");
        assert_eq!(NiPlacement::Numa.name(), "NUMA");
    }

    #[test]
    fn default_unroll_rate_is_one_per_cycle() {
        assert_eq!(crate::UNROLL_PER_CYCLE, 1);
    }
}
