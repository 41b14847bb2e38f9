//! Every counter of a chip or a rack in one typed value. Each field's type
//! is declared once with [`ni_engine::stats!`], so a counter added to a
//! component reaches the snapshot, its merge, its readings and every
//! comparison of snapshots with no further edit.

use ni_coherence::{ComplexStats, DirStats};
use ni_engine::{Frequency, Histogram, Stat};
use ni_fabric::{FabricStats, FaultStats};
use ni_mem::MemStats;
use ni_metrics::TenantStats;
use ni_noc::NocStats;
use ni_rmc::{BackendStats, RrppStats};

use crate::chip::Visits;
use crate::core_model::CoreStats;

ni_engine::stats! {
    /// Queue-pair counts, summed over a chip's QPs.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct QpStats {
        /// CQ entries the NI wrote.
        pub completions_written: u64,
        /// Entries the NI took and has not completed yet.
        pub inflight: u64,
    }

    /// What a run cost the simulator rather than what it simulated: it
    /// differs between tick modes by design, never between worker counts
    /// or lookahead windows.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct Work {
        /// Full (non-skipped) chip ticks.
        pub full_ticks: u64,
        /// Component visits per class.
        pub visits: Visits,
        /// Times a frontend parked its poll loop together with its NI
        /// cache (event tick only).
        pub parks: u64,
        /// Times a core parked its CQ poll loop (event tick only).
        pub core_parks: u64,
    }

    /// Every counter and latency distribution of a chip
    /// ([`Chip::snapshot`](crate::Chip::snapshot)) or a rack
    /// ([`Rack::snapshot`](crate::Rack::snapshot)), one field per component
    /// class summed over the chip. Build one at the end of a run or for a
    /// check, not per cycle.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Snapshot {
        /// Cores.
        pub cores: CoreStats,
        /// RGP/RCP backends.
        pub backends: BackendStats,
        /// Remote request processing pipelines.
        pub rrpps: RrppStats,
        /// Cache complexes.
        pub complexes: ComplexStats,
        /// Directory banks.
        pub dirs: DirStats,
        /// Memory controllers.
        pub mcs: MemStats,
        /// The on-chip interconnect.
        pub noc: NocStats,
        /// The fabric endpoint: a chip's port or emulator, a rack's torus.
        pub fabric: FabricStats,
        /// Torus fault paths (zero on a chip).
        pub faults: FaultStats,
        /// Queue pairs.
        pub qps: QpStats,
        /// Torus link traversals (zero on a chip).
        pub hops: u64,
        /// End-to-end remote-read latencies.
        pub reads: Histogram,
        /// Latencies of reads completed through a recovery path.
        pub degraded_reads: Histogram,
        /// Per-tenant SLO accumulators, by tenant tag.
        pub tenants: TenantStats,
        /// Simulator work.
        pub work: Work,
    }
}

impl Snapshot {
    /// Application payload bytes: remote-read data the RCPs delivered plus
    /// data the RRPPs sent out (§6.2's bandwidth definition).
    pub fn app_payload_bytes(&self) -> u64 {
        self.backends.payload_bytes.get() + self.rrpps.payload_bytes.get()
    }

    /// Aggregate application bandwidth over a run of `cycles`, GB/s at
    /// 2 GHz: [`Snapshot::app_payload_bytes`] per cycle. Summed over a
    /// rack's nodes, a cross-node transfer counts at both ends (the
    /// requester's RCP and the server's RRPP), so this reads about twice a
    /// wire-level payload rate.
    pub fn app_gbps(&self, cycles: u64) -> f64 {
        Frequency::GHZ2
            .gbps_from_bytes_per_cycle(self.app_payload_bytes() as f64 / cycles.max(1) as f64)
    }

    /// `None` when equal to `other`, else the first reading that differs
    /// (`name: this vs other`), for assertion messages.
    pub fn diff(&self, other: &Snapshot) -> Option<String> {
        if self == other {
            return None;
        }
        let readings = |s: &Snapshot| {
            let mut v = Vec::new();
            s.walk("", &mut |n, x| v.push((n.to_string(), x)));
            v
        };
        let (a, b) = (readings(self), readings(other));
        Some(match a.iter().zip(&b).find(|(x, y)| x != y) {
            Some(((n, x), (m, y))) if n == m => format!("{n}: {x} vs {y}"),
            Some(((n, x), (m, y))) => format!("{n} = {x} vs {m} = {y}"),
            None if a.len() != b.len() => format!("{} vs {} readings", a.len(), b.len()),
            None => "equal readings, latency samples in another order".to_string(),
        })
    }
}
