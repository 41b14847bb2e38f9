//! Interconnect traffic statistics.
//!
//! Tracks the quantities §6.2 of the paper reports: packets and flits moved,
//! aggregate link traffic (the "594GBps of NOC bandwidth" counter), bisection
//! crossings, and per-class packet latency.

use ni_engine::{Counter, Cycle, Frequency, RunningMean};

use crate::packet::{MessageClass, FLIT_BYTES};

/// Aggregate traffic counters for one interconnect instance.
#[derive(Clone, Debug, Default)]
pub struct NocStats {
    /// Packets accepted at injection ports.
    pub injected_packets: Counter,
    /// Packets handed to their destination endpoint.
    pub delivered_packets: Counter,
    /// Flits delivered to endpoints.
    pub delivered_flits: Counter,
    /// Flit-hops: one flit crossing one inter-router or attach link.
    pub flit_hops: Counter,
    /// Flit-hops crossing the vertical bisection of the mesh.
    pub bisection_flits: Counter,
    /// Injection attempts rejected for lack of buffer space.
    pub inject_rejects: Counter,
    /// In-network latency per message class (injection to delivery).
    pub latency_by_class: [RunningMean; MessageClass::COUNT],
    /// Packets delivered per message class.
    pub delivered_by_class: [Counter; MessageClass::COUNT],
}

impl NocStats {
    /// Record a delivery that was injected at `injected_at`.
    pub(crate) fn record_delivery(
        &mut self,
        class: MessageClass,
        flits: u8,
        injected_at: Cycle,
        now: Cycle,
    ) {
        self.delivered_packets.incr();
        self.delivered_flits.add(u64::from(flits));
        self.delivered_by_class[class.index()].incr();
        self.latency_by_class[class.index()].record(now.saturating_since(injected_at));
    }

    /// Record one link traversal of `flits` flits; `crosses_bisection` marks
    /// traversals of the central vertical cut.
    pub(crate) fn record_hop(&mut self, flits: u8, crosses_bisection: bool) {
        self.flit_hops.add(u64::from(flits));
        if crosses_bisection {
            self.bisection_flits.add(u64::from(flits));
        }
    }

    /// Total bytes moved across links, counting every link traversal (a
    /// packet crossing eight links counts eight times). Measures link
    /// utilization, not traffic volume.
    pub fn link_bytes(&self) -> u64 {
        self.flit_hops.get() * u64::from(FLIT_BYTES)
    }

    /// Total bytes delivered to endpoints, counted once per packet — the
    /// paper's aggregate NOC traffic metric (§6.2 reports 594GBps of NOC
    /// packets carrying 214GBps of application data, a 2.7x overhead from
    /// coherence messages and writebacks).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_flits.get() * u64::from(FLIT_BYTES)
    }

    /// Aggregate NOC bandwidth in GBps over `cycles` at frequency `freq`.
    pub fn aggregate_gbps(&self, cycles: u64, freq: Frequency) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        freq.gbps_from_bytes_per_cycle(self.link_bytes() as f64 / cycles as f64)
    }

    /// Bandwidth crossing the bisection in GBps over `cycles`.
    pub fn bisection_gbps(&self, cycles: u64, freq: Frequency) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        freq.gbps_from_bytes_per_cycle(
            self.bisection_flits.get() as f64 * f64::from(FLIT_BYTES) / cycles as f64,
        )
    }

    /// Mean in-network latency over all classes, in cycles.
    pub fn mean_latency(&self) -> f64 {
        let mut all = RunningMean::new();
        for m in &self.latency_by_class {
            all.merge(m);
        }
        all.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_updates_class_counters() {
        let mut s = NocStats::default();
        s.record_delivery(MessageClass::CohReq, 1, Cycle(10), Cycle(25));
        s.record_delivery(MessageClass::NiData, 5, Cycle(0), Cycle(40));
        assert_eq!(s.delivered_packets.get(), 2);
        assert_eq!(s.delivered_flits.get(), 6);
        assert_eq!(s.delivered_by_class[MessageClass::CohReq.index()].get(), 1);
        assert_eq!(
            s.latency_by_class[MessageClass::CohReq.index()].mean(),
            15.0
        );
        assert!((s.mean_latency() - 27.5).abs() < 1e-9);
    }

    #[test]
    fn hop_accounting_tracks_bisection() {
        let mut s = NocStats::default();
        s.record_hop(5, true);
        s.record_hop(1, false);
        assert_eq!(s.flit_hops.get(), 6);
        assert_eq!(s.bisection_flits.get(), 5);
        assert_eq!(s.link_bytes(), 96);
        // 96 bytes over 6 cycles at 2 GHz = 32 GBps.
        assert!((s.aggregate_gbps(6, Frequency::GHZ2) - 32.0).abs() < 1e-9);
        assert!(s.bisection_gbps(5, Frequency::GHZ2) > 0.0);
        assert_eq!(s.aggregate_gbps(0, Frequency::GHZ2), 0.0);
    }
}
