//! Interconnect traffic statistics.
//!
//! Tracks the quantities §6.2 of the paper reports: packets and flits moved,
//! link traversals, bisection crossings, and per-class packet latency.

use ni_engine::{Counter, Cycle, RunningMean};

use crate::packet::{MessageClass, FLIT_BYTES};

ni_engine::stats! {
    /// Aggregate traffic counters for one interconnect instance.
    #[derive(Clone, Debug, Default, PartialEq)]
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

    /// Total bytes delivered to endpoints, counted once per packet — the
    /// paper's aggregate NOC traffic metric (§6.2 reports 594GBps of NOC
    /// packets carrying 214GBps of application data, a 2.7x overhead from
    /// coherence messages and writebacks).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_flits.get() * u64::from(FLIT_BYTES)
    }

    /// Mean in-network latency over all classes, in cycles.
    pub fn mean_latency(&self) -> f64 {
        ni_engine::stats::sum(&self.latency_by_class).mean()
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
    }
}
