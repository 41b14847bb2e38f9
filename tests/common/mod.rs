//! The rack fingerprint every bit-identity test compares.

use rackni::ni_soc::Rack;

/// Everything a reordered, duplicated or dropped delivery, retry or victim
/// choice could perturb: aggregate and per-node completion counts, the
/// traffic, fault, watchdog and recovery counters, each chip's NOC traffic
/// (which moves if any on-chip message is added or lost), and the RRPP
/// latency means (bit-compared — floats diverge if any sample's *order or
/// timing* moves).
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub sent: u64,
    pub responded: u64,
    pub incoming: u64,
    pub completed_ops: u64,
    pub failed_ops: u64,
    pub payload_bytes: u64,
    pub hops: u64,
    pub dropped: u64,
    pub stalls: u64,
    pub escapes: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub replays: u64,
    pub quorum_writes: u64,
    pub degraded: u64,
    pub rrpp_means: Vec<f64>,
    pub per_node_ops: Vec<u64>,
    /// Per chip: NOC packets injected, delivered, flit-hops, and
    /// injection rejects.
    pub per_node_noc: Vec<[u64; 4]>,
}

pub fn fingerprint(rack: &Rack) -> Fingerprint {
    let fs = rack.fabric_stats();
    let faults = rack.fault_stats();
    let be = rack.backend_stats();
    Fingerprint {
        sent: fs.sent.get(),
        responded: fs.responded.get(),
        incoming: fs.incoming_generated.get(),
        completed_ops: rack.completed_ops(),
        failed_ops: rack.failed_ops(),
        payload_bytes: rack.app_payload_bytes(),
        hops: rack.hops_traversed(),
        dropped: faults.packets_dropped.get(),
        stalls: faults.dead_link_stalls.get(),
        escapes: faults.escape_hops.get(),
        timeouts: be.itt_timeouts.get(),
        retries: be.itt_retries.get(),
        replays: be.replays.get(),
        quorum_writes: be.quorum_writes.get(),
        degraded: rack.degraded_ops(),
        rrpp_means: rack.rrpp_mean_latencies(),
        per_node_ops: rack.chips().iter().map(|c| c.completed_ops()).collect(),
        per_node_noc: rack
            .chips()
            .iter()
            .map(|c| {
                let n = c.noc_stats();
                [
                    n.injected_packets.get(),
                    n.delivered_packets.get(),
                    n.flit_hops.get(),
                    n.inject_rejects.get(),
                ]
            })
            .collect(),
    }
}
