//! Rate-matching rack emulator (the paper's single-node methodology, §5).
//!
//! "We focus our study on a single node, with remote ends emulated by a
//! traffic generator that matches the outgoing request rate of the node
//! that is simulated by generating incoming request traffic at the same
//! rate. [...] We assume a fixed chip-to-chip network latency of 35ns per
//! hop and monitor the average servicing latency of local RRPPs that are
//! simulated in detail. This RRPP latency is added to the network latency,
//! thus providing the roundtrip latency of a request once it leaves the
//! local node."

use ni_engine::{Cycle, DelayLine};
use ni_mem::BlockAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fabric::FabricStats;

/// One cache-block-sized remote request leaving (or entering) the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteReq {
    /// Transfer tag echoed in the response (RCP backend ITT slot).
    pub tid: u64,
    /// True for remote reads, false for remote writes.
    pub is_read: bool,
    /// Requesting node id in the rack. Stamped by the fabric at injection
    /// time ([`crate::Fabric::inject`]); producers may leave it zero.
    pub src_node: u16,
    /// Destination node id in the rack.
    pub target_node: u16,
    /// Block address at the servicing node.
    pub remote_block: BlockAddr,
    /// Write payload (ignored for reads).
    pub value: u64,
    /// Remote compute cycles the servicing RRPP spends on this block before
    /// replying (two-sided request–response ops). Zero for one-sided
    /// remote-memory operations.
    pub service: u64,
}

/// Response to a [`RemoteReq`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteResp {
    /// Echoed transfer tag.
    pub tid: u64,
    /// Requesting node this response returns to (the request's `src_node`,
    /// echoed by the servicing RRPP so the fabric can route it home).
    pub dst_node: u16,
    /// Echoed block address.
    pub remote_block: BlockAddr,
    /// Read data (write responses carry 0).
    pub value: u64,
    /// True when this answers a read.
    pub is_read: bool,
}

/// Cycles per network hop (35ns = 70 cycles at 2 GHz, §5).
pub const HOP_CYCLES: u64 = 70;

/// Seed latency assumed for remote RRPPs before local measurements
/// accumulate (the paper's zero-load RRPP service time, ~208 cycles).
pub const INITIAL_RRPP_ESTIMATE: u64 = 208;

/// First block of the locally-exported region incoming requests hit.
const INCOMING_BASE: u64 = 1 << 24;

/// Size of that region in blocks (sized to exceed on-chip caches, §5):
/// 64 MiB, far beyond the 16MB LLC.
const INCOMING_REGION_BLOCKS: u64 = 1 << 20;

/// Emulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct RackConfig {
    /// Network hops to the (emulated) remote node, each direction.
    pub hops: u32,
    /// Generate one incoming request per outgoing one (the paper's rate
    /// matching). The local RRPPs serve only these, so they alone feed
    /// the measured RRPP service time: the estimate the emulated round
    /// trip adds ([`RackEmulator::record_rrpp_latency`]) and the chip's
    /// reported mean. Every chip experiment, latency runs included, keeps
    /// it on; with it off the estimate stays at [`INITIAL_RRPP_ESTIMATE`].
    pub mirror_incoming: bool,
    /// RNG seed for incoming-address bursts.
    pub seed: u64,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig {
            hops: 1,
            mirror_incoming: true,
            seed: 0x5eed,
        }
    }
}

/// The rate-matching remote-end emulator.
#[derive(Debug)]
pub struct RackEmulator {
    cfg: RackConfig,
    responses: DelayLine<RemoteResp>,
    incoming: DelayLine<RemoteReq>,
    /// EWMA of locally measured RRPP service latency.
    rrpp_estimate: f64,
    cursor: u64,
    burst_left: u32,
    rng: SmallRng,
    next_tid: u64,
    /// Read through [`Fabric::stats`](crate::Fabric::stats).
    pub(crate) stats: FabricStats,
}

impl RackEmulator {
    /// Create an emulator.
    pub fn new(cfg: RackConfig) -> RackEmulator {
        RackEmulator {
            cfg,
            responses: DelayLine::new(),
            incoming: DelayLine::new(),
            rrpp_estimate: INITIAL_RRPP_ESTIMATE as f64,
            cursor: 0,
            burst_left: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_tid: 1 << 62, // distinct from local ITT tags
            stats: FabricStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &RackConfig {
        &self.cfg
    }

    /// Current one-way network latency in cycles.
    pub fn network_latency(&self) -> u64 {
        u64::from(self.cfg.hops) * HOP_CYCLES
    }

    /// Deterministic synthetic contents of remote memory.
    pub fn remote_value(block: BlockAddr) -> u64 {
        // splitmix64 of the block index: stable, collision-poor.
        let mut z = block.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An outgoing request leaves through the network router at `now`.
    ///
    /// The response is scheduled after two network traversals plus the
    /// current RRPP-latency estimate; if mirroring is enabled, a matching
    /// incoming request is generated one network traversal from now.
    pub fn send(&mut self, now: Cycle, req: RemoteReq) {
        self.stats.sent.incr();
        // Two-sided ops also wait out the remote compute time before the
        // emulated peer replies.
        let rtt = 2 * self.network_latency() + self.rrpp_estimate.round() as u64 + req.service;
        let value = if req.is_read {
            Self::remote_value(req.remote_block)
        } else {
            0
        };
        self.responses.push_after(
            now,
            rtt,
            RemoteResp {
                tid: req.tid,
                dst_node: req.src_node,
                remote_block: req.remote_block,
                value,
                is_read: req.is_read,
            },
        );
        if self.cfg.mirror_incoming {
            self.generate_incoming(now, req.is_read);
        }
    }

    fn generate_incoming(&mut self, now: Cycle, is_read: bool) {
        self.stats.incoming_generated.incr();
        if self.burst_left == 0 {
            // Start a new burst at a random region offset: bulk transfers
            // arrive as runs of consecutive blocks, like local unrolls.
            self.cursor = self.rng.gen_range(0..INCOMING_REGION_BLOCKS);
            self.burst_left = 128;
        }
        let block = BlockAddr(INCOMING_BASE + (self.cursor % INCOMING_REGION_BLOCKS));
        self.cursor += 1;
        self.burst_left -= 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        self.incoming.push_after(
            now,
            self.network_latency(),
            RemoteReq {
                tid,
                is_read,
                src_node: 1, // the emulated peer
                target_node: 0,
                remote_block: block,
                value: Self::remote_value(block),
                service: 0,
            },
        );
    }

    /// Next response to one of the node's own requests, if due.
    pub fn pop_response(&mut self, now: Cycle) -> Option<RemoteResp> {
        let r = self.responses.pop_ready(now);
        if r.is_some() {
            self.stats.responded.incr();
        }
        r
    }

    /// Next incoming remote request for the local RRPPs, if due.
    pub fn pop_incoming(&mut self, now: Cycle) -> Option<RemoteReq> {
        self.incoming.pop_ready(now)
    }

    /// Record a measured local RRPP service latency; refines the emulated
    /// remote service time (EWMA, symmetric-rack assumption).
    pub fn record_rrpp_latency(&mut self, cycles: u64) {
        const ALPHA: f64 = 1.0 / 64.0;
        self.rrpp_estimate = self.rrpp_estimate * (1.0 - ALPHA) + cycles as f64 * ALPHA;
    }

    /// Current RRPP service-latency estimate in cycles.
    pub fn rrpp_estimate(&self) -> f64 {
        self.rrpp_estimate
    }

    /// True when no responses or incoming requests are in flight.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty() && self.incoming.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;

    fn req(tid: u64) -> RemoteReq {
        RemoteReq {
            tid,
            is_read: true,
            src_node: 0,
            target_node: 1,
            remote_block: BlockAddr(42),
            value: 0,
            service: 0,
        }
    }

    #[test]
    fn response_arrives_after_rtt_plus_service() {
        let mut r = RackEmulator::new(RackConfig {
            mirror_incoming: false,
            ..RackConfig::default()
        });
        r.send(Cycle(0), req(7));
        // 2 x 70 + 208 = 348.
        assert!(r.pop_response(Cycle(347)).is_none());
        let resp = r.pop_response(Cycle(348)).expect("due");
        assert_eq!(resp.tid, 7);
        assert_eq!(resp.value, RackEmulator::remote_value(BlockAddr(42)));
    }

    #[test]
    fn service_time_extends_the_emulated_round_trip() {
        let mut r = RackEmulator::new(RackConfig {
            mirror_incoming: false,
            ..RackConfig::default()
        });
        let mut rq = req(9);
        rq.service = 500;
        r.send(Cycle(0), rq);
        // 2 x 70 + 208 + 500 = 848.
        assert!(r.pop_response(Cycle(847)).is_none());
        assert!(r.pop_response(Cycle(848)).is_some());
    }

    #[test]
    fn hop_count_scales_network_latency() {
        let mut r = RackEmulator::new(RackConfig {
            hops: 6,
            mirror_incoming: false,
            ..RackConfig::default()
        });
        r.send(Cycle(0), req(1));
        // 2 x 6 x 70 + 208 = 1048.
        assert!(r.pop_response(Cycle(1047)).is_none());
        assert!(r.pop_response(Cycle(1048)).is_some());
    }

    #[test]
    fn mirroring_generates_one_incoming_per_outgoing() {
        let mut r = RackEmulator::new(RackConfig::default());
        for i in 0..10 {
            r.send(Cycle(i), req(i));
        }
        let mut got = 0;
        for t in 0..1000u64 {
            if r.pop_incoming(Cycle(t)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 10);
        assert_eq!(r.stats().incoming_generated.get(), 10);
    }

    #[test]
    fn rrpp_estimate_tracks_samples() {
        let mut r = RackEmulator::new(RackConfig::default());
        let before = r.rrpp_estimate();
        for _ in 0..256 {
            r.record_rrpp_latency(400);
        }
        assert!(r.rrpp_estimate() > before);
        assert!((r.rrpp_estimate() - 400.0).abs() < 10.0);
    }

    #[test]
    fn incoming_addresses_stay_in_region() {
        let mut r = RackEmulator::new(RackConfig::default());
        for i in 0..300 {
            r.send(Cycle(i), req(i));
        }
        let mut n = 0;
        for t in 0..2000u64 {
            if let Some(inc) = r.pop_incoming(Cycle(t)) {
                n += 1;
                assert!(inc.remote_block.0 >= INCOMING_BASE);
                assert!(inc.remote_block.0 < INCOMING_BASE + INCOMING_REGION_BLOCKS);
            }
        }
        assert_eq!(n, 300);
    }

    #[test]
    fn remote_values_are_deterministic_and_distinct() {
        assert_eq!(
            RackEmulator::remote_value(BlockAddr(5)),
            RackEmulator::remote_value(BlockAddr(5))
        );
        assert_ne!(
            RackEmulator::remote_value(BlockAddr(5)),
            RackEmulator::remote_value(BlockAddr(6))
        );
    }
}
