//! Remote Request Processing Pipeline (RRPP).
//!
//! The simplest pipeline (§4.1): it services incoming remote requests by
//! reading or writing local memory (through the non-caching LLC path) and
//! responding. RRPPs always sit at the chip edge next to the network
//! router, one per mesh row (Table 2), and incoming requests are
//! address-interleaved among them by home-bank location (§4.3) so each
//! request's on-chip path to its LLC slice is minimal.

use std::collections::{BTreeMap, VecDeque};

use ni_coherence::{ClientKind, CohMsg, Egress};
use ni_engine::{Counter, Cycle, DelayLine, RunningMean};
use ni_fabric::{RemoteReq, RemoteResp};
use ni_mem::BlockAddr;
use ni_noc::NocNode;

use crate::config::RmcConfig;
use crate::RmcEgress;

/// RRPP statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RrppStats {
    /// Requests serviced to completion.
    pub serviced: Counter,
    /// Bytes of payload sent back in read responses.
    pub payload_bytes: Counter,
    /// Requests that arrived while the pipeline was already at
    /// [`RmcConfig::rrpp_max_outstanding`] and had to wait in the arrival
    /// queue. Nothing is ever *rejected*: the queue is unbounded, every
    /// admitted request is eventually serviced and answered, and a request
    /// the fabric lost (dead link or node en route) is recovered by the
    /// *requester's* ITT timeout/retry — never by the RRPP, which cannot
    /// know the request existed.
    pub stalls: Counter,
}

/// One RRPP instance.
#[derive(Debug)]
pub struct Rrpp {
    node: NocNode,
    cfg: RmcConfig,
    home: fn(BlockAddr, u32) -> NocNode,
    n_banks: u32,
    /// Waiting requests, each with its arrival time. The arrival timestamp
    /// rides alongside the request through the whole pipeline: transfer
    /// tags are not unique across blocks of one transfer (or across
    /// requesting nodes), so no tid-keyed lookup can be correct.
    queue: VecDeque<(RemoteReq, Cycle)>,
    /// Requests whose local access is outstanding, FIFO per block.
    /// Keyed access only today, but a `BTreeMap` keeps any future
    /// iteration (and `Debug` output) deterministic for free.
    pending: BTreeMap<BlockAddr, Vec<(RemoteReq, Cycle)>>,
    outstanding: usize,
    started: DelayLine<(RemoteReq, Cycle)>,
    egress: VecDeque<RmcEgress>,
    latency: RunningMean,
    samples: VecDeque<u64>,
    stats: RrppStats,
}

impl Rrpp {
    /// Create an RRPP at `node` (an NI block or NOC-Out LLC tile).
    pub fn new(
        node: NocNode,
        cfg: RmcConfig,
        home: fn(BlockAddr, u32) -> NocNode,
        n_banks: u32,
    ) -> Rrpp {
        Rrpp {
            node,
            cfg,
            home,
            n_banks,
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
            outstanding: 0,
            started: DelayLine::new(),
            egress: VecDeque::new(),
            latency: RunningMean::new(),
            samples: VecDeque::new(),
            stats: RrppStats::default(),
        }
    }

    /// Where this RRPP lives.
    pub fn node(&self) -> NocNode {
        self.node
    }

    /// Statistics.
    pub fn stats(&self) -> &RrppStats {
        &self.stats
    }

    /// Mean service latency (arrival to response injection), cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Pop one recorded service-latency sample (fed to the rack emulator).
    pub fn pop_latency_sample(&mut self) -> Option<u64> {
        self.samples.pop_front()
    }

    /// An incoming remote request arrives from the network router.
    pub fn on_request(&mut self, now: Cycle, req: RemoteReq) {
        if self.outstanding >= self.cfg.rrpp_max_outstanding {
            self.stats.stalls.incr();
        }
        self.queue.push_back((req, now));
    }

    /// The local read for a request finished.
    pub fn on_nc_data(&mut self, now: Cycle, block: BlockAddr, value: u64) {
        self.complete(now, block, Some(value));
    }

    /// The local write for a request finished.
    pub fn on_nc_wack(&mut self, now: Cycle, block: BlockAddr) {
        self.complete(now, block, None);
    }

    /// Drive one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Begin processing queued requests (one per cycle, bounded window).
        if self.outstanding < self.cfg.rrpp_max_outstanding {
            if let Some(entry) = self.queue.pop_front() {
                self.outstanding += 1;
                // Two-sided ops carry a per-block compute time the serving
                // node spends before touching memory; it extends the fixed
                // pipeline delay, so the recorded service latency (arrival
                // to response injection) includes it.
                let proc = self.cfg.rrpp_proc + entry.0.service;
                self.started.push_after(now, proc, entry);
            }
        }
        // Issue the local memory access after the processing delay.
        while let Some((req, arrived)) = self.started.pop_ready(now) {
            let dst = (self.home)(req.remote_block, self.n_banks);
            let msg = if req.is_read {
                CohMsg::NcRead {
                    block: req.remote_block,
                }
            } else {
                CohMsg::NcWrite {
                    block: req.remote_block,
                    value: req.value,
                }
            };
            self.pending
                .entry(req.remote_block)
                .or_default()
                .push((req, arrived));
            self.egress.push_back(RmcEgress::Coh(Egress {
                dst,
                kind: ClientKind::Directory,
                msg,
            }));
        }
    }

    /// Next outbound item.
    pub fn pop_egress(&mut self) -> Option<RmcEgress> {
        self.egress.pop_front()
    }

    /// Requests currently inside the pipeline.
    pub fn inflight(&self) -> usize {
        self.outstanding + self.queue.len()
    }

    /// Earliest cycle (>= `now`) at which this pipeline does anything on
    /// its own: undrained egress or latency samples, a queued request with
    /// admission credit, or a started request finishing its processing
    /// delay. `None` means only external input (an arriving request or the
    /// local access completing) wakes it — `pending` accesses wait on the
    /// memory system, and a full admission window waits on a completion to
    /// free credit.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.egress.is_empty()
            || !self.samples.is_empty()
            || (!self.queue.is_empty() && self.outstanding < self.cfg.rrpp_max_outstanding)
        {
            return Some(now);
        }
        self.started.next_ready_at()
    }

    /// True when a local access for `block` is outstanding (used by the
    /// chip to route NcData/NcWAck deliveries at shared NI blocks).
    pub fn has_pending(&self, block: BlockAddr) -> bool {
        self.pending.contains_key(&block)
    }

    fn complete(&mut self, now: Cycle, block: BlockAddr, value: Option<u64>) {
        let Some(list) = self.pending.get_mut(&block) else {
            return;
        };
        let (req, arrived) = list.remove(0);
        if list.is_empty() {
            self.pending.remove(&block);
        }
        self.outstanding -= 1;
        self.stats.serviced.incr();
        // Payload moved on behalf of the remote requester: a block sent
        // back (read) or a block absorbed into local memory (write).
        self.stats.payload_bytes.add(ni_mem::BLOCK_BYTES);
        let lat = now.saturating_since(arrived);
        self.latency.record(lat);
        self.samples.push_back(lat);
        self.egress.push_back(RmcEgress::NetResp(RemoteResp {
            tid: req.tid,
            dst_node: req.src_node,
            remote_block: req.remote_block,
            value: value.unwrap_or(0),
            is_read: req.is_read,
        }));
    }
}
