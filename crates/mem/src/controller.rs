//! Memory controller model.
//!
//! One controller sits at each east-edge attach point of the mesh (or on the
//! flattened butterfly in NOC-Out). Requests arrive as coherence-layer
//! messages; the controller services each after a fixed DRAM latency (50ns,
//! Table 2) and returns fill data. The backing store is shared between all
//! controllers of a chip (interleaved physically, uniform in the model) and
//! holds one 64-bit token per block for end-to-end data verification.

// lint: file-allow(hash-order) — the backing store is get/insert only,
// never iterated; it is the largest map in the simulator and O(1) lookup
// matters on the fill path.
use std::collections::HashMap;

use ni_engine::{Counter, Cycle, DelayLine};

use crate::addr::BlockAddr;

/// Kinds of memory requests a controller accepts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemRequestKind {
    /// Fill read: returns the block's current token.
    Read,
    /// Writeback: installs a token, no data reply (an ack is returned so the
    /// LLC can retire the transaction).
    Write,
}

/// Completed memory operation, handed back to the coherence layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemReply {
    /// The block serviced.
    pub block: BlockAddr,
    /// What was requested.
    pub kind: MemRequestKind,
    /// Block token (for reads: the value read; for writes: the value written).
    pub value: u64,
    /// Caller-chosen tag threaded through untouched.
    pub tag: u64,
}

/// Controller timing configuration. The controller accepts any number of
/// requests in flight, modelling the paper's unthrottled high-bandwidth
/// interface.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    /// Access latency in cycles (Table 2: 50ns = 100 cycles at 2 GHz).
    pub latency: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig { latency: 100 }
    }
}

ni_engine::stats! {
    /// Counters exposed by each controller.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct MemStats {
        /// Read requests accepted.
        pub reads: Counter,
        /// Write requests accepted.
        pub writes: Counter,
    }
}

/// A single memory controller with its slice of the backing store.
///
/// ```
/// use ni_engine::Cycle;
/// use ni_mem::{BlockAddr, MemConfig, MemRequestKind, MemoryController};
///
/// let mut mc = MemoryController::new(MemConfig { latency: 10 });
/// mc.push(Cycle(0), BlockAddr(4), MemRequestKind::Write, 42, 1);
/// mc.push(Cycle(0), BlockAddr(4), MemRequestKind::Read, 0, 2);
/// assert!(mc.pop_ready(Cycle(9)).is_none());
/// let w = mc.pop_ready(Cycle(10)).unwrap();
/// let r = mc.pop_ready(Cycle(10)).unwrap();
/// assert_eq!(w.tag, 1);
/// assert_eq!(r.value, 42); // read observes the earlier write
/// ```
#[derive(Debug)]
pub struct MemoryController {
    cfg: MemConfig,
    store: HashMap<BlockAddr, u64>,
    inflight: DelayLine<MemReply>,
    stats: MemStats,
}

impl MemoryController {
    /// Create a controller with the given timing.
    pub fn new(cfg: MemConfig) -> MemoryController {
        MemoryController {
            cfg,
            store: HashMap::new(),
            inflight: DelayLine::new(),
            stats: MemStats::default(),
        }
    }

    /// Timing configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Submit a request at `now`.
    ///
    /// Reads return the stored token (0 for untouched blocks); writes install
    /// `value`. The request completes `latency` cycles later and is retrieved
    /// with [`MemoryController::pop_ready`].
    pub fn push(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        kind: MemRequestKind,
        value: u64,
        tag: u64,
    ) {
        let value = match kind {
            MemRequestKind::Read => {
                self.stats.reads.incr();
                self.store.get(&block).copied().unwrap_or(0)
            }
            MemRequestKind::Write => {
                self.stats.writes.incr();
                self.store.insert(block, value);
                value
            }
        };
        self.inflight.push_after(
            now,
            self.cfg.latency,
            MemReply {
                block,
                kind,
                value,
                tag,
            },
        );
    }

    /// Retrieve the next completed request at `now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<MemReply> {
        self.inflight.pop_ready(now)
    }

    /// Number of requests still in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Cycle the earliest in-flight request completes, if any. Purely
    /// time-driven: a controller with no in-flight work stays silent until
    /// the next [`MemoryController::push`], so event-driven callers can skip
    /// it entirely between completions.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.inflight.next_ready_at()
    }

    /// Directly read a block's token, bypassing timing (testing/debug).
    pub fn peek(&self, block: BlockAddr) -> u64 {
        self.store.get(&block).copied().unwrap_or(0)
    }

    /// Directly install a block token, bypassing timing (initialization).
    pub fn poke(&mut self, block: BlockAddr, value: u64) {
        self.store.insert(block, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_write_sees_token() {
        let mut mc = MemoryController::new(MemConfig::default());
        mc.push(Cycle(0), BlockAddr(1), MemRequestKind::Write, 99, 0);
        mc.push(Cycle(1), BlockAddr(1), MemRequestKind::Read, 0, 1);
        assert_eq!(mc.pop_ready(Cycle(99)), None);
        let w = mc.pop_ready(Cycle(100)).unwrap();
        assert_eq!(w.kind, MemRequestKind::Write);
        let r = mc.pop_ready(Cycle(101)).unwrap();
        assert_eq!(r.value, 99);
        assert_eq!(mc.stats().reads.get(), 1);
        assert_eq!(mc.stats().writes.get(), 1);
    }

    #[test]
    fn untouched_blocks_read_zero() {
        let mut mc = MemoryController::new(MemConfig::default());
        mc.push(Cycle(0), BlockAddr(77), MemRequestKind::Read, 0, 5);
        let r = mc.pop_ready(Cycle(100)).unwrap();
        assert_eq!(r.value, 0);
        assert_eq!(r.tag, 5);
    }

    #[test]
    fn poke_and_peek_bypass_timing() {
        let mut mc = MemoryController::new(MemConfig::default());
        mc.poke(BlockAddr(3), 1234);
        assert_eq!(mc.peek(BlockAddr(3)), 1234);
        assert_eq!(mc.peek(BlockAddr(4)), 0);
    }
}
