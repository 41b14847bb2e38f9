//! Work/Completion queue bookkeeping.

use std::collections::VecDeque;

use ni_mem::{Addr, BlockAddr, BLOCK_BYTES};

/// One-sided remote operation kinds (soNUMA supports reads and writes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RemoteOp {
    /// Fetch remote memory into a local buffer.
    Read,
    /// Push local memory into remote memory.
    Write,
}

/// A Work Queue entry: one application-issued remote operation of up to
/// tens of kilobytes, unrolled by the RGP into cache-block-sized transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WqEntry {
    /// Monotonic id; doubles as the cache-block token the issuing store
    /// writes, so the NI's poll observes entry visibility exactly.
    pub id: u64,
    /// Operation kind.
    pub op: RemoteOp,
    /// Destination node in the rack.
    pub remote_node: u16,
    /// Remote virtual address (block-aligned in the microbenchmarks).
    pub remote_addr: Addr,
    /// Local buffer address data is delivered to / read from.
    pub local_addr: Addr,
    /// Transfer length in bytes.
    pub length: u64,
    /// Remote compute cycles the serving RRPP spends on each block of this
    /// operation before replying — the two-sided request–response shape.
    /// Zero (the default for one-sided ops) reproduces the paper's pure
    /// remote-memory semantics.
    pub service: u64,
}

impl WqEntry {
    /// Number of cache-block transfers this entry unrolls into.
    pub fn blocks(&self) -> u64 {
        self.length.div_ceil(BLOCK_BYTES).max(1)
    }
}

/// A Completion Queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CqEntry {
    /// The WQ entry that completed.
    pub wq_id: u64,
    /// Success flag. False when the NI gave up on the transfer — an ITT
    /// timeout whose retry budget ran out because a link or node died under
    /// it — so the application observes the failure instead of hanging.
    pub ok: bool,
    /// Degraded-path flag: the operation completed, but only through a
    /// recovery mechanism — a WQ replay to an alternate replica, or a write
    /// quorum met despite a dead fan-out leg. Latency accounting keeps
    /// degraded completions out of the healthy distributions.
    pub degraded: bool,
}

/// WQ capacity in entries (§5: 128-entry WQ). The CQ has as many.
pub const WQ_ENTRIES: usize = 128;

/// WQ entry size in bytes (32: two stores to one block per entry).
pub const WQ_ENTRY_BYTES: u64 = 32;

/// CQ entry size in bytes (8: one polling load per entry).
pub const CQ_ENTRY_BYTES: u64 = 8;

/// A queue pair: the logical contents of one WQ/CQ plus their address
/// layout in (simulated) memory.
///
/// ```
/// use ni_mem::Addr;
/// use ni_qp::{QueuePair, RemoteOp};
///
/// let mut qp = QueuePair::new(0, Addr(0x10000), Addr(0x20000));
/// let id = qp.enqueue(RemoteOp::Read, 3, Addr(0x9000), Addr(0x5000), 128).unwrap();
/// assert_eq!(id, 1);
/// let e = qp.ni_take().unwrap();
/// assert_eq!(e.blocks(), 2);
/// qp.ni_complete(e.id);
/// assert_eq!(qp.app_reap().unwrap().wq_id, id);
/// ```
#[derive(Debug)]
pub struct QueuePair {
    /// Identifier (index within the registered QP table).
    pub qp_id: u32,
    wq_base: Addr,
    cq_base: Addr,
    next_id: u64,
    /// Entries written by the app, not yet taken by the NI.
    pending: VecDeque<WqEntry>,
    /// In-flight entries taken by the NI, not yet completed.
    inflight: usize,
    /// Completions written by the NI, not yet reaped by the app.
    completions: VecDeque<CqEntry>,
    /// Tail index used for WQ slot addressing.
    wq_tail: u64,
    /// NI's WQ read index.
    wq_head: u64,
    /// CQ write index.
    cq_tail: u64,
    /// App's CQ read index.
    cq_head: u64,
}

impl QueuePair {
    /// Create a queue pair with WQ at `wq_base` and CQ at `cq_base`.
    pub fn new(qp_id: u32, wq_base: Addr, cq_base: Addr) -> QueuePair {
        QueuePair {
            qp_id,
            wq_base,
            cq_base,
            next_id: 0,
            pending: VecDeque::new(),
            inflight: 0,
            completions: VecDeque::new(),
            wq_tail: 0,
            wq_head: 0,
            cq_tail: 0,
            cq_head: 0,
        }
    }

    /// Free WQ slots from the application's point of view.
    pub fn wq_free(&self) -> usize {
        WQ_ENTRIES - (self.pending.len() + self.inflight)
    }

    /// True when the application cannot enqueue (must spin on the CQ, §5).
    pub fn wq_full(&self) -> bool {
        self.wq_free() == 0
    }

    /// Application enqueues a remote operation; returns its id.
    ///
    /// # Errors
    /// Returns `Err(())` when the WQ is full. (The unit error is
    /// deliberate: fullness carries no information beyond "retry".)
    #[allow(clippy::result_unit_err)]
    pub fn enqueue(
        &mut self,
        op: RemoteOp,
        remote_node: u16,
        remote_addr: Addr,
        local_addr: Addr,
        length: u64,
    ) -> Result<u64, ()> {
        self.enqueue_with_service(op, remote_node, remote_addr, local_addr, length, 0)
    }

    /// As [`enqueue`](QueuePair::enqueue), with a per-op remote service
    /// time: the serving RRPP "computes" for `service` cycles per block
    /// before replying (see [`WqEntry::service`]).
    ///
    /// # Errors
    /// Returns `Err(())` when the WQ is full.
    #[allow(clippy::result_unit_err)]
    pub fn enqueue_with_service(
        &mut self,
        op: RemoteOp,
        remote_node: u16,
        remote_addr: Addr,
        local_addr: Addr,
        length: u64,
        service: u64,
    ) -> Result<u64, ()> {
        if self.wq_full() {
            return Err(());
        }
        self.next_id += 1;
        let e = WqEntry {
            id: self.next_id,
            op,
            remote_node,
            remote_addr,
            local_addr,
            length,
            service,
        };
        self.pending.push_back(e);
        self.wq_tail += 1;
        Ok(e.id)
    }

    /// Block the application's next WQ store lands in (wraparound layout).
    pub fn wq_tail_block(&self) -> BlockAddr {
        let slot = self.wq_tail % WQ_ENTRIES as u64;
        self.wq_base.offset(slot * WQ_ENTRY_BYTES).block()
    }

    /// Block the NI polls for new WQ entries.
    pub fn wq_head_block(&self) -> BlockAddr {
        let slot = self.wq_head % WQ_ENTRIES as u64;
        self.wq_base.offset(slot * WQ_ENTRY_BYTES).block()
    }

    /// Block the NI's next CQ entry lands in.
    pub fn cq_tail_block(&self) -> BlockAddr {
        let slot = self.cq_tail % WQ_ENTRIES as u64;
        self.cq_base.offset(slot * CQ_ENTRY_BYTES).block()
    }

    /// Block the application polls for completions.
    pub fn cq_head_block(&self) -> BlockAddr {
        let slot = self.cq_head % WQ_ENTRIES as u64;
        self.cq_base.offset(slot * CQ_ENTRY_BYTES).block()
    }

    /// Id of the newest entry written so far (the token the polling NI will
    /// observe in the WQ block).
    pub fn newest_written_id(&self) -> u64 {
        self.next_id
    }

    /// Entry the NI would take next, without consuming it.
    pub fn ni_peek(&self) -> Option<&WqEntry> {
        self.pending.front()
    }

    /// Entries written by the app but not yet taken by the NI, oldest first.
    pub fn pending_entries(&self) -> impl Iterator<Item = &WqEntry> {
        self.pending.iter()
    }

    /// Total CQ entries the NI has written (the token its CQ stores carry).
    pub fn completions_written(&self) -> u64 {
        self.cq_tail
    }

    /// Block holding the WQ slot of entry `id` (ids start at 1).
    pub fn slot_block_of(&self, id: u64) -> BlockAddr {
        let slot = (id - 1) % WQ_ENTRIES as u64;
        self.wq_base.offset(slot * WQ_ENTRY_BYTES).block()
    }

    /// NI consumes the next pending entry (after its poll observed it).
    pub fn ni_take(&mut self) -> Option<WqEntry> {
        let e = self.pending.pop_front()?;
        self.inflight += 1;
        self.wq_head += 1;
        Some(e)
    }

    /// NI records a successful completion for `wq_id` (writes the CQ
    /// entry).
    pub fn ni_complete(&mut self, wq_id: u64) {
        self.ni_complete_with(wq_id, true, false);
    }

    /// NI records a completion for `wq_id` with an explicit status: `ok ==
    /// false` marks a failed transfer (ITT timeout after the retry budget,
    /// see [`CqEntry::ok`]), `degraded == true` one that needed a recovery
    /// path (replay/failover or a quorum carrying a dead leg, see
    /// [`CqEntry::degraded`]). Failed entries free their WQ slot like
    /// successful ones — the NI owns the entry either way.
    pub fn ni_complete_with(&mut self, wq_id: u64, ok: bool, degraded: bool) {
        debug_assert!(self.inflight > 0, "completion without in-flight entry");
        self.inflight -= 1;
        self.completions.push_back(CqEntry {
            wq_id,
            ok,
            degraded,
        });
        self.cq_tail += 1;
    }

    /// Number of completions the app has not reaped yet.
    pub fn completions_ready(&self) -> usize {
        self.completions.len()
    }

    /// Application reaps the oldest completion.
    pub fn app_reap(&mut self) -> Option<CqEntry> {
        let c = self.completions.pop_front()?;
        self.cq_head += 1;
        Some(c)
    }

    /// Entries currently owned by the NI (taken, not completed).
    pub fn inflight(&self) -> usize {
        self.inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> QueuePair {
        QueuePair::new(0, Addr(0x1000), Addr(0x8000))
    }

    #[test]
    fn enqueue_take_complete_reap_cycle() {
        let mut q = qp();
        let id = q
            .enqueue(RemoteOp::Read, 1, Addr(0), Addr(0x100), 64)
            .unwrap();
        assert_eq!(q.wq_free(), 127);
        let e = q.ni_take().unwrap();
        assert_eq!(e.id, id);
        assert_eq!(q.inflight(), 1);
        assert_eq!(q.wq_free(), 127, "in-flight entries still occupy slots");
        q.ni_complete(e.id);
        assert_eq!(q.wq_free(), 128, "slot freed on completion");
        let c = q.app_reap().unwrap();
        assert_eq!(c.wq_id, id);
        assert!(c.ok);
    }

    #[test]
    fn failed_completions_free_the_slot_and_carry_the_status() {
        let mut q = qp();
        let id = q
            .enqueue(RemoteOp::Read, 1, Addr(0), Addr(0x100), 64)
            .unwrap();
        let e = q.ni_take().unwrap();
        q.ni_complete_with(e.id, false, false);
        assert_eq!(q.wq_free(), 128, "failed entries still free their slot");
        let c = q.app_reap().unwrap();
        assert_eq!(c.wq_id, id);
        assert!(!c.ok, "the error status must reach the application");
    }

    #[test]
    fn degraded_completions_carry_the_flag_to_the_application() {
        let mut q = qp();
        let id = q
            .enqueue(RemoteOp::Read, 1, Addr(0), Addr(0x100), 64)
            .unwrap();
        let e = q.ni_take().unwrap();
        q.ni_complete_with(e.id, true, true);
        let c = q.app_reap().unwrap();
        assert_eq!(c.wq_id, id);
        assert!(
            c.ok && c.degraded,
            "a replayed-but-successful op is ok+degraded"
        );
        // The plain success path never sets it.
        q.enqueue(RemoteOp::Read, 1, Addr(0), Addr(0x100), 64)
            .unwrap();
        let e = q.ni_take().unwrap();
        q.ni_complete(e.id);
        assert!(!q.app_reap().unwrap().degraded);
    }

    #[test]
    fn wq_fills_at_128_entries() {
        let mut q = qp();
        for i in 0..128 {
            assert!(
                q.enqueue(RemoteOp::Read, 0, Addr(i * 64), Addr(0), 64)
                    .is_ok(),
                "entry {i}"
            );
        }
        assert!(q.wq_full());
        assert!(q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).is_err());
    }

    #[test]
    fn two_wq_entries_share_a_block() {
        let mut q = qp();
        let b0 = q.wq_tail_block();
        q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).unwrap();
        let b1 = q.wq_tail_block();
        assert_eq!(b0, b1, "32B entries: two per 64B block");
        q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).unwrap();
        let b2 = q.wq_tail_block();
        assert_ne!(b1, b2, "third entry starts the next block");
    }

    #[test]
    fn eight_cq_entries_share_a_block() {
        let mut q = qp();
        let base = q.cq_tail_block();
        for _ in 0..8 {
            q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).unwrap();
            let e = q.ni_take().unwrap();
            q.ni_complete(e.id);
        }
        // After eight 8-byte completions the CQ tail moves to a new block.
        assert_ne!(q.cq_tail_block(), base);
    }

    #[test]
    fn unroll_counts_match_transfer_size() {
        let mut q = qp();
        q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 16384)
            .unwrap();
        assert_eq!(q.ni_peek().unwrap().blocks(), 256);
        q.enqueue(RemoteOp::Write, 0, Addr(0), Addr(0), 1).unwrap();
        q.ni_take();
        assert_eq!(q.ni_peek().unwrap().blocks(), 1);
    }

    #[test]
    fn ids_increase_monotonically() {
        let mut q = qp();
        let a = q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).unwrap();
        let b = q.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).unwrap();
        assert!(b > a);
        assert_eq!(q.newest_written_id(), b);
    }
}
