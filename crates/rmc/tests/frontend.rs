//! The RGP/RCP frontend driven against a real NI cache and real queue
//! pairs, in the chip's per-cycle order: deliveries first, then the
//! frontend's tick, then the cache complex's tick with its completions
//! routed back to the frontend.
//!
//! A stand-in home directory answers every miss after a per-block delay
//! and takes each block back once the access it was granted for has
//! completed. So every frontend access is a miss whose request names its
//! block one cycle after the frontend issued it, and every poll reads the
//! token the application last wrote. The application writes a WQ entry
//! by enqueueing it and storing its id straight into the directory's
//! memory, the token the core's stores would leave in the block.
//!
//! A rig that `keep`s its grants leaves every block with the cache, so
//! polls hit once each head block came in; a rig that `park`s lets its
//! frontend park after any completion, and steps over the cycles it stays
//! parked, touching neither the frontend nor the cache.

use std::collections::BTreeMap;

use ni_coherence::{
    Access, AccessKind, AccessOrigin, CacheComplex, ClientKind, CohMsg, CoherenceConfig,
};
use ni_engine::Cycle;
use ni_mem::{Addr, BlockAddr};
use ni_noc::NocNode;
use ni_qp::{QueuePair, RemoteOp};
use ni_rmc::{NiFrontend, NiMsg, RmcConfig, RmcEgress, Stage, RCP_FE_PROC};

/// Where the stand-in directory sits; the complex addresses it there.
const HOME: NocNode = NocNode::Llc(0);

/// No core's tick settles a parked loop here.
const NO_SETTLE: Cycle = Cycle(u64::MAX);

fn home(_: BlockAddr, _: u32) -> NocNode {
    HOME
}

fn wq_base(qp: u32) -> Addr {
    Addr(0x10_0000 + u64::from(qp) * 0x4000)
}

fn cq_base(qp: u32) -> Addr {
    Addr(wq_base(qp).0 + 0x2000)
}

/// What a frontend access asked the directory for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A WQ poll (a load).
    Poll,
    /// A CQ store.
    Store,
}

/// One frontend access, seen at its miss.
#[derive(Clone, Copy, Debug)]
struct Issued {
    /// The cycle the frontend issued it (its NI-cache lookup is one cycle
    /// later).
    at: u64,
    kind: Kind,
    block: BlockAddr,
}

/// One completed frontend access.
#[derive(Clone, Copy, Debug)]
struct Done {
    at: u64,
    value: u64,
    kind: Kind,
}

#[derive(Default)]
struct Log {
    issued: Vec<Issued>,
    done: Vec<Done>,
    /// `(qp, wq_id, cycle)` of every WQ entry forwarded to the backend.
    forwarded: Vec<(u32, u64, u64)>,
    /// `(qp, wq_id, cycle)` of every `FeObserved` stamp.
    observed: Vec<(u32, u64, u64)>,
    /// `(qp, wq_id, cycle)` of every `CqWritten` stamp.
    cq_written: Vec<(u32, u64, u64)>,
    /// Cycles at which the frontend parked.
    parks: Vec<u64>,
}

struct Rig {
    fe: NiFrontend,
    qps: Vec<QueuePair>,
    cx: CacheComplex,
    now: u64,
    /// Cycles the directory takes to answer a request for a block (1
    /// when absent).
    delay: BTreeMap<BlockAddr, u64>,
    /// Block tokens the directory serves (0 when absent).
    mem: BTreeMap<BlockAddr, u64>,
    /// Answers waiting for their cycle: `(due, message)`.
    replies: Vec<(u64, CohMsg)>,
    /// Leave granted blocks with the cache instead of taking them back.
    keep: bool,
    /// Park the frontend whenever a completion leaves it quiet.
    park: bool,
    log: Log,
}

impl Rig {
    /// A frontend at `node` serving `served` out of a table of `n_qps`
    /// queue pairs.
    fn new(node: NocNode, n_qps: u32, served: &[u32], cfg: RmcConfig) -> Rig {
        let cx = CacheComplex::new(CoherenceConfig::default(), node, true, home, 1);
        Rig {
            fe: NiFrontend::new(node, node, served, cfg),
            qps: (0..n_qps)
                .map(|q| QueuePair::new(q, wq_base(q), cq_base(q)))
                .collect(),
            cx,
            now: 0,
            delay: BTreeMap::new(),
            mem: BTreeMap::new(),
            replies: Vec::new(),
            keep: false,
            park: false,
            log: Log::default(),
        }
    }

    /// The application writes one remote read into `qp`'s WQ.
    fn write_entry(&mut self, qp: u32) -> u64 {
        let q = &mut self.qps[qp as usize];
        let id = q
            .enqueue(RemoteOp::Read, 1, Addr(0x4000_0000), Addr(0x5000_0000), 64)
            .expect("WQ has room");
        self.mem.insert(q.slot_block_of(id), id);
        id
    }

    fn drain_frontend(&mut self, done: Option<(u64, u64)>) {
        let mut kind = Kind::Poll;
        while let Some(e) = self.fe.pop_egress() {
            match e {
                RmcEgress::Ni {
                    msg: NiMsg::WqFwd { entry, qp, .. },
                    ..
                } => self.log.forwarded.push((qp, entry.id, self.now)),
                RmcEgress::Trace(t) => {
                    let row = (t.qp, t.wq_id, t.at.0);
                    match t.stage {
                        Stage::FeObserved => self.log.observed.push(row),
                        Stage::CqWritten => {
                            kind = Kind::Store;
                            self.log.cq_written.push(row);
                        }
                        other => panic!("unexpected frontend stamp {other:?}"),
                    }
                }
                other => panic!("unexpected frontend egress {other:?}"),
            }
        }
        if let Some((at, value)) = done {
            self.log.done.push(Done { at, value, kind });
        }
    }

    /// One cycle, in the chip's order.
    fn step(&mut self) {
        let now = Cycle(self.now);
        if self.fe.is_parked() {
            // Nothing is in flight: the cache is idle.
            assert!(self.replies.is_empty(), "a parked frontend's cache missed");
            self.now += 1;
            return;
        }
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.replies)
            .into_iter()
            .partition(|&(at, _)| at <= self.now);
        self.replies = later;
        let mut granted = Vec::new();
        for (_, msg) in due {
            granted.push(msg.block());
            self.cx.deliver(now, msg);
        }
        self.fe.tick(now, &mut self.qps, &mut self.cx);
        self.drain_frontend(None);
        self.cx.tick(now);
        while let Some(e) = self.cx.pop_egress() {
            assert_eq!(e.dst, HOME, "the complex addresses the block's home");
            let (kind, block) = match e.msg {
                CohMsg::GetS { block } => (Kind::Poll, block),
                CohMsg::GetX { block } => (Kind::Store, block),
                CohMsg::InvAck { .. } => continue,
                other => panic!("unexpected request {other:?}"),
            };
            self.log.issued.push(Issued {
                at: self.now - 1,
                kind,
                block,
            });
            let value = self.mem.get(&block).copied().unwrap_or(0);
            let reply = match kind {
                Kind::Poll => CohMsg::DataS { block, value },
                Kind::Store => CohMsg::DataE {
                    block,
                    value,
                    acks: 0,
                },
            };
            let delay = self.delay.get(&block).copied().unwrap_or(1);
            self.replies.push((self.now + delay, reply));
        }
        let mut completed = false;
        while let Some(c) = self.cx.pop_completion() {
            self.fe.on_cache_completion(c.at, c.tag, c.value, &self.qps);
            self.drain_frontend(Some((c.at.0, c.value)));
            completed = true;
        }
        if self.keep {
            granted.clear();
        }
        // Take back every block whose grant was used this cycle.
        for block in granted {
            let inv = CohMsg::Inv {
                block,
                ack_to: HOME,
                akind: ClientKind::Directory,
            };
            self.cx.deliver(now, inv);
        }
        if self.park && completed && self.fe.park(now, &self.qps, &self.cx, NO_SETTLE) {
            self.log.parks.push(self.now);
        }
        self.now += 1;
    }

    fn run_to(&mut self, cycle: u64) {
        while self.now < cycle {
            self.step();
        }
    }

    fn run_until(&mut self, limit: u64, done: impl Fn(&Log) -> bool) {
        while !done(&self.log) {
            assert!(self.now < limit, "condition not reached by cycle {limit}");
            self.step();
        }
    }

    /// Issue cycles of this frontend's accesses of one kind.
    fn issues(&self, kind: Kind) -> Vec<u64> {
        let log = self.log.issued.iter();
        log.filter(|i| i.kind == kind).map(|i| i.at).collect()
    }

    /// Completion cycles of this frontend's accesses of one kind.
    fn completions(&self, kind: Kind) -> Vec<u64> {
        let log = self.log.done.iter();
        log.filter(|d| d.kind == kind).map(|d| d.at).collect()
    }
}

fn cfg(poll_backoff: u64, fe_poll_concurrency: usize) -> RmcConfig {
    RmcConfig {
        poll_backoff,
        fe_poll_concurrency,
        ..RmcConfig::default()
    }
}

/// An NIedge frontend of a NOC-Out column serves QPs 2, 10 and 18 of 24
/// and keeps two polls in flight. QP 2's head block answers in six
/// cycles, the others in one, so its poll is still out when the cursor
/// comes back to it.
#[test]
fn edge_frontend_polls_round_robin_one_poll_per_qp() {
    let served = [2u32, 10, 18];
    let mut rig = Rig::new(NocNode::NiBlock(2), 24, &served, cfg(0, 2));
    // Distinct tokens name the QP a poll read; no entry is ever pending.
    for (i, &q) in served.iter().enumerate() {
        let block = rig.qps[q as usize].wq_head_block();
        rig.mem.insert(block, 1_000 + i as u64);
    }
    let slow = rig.qps[2].wq_head_block();
    rig.delay.insert(slow, 6);
    rig.run_to(300);

    // Each poll's interval, by served position: (issued, completed).
    let head_blocks: Vec<BlockAddr> = served
        .iter()
        .map(|&q| rig.qps[q as usize].wq_head_block())
        .collect();
    let mut issued: Vec<(u64, usize)> = Vec::new();
    for i in &rig.log.issued {
        assert_eq!(i.kind, Kind::Poll, "no CQ work here");
        let pos = head_blocks.iter().position(|&b| b == i.block).unwrap();
        issued.push((i.at, pos));
    }
    let mut done: Vec<Vec<u64>> = vec![Vec::new(); served.len()];
    for d in &rig.log.done {
        done[(d.value - 1_000) as usize].push(d.at);
    }
    let mut spans: Vec<(u64, u64, usize)> = Vec::new();
    for (pos, done) in done.iter().enumerate() {
        let starts: Vec<u64> = issued
            .iter()
            .filter(|&&(_, p)| p == pos)
            .map(|&(at, _)| at)
            .collect();
        // Every issued poll missed on its own: none joined another poll
        // of the same block. Only the last may still be out.
        assert!(
            starts.len() == done.len() || starts.len() == done.len() + 1,
            "position {pos}: {} polls issued, {} completed",
            starts.len(),
            done.len()
        );
        for (k, &start) in starts.iter().enumerate() {
            let end = done.get(k).copied().unwrap_or(u64::MAX);
            assert!(
                start < end,
                "position {pos}: poll {k} completed before its issue"
            );
            if k > 0 {
                assert!(
                    start > done[k - 1],
                    "position {pos}: poll {k} issued at {start} while poll {} was out until {}",
                    k - 1,
                    done[k - 1]
                );
            }
            spans.push((start, end, pos));
        }
    }

    // A poll is out during the frontend's tick at `c` when it was issued
    // before `c` and completes at `c` or later (completions arrive after
    // the frontend's subphase).
    let out_at = |c: u64| -> Vec<usize> {
        spans
            .iter()
            .filter(|&&(s, e, _)| s < c && e >= c)
            .map(|&(_, _, p)| p)
            .collect()
    };
    let (mut skipped, mut full) = (0, 0);
    for w in issued.windows(2) {
        let ((_, prev), (at, pos)) = (w[0], w[1]);
        let busy = out_at(at);
        assert!(busy.len() < 2, "a poll issued at {at} with {busy:?} out");
        // The cursor moves on from the last polled position and passes
        // over positions with a poll out.
        let want = (1..=served.len())
            .map(|k| (prev + k) % served.len())
            .find(|p| !busy.contains(p))
            .unwrap();
        assert_eq!(pos, want, "poll at {at}: cursor after {prev}, out {busy:?}");
        skipped += usize::from(want != (prev + 1) % served.len());
    }
    for c in 1..=rig.now {
        let busy = out_at(c).len();
        assert!(busy <= 2, "{busy} polls out at {c}");
        full += usize::from(busy == 2);
    }
    assert!(issued.len() > 60, "{} polls in 300 cycles", issued.len());
    assert!(skipped > 0, "the cursor never passed over a busy QP");
    assert!(full > 0, "two polls were never out at once");
}

/// A per-tile frontend forwards what its poll saw `RGP_FE_PROC` cycles
/// later, and polls again meanwhile; the second poll still sees the first
/// poll's entries pending and must not forward them twice.
#[test]
fn entries_seen_by_overlapping_polls_are_forwarded_once_in_id_order() {
    let mut rig = Rig::new(NocNode::tile(5, 0), 8, &[5], cfg(0, 1));
    rig.run_to(10);
    assert_eq!(rig.write_entry(5), 1);
    assert_eq!(rig.write_entry(5), 2);
    rig.run_until(100, |log| log.forwarded.len() == 2);
    rig.run_to(rig.now + 20);
    // Entry 3 opens the next WQ block.
    assert_eq!(rig.write_entry(5), 3);
    rig.run_to(rig.now + 40);

    let ids = |rows: &[(u32, u64, u64)]| -> Vec<(u32, u64)> {
        rows.iter().map(|&(q, id, _)| (q, id)).collect()
    };
    assert_eq!(ids(&rig.log.forwarded), [(5, 1), (5, 2), (5, 3)]);
    assert_eq!(ids(&rig.log.observed), [(5, 1), (5, 2), (5, 3)]);
    // Forwards leave in id order.
    let at: Vec<u64> = rig.log.forwarded.iter().map(|f| f.2).collect();
    assert!(at[0] < at[1] && at[1] < at[2], "forward cycles {at:?}");
    // Some poll completed between entry 2's observation and its forward
    // and read a token covering it: the overlap the watermark absorbs.
    let (seen, sent) = (rig.log.observed[1].2, rig.log.forwarded[1].2);
    let overlapping = rig
        .log
        .done
        .iter()
        .filter(|d| d.kind == Kind::Poll && d.at > seen && d.at < sent && d.value >= 2)
        .count();
    assert!(
        overlapping > 0,
        "no poll overlapped the forwards ({seen}..{sent})"
    );
    assert!(rig.qps[5].pending_entries().next().is_none());
    assert_eq!(rig.qps[5].inflight(), 3);
}

/// A poll that finds nothing leaves the next one `poll_backoff` cycles
/// after its completion, and the frontend's next activity says so.
#[test]
fn an_empty_poll_backs_off_poll_backoff_cycles() {
    const BACKOFF: u64 = 7;
    let mut rig = Rig::new(NocNode::tile(3, 1), 16, &[11], cfg(BACKOFF, 1));
    rig.run_until(100, |log| log.done.len() == 3);
    let last = rig.log.done[2].at;
    assert_eq!(
        rig.fe.next_activity(Cycle(last + 1)),
        Some(Cycle(last + BACKOFF)),
        "idle until the backoff ends"
    );
    // An entry written during the backoff waits for the next poll.
    rig.run_to(last + 2);
    rig.write_entry(11);
    rig.run_to(120);

    let (issues, done) = (rig.issues(Kind::Poll), rig.completions(Kind::Poll));
    assert!(done.len() > 10, "{} polls completed", done.len());
    assert_eq!(issues[3], last + BACKOFF);
    assert_eq!(rig.log.observed, [(11, 1, done[3])]);
    // Only the poll that found the entry lets the next one go at once.
    for (k, pair) in issues.windows(2).enumerate() {
        let wait = if k == 3 { 1 } else { BACKOFF };
        assert_eq!(
            pair[1] - done[k],
            wait,
            "poll {} issued {} cycles after poll {k} completed",
            k + 1,
            pair[1] - done[k]
        );
    }
}

/// Completion notifications become CQ stores one at a time, each after
/// `RCP_FE_PROC` cycles of processing. A waiting notification takes the
/// cycle a poll would have had; polls go on while a store is out.
#[test]
fn cq_stores_go_ahead_of_polls_one_at_a_time() {
    let mut rig = Rig::new(NocNode::tile(0, 2), 20, &[16], cfg(0, 1));
    rig.run_to(4);
    for _ in 0..3 {
        rig.write_entry(16);
    }
    rig.run_until(100, |log| log.forwarded.len() == 3);
    // Notify right after a poll completed: the frontend would poll on its
    // next tick.
    let polls_before = rig.completions(Kind::Poll).len();
    rig.run_until(200, |log| {
        log.done.iter().filter(|d| d.kind == Kind::Poll).count() > polls_before
    });
    let freed = rig.now;
    rig.fe.on_notify(16, 1, true, false);
    rig.fe.on_notify(16, 2, false, false);
    rig.fe.on_notify(16, 3, true, true);
    rig.run_to(freed + 60);

    let polls = rig.issues(Kind::Poll);
    let stores = rig.issues(Kind::Store);
    let stored = rig.completions(Kind::Store);
    assert_eq!(stores.len(), 3, "one store per notification");
    assert!(!polls.contains(&freed), "the store took the poll's cycle");
    assert!(
        polls.contains(&(freed + 1)),
        "the poll went one cycle later"
    );
    assert_eq!(stores[0], freed + RCP_FE_PROC);
    for k in 1..3 {
        assert_eq!(
            stores[k],
            stored[k - 1] + 1 + RCP_FE_PROC,
            "store {k} waits for store {} and its processing",
            k - 1
        );
    }
    for k in 0..3 {
        // From the cycle it was scheduled to its completion.
        let (from, to) = (stores[k] - RCP_FE_PROC, stored[k]);
        let during = polls.iter().filter(|&&p| p > from && p < to).count();
        assert!(
            during > 0,
            "no poll while store {k} was pending ({from}..{to})"
        );
    }
    // Every store wrote its own CQ block token, in notification order.
    let tokens: Vec<u64> = rig
        .log
        .done
        .iter()
        .filter(|d| d.kind == Kind::Store)
        .map(|d| d.value)
        .collect();
    assert_eq!(tokens, [1, 2, 3]);
    let written: Vec<(u64, u64)> = rig.log.cq_written.iter().map(|w| (w.1, w.2)).collect();
    assert_eq!(written, [(1, stored[0]), (2, stored[1]), (3, stored[2])]);
    // The application reaps the statuses the backend reported.
    let q = &mut rig.qps[16];
    let reaped: Vec<(u64, bool, bool)> = std::iter::from_fn(|| q.app_reap())
        .map(|c| (c.wq_id, c.ok, c.degraded))
        .collect();
    assert_eq!(
        reaped,
        [(1, true, false), (2, false, false), (3, true, true)]
    );
}

/// A frontend for the parking tests: a per-tile one when it serves one QP,
/// else an NIedge one.
fn parking_rig(served: &[u32], poll_backoff: u64, fe_poll_concurrency: usize) -> Rig {
    let node = match served {
        [_] => NocNode::tile(5, 0),
        _ => NocNode::NiBlock(2),
    };
    Rig::new(node, 24, served, cfg(poll_backoff, fe_poll_concurrency))
}

/// A rig whose poll loop goes quiet: one entry on the first served QP is
/// written, seen and forwarded while the directory still takes blocks
/// back; from then on the cache keeps every head block, so once each came
/// in, every poll hits and reads nothing new. With `park` the frontend
/// parks at its first chance.
fn quiet_rig(served: &[u32], poll_backoff: u64, park: bool) -> Rig {
    let mut rig = parking_rig(served, poll_backoff, 1);
    rig.run_to(10);
    rig.write_entry(served[0]);
    rig.run_until(2_000, |log| log.forwarded.len() == 1);
    rig.keep = true;
    rig.park = park;
    rig
}

/// A loop parked and settled at the start of cycle `t` leaves the
/// frontend and its cache as polling every cycle up to `t` does: the
/// frontend's whole state (tags, cursor, poll records, `poll_ready_at`),
/// compared through its `Debug` form, and the cache's statistics; and
/// the two go on alike. `t` runs from the cycle after the park over both
/// sides of an in-flight poll: as it issues, while it is out, and once
/// it hit.
#[test]
fn a_settled_loop_matches_one_that_polled_every_cycle() {
    for poll_backoff in [0, 1, 2, 512] {
        for served in [&[5][..], &[2, 10, 18]] {
            let mut probe = quiet_rig(served, poll_backoff, true);
            probe.run_until(5_000, |log| !log.parks.is_empty());
            let parked_at = probe.log.parks[0];
            let period = 1 + poll_backoff.max(1);
            let first_issue = parked_at + poll_backoff.max(1);
            let mut settle_at = vec![parked_at + 1];
            for k in [0, 1, 4] {
                let issue = first_issue + k * period;
                settle_at.extend([issue, issue + 1, issue + 2]);
            }
            for t in settle_at {
                let at = format!(
                    "backoff {poll_backoff}, QPs {served:?}, parked at {parked_at}, settled at {t}"
                );
                let mut live = quiet_rig(served, poll_backoff, false);
                live.run_to(t);
                let mut parked = quiet_rig(served, poll_backoff, true);
                parked.run_to(t);
                assert_eq!(parked.log.parks, [parked_at], "{at}");
                let run = parked.fe.parked_run(Cycle(t), &parked.qps);
                parked.cx.credit_hits(&[run]);
                parked.fe.settle(Cycle(t), &parked.qps, &mut parked.cx);
                assert!(!parked.fe.is_parked());
                assert_eq!(format!("{:?}", parked.fe), format!("{:?}", live.fe), "{at}");
                assert_eq!(parked.cx.stats(), live.cx.stats(), "{at}");
                parked.park = false;
                let end = t + 3 * period;
                live.run_to(end);
                parked.run_to(end);
                let after = |rig: &Rig| -> Vec<u64> {
                    let done = rig.completions(Kind::Poll);
                    done.into_iter().filter(|&c| c >= t).collect()
                };
                assert_eq!(after(&parked), after(&live), "{at}: polls after");
                assert_eq!(
                    format!("{:?}", parked.fe),
                    format!("{:?}", live.fe),
                    "{at}, then {end}"
                );
                assert_eq!(parked.cx.stats(), live.cx.stats(), "{at}, then {end}");
            }
        }
    }
}

/// Run `rig`, keeping its grants, until a completion leaves its frontend
/// [quiet](NiFrontend::is_quiet); returns it stopped after that cycle,
/// with the completion's cycle.
fn until_quiet(mut rig: Rig) -> (Rig, Cycle) {
    rig.keep = true;
    loop {
        assert!(rig.now < 5_000, "the loop never went quiet");
        let done = rig.log.done.len();
        rig.step();
        if rig.log.done.len() > done && rig.fe.is_quiet(&rig.qps, &rig.cx) {
            let completed_at = Cycle(rig.now - 1);
            return (rig, completed_at);
        }
    }
}

/// A quiet loop parks; a park is refused when a coming poll could read
/// something new (the core's store left an unseen entry's token in the
/// block the NI cache shares, or the head block left the NI cache), when
/// the cache has work of its own, and when two polls could overlap (an
/// NIedge row at concurrency 2).
#[test]
fn a_park_is_refused_unless_every_coming_poll_is_a_quiet_hit() {
    let quiet = || until_quiet(parking_rig(&[5], 0, 1));
    let (mut rig, c) = quiet();
    assert!(
        rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE),
        "a quiet loop parks"
    );

    // At backoff 0 the parked polls issue at `c + 1` and `c + 3` and hit
    // at `c + 2` and `c + 4`: a core that ticks (and settles) at `c + 4`
    // leaves the park one poll to save, too few; one at `c + 5`, two.
    let (mut rig, c) = quiet();
    assert!(
        !rig.fe.park(c, &rig.qps, &rig.cx, c + 4),
        "settled too soon"
    );
    assert!(
        rig.fe.park(c, &rig.qps, &rig.cx, c + 5),
        "settled after two polls"
    );

    // An entry the cache cannot show yet does not stop the loop parking;
    // once the core's store put its token in the shared block, it does.
    let (mut rig, c) = quiet();
    let id = rig.write_entry(5);
    assert!(rig.fe.is_quiet(&rig.qps, &rig.cx), "unseen entry");
    let head = rig.qps[5].wq_head_block();
    let now = Cycle(rig.now);
    let store = Access {
        origin: AccessOrigin::Core,
        kind: AccessKind::Store,
        block: head,
        store_value: id,
        tag: 0,
    };
    rig.cx.submit(now, store).unwrap();
    // The L1 finds the NI cache's shared copy and upgrades it.
    let mut at = now;
    let upgrade = loop {
        rig.cx.tick(at);
        if let Some(e) = rig.cx.pop_egress() {
            break e.msg;
        }
        at += 1;
    };
    assert_eq!(upgrade, CohMsg::GetX { block: head });
    let grant = CohMsg::DataE {
        block: head,
        value: id - 1,
        acks: 0,
    };
    rig.cx.deliver(at + 1, grant);
    assert!(rig.cx.pop_completion().is_some(), "the store completed");
    assert!(rig.cx.is_idle());
    assert_eq!(rig.cx.ni_hit_value(head), Some(id));
    assert!(
        !rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE),
        "visible entry"
    );

    // The head block left the NI cache.
    let (mut rig, c) = quiet();
    let head = rig.qps[5].wq_head_block();
    let inv = CohMsg::Inv {
        block: head,
        ack_to: HOME,
        akind: ClientKind::Directory,
    };
    rig.cx.deliver(Cycle(rig.now), inv);
    assert!(rig.cx.pop_egress().is_some(), "the InvAck");
    assert!(rig.cx.is_idle());
    assert!(
        !rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE),
        "head block not cached"
    );

    // The cache has a lookup of its own due.
    let (mut rig, c) = quiet();
    let load = Access {
        origin: AccessOrigin::Core,
        kind: AccessKind::Load,
        block: BlockAddr(7),
        store_value: 0,
        tag: 0,
    };
    rig.cx.submit(Cycle(rig.now), load).unwrap();
    assert!(!rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE), "cache event");

    // Three QPs: one poll at a time parks, two at a time does not.
    let row = [2, 10, 18];
    let (mut rig, c) = until_quiet(parking_rig(&row, 512, 1));
    assert!(
        rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE),
        "a row polled serially"
    );
    let (mut rig, c) = until_quiet(parking_rig(&row, 512, 2));
    assert!(
        !rig.fe.park(c, &rig.qps, &rig.cx, NO_SETTLE),
        "two polls could overlap"
    );
}

#[test]
#[should_panic(expected = "fe_poll_concurrency must be at least 1")]
fn zero_poll_concurrency_is_rejected() {
    let node = NocNode::tile(0, 0);
    NiFrontend::new(node, node, &[0], cfg(0, 0));
}

#[test]
#[should_panic(expected = "qp_ids: a frontend serves at most 8 QPs, got 9")]
fn more_qps_than_a_row_are_rejected() {
    let node = NocNode::NiBlock(0);
    let row: Vec<u32> = (0..9).collect();
    NiFrontend::new(node, node, &row, RmcConfig::default());
}
