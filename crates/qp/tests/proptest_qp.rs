//! Model-based property tests for the queue-pair protocol.
//!
//! A `QueuePair` is driven with arbitrary interleavings of the four
//! protocol actions (application enqueue, NI take, NI complete, application
//! reap) and checked against a flat reference model.

use ni_mem::Addr;
use ni_qp::{QueuePair, RemoteOp, CQ_ENTRY_BYTES, WQ_ENTRIES, WQ_ENTRY_BYTES};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Action {
    Enqueue { len: u64, write: bool },
    NiTake,
    NiComplete,
    AppReap,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..20_000, any::<bool>()).prop_map(|(len, write)| Action::Enqueue { len, write }),
        Just(Action::NiTake),
        Just(Action::NiComplete),
        Just(Action::AppReap),
    ]
}

/// Flat reference model of the QP state machine.
#[derive(Default)]
struct Model {
    next_id: u64,
    pending: Vec<u64>,
    taken: Vec<u64>,
    completed: Vec<u64>,
    reaped: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn qp_matches_reference_model(actions in prop::collection::vec(action_strategy(), 1..200)) {
        let mut qp = QueuePair::new(0, Addr(0x1000), Addr(0x20000));
        let mut m = Model::default();

        for a in actions {
            match a {
                Action::Enqueue { len, write } => {
                    let op = if write { RemoteOp::Write } else { RemoteOp::Read };
                    // A WQ slot is held from enqueue until the NI records
                    // the completion; unreaped CQ entries do not occupy WQ
                    // space.
                    let full = m.pending.len() + m.taken.len() >= WQ_ENTRIES;
                    let r = qp.enqueue(op, 1, Addr(0x9000), Addr(0x5000), len);
                    prop_assert_eq!(r.is_err(), full, "fullness mismatch");
                    if let Ok(id) = r {
                        m.next_id += 1;
                        prop_assert_eq!(id, m.next_id, "ids are dense and monotonic");
                        m.pending.push(id);
                    }
                }
                Action::NiTake => {
                    let e = qp.ni_take();
                    prop_assert_eq!(e.is_some(), !m.pending.is_empty());
                    if let Some(e) = e {
                        let id = m.pending.remove(0);
                        prop_assert_eq!(e.id, id, "NI takes in FIFO order");
                        prop_assert_eq!(e.blocks(), e.length.div_ceil(64).max(1));
                        m.taken.push(id);
                    }
                }
                Action::NiComplete => {
                    if m.taken.is_empty() {
                        continue; // completing nothing is a protocol error
                    }
                    let id = m.taken.remove(0);
                    qp.ni_complete(id);
                    m.completed.push(id);
                }
                Action::AppReap => {
                    let c = qp.app_reap();
                    prop_assert_eq!(c.is_some(), !m.completed.is_empty());
                    if let Some(c) = c {
                        let id = m.completed.remove(0);
                        prop_assert_eq!(c.wq_id, id, "completions reaped in order");
                        prop_assert!(c.ok);
                        m.reaped.push(id);
                    }
                }
            }
            // Structural invariants, checked after every step.
            prop_assert_eq!(qp.inflight(), m.taken.len());
            prop_assert_eq!(qp.completions_ready(), m.completed.len());
            prop_assert_eq!(
                qp.wq_free(),
                WQ_ENTRIES - m.pending.len() - m.taken.len()
            );
            prop_assert_eq!(qp.newest_written_id(), m.next_id);
            prop_assert_eq!(
                qp.completions_written(),
                (m.completed.len() + m.reaped.len()) as u64
            );
        }
    }

    #[test]
    fn wq_slots_wrap_within_the_ring(count in 1u64..600) {
        let mut qp = QueuePair::new(0, Addr(0x4000), Addr(0x8000));
        let ring_bytes = WQ_ENTRIES as u64 * WQ_ENTRY_BYTES;
        for _ in 0..count {
            // Keep the queue from filling: take+complete+reap immediately.
            let id = qp
                .enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64)
                .expect("never full");
            let block = qp.slot_block_of(id);
            let base = block.base().0;
            prop_assert!(base >= 0x4000, "slot below the WQ region");
            prop_assert!(base < 0x4000 + ring_bytes, "slot beyond the ring");
            let e = qp.ni_take().expect("just enqueued");
            qp.ni_complete(e.id);
            qp.app_reap().expect("just completed");
        }
    }

    #[test]
    fn blocks_calculation_never_zero(len in 0u64..1_000_000) {
        let mut qp = QueuePair::new(0, Addr(0), Addr(0x10000));
        qp.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), len).expect("empty queue");
        let e = qp.ni_take().expect("present");
        prop_assert!(e.blocks() >= 1);
        prop_assert!(e.blocks() * 64 >= len);
        prop_assert!(e.blocks() * 64 < len + 64 + 1);
    }

    #[test]
    fn cq_blocks_advance_every_eight_completions(batches in 1usize..40) {
        let mut qp = QueuePair::new(0, Addr(0), Addr(0x10000));
        let per_block = 64 / CQ_ENTRY_BYTES;
        let mut seen = vec![qp.cq_tail_block()];
        for _ in 0..batches {
            for _ in 0..per_block {
                let id = qp.enqueue(RemoteOp::Read, 0, Addr(0), Addr(0), 64).expect("never full");
                let e = qp.ni_take().expect("present");
                qp.ni_complete(e.id);
                qp.app_reap().expect("completed");
                let _ = id;
            }
            let b = qp.cq_tail_block();
            prop_assert_ne!(b, *seen.last().expect("non-empty"), "CQ tail must advance per batch");
            seen.push(b);
        }
    }
}
