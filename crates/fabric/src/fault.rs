//! Deterministic fault injection for the torus fabric.
//!
//! A [`FaultPlan`] is a schedule of link and node failures (and optional
//! repairs) that a [`TorusFabric`](crate::TorusFabric) applies at fixed
//! cycles: a dead link stops accepting and serializing flits in both
//! directions (packets routed at it park and retry), and a dead node drops
//! every packet it sources, holds in flight, or is addressed by, while its
//! incident links read as down to its neighbors. The plan is plain data — building one performs no
//! I/O and draws no randomness — so a faulted run remains a pure function
//! of its configuration, bit-identical at any thread count. For randomized
//! studies, [`FaultPlan::fault_storm`] rolls seeded kill/repair waves from
//! an explicit seed, keeping the determinism contract.
//!
//! What the layers above do about a fault is their business: routing
//! policies see link health through
//! [`LinkView`](crate::routing::LinkView) (see
//! [`FaultAdaptive`](crate::routing::FaultAdaptive)), and requesters
//! recover dropped traffic through the RMC backend's ITT timeout/retry
//! machinery.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::torus::Torus3D;

/// One scheduled fault (or repair) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Kill the undirected link between neighbor nodes `a` and `b`: both
    /// directed links stop accepting packets at `at_cycle`.
    LinkDown {
        /// One endpoint node id.
        a: u32,
        /// The other endpoint node id (must be a torus neighbor of `a`).
        b: u32,
        /// Cycle the link dies.
        at_cycle: u64,
    },
    /// Repair the undirected link between `a` and `b`.
    LinkUp {
        /// One endpoint node id.
        a: u32,
        /// The other endpoint node id (must be a torus neighbor of `a`).
        b: u32,
        /// Cycle the link comes back.
        at_cycle: u64,
    },
    /// Kill node `node`: from `at_cycle` on, packets it would source,
    /// relay, or consume are dropped, and its incident links read as down
    /// in every neighbor's [`LinkView`](crate::routing::LinkView).
    NodeDown {
        /// The node that dies.
        node: u32,
        /// Cycle it dies.
        at_cycle: u64,
    },
    /// Repair node `node`.
    NodeUp {
        /// The node that comes back.
        node: u32,
        /// Cycle it comes back.
        at_cycle: u64,
    },
}

impl FaultEvent {
    /// The cycle this event fires at.
    pub fn at_cycle(&self) -> u64 {
        match *self {
            FaultEvent::LinkDown { at_cycle, .. }
            | FaultEvent::LinkUp { at_cycle, .. }
            | FaultEvent::NodeDown { at_cycle, .. }
            | FaultEvent::NodeUp { at_cycle, .. } => at_cycle,
        }
    }
}

/// A deterministic schedule of [`FaultEvent`]s, threaded through
/// [`TorusFabricConfig::faults`](crate::TorusFabricConfig) (and
/// `RackSimConfig::faults` at the rack layer) the same way the routing
/// policy is.
///
/// ```
/// use ni_fabric::FaultPlan;
/// // Kill the 0↔1 link at cycle 1000, the whole of node 5 at 2000, and
/// // repair the link at 8000.
/// let plan = FaultPlan::new()
///     .link_down(0, 1, 1_000)
///     .node_down(5, 2_000)
///     .link_up(0, 1, 8_000);
/// assert_eq!(plan.events().len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (a healthy fabric).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order. The fabric applies them
    /// sorted by cycle (stable, so same-cycle events fire in insertion
    /// order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedule an arbitrary event.
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Kill the undirected link between neighbors `a` and `b` at `at_cycle`.
    pub fn link_down(self, a: u32, b: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::LinkDown { a, b, at_cycle })
    }

    /// Repair the undirected link between `a` and `b` at `at_cycle`.
    pub fn link_up(self, a: u32, b: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::LinkUp { a, b, at_cycle })
    }

    /// Kill `node` at `at_cycle`.
    pub fn node_down(self, node: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::NodeDown { node, at_cycle })
    }

    /// Repair `node` at `at_cycle`.
    pub fn node_up(self, node: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::NodeUp { node, at_cycle })
    }

    /// A rolling "fault storm": `waves` seeded waves of `kills_per_wave`
    /// node kills, one wave every `period` cycles starting at `first_at`,
    /// each killed node repairing `repair_after` cycles after its death.
    /// Victims are distinct *while down* — a node is only eligible for a
    /// wave once any earlier kill of it has repaired — so the storm models
    /// churn (kill/repair/kill elsewhere) rather than monotone decay. A
    /// pure function of its arguments, like every other constructor here.
    ///
    /// # Panics
    /// Panics when a wave cannot find `kills_per_wave` eligible nodes
    /// (storm too dense for the torus).
    pub fn fault_storm(
        torus: Torus3D,
        seed: u64,
        waves: usize,
        kills_per_wave: usize,
        first_at: u64,
        period: u64,
        repair_after: u64,
    ) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        // Node -> cycle it comes back up (still-down nodes are ineligible).
        let mut up_at: Vec<u64> = vec![0; torus.nodes() as usize];
        for wave in 0..waves {
            let at = first_at + wave as u64 * period;
            let mut killed = 0usize;
            let mut attempts = 0usize;
            while killed < kills_per_wave && attempts < kills_per_wave * 64 + 64 {
                attempts += 1;
                let node = rng.gen_range(0..torus.nodes());
                if up_at[node as usize] > at {
                    continue; // still dead from an earlier wave
                }
                up_at[node as usize] = at + repair_after;
                plan = plan.node_down(node, at).node_up(node, at + repair_after);
                killed += 1;
            }
            assert!(
                killed == kills_per_wave,
                "wave {wave}: only {killed} of {kills_per_wave} kills fit the {:?} torus",
                torus.dims()
            );
        }
        plan
    }

    /// Every node this plan kills at any point (deduplicated, ascending).
    /// Availability studies use it to separate requests *lost by survivors*
    /// from the in-flight work that dies with a killed node itself.
    pub fn killed_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeDown { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The events sorted by firing cycle (stable: same-cycle events keep
    /// insertion order). Used by the fabric at construction.
    pub(crate) fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut ev = self.events.clone();
        ev.sort_by_key(FaultEvent::at_cycle);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_events_in_order() {
        let p = FaultPlan::new()
            .link_down(0, 1, 10)
            .node_down(3, 5)
            .link_up(0, 1, 20);
        assert!(!p.is_empty());
        assert_eq!(p.events().len(), 3);
        let sorted = p.sorted_events();
        assert_eq!(
            sorted[0],
            FaultEvent::NodeDown {
                node: 3,
                at_cycle: 5
            }
        );
        assert_eq!(sorted[2].at_cycle(), 20);
    }

    #[test]
    fn fault_storm_waves_are_deterministic_and_repair() {
        let t = Torus3D::new(4, 4, 1);
        let a = FaultPlan::fault_storm(t, 42, 3, 2, 1_000, 2_000, 1_500);
        let b = FaultPlan::fault_storm(t, 42, 3, 2, 1_000, 2_000, 1_500);
        assert_eq!(a, b, "same seed must reproduce the same storm");
        // 3 waves x 2 kills, each with a matching repair.
        assert_eq!(a.events().len(), 12);
        let downs: Vec<(u32, u64)> = a
            .events()
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeDown { node, at_cycle } => Some((node, at_cycle)),
                _ => None,
            })
            .collect();
        assert_eq!(downs.len(), 6);
        for (i, &(node, at)) in downs.iter().enumerate() {
            assert_eq!(at, 1_000 + (i as u64 / 2) * 2_000, "waves fire on period");
            // Every down has its repair exactly repair_after later.
            assert!(
                a.events().contains(&FaultEvent::NodeUp {
                    node,
                    at_cycle: at + 1_500
                }),
                "node {node} killed at {at} never repairs"
            );
        }
        // Within any wave the two victims are distinct.
        for w in downs.chunks(2) {
            assert_ne!(w[0].0, w[1].0, "a wave must not kill one node twice");
        }
    }
}
