//! Deterministic K-way replica placement over the torus.
//!
//! A [`ReplicaMap`] assigns every node a *replica set*: the K nodes that
//! hold a copy of its address space, the node itself always first. The
//! placement is a pure function of `(geometry, seed, k)` — no ambient
//! randomness, no I/O — so every chip of a rack derives the identical map
//! independently and a replicated run stays bit-identical across thread
//! counts and reruns.
//!
//! Placement rule (torus-distance-aware spread): starting from the primary,
//! each successive replica is the candidate that *maximizes the minimum
//! torus distance* to every member already chosen, ties broken by a
//! seed-derived hash and then by node id. Maximizing spread (rather than
//! packing replicas next to the primary) is what lets a replica set survive
//! region kills — an X/Y/Z slab failure takes out co-located nodes
//! together, and a farthest-point placement never co-locates a primary with
//! its own replicas.
//!
//! The layers that consume the map:
//!
//! * the RMC backend rotates a timed-out transfer through the destination's
//!   replica set (WQ replay / read failover) and fans replicated writes out
//!   to every member, completing on a quorum;
//! * scenarios see the active replication factor through their op context
//!   and may spread read load across a hot node's replicas.
//!
//! Re-balancing after repair is implicit: the map is static and every new
//! op starts at the primary (rank 0), so a repaired node resumes serving
//! its shard on the very next op addressed to it — failover state is
//! per-transfer, never sticky.

use crate::torus::Torus3D;

/// Replication knobs, as carried by configs (small and `Copy` so it rides
/// inside the `Copy` chip/RMC config structs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaCfg {
    /// Replication factor K: copies of each node's data, the node itself
    /// included. `1` (the default) means replication is off and every
    /// recovery path below is dead code.
    pub k: u8,
    /// Write quorum W: a replicated write completes once `W` of the `K`
    /// fan-out legs acknowledged. A chip rejects a `W` outside `1..=K`.
    pub w: u8,
    /// Placement seed: the tie-break entropy of the [`ReplicaMap`]. Must be
    /// identical on every node of a rack (it is carried by the shared
    /// config, not the per-node seed, for exactly that reason).
    pub seed: u64,
}

impl ReplicaCfg {
    /// Replication off: `K = 1`, `W = 1` — the default everywhere, keeping
    /// every existing run bit-identical.
    pub fn off() -> ReplicaCfg {
        ReplicaCfg {
            k: 1,
            w: 1,
            seed: 0,
        }
    }

    /// True when this config actually replicates (`K > 1`).
    pub fn enabled(&self) -> bool {
        self.k > 1
    }
}

impl Default for ReplicaCfg {
    fn default() -> ReplicaCfg {
        ReplicaCfg::off()
    }
}

/// The node → replica-set table (see the module docs for the placement
/// rule). Built once per chip and shared read-only by its backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaMap {
    k: u8,
    /// `sets[node]` = the K nodes holding `node`'s data, primary first.
    sets: Vec<Vec<u16>>,
}

/// SplitMix64 finalizer: the deterministic tie-break hash of the placement
/// rule (a pure function, not an RNG — no hidden stream state).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ReplicaMap {
    /// Build the map for `torus` with replication factor `k` and tie-break
    /// `seed`. Pure: equal arguments yield an equal map, on every node,
    /// every run.
    ///
    /// # Panics
    /// If `k` is 0 or exceeds the node count, as [`ReplicaMap::ring`] does.
    pub fn new(torus: Torus3D, seed: u64, k: u8) -> ReplicaMap {
        let n = torus.nodes();
        Self::build(n, seed, k, |a, b| torus.hops(u32::from(a), u32::from(b)))
    }

    /// Geometry-free fallback for racks without a torus (the single-node
    /// emulator): distance is ring distance over node ids.
    pub fn ring(nodes: u32, seed: u64, k: u8) -> ReplicaMap {
        Self::build(nodes, seed, k, move |a, b| {
            let d = u32::from(a.abs_diff(b));
            d.min(nodes.saturating_sub(d))
        })
    }

    fn build(nodes: u32, seed: u64, k: u8, dist: impl Fn(u16, u16) -> u32) -> ReplicaMap {
        assert!(nodes <= 1 << 16, "replica map indexes nodes as u16");
        assert!(
            (1..=nodes).contains(&u32::from(k)),
            "replication k = {k} must lie in 1..={nodes}, the node count"
        );
        let k = usize::from(k);
        let mut sets = Vec::with_capacity(nodes as usize);
        for node in 0..nodes as u16 {
            let mut set = Vec::with_capacity(k);
            set.push(node);
            while set.len() < k {
                // Farthest-point pick: maximize the minimum distance to the
                // members already chosen; break ties by seeded hash, then id.
                let best = (0..nodes as u16)
                    .filter(|m| !set.contains(m))
                    .max_by_key(|&m| {
                        let spread = set.iter().map(|&s| dist(s, m)).min().unwrap_or(0);
                        (
                            spread,
                            mix64(seed ^ (u64::from(node) << 32) ^ u64::from(m)),
                            std::cmp::Reverse(m),
                        )
                    })
                    .expect("k is at most the node count");
                set.push(best);
            }
            sets.push(set);
        }
        ReplicaMap { k: k as u8, sets }
    }

    /// The replication factor this map was built with.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// The replica set of `node`'s data: K distinct nodes, `node` first.
    pub fn replicas(&self, node: u16) -> &[u16] {
        &self.sets[usize::from(node)]
    }

    /// The `rank`-th failover target for data homed at `node` (rank 0 is
    /// the primary itself; ranks wrap, so rotation never runs out).
    pub fn alternate(&self, node: u16, rank: u32) -> u16 {
        let set = self.replicas(node);
        set[(rank as usize) % set.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_deterministic_distinct_and_primary_first() {
        let t = Torus3D::new(4, 4, 4);
        let a = ReplicaMap::new(t, 0xbeef, 3);
        let b = ReplicaMap::new(t, 0xbeef, 3);
        assert_eq!(a, b, "same (torus, seed, k) must yield the same map");
        for node in 0..t.nodes() as u16 {
            let set = a.replicas(node);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], node, "the primary leads its own set");
            let mut s = set.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "replicas of {node} must be distinct");
        }
        let c = ReplicaMap::new(t, 0xbee5, 3);
        // Same spread-first rule, different tie-breaks: at least one set
        // should move (the 4x4x4 torus has many equidistant candidates).
        assert_ne!(a, c, "different seeds should shuffle tie-broken picks");
    }

    #[test]
    fn placement_spreads_replicas_away_from_the_primary() {
        let t = Torus3D::new(4, 4, 4);
        let m = ReplicaMap::new(t, 7, 2);
        for node in 0..t.nodes() {
            let r = m.replicas(node as u16)[1];
            // Farthest-point: the first replica sits at the maximum torus
            // distance from its primary (the antipode distance).
            assert_eq!(
                t.hops(node, u32::from(r)),
                t.max_hops(),
                "replica of {node} is not maximally spread"
            );
        }
    }

    #[test]
    fn ring_fallback_sets_and_wrapping_alternates() {
        let m = ReplicaMap::ring(2, 0, 2);
        assert_eq!(m.k(), 2);
        assert_eq!(m.replicas(0), &[0, 1]);
        assert_eq!(m.alternate(0, 0), 0);
        assert_eq!(m.alternate(0, 1), 1);
        assert_eq!(m.alternate(0, 2), 0, "ranks wrap");
        let one = ReplicaMap::ring(1, 0, 1);
        assert_eq!(one.replicas(0), &[0], "a 1-node rack has no alternates");
    }

    #[test]
    #[should_panic(expected = "replication k = 4 must lie in 1..=2")]
    fn k_beyond_the_node_count_is_rejected() {
        ReplicaMap::ring(2, 0, 4);
    }
}
