//! Donor-selection policies (paper §5.3).
//!
//! "The allocator should consider distance between potential donor and
//! recipient, the nature of the sharing (and thus bandwidth demand), and
//! existing traffic over involved links. Given the scale of our prototype,
//! our current algorithm only considers distance." [`DistancePolicy`] is
//! that algorithm; [`FirstFitPolicy`] and [`MostFreePolicy`] exist for the
//! ablation benches.

use venice_fabric::topology::Topology;
use venice_fabric::NodeId;

/// Chooses a donor among the nodes that can satisfy a request.
///
/// Policies are plain configuration, so they are `Send`: a composed
/// cluster can be built on one worker thread and handed back to another.
pub trait DonorPolicy: Send {
    /// Picks a donor for `recipient`, or `None` when no node qualifies.
    /// `free(node)` is the node's free amount when it is a candidate
    /// (capable, live and not yet refused) and `None` otherwise; a
    /// policy asks only about the nodes it needs, so ranking costs the
    /// lookups it makes and allocates nothing.
    fn select(
        &self,
        topology: &Topology,
        recipient: NodeId,
        free: &mut dyn FnMut(NodeId) -> Option<u64>,
    ) -> Option<NodeId>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Every node id of `topology`, ascending.
fn node_ids(topology: &Topology) -> impl Iterator<Item = NodeId> {
    (0..topology.len() as u16).map(NodeId)
}

/// The prototype's policy: nearest donor by fabric distance, node id as
/// tiebreak. It walks distance shells outward from the recipient and
/// stops at the first shell holding a candidate, so a donor one hop away
/// costs a handful of lookups however large the mesh.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistancePolicy;

impl DonorPolicy for DistancePolicy {
    fn select(
        &self,
        topology: &Topology,
        recipient: NodeId,
        free: &mut dyn FnMut(NodeId) -> Option<u64>,
    ) -> Option<NodeId> {
        (0..=topology.max_distance(recipient))
            .find_map(|d| topology.first_in_shell(recipient, d, |n| free(n).is_some()))
    }

    fn name(&self) -> &'static str {
        "distance"
    }
}

/// Takes the lowest-numbered capable donor regardless of distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitPolicy;

impl DonorPolicy for FirstFitPolicy {
    fn select(
        &self,
        topology: &Topology,
        _recipient: NodeId,
        free: &mut dyn FnMut(NodeId) -> Option<u64>,
    ) -> Option<NodeId> {
        node_ids(topology).find(|&n| free(n).is_some())
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Takes the donor with the most free capacity (load balancing),
/// distance as tiebreak.
#[derive(Debug, Clone, Copy, Default)]
pub struct MostFreePolicy;

impl DonorPolicy for MostFreePolicy {
    fn select(
        &self,
        topology: &Topology,
        recipient: NodeId,
        free: &mut dyn FnMut(NodeId) -> Option<u64>,
    ) -> Option<NodeId> {
        node_ids(topology)
            .filter_map(|n| Some((n, free(n)?)))
            .min_by_key(|&(n, amount)| {
                (
                    std::cmp::Reverse(amount),
                    topology.distance(recipient, n),
                    n,
                )
            })
            .map(|(n, _)| n)
    }

    fn name(&self) -> &'static str {
        "most-free"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{ResourceKind, ResourceRecord};
    use venice_fabric::Mesh3d;
    use venice_sim::Time;

    fn rec(node: u16, amount: u64) -> ResourceRecord {
        ResourceRecord {
            node: NodeId(node),
            kind: ResourceKind::Memory,
            amount,
            addr: 0,
            reported_at: Time::ZERO,
        }
    }

    fn mesh() -> Topology {
        Topology::Mesh(Mesh3d::prototype())
    }

    /// `policy`'s pick for node 0 among `cands` on the prototype mesh.
    fn pick(policy: &dyn DonorPolicy, cands: &[ResourceRecord]) -> Option<NodeId> {
        let mut free = |n| cands.iter().find(|r| r.node == n).map(|r| r.amount);
        policy.select(&mesh(), NodeId(0), &mut free)
    }

    #[test]
    fn distance_prefers_neighbors() {
        // Node 0's neighbors in the 2x2x2 mesh are 1, 2, 4; node 7 is the
        // far corner.
        let cands = [rec(7, 1 << 30), rec(2, 1 << 30)];
        assert_eq!(pick(&DistancePolicy, &cands), Some(NodeId(2)));
    }

    #[test]
    fn distance_tiebreaks_by_id() {
        let cands = [rec(4, 1 << 30), rec(1, 1 << 30), rec(2, 1 << 30)];
        assert_eq!(pick(&DistancePolicy, &cands), Some(NodeId(1)));
    }

    #[test]
    fn most_free_prefers_capacity() {
        let cands = [rec(1, 1 << 30), rec(7, 4 << 30)];
        assert_eq!(pick(&MostFreePolicy, &cands), Some(NodeId(7)));
    }

    #[test]
    fn first_fit_ignores_distance() {
        let cands = [rec(7, 1 << 30), rec(5, 1 << 30)];
        assert_eq!(pick(&FirstFitPolicy, &cands), Some(NodeId(5)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(pick(&DistancePolicy, &[]), None);
        assert_eq!(pick(&MostFreePolicy, &[]), None);
        assert_eq!(pick(&FirstFitPolicy, &[]), None);
    }
}
