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

use crate::tables::ResourceRecord;

/// Chooses a donor among candidates that can satisfy a request.
///
/// Policies are plain configuration, so they are `Send`: a composed
/// cluster can be built on one worker thread and handed back to another.
pub trait DonorPolicy: Send {
    /// Picks a donor from `candidates` (each with enough free capacity)
    /// for `recipient`. `None` when there are none. The candidates are
    /// streamed, not collected, so ranking them allocates nothing.
    fn select(
        &self,
        topology: &Topology,
        recipient: NodeId,
        candidates: &mut dyn Iterator<Item = &ResourceRecord>,
    ) -> Option<NodeId>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// The prototype's policy: nearest donor by fabric distance, node id as
/// tiebreak.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistancePolicy;

impl DonorPolicy for DistancePolicy {
    fn select(
        &self,
        topology: &Topology,
        recipient: NodeId,
        candidates: &mut dyn Iterator<Item = &ResourceRecord>,
    ) -> Option<NodeId> {
        candidates
            .min_by_key(|r| (topology.distance(recipient, r.node), r.node))
            .map(|r| r.node)
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
        _topology: &Topology,
        _recipient: NodeId,
        candidates: &mut dyn Iterator<Item = &ResourceRecord>,
    ) -> Option<NodeId> {
        candidates.map(|r| r.node).min()
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
        candidates: &mut dyn Iterator<Item = &ResourceRecord>,
    ) -> Option<NodeId> {
        candidates
            .min_by_key(|r| {
                (
                    std::cmp::Reverse(r.amount),
                    topology.distance(recipient, r.node),
                    r.node,
                )
            })
            .map(|r| r.node)
    }

    fn name(&self) -> &'static str {
        "most-free"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::ResourceKind;
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

    #[test]
    fn distance_prefers_neighbors() {
        // Node 0's neighbors in the 2x2x2 mesh are 1, 2, 4; node 7 is the
        // far corner.
        let cands = [rec(7, 1 << 30), rec(2, 1 << 30)];
        let pick = DistancePolicy.select(&mesh(), NodeId(0), &mut cands.iter());
        assert_eq!(pick, Some(NodeId(2)));
    }

    #[test]
    fn distance_tiebreaks_by_id() {
        let cands = [rec(4, 1 << 30), rec(1, 1 << 30), rec(2, 1 << 30)];
        let pick = DistancePolicy.select(&mesh(), NodeId(0), &mut cands.iter());
        assert_eq!(pick, Some(NodeId(1)));
    }

    #[test]
    fn most_free_prefers_capacity() {
        let cands = [rec(1, 1 << 30), rec(7, 4 << 30)];
        let pick = MostFreePolicy.select(&mesh(), NodeId(0), &mut cands.iter());
        assert_eq!(pick, Some(NodeId(7)));
    }

    #[test]
    fn first_fit_ignores_distance() {
        let cands = [rec(7, 1 << 30), rec(5, 1 << 30)];
        let pick = FirstFitPolicy.select(&mesh(), NodeId(0), &mut cands.iter());
        assert_eq!(pick, Some(NodeId(5)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let none = std::iter::empty;
        assert_eq!(DistancePolicy.select(&mesh(), NodeId(0), &mut none()), None);
        assert_eq!(MostFreePolicy.select(&mesh(), NodeId(0), &mut none()), None);
        assert_eq!(FirstFitPolicy.select(&mesh(), NodeId(0), &mut none()), None);
    }
}
