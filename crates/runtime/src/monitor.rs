//! The Monitor Node (paper Fig 2, §5.3).
//!
//! The MN ingests heartbeats into its tables, infers node liveness from
//! missed heartbeats, and services resource requests: policy-driven donor
//! selection followed by a handshake with the donor. "Note that it is
//! possible for MN records to be stale, allowing it to ask for more idle
//! memory than are currently available. We employ handshake and retry
//! mechanisms to address this."

use venice_fabric::topology::Topology;
use venice_fabric::NodeId;
use venice_sim::Time;

use crate::agent::Heartbeat;
use crate::policy::DonorPolicy;
use crate::tables::{AllocationRecord, Rat, ResourceKind, Rrt, Tst};

/// A committed grant of a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// RAT allocation id.
    pub id: u64,
    /// Lending node.
    pub donor: NodeId,
    /// Borrowing node.
    pub recipient: NodeId,
    /// Amount granted.
    pub amount: u64,
    /// Donor-side base address (memory).
    pub addr: u64,
}

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No donor currently advertises enough capacity.
    NoCapacity,
    /// Every candidate donor refused during the handshake (stale records)
    /// within the retry budget.
    RetriesExhausted {
        /// Donors attempted.
        attempts: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NoCapacity => f.write_str("no donor advertises enough capacity"),
            AllocError::RetriesExhausted { attempts } => {
                write!(f, "all {attempts} candidate donors refused (stale records)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The Monitor Node.
pub struct MonitorNode {
    topology: Topology,
    policy: Box<dyn DonorPolicy>,
    rrt: Rrt,
    rat: Rat,
    tst: Tst,
    /// A node is presumed dead after this many missed heartbeat periods.
    pub liveness_multiplier: u32,
    /// Expected heartbeat period.
    pub heartbeat_period: Time,
    grants_committed: u64,
    handshake_refusals: u64,
}

impl std::fmt::Debug for MonitorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorNode")
            .field("policy", &self.policy.name())
            .field("allocations", &self.rat.len())
            .field("grants_committed", &self.grants_committed)
            .finish()
    }
}

impl MonitorNode {
    /// Creates an MN over `topology` with the given donor policy.
    pub fn new(topology: Topology, policy: Box<dyn DonorPolicy>) -> Self {
        let nodes = topology.len();
        MonitorNode {
            topology,
            policy,
            rrt: Rrt::with_nodes(nodes),
            rat: Rat::new(),
            tst: Tst::with_nodes(nodes),
            liveness_multiplier: 3,
            heartbeat_period: Time::from_ms(100),
            grants_committed: 0,
            handshake_refusals: 0,
        }
    }

    /// Ingests one heartbeat: refreshes the RRT and TST.
    pub fn on_heartbeat(&mut self, hb: &Heartbeat) {
        for r in &hb.resources {
            self.rrt.register(*r);
        }
        for &(to, up) in &hb.link_status {
            self.tst.report(hb.node, to, up, hb.at);
        }
    }

    /// Whether `node` has reported within the liveness window ending at
    /// `now`.
    pub fn node_alive(&self, node: NodeId, now: Time) -> bool {
        let window = self.heartbeat_period * self.liveness_multiplier as u64;
        self.rrt
            .records_of(node)
            .any(|r| now.saturating_sub(r.reported_at) <= window)
    }

    /// Declares `node` dead: removes its RRT records and returns the
    /// allocations that must be torn down (fault handling).
    pub fn evict_node(&mut self, node: NodeId) -> Vec<AllocationRecord> {
        self.rrt.deregister_node(node);
        let affected: Vec<AllocationRecord> = self
            .rat
            .donated_by(node)
            .into_iter()
            .chain(self.rat.borrowed_by(node))
            .collect();
        for rec in &affected {
            self.rat.release(rec.id);
            if rec.donor != node {
                // Capacity returns to surviving donors.
                self.rrt.restore(rec.donor, rec.kind, rec.amount);
            }
        }
        affected
    }

    /// Requests `amount` of `kind` for `recipient` at time `now`.
    ///
    /// `donor_accepts` is the handshake: it is asked whether the chosen
    /// donor can really honor the grant (its true free capacity may be
    /// smaller than the RRT's stale view). Refused donors are skipped and
    /// the next candidate is tried, up to `max_retries` attempts.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoCapacity`] when no candidate advertises enough;
    /// [`AllocError::RetriesExhausted`] when all tried donors refuse.
    pub fn request(
        &mut self,
        recipient: NodeId,
        kind: ResourceKind,
        amount: u64,
        now: Time,
        max_retries: u32,
        mut donor_accepts: impl FnMut(NodeId, u64) -> bool,
    ) -> Result<Grant, AllocError> {
        let mut refused: Vec<NodeId> = Vec::new();
        let mut attempts = 0;
        while attempts < max_retries {
            let pick = {
                let mut candidates = self
                    .rrt
                    .available(kind)
                    .filter(|r| {
                        r.amount >= amount && r.node != recipient && !refused.contains(&r.node)
                    })
                    .filter(|r| self.node_alive(r.node, now));
                self.policy
                    .select(&self.topology, recipient, &mut candidates)
            };
            let Some(donor) = pick else {
                return if attempts == 0 {
                    Err(AllocError::NoCapacity)
                } else {
                    Err(AllocError::RetriesExhausted { attempts })
                };
            };
            attempts += 1;
            if donor_accepts(donor, amount) {
                let addr = self.rrt.get(donor, kind).map_or(0, |r| r.addr);
                self.rrt.consume(donor, kind, amount);
                let id = self.rat.allocate(donor, recipient, kind, amount, addr, now);
                self.grants_committed += 1;
                return Ok(Grant {
                    id,
                    donor,
                    recipient,
                    amount,
                    addr,
                });
            }
            // Stale record: zero it out so the next heartbeat refreshes it,
            // and try the next candidate.
            self.handshake_refusals += 1;
            self.rrt.consume(donor, kind, amount);
            refused.push(donor);
        }
        Err(AllocError::RetriesExhausted { attempts })
    }

    /// Releases a grant (stop-sharing), restoring RRT capacity.
    pub fn release(&mut self, id: u64) -> Option<AllocationRecord> {
        let rec = self.rat.release(id)?;
        self.rrt.restore(rec.donor, rec.kind, rec.amount);
        Some(rec)
    }

    /// Committed grants so far.
    pub fn grants_committed(&self) -> u64 {
        self.grants_committed
    }

    /// Handshake refusals observed (staleness events).
    pub fn handshake_refusals(&self) -> u64 {
        self.handshake_refusals
    }

    /// In-force allocation count.
    pub fn active_allocations(&self) -> usize {
        self.rat.len()
    }

    /// Whether the MN believes the directed link is healthy.
    pub fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        self.tst.is_up(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NodeAgent;
    use crate::policy::DistancePolicy;
    use crate::tables::ResourceRecord;
    use venice_fabric::Mesh3d;

    fn mn() -> MonitorNode {
        MonitorNode::new(
            Topology::Mesh(Mesh3d::prototype()),
            Box::new(DistancePolicy),
        )
    }

    fn beat(mn: &mut MonitorNode, node: u16, idle: u64, at: Time) {
        let mut a = NodeAgent::new(NodeId(node));
        a.idle_memory = idle;
        a.lendable_base = 0xC000_0000;
        mn.on_heartbeat(a.heartbeat(at, |_| true));
    }

    #[test]
    fn grant_picks_nearest_donor() {
        let mut m = mn();
        beat(&mut m, 7, 1 << 30, Time::ZERO);
        beat(&mut m, 1, 1 << 30, Time::ZERO);
        let g = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                512 << 20,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap();
        assert_eq!(g.donor, NodeId(1));
        assert_eq!(g.addr, 0xC000_0000);
        assert_eq!(m.active_allocations(), 1);
    }

    #[test]
    fn no_capacity_reported() {
        let mut m = mn();
        beat(&mut m, 1, 100, Time::ZERO);
        let err = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 30,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap_err();
        assert_eq!(err, AllocError::NoCapacity);
    }

    #[test]
    fn recipient_never_donates_to_itself() {
        let mut m = mn();
        beat(&mut m, 0, 1 << 30, Time::ZERO);
        let err = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap_err();
        assert_eq!(err, AllocError::NoCapacity);
    }

    #[test]
    fn stale_record_triggers_retry_with_next_donor() {
        let mut m = mn();
        beat(&mut m, 1, 1 << 30, Time::ZERO); // nearest but actually full
        beat(&mut m, 2, 1 << 30, Time::ZERO);
        let g = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::ZERO,
                3,
                |donor, _| donor != NodeId(1),
            )
            .unwrap();
        assert_eq!(g.donor, NodeId(2));
        assert_eq!(m.handshake_refusals(), 1);
    }

    #[test]
    fn retries_exhausted_when_all_refuse() {
        let mut m = mn();
        beat(&mut m, 1, 1 << 30, Time::ZERO);
        beat(&mut m, 2, 1 << 30, Time::ZERO);
        let err = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::ZERO,
                5,
                |_, _| false,
            )
            .unwrap_err();
        assert_eq!(err, AllocError::RetriesExhausted { attempts: 2 });
    }

    #[test]
    fn dead_nodes_are_not_donors() {
        let mut m = mn();
        beat(&mut m, 1, 1 << 30, Time::ZERO);
        beat(&mut m, 7, 1 << 30, Time::from_secs(10));
        // At t=10s node 1's heartbeat (t=0) is long stale.
        let g = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::from_secs(10),
                3,
                |_, _| true,
            )
            .unwrap();
        assert_eq!(g.donor, NodeId(7));
    }

    #[test]
    fn release_restores_capacity() {
        let mut m = mn();
        beat(&mut m, 1, 1 << 30, Time::ZERO);
        let g = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 30,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap();
        // Fully consumed: a second request fails.
        assert!(m
            .request(
                NodeId(2),
                ResourceKind::Memory,
                1 << 30,
                Time::ZERO,
                3,
                |_, _| true
            )
            .is_err());
        m.release(g.id).unwrap();
        assert!(m
            .request(
                NodeId(2),
                ResourceKind::Memory,
                1 << 30,
                Time::ZERO,
                3,
                |_, _| true
            )
            .is_ok());
    }

    #[test]
    fn evict_node_tears_down_its_loans() {
        let mut m = mn();
        beat(&mut m, 1, 1 << 30, Time::ZERO);
        beat(&mut m, 2, 1 << 30, Time::ZERO);
        let g = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap();
        assert_eq!(g.donor, NodeId(1));
        let affected = m.evict_node(NodeId(1));
        assert_eq!(affected.len(), 1);
        assert_eq!(m.active_allocations(), 0);
        // Node 1 no longer a candidate.
        let g2 = m
            .request(
                NodeId(0),
                ResourceKind::Memory,
                1 << 20,
                Time::ZERO,
                3,
                |_, _| true,
            )
            .unwrap();
        assert_eq!(g2.donor, NodeId(2));
    }

    /// A heartbeat built as a fresh message, with its own `Vec`s, from
    /// the agent's current state: what every heartbeat was before agents
    /// refilled one buffer.
    fn fresh_heartbeat(a: &NodeAgent, at: Time, links_up: impl Fn(NodeId) -> bool) -> Heartbeat {
        let record = |kind, amount, addr| ResourceRecord {
            node: a.node(),
            kind,
            amount,
            addr,
            reported_at: at,
        };
        let mut resources = vec![record(ResourceKind::Memory, a.idle_memory, a.lendable_base)];
        if a.idle_accelerators > 0 {
            resources.push(record(ResourceKind::Accelerator, a.idle_accelerators, 0));
        }
        if a.idle_nics > 0 {
            resources.push(record(ResourceKind::Nic, a.idle_nics, 0));
        }
        Heartbeat {
            node: a.node(),
            at,
            resources,
            link_status: a.neighbors.iter().map(|&n| (n, links_up(n))).collect(),
        }
    }

    #[test]
    fn lent_heartbeat_rounds_fill_the_tables_like_fresh_messages() {
        let mesh = Mesh3d::new(4, 2, 2);
        let mut lent = MonitorNode::new(Topology::Mesh(mesh.clone()), Box::new(DistancePolicy));
        let mut fresh = MonitorNode::new(Topology::Mesh(mesh.clone()), Box::new(DistancePolicy));
        let mut agents: Vec<NodeAgent> = mesh
            .nodes()
            .map(|id| {
                let mut a = NodeAgent::new(id);
                a.idle_memory = 512 << 20;
                a.lendable_base = 0x2000_0000;
                a.idle_accelerators = u64::from(id.0 % 3 == 0) * 2;
                a.idle_nics = u64::from(id.0 % 4 == 1);
                a.neighbors = mesh.neighbors(id);
                a
            })
            .collect();
        let kinds = [
            ResourceKind::Memory,
            ResourceKind::Accelerator,
            ResourceKind::Nic,
        ];
        for round in 1..=17u64 {
            let now = Time::from_ms(100 * round);
            // The link from node 5 toward node 1 fails its test on odd
            // rounds, and agents' spare capacity moves between rounds.
            let links_up =
                |from: NodeId| move |to: NodeId| !(round % 2 == 1 && from.0 == 5 && to.0 == 1);
            for a in &mut agents {
                let want = fresh_heartbeat(a, now, links_up(a.node()));
                fresh.on_heartbeat(&want);
                let got = a.heartbeat(now, links_up(a.node()));
                assert_eq!(*got, want, "round {round}");
                lent.on_heartbeat(got);
            }
            for a in &mut agents {
                a.idle_memory -= 16 << 20;
                a.lendable_base += 16 << 20;
                a.idle_accelerators = (a.idle_accelerators + round) % 3;
                a.idle_nics = u64::from(a.idle_nics == 0 && round % 5 == 0);
            }
            for from in mesh.nodes() {
                for kind in kinds {
                    assert_eq!(lent.rrt.get(from, kind), fresh.rrt.get(from, kind));
                }
                for to in mesh.nodes() {
                    assert_eq!(lent.tst.entry(from, to), fresh.tst.entry(from, to));
                }
            }
            assert_eq!(lent.tst.down_count(), fresh.tst.down_count());
        }
        assert_eq!(fresh.tst.down_count(), 1, "round 17 failed the link");
        for a in &agents {
            assert_eq!(a.heartbeats_sent(), 17);
        }
    }

    #[test]
    fn heartbeats_update_link_table() {
        let mut m = mn();
        let mut a = NodeAgent::new(NodeId(0));
        a.neighbors = vec![NodeId(1), NodeId(2)];
        m.on_heartbeat(a.heartbeat(Time::ZERO, |n| n != NodeId(2)));
        assert!(m.link_up(NodeId(0), NodeId(1)));
        assert!(!m.link_up(NodeId(0), NodeId(2)));
    }
}
