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
    /// Per node id: `Some(at)` while its RRT and TST rows hold exactly
    /// its last heartbeat's report (see
    /// [`holds_last_report`](Self::holds_last_report)); every record and
    /// link of the node then reads as reported at `at`, the time of that
    /// report or of a later repeat. The stamp is written into the rows
    /// before anything else changes them.
    report_at: Vec<Option<Time>>,
    grants_committed: u64,
    handshake_refusals: u64,
    records_examined: u64,
    reports_registered: u64,
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
            report_at: vec![None; nodes],
            grants_committed: 0,
            handshake_refusals: 0,
            records_examined: 0,
            reports_registered: 0,
        }
    }

    /// Ingests one heartbeat: refreshes the RRT and TST.
    pub fn on_heartbeat(&mut self, hb: &Heartbeat) {
        self.reports_registered += 1;
        self.detach(hb.node);
        for r in &hb.resources {
            self.rrt.register(*r);
        }
        for &(to, up) in &hb.link_status {
            self.tst.report(hb.node, to, up, hb.at);
        }
        // The rows hold this report alone when they have no record or
        // link entry it did not write.
        if self.rrt.records_of(hb.node).count() == hb.resources.len()
            && self.tst.tested_from(hb.node) == hb.link_status.len()
        {
            let i = hb.node.0 as usize;
            if self.report_at.len() <= i {
                self.report_at.resize(i + 1, None);
            }
            self.report_at[i] = Some(hb.at);
        }
    }

    /// Whether `node`'s RRT and TST rows still hold exactly the last
    /// heartbeat ingested from it: no record or link entry that report
    /// did not write, and none changed since by a grant, a refused
    /// handshake, a release or an eviction. A heartbeat from the same
    /// agent that repeats that report can then be taken by
    /// [`on_repeat_heartbeat`](Self::on_repeat_heartbeat).
    pub fn holds_last_report(&self, node: NodeId) -> bool {
        self.report_at
            .get(node.0 as usize)
            .is_some_and(Option::is_some)
    }

    /// Ingests a heartbeat from `node` at `at` that repeats its last
    /// report verbatim, as [`holds_last_report`](Self::holds_last_report)
    /// allows: every record and link entry of the node reads as reported
    /// again at `at`, exactly as [`on_heartbeat`](Self::on_heartbeat)
    /// would leave them. It writes one stamp, whatever the node's
    /// degree.
    ///
    /// # Panics
    ///
    /// Panics when `node` does not hold its last report.
    pub fn on_repeat_heartbeat(&mut self, node: NodeId, at: Time) {
        let stamp = self
            .report_at
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut);
        let stamp = stamp.unwrap_or_else(|| panic!("{node} holds no report to repeat"));
        *stamp = at;
    }

    /// Before anything changes `node`'s rows: writes its report stamp
    /// into them, which then no longer hold its last report.
    fn detach(&mut self, node: NodeId) {
        if let Some(at) = self
            .report_at
            .get_mut(node.0 as usize)
            .and_then(Option::take)
        {
            self.rrt.refresh(node, at);
            self.tst.retest(node, at);
        }
    }

    /// The time `node`'s entry reports as, given the time `at` it holds.
    fn reported_at(&self, node: NodeId, at: Time) -> Time {
        self.report_at
            .get(node.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(at)
    }

    /// Whether `node` has reported within the liveness window ending at
    /// `now`.
    pub fn node_alive(&self, node: NodeId, now: Time) -> bool {
        let window = self.heartbeat_period * self.liveness_multiplier as u64;
        self.rrt
            .records_of(node)
            .any(|r| now.saturating_sub(self.reported_at(node, r.reported_at)) <= window)
    }

    /// Declares `node` dead: removes its RRT records and returns the
    /// allocations that must be torn down (fault handling).
    pub fn evict_node(&mut self, node: NodeId) -> Vec<AllocationRecord> {
        self.detach(node);
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
                self.detach(rec.donor);
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
    /// the next candidate is tried, up to `max_retries` attempts. Each
    /// attempt's policy looks up only the nodes it ranks (see
    /// [`records_examined`](Self::records_examined)).
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
            let mut examined = 0;
            let pick = {
                let mut free = |node: NodeId| {
                    examined += 1;
                    self.rrt
                        .get(node, kind)
                        .filter(|r| r.amount > 0 && r.amount >= amount)
                        .filter(|_| node != recipient && !refused.contains(&node))
                        .filter(|_| self.node_alive(node, now))
                        .map(|r| r.amount)
                };
                self.policy.select(&self.topology, recipient, &mut free)
            };
            self.records_examined += examined;
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
                self.detach(donor);
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
            self.detach(donor);
            self.rrt.consume(donor, kind, amount);
            refused.push(donor);
        }
        Err(AllocError::RetriesExhausted { attempts })
    }

    /// Releases a grant (stop-sharing), restoring RRT capacity.
    pub fn release(&mut self, id: u64) -> Option<AllocationRecord> {
        let rec = self.rat.release(id)?;
        self.detach(rec.donor);
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

    /// RRT records donor selection has looked up so far: one per node a
    /// policy asked about, summed over every attempt of every request.
    pub fn records_examined(&self) -> u64 {
        self.records_examined
    }

    /// Heartbeat reports registered so far through
    /// [`on_heartbeat`](Self::on_heartbeat). Repeats taken by
    /// [`on_repeat_heartbeat`](Self::on_repeat_heartbeat) register
    /// nothing and are not counted.
    pub fn reports_registered(&self) -> u64 {
        self.reports_registered
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
            link_status: a.neighbors().iter().map(|&n| (n, links_up(n))).collect(),
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
                a.set_neighbors(mesh.neighbors(id));
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

    /// The RRT record of `node` × `kind` as `m` reads it, report stamp
    /// applied.
    fn record(m: &MonitorNode, node: NodeId, kind: ResourceKind) -> Option<ResourceRecord> {
        let r = m.rrt.get(node, kind)?;
        let reported_at = m.reported_at(node, r.reported_at);
        Some(ResourceRecord { reported_at, ..*r })
    }

    /// The TST entry of a link as `m` reads it, report stamp applied.
    fn link(m: &MonitorNode, from: NodeId, to: NodeId) -> Option<(bool, Time)> {
        let (up, at) = m.tst.entry(from, to)?;
        Some((up, m.reported_at(from, at)))
    }

    /// A round the way the cluster sends it: each node's agent repeats
    /// its last report whenever both sides allow it.
    fn delta_round(m: &mut MonitorNode, agents: &mut [NodeAgent], now: Time) {
        for a in agents {
            let report = if m.holds_last_report(a.node()) {
                a.heartbeat_delta(now)
            } else {
                Some(a.heartbeat(now, |_| true))
            };
            match report {
                Some(hb) => m.on_heartbeat(hb),
                None => m.on_repeat_heartbeat(a.node(), now),
            }
        }
    }

    #[test]
    fn delta_rounds_leave_the_tables_as_full_rounds_do() {
        let mesh = Mesh3d::new(4, 2, 2);
        let mn = || MonitorNode::new(Topology::Mesh(mesh.clone()), Box::new(DistancePolicy));
        let (mut delta, mut full) = (mn(), mn());
        let mut agents: Vec<NodeAgent> = mesh
            .nodes()
            .map(|id| {
                let mut a = NodeAgent::new(id);
                a.idle_memory = 256 << 20;
                a.lendable_base = 0x1000_0000;
                a.idle_nics = u64::from(id.0 == 9);
                a.set_neighbors(mesh.neighbors(id));
                a
            })
            .collect();
        let mut twins = agents.clone();
        let mut grants = Vec::new();
        let kinds = [
            ResourceKind::Memory,
            ResourceKind::Accelerator,
            ResourceKind::Nic,
        ];
        for round in 1..=40u64 {
            let now = Time::from_ms(100 * round);
            // Both sides' agents change alike: a node's spare memory
            // moves, node 3's accelerators come and go, node 2's
            // neighbors are reset.
            for agents in [&mut agents, &mut twins] {
                agents[(round % 16) as usize].idle_memory -= 1 << 20;
                agents[3].idle_accelerators = u64::from(round % 7 < 3);
                if round == 20 {
                    agents[2].set_neighbors(mesh.neighbors(NodeId(2)));
                }
            }
            delta_round(&mut delta, &mut agents, now);
            for a in &mut twins {
                full.on_heartbeat(a.heartbeat(now, |_| true));
            }
            assert!(delta.reports_registered() < full.reports_registered() || round == 1);
            // Out-of-round events hit both sides alike: a beat with a
            // failed link, an eviction, grants with a refused donor, and
            // releases.
            if round % 11 == 0 {
                let links_up = |to: NodeId| to != NodeId(1);
                delta.on_heartbeat(agents[5].heartbeat(now, links_up));
                full.on_heartbeat(twins[5].heartbeat(now, links_up));
            }
            if round == 13 {
                assert_eq!(delta.evict_node(NodeId(6)), full.evict_node(NodeId(6)));
            }
            if round % 3 == 0 {
                // Even-numbered donors refuse the handshake.
                let recipient = NodeId((round % 16) as u16);
                let grant = |m: &mut MonitorNode| {
                    m.request(recipient, ResourceKind::Memory, 8 << 20, now, 4, |d, _| {
                        d.0 % 2 == 1
                    })
                };
                let g = grant(&mut delta);
                assert_eq!(g, grant(&mut full));
                grants.extend(g);
            }
            if round % 5 == 0 && !grants.is_empty() {
                let id = grants.remove(0).id;
                assert_eq!(delta.release(id), full.release(id));
            }
            for from in mesh.nodes() {
                for kind in kinds {
                    assert_eq!(record(&delta, from, kind), record(&full, from, kind));
                    assert_eq!(record(&full, from, kind).as_ref(), full.rrt.get(from, kind));
                }
                for to in mesh.nodes() {
                    assert_eq!(link(&delta, from, to), link(&full, from, to));
                    assert_eq!(link(&full, from, to), full.tst.entry(from, to));
                }
                for later in [now, now + Time::from_ms(250), now + Time::from_ms(301)] {
                    assert_eq!(delta.node_alive(from, later), full.node_alive(from, later));
                }
            }
            assert_eq!(delta.tst.down_count(), full.tst.down_count());
            assert_eq!(delta.handshake_refusals(), full.handshake_refusals());
        }
        for (a, b) in agents.iter().zip(&twins) {
            assert_eq!(a.heartbeats_sent(), b.heartbeats_sent());
        }
        assert!(full.handshake_refusals() > 0);
        // Full rounds register 16 reports each, plus the three
        // out-of-round beats; delta rounds about one per changed node.
        assert_eq!(full.reports_registered(), 40 * 16 + 3);
        assert!(
            delta.reports_registered() < 8 * 40,
            "{}",
            delta.reports_registered()
        );
    }

    #[test]
    fn heartbeats_update_link_table() {
        let mut m = mn();
        let mut a = NodeAgent::new(NodeId(0));
        a.set_neighbors(vec![NodeId(1), NodeId(2)]);
        m.on_heartbeat(a.heartbeat(Time::ZERO, |n| n != NodeId(2)));
        assert!(m.link_up(NodeId(0), NodeId(1)));
        assert!(!m.link_up(NodeId(0), NodeId(2)));
    }
}
