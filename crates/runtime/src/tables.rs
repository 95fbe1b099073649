//! The Monitor Node's three tables (paper §5.3).
//!
//! 1. The **Resource Registration Table** (RRT) "tracks available
//!    resources in the rack", with metadata (address, size, capabilities)
//!    refreshed by each node's heartbeat.
//! 2. The **Resource Allocation Table** (RAT) "tracks all allocation
//!    records"; RRT + RAT give the MN its global view.
//! 3. The **Topology Status Table** (TST) "tracks fabric link status",
//!    fed by the agents' per-heartbeat link tests.
//!
//! The RRT and TST are indexed by node id: node ids are dense, so a
//! record is one slice index away and node-ordered reads need no sort.

use venice_fabric::NodeId;
use venice_sim::Time;

/// What kind of resource a record describes; `kind as usize` is its
/// slot in a node's RRT row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Lendable memory (bytes).
    Memory,
    /// A hardware accelerator (units).
    Accelerator,
    /// A network interface (units).
    Nic,
}

/// One RRT entry: a node's spare capacity of one resource kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owning node.
    pub node: NodeId,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Free amount (bytes for memory, units otherwise).
    pub amount: u64,
    /// Base physical address of the lendable region (memory only).
    pub addr: u64,
    /// When the owning agent last refreshed this record.
    pub reported_at: Time,
}

/// Number of [`ResourceKind`]s: the width of one node's RRT row. `Nic`
/// is the last variant.
const KINDS: usize = ResourceKind::Nic as usize + 1;

/// The Resource Registration Table.
#[derive(Debug, Default)]
pub struct Rrt {
    /// One row per node id, one slot per [`ResourceKind`].
    records: Vec<[Option<ResourceRecord>; KINDS]>,
}

impl Rrt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with a row for each of nodes `0..nodes`.
    pub fn with_nodes(nodes: usize) -> Self {
        Rrt {
            records: vec![[None; KINDS]; nodes],
        }
    }

    /// Inserts or refreshes a record (one per node × kind).
    pub fn register(&mut self, record: ResourceRecord) {
        let node = record.node.0 as usize;
        if self.records.len() <= node {
            self.records.resize(node + 1, [None; KINDS]);
        }
        self.records[node][record.kind as usize] = Some(record);
    }

    /// Removes a node's records entirely (heartbeat loss), returning how
    /// many there were.
    pub fn deregister_node(&mut self, node: NodeId) -> usize {
        self.records.get_mut(node.0 as usize).map_or(0, |row| {
            let removed = row.iter().flatten().count();
            *row = [None; KINDS];
            removed
        })
    }

    /// Record for `node` × `kind`.
    pub fn get(&self, node: NodeId, kind: ResourceKind) -> Option<&ResourceRecord> {
        self.records.get(node.0 as usize)?[kind as usize].as_ref()
    }

    /// Every record `node` has registered, one per kind at most.
    pub(crate) fn records_of(&self, node: NodeId) -> impl Iterator<Item = &ResourceRecord> {
        self.records
            .get(node.0 as usize)
            .into_iter()
            .flatten()
            .flatten()
    }

    /// All records of `kind` with nonzero free amount, in node order.
    pub fn available(&self, kind: ResourceKind) -> impl Iterator<Item = &ResourceRecord> {
        self.records
            .iter()
            .filter_map(move |row| row[kind as usize].as_ref())
            .filter(|r| r.amount > 0)
    }

    fn get_mut(&mut self, node: NodeId, kind: ResourceKind) -> Option<&mut ResourceRecord> {
        self.records.get_mut(node.0 as usize)?[kind as usize].as_mut()
    }

    /// Decrements a record's free amount after a grant commits.
    ///
    /// Amounts saturate at zero: the MN's view may already be stale, which
    /// is exactly why grants are confirmed with the donor.
    pub fn consume(&mut self, node: NodeId, kind: ResourceKind, amount: u64) {
        if let Some(r) = self.get_mut(node, kind) {
            r.amount = r.amount.saturating_sub(amount);
        }
    }

    /// Returns capacity to a record after a release.
    pub fn restore(&mut self, node: NodeId, kind: ResourceKind, amount: u64) {
        if let Some(r) = self.get_mut(node, kind) {
            r.amount += amount;
        }
    }
}

/// One RAT entry: an in-force loan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationRecord {
    /// Allocation id.
    pub id: u64,
    /// Lending node.
    pub donor: NodeId,
    /// Borrowing node.
    pub recipient: NodeId,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Amount lent.
    pub amount: u64,
    /// Donor-side base address (memory only).
    pub addr: u64,
    /// When the loan was established.
    pub established_at: Time,
}

/// The Resource Allocation Table.
#[derive(Debug, Default)]
pub struct Rat {
    records: Vec<AllocationRecord>,
    next_id: u64,
}

impl Rat {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed loan, returning its id.
    pub fn allocate(
        &mut self,
        donor: NodeId,
        recipient: NodeId,
        kind: ResourceKind,
        amount: u64,
        addr: u64,
        now: Time,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(AllocationRecord {
            id,
            donor,
            recipient,
            kind,
            amount,
            addr,
            established_at: now,
        });
        id
    }

    /// Releases a loan, returning its record.
    pub fn release(&mut self, id: u64) -> Option<AllocationRecord> {
        let pos = self.records.iter().position(|r| r.id == id)?;
        Some(self.records.remove(pos))
    }

    /// All loans where `node` is the donor.
    pub fn donated_by(&self, node: NodeId) -> Vec<AllocationRecord> {
        self.records
            .iter()
            .filter(|r| r.donor == node)
            .copied()
            .collect()
    }

    /// All loans where `node` is the recipient.
    pub fn borrowed_by(&self, node: NodeId) -> Vec<AllocationRecord> {
        self.records
            .iter()
            .filter(|r| r.recipient == node)
            .copied()
            .collect()
    }

    /// Number of in-force loans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no loans are in force.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The Topology Status Table: directed link health. A link no test has
/// reported reads down.
#[derive(Debug, Default)]
pub struct Tst {
    /// Per source node id, the `(to, up, tested at)` entries of the
    /// links it has tested, in first-report order.
    links: Vec<Vec<(NodeId, bool, Time)>>,
}

impl Tst {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with a row for each of nodes `0..nodes`.
    pub fn with_nodes(nodes: usize) -> Self {
        Tst {
            links: vec![Vec::new(); nodes],
        }
    }

    /// Records a link test result from `from` toward `to`.
    pub fn report(&mut self, from: NodeId, to: NodeId, up: bool, at: Time) {
        let from = from.0 as usize;
        if self.links.len() <= from {
            self.links.resize(from + 1, Vec::new());
        }
        let row = &mut self.links[from];
        match row.iter_mut().find(|(n, _, _)| *n == to) {
            Some(entry) => *entry = (to, up, at),
            None => row.push((to, up, at)),
        }
    }

    /// The `(up, tested at)` entry of the link, if it was ever tested.
    pub(crate) fn entry(&self, from: NodeId, to: NodeId) -> Option<(bool, Time)> {
        self.links
            .get(from.0 as usize)?
            .iter()
            .find(|(n, _, _)| *n == to)
            .map(|&(_, up, at)| (up, at))
    }

    /// Whether the link is known up.
    pub fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.entry(from, to).is_some_and(|(up, _)| up)
    }

    /// Last test time, if any.
    pub fn last_tested(&self, from: NodeId, to: NodeId) -> Option<Time> {
        self.entry(from, to).map(|(_, at)| at)
    }

    /// Number of links last reported down.
    pub fn down_count(&self) -> usize {
        self.links.iter().flatten().filter(|(_, up, _)| !up).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u16, amount: u64) -> ResourceRecord {
        ResourceRecord {
            node: NodeId(node),
            kind: ResourceKind::Memory,
            amount,
            addr: 0xC000_0000,
            reported_at: Time::ZERO,
        }
    }

    #[test]
    fn rrt_register_refreshes_in_place() {
        let mut rrt = Rrt::new();
        rrt.register(rec(1, 100));
        rrt.register(rec(1, 50));
        assert_eq!(rrt.get(NodeId(1), ResourceKind::Memory).unwrap().amount, 50);
        assert_eq!(rrt.available(ResourceKind::Memory).count(), 1);
    }

    #[test]
    fn rrt_available_filters_empty_and_sorts() {
        let mut rrt = Rrt::new();
        rrt.register(rec(3, 10));
        rrt.register(rec(1, 0));
        rrt.register(rec(2, 5));
        let avail = rrt.available(ResourceKind::Memory);
        let nodes: Vec<u16> = avail.map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![2, 3]);
    }

    #[test]
    fn rrt_consume_saturates() {
        let mut rrt = Rrt::new();
        rrt.register(rec(1, 100));
        rrt.consume(NodeId(1), ResourceKind::Memory, 150);
        assert_eq!(rrt.get(NodeId(1), ResourceKind::Memory).unwrap().amount, 0);
        rrt.restore(NodeId(1), ResourceKind::Memory, 70);
        assert_eq!(rrt.get(NodeId(1), ResourceKind::Memory).unwrap().amount, 70);
    }

    #[test]
    fn rrt_deregister_drops_all_kinds() {
        let mut rrt = Rrt::new();
        rrt.register(rec(1, 100));
        rrt.register(ResourceRecord {
            kind: ResourceKind::Nic,
            ..rec(1, 2)
        });
        assert_eq!(rrt.deregister_node(NodeId(1)), 2);
        assert_eq!(rrt.available(ResourceKind::Memory).next(), None);
    }

    #[test]
    fn rrt_holds_one_record_of_every_kind() {
        let kinds = [
            ResourceKind::Memory,
            ResourceKind::Accelerator,
            ResourceKind::Nic,
        ];
        let mut rrt = Rrt::new();
        for (amount, kind) in (1..).zip(kinds) {
            rrt.register(ResourceRecord {
                kind,
                ..rec(2, amount)
            });
        }
        for (amount, kind) in (1..).zip(kinds) {
            assert_eq!(rrt.get(NodeId(2), kind).unwrap().amount, amount);
        }
        assert_eq!(rrt.records_of(NodeId(2)).count(), kinds.len());
        assert_eq!(rrt.deregister_node(NodeId(2)), kinds.len());
    }

    #[test]
    fn rrt_available_comes_out_in_node_order() {
        let mut rrt = Rrt::new();
        for node in [9u16, 0, 4, 12, 3, 7] {
            rrt.register(rec(node, u64::from(node) + 1));
        }
        rrt.register(ResourceRecord {
            kind: ResourceKind::Accelerator,
            ..rec(5, 2)
        });
        let nodes: Vec<u16> = rrt
            .available(ResourceKind::Memory)
            .map(|r| r.node.0)
            .collect();
        assert_eq!(nodes, [0, 3, 4, 7, 9, 12]);
        let accel: Vec<_> = rrt.available(ResourceKind::Accelerator).collect();
        assert_eq!(accel.len(), 1);
        assert_eq!((accel[0].node, accel[0].amount), (NodeId(5), 2));
        assert_eq!(rrt.available(ResourceKind::Nic).next(), None);
    }

    #[test]
    fn rrt_deregister_counts_only_that_nodes_records() {
        let mut rrt = Rrt::new();
        rrt.register(rec(2, 10));
        rrt.register(rec(6, 10));
        rrt.register(ResourceRecord {
            kind: ResourceKind::Accelerator,
            ..rec(6, 1)
        });
        assert_eq!(rrt.records_of(NodeId(6)).count(), 2);
        assert_eq!(rrt.deregister_node(NodeId(6)), 2);
        assert_eq!(rrt.records_of(NodeId(6)).count(), 0);
        assert!(rrt.get(NodeId(6), ResourceKind::Accelerator).is_none());
        // Again, or for a node never registered (inside or past the
        // table), nothing is removed.
        assert_eq!(rrt.deregister_node(NodeId(6)), 0);
        assert_eq!(rrt.deregister_node(NodeId(4)), 0);
        assert_eq!(rrt.deregister_node(NodeId(60)), 0);
        assert!(rrt.available(ResourceKind::Memory).eq([&rec(2, 10)]));
        // Consuming or restoring an absent record is a no-op.
        rrt.consume(NodeId(6), ResourceKind::Memory, 5);
        rrt.restore(NodeId(60), ResourceKind::Memory, 5);
        assert!(rrt.get(NodeId(60), ResourceKind::Memory).is_none());
    }

    #[test]
    fn tst_reads_unreported_links_down_and_counts_down_links() {
        let mut tst = Tst::new();
        assert_eq!(tst.down_count(), 0);
        tst.report(NodeId(3), NodeId(1), true, Time::from_secs(1));
        tst.report(NodeId(3), NodeId(2), false, Time::from_secs(1));
        tst.report(NodeId(0), NodeId(3), false, Time::from_secs(1));
        assert_eq!(tst.down_count(), 2);
        // Never reported: the reverse direction, a node past the table,
        // and a link of a node with other reports.
        assert!(!tst.is_up(NodeId(1), NodeId(3)));
        assert!(!tst.is_up(NodeId(40), NodeId(3)));
        assert!(!tst.is_up(NodeId(3), NodeId(7)));
        assert_eq!(tst.last_tested(NodeId(3), NodeId(7)), None);
        assert_eq!(tst.down_count(), 2, "reads add no entries");
        // A re-report replaces the entry in place.
        tst.report(NodeId(3), NodeId(2), true, Time::from_secs(2));
        assert!(tst.is_up(NodeId(3), NodeId(2)));
        assert_eq!(
            tst.last_tested(NodeId(3), NodeId(2)),
            Some(Time::from_secs(2))
        );
        assert_eq!(tst.down_count(), 1);
    }

    #[test]
    fn rat_lifecycle() {
        let mut rat = Rat::new();
        let id = rat.allocate(
            NodeId(1),
            NodeId(2),
            ResourceKind::Memory,
            1 << 30,
            0xC000_0000,
            Time::ZERO,
        );
        assert_eq!(rat.len(), 1);
        assert_eq!(rat.donated_by(NodeId(1)).len(), 1);
        assert_eq!(rat.borrowed_by(NodeId(2)).len(), 1);
        assert_eq!(rat.borrowed_by(NodeId(1)).len(), 0);
        let rec = rat.release(id).unwrap();
        assert_eq!(rec.amount, 1 << 30);
        assert!(rat.is_empty());
        assert!(rat.release(id).is_none());
    }

    #[test]
    fn tst_tracks_link_state() {
        let mut tst = Tst::new();
        assert!(!tst.is_up(NodeId(0), NodeId(1)));
        tst.report(NodeId(0), NodeId(1), true, Time::from_secs(1));
        assert!(tst.is_up(NodeId(0), NodeId(1)));
        assert_eq!(
            tst.last_tested(NodeId(0), NodeId(1)),
            Some(Time::from_secs(1))
        );
        tst.report(NodeId(0), NodeId(1), false, Time::from_secs(2));
        assert!(!tst.is_up(NodeId(0), NodeId(1)));
        assert_eq!(tst.down_count(), 1);
    }
}
