//! The per-node daemon (paper §5.3).
//!
//! "A daemon process in each node collects availability information and
//! periodically reports to the MN, serving as a heartbeat for the MN to
//! infer node status. ... The daemon tests and reports the status of the
//! Venice fabric links on every heartbeat."

use venice_fabric::NodeId;
use venice_sim::Time;

use crate::tables::{ResourceKind, ResourceRecord};

/// One heartbeat report from an agent to the MN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Reporting node.
    pub node: NodeId,
    /// Report timestamp.
    pub at: Time,
    /// Spare resources (one record per kind).
    pub resources: Vec<ResourceRecord>,
    /// Link test results toward each direct neighbor.
    pub link_status: Vec<(NodeId, bool)>,
}

/// A node's resource-reporting daemon.
#[derive(Debug, Clone)]
pub struct NodeAgent {
    node: NodeId,
    /// Heartbeat period.
    pub period: Time,
    /// Spare memory the node is willing to lend (bytes).
    pub idle_memory: u64,
    /// Base address of the lendable region.
    pub lendable_base: u64,
    /// Idle accelerator units.
    pub idle_accelerators: u64,
    /// Idle NIC units.
    pub idle_nics: u64,
    /// Direct fabric neighbors to link-test.
    pub neighbors: Vec<NodeId>,
    heartbeats_sent: u64,
    /// The report [`heartbeat`](Self::heartbeat) refills and lends out,
    /// so a heartbeat after the first allocates nothing.
    report: Heartbeat,
}

impl NodeAgent {
    /// Creates an agent with a 100 ms heartbeat (rack-management scale).
    pub fn new(node: NodeId) -> Self {
        NodeAgent {
            node,
            period: Time::from_ms(100),
            idle_memory: 0,
            lendable_base: 0,
            idle_accelerators: 0,
            idle_nics: 0,
            neighbors: Vec::new(),
            heartbeats_sent: 0,
            report: Heartbeat {
                node,
                at: Time::ZERO,
                resources: Vec::new(),
                link_status: Vec::new(),
            },
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Heartbeats emitted so far.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent
    }

    /// Produces the heartbeat due at `now`. `links_up` answers whether the
    /// link to each neighbor currently passes the test (injected by the
    /// simulation so faults can be modeled). The report is the agent's
    /// own buffer, refilled in place; it reads as sent until the next
    /// heartbeat.
    pub fn heartbeat(&mut self, now: Time, links_up: impl Fn(NodeId) -> bool) -> &Heartbeat {
        self.heartbeats_sent += 1;
        let report = &mut self.report;
        report.at = now;
        report.resources.clear();
        let record = |kind, amount, addr| ResourceRecord {
            node: self.node,
            kind,
            amount,
            addr,
            reported_at: now,
        };
        report.resources.push(record(
            ResourceKind::Memory,
            self.idle_memory,
            self.lendable_base,
        ));
        if self.idle_accelerators > 0 {
            report
                .resources
                .push(record(ResourceKind::Accelerator, self.idle_accelerators, 0));
        }
        if self.idle_nics > 0 {
            report
                .resources
                .push(record(ResourceKind::Nic, self.idle_nics, 0));
        }
        report.link_status.clear();
        report
            .link_status
            .extend(self.neighbors.iter().map(|&n| (n, links_up(n))));
        report
    }

    /// Next heartbeat time after `now`.
    pub fn next_heartbeat(&self, now: Time) -> Time {
        now + self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_reports_all_nonzero_kinds() {
        let mut a = NodeAgent::new(NodeId(3));
        a.idle_memory = 512 << 20;
        a.idle_accelerators = 2;
        a.neighbors = vec![NodeId(1), NodeId(2)];
        let hb = a.heartbeat(Time::from_secs(1), |_| true);
        assert_eq!(hb.node, NodeId(3));
        assert_eq!(hb.resources.len(), 2);
        assert_eq!(hb.link_status, vec![(NodeId(1), true), (NodeId(2), true)]);
        assert_eq!(a.heartbeats_sent(), 1);
    }

    #[test]
    fn memory_reported_even_when_zero() {
        // Zero idle memory is still a (refreshing) report so stale
        // positive records get overwritten.
        let mut a = NodeAgent::new(NodeId(0));
        let hb = a.heartbeat(Time::ZERO, |_| true);
        assert_eq!(hb.resources.len(), 1);
        assert_eq!(hb.resources[0].amount, 0);
    }

    #[test]
    fn link_faults_show_in_report() {
        let mut a = NodeAgent::new(NodeId(0));
        a.neighbors = vec![NodeId(1), NodeId(2)];
        let hb = a.heartbeat(Time::ZERO, |n| n != NodeId(2));
        assert_eq!(hb.link_status, vec![(NodeId(1), true), (NodeId(2), false)]);
    }

    #[test]
    fn heartbeat_cadence() {
        let a = NodeAgent::new(NodeId(0));
        assert_eq!(a.next_heartbeat(Time::from_ms(250)), Time::from_ms(350));
    }
}
