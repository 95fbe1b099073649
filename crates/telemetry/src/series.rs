//! Ring-buffered time series of per-node gauges and per-tenant counters.
//!
//! A [`SeriesRecorder`] holds the sampled trajectory of a run: one
//! [`SampleRow`] per crossed tick boundary, capped at a fixed ring
//! capacity so a long run records its *tail* at full resolution instead
//! of growing without bound. Every field is an integer — the artifact
//! the rows export into is diffed byte-for-byte across thread counts,
//! so nothing here may round differently between machines.

use std::collections::VecDeque;

use venice_sim::Time;

/// Instantaneous per-node gauges at a sample tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeGauges {
    /// Requests waiting in the node's admission backlog.
    pub depth: u32,
    /// Requests currently occupying a server slot.
    pub inflight: u32,
    /// Remote bytes this node is borrowing from donors.
    pub borrowed: u64,
    /// Local bytes this node has lent out to recipients.
    pub lent: u64,
    /// Borrowed bytes charged to another tenant's quota headroom via
    /// the sublease market.
    pub subleased: u64,
}

/// Instantaneous per-directed-link utilization at a sample tick, from
/// the engine's congested-fabric model. Empty (and absent from the
/// exported artifact) on runs priced by the scalar CRMA model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkGauge {
    /// Node the directed link leaves.
    pub src: u16,
    /// Node the directed link enters.
    pub dst: u16,
    /// Bytes charged to the link's current utilization window.
    pub bytes: u64,
}

/// Cumulative per-tenant counters at a sample tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests admitted into service so far.
    pub admitted: u64,
    /// Requests shed at admission so far.
    pub shed: u64,
    /// Lease grows refused (cluster capacity or quota) so far.
    pub denied: u64,
    /// Bytes currently charged against the tenant's quota ledger.
    pub quota_bytes: u64,
}

/// One sampled cross-section of the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleRow {
    /// Gauges for every node, indexed by node id.
    pub nodes: Vec<NodeGauges>,
    /// Counters for every tenant, indexed by tenant id.
    pub tenants: Vec<TenantCounters>,
    /// Per-directed-link window utilization when the run models fabric
    /// congestion; empty under the scalar CRMA model, which keeps the
    /// exported artifact byte-identical to pre-congestion runs.
    pub links: Vec<LinkGauge>,
    /// Live entries in the kernel queue's slab (ring and far list) at
    /// the sample.
    pub slab_live: u32,
    /// Events pending in the kernel queue at the sample.
    pub pending_events: u32,
}

/// A bounded, tick-aligned record of [`SampleRow`]s.
///
/// Rows arrive already tick-stamped (the probe decides *when* to
/// sample; the recorder only stores). When the ring is full the oldest
/// row is dropped and counted, so an exported artifact always states
/// how much head it lost.
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    tick: Time,
    cap: usize,
    rows: VecDeque<(Time, SampleRow)>,
    dropped: u64,
}

impl SeriesRecorder {
    /// Creates a recorder sampling every `tick` of simulated time,
    /// keeping at most `cap` rows.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `cap` is zero — a recorder that can
    /// hold nothing or fires continuously is a configuration bug.
    pub fn new(tick: Time, cap: usize) -> Self {
        assert!(tick > Time::ZERO, "sample tick must be positive");
        assert!(cap > 0, "ring capacity must be positive");
        SeriesRecorder {
            tick,
            cap,
            rows: VecDeque::with_capacity(cap),
            dropped: 0,
        }
    }

    /// The configured sample tick.
    pub fn tick(&self) -> Time {
        self.tick
    }

    /// The ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Appends a row stamped at tick boundary `at`, evicting the
    /// oldest row when full.
    pub fn push(&mut self, at: Time, row: SampleRow) {
        if self.rows.len() == self.cap {
            self.rows.pop_front();
            self.dropped += 1;
        }
        self.rows.push_back((at, row));
    }

    /// The retained rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &(Time, SampleRow)> {
        self.rows.iter()
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows evicted from the head of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = SeriesRecorder::new(Time::from_us(10), 3);
        for i in 0..5u64 {
            r.push(Time::from_us(10 * (i + 1)), SampleRow::default());
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.rows().next().unwrap().0;
        assert_eq!(first, Time::from_us(30), "head rows evicted first");
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_is_rejected() {
        SeriesRecorder::new(Time::ZERO, 8);
    }
}
