//! Load-run reports: per-tenant tail latency and throughput.

use serde::{Deserialize, Serialize};
use venice_lease::LeaseEvent;
use venice_sim::{LogHistogram, Time};

/// Remote-tier provisioning summary of one run: how much was borrowed,
/// when, and at what peak — the numbers the static-vs-elastic figures
/// compare.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LeaseSummary {
    /// Successful borrows (setup borrows included).
    pub grows: u64,
    /// Borrows fired by the slope predictor before the high watermark
    /// tripped (subset of `grows`).
    pub predictive_grows: u64,
    /// Successful releases.
    pub shrinks: u64,
    /// Chunks pulled back early by their pressured donors.
    pub revokes: u64,
    /// Chunks lost to an injected node crash and unwound without a
    /// teardown handshake (dead donor or dead recipient); zero unless
    /// a fault plan was armed.
    pub failovers: u64,
    /// Revoke demands that found nothing reclaimable (every lent grant
    /// still mid-establish); the donor's cooldown was charged anyway.
    pub revoke_denials: u64,
    /// Borrows refused by the Monitor Node (donor capacity exhausted).
    pub denials: u64,
    /// Borrows refused locally because the driving tenant sat at its
    /// byte quota. With the sublease market armed, only the refusals no
    /// lessor could absorb land here — the converted ones count as
    /// `subleases`.
    pub quota_denials: u64,
    /// Quota refusals converted on the sublease market: the chunk was
    /// borrowed anyway, charged against another tenant's idle headroom.
    pub subleases: u64,
    /// Subleased chunks returned to their lessors (calm releases and
    /// donor revokes of market chunks alike).
    pub sublease_returns: u64,
    /// Highest cluster-wide borrowed bytes at any instant.
    pub peak_bytes: u64,
    /// Time-weighted mean of cluster-wide borrowed bytes.
    pub mean_bytes: u64,
    /// Final per-tenant lease ledger, in mix class order (bytes each
    /// tenant's backlog still held borrowed at the end of the run).
    pub tenant_bytes: Vec<u64>,
    /// Final per-tenant *charged* ledger, in mix class order: bytes
    /// counted against each tenant's quota (own chunks plus chunks
    /// subleased out). Differs from `tenant_bytes` only when the
    /// sublease market moved headroom between tenants.
    pub charged_bytes: Vec<u64>,
    /// Nodes that lent memory at any point of the run (donor set), in
    /// node order — what the donor-benefit figures compute donor-side
    /// latency over. Empty for static provisioning.
    pub donor_nodes: Vec<u16>,
    /// The full borrow/release timeline (empty for static provisioning,
    /// which never changes after setup).
    pub events: Vec<LeaseEvent>,
}

impl LeaseSummary {
    /// Summary of a static tier: `grows` setup borrows totalling
    /// `total_bytes` (as actually granted — the borrow flow rounds
    /// requests up to a power of two), held for the whole run.
    pub fn static_tier(grows: u64, total_bytes: u64) -> Self {
        LeaseSummary {
            grows,
            peak_bytes: total_bytes,
            mean_bytes: total_bytes,
            ..LeaseSummary::default()
        }
    }
}

/// Summary for one tenant class (or the whole run, for the `total` row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Requests admitted past the front door.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed (rate limit + overload + backpressure).
    pub shed: u64,
    /// Mean end-to-end latency in microseconds.
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Payload goodput in Gbps.
    pub goodput_gbps: f64,
}

impl TenantReport {
    /// Builds a report row from collected statistics.
    pub fn from_stats(
        tenant: impl Into<String>,
        hist: &LogHistogram,
        admitted: u64,
        shed: u64,
        bytes: u64,
        duration: Time,
    ) -> Self {
        let (p50, p95, p99, p999) = hist.tail().unwrap_or_default();
        let secs = duration.as_secs_f64();
        TenantReport {
            tenant: tenant.into(),
            admitted,
            completed: hist.count(),
            shed,
            mean_us: hist.mean().as_us_f64(),
            p50_us: p50.as_us_f64(),
            p95_us: p95.as_us_f64(),
            p99_us: p99.as_us_f64(),
            p999_us: p999.as_us_f64(),
            throughput_rps: if secs > 0.0 {
                hist.count() as f64 / secs
            } else {
                0.0
            },
            goodput_gbps: if secs > 0.0 {
                bytes as f64 * 8.0 / secs / 1e9
            } else {
                0.0
            },
        }
    }
}

/// The complete result of one loadgen run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Tenant-mix name.
    pub mix: String,
    /// Experiment seed.
    pub seed: u64,
    /// Cluster size (nodes).
    pub nodes: u16,
    /// Simulated time of the last completion.
    pub duration: Time,
    /// Requests generated.
    pub issued: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Shed by the rate policer.
    pub shed_rate: u64,
    /// Shed by the in-flight cap.
    pub shed_overload: u64,
    /// Shed because a node's credit backlog overflowed.
    pub shed_backpressure: u64,
    /// Lost to an injected node crash (the node's backlog and
    /// in-service work at its crash instant, plus arrivals during a
    /// total outage); zero unless a fault plan was armed.
    pub shed_crash: u64,
    /// Times a request had to wait in a node backlog for QPair credits.
    pub credit_waits: u64,
    /// Nodes that successfully borrowed a remote-memory lease at setup.
    pub remote_leases: u64,
    /// Nodes whose setup borrow was refused (donor contention) under
    /// static provisioning; elastic runs record refusals — setup and
    /// mid-run alike — in [`LeaseSummary::denials`] instead.
    pub borrow_failures: u64,
    /// Remote-tier provisioning over the run (static or elastic).
    pub lease: LeaseSummary,
    /// Whole-run summary row.
    pub total: TenantReport,
    /// Per-tenant rows, in mix order.
    pub tenants: Vec<TenantReport>,
}

impl LoadReport {
    /// All requests turned away or lost.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate + self.shed_overload + self.shed_backpressure + self.shed_crash
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== loadgen {} — {} nodes, seed {} ==\n",
            self.mix, self.nodes, self.seed
        ));
        out.push_str(&format!(
            "issued {} admitted {} completed {} shed {} (rate {} / overload {} / backpressure {} / crash {}) in {}\n",
            self.issued,
            self.admitted,
            self.completed,
            self.shed_total(),
            self.shed_rate,
            self.shed_overload,
            self.shed_backpressure,
            self.shed_crash,
            self.duration,
        ));
        out.push_str(&format!(
            "remote leases {}/{} nodes, {} credit waits\n",
            self.remote_leases, self.nodes, self.credit_waits,
        ));
        out.push_str(&format!(
            "lease tier: {} grows ({} predictive) / {} shrinks / {} revokes / {} denials \
             ({} quota, {} subleased), peak {} MB, mean {} MB\n",
            self.lease.grows,
            self.lease.predictive_grows,
            self.lease.shrinks,
            self.lease.revokes,
            self.lease.denials,
            self.lease.quota_denials,
            self.lease.subleases,
            self.lease.peak_bytes >> 20,
            self.lease.mean_bytes >> 20,
        ));
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}\n",
            "tenant",
            "completed",
            "mean_us",
            "p50_us",
            "p95_us",
            "p99_us",
            "p99.9_us",
            "rps",
            "gbps"
        ));
        for t in self.tenants.iter().chain(std::iter::once(&self.total)) {
            out.push_str(&format!(
                "{:<14} {:>10} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>11.0} {:>9.3}\n",
                t.tenant,
                t.completed,
                t.mean_us,
                t.p50_us,
                t.p95_us,
                t.p99_us,
                t.p999_us,
                t.throughput_rps,
                t.goodput_gbps,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_row_math() {
        let mut h = LogHistogram::new();
        for us in [100u64, 200, 300, 400] {
            h.record(Time::from_us(us));
        }
        let r = TenantReport::from_stats("t", &h, 5, 1, 4_000_000, Time::from_secs(2));
        assert_eq!(r.completed, 4);
        assert!((r.mean_us - 250.0).abs() < 1.0);
        assert!((r.throughput_rps - 2.0).abs() < 1e-9);
        // 4 MB over 2 s = 16 Mbps.
        assert!((r.goodput_gbps - 0.016).abs() < 1e-6);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
    }

    #[test]
    fn empty_duration_is_safe() {
        let h = LogHistogram::new();
        let r = TenantReport::from_stats("t", &h, 0, 0, 0, Time::ZERO);
        assert_eq!(r.throughput_rps, 0.0);
        assert_eq!(r.p999_us, 0.0);
    }
}
