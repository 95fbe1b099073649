//! The lease-economy v3 figure families: donor-benefit modeling and the
//! cross-tenant quota market.
//!
//! Two questions the v2 controller could not answer, two figures:
//!
//! * **`loadgen-donor-benefit-8n`** — *is a revoke worth it, and when?*
//!   Earlier controllers treated lending as free for the donor: a
//!   revoke fired only when the donor's own queue depth crossed a
//!   watermark, however much of its pool was out. With the lent-memory
//!   pressure term armed ([`venice_lease::LeaseConfig::donor_pressure_slowdown`])
//!   a donor's service time degrades continuously as its lendable pool
//!   is consumed — so the figure compares the *watermark-only* revoke
//!   trigger against the *pressure-aware* one
//!   ([`venice_lease::LeaseConfig::donor_pressure_weight`]), which adds
//!   lent-pressure depth-equivalents and reclaims before the raw
//!   watermark trips. Same seed, same donor-pressure storm; the delta
//!   in donor-side p99 is pure revoke policy.
//! * **`loadgen-quota-market-8n`** — *what does trading headroom buy
//!   over hard quota walls?* The kv tenant carries a deliberately tight
//!   byte quota under a flash crowd that wants far more; the oltp
//!   tenant holds a large, mostly idle quota. Hard quotas refuse every
//!   over-quota grow outright; the sublease market
//!   ([`venice_lease::LeaseConfig::sublease_market`]) matches refusals
//!   against the idle headroom, charging the lessor's quota and
//!   conserving every byte on both the manager's ledger and the
//!   cluster's sublease chains. The figure pins the conversion rate and
//!   what the capped tenant's tail gains.
//!
//! Both families share the elastic/v2 seed so every row is comparable
//! with the previously published elastic figures.

use venice::{Figure, Series};
use venice_lease::{LeaseConfig, LeaseEventKind, NO_TENANT};

use crate::elastic;
use crate::elastic_v2;
use crate::engine::LoadgenConfig;
use crate::report::LoadReport;
use crate::scenarios::{node_quantile_us, Family, Row, RowRun, GATE_REQUESTS};
use crate::tenants::TenantMix;

/// The shared seed of the economy figures (the elastic/v2 flash-crowd
/// seed, for row-to-row comparability).
pub const ECONOMY_SEED: u64 = elastic_v2::V2_SEED;

/// Maximum fractional service-time slowdown a fully lent donor pays in
/// the donor-benefit runs: 150 % — lending the whole 512 MB pool cuts
/// the donor's service rate to 40 %, which is what makes the revoke
/// decision a real tradeoff instead of a free lunch.
pub const DONOR_SLOWDOWN: f64 = 1.5;

/// Donor watermark of both donor-benefit rows. Deliberately *above*
/// v2's 14: raw queue depth alone should rarely justify a reclaim in
/// this storm, so the two rows separate cleanly — watermark-only donors
/// keep paying the lending tax, pressure-aware donors shed it.
pub const DONOR_WATERMARK: u32 = 20;

/// Depth-equivalents of revoke pressure at full pool consumption for
/// the pressure-aware row: 24 against the donor watermark of 20 — a
/// fully lent donor reclaims on *any* demand signal, a half-lent one
/// once its depth reaches 8. Chosen from a measured sweep: this is the
/// strongest setting that still improves the cluster-wide tail
/// alongside the donors' own (heavier weights with shorter revoke
/// cooldowns push donor p99 lower still, but starve the crowd nodes
/// mid-burst and blow up cluster p99 and shed).
pub const DONOR_PRESSURE_WEIGHT: f64 = 24.0;

/// The v3 donor-benefit storm: a two-user flash crowd (home nodes 0–1)
/// over a zero-floor lease policy, so the roles separate structurally —
/// the two crowd nodes borrow up to 8 chunks each while the other six
/// serve their own base traffic and *lend*. Cold donors never hold
/// borrowed chunks of their own, so a revoke can only reclaim from the
/// crowd nodes, and the donors' latency isolates the lending tax.
pub fn donor_benefit_arrival() -> crate::ArrivalProcess {
    crate::ArrivalProcess::Bursty {
        base_rps: 8_000.0,
        burst_rps: 40_000.0,
        period: venice_sim::Time::from_ms(500),
        burst_len: venice_sim::Time::from_ms(200),
        crowd_users: 2,
        crowd_share: 0.6,
    }
}

/// The watermark-only donor policy *with the pressure term modeled*:
/// zero-floor elastic leasing, donors degraded by lending, revokes
/// fired purely on the donor's raw queue depth.
pub fn watermark_only_policy() -> LeaseConfig {
    LeaseConfig {
        min_chunks: 0,
        max_chunks: 8,
        donor_high_watermark: DONOR_WATERMARK,
        revoke_cooldown_ticks: 40,
        donor_pressure_slowdown: DONOR_SLOWDOWN,
        ..elastic_v2::predictive_policy()
    }
}

/// The pressure-aware donor policy: identical modeling, but the revoke
/// trigger reads the lent-pressure signal.
pub fn pressure_aware_policy() -> LeaseConfig {
    LeaseConfig {
        donor_pressure_weight: DONOR_PRESSURE_WEIGHT,
        ..watermark_only_policy()
    }
}

/// The watermark-only donor-benefit run.
pub fn watermark_only_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        arrival: donor_benefit_arrival(),
        lease: Some(watermark_only_policy()),
        ..elastic::elastic_config(seed)
    }
}

/// The pressure-aware run: identical traffic and modeling, cost-aware
/// revoke trigger.
pub fn pressure_aware_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        lease: Some(pressure_aware_policy()),
        ..watermark_only_config(seed)
    }
}

/// The quota-market tenant mix: web-frontend with the kv tenant capped
/// at 384 MB (six 64 MB chunks — far below what the flash crowd wants)
/// and the oltp tenant holding a 2 GB quota it barely uses. The idle
/// oltp headroom is exactly what the market lets the kv tenant sublease.
pub fn market_mix() -> TenantMix {
    let mut mix = TenantMix::web_frontend();
    for class in &mut mix.classes {
        match class.name.as_str() {
            "kv-cache" => class.quota_bytes = 384 << 20,
            "oltp" => class.quota_bytes = 2 << 30,
            _ => {}
        }
    }
    mix
}

/// The hard-quota control: the elastic flash crowd over [`market_mix`],
/// market disarmed — every over-quota grow is refused outright.
pub fn hard_quota_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        mix: market_mix(),
        lease: Some(LeaseConfig {
            sublease_market: false,
            ..elastic::lease_policy()
        }),
        ..elastic::elastic_config(seed)
    }
}

/// The market run: identical traffic and quotas, sublease market armed.
pub fn market_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        lease: Some(LeaseConfig {
            sublease_market: true,
            ..elastic::lease_policy()
        }),
        ..hard_quota_config(seed)
    }
}

/// Every economy row, in figure order: the two donor-benefit rows, then
/// the two quota-market rows.
fn rows(seed: u64) -> Vec<Row> {
    vec![
        (
            "watermark-only".to_string(),
            watermark_only_config(seed),
            None,
        ),
        (
            "pressure-aware".to_string(),
            pressure_aware_config(seed),
            None,
        ),
        ("hard-quota".to_string(), hard_quota_config(seed), None),
        ("market".to_string(), market_config(seed), None),
    ]
}

/// The `economy` registry entry. Rows run traced: the donor-benefit
/// quantiles come from the per-request records.
pub const FAMILY: Family = Family {
    id: "economy",
    seed: ECONOMY_SEED,
    requests: elastic::FAMILY.requests,
    gate_requests: GATE_REQUESTS,
    rows,
    traced: true,
    figure_ids: &["loadgen-donor-benefit-8n", "loadgen-quota-market-8n"],
    build: figures,
};

/// The *pure donors* of a run: nodes that lent memory but never held
/// more than one borrowed chunk themselves. Under the donor-benefit
/// storm the flash crowd's home nodes both borrow heavily and lend
/// opportunistically, so a raw "ever lent" set would mix the lending
/// tax with the borrowing benefit; the pure donors' latency isolates
/// what lending costs them. The figure and its acceptance test both
/// evaluate over the union of this set across the compared rows.
pub fn pure_donor_nodes(report: &LoadReport) -> Vec<u16> {
    let mut peak = vec![0u32; report.nodes as usize];
    for e in &report.lease.events {
        if e.node != u16::MAX {
            let p = &mut peak[e.node as usize];
            *p = (*p).max(e.chunks_after);
        }
    }
    report
        .lease
        .donor_nodes
        .iter()
        .copied()
        .filter(|&n| peak[n as usize] <= 1)
        .collect()
}

/// Reconstructs the subleased-bytes ledger trajectory from the event
/// timeline: the value at the end of each of `buckets` equal run
/// segments, in MB. `chunk` is the lease policy's chunk size (every
/// sublease moves exactly one chunk).
fn sublease_curve(report: &LoadReport, buckets: usize, chunk: u64) -> Vec<f64> {
    let end = report.duration;
    let mut out = Vec::with_capacity(buckets);
    let mut idx = 0usize;
    let mut current = 0i64;
    let chunk = chunk as i64;
    for b in 1..=buckets {
        let t = end.scale(b as f64 / buckets as f64);
        while idx < report.lease.events.len() && report.lease.events[idx].at <= t {
            let e = &report.lease.events[idx];
            match e.kind {
                LeaseEventKind::Subleased => current += chunk,
                LeaseEventKind::SubleaseReturned => current -= chunk,
                LeaseEventKind::Revoked if e.lessor != NO_TENANT => current -= chunk,
                _ => {}
            }
            idx += 1;
        }
        out.push((current >> 20) as f64);
    }
    out
}

/// The donor-benefit figure over the two traced donor-benefit rows —
/// the donor-side quantiles come from the per-request records, over the
/// union of the two rows' donor sets so both rows are judged on the
/// same nodes.
fn donor_benefit_figure(runs: &[RowRun]) -> Figure {
    let mut donors: Vec<u16> = runs
        .iter()
        .flat_map(|r| pure_donor_nodes(&r.report))
        .collect();
    donors.sort_unstable();
    donors.dedup();

    let mut fig = Figure::new(
        "loadgen-donor-benefit-8n",
        "Pressure-aware vs watermark-only revoke under the donor-pressure storm, 8-node mesh",
        "donor-side latency over the shared donor set; lent-memory pressure term armed in both rows",
    )
    .with_columns(
        [
            "donor p50 us",
            "donor p99 us",
            "all p99 ms",
            "revokes",
            "revoke denied",
            "donor nodes",
            "shed %",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        let trace = run.trace.as_ref().expect("economy rows run traced");
        fig.add_measured(Series::new(
            label.clone(),
            vec![
                node_quantile_us(trace, &donors, 0.50),
                node_quantile_us(trace, &donors, 0.99),
                r.total.p99_us / 1_000.0,
                r.lease.revokes as f64,
                r.lease.revoke_denials as f64,
                donors.len() as f64,
                100.0 * r.shed_total() as f64 / r.issued.max(1) as f64,
            ],
        ));
    }
    fig.notes = format!(
        "both rows pay the lent-memory pressure term (donors up to {:.0}% slower at full \
         pool consumption); the pressure-aware trigger adds {} depth-equivalents of lent \
         pressure and reclaims before the raw watermark trips, so the donors' own tail \
         recovers sooner — strictly lower donor p99 on the identical arrival stream \
         (no published reference)",
        DONOR_SLOWDOWN * 100.0,
        DONOR_PRESSURE_WEIGHT,
    );
    fig
}

/// The quota-market figure over the two market rows: hard quotas vs the
/// sublease market under identical traffic.
fn quota_market_figure(runs: &[RowRun]) -> Figure {
    let kv_idx = market_mix()
        .classes
        .iter()
        .position(|c| c.name == "kv-cache")
        .expect("market mix has the kv tenant");

    let mut fig = Figure::new(
        "loadgen-quota-market-8n",
        "Hard quotas vs the cross-tenant sublease market under a flash crowd, 8-node mesh",
        "the kv tenant is capped at 384 MB; the market converts its refusals into \
         subleases of the oltp tenant's idle 2 GB headroom",
    )
    .with_columns(
        [
            "kv p99 ms",
            "all p99 ms",
            "quota denials",
            "subleases",
            "converted %",
            "peak MB",
            "kv MB",
            "kv charged MB",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        let denied = r.lease.quota_denials;
        let converted = r.lease.subleases;
        let conversion = if converted + denied > 0 {
            100.0 * converted as f64 / (converted + denied) as f64
        } else {
            0.0
        };
        fig.add_measured(Series::new(
            label.clone(),
            vec![
                r.tenants[kv_idx].p99_us / 1_000.0,
                r.total.p99_us / 1_000.0,
                denied as f64,
                converted as f64,
                conversion,
                (r.lease.peak_bytes >> 20) as f64,
                (r.lease.tenant_bytes[kv_idx] >> 20) as f64,
                (r.lease.charged_bytes[kv_idx] >> 20) as f64,
            ],
        ));
    }
    let market = runs
        .iter()
        .find(|r| r.label == "market")
        .expect("market row ran");
    let chunk = market
        .config
        .lease
        .expect("market rows are elastic")
        .chunk_bytes;
    let curve = sublease_curve(&market.report, 8, chunk);
    fig.notes = format!(
        "over half of the hard-quota refusals convert into subleases charged against the \
         oltp tenant's idle headroom, with conservation held on both the manager ledger \
         and the cluster's sublease chains; subleased MB at each run eighth: {curve:?} \
         (no published reference)"
    );
    fig
}

/// The economy figures, in registration order.
fn figures(runs: &[RowRun]) -> Vec<Figure> {
    let (donor, market) = runs.split_at(2);
    vec![donor_benefit_figure(donor), quota_market_figure(market)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donor_rows_differ_only_in_the_revoke_trigger() {
        let rows = rows(1);
        let (_, watermark, _) = &rows[0];
        let (_, aware, _) = &rows[1];
        assert_eq!(watermark.arrival, aware.arrival);
        assert_eq!(watermark.mix, aware.mix);
        let w = watermark.lease.unwrap();
        let a = aware.lease.unwrap();
        assert_eq!(w.donor_pressure_slowdown, DONOR_SLOWDOWN);
        assert_eq!(a.donor_pressure_slowdown, DONOR_SLOWDOWN);
        assert_eq!(w.donor_pressure_weight, 0.0);
        assert_eq!(a.donor_pressure_weight, DONOR_PRESSURE_WEIGHT);
        assert_eq!(
            LeaseConfig {
                donor_pressure_weight: 0.0,
                ..a
            },
            w
        );
    }

    #[test]
    fn market_rows_differ_only_in_the_market_switch() {
        let rows = rows(1);
        let (_, hard, _) = &rows[2];
        let (_, market, _) = &rows[3];
        assert_eq!(hard.arrival, market.arrival);
        assert_eq!(hard.mix, market.mix);
        assert!(!hard.lease.unwrap().sublease_market);
        assert!(market.lease.unwrap().sublease_market);
        let kv = hard.mix.classes.iter().find(|c| c.name == "kv-cache");
        assert_eq!(kv.unwrap().quota_bytes, 384 << 20);
        let oltp = hard.mix.classes.iter().find(|c| c.name == "oltp");
        assert_eq!(oltp.unwrap().quota_bytes, 2 << 30);
    }

    #[test]
    fn node_quantiles_read_the_trace_exactly() {
        use crate::scenarios::node_quantile_us;
        use crate::trace::{RequestOutcome, RequestRecord, Trace};
        let rec = |node: u16, latency_ns: u64, outcome| RequestRecord {
            seq: 0,
            at_ns: 0,
            tenant: 0,
            user: 0,
            node,
            outcome,
            latency_ns,
            lease_generation: 0,
        };
        let trace = Trace {
            records: vec![
                rec(0, 1_000, RequestOutcome::Completed),
                rec(0, 3_000, RequestOutcome::Completed),
                rec(0, 9_000, RequestOutcome::ShedRate), // sheds excluded
                rec(1, 50_000, RequestOutcome::Completed), // off-set node
                rec(0, 2_000, RequestOutcome::Completed),
            ],
        };
        // Node 0's completed latencies: 1, 2, 3 µs.
        assert_eq!(node_quantile_us(&trace, &[0], 0.50), 2.0);
        assert_eq!(node_quantile_us(&trace, &[0], 1.0), 3.0);
        assert_eq!(node_quantile_us(&trace, &[0, 1], 1.0), 50.0);
        assert_eq!(node_quantile_us(&trace, &[7], 0.99), 0.0, "empty set");
    }
}
