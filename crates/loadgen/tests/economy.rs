//! Acceptance: the v3 lease economy (ISSUE 5 criteria, pinned).
//!
//! (a) Pressure-aware revoke improves donor-side p99 over the
//! watermark-only trigger on the same seed — *and* this tuning also
//! improves the cluster-wide tail, so the cost-aware policy is a strict
//! win, not a donor-vs-recipient trade; (b) the sublease market
//! converts at least half of the hard-quota refusals into subleases and
//! improves the capped tenant's tail; (c) the ledgers conserve — usage
//! buckets sum to the running total at every event (subleases
//! included), the charged ledger never exceeds any quota, and the
//! manager's sublease balance matches the cluster's annotated chains
//! (asserted inside the engine at end of run); (d) every economy run
//! replays bit-identically.

use std::collections::BTreeMap;

use venice_lease::{LeaseEventKind, NO_TENANT};
use venice_loadgen::economy::{self, FAMILY};
use venice_loadgen::report::LoadReport;
use venice_loadgen::scenarios::{node_quantile_us, report, run_rows, RowRun};

/// The economy rows whose label is in `labels`, run at full scale.
fn run_labels(labels: &[&str]) -> Vec<RowRun> {
    let rows = FAMILY
        .rows_at(FAMILY.seed, FAMILY.requests)
        .into_iter()
        .filter(|(label, _, _)| labels.contains(&label.as_str()))
        .collect();
    run_rows(rows, FAMILY.traced)
}

/// Replays a report's lease timeline and checks the usage-conservation
/// law: the per-tenant ledger values carried on the events always sum
/// to the running cluster-wide total — sublease events included.
fn assert_usage_conserves(label: &str, r: &LoadReport) {
    let mut ledger: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &r.lease.events {
        ledger.insert(e.tenant, e.tenant_bytes_after);
        let sum: u64 = ledger.values().sum();
        assert_eq!(
            sum, e.total_bytes_after,
            "{label}: usage ledger diverged at {e:?}"
        );
    }
}

/// Replays the charged ledger from `(kind, tenant, lessor)` alone and
/// checks it against the per-tenant quotas at every event and against
/// the report's final charged ledger.
fn assert_charges_conserve(label: &str, r: &LoadReport, quotas: &[u64], chunk: u64) {
    let mut charged: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &r.lease.events {
        match e.kind {
            LeaseEventKind::Grew | LeaseEventKind::GrewPredictive if e.tenant != NO_TENANT => {
                *charged.entry(e.tenant).or_default() += chunk;
            }
            LeaseEventKind::Subleased => {
                assert_ne!(e.lessor, NO_TENANT, "{label}: sublease without lessor");
                *charged.entry(e.lessor).or_default() += chunk;
            }
            LeaseEventKind::Shrank if e.tenant != NO_TENANT => {
                *charged.entry(e.tenant).or_default() -= chunk;
            }
            LeaseEventKind::SubleaseReturned => {
                *charged.entry(e.lessor).or_default() -= chunk;
            }
            LeaseEventKind::Revoked => {
                let payer = if e.lessor != NO_TENANT {
                    e.lessor
                } else {
                    e.tenant
                };
                if payer != NO_TENANT {
                    *charged.entry(payer).or_default() -= chunk;
                }
            }
            _ => {}
        }
        for (&tenant, &bytes) in &charged {
            if (tenant as usize) < quotas.len() {
                assert!(
                    bytes <= quotas[tenant as usize],
                    "{label}: tenant {tenant} charged {bytes} over quota at {e:?}"
                );
            }
        }
    }
    for (i, &q) in quotas.iter().enumerate() {
        let replayed = charged.get(&(i as u32)).copied().unwrap_or(0);
        assert!(replayed <= q, "{label}: final charge over quota");
        assert_eq!(
            replayed, r.lease.charged_bytes[i],
            "{label}: replayed charged ledger diverged for tenant {i}"
        );
    }
}

#[test]
fn pressure_aware_revoke_improves_donor_p99() {
    let runs = run_labels(&["watermark-only", "pressure-aware"]);
    // The shared pure-donor set — the same function the figure uses.
    let mut donors: Vec<u16> = runs
        .iter()
        .flat_map(|r| economy::pure_donor_nodes(&r.report))
        .collect();
    donors.sort_unstable();
    donors.dedup();
    assert!(!donors.is_empty(), "storm produced no pure donors");

    let p99 = |label: &str| {
        let run = runs.iter().find(|r| r.label == label).unwrap();
        let r = &run.report;
        (
            node_quantile_us(run.trace.as_ref().unwrap(), &donors, 0.99),
            r.total.p99_us,
            r.lease.revokes,
        )
    };
    let (wm_donor, wm_all, wm_revokes) = p99("watermark-only");
    let (pa_donor, pa_all, pa_revokes) = p99("pressure-aware");
    println!(
        "donors {donors:?}: watermark-only donor p99 {wm_donor:.1}us (all {wm_all:.1}us, \
         {wm_revokes} revokes) vs pressure-aware {pa_donor:.1}us (all {pa_all:.1}us, \
         {pa_revokes} revokes)"
    );
    // (a) The headline criterion: cost-aware reclaim relieves the
    // donors' own tail on the identical arrival stream...
    assert!(
        pa_donor < wm_donor,
        "pressure-aware donor p99 {pa_donor:.1}us not below watermark-only {wm_donor:.1}us"
    );
    // ...by firing strictly more revokes (the earlier trigger), and at
    // this tuning without sacrificing the cluster-wide tail.
    assert!(pa_revokes > wm_revokes, "pressure never triggered a revoke");
    assert!(
        pa_all <= wm_all,
        "pressure-aware all-p99 {pa_all:.1}us regressed past watermark-only {wm_all:.1}us"
    );
    // Conservation holds under the pressure term too.
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        assert_usage_conserves(label, r);
        assert_eq!(r.lease.subleases, 0, "{label}: no market in this family");
    }
}

#[test]
fn market_converts_denials_and_conserves() {
    let runs = run_labels(&["hard-quota", "market"]);
    let get = |label: &str| report(&runs, label);
    let hard = get("hard-quota");
    let market = get("market");
    let mix = economy::market_mix();
    let kv = mix
        .classes
        .iter()
        .position(|c| c.name == "kv-cache")
        .unwrap();
    println!(
        "hard-quota: {} denials, kv p99 {:.1}us; market: {} denials, {} subleases \
         ({} returned), kv p99 {:.1}us",
        hard.lease.quota_denials,
        hard.tenants[kv].p99_us,
        market.lease.quota_denials,
        market.lease.subleases,
        market.lease.sublease_returns,
        market.tenants[kv].p99_us,
    );

    // The hard wall really binds: the capped tenant is refused often.
    assert!(
        hard.lease.quota_denials > 100,
        "hard quota never bound: {} denials",
        hard.lease.quota_denials
    );
    assert_eq!(hard.lease.subleases, 0, "market fired while disarmed");

    // (b) ≥ 50 % of the would-be refusals convert into subleases: the
    // market run's refusal+conversion decisions split at least half
    // toward conversion.
    let decisions = market.lease.subleases + market.lease.quota_denials;
    assert!(market.lease.subleases > 0, "market never matched");
    assert!(
        2 * market.lease.subleases >= decisions,
        "conversion below 50%: {} of {decisions}",
        market.lease.subleases
    );
    // The capped tenant's tail improves once it can trade for headroom.
    assert!(
        market.tenants[kv].p99_us < hard.tenants[kv].p99_us,
        "market kv p99 {:.1}us not below hard-quota {:.1}us",
        market.tenants[kv].p99_us,
        hard.tenants[kv].p99_us
    );
    // The kv tenant's usage exceeds its own quota (that is the market
    // working) while its *charge* stays within it.
    let kv_quota = mix.classes[kv].quota_bytes;
    assert!(market.lease.tenant_bytes[kv] > kv_quota);
    assert!(market.lease.charged_bytes[kv] <= kv_quota);

    // (c) Both ledgers conserve on both rows.
    let quotas = mix.quotas();
    let chunk = economy::market_config(1).lease.unwrap().chunk_bytes;
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        assert_usage_conserves(label, r);
        assert_charges_conserve(label, r, &quotas, chunk);
    }
}

#[test]
fn economy_runs_replay_bit_identically() {
    // (d) Same seed, same rows — including across rayon widths, which
    // the determinism CI gate byte-diffs; here we pin the in-process
    // half at reduced scale.
    let a = FAMILY.run(FAMILY.seed, 8_000);
    let b = FAMILY.run(FAMILY.seed, 8_000);
    assert_eq!(a, b);
    assert_eq!(a.len(), 4, "both families, two rows each");
}
