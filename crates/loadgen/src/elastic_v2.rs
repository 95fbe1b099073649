//! The `loadgen-elastic-v2` figure families: what the second-generation
//! lease controller buys over PR 2's reactive loop.
//!
//! Two questions, two figures, one flash-crowd seed shared with the
//! [`crate::elastic`] family so every number is comparable:
//!
//! * **`loadgen-elastic-v2-8n`** — *predictive vs reactive growth.* The
//!   reactive controller grows only after a node's queue depth crosses
//!   the high watermark, so every burst's first chunks arrive one full
//!   establish flow (~33 ms per 64 MB) after the pressure did. The
//!   predictive controller tracks an EWMA of the depth slope and grows
//!   when the *projected* depth crosses the watermark within one
//!   establish horizon — the borrowed capacity lands as the crowd
//!   peaks, not after it. Same seed, same arrival stream, same chunk
//!   range: the p99 difference is pure controller.
//! * **`loadgen-donor-pressure-8n`** — *donor-side reclaim.* With a
//!   donor watermark armed, a lending node whose own queue depth climbs
//!   demands its newest lent chunk back through the real Monitor–Node
//!   teardown path (modeled teardown latency included; the recipient
//!   keeps serving until the unmap lands). The figure compares a
//!   donor-passive run against a donor-armed run under traffic whose
//!   burst spillover loads the donors themselves, and pins that loaded
//!   donors really do reclaim chunks mid-run.
//!
//! The per-tenant quota machinery rides through both families: the
//! donor-pressure run also caps the kv tenant's lease budget, so the
//! figure's quota column shows grows refused locally (and the tenant
//! clamped at admission) once its ledger fills.

use venice::{Figure, Series};
use venice_lease::{LeaseConfig, LeaseEventKind};

use crate::elastic::{self, ELASTIC_SEED};
use crate::engine::LoadgenConfig;
use crate::report::LoadReport;
use crate::scenarios::{report, Family, Row, RowRun, GATE_REQUESTS};
use crate::tenants::TenantMix;

/// The flash-crowd seed shared with the `loadgen-elastic` family: the
/// v2 rows are directly comparable with PR 2's published reactive row.
pub const V2_SEED: u64 = ELASTIC_SEED;

/// The predictive lease policy: PR 2's elastic policy with the slope
/// predictor armed. The horizon matches the measured establish latency
/// of one 64 MB chunk (~33 ms) over the 1 ms tick, so a predicted grow
/// decided now lands roughly when the projected depth would have
/// crossed the watermark.
pub fn predictive_policy() -> LeaseConfig {
    LeaseConfig {
        predict_horizon_ticks: 33,
        slope_alpha: 0.35,
        ..elastic::lease_policy()
    }
}

/// The donor-armed policy: prediction plus donor-side reclaim. The
/// donor watermark sits above the high watermark — a donor starts
/// pulling memory back only once it is *more* pressured than a node
/// merely wanting to grow — and the revoke cooldown spaces reclaims at
/// least 60 ticks apart per donor.
pub fn donor_policy() -> LeaseConfig {
    LeaseConfig {
        donor_high_watermark: 14,
        revoke_cooldown_ticks: 60,
        ..predictive_policy()
    }
}

/// The predictive run: identical traffic, predictor armed.
pub fn predictive_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        lease: Some(predictive_policy()),
        ..elastic::elastic_config(seed)
    }
}

/// The donor-pressure run: the flash crowd's spillover load is heavy
/// enough to pressure the lending nodes themselves (higher burst rate,
/// less crowd concentration than the base scenario), donors are armed
/// to reclaim, and the kv tenant carries a 1 GB cluster-wide lease
/// quota so the quota path shows up in the same figure.
pub fn donor_config(seed: u64) -> LoadgenConfig {
    let mut mix = TenantMix::web_frontend();
    for class in &mut mix.classes {
        if class.name == "kv-cache" {
            class.quota_bytes = 1 << 30;
        }
    }
    LoadgenConfig {
        arrival: crate::ArrivalProcess::Bursty {
            base_rps: 6_000.0,
            burst_rps: 110_000.0,
            period: venice_sim::Time::from_ms(500),
            burst_len: venice_sim::Time::from_ms(200),
            crowd_users: 4,
            crowd_share: 0.70,
        },
        mix,
        lease: Some(donor_policy()),
        ..elastic::elastic_config(seed)
    }
}

/// The donor-passive control: identical traffic and quota, donor
/// reclaim disarmed — the delta against [`donor_config`] isolates what
/// revocation does.
pub fn donor_passive_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        lease: Some(LeaseConfig {
            donor_high_watermark: 0,
            ..donor_policy()
        }),
        ..donor_config(seed)
    }
}

/// The four v2 runs, in figure order. The reactive row is the elastic
/// family's run, re-measured.
///
/// The reactive row deliberately re-runs the elastic family's
/// `venice-elastic` configuration instead of borrowing its report: every
/// figure family must be regenerable on its own through the `figures`
/// binary's id filter, so cross-family sharing would trade a sub-second
/// duplicate simulation for a family that cannot stand alone.
fn rows(seed: u64) -> Vec<Row> {
    vec![
        (
            "venice-reactive".to_string(),
            elastic::elastic_config(seed),
            None,
        ),
        (
            "venice-predictive".to_string(),
            predictive_config(seed),
            None,
        ),
        (
            "donor-passive".to_string(),
            donor_passive_config(seed),
            None,
        ),
        ("donor-reclaim".to_string(), donor_config(seed), None),
    ]
}

/// The `elastic-v2` registry entry.
pub const FAMILY: Family = Family {
    id: "elastic-v2",
    seed: V2_SEED,
    requests: elastic::FAMILY.requests,
    gate_requests: GATE_REQUESTS,
    rows,
    traced: false,
    figure_ids: &["loadgen-elastic-v2-8n", "loadgen-donor-pressure-8n"],
    build: figures,
};

/// One summary row per run: latency, provisioning, and the v2 controller
/// counters (predictive grows, revokes, quota refusals).
fn summary_row(r: &LoadReport) -> Vec<f64> {
    vec![
        r.total.p50_us / 1_000.0,
        r.total.p99_us / 1_000.0,
        (r.lease.peak_bytes >> 20) as f64,
        (r.lease.mean_bytes >> 20) as f64,
        r.lease.grows as f64,
        r.lease.predictive_grows as f64,
        r.lease.revokes as f64,
        r.lease.quota_denials as f64,
        100.0 * r.shed_total() as f64 / r.issued.max(1) as f64,
    ]
}

fn summary_columns() -> Vec<String> {
    [
        "p50 ms",
        "p99 ms",
        "peak MB",
        "mean MB",
        "grows",
        "predict grows",
        "revokes",
        "quota denials",
        "shed %",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The v2 figures.
fn figures(runs: &[RowRun]) -> Vec<Figure> {
    let get = |label: &str| report(runs, label);

    let mut v2 = Figure::new(
        "loadgen-elastic-v2-8n",
        "Predictive vs reactive elastic leasing under a flash crowd, 8-node mesh",
        "per-controller summary: latency, provisioned remote memory, lease activity",
    )
    .with_columns(summary_columns());
    for label in ["venice-reactive", "venice-predictive"] {
        v2.add_measured(Series::new(label, summary_row(get(label))));
    }
    v2.notes = "the slope predictor grows before the watermark trips, so flash-crowd \
                chunks land one establish flow earlier: strictly lower p99 than the \
                reactive controller on the identical arrival stream (no published \
                reference)"
        .to_string();

    let mut donor = Figure::new(
        "loadgen-donor-pressure-8n",
        "Donor-side reclaim under spillover pressure, 8-node mesh",
        "donor-passive vs donor-armed summary under identical traffic and quotas",
    )
    .with_columns(summary_columns());
    for label in ["donor-passive", "donor-reclaim"] {
        donor.add_measured(Series::new(label, summary_row(get(label))));
    }
    let reclaim = get("donor-reclaim");
    let mid_run_revokes = reclaim
        .lease
        .events
        .iter()
        .filter(|e| e.kind == LeaseEventKind::Revoked && e.at.as_ns() > 0)
        .count();
    donor.notes = format!(
        "loaded donors demand lent chunks back mid-run ({mid_run_revokes} revoked \
         events, each through the Monitor-Node teardown path with modeled latency); \
         the kv tenant's 1 GB quota caps its ledger and surfaces as quota denials \
         (no published reference)"
    );
    vec![v2, donor]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_all_controllers() {
        let configs = rows(1);
        assert_eq!(configs.len(), 4);
        // Reactive: no predictor, no donor arming.
        let reactive = &configs[0].1.lease.unwrap();
        assert_eq!(reactive.predict_horizon_ticks, 0);
        assert_eq!(reactive.donor_high_watermark, 0);
        // Predictive: predictor armed, donors passive.
        let predictive = &configs[1].1.lease.unwrap();
        assert!(predictive.predict_horizon_ticks > 0);
        assert_eq!(predictive.donor_high_watermark, 0);
        // Donor rows differ only in the donor watermark.
        let passive = &configs[2].1;
        let armed = &configs[3].1;
        assert_eq!(passive.arrival, armed.arrival);
        assert_eq!(passive.mix, armed.mix);
        assert_eq!(passive.lease.unwrap().donor_high_watermark, 0);
        assert!(armed.lease.unwrap().donor_high_watermark > 0);
        // The kv tenant carries the quota in both donor rows.
        let kv = armed
            .mix
            .classes
            .iter()
            .find(|c| c.name == "kv-cache")
            .unwrap();
        assert_eq!(kv.quota_bytes, 1 << 30);
    }

    #[test]
    fn v2_rows_share_the_elastic_family_seed() {
        assert_eq!(V2_SEED, ELASTIC_SEED);
        let (label, reactive, _) = &rows(V2_SEED)[0];
        assert_eq!(label, "venice-reactive");
        let elastic = elastic::elastic_config(ELASTIC_SEED);
        assert_eq!(reactive.seed, elastic.seed);
        assert_eq!(reactive.arrival, elastic.arrival);
    }
}
