//! The `loadgen-congestion-8n` figure family: what lease *placement*
//! buys once the fabric is real.
//!
//! Both rows run the identical hot-link storm over the congested
//! fabric model ([`crate::remote::CongestedFabric`]): narrowed 2 Gbps
//! links, a four-node flash crowd whose elastic grows all want remote
//! capacity at once, and per-dispatch congestion charges on every
//! node→donor path. The only difference is the
//! [`PlacementPolicy`] the Monitor Node's grow handshake consults:
//!
//! * **`scalar-priced`** — today's nearest-capable-donor policy,
//!   blind to the fabric. Crowd nodes pile their leases onto the
//!   nearest donors, the shared links saturate, and every dispatch
//!   pays the backlog.
//! * **`congestion-aware`** — the grow vetoes donors whose node↔donor
//!   path crosses a backlogged link, so the retry loop falls through
//!   to the nearest donor on a *cold* path. Same storm, same fabric,
//!   same pricing — the cluster-wide p99 delta is pure placement.
//!
//! The scalar baseline ([`crate::remote::ScalarCrma`]) stays frozen
//! and does not appear here: this family compares placement policies
//! *within* the congested model, where the fabric actually pushes
//! back.

use venice::{Figure, Series};
use venice_fabric::LinkParams;
use venice_sim::Time;

use crate::elastic;
use crate::engine::LoadgenConfig;
use crate::remote::{FabricParams, PlacementPolicy, RemoteModelCfg};
use crate::scenarios::{node_quantile_us, Family, Row, RowRun, GATE_REQUESTS};

/// Seed of the congestion figure family.
pub const CONGESTION_SEED: u64 = 0xFAB71C;

/// Link bandwidth of the storm fabric, Gbit/s. Deliberately narrowed
/// from the 5 Gbps prototype links, and sized so placement is the
/// difference: one crowd node's burst traffic (~215 KB/ms of kv
/// payload) fits a 2 Gbps direction (250 KB per 1 ms window), but two
/// crowd nodes sharing a donor-side link oversubscribe it — the regime
/// where vetoing hot paths pays and last-hop links stay feasible.
pub const STORM_GBPS: f64 = 2.0;

/// Utilization window of the storm fabric. One millisecond matches the
/// lease tick, so a backlogged link reads as hot for at least one
/// placement decision after the dispatch that saturated it.
pub fn storm_window() -> Time {
    Time::from_ms(1)
}

/// The storm's fabric parameters under `placement`: narrowed links,
/// 1 ms windows, the default quarter-window buffer.
pub fn storm_fabric(placement: PlacementPolicy) -> FabricParams {
    FabricParams::from_link(
        LinkParams::venice_prototype().with_gbps(STORM_GBPS),
        storm_window(),
        placement,
    )
}

/// Requests per row. Longer than the elastic comparison runs: the one
/// cold-start ramp before the first burst's grows land is
/// placement-blind, so the run is sized to push it below the p99
/// population and let steady-state placement set the tail.
const REQUESTS: u64 = 1_500_000;

/// One storm row under `placement`: the elastic flash-crowd config with
/// the congested fabric armed. The elastic family's four-user crowd
/// ([`elastic::bursty_arrival`]) is sized against the narrowed links —
/// one crowd node's burst (~215 KB/ms of kv payload, ~88 % of a
/// direction's window) fits a 2 Gbps link, two crowd streams sharing a
/// donor-side link oversubscribe it badly — so every burst triggers a
/// volley of grows whose donor choice is the experiment.
pub fn storm_config(seed: u64, placement: PlacementPolicy) -> LoadgenConfig {
    LoadgenConfig {
        arrival: elastic::bursty_arrival(),
        remote_model: RemoteModelCfg::Congested(storm_fabric(placement)),
        requests: REQUESTS,
        ..elastic::elastic_config(seed)
    }
}

/// The congestion rows, in figure order.
fn rows(seed: u64) -> Vec<Row> {
    vec![
        (
            "scalar-priced".to_string(),
            storm_config(seed, PlacementPolicy::ScalarPriced),
            None,
        ),
        (
            "congestion-aware".to_string(),
            storm_config(seed, PlacementPolicy::CongestionAware),
            None,
        ),
    ]
}

/// The `congestion` registry entry. Rows run traced: the cluster
/// quantiles come from the per-request records, exact rather than
/// log-bucketed, so the placement delta is not rounded away by
/// histogram granularity.
pub const FAMILY: Family = Family {
    id: "congestion",
    seed: CONGESTION_SEED,
    requests: REQUESTS,
    gate_requests: GATE_REQUESTS,
    rows,
    traced: true,
    figure_ids: &["loadgen-congestion-8n"],
    build: figures,
};

/// The congestion figure: scalar-priced vs congestion-aware placement
/// under the identical hot-link storm.
fn figures(runs: &[RowRun]) -> Vec<Figure> {
    let mut fig = Figure::new(
        "loadgen-congestion-8n",
        "Congestion-aware vs scalar-priced lease placement under the hot-link storm, 8-node mesh",
        "both rows price every dispatch over the narrowed congested fabric; only the \
         Monitor Node's donor-selection policy differs",
    )
    .with_columns(
        [
            "all p50 ms",
            "all p99 ms",
            "all p999 ms",
            "mean us",
            "grows",
            "revokes",
            "shed %",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        let trace = run.trace.as_ref().expect("congestion rows run traced");
        let nodes: Vec<u16> = (0..r.nodes).collect();
        fig.add_measured(Series::new(
            label.clone(),
            vec![
                node_quantile_us(trace, &nodes, 0.50) / 1_000.0,
                node_quantile_us(trace, &nodes, 0.99) / 1_000.0,
                node_quantile_us(trace, &nodes, 0.999) / 1_000.0,
                r.total.mean_us,
                r.lease.grows as f64,
                r.lease.revokes as f64,
                100.0 * r.shed_total() as f64 / r.issued.max(1) as f64,
            ],
        ));
    }
    fig.notes = format!(
        "links narrowed to {STORM_GBPS:.0} Gbps ({} KB per {} ms window per direction); \
         the congestion-aware grow vetoes donors behind backlogged links and falls \
         through to the nearest cold path, cutting the cluster-wide p99 on the \
         identical arrival stream (no published reference)",
        storm_fabric(PlacementPolicy::ScalarPriced).capacity_bytes >> 10,
        storm_window().as_ps() / 1_000_000_000,
    );
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_differ_only_in_the_placement_policy() {
        let rows = rows(1);
        let (_, scalar, _) = &rows[0];
        let (_, aware, _) = &rows[1];
        assert_eq!(scalar.arrival, aware.arrival);
        assert_eq!(scalar.mix, aware.mix);
        assert_eq!(scalar.lease, aware.lease);
        let RemoteModelCfg::Congested(s) = &scalar.remote_model else {
            panic!("scalar-priced row lost its fabric");
        };
        let RemoteModelCfg::Congested(a) = &aware.remote_model else {
            panic!("congestion-aware row lost its fabric");
        };
        assert_eq!(s.placement, PlacementPolicy::ScalarPriced);
        assert_eq!(a.placement, PlacementPolicy::CongestionAware);
        assert_eq!(
            FabricParams {
                placement: PlacementPolicy::ScalarPriced,
                ..a.clone()
            },
            *s
        );
    }

    #[test]
    fn the_storm_fabric_is_genuinely_narrow() {
        let params = storm_fabric(PlacementPolicy::ScalarPriced);
        // 2 Gbps x 1 ms / 8 = 250 KB per window per direction.
        assert_eq!(params.capacity_bytes, 250_000);
        assert_eq!(params.buffer_bytes, 62_500);
    }

    #[test]
    fn scaled_rows_congest_and_stay_deterministic() {
        let a = FAMILY.run(7, 4_000);
        let b = FAMILY.run(7, 4_000);
        assert_eq!(a, b, "congestion rows are not deterministic");
        assert_eq!(a.len(), 2);
        for r in &a {
            assert!(r.report.completed > 0, "{} completed nothing", r.label);
        }
    }
}
