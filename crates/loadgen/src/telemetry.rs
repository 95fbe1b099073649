//! Telemetry over engine runs: probe presets for the [`Run`] builder
//! and the `venice-telemetry-v2` artifact.
//!
//! The engine's probe hooks ([`Run::probe`]) are generic plumbing; this
//! module binds them to concrete observability: the event-kind labels
//! for the engine's event enum, [`Run::recording`] / [`Run::attrib`]
//! presets that arm the two stock probes, and [`RunOutput`] renderers
//! for the JSONL artifact and the text profile the `venice-bench`
//! `profile` bin (and the determinism tests) consume. Everything here
//! inherits the engine's determinism: same config, same artifact, byte
//! for byte.

use venice_sim::Time;
use venice_telemetry::{
    export_jsonl, render_profile, AttribFold, AttribProbe, NoopProbe, RecordingProbe,
};

use crate::engine::{LoadgenConfig, Run, RunOutput};

/// Human labels for the engine's probe event-kind slots, indexed by the
/// engine event enum's probe slot (kept in step with
/// `EngineEvent::kind` in the engine). No event fires slots 0 to 2:
/// arrivals are not kernel events, and each reports through
/// [`Probe::on_fused_arrival`](venice_telemetry::Probe::on_fused_arrival)
/// instead. The labels stay so exported artifacts keep their shape and
/// consumers that index the slots (perfbench reads `finish` as slot 3)
/// stay valid.
pub const EVENT_KIND_LABELS: [&str; 8] = [
    "arrival",
    "session-next",
    "replay-next",
    "finish",
    "lease-tick",
    "lease-established",
    "revoke-torndown",
    "fault-tick",
];

impl<'c, 't> Run<'c, 't, NoopProbe> {
    /// Arms a [`RecordingProbe`] sampling every `tick` and retaining
    /// `cap` rows — the preset behind the telemetry artifact and the
    /// text profile ([`RunOutput::artifact_jsonl`],
    /// [`RunOutput::profile_text`]).
    ///
    /// # Panics
    ///
    /// Panics if `tick` or `cap` is zero.
    pub fn recording(self, tick: Time, cap: usize) -> Run<'c, 't, RecordingProbe> {
        self.probe(RecordingProbe::new(tick, cap))
    }

    /// Arms an [`AttribProbe`] (per-request latency attribution
    /// stamping) sampling every `tick` and retaining `cap` rows; fold
    /// the result with [`RunOutput::attrib_fold`].
    ///
    /// # Panics
    ///
    /// Panics if `tick` or `cap` is zero.
    pub fn attrib(self, tick: Time, cap: usize) -> Run<'c, 't, AttribProbe> {
        self.probe(AttribProbe::new(tick, cap))
    }
}

impl RunOutput<RecordingProbe> {
    /// Renders the run's `venice-telemetry-v2` JSONL artifact named
    /// `scenario`.
    pub fn artifact_jsonl(&self, scenario: &str) -> String {
        export_jsonl(scenario, self.report.seed, &self.probe, &EVENT_KIND_LABELS)
    }

    /// Renders the run's human-readable text profile named `scenario`.
    pub fn profile_text(&self, scenario: &str) -> String {
        render_profile(scenario, &self.probe, &EVENT_KIND_LABELS)
    }
}

impl RunOutput<AttribProbe> {
    /// The run's latency-attribution fold. Every completion passed the
    /// fold's exact-sum gate on the way in, so a fold that comes back
    /// at all certifies the decomposition.
    pub fn attrib_fold(&self) -> AttribFold {
        self.probe.attrib().clone()
    }
}

/// The mix's tenant labels in class order, for naming attribution
/// artifacts.
pub fn tenant_labels(config: &LoadgenConfig) -> Vec<String> {
    config.mix.classes.iter().map(|c| c.name.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::TenantMix;

    fn small(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            requests: 3_000,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    #[test]
    fn probed_report_matches_the_noop_report() {
        let config = small(19);
        let plain = Run::new(&config).execute().report;
        let probed = Run::new(&config).recording(Time::from_ms(5), 512).execute();
        assert_eq!(plain, probed.report, "probe perturbed the run");
        assert!(probed.probe.total_events() > 0);
        assert!(
            !probed.probe.series().is_empty(),
            "no samples over a 3k-request run"
        );
        assert!(probed.probe.queue_stats().pops() > 0);
    }

    #[test]
    fn attrib_fold_accounts_for_every_completion() {
        let config = small(19);
        let out = Run::new(&config).attrib(Time::from_ms(5), 512).execute();
        let fold = out.attrib_fold();
        assert_eq!(fold.requests(), out.report.completed);
        // Per-tenant counts reconcile with the report's ledger.
        for (t, tenant) in out.report.tenants.iter().enumerate() {
            let count = fold.tenant_summary(t as u16).map(|s| s.count).unwrap_or(0);
            assert_eq!(count, tenant.completed, "{}", tenant.tenant);
        }
    }

    #[test]
    fn artifact_is_stable_across_reruns() {
        let config = small(23);
        let a = Run::new(&config)
            .recording(Time::from_ms(5), 512)
            .execute()
            .artifact_jsonl("unit");
        let b = Run::new(&config)
            .recording(Time::from_ms(5), 512)
            .execute()
            .artifact_jsonl("unit");
        assert_eq!(a, b);
        assert!(a.starts_with("{\"kind\":\"header\""));
        assert!(a.lines().last().unwrap().starts_with("{\"kind\":\"end\""));
    }
}
