//! Shared cross-engine conformance driver for the loadgen test suite.
//!
//! Every differential suite in this directory makes the same claim in a
//! different corner of the configuration space: *all ways of running a
//! configuration produce byte-identical observable output*. This module
//! is the one place that claim is executed. [`Conformance`] takes a
//! configuration (plus an optional fault plan), runs it through every
//! engine flavor —
//!
//! * the **typed** sequential engine (the reference),
//! * the **sharded** parallel kernel at every width of
//!   [`SHARD_WIDTHS`] (which transparently falls back to the
//!   sequential engine for ineligible configurations — the byte
//!   contract holds either way),
//!
//! — and byte-compares the serialized report and the JSONL trace of
//! each against the reference. Individual suites then layer their own
//! scenario-specific assertions on the returned reference output.
//!
//! Comparison is on *bytes*, not `PartialEq`: the serialized artifact
//! is what CI diffs (`BENCH_golden.jsonl`) and what the `throughput`
//! bin's shard-width gate compares, so this harness pins the exact same
//! contract.

// Each test binary compiles its own copy of this module and uses a
// different subset of the driver (fault leg, fingerprint).
#![allow(dead_code)]

use venice_loadgen::{engine, FaultPlan, LoadReport, LoadgenConfig, Trace};

/// Shard widths every conformance run exercises (width 1 is the
/// reference itself; the bench curve covers `[1, 2, 4, 8]`).
pub const SHARD_WIDTHS: &[usize] = &[2, 4, 8];

/// The byte-level fingerprint of a run's observable output: the
/// serialized report, then the JSONL trace when one was captured.
pub fn fingerprint(report: &LoadReport, trace: Option<&Trace>) -> String {
    let mut out = serde_json::to_string(report).expect("report serializes");
    if let Some(t) = trace {
        out.push('\n');
        out.push_str(&t.to_jsonl());
    }
    out
}

/// One configuration's cross-engine conformance check. Build with
/// [`Conformance::new`], optionally arm a fault plan, then call
/// [`Conformance::assert_engines_agree`].
pub struct Conformance<'a> {
    config: &'a LoadgenConfig,
    faults: Option<FaultPlan>,
}

impl<'a> Conformance<'a> {
    /// A conformance check over `config`: typed reference plus every
    /// sharded width.
    pub fn new(config: &'a LoadgenConfig) -> Self {
        Conformance {
            config,
            faults: None,
        }
    }

    /// Arms `plan` on every flavor of the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    fn run_typed(&self, shards: usize) -> (LoadReport, Trace) {
        let mut run = engine::Run::new(self.config).traced().shards(shards);
        if let Some(plan) = &self.faults {
            run = run.faults(plan.clone());
        }
        let out = run.execute();
        (out.report, out.trace.expect("traced run captures a trace"))
    }

    /// Runs every armed flavor and asserts byte-identical output
    /// (report JSON + trace JSONL). Returns the reference run's report
    /// and trace for scenario-specific follow-up assertions.
    ///
    /// # Panics
    ///
    /// Panics (failing the calling test, shrinkable under proptest) on
    /// the first flavor whose output diverges from the reference.
    pub fn assert_engines_agree(&self) -> (LoadReport, Trace) {
        let (report, trace) = self.run_typed(1);
        let want = fingerprint(&report, Some(&trace));
        for &width in SHARD_WIDTHS {
            let (r, t) = self.run_typed(width);
            assert_eq!(
                fingerprint(&r, Some(&t)),
                want,
                "sharded engine at width {width} diverged from the sequential reference"
            );
        }
        (report, trace)
    }
}
