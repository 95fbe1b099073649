//! CI gate: the thread-count-independence claim, made diffable.
//!
//! ```text
//! determinism [--out PATH]
//! ```
//!
//! Runs every family of the loadgen registry
//! (`venice_loadgen::scenarios::FAMILIES`) at its gate scale, a small
//! rate sweep, and one traced run, and emits their complete
//! trace/report JSON. CI runs this binary twice, once with
//! `RAYON_NUM_THREADS=1` and once with `RAYON_NUM_THREADS=8`, and diffs
//! the two artifacts **byte for byte**: "bit-identical at any thread
//! count" is a merge gate, not just a test-local assertion. (The
//! workspace's rayon shim re-reads `RAYON_NUM_THREADS` on every
//! parallel call, so the variable genuinely changes the fan-out width.)
//!
//! Request counts are scaled down from the published figures — rayon
//! determinism does not depend on run length — so the gate costs
//! seconds, not minutes.

use std::fmt::Write as _;
use std::process::ExitCode;

use venice_loadgen::scenarios::{self, GATE_REQUESTS};
use venice_loadgen::sweep::{self, SweepSpec};
use venice_loadgen::{engine, RemoteStack, TenantMix};

/// Seed for the gate's runs (distinct from every published figure seed,
/// so the gate can never mask a figure regression by caching).
const GATE_SEED: u64 = 0xD17E;

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next();
            if out_path.is_none() {
                eprintln!("determinism: --out requires a path");
                return ExitCode::FAILURE;
            }
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(p.to_string());
        } else {
            eprintln!("usage: determinism [--out PATH]");
            return ExitCode::FAILURE;
        }
    }

    let mut artifact = String::new();

    // 1. Every registered family at its gate scale: full reports with
    //    lease timelines, shed and fault counters, one line per row.
    for family in scenarios::FAMILIES {
        for run in family.run(GATE_SEED, family.gate_requests) {
            writeln!(
                artifact,
                "{} {} {}",
                family.id,
                run.label,
                serde_json::to_string(&run.report).expect("report serializes")
            )
            .unwrap();
        }
    }

    // 2. The rate sweep (rayon grid) rendered as figure JSON.
    let spec = SweepSpec {
        seed: GATE_SEED,
        meshes: vec![(2, 2, 1)],
        mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
        rates_rps: vec![10_000.0, 60_000.0],
        stacks: vec![RemoteStack::VeniceCrma, RemoteStack::Sonuma],
        requests_per_point: 1_500,
    };
    writeln!(
        artifact,
        "sweep {}",
        venice_bench::to_json(&sweep::figures(&spec))
    )
    .unwrap();

    // 3. A traced elastic run: the per-request JSONL trace itself.
    let (_, config, _) =
        scenarios::family("elastic-v2").row_at("venice-predictive", GATE_SEED, GATE_REQUESTS);
    let out = engine::Run::new(&config).traced().execute();
    let report = out.report;
    let trace = out.trace.expect("traced run captures a trace");
    writeln!(
        artifact,
        "traced {}",
        serde_json::to_string(&report).expect("report serializes")
    )
    .unwrap();
    artifact.push_str(&trace.to_jsonl());

    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &artifact) {
                eprintln!("determinism: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "determinism: wrote {} bytes ({} lines) to {path}",
                artifact.len(),
                artifact.lines().count()
            );
        }
        None => print!("{artifact}"),
    }
    ExitCode::SUCCESS
}
