//! Differential latency attribution: the `venice-attrib-v1` artifact
//! and the explain report.
//!
//! ```text
//! explain [--out PATH] [--requests N] [--tick-ms T] [--cap N]
//! ```
//!
//! Runs the canonical elastic-vs-static pair — the same mix, seed, and
//! traffic through static full provisioning and through the elastic-v2
//! predictive controller — with the attribution probe threaded through
//! the engine, then:
//!
//! * prints each run's per-tenant critical-path summary (which of the
//!   seven lifecycle stages dominates its p99 tail);
//! * prints the **differential** explain report: for each tenant, the
//!   p99 movement between the two runs attributed to stages, naming the
//!   stage that accounts for the majority of the improvement (or
//!   regression);
//! * **gates** both probed runs against no-op-probe runs of the same
//!   configurations (byte-identical `LoadReport` JSON), on top of the
//!   exact-sum assert every completion already passed inside the fold;
//! * writes the two folds plus the differential as `BENCH_attrib.jsonl`
//!   (CI regenerates a reduced-count copy at rayon widths 1 and 8 and
//!   byte-compares them; `check-figures` re-validates the committed
//!   artifact's internal sums).
//!
//! Like `BENCH_telemetry.jsonl`, the committed artifact is the default
//! run's output (`cargo run --release -p venice-bench --bin explain`):
//! its bytes are machine-independent, and CI regenerates it at full
//! scale and `git diff --exit-code`s it.

use std::process::ExitCode;

use venice_loadgen::telemetry::tenant_labels;
use venice_loadgen::{engine, scenarios, LoadgenConfig};
use venice_sim::Time;
use venice_telemetry::attrib::STAGE_LABELS;
use venice_telemetry::{export_attrib_jsonl, render_explain, AttribFold};

/// Default request count per run: the elastic-v2 figure scale, so the
/// committed artifact explains the same runs the figures plot.
const DEFAULT_REQUESTS: u64 = 400_000;
/// Default sim-time sampling tick, in milliseconds (sizes the probe's
/// piggybacked sample ring; attribution itself is per-request).
const DEFAULT_TICK_MS: u64 = 25;
/// Default sample-ring capacity.
const DEFAULT_CAP: usize = 48;

struct Args {
    out: Option<String>,
    requests: u64,
    tick_ms: u64,
    cap: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        requests: DEFAULT_REQUESTS,
        tick_ms: DEFAULT_TICK_MS,
        cap: DEFAULT_CAP,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--out" => args.out = Some(take("--out")?),
            "--requests" => {
                args.requests = take("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
                if args.requests == 0 {
                    return Err("--requests must be at least 1".to_string());
                }
            }
            "--tick-ms" => {
                args.tick_ms = take("--tick-ms")?
                    .parse()
                    .map_err(|e| format!("--tick-ms: {e}"))?;
                if args.tick_ms == 0 {
                    return Err("--tick-ms must be at least 1".to_string());
                }
            }
            "--cap" => {
                args.cap = take("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?;
                if args.cap == 0 {
                    return Err("--cap must be at least 1".to_string());
                }
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: explain [--out PATH] [--requests N] [--tick-ms T] [--cap N]"
                ))
            }
        }
    }
    Ok(args)
}

/// Runs `config` probed, gates it against the no-op run, and returns
/// its fold. Exits the process on a perturbation.
fn gated_run(
    label: &str,
    config: &LoadgenConfig,
    tick: Time,
    cap: usize,
) -> Result<AttribFold, String> {
    let plain = engine::Run::new(config).execute().report;
    let out = engine::Run::new(config).attrib(tick, cap).execute();
    let fold = out.attrib_fold();
    let probed = out.report;
    let plain_json = serde_json::to_string(&plain).expect("report serializes");
    let probed_json = serde_json::to_string(&probed).expect("report serializes");
    if plain_json != probed_json {
        return Err(format!(
            "{label}: probed run diverged from the no-op run \
             (no-op {} bytes, probed {} bytes)",
            plain_json.len(),
            probed_json.len()
        ));
    }
    println!(
        "gate: {label} probed report matches the no-op report byte for byte \
         ({} bytes, {} requests attributed)",
        plain_json.len(),
        fold.requests()
    );
    Ok(fold)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explain: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tick = Time::from_ms(args.tick_ms);

    // The elastic family's static row and the v2 predictive row share
    // one seed, so both runs see the identical arrival stream.
    let (_, mut base_config, _) = scenarios::row("elastic", "venice-static");
    base_config.requests = args.requests;
    let (_, mut cand_config, _) = scenarios::row("elastic-v2", "venice-predictive");
    cand_config.requests = args.requests;
    let labels = tenant_labels(&base_config);
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();

    let (base, cand) = match (
        gated_run("static", &base_config, tick, args.cap),
        gated_run("predictive", &cand_config, tick, args.cap),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("explain: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!();

    // Per-run critical paths, then the differential.
    for (label, fold) in [("static", &base), ("predictive", &cand)] {
        println!("== critical path: {label} ==");
        for s in fold.tenant_summaries() {
            println!(
                "tenant {}: p99 {} us over {} requests; tail dominated by {} ({} of tail time)",
                labels.get(s.tenant as usize).copied().unwrap_or("?"),
                s.p99.as_ps() / 1_000_000,
                s.count,
                STAGE_LABELS[s.dominant_tail_stage],
                format_args!(
                    "{}.{}%",
                    s.dominant_share_pm() / 10,
                    s.dominant_share_pm() % 10
                ),
            );
        }
        println!();
    }
    print!(
        "{}",
        render_explain(
            "static-vs-predictive",
            "static",
            "predictive",
            &base,
            &cand,
            &labels
        )
    );
    println!();

    let artifact = export_attrib_jsonl(
        "static-vs-predictive",
        cand_config.seed,
        &[("static", &base), ("predictive", &cand)],
        &labels,
    );
    let problems = venice_bench::validate_attrib(&artifact);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("explain: {p}");
        }
        return ExitCode::FAILURE;
    }
    let path = args.out.unwrap_or_else(|| "BENCH_attrib.jsonl".to_string());
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("explain: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} lines)", artifact.lines().count());
    ExitCode::SUCCESS
}
