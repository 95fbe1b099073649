//! The golden corpus, `BENCH_golden.jsonl`: the committed bytes the
//! traffic engine must keep reproducing.
//!
//! One JSON object per line, in this order:
//!
//! * `family` — every row of [`scenarios::FAMILIES`] at its
//!   `gate_requests` and the gate seed `0xD17E`, run traced with its
//!   fault plan, holding the full report JSON. The `elastic-v2` /
//!   `venice-predictive` line is the traced run whose trace the
//!   determinism gate used to print in full;
//! * `open-loop` and `elastic-bursty` — 64 generated configurations
//!   each, drawn from the proptest shim's deterministic case streams
//!   ([`TestRng::for_case`]) by the strategies below. Each `open-loop`
//!   line also pins the replay of its own trace;
//! * `preset` — the three preset mixes at 2,000 requests, and `small` —
//!   3,000 web-frontend requests at seed 77, with its replay;
//! * `sweep` — the figure JSON of a small rate sweep.
//!
//! Every run line carries its configuration's seed, mix, request count
//! and arrival parameters, so it can be re-run by hand; the logical
//! event count; the wrapping sum of its completions' latencies in
//! picoseconds, which sees changes the nanosecond trace and the
//! bucketed report round away; the execution path at four shards; and
//! the FNV-1a hash and record count of the trace JSONL. Generated lines hold the report
//! JSON's hash in place of the report.
//!
//! [`corpus`] runs every configuration at one shard and at four shards
//! and fails if the two differ in any pinned byte. The `determinism` bin
//! writes the corpus; CI regenerates it at one and at eight rayon
//! threads and `git diff`s it against the committed file, as
//! `golden_corpus_is_fresh` does under `cargo test`. A change to the
//! engine's bytes is therefore a reviewed diff of the corpus.

use std::fmt::Write as _;

use proptest::{Strategy, TestRng};
use rayon::prelude::*;
use venice_loadgen::scenarios;
use venice_loadgen::sweep::{self, SweepSpec};
use venice_loadgen::trace::fnv1a;
use venice_loadgen::{
    ArrivalProcess, ExecPath, FaultPlan, LeaseConfig, LoadgenConfig, RemoteStack, Run, RunOutput,
    TenantMix, Trace,
};
use venice_sim::Time;

/// Seed of every registry row in the corpus (distinct from every
/// published figure seed).
const GATE_SEED: u64 = 0xD17E;

/// The shard width each configuration runs at next to one shard.
const SHARD_WIDTH: usize = 4;

/// Generated configurations per case stream.
const CASES: u64 = 64;

/// A 64-bit hash as the corpus writes it.
fn hex(hash: u64) -> String {
    format!("0x{hash:016x}")
}

/// One run line of the corpus, before it ran.
struct Entry {
    /// The line's opening fields, which no other line shares.
    key: String,
    config: LoadgenConfig,
    plan: Option<FaultPlan>,
    /// Whether the line also pins the replay of the run's own trace.
    replay: bool,
    /// Whether the line holds the full report JSON or only its hash.
    full_report: bool,
}

impl Entry {
    fn generated(kind: &str, case: u64, config: LoadgenConfig, replay: bool) -> Self {
        Entry {
            key: format!("\"kind\":\"{kind}\",\"case\":{case}"),
            config,
            plan: None,
            replay,
            full_report: false,
        }
    }

    fn line(&self) -> Result<String, String> {
        let (out, trace, path) = at_both_widths(&self.key, |w| {
            let mut run = Run::new(&self.config).traced().shards(w);
            if let Some(plan) = &self.plan {
                run = run.faults(plan.clone());
            }
            run.execute()
        })?;
        let (trace_fnv, records) = out.trace.expect("corpus runs are traced");
        let mut line = format!(
            "{{{},{},\"exec_path\":\"{path:?}\",\"events\":{},\"latency_ps\":{},\
             \"trace_records\":{records},\"trace_fnv\":\"{}\"",
            self.key,
            params(&self.config),
            out.events,
            out.latency_ps,
            hex(trace_fnv)
        );
        if self.replay {
            let trace = trace.expect("corpus runs are traced");
            let (replayed, _, _) = at_both_widths(&format!("{} replay", self.key), |w| {
                Run::new(&self.config).replay(&trace).shards(w).execute()
            })?;
            let hash = hex(fnv1a(replayed.report.as_bytes()));
            write!(
                line,
                ",\"replay_events\":{},\"replay_latency_ps\":{},\"replay_report_fnv\":\"{hash}\"",
                replayed.events, replayed.latency_ps
            )
            .expect("a String takes any write");
        }
        if self.full_report {
            write!(line, ",\"report\":{}}}", out.report).expect("a String takes any write");
        } else {
            let hash = hex(fnv1a(out.report.as_bytes()));
            write!(line, ",\"report_fnv\":\"{hash}\"}}").expect("a String takes any write");
        }
        Ok(line)
    }
}

/// The seed, mix, request count and arrival parameters of `config`.
fn params(config: &LoadgenConfig) -> String {
    let arrival = match config.arrival {
        ArrivalProcess::OpenPoisson { rate_rps } => format!("\"rate_rps\":{rate_rps:?}"),
        ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            crowd_share,
            ..
        } => format!(
            "\"base_rps\":{base_rps:?},\"burst_rps\":{burst_rps:?},\"crowd_share\":{crowd_share:?}"
        ),
    };
    format!(
        "\"seed\":{},\"mix\":\"{}\",\"requests\":{},{arrival},\"lease\":{}",
        config.seed,
        config.mix.name,
        config.requests,
        config.lease.is_some()
    )
}

/// What a run produced, reduced to the bytes the corpus pins.
#[derive(PartialEq)]
struct Pinned {
    report: String,
    /// Trace JSONL hash and record count.
    trace: Option<(u64, usize)>,
    events: u64,
    /// Wrapping sum of the completions' latencies in picoseconds.
    latency_ps: u64,
}

/// Runs `run` at one shard and at `SHARD_WIDTH` shards. Returns the
/// one-shard output, its trace, and the wider run's execution path, or
/// an error naming `what` if the two outputs differ.
fn at_both_widths(
    what: &str,
    run: impl Fn(usize) -> RunOutput,
) -> Result<(Pinned, Option<Trace>, ExecPath), String> {
    let pin = |out: &RunOutput| Pinned {
        report: serde_json::to_string(&out.report).expect("report serializes"),
        trace: out
            .trace
            .as_ref()
            .map(|t| (fnv1a(t.to_jsonl().as_bytes()), t.len())),
        events: out.metrics.events,
        latency_ps: out.metrics.latency_ps,
    };
    let one = run(1);
    let wide = run(SHARD_WIDTH);
    let pinned = pin(&one);
    if pin(&wide) != pinned {
        return Err(format!(
            "{what}: the {SHARD_WIDTH}-shard run ({:?}) diverged from one shard",
            wide.exec_path
        ));
    }
    Ok((pinned, one.trace, wide.exec_path))
}

/// Open-loop Poisson runs: any seed, mix and rate. The strategies and
/// their order are those of the differential property test the cases
/// were first drawn for, so the lines pin exactly the configurations it
/// checked.
fn open_loop(rng: &mut TestRng) -> LoadgenConfig {
    let seed = (0u64..100_000).sample(rng);
    let rate_rps = (2_000.0f64..400_000.0).sample(rng);
    let requests = (100u64..600).sample(rng);
    let mix = TenantMix::presets().swap_remove((0usize..3).sample(rng));
    LoadgenConfig {
        arrival: ArrivalProcess::OpenPoisson { rate_rps },
        requests,
        ..LoadgenConfig::new(seed, mix)
    }
}

/// Elastic runs under bursty traffic, with donor revokes and the
/// predictive horizon armed.
fn elastic_bursty(rng: &mut TestRng) -> LoadgenConfig {
    let seed = (0u64..100_000).sample(rng);
    let base_rps = (2_000.0f64..20_000.0).sample(rng);
    let burst_rps = (60_000.0f64..200_000.0).sample(rng);
    let crowd_share = (0.0f64..1.0).sample(rng);
    LoadgenConfig {
        arrival: ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            period: Time::from_ms(300),
            burst_len: Time::from_ms(120),
            crowd_users: 4,
            crowd_share,
        },
        requests: 2_500,
        lease: Some(LeaseConfig {
            donor_high_watermark: 12,
            revoke_cooldown_ticks: 40,
            predict_horizon_ticks: 33,
            ..LeaseConfig::default()
        }),
        ..LoadgenConfig::new(seed, TenantMix::web_frontend())
    }
}

/// Every run line of the corpus, in line order.
fn entries() -> Vec<Entry> {
    let mut entries = Vec::new();
    for family in scenarios::FAMILIES {
        for (label, config, plan) in family.rows_at(GATE_SEED, family.gate_requests) {
            entries.push(Entry {
                key: format!(
                    "\"kind\":\"family\",\"family\":\"{}\",\"row\":\"{label}\"",
                    family.id
                ),
                config,
                plan,
                replay: false,
                full_report: true,
            });
        }
    }
    // The case streams are named after the property tests that first
    // drew them.
    for case in 0..CASES {
        let mut rng = TestRng::for_case("typed_and_legacy_agree_on_open_loop_runs", case);
        entries.push(Entry::generated(
            "open-loop",
            case,
            open_loop(&mut rng),
            true,
        ));
    }
    for case in 0..CASES {
        let mut rng = TestRng::for_case("typed_and_legacy_agree_on_elastic_bursty_runs", case);
        entries.push(Entry::generated(
            "elastic-bursty",
            case,
            elastic_bursty(&mut rng),
            false,
        ));
    }
    for (i, mix) in TenantMix::presets().into_iter().enumerate() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 30_000.0 + 40_000.0 * i as f64,
            },
            requests: 2_000,
            ..LoadgenConfig::new(0xD1FF + i as u64, mix)
        };
        entries.push(Entry::generated("preset", i as u64, config, false));
    }
    let small = LoadgenConfig {
        requests: 3_000,
        ..LoadgenConfig::new(77, TenantMix::web_frontend())
    };
    entries.push(Entry::generated("small", 0, small, true));
    entries
}

/// Builds the corpus, its run lines on rayon; the text is the same at
/// any thread count.
///
/// # Errors
///
/// Names the first configuration whose `SHARD_WIDTH`-shard run
/// differs from its one-shard run.
pub fn corpus() -> Result<String, String> {
    let lines: Vec<Result<String, String>> = entries().into_par_iter().map(|e| e.line()).collect();
    let mut corpus = String::new();
    for line in lines {
        corpus.push_str(&line?);
        corpus.push('\n');
    }
    let sweep = SweepSpec {
        seed: GATE_SEED,
        meshes: vec![(2, 2, 1)],
        mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
        rates_rps: vec![10_000.0, 60_000.0],
        stacks: vec![RemoteStack::VeniceCrma, RemoteStack::Sonuma],
        requests_per_point: 1_500,
    };
    let figures = serde_json::to_string(&sweep::figures(&sweep)).expect("figures serialize");
    writeln!(corpus, "{{\"kind\":\"sweep\",\"figures\":{figures}}}")
        .expect("a String takes any write");
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_corpus_is_fresh() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_golden.jsonl");
        let committed = std::fs::read_to_string(path).expect("BENCH_golden.jsonl is committed");
        let fresh = corpus().expect("every line agrees across shard widths");
        for (i, (want, got)) in committed.lines().zip(fresh.lines()).enumerate() {
            if want != got {
                // Show the lines from a little before their first
                // differing byte.
                let at = want
                    .bytes()
                    .zip(got.bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                let from = |l: &str| -> String {
                    let tail = String::from_utf8_lossy(&l.as_bytes()[at.saturating_sub(80)..]);
                    tail.chars().take(160).collect()
                };
                panic!(
                    "line {} of BENCH_golden.jsonl is stale at byte {at}; regenerate it \
                     with `cargo run --release -p venice-bench --bin determinism -- --out \
                     BENCH_golden.jsonl`\ncommitted: {}\nfresh:     {}",
                    i + 1,
                    from(want),
                    from(got)
                );
            }
        }
        assert_eq!(
            fresh.lines().count(),
            committed.lines().count(),
            "BENCH_golden.jsonl has a stale line count"
        );
    }
}
