//! A/B driver for the benchmark: runs two perfbench binaries that are
//! already built in alternating pairs and reports each side's spread.
//!
//! ```text
//! ab A B [--pairs N] [--workloads W,..] [--seeds S,..] [--seconds T]
//! ```
//!
//! For every workload and seed it runs `N` pairs (default 10). Odd pairs
//! run `A` first and even pairs `B` first, so neither side always runs
//! after the other. Each run is `BIN --workload W --seed S --seconds T
//! --trace 0` with the driver's own environment, so set
//! `RAYON_NUM_THREADS` as the benchmark's recording did. Defaults:
//! workload `storm`, seed 1, `--seconds 10`.
//!
//! The driver never edits or rebuilds perfbench. Build each side into a
//! target directory of its own and copy its binary aside first.
//!
//! For each metric it prints each side's median and quartiles, `B`'s
//! median relative to `A`'s, and the pairs `B` won: better by the
//! metric's direction. `wall` and `reference` are the raw pass and
//! reference-loop times in ms from perfbench's first line. The
//! reference loop is compiled into the same binary, so a `wall_ref`
//! change that the raw `wall` does not share is the reference's doing.
//! Every run's simulated metrics must match the first run's; a run that
//! fails, reports itself incorrect or differs there makes the driver
//! exit 1.

use std::process::{Command, ExitCode};

use serde::{DeError, Deserialize, Value};
use venice_bench::{median, quartiles};

/// The compared metrics, with whether lower is better.
const COMPARED: [(&str, bool); 6] = [
    ("wall_ref", true),
    ("requests_per_ref", false),
    ("setup_s", true),
    ("peak_rss_mb", true),
    ("wall", true),
    ("reference", true),
];

/// Metrics of the simulated run: the same seed must print them
/// identically on both sides of a change that keeps the model's bytes.
const SIMULATED: [&str; 4] = ["sim_mean_ms", "sim_p99_ms", "served_pct", "sim_borrowed_mb"];

struct Args {
    a: String,
    b: String,
    pairs: usize,
    workloads: Vec<String>,
    seeds: Vec<u64>,
    seconds: f64,
}

const USAGE: &str = "usage: ab A B [--pairs N] [--workloads W,..] [--seeds S,..] [--seconds T]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut bins = Vec::new();
    let mut parsed = Args {
        a: String::new(),
        b: String::new(),
        pairs: 10,
        workloads: vec!["storm".to_string()],
        seeds: vec![1],
        seconds: 10.0,
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let list = |s: String| s.split(',').map(str::to_string).collect::<Vec<_>>();
        match arg.as_str() {
            "--pairs" => {
                parsed.pairs = take("--pairs")?
                    .parse()
                    .map_err(|e| format!("--pairs: {e}"))?
            }
            "--workloads" => parsed.workloads = list(take("--workloads")?),
            "--seeds" => {
                parsed.seeds = list(take("--seeds")?)
                    .iter()
                    .map(|s| s.parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--seconds" => {
                parsed.seconds = take("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument `{flag}`\n{USAGE}"))
            }
            _ => bins.push(arg),
        }
    }
    let [a, b] = <[String; 2]>::try_from(bins).map_err(|_| USAGE.to_string())?;
    if parsed.pairs == 0 {
        return Err("--pairs must be at least 1".to_string());
    }
    (parsed.a, parsed.b) = (a, b);
    Ok(parsed)
}

/// The JSON line of a `--trace 0` run.
struct Printed {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl Deserialize for Printed {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Some(Value::Object(fields)) = v.get("metrics") else {
            return Err(DeError::msg("no `metrics` object"));
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = serde::field::<f64>(m, "value")?;
                Ok((name.clone(), value))
            })
            .collect::<Result<_, DeError>>()?;
        Ok(Printed {
            correct: serde::field(v, "correct")?,
            metrics,
        })
    }
}

/// The metrics of one run, by name.
type Run = Vec<(String, f64)>;

fn metric(run: &Run, name: &str) -> Option<f64> {
    run.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Reads a `--trace 0` run's output: the raw `wall` and `reference`
/// times (ms) of its first line and every metric of its JSON line.
fn parse(stdout: &str) -> Result<Run, String> {
    let first = stdout.lines().next().ok_or("no output")?;
    let raw = |key: &str| -> Result<f64, String> {
        let at = first
            .find(&format!(" {key} "))
            .ok_or_else(|| format!("no `{key}` in `{first}`"))?;
        first[at + key.len() + 2..]
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unreadable `{key}` in `{first}`"))
    };
    let json = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .ok_or("no JSON line")?;
    let printed: Printed = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if !printed.correct {
        return Err("the run reports itself incorrect".to_string());
    }
    let mut run = printed.metrics;
    run.push(("wall".to_string(), raw("wall")?));
    run.push(("reference".to_string(), raw("reference")?));
    Ok(run)
}

fn execute(bin: &str, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{bin} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("{bin}: {e}"))
}

/// `v` to five significant digits.
fn sig(v: f64) -> String {
    let decimals = 4 - v.abs().log10().floor().clamp(-12.0, 4.0) as i32;
    format!("{v:.*}", decimals as usize)
}

/// One side's median and quartiles, compactly.
fn spread(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{} [{}, {}]", sig(median(values)), sig(q1), sig(q3))
}

/// Runs every pair of one workload and seed, printing each pair and then
/// the summary. Returns whether every run agreed on the simulated
/// metrics.
fn compare(args: &Args, workload: &str, seed: u64) -> Result<bool, String> {
    println!(
        "== {workload} seed {seed}: {} pairs, A = {}, B = {}",
        args.pairs, args.a, args.b
    );
    let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
    for pair in 1..=args.pairs {
        let a_first = pair % 2 == 1;
        let run = |bin: &str| execute(bin, workload, seed, args.seconds);
        let (a, b) = if a_first {
            let a = run(&args.a)?;
            (a, run(&args.b)?)
        } else {
            let b = run(&args.b)?;
            (run(&args.a)?, b)
        };
        let show = |r: &Run| {
            COMPARED
                .iter()
                .map(|&(name, _)| format!("{name} {}", sig(metric(r, name).unwrap_or(f64::NAN))))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let first = if a_first { "A" } else { "B" };
        println!("pair {pair:2} ({first} first): A {}", show(&a));
        println!("                    B {}", show(&b));
        a_runs.push(a);
        b_runs.push(b);
    }
    println!(
        "{:<18} {:<30} {:<30} {:>8} {:>9}",
        "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "B better"
    );
    for (name, lower_better) in COMPARED {
        let values = |runs: &[Run]| -> Vec<f64> {
            runs.iter()
                .map(|r| metric(r, name).unwrap_or(f64::NAN))
                .collect()
        };
        let (a, b) = (values(&a_runs), values(&b_runs));
        let won = a
            .iter()
            .zip(&b)
            .filter(|&(a, b)| if lower_better { b < a } else { b > a })
            .count();
        println!(
            "{name:<18} {:<30} {:<30} {:>+7.2}% {:>6}/{}",
            spread(&a),
            spread(&b),
            (median(&b) / median(&a) - 1.0) * 100.0,
            won,
            args.pairs
        );
    }
    let reference = &a_runs[0];
    let agree = a_runs.iter().chain(&b_runs).all(|r| {
        SIMULATED
            .iter()
            .all(|&name| metric(r, name) == metric(reference, name))
    });
    println!(
        "simulated metrics ({}) identical in every run: {}",
        SIMULATED.join(", "),
        if agree { "yes" } else { "NO" }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ab: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut agree = true;
    for workload in &args.workloads {
        for &seed in &args.seeds {
            match compare(&args, workload, seed) {
                Ok(same) => agree &= same,
                Err(e) => {
                    eprintln!("ab: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUTPUT: &str = "12 passes: wall 149.800 ms (q1 139.324, q3 173.039), \
        reference 97.221 ms, wall_ref 1.4766 (q1 1.3011, q3 1.9939), raw set-up 0.214 ms\n\
        {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
        {\"wall_ref\": {\"value\": 1.4766, \"unit\": \"x\"}, \
        \"served_pct\": {\"value\": 100.0, \"unit\": \"%\"}}}\n";

    #[test]
    fn a_run_reads_its_raw_times_and_every_metric() {
        let run = parse(OUTPUT).unwrap();
        assert_eq!(metric(&run, "wall"), Some(149.8));
        assert_eq!(metric(&run, "reference"), Some(97.221));
        assert_eq!(metric(&run, "wall_ref"), Some(1.4766));
        assert_eq!(metric(&run, "served_pct"), Some(100.0));
        let wrong = OUTPUT.replace("\"correct\": true", "\"correct\": false");
        assert!(parse(&wrong).unwrap_err().contains("incorrect"));
        assert!(parse("").is_err());
    }

    #[test]
    fn spreads_match_perfbench_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(
            spread(&[0.000_212_3, 0.000_2, 0.000_25]),
            "0.00021230 [0.00020000, 0.00025000]"
        );
        assert_eq!(sig(711_094.014), "711094");
        assert_eq!(sig(1.476_598), "1.4766");
    }

    #[test]
    fn arguments_need_two_binaries() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let parsed = args("a b --pairs 4 --seeds 1,1009 --workloads storm,flash-crash").unwrap();
        assert_eq!((parsed.a.as_str(), parsed.b.as_str()), ("a", "b"));
        assert_eq!((parsed.pairs, parsed.seeds.as_slice()), (4, &[1, 1009][..]));
        assert_eq!(parsed.workloads, ["storm", "flash-crash"]);
        assert!(args("a").is_err());
        assert!(args("a b c").is_err());
        assert!(args("a b --pairs 0").is_err());
        assert!(args("a b --bogus 1").is_err());
    }
}
