//! CI gate: validates the committed benchmark artifacts.
//!
//! ```text
//! check-figures [PATH]
//! ```
//!
//! Replaces the old hand-written per-family `grep -q` freshness checks:
//! every id in [`venice_bench::expected_figure_ids`] — the paper's ids
//! plus the loadgen family registry's declared ids — must be present in
//! `BENCH_figures.json` with non-empty measured series, and every
//! emitted figure must be declared — so a new figure cannot be silently
//! dropped from the perf trajectory in either direction.
//! `PATH` defaults to the repo-root artifact the `figures` binary
//! writes.
//!
//! When run against the default path (no argument), the sibling
//! telemetry artifacts are schema-checked too: `BENCH_telemetry.jsonl`
//! through [`venice_bench::validate_telemetry`] and `BENCH_attrib.jsonl`
//! through [`venice_bench::validate_attrib`] (which re-verifies the
//! exact-sum invariant line by line). A missing sibling is an error —
//! the committed tree always carries both.

use std::path::Path;
use std::process::ExitCode;

use venice::Figure;

/// Validates one committed JSONL artifact with `validate`; returns the
/// number of problems printed.
fn check_jsonl(path: &Path, validate: impl Fn(&str) -> Vec<String>) -> usize {
    let name = path.display();
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("check-figures: cannot read {name}: {e}");
            return 1;
        }
    };
    let problems = validate(&raw);
    for p in &problems {
        eprintln!("check-figures: {name}: {p}");
    }
    if problems.is_empty() {
        println!(
            "check-figures: {name} valid ({} lines)",
            raw.lines().count()
        );
    }
    problems.len()
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let arg = std::env::args().nth(1);
    let default_path = arg.is_none();
    let path = arg.unwrap_or_else(|| root.join("BENCH_figures.json").display().to_string());
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("check-figures: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let figures: Vec<Figure> = match serde_json::from_str(&raw) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("check-figures: {path} is not a figure artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = venice_bench::validate_figures(&figures);
    for p in &problems {
        eprintln!("check-figures: {p}");
    }
    let mut total = problems.len();
    if problems.is_empty() {
        println!(
            "check-figures: {} families valid in {path}",
            venice_bench::expected_figure_ids().len()
        );
    }
    if default_path {
        total += check_jsonl(
            &root.join("BENCH_telemetry.jsonl"),
            venice_bench::validate_telemetry,
        );
        total += check_jsonl(
            &root.join("BENCH_attrib.jsonl"),
            venice_bench::validate_attrib,
        );
    }
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("check-figures: {total} problem(s)");
        ExitCode::FAILURE
    }
}
