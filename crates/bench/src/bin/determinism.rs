//! Writes the golden corpus (`venice_bench::golden`).
//!
//! ```text
//! determinism [--out PATH]
//! ```
//!
//! Runs every configuration of the corpus at one shard and at four
//! shards and prints the corpus, or writes it to `PATH`. Exits
//! non-zero, writing nothing, if any configuration's two widths differ. CI regenerates `BENCH_golden.jsonl` with
//! `RAYON_NUM_THREADS=1` and again with `=8` and `git diff`s it after
//! each run, so thread-count independence and the committed bytes are
//! one merge gate. (The workspace's rayon shim re-reads
//! `RAYON_NUM_THREADS` on every parallel call, so the variable really
//! changes the fan-out width.)

use std::process::ExitCode;

use venice_bench::golden;

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

    let corpus = match golden::corpus() {
        Ok(corpus) => corpus,
        Err(e) => {
            eprintln!("determinism: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &corpus) {
                eprintln!("determinism: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "determinism: wrote {} bytes ({} lines) to {path}",
                corpus.len(),
                corpus.lines().count()
            );
        }
        None => print!("{corpus}"),
    }
    ExitCode::SUCCESS
}
