//! `segdiff` — the command-line front end.
//!
//! ```text
//! segdiff generate --csv data.csv --days 30 [--sensor 12] [--seed 42] [--raw]
//! segdiff ingest   --index DIR --csv data.csv [--epsilon 0.2] [--window-hours 8] [--no-smooth]
//! segdiff query    --index DIR --kind drop --v -3 --t-hours 1 [--plan scan|index] [--refine data.csv]
//! segdiff stats    --index DIR
//! ```
//!
//! `ingest` creates the index directory on first use and *resumes* an
//! existing one (observations must keep increasing in time). `query`
//! prints one result period per line; with `--refine` it also locates the
//! steepest concrete event inside each period against the raw CSV.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
