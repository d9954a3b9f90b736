//! `segdiff` — the command-line front end.
//!
//! Every subcommand, its flags and its defaults are one entry of the
//! table in `args.rs`, which `segdiff` prints as its usage on any parse
//! error (exit 2). `ingest` creates the index directory on first use and
//! *resumes* an existing one (observations must keep increasing in time).
//! `query` prints one result period per line; with `--refine` it also
//! locates the steepest concrete event inside each period against the raw
//! CSV.

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
            eprintln!("{}", args::usage());
            ExitCode::from(2)
        }
    }
}
