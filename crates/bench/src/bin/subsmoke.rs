//! CI gate for the standing-query subsystem (DESIGN.md §5h).
//!
//! ```sh
//! subsmoke --smoke [--subs N] [--out DIR]     # exactly-once push delivery
//! subsmoke --churn [--regions N] [--out DIR]  # indexed matching is sublinear
//! ```
//!
//! Smoke mode serves a real index, registers a population of standing
//! queries over HTTP (matchers and decoys), ingests a planted-drop
//! series through the live registry, and requires every matcher to be
//! notified exactly once — writing the full notification log as an
//! artifact. Churn mode registers N standing regions and requires the
//! region index to reproduce brute-force matching with far fewer
//! region tests.

use segdiff_bench::gate::{self, Flags};
use segdiff_bench::subsmoke::{run_churn, run_subsmoke, ChurnConfig, SmokeConfig};
use std::time::Duration;

const USAGE: &str = "usage: subsmoke (--smoke | --churn) [--subs N] [--regions N] \
     [--deadline-secs N] [--out DIR]";

fn main() {
    let flags = Flags::from_env(USAGE);
    let smoke_mode = flags.mode(&["--smoke", "--churn"]) == "--smoke";
    let smoke = SmokeConfig {
        subs: flags.value("--subs").unwrap_or(40),
        deadline: Duration::from_secs(flags.value("--deadline-secs").unwrap_or(10)),
    };
    // The churn run EXPERIMENTS.md reports: 3 days of series, seed 42.
    let churn = ChurnConfig {
        regions: flags.value("--regions").unwrap_or(1000),
        days: 3,
        seed: 42,
    };
    gate::run("subsmoke", flags.value("--out"), |gate| {
        if smoke_mode {
            run_subsmoke(&smoke, gate)
        } else {
            run_churn(&churn, gate);
            Ok(())
        }
    })
}
