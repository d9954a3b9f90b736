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

use segdiff_bench::gate;
use segdiff_bench::subsmoke::{run_churn, run_subsmoke, ChurnConfig, SmokeConfig};
use std::time::Duration;

const USAGE: &str = "usage: subsmoke (--smoke | --churn) [--subs N] [--regions N] \
     [--deadline-secs N] [--out DIR]";

fn main() {
    let (smoke_mode, smoke, churn, out) = obs::flags::from_env(USAGE, |f| {
        let smoke = SmokeConfig {
            subs: f.value("--subs")?.unwrap_or(40),
            deadline: Duration::from_secs(f.value("--deadline-secs")?.unwrap_or(10)),
        };
        // The churn run EXPERIMENTS.md reports: 3 days of series, seed 42.
        let churn = ChurnConfig {
            regions: f.value("--regions")?.unwrap_or(1000),
            days: 3,
            seed: 42,
        };
        let smoke_mode = f.mode(&["--smoke", "--churn"])? == "--smoke";
        Ok((smoke_mode, smoke, churn, f.value("--out")?))
    });
    gate::run("subsmoke", out, |gate| {
        if smoke_mode {
            run_subsmoke(&smoke, gate)
        } else {
            run_churn(&churn, gate);
            Ok(())
        }
    })
}
