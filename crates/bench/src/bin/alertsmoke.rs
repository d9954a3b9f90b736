//! CI gate for the dogfooded alerting pipeline (DESIGN.md §5g).
//!
//! Two invocations, two verdicts:
//!
//! ```sh
//! alertsmoke --clean --out target/alertsmoke/clean   # nothing may fire
//! alertsmoke --fault --out target/alertsmoke/fault   # the latency jump must fire
//! ```
//!
//! Fault mode arms the query executor's `SEGDIFF_FAULT_SLEEP_MS` hatch
//! in this process's own environment before the first query runs, so
//! every query after the onset delay sleeps — a controlled latency jump
//! the standing `query-latency-jump` rule must detect within the
//! detection bound. The hatch reads its environment once per process,
//! which is why clean and fault are separate runs of this binary.
//! Defaults: 8 s of load, the fault adding 40 ms a query from 3 s on,
//! 250 ms sampling, detection within 2.5 s.
//!
//! `--out DIR` writes the artifacts CI uploads: `summary.json` (the
//! verdict), `alerts.json` (the server's alert log), and the slow +
//! recent trace rings (the tail-sampled evidence).

use segdiff::alerts::AlertRuleSet;
use segdiff_bench::alertsmoke::{run_alertsmoke, SmokeConfig};
use segdiff_bench::gate;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: alertsmoke (--clean | --fault) [--out DIR] [--rules FILE] \
     [--duration-secs N] [--fault-delay-secs N] [--fault-sleep-ms N] \
     [--sample-ms N] [--detect-within-ms N]";

fn main() {
    let (config, fault_sleep_ms, detect_within, out) = obs::flags::from_env(USAGE, |f| {
        let fault = f.mode(&["--clean", "--fault"])? == "--fault";
        let rules = match f.value::<PathBuf>("--rules")? {
            Some(path) => AlertRuleSet::load(&path)?,
            None => AlertRuleSet::defaults(),
        };
        let config = SmokeConfig {
            fault,
            duration: Duration::from_secs(f.value("--duration-secs")?.unwrap_or(8)),
            fault_delay: Duration::from_secs(f.value("--fault-delay-secs")?.unwrap_or(3)),
            sample_period: Duration::from_millis(f.value("--sample-ms")?.unwrap_or(250).max(10)),
            rules,
            concurrency: 4,
            unique_bodies: 50_000,
        };
        let fault_sleep_ms: u64 = f.value("--fault-sleep-ms")?.unwrap_or(40);
        let detect_within = Duration::from_millis(f.value("--detect-within-ms")?.unwrap_or(2_500));
        Ok((config, fault_sleep_ms, detect_within, f.value("--out")?))
    });
    if config.fault {
        // Must happen before the first query in this process: the hatch
        // caches its configuration on first use.
        std::env::set_var("SEGDIFF_FAULT_SLEEP_MS", fault_sleep_ms.to_string());
        let delay = config.fault_delay.as_secs();
        std::env::set_var("SEGDIFF_FAULT_DELAY_SECS", delay.to_string());
    }
    gate::run("alertsmoke", out, |gate| {
        run_alertsmoke(&config, detect_within, gate)
    })
}
