//! CI gate for the sharded serving tier (DESIGN.md §5i).
//!
//! ```sh
//! cargo build --release -p segdiff-cli -p segdiff-bench
//! clustersmoke --segdiff target/release/segdiff \
//!     --guard ci/serving-guard.json --out /tmp/clustersmoke
//! ```
//!
//! Spawns 4 shard `segdiff serve` processes, a warm replica of shard 0,
//! and a `segdiff router`, then asserts scatter–gather byte identity,
//! the serving p99 guard, replica failover after a SIGKILL, and the
//! exact `unavailable_sensors` blast radius of a replica-less shard
//! dying. `--out DIR` collects every process log plus `summary.json`.

use segdiff_bench::clustersmoke::{run_clustersmoke, ClusterConfig};
use segdiff_bench::gate::{self, Flags};
use std::time::Duration;

const USAGE: &str = "usage: clustersmoke --segdiff PATH [--out DIR] [--guard FILE] \
     [--shards N] [--sensors N] [--days N] [--duration-secs N] [--health-interval-ms N]";

fn main() {
    let flags = Flags::from_env(USAGE);
    let d = ClusterConfig::default();
    let cfg = ClusterConfig {
        segdiff: flags.value("--segdiff").unwrap_or(d.segdiff),
        out: flags.value("--out"),
        shards: flags.value("--shards").unwrap_or(d.shards),
        sensors: flags.value("--sensors").unwrap_or(d.sensors),
        days: flags.value("--days").unwrap_or(d.days),
        duration: flags
            .value("--duration-secs")
            .map_or(d.duration, Duration::from_secs),
        health_interval_ms: flags
            .value("--health-interval-ms")
            .map_or(d.health_interval_ms, |ms: u64| ms.max(1)),
        guard: flags.value("--guard"),
    };
    if cfg.shards < 2 {
        flags.fail("need at least 2 shards");
    }
    if !cfg.segdiff.exists() {
        flags.fail(&format!(
            "segdiff binary not found at {} (build with `cargo build --release -p segdiff-cli`)",
            cfg.segdiff.display()
        ));
    }
    gate::run("clustersmoke", cfg.out.clone(), |gate| {
        run_clustersmoke(&cfg, gate)
    })
}
