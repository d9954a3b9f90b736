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
use segdiff_bench::gate;
use std::time::Duration;

const USAGE: &str = "usage: clustersmoke --segdiff PATH [--out DIR] [--guard FILE] \
     [--shards N] [--sensors N] [--days N] [--duration-secs N] [--health-interval-ms N]";

fn main() {
    let cfg = obs::flags::from_env(USAGE, |f| {
        let d = ClusterConfig::default();
        let cfg = ClusterConfig {
            segdiff: f.value("--segdiff")?.unwrap_or(d.segdiff),
            out: f.value("--out")?,
            shards: f.value("--shards")?.unwrap_or(d.shards),
            sensors: f.value("--sensors")?.unwrap_or(d.sensors),
            days: f.value("--days")?.unwrap_or(d.days),
            duration: f
                .value("--duration-secs")?
                .map_or(d.duration, Duration::from_secs),
            health_interval_ms: f
                .value("--health-interval-ms")?
                .map_or(d.health_interval_ms, |ms: u64| ms.max(1)),
            guard: f.value("--guard")?,
        };
        if cfg.shards < 2 {
            return Err("need at least 2 shards".to_string());
        }
        if !cfg.segdiff.exists() {
            return Err(format!(
                "segdiff binary not found at {} (build with `cargo build --release -p segdiff-cli`)",
                cfg.segdiff.display()
            ));
        }
        Ok(cfg)
    });
    gate::run("clustersmoke", cfg.out.clone(), |gate| {
        run_clustersmoke(&cfg, gate)
    })
}
