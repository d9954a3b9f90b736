//! Command-line parsing (no external dependencies).

use std::path::PathBuf;

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  segdiff generate --csv FILE --days N [--sensor K] [--seed S] [--raw]
  segdiff ingest   --index DIR --csv FILE [--epsilon E] [--window-hours H] [--no-smooth]
  segdiff query    --index DIR --kind drop|jump --v V --t-hours H
                   [--plan scan|index] [--refine FILE] [--limit N] [--trace]
                   [--threads N]
  segdiff stats    --index DIR [--json] [--series]
  segdiff recover  --index DIR [--json]
  segdiff metrics  --index DIR [--json]
  segdiff serve    --index DIR [--port P] [--threads N] [--queue-depth Q]
                   [--sensors 1,2,...] [--json]
                   [--sample-ms MS] [--slow-ms MS] [--alert-rules FILE]
  segdiff serve    --index DIR --replica-of http://HOST:PORT [--port P]
                   [--threads N] [--poll-ms MS] [--json]
  segdiff router   --shard PRIMARY[,REPLICA] [--shard ...] [--port P]
                   [--threads N] [--queue-depth Q] [--health-interval-ms MS]
                   [--json]
  segdiff cluster  --index DIR --shards N [--print-plan] [--port P]
                   [--threads N] [--json]
  segdiff loadgen  --url http://HOST:PORT [--concurrency N] [--duration-secs S]
                   [--kind drop|jump] [--v V] [--t-hours H] [--guard FILE]
  segdiff alerts   --url http://HOST:PORT [--json] [--follow] [--after N]
                   [--interval-ms MS] [--iterations N]
  segdiff top      --url http://HOST:PORT [--interval-ms MS] [--iterations N]
  segdiff subscribe --url http://HOST:PORT --kind drop|jump --v V --t-hours H
                   [--label NAME] [--sensors 1,2,...] [--json]
  segdiff subscribe --url http://HOST:PORT --list | --delete ID  [--json]
  segdiff watch    --url http://HOST:PORT --sub ID [--after N]
                   [--interval-ms MS] [--iterations N] [--json]

environment:
  SEGDIFF_LOG=off|error|warn|info|debug   diagnostic verbosity (default warn)";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Produce synthetic CAD data as CSV.
    Generate {
        /// Output CSV path.
        csv: PathBuf,
        /// Days of data.
        days: u32,
        /// Sensor position (0-24).
        sensor: u32,
        /// RNG seed.
        seed: u64,
        /// Skip the robust smoother (emit raw data with anomalies).
        raw: bool,
    },
    /// Create-or-resume an index from a CSV.
    Ingest {
        /// Index directory.
        index: PathBuf,
        /// Input CSV path.
        csv: PathBuf,
        /// Error tolerance (used only on creation).
        epsilon: f64,
        /// Window in hours (used only on creation).
        window_hours: f64,
        /// Skip smoothing before ingest.
        no_smooth: bool,
    },
    /// Search what a directory holds: one index, or every `sensor-<k>/`
    /// index of a transect root.
    Query {
        /// Index directory, or transect root.
        index: PathBuf,
        /// "drop" or "jump".
        kind: String,
        /// Threshold V (negative for drops).
        v: f64,
        /// Threshold T in hours.
        t_hours: f64,
        /// "scan" or "index".
        plan: String,
        /// Optional raw CSV to refine against.
        refine: Option<PathBuf>,
        /// Max results to print.
        limit: usize,
        /// Print an EXPLAIN ANALYZE-style per-phase trace.
        trace: bool,
        /// Worker threads a transect root's sensors fan out on.
        threads: usize,
    },
    /// Print index statistics.
    Stats {
        /// Index directory.
        index: PathBuf,
        /// Emit machine-readable JSON instead of text.
        json: bool,
        /// Also run the metric sampler over a probe query and print the
        /// derived time series (rates, quantiles, gauges).
        series: bool,
    },
    /// Open an index (running WAL recovery if needed), verify its
    /// consistency, and report what recovery did — an fsck for indexes.
    Recover {
        /// Index directory.
        index: PathBuf,
        /// Emit machine-readable JSON instead of text.
        json: bool,
    },
    /// Print the telemetry registry after probing the index.
    Metrics {
        /// Index directory.
        index: PathBuf,
        /// Emit line-delimited JSON instead of text.
        json: bool,
    },
    /// Run the HTTP query service over what a directory holds: one
    /// index, or the `sensor-<k>/` indexes of a transect root.
    Serve {
        /// Index directory, or transect root.
        index: PathBuf,
        /// TCP port (0 picks an ephemeral port).
        port: u16,
        /// Worker threads.
        threads: usize,
        /// Bounded accept-queue depth (503s beyond it).
        queue_depth: usize,
        /// Narrow a transect root to these global sensor ids — how a
        /// cluster shard serves its ring slice.
        sensors: Vec<u32>,
        /// Run as a warm replica of this primary (`http://host:port`):
        /// bootstrap `--index` as the replica root, tail the primary's
        /// WAL, and serve reads with role "replica".
        replica_of: Option<String>,
        /// Replica tail-poll interval in milliseconds.
        poll_ms: u64,
        /// Emit the final telemetry snapshot as JSON lines.
        json: bool,
        /// Self-observation sampling period in milliseconds.
        sample_ms: u64,
        /// Requests at least this slow are tail-sampled into the
        /// slow-trace ring.
        slow_ms: u64,
        /// Alert-rules TOML file (defaults to the built-in rules, which
        /// mirror `ci/alert-rules.toml`).
        alert_rules: Option<PathBuf>,
    },
    /// Run the cluster front-end: consistent-hash routing and
    /// scatter-gather over shard servers.
    Router {
        /// TCP port (0 picks an ephemeral port).
        port: u16,
        /// Worker threads.
        threads: usize,
        /// Bounded accept-queue depth.
        queue_depth: usize,
        /// One `PRIMARY[,REPLICA]` spec per shard, in ring order.
        shards: Vec<String>,
        /// Health-probe interval in milliseconds (failover latency).
        health_interval_ms: u64,
        /// Emit the final telemetry snapshot as JSON lines.
        json: bool,
    },
    /// One-process cluster quickstart (N shard servers + a router), or
    /// print the ring's sensor assignment with --print-plan.
    Cluster {
        /// Transect root directory.
        index: PathBuf,
        /// Number of shards to partition the sensors over.
        shards: usize,
        /// Print the sensor→shard assignment as JSON and exit.
        print_plan: bool,
        /// Router TCP port (shards always bind ephemeral ports).
        port: u16,
        /// Worker threads per shard server and for the router.
        threads: usize,
        /// Emit the final telemetry snapshot as JSON lines.
        json: bool,
    },
    /// Drive a running server with a closed-loop load generator.
    Loadgen {
        /// Base URL of the server (`http://host:port`).
        url: String,
        /// Concurrent closed-loop workers.
        concurrency: usize,
        /// Run duration in seconds.
        duration_secs: f64,
        /// "drop" or "jump".
        kind: String,
        /// Threshold V for the query mix.
        v: f64,
        /// Threshold T in hours for the query mix.
        t_hours: f64,
        /// p99 regression-guard file (JSON with `max_p99_ms`).
        guard: Option<PathBuf>,
    },
    /// Show a running server's standing alert rules and fired alerts.
    Alerts {
        /// Base URL of the server (`http://host:port`).
        url: String,
        /// Print the server's raw `/alerts` JSON instead of text.
        json: bool,
        /// Keep polling `/alerts?after=` and print each alert once as it
        /// fires, instead of dumping the current log and exiting.
        follow: bool,
        /// Resume the follow cursor from this sequence number.
        after: u64,
        /// Poll interval in milliseconds (follow mode).
        interval_ms: u64,
        /// Polls before exiting in follow mode (0 = until interrupted).
        iterations: u64,
    },
    /// Live terminal view of a running server's self-observed telemetry.
    Top {
        /// Base URL of the server (`http://host:port`).
        url: String,
        /// Refresh interval in milliseconds.
        interval_ms: u64,
        /// Frames to render before exiting (0 = until interrupted).
        iterations: u64,
    },
    /// Register, list, or remove standing queries on a running server.
    Subscribe {
        /// Base URL of the server (`http://host:port`).
        url: String,
        /// List existing subscriptions instead of registering one.
        list: bool,
        /// Remove this subscription instead of registering one.
        delete: Option<u64>,
        /// "drop" or "jump" (register mode).
        kind: String,
        /// Threshold V (negative for drops).
        v: f64,
        /// Threshold T in hours.
        t_hours: f64,
        /// Human-readable label stored with the subscription.
        label: String,
        /// Sensors the subscription listens to (empty = all).
        sensors: Vec<u32>,
        /// Print the server's raw JSON response instead of text.
        json: bool,
    },
    /// Follow a subscription's notification cursor on a running server.
    Watch {
        /// Base URL of the server (`http://host:port`).
        url: String,
        /// Subscription id to follow.
        sub: u64,
        /// Resume the cursor from this sequence number (0 replays the
        /// retained backlog first).
        after: u64,
        /// Poll interval in milliseconds.
        interval_ms: u64,
        /// Polls before exiting (0 = until interrupted).
        iterations: u64,
        /// Print one raw JSON object per notification instead of text.
        json: bool,
    },
}

/// Parses a `--sensors 1,2,3` comma list (None or blanks allowed).
fn parse_sensor_list(csv: Option<&str>) -> Result<Vec<u32>, String> {
    match csv {
        None => Ok(Vec::new()),
        Some(s) => s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| {
                p.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--sensors: {p:?} is not a sensor id"))
            })
            .collect(),
    }
}

fn take_value<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    argv.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let sub = argv.first().ok_or("missing subcommand")?.as_str();
    let mut csv: Option<PathBuf> = None;
    let mut index: Option<PathBuf> = None;
    let mut days: Option<u32> = None;
    let mut sensor = 12u32;
    let mut seed = 42u64;
    let mut raw = false;
    let mut epsilon = 0.2f64;
    let mut window_hours = 8.0f64;
    let mut no_smooth = false;
    let mut kind: Option<String> = None;
    let mut v: Option<f64> = None;
    let mut t_hours: Option<f64> = None;
    let mut plan = "scan".to_string();
    let mut refine: Option<PathBuf> = None;
    let mut limit = 50usize;
    let mut trace = false;
    let mut json = false;
    let mut port = 7878u16;
    let mut threads = 8usize;
    let mut queue_depth = 64usize;
    let mut url: Option<String> = None;
    let mut concurrency = 8usize;
    let mut duration_secs = 5.0f64;
    let mut guard: Option<PathBuf> = None;
    let mut series = false;
    let mut sample_ms = 500u64;
    let mut slow_ms = 25u64;
    let mut alert_rules: Option<PathBuf> = None;
    let mut interval_ms = 1000u64;
    let mut iterations = 0u64;
    let mut follow = false;
    let mut after = 0u64;
    let mut label: Option<String> = None;
    let mut sensors: Option<String> = None;
    let mut sub_id: Option<u64> = None;
    let mut list = false;
    let mut delete: Option<u64> = None;
    let mut replica_of: Option<String> = None;
    let mut poll_ms = 200u64;
    let mut shard_specs: Vec<String> = Vec::new();
    let mut shard_count: Option<usize> = None;
    let mut health_interval_ms = 500u64;
    let mut print_plan = false;

    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--csv" => csv = Some(PathBuf::from(take_value(argv, &mut i, "--csv")?)),
            "--index" => index = Some(PathBuf::from(take_value(argv, &mut i, "--index")?)),
            "--days" => {
                days = Some(
                    take_value(argv, &mut i, "--days")?
                        .parse()
                        .map_err(|_| "--days must be an integer")?,
                )
            }
            "--sensor" => {
                sensor = take_value(argv, &mut i, "--sensor")?
                    .parse()
                    .map_err(|_| "--sensor must be an integer")?
            }
            "--seed" => {
                seed = take_value(argv, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?
            }
            "--raw" => raw = true,
            "--epsilon" => {
                epsilon = take_value(argv, &mut i, "--epsilon")?
                    .parse()
                    .map_err(|_| "--epsilon must be a number")?
            }
            "--window-hours" => {
                window_hours = take_value(argv, &mut i, "--window-hours")?
                    .parse()
                    .map_err(|_| "--window-hours must be a number")?
            }
            "--no-smooth" => no_smooth = true,
            "--kind" => kind = Some(take_value(argv, &mut i, "--kind")?.to_string()),
            "--v" => {
                v = Some(
                    take_value(argv, &mut i, "--v")?
                        .parse()
                        .map_err(|_| "--v must be a number")?,
                )
            }
            "--t-hours" => {
                t_hours = Some(
                    take_value(argv, &mut i, "--t-hours")?
                        .parse()
                        .map_err(|_| "--t-hours must be a number")?,
                )
            }
            "--plan" => plan = take_value(argv, &mut i, "--plan")?.to_string(),
            "--refine" => refine = Some(PathBuf::from(take_value(argv, &mut i, "--refine")?)),
            "--limit" => {
                limit = take_value(argv, &mut i, "--limit")?
                    .parse()
                    .map_err(|_| "--limit must be an integer")?
            }
            "--trace" => trace = true,
            "--json" => json = true,
            "--port" => {
                port = take_value(argv, &mut i, "--port")?
                    .parse()
                    .map_err(|_| "--port must be an integer")?
            }
            "--threads" => {
                threads = take_value(argv, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer")?
            }
            "--queue-depth" => {
                queue_depth = take_value(argv, &mut i, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth must be an integer")?
            }
            "--url" => url = Some(take_value(argv, &mut i, "--url")?.to_string()),
            "--concurrency" => {
                concurrency = take_value(argv, &mut i, "--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency must be an integer")?
            }
            "--duration-secs" => {
                duration_secs = take_value(argv, &mut i, "--duration-secs")?
                    .parse()
                    .map_err(|_| "--duration-secs must be a number")?
            }
            "--guard" => guard = Some(PathBuf::from(take_value(argv, &mut i, "--guard")?)),
            "--series" => series = true,
            "--sample-ms" => {
                sample_ms = take_value(argv, &mut i, "--sample-ms")?
                    .parse()
                    .map_err(|_| "--sample-ms must be an integer")?
            }
            "--slow-ms" => {
                slow_ms = take_value(argv, &mut i, "--slow-ms")?
                    .parse()
                    .map_err(|_| "--slow-ms must be an integer")?
            }
            "--alert-rules" => {
                alert_rules = Some(PathBuf::from(take_value(argv, &mut i, "--alert-rules")?))
            }
            "--interval-ms" => {
                interval_ms = take_value(argv, &mut i, "--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms must be an integer")?
            }
            "--iterations" => {
                iterations = take_value(argv, &mut i, "--iterations")?
                    .parse()
                    .map_err(|_| "--iterations must be an integer")?
            }
            "--follow" => follow = true,
            "--after" => {
                after = take_value(argv, &mut i, "--after")?
                    .parse()
                    .map_err(|_| "--after must be an integer")?
            }
            "--label" => label = Some(take_value(argv, &mut i, "--label")?.to_string()),
            "--sensors" => sensors = Some(take_value(argv, &mut i, "--sensors")?.to_string()),
            "--sub" => {
                sub_id = Some(
                    take_value(argv, &mut i, "--sub")?
                        .parse()
                        .map_err(|_| "--sub must be an integer")?,
                )
            }
            "--replica-of" => {
                replica_of = Some(take_value(argv, &mut i, "--replica-of")?.to_string())
            }
            "--poll-ms" => {
                poll_ms = take_value(argv, &mut i, "--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms must be an integer")?
            }
            "--shard" => shard_specs.push(take_value(argv, &mut i, "--shard")?.to_string()),
            "--shards" => {
                shard_count = Some(
                    take_value(argv, &mut i, "--shards")?
                        .parse()
                        .map_err(|_| "--shards must be an integer")?,
                )
            }
            "--health-interval-ms" => {
                health_interval_ms = take_value(argv, &mut i, "--health-interval-ms")?
                    .parse()
                    .map_err(|_| "--health-interval-ms must be an integer")?
            }
            "--print-plan" => print_plan = true,
            "--list" => list = true,
            "--delete" => {
                delete = Some(
                    take_value(argv, &mut i, "--delete")?
                        .parse()
                        .map_err(|_| "--delete must be a subscription id")?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }

    match sub {
        "generate" => Ok(Command::Generate {
            csv: csv.ok_or("generate needs --csv")?,
            days: days.ok_or("generate needs --days")?,
            sensor,
            seed,
            raw,
        }),
        "ingest" => Ok(Command::Ingest {
            index: index.ok_or("ingest needs --index")?,
            csv: csv.ok_or("ingest needs --csv")?,
            epsilon,
            window_hours,
            no_smooth,
        }),
        "query" => {
            let kind = kind.ok_or("query needs --kind drop|jump")?;
            if kind != "drop" && kind != "jump" {
                return Err("--kind must be drop or jump".into());
            }
            if plan != "scan" && plan != "index" {
                return Err("--plan must be scan or index".into());
            }
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(Command::Query {
                index: index.ok_or("query needs --index")?,
                kind,
                v: v.ok_or("query needs --v")?,
                t_hours: t_hours.ok_or("query needs --t-hours")?,
                plan,
                refine,
                limit,
                trace,
                threads,
            })
        }
        "stats" => Ok(Command::Stats {
            index: index.ok_or("stats needs --index")?,
            json,
            series,
        }),
        "recover" => Ok(Command::Recover {
            index: index.ok_or("recover needs --index")?,
            json,
        }),
        "metrics" => Ok(Command::Metrics {
            index: index.ok_or("metrics needs --index")?,
            json,
        }),
        "serve" => {
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            if sample_ms == 0 {
                return Err("--sample-ms must be at least 1".into());
            }
            if poll_ms == 0 {
                return Err("--poll-ms must be at least 1".into());
            }
            let sensors = parse_sensor_list(sensors.as_deref())?;
            if replica_of.is_some() && !sensors.is_empty() {
                return Err("--replica-of mirrors whatever the primary serves; \
                            it cannot be combined with --sensors"
                    .into());
            }
            Ok(Command::Serve {
                index: index.ok_or("serve needs --index")?,
                port,
                threads,
                queue_depth: queue_depth.max(1),
                sensors,
                replica_of,
                poll_ms,
                json,
                sample_ms,
                slow_ms,
                alert_rules,
            })
        }
        "router" => {
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            if health_interval_ms == 0 {
                return Err("--health-interval-ms must be at least 1".into());
            }
            if shard_specs.is_empty() {
                return Err("router needs at least one --shard PRIMARY[,REPLICA]".into());
            }
            Ok(Command::Router {
                port,
                threads,
                queue_depth: queue_depth.max(1),
                shards: shard_specs,
                health_interval_ms,
                json,
            })
        }
        "cluster" => {
            let shards = shard_count.ok_or("cluster needs --shards N")?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(Command::Cluster {
                index: index.ok_or("cluster needs --index")?,
                shards,
                print_plan,
                port,
                threads,
                json,
            })
        }
        "loadgen" => {
            let kind = kind.unwrap_or_else(|| "drop".to_string());
            if kind != "drop" && kind != "jump" {
                return Err("--kind must be drop or jump".into());
            }
            if concurrency == 0 {
                return Err("--concurrency must be at least 1".into());
            }
            if !(duration_secs.is_finite() && duration_secs > 0.0) {
                return Err("--duration-secs must be positive".into());
            }
            let v = v.unwrap_or(if kind == "drop" { -1.0 } else { 1.0 });
            if kind == "drop" && v >= 0.0 {
                return Err("--v must be negative for drop queries".into());
            }
            if kind == "jump" && v <= 0.0 {
                return Err("--v must be positive for jump queries".into());
            }
            Ok(Command::Loadgen {
                url: url.ok_or("loadgen needs --url")?,
                concurrency,
                duration_secs,
                kind,
                v,
                t_hours: t_hours.unwrap_or(1.0),
                guard,
            })
        }
        "alerts" => {
            if interval_ms == 0 {
                return Err("--interval-ms must be at least 1".into());
            }
            Ok(Command::Alerts {
                url: url.ok_or("alerts needs --url")?,
                json,
                follow,
                after,
                interval_ms,
                iterations,
            })
        }
        "top" => {
            if interval_ms == 0 {
                return Err("--interval-ms must be at least 1".into());
            }
            Ok(Command::Top {
                url: url.ok_or("top needs --url")?,
                interval_ms,
                iterations,
            })
        }
        "subscribe" => {
            let url = url.ok_or("subscribe needs --url")?;
            if list && delete.is_some() {
                return Err("--list and --delete are mutually exclusive".into());
            }
            if list || delete.is_some() {
                return Ok(Command::Subscribe {
                    url,
                    list,
                    delete,
                    kind: String::new(),
                    v: 0.0,
                    t_hours: 0.0,
                    label: String::new(),
                    sensors: Vec::new(),
                    json,
                });
            }
            let kind = kind.ok_or("subscribe needs --kind drop|jump (or --list / --delete)")?;
            if kind != "drop" && kind != "jump" {
                return Err("--kind must be drop or jump".into());
            }
            let v = v.ok_or("subscribe needs --v")?;
            if kind == "drop" && v >= 0.0 {
                return Err("--v must be negative for drop subscriptions".into());
            }
            if kind == "jump" && v <= 0.0 {
                return Err("--v must be positive for jump subscriptions".into());
            }
            let t_hours = t_hours.ok_or("subscribe needs --t-hours")?;
            if !(t_hours.is_finite() && t_hours > 0.0) {
                return Err("--t-hours must be positive".into());
            }
            let sensors = parse_sensor_list(sensors.as_deref())?;
            Ok(Command::Subscribe {
                url,
                list: false,
                delete: None,
                kind,
                v,
                t_hours,
                label: label.unwrap_or_default(),
                sensors,
                json,
            })
        }
        "watch" => {
            if interval_ms == 0 {
                return Err("--interval-ms must be at least 1".into());
            }
            Ok(Command::Watch {
                url: url.ok_or("watch needs --url")?,
                sub: sub_id.ok_or("watch needs --sub ID")?,
                after,
                interval_ms,
                iterations,
                json,
            })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let c = parse(&argv("generate --csv out.csv --days 30 --sensor 3 --raw")).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                csv: "out.csv".into(),
                days: 30,
                sensor: 3,
                seed: 42,
                raw: true,
            }
        );
    }

    #[test]
    fn parses_query_with_defaults() {
        let c = parse(&argv("query --index d --kind drop --v -3 --t-hours 1")).unwrap();
        match c {
            Command::Query {
                plan,
                limit,
                refine,
                trace,
                threads,
                ..
            } => {
                assert_eq!(plan, "scan");
                assert_eq!(limit, 50);
                assert!(refine.is_none());
                assert!(!trace);
                assert_eq!(threads, 8);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_query_threads() {
        match parse(&argv(
            "query --index d --kind drop --v -3 --t-hours 1 --threads 4",
        ))
        .unwrap()
        {
            Command::Query { threads, .. } => assert_eq!(threads, 4),
            _ => panic!(),
        }
        assert!(parse(&argv(
            "query --index d --kind drop --v -3 --t-hours 1 --threads 0"
        ))
        .is_err());
        // What `--index` holds says whether it is a transect: the flag
        // that used to say so is gone from `query` and `serve`.
        for gone in [
            "query --index d --kind drop --v -3 --t-hours 1 --all-sensors",
            "serve --index d --all-sensors",
        ] {
            assert_eq!(
                parse(&argv(gone)).unwrap_err(),
                "unknown flag --all-sensors"
            );
        }
    }

    #[test]
    fn parses_trace_and_json_flags() {
        match parse(&argv(
            "query --index d --kind drop --v -3 --t-hours 1 --trace",
        ))
        .unwrap()
        {
            Command::Query { trace, .. } => assert!(trace),
            _ => panic!(),
        }
        match parse(&argv("stats --index d --json")).unwrap() {
            Command::Stats { json, .. } => assert!(json),
            _ => panic!(),
        }
        match parse(&argv("stats --index d")).unwrap() {
            Command::Stats { json, .. } => assert!(!json),
            _ => panic!(),
        }
        match parse(&argv("metrics --index d --json")).unwrap() {
            Command::Metrics { json, .. } => assert!(json),
            _ => panic!(),
        }
        assert!(parse(&argv("metrics")).is_err());
    }

    #[test]
    fn parses_recover() {
        assert_eq!(
            parse(&argv("recover --index d --json")).unwrap(),
            Command::Recover {
                index: "d".into(),
                json: true,
            }
        );
        match parse(&argv("recover --index d")).unwrap() {
            Command::Recover { json, .. } => assert!(!json),
            _ => panic!(),
        }
        assert!(parse(&argv("recover")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("generate --days 3")).is_err());
        assert!(parse(&argv("query --index d --kind sideways --v -3 --t-hours 1")).is_err());
        assert!(parse(&argv(
            "query --index d --kind drop --v -3 --t-hours 1 --plan turbo"
        ))
        .is_err());
        assert!(parse(&argv("ingest --index d --csv f --epsilon nope")).is_err());
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse(&argv("serve --index d")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                index: "d".into(),
                port: 7878,
                threads: 8,
                queue_depth: 64,
                sensors: Vec::new(),
                replica_of: None,
                poll_ms: 200,
                json: false,
                sample_ms: 500,
                slow_ms: 25,
                alert_rules: None,
            }
        );
        let c = parse(&argv(
            "serve --index d --port 0 --threads 2 --queue-depth 4 --json \
             --sample-ms 100 --slow-ms 5 --alert-rules ci/alert-rules.toml",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                index: "d".into(),
                port: 0,
                threads: 2,
                queue_depth: 4,
                sensors: Vec::new(),
                replica_of: None,
                poll_ms: 200,
                json: true,
                sample_ms: 100,
                slow_ms: 5,
                alert_rules: Some("ci/alert-rules.toml".into()),
            }
        );
        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve --index d --threads 0")).is_err());
        assert!(parse(&argv("serve --index d --sample-ms 0")).is_err());
    }

    #[test]
    fn parses_shard_serve() {
        match parse(&argv("serve --index d --sensors 3,7,11")).unwrap() {
            Command::Serve { sensors, .. } => assert_eq!(sensors, vec![3, 7, 11]),
            _ => panic!(),
        }
        assert!(parse(&argv("serve --index d --sensors x")).is_err());
    }

    #[test]
    fn parses_replica_serve() {
        match parse(&argv(
            "serve --index r --replica-of http://h:1 --poll-ms 50",
        ))
        .unwrap()
        {
            Command::Serve {
                replica_of,
                poll_ms,
                ..
            } => {
                assert_eq!(replica_of.as_deref(), Some("http://h:1"));
                assert_eq!(poll_ms, 50);
            }
            _ => panic!(),
        }
        // A replica mirrors the primary's sensor set; slicing it is a
        // contradiction.
        assert!(parse(&argv("serve --index r --replica-of u --sensors 1")).is_err());
        assert!(parse(&argv("serve --index r --replica-of u --poll-ms 0")).is_err());
    }

    #[test]
    fn parses_router() {
        assert_eq!(
            parse(&argv(
                "router --shard 127.0.0.1:7001,127.0.0.1:8001 --shard 127.0.0.1:7002 \
                 --port 7900 --health-interval-ms 100 --json"
            ))
            .unwrap(),
            Command::Router {
                port: 7900,
                threads: 8,
                queue_depth: 64,
                shards: vec![
                    "127.0.0.1:7001,127.0.0.1:8001".into(),
                    "127.0.0.1:7002".into(),
                ],
                health_interval_ms: 100,
                json: true,
            }
        );
        assert!(parse(&argv("router")).is_err(), "needs at least one shard");
        assert!(parse(&argv("router --shard h:1 --health-interval-ms 0")).is_err());
        assert!(parse(&argv("router --shard h:1 --threads 0")).is_err());
    }

    #[test]
    fn parses_cluster() {
        assert_eq!(
            parse(&argv("cluster --index d --shards 4 --port 7900")).unwrap(),
            Command::Cluster {
                index: "d".into(),
                shards: 4,
                print_plan: false,
                port: 7900,
                threads: 8,
                json: false,
            }
        );
        match parse(&argv("cluster --index d --shards 2 --print-plan")).unwrap() {
            Command::Cluster {
                print_plan, shards, ..
            } => {
                assert!(print_plan);
                assert_eq!(shards, 2);
            }
            _ => panic!(),
        }
        assert!(parse(&argv("cluster --index d")).is_err(), "needs --shards");
        assert!(parse(&argv("cluster --shards 2")).is_err(), "needs --index");
        assert!(parse(&argv("cluster --index d --shards 0")).is_err());
    }

    #[test]
    fn parses_stats_series_flag() {
        match parse(&argv("stats --index d --series --json")).unwrap() {
            Command::Stats { json, series, .. } => {
                assert!(json);
                assert!(series);
            }
            _ => panic!(),
        }
        match parse(&argv("stats --index d")).unwrap() {
            Command::Stats { series, .. } => assert!(!series),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_alerts_and_top() {
        assert_eq!(
            parse(&argv("alerts --url http://h:1 --json")).unwrap(),
            Command::Alerts {
                url: "http://h:1".into(),
                json: true,
                follow: false,
                after: 0,
                interval_ms: 1000,
                iterations: 0,
            }
        );
        assert_eq!(
            parse(&argv(
                "alerts --url http://h:1 --follow --after 7 --interval-ms 50 --iterations 2"
            ))
            .unwrap(),
            Command::Alerts {
                url: "http://h:1".into(),
                json: false,
                follow: true,
                after: 7,
                interval_ms: 50,
                iterations: 2,
            }
        );
        assert!(parse(&argv("alerts")).is_err());
        assert!(parse(&argv("alerts --url u --follow --interval-ms 0")).is_err());
        assert_eq!(
            parse(&argv("top --url http://h:1")).unwrap(),
            Command::Top {
                url: "http://h:1".into(),
                interval_ms: 1000,
                iterations: 0,
            }
        );
        assert_eq!(
            parse(&argv(
                "top --url http://h:1 --interval-ms 50 --iterations 3"
            ))
            .unwrap(),
            Command::Top {
                url: "http://h:1".into(),
                interval_ms: 50,
                iterations: 3,
            }
        );
        assert!(parse(&argv("top")).is_err());
        assert!(parse(&argv("top --url u --interval-ms 0")).is_err());
    }

    #[test]
    fn parses_loadgen_with_defaults() {
        let c = parse(&argv("loadgen --url http://127.0.0.1:7878")).unwrap();
        assert_eq!(
            c,
            Command::Loadgen {
                url: "http://127.0.0.1:7878".into(),
                concurrency: 8,
                duration_secs: 5.0,
                kind: "drop".into(),
                v: -1.0,
                t_hours: 1.0,
                guard: None,
            }
        );
        let c = parse(&argv(
            "loadgen --url http://h:1 --concurrency 2 --duration-secs 0.5 \
             --kind jump --v 2 --t-hours 0.5 --guard ci/serving-guard.json",
        ))
        .unwrap();
        match c {
            Command::Loadgen { kind, v, guard, .. } => {
                assert_eq!(kind, "jump");
                assert_eq!(v, 2.0);
                assert_eq!(guard, Some("ci/serving-guard.json".into()));
            }
            _ => panic!(),
        }
        assert!(parse(&argv("loadgen")).is_err());
        assert!(parse(&argv("loadgen --url u --kind drop --v 3")).is_err());
        assert!(parse(&argv("loadgen --url u --duration-secs -1")).is_err());
    }

    #[test]
    fn parses_subscribe_and_watch() {
        assert_eq!(
            parse(&argv(
                "subscribe --url http://h:1 --kind drop --v -2 --t-hours 1.5 \
                 --label coolant --sensors 3,7,11 --json"
            ))
            .unwrap(),
            Command::Subscribe {
                url: "http://h:1".into(),
                list: false,
                delete: None,
                kind: "drop".into(),
                v: -2.0,
                t_hours: 1.5,
                label: "coolant".into(),
                sensors: vec![3, 7, 11],
                json: true,
            }
        );
        match parse(&argv("subscribe --url u --list")).unwrap() {
            Command::Subscribe { list, delete, .. } => {
                assert!(list);
                assert!(delete.is_none());
            }
            _ => panic!(),
        }
        match parse(&argv("subscribe --url u --delete 9")).unwrap() {
            Command::Subscribe { list, delete, .. } => {
                assert!(!list);
                assert_eq!(delete, Some(9));
            }
            _ => panic!(),
        }
        // Register mode validates the region like `query` does.
        assert!(parse(&argv("subscribe --url u")).is_err());
        assert!(parse(&argv("subscribe --url u --list --delete 1")).is_err());
        assert!(parse(&argv("subscribe --url u --kind drop --v 2 --t-hours 1")).is_err());
        assert!(parse(&argv("subscribe --url u --kind jump --v -2 --t-hours 1")).is_err());
        assert!(parse(&argv("subscribe --url u --kind drop --v -2 --t-hours 0")).is_err());
        assert!(parse(&argv(
            "subscribe --url u --kind drop --v -2 --t-hours 1 --sensors x"
        ))
        .is_err());

        assert_eq!(
            parse(&argv(
                "watch --url http://h:1 --sub 4 --after 10 --iterations 3"
            ))
            .unwrap(),
            Command::Watch {
                url: "http://h:1".into(),
                sub: 4,
                after: 10,
                interval_ms: 1000,
                iterations: 3,
                json: false,
            }
        );
        assert!(parse(&argv("watch --url u")).is_err());
        assert!(parse(&argv("watch --url u --sub 1 --interval-ms 0")).is_err());
    }
}
