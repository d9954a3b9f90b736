//! Command-line parsing: the subcommand table is the grammar, the
//! dispatch and the usage text.
//!
//! Each [`Subcommand`] holds its usage, one line a form, and the function
//! that builds its [`Command`]. A command line is parsed against its
//! subcommand's usage by [`obs::flags`], so a flag that usage does not
//! name is an error, and [`usage`] prints the same table.

use featurespace::{QueryRegion, SearchKind};
use obs::flags::Flags;
use segdiff::QueryPlan;
use sensorgen::HOUR;
use std::path::PathBuf;
use std::str::FromStr;

/// One subcommand: its usage (a line that starts with whitespace
/// continues the form above it) and how a command line that fits the
/// usage becomes a [`Command`].
struct Subcommand {
    usage: &'static str,
    build: fn(&Flags) -> Result<Command, String>,
}

impl Subcommand {
    /// The word after `segdiff`.
    fn name(&self) -> &'static str {
        self.usage.split_whitespace().nth(1).unwrap_or_default()
    }
}

const SUBCOMMANDS: [Subcommand; 14] = [
    Subcommand {
        usage: "segdiff generate --csv FILE --days N [--sensor K] [--seed S] [--raw]",
        build: generate,
    },
    Subcommand {
        usage:
            "segdiff ingest --index DIR --csv FILE [--epsilon E] [--window-hours H] [--no-smooth]",
        build: ingest,
    },
    Subcommand {
        usage: "segdiff query --index DIR --kind drop|jump --v V --t-hours H
            [--plan scan|index] [--refine FILE] [--limit N] [--trace]
            [--threads N]",
        build: query,
    },
    Subcommand {
        usage: "segdiff stats --index DIR [--json] [--series]",
        build: stats,
    },
    Subcommand {
        usage: "segdiff recover --index DIR [--json]",
        build: recover,
    },
    Subcommand {
        usage: "segdiff metrics --index DIR [--json]",
        build: metrics,
    },
    Subcommand {
        usage: "segdiff serve --index DIR [--port P] [--threads N] [--queue-depth Q]
            [--sensors 1,2,...] [--json]
            [--sample-ms MS] [--slow-ms MS] [--alert-rules FILE]
segdiff serve --index DIR --replica-of http://HOST:PORT [--port P]
            [--threads N] [--poll-ms MS] [--json]",
        build: serve,
    },
    Subcommand {
        usage: "segdiff router --shard PRIMARY[,REPLICA] [--shard ...] [--port P]
            [--threads N] [--queue-depth Q] [--health-interval-ms MS]
            [--json]",
        build: router,
    },
    Subcommand {
        usage: "segdiff cluster --index DIR --shards N [--print-plan] [--port P]
            [--threads N] [--json]",
        build: cluster,
    },
    Subcommand {
        usage: "segdiff loadgen --url http://HOST:PORT [--concurrency N] [--duration-secs S]
            [--kind drop|jump] [--v V] [--t-hours H] [--guard FILE]",
        build: loadgen,
    },
    Subcommand {
        usage: "segdiff alerts --url http://HOST:PORT [--json] [--follow] [--after N]
            [--interval-ms MS] [--iterations N]",
        build: alerts,
    },
    Subcommand {
        usage: "segdiff top --url http://HOST:PORT [--interval-ms MS] [--iterations N]",
        build: top,
    },
    Subcommand {
        usage: "segdiff subscribe --url http://HOST:PORT --kind drop|jump --v V --t-hours H
            [--label NAME] [--sensors 1,2,...] [--json]
segdiff subscribe --url http://HOST:PORT --list | --delete ID  [--json]",
        build: subscribe,
    },
    Subcommand {
        usage: "segdiff watch --url http://HOST:PORT --sub ID [--after N]
            [--interval-ms MS] [--iterations N] [--json]",
        build: watch,
    },
];

/// The usage text shown on parse errors, rendered from [`SUBCOMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for sub in &SUBCOMMANDS {
        for line in sub.usage.lines() {
            let line = match line.strip_prefix("segdiff ") {
                Some(form) => {
                    let (name, rest) = form.split_once(' ').unwrap_or((form, ""));
                    format!("  segdiff {name:<8} {rest}")
                }
                None => format!("{:19}{}", "", line.trim_start()),
            };
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str(
        "\nenvironment:\n  SEGDIFF_LOG=off|error|warn|info|debug   diagnostic verbosity (default warn)",
    );
    out
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (name, rest) = argv.split_first().ok_or("missing subcommand")?;
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown subcommand {name}"))?;
    (sub.build)(&Flags::parse(sub.usage, rest.iter().cloned())?)
}

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
        /// The search `--kind`, `--v` and `--t-hours` name.
        region: QueryRegion,
        /// The plan `--plan` names (scan unless given).
        plan: QueryPlan,
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
        /// keep `--index` as the replica root, apply the primary's
        /// shipped `segments` rows, and serve reads with role "replica".
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
        /// The search the query mix is built around.
        region: QueryRegion,
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
        /// Register, list or remove.
        op: SubscribeOp,
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

/// What `segdiff subscribe` asks of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscribeOp {
    /// Register a standing query.
    Register {
        /// The standing search.
        region: QueryRegion,
        /// Human-readable label stored with the subscription.
        label: String,
        /// Sensors the subscription listens to (empty = all).
        sensors: Vec<u32>,
    },
    /// List the registered subscriptions.
    List,
    /// Remove this subscription.
    Delete(u64),
}

fn generate(f: &Flags) -> Result<Command, String> {
    Ok(Command::Generate {
        csv: f.required("--csv")?,
        days: f.required("--days")?,
        sensor: f.value("--sensor")?.unwrap_or(12),
        seed: f.value("--seed")?.unwrap_or(42),
        raw: f.switch("--raw"),
    })
}

fn ingest(f: &Flags) -> Result<Command, String> {
    Ok(Command::Ingest {
        index: f.required("--index")?,
        csv: f.required("--csv")?,
        epsilon: f.value("--epsilon")?.unwrap_or(0.2),
        window_hours: f.value("--window-hours")?.unwrap_or(8.0),
        no_smooth: f.switch("--no-smooth"),
    })
}

fn query(f: &Flags) -> Result<Command, String> {
    let kind = SearchKind::parse(&f.required::<String>("--kind")?)?;
    let plan = f.value::<String>("--plan")?;
    Ok(Command::Query {
        index: f.required("--index")?,
        region: search(kind, f.required("--v")?, f.required("--t-hours")?)?,
        plan: plan.map_or(Ok(QueryPlan::SeqScan), |p| QueryPlan::parse(&p))?,
        refine: f.value("--refine")?,
        limit: f.value("--limit")?.unwrap_or(50),
        trace: f.switch("--trace"),
        threads: at_least_one(f, "--threads", 8)?,
    })
}

fn stats(f: &Flags) -> Result<Command, String> {
    Ok(Command::Stats {
        index: f.required("--index")?,
        json: f.switch("--json"),
        series: f.switch("--series"),
    })
}

fn recover(f: &Flags) -> Result<Command, String> {
    Ok(Command::Recover {
        index: f.required("--index")?,
        json: f.switch("--json"),
    })
}

fn metrics(f: &Flags) -> Result<Command, String> {
    Ok(Command::Metrics {
        index: f.required("--index")?,
        json: f.switch("--json"),
    })
}

fn serve(f: &Flags) -> Result<Command, String> {
    let replica_of = f.value("--replica-of")?;
    let sensors = sensor_list(f)?;
    if replica_of.is_some() && !sensors.is_empty() {
        return Err("--replica-of mirrors whatever the primary serves; \
                    it cannot be combined with --sensors"
            .into());
    }
    Ok(Command::Serve {
        index: f.required("--index")?,
        port: f.value("--port")?.unwrap_or(7878),
        threads: at_least_one(f, "--threads", 8)?,
        queue_depth: f.value("--queue-depth")?.unwrap_or(64).max(1),
        sensors,
        replica_of,
        poll_ms: at_least_one(f, "--poll-ms", 200)?,
        json: f.switch("--json"),
        sample_ms: at_least_one(f, "--sample-ms", 500)?,
        slow_ms: f.value("--slow-ms")?.unwrap_or(25),
        alert_rules: f.value("--alert-rules")?,
    })
}

fn router(f: &Flags) -> Result<Command, String> {
    let shards: Vec<String> = f.values("--shard").map(String::from).collect();
    if shards.is_empty() {
        return Err("router needs at least one --shard PRIMARY[,REPLICA]".into());
    }
    Ok(Command::Router {
        port: f.value("--port")?.unwrap_or(7878),
        threads: at_least_one(f, "--threads", 8)?,
        queue_depth: f.value("--queue-depth")?.unwrap_or(64).max(1),
        shards,
        health_interval_ms: at_least_one(f, "--health-interval-ms", 500)?,
        json: f.switch("--json"),
    })
}

fn cluster(f: &Flags) -> Result<Command, String> {
    let shards = f.required("--shards")?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(Command::Cluster {
        index: f.required("--index")?,
        shards,
        print_plan: f.switch("--print-plan"),
        port: f.value("--port")?.unwrap_or(7878),
        threads: at_least_one(f, "--threads", 8)?,
        json: f.switch("--json"),
    })
}

fn loadgen(f: &Flags) -> Result<Command, String> {
    let kind = f.value::<String>("--kind")?;
    let kind = kind.map_or(Ok(SearchKind::Drop), |k| SearchKind::parse(&k))?;
    let v = f.value("--v")?.unwrap_or(match kind {
        SearchKind::Drop => -1.0,
        SearchKind::Jump => 1.0,
    });
    let duration_secs: f64 = f.value("--duration-secs")?.unwrap_or(5.0);
    if !(duration_secs.is_finite() && duration_secs > 0.0) {
        return Err("--duration-secs must be positive".into());
    }
    Ok(Command::Loadgen {
        url: f.required("--url")?,
        concurrency: at_least_one(f, "--concurrency", 8)?,
        duration_secs,
        region: search(kind, v, f.value("--t-hours")?.unwrap_or(1.0))?,
        guard: f.value("--guard")?,
    })
}

fn alerts(f: &Flags) -> Result<Command, String> {
    Ok(Command::Alerts {
        url: f.required("--url")?,
        json: f.switch("--json"),
        follow: f.switch("--follow"),
        after: f.value("--after")?.unwrap_or(0),
        interval_ms: at_least_one(f, "--interval-ms", 1000)?,
        iterations: f.value("--iterations")?.unwrap_or(0),
    })
}

fn top(f: &Flags) -> Result<Command, String> {
    Ok(Command::Top {
        url: f.required("--url")?,
        interval_ms: at_least_one(f, "--interval-ms", 1000)?,
        iterations: f.value("--iterations")?.unwrap_or(0),
    })
}

fn subscribe(f: &Flags) -> Result<Command, String> {
    let url = f.required("--url")?;
    let op = match (f.switch("--list"), f.value("--delete")?) {
        (true, Some(_)) => return Err("--list and --delete are mutually exclusive".into()),
        (true, None) => SubscribeOp::List,
        (false, Some(id)) => SubscribeOp::Delete(id),
        (false, None) => SubscribeOp::Register {
            region: search(
                SearchKind::parse(&f.required::<String>("--kind")?)?,
                f.required("--v")?,
                f.required("--t-hours")?,
            )?,
            label: f.value("--label")?.unwrap_or_default(),
            sensors: sensor_list(f)?,
        },
    };
    let json = f.switch("--json");
    Ok(Command::Subscribe { url, op, json })
}

fn watch(f: &Flags) -> Result<Command, String> {
    Ok(Command::Watch {
        url: f.required("--url")?,
        sub: f.required("--sub")?,
        after: f.value("--after")?.unwrap_or(0),
        interval_ms: at_least_one(f, "--interval-ms", 1000)?,
        iterations: f.value("--iterations")?.unwrap_or(0),
        json: f.switch("--json"),
    })
}

/// A count that defaults to `default` and must not be 0.
fn at_least_one<T: FromStr + Default + PartialEq>(
    f: &Flags,
    name: &str,
    default: T,
) -> Result<T, String> {
    match f.value(name)?.unwrap_or(default) {
        n if n == T::default() => Err(format!("{name} must be at least 1")),
        n => Ok(n),
    }
}

/// The search `--kind`, `--v` and `--t-hours` name, if it is one.
fn search(kind: SearchKind, v: f64, t_hours: f64) -> Result<QueryRegion, String> {
    QueryRegion::new(kind, t_hours * HOUR, v)
}

/// The `--sensors 1,2,3` comma list (empty when not given; blanks
/// allowed).
fn sensor_list(f: &Flags) -> Result<Vec<u32>, String> {
    let Some(list) = f.value::<String>("--sensors")? else {
        return Ok(Vec::new());
    };
    list.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse()
                .map_err(|_| format!("--sensors: {p:?} is not a sensor id"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn read(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Every `segdiff <word>` and `segdiff -- <word>` in `text`, with its
    /// line (`segdiff-lint` and `--segdiff PATH` are no mentions).
    fn mentions(text: &str) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            for (at, _) in line.match_indices("segdiff") {
                let before = line[..at].chars().next_back();
                if before.is_some_and(|c| c.is_ascii_alphanumeric() || "-_".contains(c)) {
                    continue;
                }
                let rest = &line[at + "segdiff".len()..];
                let Some(rest) = rest.strip_prefix(" -- ").or(rest.strip_prefix(' ')) else {
                    continue;
                };
                let word: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                if word.starts_with(|c: char| c.is_ascii_lowercase()) {
                    out.push((n + 1, word));
                }
            }
        }
        out
    }

    /// The arguments of every command line in `text` that runs `segdiff`,
    /// with its first line: lines ending in `\\` are joined, and a line
    /// ends at a comment or a shell operator. `bare` counts a plain
    /// `segdiff` (and `--bin segdiff --`) inside a code block; otherwise
    /// only a path to the binary (`./target/release/segdiff`) counts.
    fn command_lines(text: &str, bare: bool) -> Vec<(usize, Vec<String>)> {
        let mut out = Vec::new();
        let (mut in_block, mut joined, mut first) = (false, String::new(), 0);
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_block = !in_block;
                continue;
            }
            if bare && !in_block {
                continue;
            }
            if joined.is_empty() {
                first = n + 1;
            }
            if let Some(head) = line.trim_end().strip_suffix('\\') {
                joined.push_str(head);
                joined.push(' ');
                continue;
            }
            joined.push_str(line);
            let tokens: Vec<&str> = joined
                .split_whitespace()
                .take_while(|t| !t.starts_with(['#', '>', '|', '&', ';']) && *t != "2>&1")
                .collect();
            let program = tokens
                .iter()
                .position(|t| t.ends_with("/segdiff") || (bare && *t == "segdiff"));
            if let Some(at) = program {
                let args = &tokens[at + 1..];
                let args = args.strip_prefix(&["--"][..]).unwrap_or(args);
                if args
                    .first()
                    .is_some_and(|a| a.starts_with(|c: char| c.is_ascii_lowercase()))
                {
                    out.push((first, args.iter().map(|a| a.to_string()).collect()));
                }
            }
            joined.clear();
        }
        out
    }

    /// The README names every subcommand of the table and no other, and
    /// every `segdiff` command line of a README code block or a CI step
    /// parses.
    #[test]
    fn the_readme_and_ci_use_the_table() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(Subcommand::name).collect();
        let readme = read("README.md");
        let mentioned = mentions(&readme);
        for (line, word) in &mentioned {
            assert!(
                names.contains(&word.as_str()),
                "README.md:{line}: `segdiff {word}` is no subcommand"
            );
        }
        for name in &names {
            assert!(
                mentioned.iter().any(|(_, w)| w == name),
                "README.md never mentions `segdiff {name}`"
            );
        }
        for (file, bare) in [("README.md", true), (".github/workflows/ci.yml", false)] {
            let lines = command_lines(&read(file), bare);
            assert!(!lines.is_empty(), "{file}: no segdiff command line found");
            for (line, args) in lines {
                if let Err(e) = parse(&args) {
                    panic!("{file}:{line}: segdiff {}: {e}", args.join(" "));
                }
            }
        }
    }

    #[test]
    fn command_lines_are_joined_and_cut_at_shell_syntax() {
        let text =
            "run: |\n  ./target/release/segdiff serve --index i \\\n    --port 1 > log 2>&1 &\n  \
                    clustersmoke --segdiff target/release/segdiff --out o\n\
                    Build segdiff and the gates\n";
        let want = argv("serve --index i --port 1");
        assert_eq!(command_lines(text, false), vec![(2, want.clone())]);
        let text =
            "segdiff query\n```sh\n# segdiff watch\nsegdiff serve --index i \\\n  --port 1\n```\n";
        assert_eq!(command_lines(text, true), vec![(4, want)]);
        let names: Vec<String> =
            mentions("segdiff-lint, `--segdiff x`, segdiff top, --bin segdiff -- cluster")
                .into_iter()
                .map(|(_, w)| w)
                .collect();
        assert_eq!(names, ["top", "cluster"]);
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
                assert_eq!(plan, QueryPlan::SeqScan);
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
        for (gone, sub) in [
            (
                "query --index d --kind drop --v -3 --t-hours 1 --all-sensors",
                "query",
            ),
            ("serve --index d --all-sensors", "serve"),
        ] {
            assert_eq!(
                parse(&argv(gone)).unwrap_err(),
                format!("unknown flag --all-sensors for segdiff {sub}")
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
        // What the region's constructors would assert: V of the wrong
        // sign or not finite, T not positive or infinite in seconds.
        for bad in [
            "--kind drop --v 1 --t-hours 1",
            "--kind drop --v 0 --t-hours 1",
            "--kind drop --v -inf --t-hours 1",
            "--kind jump --v -1 --t-hours 1",
            "--kind jump --v NaN --t-hours 1",
            "--kind drop --v -3 --t-hours -1",
            "--kind drop --v -3 --t-hours 0",
            "--kind drop --v -3 --t-hours NaN",
            "--kind drop --v -3 --t-hours 1e305",
        ] {
            let line = format!("query --index d {bad}");
            assert!(parse(&argv(&line)).is_err(), "accepted: {line}");
        }
        assert_eq!(
            parse(&argv(
                "query --index d --kind drop --v -3 --t-hours 1 --plan turbo"
            ))
            .unwrap_err(),
            "--plan must be scan or index, not \"turbo\""
        );
        assert!(parse(&argv("ingest --index d --csv f --epsilon nope")).is_err());
        // A flag another subcommand takes is no flag of this one.
        for (line, flag, sub) in [
            (
                "query --index d --kind drop --v -3 --t-hours 1 --json",
                "--json",
                "query",
            ),
            ("generate --csv f --days 1 --port 9", "--port", "generate"),
            ("stats --index d --kind drop", "--kind", "stats"),
        ] {
            assert_eq!(
                parse(&argv(line)).unwrap_err(),
                format!("unknown flag {flag} for segdiff {sub}")
            );
        }
        assert!(parse(&argv(
            "query --index d stray --kind drop --v -3 --t-hours 1"
        ))
        .is_err());
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
                region: QueryRegion::drop(HOUR, -1.0),
                guard: None,
            }
        );
        let c = parse(&argv(
            "loadgen --url http://h:1 --concurrency 2 --duration-secs 0.5 \
             --kind jump --v 2 --t-hours 0.5 --guard ci/serving-guard.json",
        ))
        .unwrap();
        match c {
            Command::Loadgen { region, guard, .. } => {
                assert_eq!(region, QueryRegion::jump(0.5 * HOUR, 2.0));
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
                op: SubscribeOp::Register {
                    region: QueryRegion::drop(1.5 * HOUR, -2.0),
                    label: "coolant".into(),
                    sensors: vec![3, 7, 11],
                },
                json: true,
            }
        );
        for (line, op) in [
            ("subscribe --url u --list", SubscribeOp::List),
            ("subscribe --url u --delete 9", SubscribeOp::Delete(9)),
        ] {
            match parse(&argv(line)).unwrap() {
                Command::Subscribe { op: got, .. } => assert_eq!(got, op),
                _ => panic!(),
            }
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
