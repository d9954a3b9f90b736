//! Command implementations.

use crate::args::{Command, SubscribeOp};
use featurespace::QueryRegion;
use obs::export::Exporter;
use obs::json::Json;
use segdiff::refine::refine_results;
use segdiff::transect::fan_out;
use segdiff::{QueryPlan, SegDiffConfig, SegDiffIndex, TransectIndex};
use sensorgen::{
    generate_sensor, read_csv, smooth::RobustSmoother, write_csv, CadTransectConfig, HOUR,
};
use std::error::Error;
use std::path::Path;

type Anyhow = Box<dyn Error>;

/// Runs one parsed command.
pub fn run(cmd: Command) -> Result<(), Anyhow> {
    match cmd {
        Command::Generate {
            csv,
            days,
            sensor,
            seed,
            raw,
        } => generate(&csv, days, sensor, seed, raw),
        Command::Ingest {
            index,
            csv,
            epsilon,
            window_hours,
            no_smooth,
        } => ingest(&index, &csv, epsilon, window_hours, no_smooth),
        Command::Query {
            index,
            region,
            plan,
            refine,
            limit,
            trace,
            threads,
        } => query(
            &index,
            &region,
            plan,
            refine.as_deref(),
            limit,
            trace,
            threads,
        ),
        Command::Stats {
            index,
            json,
            series,
        } => stats(&index, json, series),
        Command::Recover { index, json } => recover(&index, json),
        Command::Metrics { index, json } => metrics(&index, json),
        Command::Serve {
            index,
            port,
            threads,
            queue_depth,
            sensors,
            replica_of,
            poll_ms,
            json,
            sample_ms,
            slow_ms,
            alert_rules,
        } => serve(ServeOpts {
            index,
            port,
            threads,
            queue_depth,
            sensors,
            replica_of,
            poll_ms,
            json,
            sample_ms,
            slow_ms,
            alert_rules,
        }),
        Command::Router {
            port,
            threads,
            queue_depth,
            shards,
            health_interval_ms,
            json,
        } => router(
            port,
            threads,
            queue_depth,
            &shards,
            health_interval_ms,
            json,
        ),
        Command::Cluster {
            index,
            shards,
            print_plan,
            port,
            threads,
            json,
        } => cluster(&index, shards, print_plan, port, threads, json),
        Command::Loadgen {
            url,
            concurrency,
            duration_secs,
            region,
            guard,
        } => loadgen(&url, concurrency, duration_secs, &region, guard.as_deref()),
        Command::Alerts {
            url,
            json,
            follow,
            after,
            interval_ms,
            iterations,
        } => {
            if follow {
                alerts_follow(&url, after, interval_ms, iterations)
            } else {
                alerts(&url, json)
            }
        }
        Command::Top {
            url,
            interval_ms,
            iterations,
        } => top(&url, interval_ms, iterations),
        Command::Subscribe { url, op, json } => subscribe(&url, op, json),
        Command::Watch {
            url,
            sub,
            after,
            interval_ms,
            iterations,
            json,
        } => watch(&url, sub, after, interval_ms, iterations, json),
    }
}

fn generate(csv: &Path, days: u32, sensor: u32, seed: u64, raw: bool) -> Result<(), Anyhow> {
    let cfg = CadTransectConfig::default().with_days(days);
    let mut series = generate_sensor(&cfg, sensor, seed);
    obs::debug!("generated {} raw observations (seed {seed})", series.len());
    if !raw {
        series = RobustSmoother::default().smooth(&series);
        obs::debug!("smoothed to {} observations", series.len());
    }
    write_csv(csv, &series)?;
    println!(
        "wrote {} observations ({} days, sensor {sensor}) to {}",
        series.len(),
        days,
        csv.display()
    );
    Ok(())
}

fn open_or_create(index: &Path, epsilon: f64, window_hours: f64) -> Result<SegDiffIndex, Anyhow> {
    if index.join("segdiff.meta").exists() {
        obs::info!("resuming existing index at {}", index.display());
        Ok(SegDiffIndex::open(index, 4096)?)
    } else {
        obs::info!(
            "creating index at {} (epsilon {epsilon}, window {window_hours} h)",
            index.display()
        );
        let cfg = SegDiffConfig::default()
            .with_epsilon(epsilon)
            .with_window(window_hours * HOUR);
        Ok(SegDiffIndex::create(index, cfg)?)
    }
}

fn ingest(
    index: &Path,
    csv: &Path,
    epsilon: f64,
    window_hours: f64,
    no_smooth: bool,
) -> Result<(), Anyhow> {
    let mut series = read_csv(csv)?;
    if !no_smooth {
        series = RobustSmoother::default().smooth(&series);
    }
    let mut idx = open_or_create(index, epsilon, window_hours)?;
    let before = idx.stats().n_observations;
    idx.ingest_series(&series)?;
    idx.finish()?;
    let s = idx.stats();
    println!(
        "ingested {} observations (total {}), {} segments (r = {:.2}), {} feature rows",
        s.n_observations - before,
        s.n_observations,
        s.n_segments,
        s.compression_rate(),
        s.n_rows
    );
    Ok(())
}

/// Renders one span of the query trace, `EXPLAIN ANALYZE`-style.
fn print_trace_node(node: &obs::TraceNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let mut attrs = String::new();
    for (k, v) in &node.attrs {
        let rendered = match v {
            Json::Str(s) => s.clone(),
            other => other.to_string_compact(),
        };
        attrs.push_str(&format!("  {k}={rendered}"));
    }
    println!(
        "{indent}-> {}  wall={:.3}ms{attrs}",
        node.name,
        node.wall_nanos as f64 / 1e6
    );
    for child in &node.children {
        print_trace_node(child, depth + 1);
    }
}

/// `segdiff query`: searches what `index` holds — every `sensor-<k>/`
/// index of a transect root, fanned out on a pool of `threads` workers,
/// or the one index of any other directory. A transect's results print
/// in sensor order, so the output below the timing header is
/// byte-identical for every `--threads` value.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per flag of the subcommand's usage line"
)]
fn query(
    index: &Path,
    region: &QueryRegion,
    plan: QueryPlan,
    refine: Option<&Path>,
    limit: usize,
    trace: bool,
    threads: usize,
) -> Result<(), Anyhow> {
    let is_transect = !TransectIndex::scan_ids(index)?.is_empty();
    let (transect, bare);
    let (ids, indexes): (&[u32], &[SegDiffIndex]) = if is_transect {
        transect = TransectIndex::open(index, 4096)?;
        (transect.sensor_ids(), transect.indexes())
    } else {
        bare = SegDiffIndex::open(index, 4096)?;
        (&[0], std::slice::from_ref(&bare))
    };
    if ids.len() > 1 && (refine.is_some() || trace) {
        return Err(format!(
            "--refine and --trace read one sensor, and {} holds {} (point --index at one sensor-<k>/)",
            index.display(),
            ids.len()
        )
        .into());
    }
    if trace {
        obs::trace_begin();
    }
    let sensors: Vec<&SegDiffIndex> = indexes.iter().collect();
    let (per_sensor, qstats) = fan_out(&sensors, threads, |s| s.query(region, plan))?;
    let total: usize = per_sensor.iter().map(Vec::len).sum();
    if is_transect {
        println!(
            "{total} periods across {} sensors ({} rows examined, {:.2} ms, {threads} thread{})",
            ids.len(),
            qstats.rows_considered,
            qstats.wall_seconds * 1e3,
            if threads == 1 { "" } else { "s" },
        );
    } else {
        println!(
            "{total} periods ({} rows examined, {:.2} ms)",
            qstats.rows_considered,
            qstats.wall_seconds * 1e3
        );
    }
    if trace {
        if let Some(node) = obs::trace_take() {
            println!();
            print_trace_node(&node, 0);
        }
        // The phase deltas tile the query: summing them must reproduce
        // the pool's total delta. Print both so it can be checked.
        let mut phases = pagestore::PoolStats::default();
        for p in &qstats.phases {
            phases = phases.merged(&p.io);
        }
        let consistent = phases == qstats.io;
        println!(
            "io: phases {}r+{}w ({} hit, {} miss) vs query total {}r+{}w ({} hit, {} miss) => {}",
            phases.physical_reads,
            phases.physical_writes,
            phases.hits,
            phases.misses,
            qstats.io.physical_reads,
            qstats.io.physical_writes,
            qstats.io.hits,
            qstats.io.misses,
            if consistent { "consistent" } else { "MISMATCH" },
        );
        println!();
    }
    let indent = if is_transect { "  " } else { "" };
    let mut printed = 0usize;
    for (id, pairs) in ids.iter().zip(&per_sensor) {
        if is_transect {
            println!("sensor {id}: {} periods", pairs.len());
        }
        for p in pairs.iter().take(limit - printed) {
            printed += 1;
            println!(
                "{indent}start in [{:.1}, {:.1}]  end in [{:.1}, {:.1}]{}",
                p.t_d,
                p.t_c,
                p.t_b,
                p.t_a,
                if p.is_self_pair() {
                    "  (single segment)"
                } else {
                    ""
                }
            );
        }
    }
    if total > limit {
        println!("... and {} more (raise --limit)", total - limit);
    }
    if let (Some(raw_csv), [results]) = (refine, per_sensor.as_slice()) {
        let series = read_csv(raw_csv)?;
        let refined = refine_results(&series, results, region, 24);
        let exact = refined.iter().filter(|e| e.meets_threshold).count();
        println!(
            "\nrefined against {}: {exact}/{} meet the threshold exactly",
            raw_csv.display(),
            refined.len()
        );
        for e in refined.iter().filter(|e| e.meets_threshold).take(limit) {
            println!(
                "event at t = {:.1} .. {:.1}: change {:.3}",
                e.t1, e.t2, e.dv
            );
        }
    }
    Ok(())
}

/// `segdiff stats --series`: runs the self-observation sampler over a
/// probe query offline — tick, probe, tick — so the same derived series
/// a running server publishes on `GET /series` (counter rates, interval
/// quantiles, gauges) can be inspected without a server.
fn sampled_series(idx: &SegDiffIndex) -> Result<obs::series::SeriesStore, Anyhow> {
    let store = obs::series::SeriesStore::new(obs::series::DEFAULT_SERIES_CAPACITY);
    let mut sampler = obs::series::SamplerState::new();
    let w = idx.config().window;
    sampler.tick(obs::global(), &store, obs::unix_ms());
    for region in [QueryRegion::drop(w, -0.1), QueryRegion::jump(w, 0.1)] {
        let _ = idx.query(&region, QueryPlan::SeqScan)?;
        let _ = idx.query(&region, QueryPlan::Index)?;
    }
    // The sampler derives rates and interval quantiles from deltas
    // between ticks, so the clock must advance between them.
    std::thread::sleep(std::time::Duration::from_millis(25));
    sampler.tick(obs::global(), &store, obs::unix_ms());
    Ok(store)
}

fn stats(index: &Path, json: bool, series: bool) -> Result<(), Anyhow> {
    let idx = SegDiffIndex::open(index, 4096)?;
    let s = idx.stats();
    let hist = s.corner_hist();
    let sampled = if series {
        Some(sampled_series(&idx)?)
    } else {
        None
    };
    if json {
        let mut doc = Json::obj([
            ("observations", Json::from(s.n_observations)),
            ("segments", Json::from(s.n_segments)),
            ("sealed_segments", Json::from(s.sealed_segments)),
            ("compression_rate", Json::from(s.compression_rate())),
            ("feature_rows", Json::from(s.n_rows)),
            ("feature_rows_represented", Json::from(hist.total())),
            ("feature_payload_bytes", Json::from(s.feature_payload_bytes)),
            ("paper_feature_bytes", Json::from(s.paper_feature_bytes)),
            ("heap_bytes", Json::from(s.heap_bytes)),
            ("index_bytes", Json::from(s.index_bytes)),
            ("disk_bytes", Json::from(s.disk_bytes())),
            (
                "corner_hist",
                Json::obj([
                    ("one", Json::from(hist.counts[0])),
                    ("two", Json::from(hist.counts[1])),
                    ("three", Json::from(hist.counts[2])),
                    ("effective", Json::from(hist.effective_corners())),
                ]),
            ),
            (
                "config",
                Json::obj([
                    ("epsilon", Json::from(idx.config().epsilon)),
                    ("window_hours", Json::from(idx.config().window / HOUR)),
                ]),
            ),
            (
                "durability",
                Json::obj([
                    ("wal", Json::Bool(idx.last_checkpoint_lsn().is_some())),
                    (
                        "last_checkpoint_lsn",
                        idx.last_checkpoint_lsn().map_or(Json::Null, Json::from),
                    ),
                    (
                        "recovered",
                        Json::Bool(idx.recovery_report().is_some_and(|r| !r.clean)),
                    ),
                ]),
            ),
        ]);
        if let (Some(store), Json::Object(fields)) = (&sampled, &mut doc) {
            let series_json: Vec<Json> = store
                .names()
                .iter()
                .map(|name| {
                    let last = store.last(name);
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("points", Json::from(store.since(name, 0).len() as u64)),
                        ("last", last.map_or(Json::Null, |p| Json::Float(p.value))),
                    ])
                })
                .collect();
            fields.push(("series".to_string(), Json::Array(series_json)));
        }
        println!("{doc}");
        return Ok(());
    }
    println!("observations:    {}", s.n_observations);
    println!(
        "segments:        {} (r = {:.2}), {} sealed",
        s.n_segments,
        s.compression_rate(),
        s.sealed_segments
    );
    println!(
        "feature rows:    {} stored of {} represented (the rest generated from sealed segments)",
        s.n_rows,
        hist.total()
    );
    println!(
        "feature bytes:   {} ({} under the paper's c2 accounting)",
        s.feature_payload_bytes, s.paper_feature_bytes
    );
    println!("heap bytes:      {}", s.heap_bytes);
    println!("index bytes:     {}", s.index_bytes);
    println!(
        "corner cases:    {:.1}% / {:.1}% / {:.1}% (effective {:.2})",
        hist.percent(1),
        hist.percent(2),
        hist.percent(3),
        hist.effective_corners()
    );
    println!(
        "config:          epsilon {}, window {:.1} h",
        idx.config().epsilon,
        idx.config().window / HOUR
    );
    match idx.last_checkpoint_lsn() {
        Some(lsn) => println!(
            "durability:      WAL on, last checkpoint LSN {lsn}{}",
            if idx.recovery_report().is_some_and(|r| !r.clean) {
                " (this open replayed the log)"
            } else {
                ""
            }
        ),
        None => println!("durability:      WAL off"),
    }
    if let Some(store) = &sampled {
        println!("sampled series (probe query, one interval):");
        for name in store.names() {
            let last = store
                .last(&name)
                .map_or("-".to_string(), |p| format!("{:.3}", p.value));
            println!("  {name:<40} {last}");
        }
    }
    Ok(())
}

/// `segdiff recover`: an fsck for index directories. Opening the index
/// runs WAL recovery if the last shutdown was unclean; this then verifies
/// the restored index against its own invariants and reports what
/// recovery did. Exits non-zero if verification fails.
fn recover(index: &Path, json: bool) -> Result<(), Anyhow> {
    let idx = SegDiffIndex::open(index, 4096)?;
    let report = idx.recovery_report().cloned();
    let verified = idx.verify_consistency();
    let segments = idx.stats().n_segments;
    if json {
        let report_json = match &report {
            Some(r) => Json::obj([
                ("clean", Json::Bool(r.clean)),
                ("scanned_records", Json::from(r.scanned_records)),
                ("replayed_pages", Json::from(r.replayed_pages)),
                ("torn_bytes", Json::from(r.torn_bytes)),
                ("truncated_rows", Json::from(r.truncated_rows)),
                ("dropped_indexes", Json::from(r.dropped_indexes)),
                (
                    "pruned_tables",
                    Json::Array(
                        r.pruned_tables
                            .iter()
                            .map(|t| Json::Str(t.clone()))
                            .collect(),
                    ),
                ),
                ("checkpoint_lsn", Json::from(r.checkpoint_lsn)),
                ("last_lsn", Json::from(r.last_lsn)),
            ]),
            None => Json::Null,
        };
        let doc = Json::obj([
            ("wal", Json::Bool(report.is_some())),
            ("recovery", report_json),
            ("segments", Json::from(segments)),
            ("consistent", Json::Bool(verified.is_ok())),
            (
                "error",
                match &verified {
                    Ok(()) => Json::Null,
                    Err(e) => Json::Str(e.to_string()),
                },
            ),
        ]);
        println!("{doc}");
    } else {
        match &report {
            None => println!("wal: off (nothing to recover)"),
            Some(r) if r.clean => {
                println!("wal: clean shutdown, no replay needed");
            }
            Some(r) => {
                println!("wal: unclean shutdown recovered");
                println!("  records scanned:   {}", r.scanned_records);
                println!("  pages replayed:    {}", r.replayed_pages);
                println!("  torn bytes:        {}", r.torn_bytes);
                println!("  rows truncated:    {}", r.truncated_rows);
                println!("  B+trees rebuilt:   {}", r.dropped_indexes);
                if !r.pruned_tables.is_empty() {
                    println!("  tables pruned:     {}", r.pruned_tables.join(", "));
                }
                println!(
                    "  LSNs:              checkpoint {} .. last {}",
                    r.checkpoint_lsn, r.last_lsn
                );
            }
        }
        println!("segments: {segments}");
        match &verified {
            Ok(()) => println!("consistency: ok (segment chain + feature replay verified)"),
            Err(e) => println!("consistency: FAILED: {e}"),
        }
    }
    verified?;
    Ok(())
}

/// Opens the index, runs one representative query per plan against it,
/// and dumps everything the telemetry registry collected — pool and
/// B+tree counters, ingest counters, and per-span latency histograms.
fn metrics(index: &Path, json: bool) -> Result<(), Anyhow> {
    let idx = SegDiffIndex::open(index, 4096)?;
    let w = idx.config().window;
    // A permissive probe region of each kind, searched on both plans: the
    // first search decodes the segments through the pool.
    for region in [QueryRegion::drop(w, -0.1), QueryRegion::jump(w, 0.1)] {
        let _ = idx.query(&region, QueryPlan::SeqScan)?;
        let _ = idx.query(&region, QueryPlan::Index)?;
    }
    let snapshot = obs::global().snapshot();
    let rendered = if json {
        obs::export::JsonLinesExporter::default().export(&snapshot)
    } else {
        obs::export::TextExporter.export(&snapshot)
    };
    print!("{rendered}");
    Ok(())
}

fn render_registry(json: bool) -> String {
    let snapshot = obs::global().snapshot();
    if json {
        obs::export::JsonLinesExporter::default().export(&snapshot)
    } else {
        obs::export::TextExporter.export(&snapshot)
    }
}

/// Everything `segdiff serve` parses. It serves what `index` holds — one
/// index, or a transect root's `sensor-<k>/` indexes, which `sensors`
/// narrows to a shard's slice — or, with `replica_of`, a warm replica
/// bootstrapped into it.
struct ServeOpts {
    index: std::path::PathBuf,
    port: u16,
    threads: usize,
    queue_depth: usize,
    sensors: Vec<u32>,
    replica_of: Option<String>,
    poll_ms: u64,
    json: bool,
    sample_ms: u64,
    slow_ms: u64,
    alert_rules: Option<std::path::PathBuf>,
}

/// Spawns the thread bridging SIGINT/SIGTERM into a shutdown flag. The
/// watcher also exits when the flag is set another way (POST /shutdown).
fn bridge_signals(flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use segdiff_server::server::signal;
    use std::sync::atomic::Ordering;

    std::thread::spawn(move || loop {
        if signal::triggered() {
            obs::info!("signal received; draining");
            flag.store(true, Ordering::Release);
            return;
        }
        if flag.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

fn serve(opts: ServeOpts) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::parse_url;
    use segdiff_server::server::signal;
    use segdiff_server::{Engine, Replica, ReplicaConfig, Server, ServerConfig, ShardRole};
    use std::sync::Arc;

    // A replica bootstraps its store from the primary before binding, so
    // the first request already sees data; the tail thread below keeps
    // it warm afterwards.
    let replica = match &opts.replica_of {
        Some(url) => {
            let primary = parse_url(url)?;
            obs::info!(
                "bootstrapping replica of http://{primary} into {}",
                opts.index.display()
            );
            Some(Replica::bootstrap(ReplicaConfig {
                primary,
                root: opts.index.clone(),
                threads: opts.threads,
                poll: std::time::Duration::from_millis(opts.poll_ms),
                ..ReplicaConfig::default()
            })?)
        }
        None => None,
    };
    let engine = match &replica {
        Some(r) => r.engine(),
        None => {
            let held = TransectIndex::scan_ids(&opts.index)?;
            let wanted = if opts.sensors.is_empty() {
                &held
            } else {
                &opts.sensors
            };
            if !held.is_empty() {
                let transect = TransectIndex::open_subset(&opts.index, 4096, wanted)?;
                Engine::transect(Arc::new(transect), opts.threads)
            } else if wanted.is_empty() {
                Engine::from(Arc::new(SegDiffIndex::open(&opts.index, 4096)?))
            } else {
                return Err(format!(
                    "--sensors narrows a transect root, and {} holds no sensor-<k>/ index",
                    opts.index.display()
                )
                .into());
            }
        }
    };
    let rules = match &opts.alert_rules {
        Some(path) => segdiff::alerts::AlertRuleSet::load(path)?,
        None => segdiff::alerts::AlertRuleSet::defaults(),
    };
    signal::install();
    let role = if replica.is_some() {
        ShardRole::Replica
    } else {
        ShardRole::Primary
    };
    let server = Server::bind(
        &format!("127.0.0.1:{}", opts.port),
        engine.clone(),
        ServerConfig {
            threads: opts.threads,
            queue_depth: opts.queue_depth,
            sample_period: std::time::Duration::from_millis(opts.sample_ms),
            slow_trace: std::time::Duration::from_millis(opts.slow_ms),
            alert_rules: rules,
            role,
            ..ServerConfig::default()
        },
    )?;
    let flag = server.shutdown_flag();
    bridge_signals(Arc::clone(&flag));
    // The replica's tail shares the server's shutdown flag, so one drain
    // stops both the HTTP workers and the loop applying shipped rows.
    let tail = replica.map(|r| {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || r.run(flag))
    });
    println!(
        "listening on http://{} ({}, {} sensor{}, {} worker thread{}, queue depth {})",
        server.local_addr(),
        role.name(),
        engine.num_sensors(),
        if engine.num_sensors() == 1 { "" } else { "s" },
        opts.threads,
        if opts.threads == 1 { "" } else { "s" },
        opts.queue_depth,
    );
    server.run()?;
    if let Some(tail) = tail {
        let _ = tail.join();
    }
    // Drained: no query is in flight and no row is being applied. Flush
    // what a replica's tail applied after the server's own drain flush,
    // then print the final registry snapshot like `segdiff metrics`.
    engine.flush()?;
    println!("shutdown complete; final telemetry:");
    print!("{}", render_registry(opts.json));
    Ok(())
}

/// `segdiff router`: the cluster front-end. Owns no data — consistent-
/// hashes sensors over the configured shards and scatter–gathers every
/// `POST /query` (see the `router` crate).
fn router(
    port: u16,
    threads: usize,
    queue_depth: usize,
    shards: &[String],
    health_interval_ms: u64,
    json: bool,
) -> Result<(), Anyhow> {
    use router::{Router, RouterConfig, ShardSpec};
    use segdiff_server::loadgen::parse_url;
    use segdiff_server::server::signal;

    let mut specs = Vec::new();
    for spec in shards {
        let mut parts = spec.splitn(3, ',');
        let primary = parse_url(parts.next().unwrap_or_default())?;
        let replica = parts.next().map(parse_url).transpose()?;
        if parts.next().is_some() {
            return Err(format!("--shard takes PRIMARY[,REPLICA], got {spec:?}").into());
        }
        specs.push(ShardSpec { primary, replica });
    }
    signal::install();
    let with_replica = specs.iter().filter(|s| s.replica.is_some()).count();
    let router = Router::bind(
        &format!("127.0.0.1:{port}"),
        RouterConfig {
            shards: specs,
            threads,
            queue_depth,
            health_interval: std::time::Duration::from_millis(health_interval_ms),
            ..RouterConfig::default()
        },
    )?;
    bridge_signals(router.shutdown_flag());
    println!(
        "router listening on http://{} ({} shard{}, {with_replica} with replicas, probing every {health_interval_ms} ms)",
        router.local_addr(),
        router.board().num_shards(),
        if router.board().num_shards() == 1 { "" } else { "s" },
    );
    router.run()?;
    println!("shutdown complete; final telemetry:");
    print!("{}", render_registry(json));
    Ok(())
}

/// `segdiff cluster`: one-process quickstart for the sharded tier.
/// Partitions the transect's sensors over N shards with the same
/// consistent-hash ring the router uses, runs each shard as an
/// in-process server on an ephemeral port, and fronts them with a
/// router on `--port`. `--print-plan` prints the ring assignment as
/// JSON instead of serving (scripts use it to build per-shard stores).
fn cluster(
    index: &Path,
    shards: usize,
    print_plan: bool,
    port: u16,
    threads: usize,
    json: bool,
) -> Result<(), Anyhow> {
    use router::{Ring, Router, RouterConfig, ShardSpec};
    use segdiff_server::server::signal;
    use segdiff_server::{Engine, Server, ServerConfig};
    use std::sync::Arc;

    let ids = TransectIndex::scan_ids(index)?;
    if ids.is_empty() {
        return Err(format!("no sensor-<k>/ stores under {}", index.display()).into());
    }
    let ring = Ring::new(shards);
    let buckets = ring.partition(&ids);
    if print_plan {
        let assignment: Vec<Json> = buckets
            .iter()
            .enumerate()
            .map(|(shard, bucket)| {
                Json::obj([
                    ("shard", Json::from(shard as u64)),
                    (
                        "sensors",
                        Json::Array(bucket.iter().map(|&s| Json::from(u64::from(s))).collect()),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("shards", Json::from(shards as u64)),
            ("sensors", Json::from(ids.len() as u64)),
            ("assignment", Json::Array(assignment)),
        ]);
        println!("{doc}");
        return Ok(());
    }

    // The router's ring index must line up with the shard list, so an
    // empty bucket cannot simply be skipped — and a store cannot be
    // opened over zero sensors. Refuse: the operator asked for more
    // shards than the data can fill.
    if let Some((shard, _)) = buckets.iter().enumerate().find(|(_, b)| b.is_empty()) {
        return Err(format!(
            "shard {shard} would own no sensors ({} sensors over {shards} shards); use fewer shards",
            ids.len()
        )
        .into());
    }

    signal::install();
    let mut specs = Vec::new();
    let mut engines = Vec::new();
    let mut shard_servers = Vec::new();
    for (shard, bucket) in buckets.iter().enumerate() {
        let engine = Engine::transect(
            Arc::new(TransectIndex::open_subset(index, 4096, bucket)?),
            threads,
        );
        let server = Server::bind(
            "127.0.0.1:0",
            engine.clone(),
            ServerConfig {
                threads,
                queue_depth: 64,
                ..ServerConfig::default()
            },
        )?;
        let addr = server.local_addr().to_string();
        println!("shard {shard}: http://{addr} ({} sensors)", bucket.len());
        specs.push(ShardSpec {
            primary: addr,
            replica: None,
        });
        engines.push(engine);
        shard_servers.push(server.spawn());
    }

    let router = Router::bind(
        &format!("127.0.0.1:{port}"),
        RouterConfig {
            shards: specs,
            threads,
            ..RouterConfig::default()
        },
    )?;
    bridge_signals(router.shutdown_flag());
    println!(
        "cluster ready: router at http://{} over {shards} shard{} ({} sensors)",
        router.local_addr(),
        if shards == 1 { "" } else { "s" },
        ids.len()
    );
    let run_result = router.run();
    // Router drained (signal or POST /shutdown): drain the shards too.
    for server in shard_servers {
        server.stop()?;
    }
    run_result?;
    for engine in &engines {
        engine.flush()?;
    }
    println!("shutdown complete; final telemetry:");
    print!("{}", render_registry(json));
    Ok(())
}

fn loadgen(
    url: &str,
    concurrency: usize,
    duration_secs: f64,
    region: &QueryRegion,
    guard: Option<&Path>,
) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::{check_p99_guard, fetch, parse_url, query_mix, run as run_load};
    use segdiff_server::LoadgenConfig;

    let host = parse_url(url)?;
    let bodies = query_mix(region);
    println!(
        "loadgen: {concurrency} closed-loop worker{} x {duration_secs} s against http://{host} \
         ({} distinct queries)",
        if concurrency == 1 { "" } else { "s" },
        bodies.len()
    );
    let report = run_load(&LoadgenConfig {
        host: host.clone(),
        concurrency,
        duration: std::time::Duration::from_secs_f64(duration_secs),
        bodies: bodies.clone(),
    })?;
    let l = report.latency;
    let ms = |nanos: u64| nanos as f64 / 1e6;
    println!(
        "requests: {} ok, {} non-2xx, {} errors in {:.2} s => {:.1} qps",
        report.ok,
        report.non_2xx,
        report.errors,
        report.elapsed,
        report.qps()
    );
    println!(
        "latency:  p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
        ms(l.p50),
        ms(l.p90),
        ms(l.p99),
        ms(l.max)
    );
    // Transport errors broken down by query body, so a run that only
    // fails on one endpoint shape says which one.
    for (body, errors) in bodies.iter().zip(&report.errors_by_body) {
        if *errors > 0 {
            println!(
                "errors:   {errors} transport error{} on {body}",
                if *errors == 1 { "" } else { "s" }
            );
        }
    }
    // Best-effort server-side cache view, so a run shows whether the
    // repeat queries actually hit the result cache.
    if let Ok((200, text)) = fetch(&host, "GET", "/metrics?format=json", None) {
        let value_of = |name: &str| -> u64 {
            text.lines()
                .filter_map(|line| Json::parse(line).ok())
                .filter(|j| j.get("name").and_then(Json::as_str) == Some(name))
                .filter_map(|j| j.get("value").and_then(Json::as_u64))
                .sum()
        };
        println!(
            "server:   cache.hit {}  cache.miss {}  server.rejected {}",
            value_of("cache.hit"),
            value_of("cache.miss"),
            value_of("server.rejected")
        );
    }
    if let Some(guard_path) = guard {
        println!("guard:    {}", check_p99_guard(&l, guard_path)?);
    }
    if report.errors > 0 || report.non_2xx > 0 {
        return Err(format!(
            "{} transport errors, {} non-2xx responses",
            report.errors, report.non_2xx
        )
        .into());
    }
    if report.ok == 0 {
        return Err("no request completed".into());
    }
    Ok(())
}

/// `segdiff alerts`: the server's standing drop/jump rules and every
/// alert they have fired, straight from `GET /alerts`.
fn alerts(url: &str, json: bool) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::{fetch, parse_url};

    let host = parse_url(url)?;
    let (status, body) = fetch(&host, "GET", "/alerts", None)?;
    if status != 200 {
        return Err(format!("GET /alerts returned {status}: {body}").into());
    }
    if json {
        println!("{body}");
        return Ok(());
    }
    let doc = Json::parse(&body).map_err(|e| format!("bad /alerts response: {e}"))?;
    let empty = Vec::new();
    let rules = doc.get("rules").and_then(Json::as_array).unwrap_or(&empty);
    println!("standing rules ({}):", rules.len());
    for r in rules {
        let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {:<20} {:<5} on {:<28} V={:<8} T={:.0}s  epsilon={} scale={} transform={}",
            r.get("name").and_then(Json::as_str).unwrap_or("?"),
            r.get("kind").and_then(Json::as_str).unwrap_or("?"),
            r.get("metric").and_then(Json::as_str).unwrap_or("?"),
            f("v"),
            f("t_seconds"),
            f("epsilon"),
            f("scale"),
            r.get("transform").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    let alerts = doc.get("alerts").and_then(Json::as_array).unwrap_or(&empty);
    if alerts.is_empty() {
        println!("no alerts fired");
        return Ok(());
    }
    println!("fired ({}):", alerts.len());
    for a in alerts {
        println!("  {}", alert_line(a));
    }
    Ok(())
}

/// Renders one fired alert from the `/alerts` JSON as a text line.
fn alert_line(a: &Json) -> String {
    let f = |k: &str| a.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    format!(
        "[{}] {} {} on {}: dv={:.2} start in [{:.0}, {:.0}] end in [{:.0}, {:.0}]",
        a.get("fired_at_ms").and_then(Json::as_u64).unwrap_or(0),
        a.get("rule").and_then(Json::as_str).unwrap_or("?"),
        a.get("kind").and_then(Json::as_str).unwrap_or("?"),
        a.get("metric").and_then(Json::as_str).unwrap_or("?"),
        f("dv"),
        f("t_d"),
        f("t_c"),
        f("t_b"),
        f("t_a"),
    )
}

/// `segdiff alerts --follow`: tails the server's sequenced alert log over
/// the `/alerts?after=` cursor, printing each alert exactly once. The
/// cursor never repeats an alert; if the server's bounded log overflows
/// between polls, the missed alerts show up as sequence gaps.
fn alerts_follow(url: &str, after: u64, interval_ms: u64, iterations: u64) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::{fetch, parse_url};

    let host = parse_url(url)?;
    let mut cursor = after;
    let mut polls = 0u64;
    loop {
        polls += 1;
        let (status, body) = fetch(&host, "GET", &format!("/alerts?after={cursor}"), None)?;
        if status != 200 {
            return Err(format!("GET /alerts returned {status}: {body}").into());
        }
        let doc = Json::parse(&body).map_err(|e| format!("bad /alerts response: {e}"))?;
        let empty = Vec::new();
        for a in doc.get("alerts").and_then(Json::as_array).unwrap_or(&empty) {
            println!(
                "seq={} {}",
                a.get("seq").and_then(Json::as_u64).unwrap_or(0),
                alert_line(a)
            );
        }
        cursor = doc
            .get("next_after")
            .and_then(Json::as_u64)
            .unwrap_or(cursor);
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `segdiff top` frame: the headline series, alert count, and the
/// slowest recent requests, all fetched from the server's observability
/// routes.
fn top_frame(host: &str) -> Result<String, Anyhow> {
    use segdiff_server::loadgen::fetch;

    let mut out = String::new();
    let last_of = |name: &str| -> Option<f64> {
        let (status, body) =
            fetch(host, "GET", &format!("/series?name={name}&window=5m"), None).ok()?;
        if status != 200 {
            return None;
        }
        let doc = Json::parse(&body).ok()?;
        doc.get("points")?
            .as_array()?
            .last()?
            .get("value")
            .and_then(Json::as_f64)
    };
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
    out.push_str(&format!(
        "qps {:<10} inflight {:<6} queue {:<6} resident pages {}\n",
        fmt(last_of("server.queries.rate")),
        fmt(last_of("server.inflight")),
        fmt(last_of("server.queue_depth")),
        fmt(last_of("pool.resident_pages")),
    ));
    let ms = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{:.2}ms", x / 1e6));
    out.push_str(&format!(
        "query latency p50 {:<12} p99 {}\n",
        ms(last_of("server.query_nanos.p50")),
        ms(last_of("server.query_nanos.p99")),
    ));
    let (status, body) = fetch(host, "GET", "/alerts", None)?;
    if status == 200 {
        let doc = Json::parse(&body).map_err(|e| format!("bad /alerts response: {e}"))?;
        let fired = doc.get("fired").and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!("alerts fired: {fired}"));
        if let Some(last) = doc
            .get("alerts")
            .and_then(Json::as_array)
            .and_then(|a| a.last())
        {
            out.push_str(&format!(
                "  (latest: {} on {})",
                last.get("rule").and_then(Json::as_str).unwrap_or("?"),
                last.get("metric").and_then(Json::as_str).unwrap_or("?"),
            ));
        }
        out.push('\n');
    }
    let (status, body) = fetch(host, "GET", "/debug/traces?ring=slow&n=3", None)?;
    if status == 200 {
        let doc = Json::parse(&body).map_err(|e| format!("bad /debug/traces response: {e}"))?;
        let empty = Vec::new();
        let traces = doc.get("traces").and_then(Json::as_array).unwrap_or(&empty);
        out.push_str(&format!("slow/error traces retained: {}\n", traces.len()));
        for t in traces {
            out.push_str(&format!(
                "  #{} {} {:.2}ms status {}\n",
                t.get("trace_id").and_then(Json::as_u64).unwrap_or(0),
                t.get("name").and_then(Json::as_str).unwrap_or("?"),
                t.get("wall_nanos").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                t.get("status").and_then(Json::as_u64).unwrap_or(0),
            ));
        }
    }
    Ok(out)
}

/// `segdiff top`: a periodically refreshing view of the server watching
/// itself. `--iterations N` renders N frames and exits (0 = run until
/// interrupted); each frame is one screenful, separated by a rule line
/// so the output also reads fine in a pipe.
fn top(url: &str, interval_ms: u64, iterations: u64) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::parse_url;

    let host = parse_url(url)?;
    let mut frame = 0u64;
    loop {
        frame += 1;
        match top_frame(&host) {
            Ok(body) => {
                println!("--- segdiff top @ {host} (frame {frame}) ---");
                print!("{body}");
            }
            Err(e) => println!("--- segdiff top @ {host} (frame {frame}): {e} ---"),
        }
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `segdiff subscribe`: register a standing query region on a running
/// server (or `--list` / `--delete ID` to manage existing ones). The
/// server evaluates every committed feature against the region and
/// queues notifications behind the per-subscription cursor that
/// `segdiff watch` follows.
fn subscribe(url: &str, op: SubscribeOp, json: bool) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::{fetch, parse_url};

    let host = parse_url(url)?;
    let (region, label, sensors) = match op {
        SubscribeOp::Register {
            region,
            label,
            sensors,
        } => (region, label, sensors),
        SubscribeOp::List => return list_subscriptions(&host, json),
        SubscribeOp::Delete(id) => {
            let (status, body) = fetch(&host, "DELETE", &format!("/subscribe/{id}"), None)?;
            if status != 200 {
                return Err(format!("DELETE /subscribe/{id} returned {status}: {body}").into());
            }
            if json {
                println!("{body}");
            } else {
                println!("unsubscribed #{id}");
            }
            return Ok(());
        }
    };
    let mut fields = vec![
        ("kind".to_string(), Json::from(region.kind.name())),
        ("v".to_string(), Json::from(region.v)),
        ("t_seconds".to_string(), Json::from(region.t)),
    ];
    if !label.is_empty() {
        fields.push(("label".to_string(), Json::from(label)));
    }
    if !sensors.is_empty() {
        fields.push((
            "sensors".to_string(),
            Json::Array(sensors.iter().map(|&s| Json::from(u64::from(s))).collect()),
        ));
    }
    let body = Json::Object(fields).to_string_compact();
    let (status, resp) = fetch(&host, "POST", "/subscribe", Some(&body))?;
    if status != 200 {
        return Err(format!("POST /subscribe returned {status}: {resp}").into());
    }
    if json {
        println!("{resp}");
        return Ok(());
    }
    let doc = Json::parse(&resp).map_err(|e| format!("bad /subscribe response: {e}"))?;
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "subscribed #{id} ({} V={} T={:.0}s); follow it with: segdiff watch --url {url} --sub {id}",
        region.kind.name(),
        region.v,
        region.t,
    );
    Ok(())
}

/// `segdiff subscribe --list`: every standing query and what each
/// sensor has matched.
fn list_subscriptions(host: &str, json: bool) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::fetch;

    let (status, body) = fetch(host, "GET", "/subscribe", None)?;
    if status != 200 {
        return Err(format!("GET /subscribe returned {status}: {body}").into());
    }
    if json {
        println!("{body}");
        return Ok(());
    }
    let doc = Json::parse(&body).map_err(|e| format!("bad /subscribe response: {e}"))?;
    let empty = Vec::new();
    let subs = doc
        .get("subscriptions")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    println!("standing queries ({}):", subs.len());
    for s in subs {
        let sensor_list = s
            .get("sensors")
            .and_then(Json::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_u64)
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        println!(
            "  #{} {:<20} {:<5} V={:<8} T={:.0}s  sensors=[{}]",
            s.get("id").and_then(Json::as_u64).unwrap_or(0),
            s.get("label").and_then(Json::as_str).unwrap_or("-"),
            s.get("kind").and_then(Json::as_str).unwrap_or("?"),
            s.get("v").and_then(Json::as_f64).unwrap_or(f64::NAN),
            s.get("t").and_then(Json::as_f64).unwrap_or(f64::NAN),
            sensor_list,
        );
    }
    for st in doc
        .get("sensors")
        .and_then(Json::as_array)
        .unwrap_or(&empty)
    {
        println!(
            "  sensor {}: {} matching events seen (~{:.2}/h)",
            st.get("sensor").and_then(Json::as_u64).unwrap_or(0),
            st.get("events").and_then(Json::as_u64).unwrap_or(0),
            st.get("expected_per_hour")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
    }
    Ok(())
}

/// `segdiff watch`: follows one subscription's notification cursor via
/// `GET /notifications?sub=&after=`, printing each match exactly once.
/// The cursor survives reconnects — re-run with `--after N` to resume
/// where a previous watch left off.
fn watch(
    url: &str,
    sub: u64,
    after: u64,
    interval_ms: u64,
    iterations: u64,
    json: bool,
) -> Result<(), Anyhow> {
    use segdiff_server::loadgen::{fetch, parse_url};

    let host = parse_url(url)?;
    let (status, body) = fetch(&host, "GET", &format!("/subscribe/{sub}"), None)?;
    if status != 200 {
        return Err(format!("GET /subscribe/{sub} returned {status}: {body}").into());
    }
    if !json {
        let doc = Json::parse(&body).map_err(|e| format!("bad /subscribe response: {e}"))?;
        println!(
            "watching #{sub} {} ({} V={} T={:.0}s) from seq {after}",
            doc.get("label").and_then(Json::as_str).unwrap_or("-"),
            doc.get("kind").and_then(Json::as_str).unwrap_or("?"),
            doc.get("v").and_then(Json::as_f64).unwrap_or(f64::NAN),
            doc.get("t").and_then(Json::as_f64).unwrap_or(f64::NAN),
        );
    }
    let mut cursor = after;
    let mut polls = 0u64;
    loop {
        polls += 1;
        let path = format!("/notifications?sub={sub}&after={cursor}&max=1000");
        let (status, body) = fetch(&host, "GET", &path, None)?;
        if status != 200 {
            return Err(format!("GET /notifications returned {status}: {body}").into());
        }
        let doc = Json::parse(&body).map_err(|e| format!("bad /notifications response: {e}"))?;
        let empty = Vec::new();
        for n in doc
            .get("notifications")
            .and_then(Json::as_array)
            .unwrap_or(&empty)
        {
            if json {
                println!("{}", n.to_string_compact());
                continue;
            }
            let f = |k: &str| n.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "seq={} sensor={} {}: dv={:.2} start in [{:.0}, {:.0}] end in [{:.0}, {:.0}] committed={}",
                n.get("seq").and_then(Json::as_u64).unwrap_or(0),
                n.get("sensor").and_then(Json::as_u64).unwrap_or(0),
                n.get("kind").and_then(Json::as_str).unwrap_or("?"),
                f("dv"),
                f("t_d"),
                f("t_c"),
                f("t_b"),
                f("t_a"),
                n.get("committed_ms").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        cursor = doc
            .get("next_after")
            .and_then(Json::as_u64)
            .unwrap_or(cursor);
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
