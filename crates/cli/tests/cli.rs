//! End-to-end tests of the `segdiff` binary: generate → ingest → query →
//! stats, all through the real executable.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_segdiff")
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("segdiff-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn segdiff")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

#[test]
fn full_workflow_through_the_binary() {
    let dir = tmp("workflow");
    let csv = dir.join("data.csv");
    let idx = dir.join("index");

    // generate
    let o = run(&[
        "generate",
        "--csv",
        csv.to_str().unwrap(),
        "--days",
        "7",
        "--seed",
        "7",
    ]);
    assert!(o.status.success(), "{o:?}");
    assert!(stdout(&o).contains("wrote"));
    assert!(csv.exists());

    // ingest (creates the index)
    let o = run(&[
        "ingest",
        "--index",
        idx.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--no-smooth", // the CSV is already smoothed by generate
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("segments"));

    // query
    let o = run(&[
        "query",
        "--index",
        idx.to_str().unwrap(),
        "--kind",
        "drop",
        "--v",
        "-3",
        "--t-hours",
        "1",
        "--refine",
        csv.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("periods"), "{text}");
    assert!(text.contains("refined against"), "{text}");

    // stats
    let o = run(&["stats", "--index", idx.to_str().unwrap()]);
    assert!(o.status.success());
    let text = stdout(&o);
    assert!(text.contains("observations:"));
    assert!(text.contains("epsilon 0.2"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_ingest_across_invocations() {
    let dir = tmp("resume");
    let csv1 = dir.join("a.csv");
    let csv2 = dir.join("b.csv");
    let idx = dir.join("index");

    // Two non-overlapping CSVs (manual, tiny).
    std::fs::write(&csv1, "time,value\n0,10\n300,9\n600,5\n900,5\n").unwrap();
    std::fs::write(&csv2, "time,value\n1200,6\n1500,2\n1800,2\n").unwrap();

    for csv in [&csv1, &csv2] {
        let o = run(&[
            "ingest",
            "--index",
            idx.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
            "--no-smooth",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    }
    let o = run(&["stats", "--index", idx.to_str().unwrap()]);
    assert!(stdout(&o).contains("observations:    7"), "{}", stdout(&o));

    // The 10 -> 5 drop in the first file and the 6 -> 2 drop crossing the
    // second file must both be findable.
    let o = run(&[
        "query",
        "--index",
        idx.to_str().unwrap(),
        "--kind",
        "drop",
        "--v",
        "-3",
        "--t-hours",
        "1",
    ]);
    let text = stdout(&o);
    let n: usize = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().next())
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
    assert!(n >= 2, "expected at least two periods, got: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a 10-day index for the observability tests and returns
/// (dir, csv, index) paths.
fn build_ten_day_index(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = tmp(tag);
    let csv = dir.join("data.csv");
    let idx = dir.join("index");
    let o = run(&[
        "generate",
        "--csv",
        csv.to_str().unwrap(),
        "--days",
        "10",
        "--seed",
        "11",
    ]);
    assert!(o.status.success(), "{o:?}");
    let o = run(&[
        "ingest",
        "--index",
        idx.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--no-smooth",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    (dir, csv, idx)
}

/// `ingest` builds no B+tree: the store holds no `.idx` file, and
/// `query --plan index` prints what `--plan scan` prints, the timing
/// aside, as both answer from the segments.
#[test]
fn ingest_builds_no_tree_and_both_plans_print_alike() {
    let (dir, _csv, idx) = build_ten_day_index("notrees");
    let trees: Vec<_> = std::fs::read_dir(&idx)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".idx"))
        .collect();
    assert!(trees.is_empty(), "{trees:?}");
    let answer = |plan: &str| {
        let o = run(&[
            "query",
            "--index",
            idx.to_str().unwrap(),
            "--kind",
            "drop",
            "--v",
            "-3",
            "--t-hours",
            "1",
            "--plan",
            plan,
            "--limit",
            "100000",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        // The first line ends in the query's wall time.
        let text = stdout(&o);
        let (head, rest) = text.split_once('\n').unwrap();
        let head = head.rsplit_once(", ").unwrap().0.to_string();
        (head, rest.to_string())
    };
    let scan = answer("scan");
    assert!(scan.1.lines().count() > 1, "{scan:?}");
    assert!(answer("index") == scan);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_json_round_trips_through_a_parser() {
    let (dir, _csv, idx) = build_ten_day_index("statsjson");
    let o = run(&["stats", "--index", idx.to_str().unwrap(), "--json"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    // A single machine-readable line that survives a strict JSON parser.
    assert_eq!(text.trim().lines().count(), 1, "{text}");
    let doc = obs::json::Json::parse(text.trim()).expect("stats --json must be valid JSON");

    // Schema-stable keys with sane values.
    let obs_count = doc.get("observations").and_then(|v| v.as_u64()).unwrap();
    assert!(obs_count > 0, "{text}");
    let segments = doc.get("segments").and_then(|v| v.as_u64()).unwrap();
    assert!(segments > 0 && segments <= obs_count, "{text}");
    assert!(
        doc.get("compression_rate")
            .and_then(|v| v.as_f64())
            .unwrap()
            >= 1.0
    );
    for key in [
        "feature_rows",
        "feature_payload_bytes",
        "paper_feature_bytes",
        "heap_bytes",
        "index_bytes",
        "disk_bytes",
    ] {
        assert!(
            doc.get(key).and_then(|v| v.as_u64()).is_some(),
            "missing {key}: {text}"
        );
    }
    let hist = doc.get("corner_hist").expect("corner_hist");
    for key in ["one", "two", "three"] {
        assert!(
            hist.get(key).and_then(|v| v.as_u64()).is_some(),
            "missing corner_hist.{key}"
        );
    }
    assert!(hist.get("effective").and_then(|v| v.as_f64()).is_some());
    let cfg = doc.get("config").expect("config");
    assert_eq!(cfg.get("epsilon").and_then(|v| v.as_f64()), Some(0.2));
    assert_eq!(cfg.get("window_hours").and_then(|v| v.as_f64()), Some(8.0));
    let count = |doc: &obs::json::Json, key: &str| doc.get(key).and_then(|v| v.as_u64());
    let rows = count(&doc, "feature_rows").unwrap();
    assert_eq!(count(&doc, "sealed_segments"), Some(0), "{text}");
    assert_eq!(
        count(&doc, "feature_rows_represented"),
        Some(rows),
        "{text}"
    );
    // A compacted store stores no feature row of its sealed run, and says
    // how many it represents.
    segdiff::SegDiffIndex::open(&idx, 256)
        .unwrap()
        .compact_storage()
        .unwrap();
    let o = run(&["stats", "--index", idx.to_str().unwrap(), "--json"]);
    let doc = obs::json::Json::parse(stdout(&o).trim()).unwrap();
    assert_eq!(count(&doc, "sealed_segments"), Some(segments));
    assert_eq!(count(&doc, "feature_rows"), Some(0));
    assert_eq!(count(&doc, "feature_rows_represented"), Some(rows));
    let o = run(&["stats", "--index", idx.to_str().unwrap()]);
    let want = format!("feature rows:    0 stored of {rows} represented");
    assert!(stdout(&o).contains(&want), "{}", stdout(&o));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_trace_prints_consistent_phase_tree() {
    let (dir, _csv, idx) = build_ten_day_index("trace");
    for (plan, phases) in [
        ("scan", &["query.plan", "query.scan", "query.refine"][..]),
        (
            "index",
            &["query.plan", "query.probe", "query.fetch", "query.refine"][..],
        ),
    ] {
        let o = run(&[
            "query",
            "--index",
            idx.to_str().unwrap(),
            "--kind",
            "drop",
            "--v",
            "-3",
            "--t-hours",
            "1",
            "--plan",
            plan,
            "--trace",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let text = stdout(&o);
        // The trace tree: a root query span with one nested line per phase,
        // each reporting wall time and buffer-pool deltas.
        assert!(text.contains("-> query  wall="), "{text}");
        for phase in phases {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("-> {phase} ")))
                .unwrap_or_else(|| panic!("missing phase {phase} in:\n{text}"));
            assert!(line.contains("wall="), "{line}");
            assert!(line.contains("physical_reads="), "{line}");
            assert!(line.contains("pool_hits="), "{line}");
        }
        // The first phase after `plan` also reports what it generated from
        // the segments, though the store was never compacted: every one,
        // held decoded since the open read them, so this first search of
        // the process decodes none.
        let first = text
            .lines()
            .find(|l| l.contains(&format!("-> {} ", phases[1])));
        let first = first.unwrap_or_default();
        let field = |name: &str| -> u64 {
            let at = first.find(&format!("{name}=")).expect(name) + name.len() + 1;
            let digits = first[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().expect(name)
        };
        assert!(field("segments_read") > 0, "{first}");
        assert_eq!(field("rows_decoded"), 0, "{first}");
        assert!(field("pairs_within_t") >= field("boundaries"), "{first}");
        // The per-phase I/O deltas must tile the query's total delta.
        assert!(text.contains("=> consistent"), "{text}");
        assert!(!text.contains("MISMATCH"), "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_emits_parseable_json_lines() {
    let (dir, _csv, idx) = build_ten_day_index("metrics");
    let o = run(&["metrics", "--index", idx.to_str().unwrap(), "--json"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    let mut names = Vec::new();
    for line in text.lines() {
        let doc = obs::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable metrics line {line:?}: {e}"));
        let kind = doc
            .get("kind")
            .and_then(|v| v.as_str())
            .expect("kind")
            .to_string();
        assert!(
            kind == "counter" || kind == "gauge" || kind == "histogram",
            "{line}"
        );
        // Every line is stamped with the export timestamp.
        assert!(
            doc.get("ts")
                .and_then(|v| v.as_u64())
                .is_some_and(|t| t > 0),
            "missing ts in {line}"
        );
        names.push(
            doc.get("name")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string(),
        );
        if kind == "histogram" {
            for key in ["count", "sum", "min", "p50", "p90", "p99", "p999", "max"] {
                assert!(doc.get(key).is_some(), "missing {key} in {line}");
            }
        } else {
            assert!(doc.get("value").is_some(), "{line}");
        }
    }
    // Probing the index must feed both the pool counters and the query
    // span histograms, and leave probed pages resident in the gauge.
    assert!(names.iter().any(|n| n.starts_with("pool.")), "{names:?}");
    assert!(names.iter().any(|n| n == "span.query"), "{names:?}");
    assert!(
        names.iter().any(|n| n == "pool.resident_pages"),
        "{names:?}"
    );

    // Text mode renders the same registry human-readably.
    let o = run(&["metrics", "--index", idx.to_str().unwrap()]);
    assert!(o.status.success());
    let text = stdout(&o);
    assert!(text.contains("counters:"), "{text}");
    assert!(text.contains("histograms"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw-TCP HTTP/1.1 exchange with `Connection: close` — the test
/// speaks the wire protocol itself instead of reusing the server crate's
/// client, so a framing bug cannot cancel itself out.
fn http_once(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// `segdiff serve` with `args` on an ephemeral port, stopped over HTTP.
/// The pipe stays open until then: the server prints as it exits.
struct Serving {
    child: std::process::Child,
    out: std::io::BufReader<std::process::ChildStdout>,
    banner: String,
    addr: String,
}

impl Serving {
    /// Drains the server; returns what it printed on the way out.
    fn shut_down(mut self) -> String {
        let (status, _) = http_once(&self.addr, "POST", "/shutdown", None);
        assert_eq!(status, 200);
        let exit = self.child.wait().expect("serve exits");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.out, &mut rest).unwrap();
        assert!(exit.success(), "serve exited with {exit:?}: {rest}");
        rest
    }
}

fn spawn_serve(args: &[&str]) -> Serving {
    use std::io::BufRead;
    let mut child = Command::new(bin())
        .arg("serve")
        .args(args)
        .args(["--port", "0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn segdiff serve");
    let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    out.read_line(&mut banner).unwrap();
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();
    Serving {
        child,
        out,
        banner,
        addr,
    }
}

#[test]
fn serve_answers_http_queries_matching_offline_results() {
    let (dir, _csv, idx) = build_ten_day_index("serve");

    // Offline ground truth through the ordinary query subcommand.
    let o = run(&[
        "query",
        "--index",
        idx.to_str().unwrap(),
        "--kind",
        "drop",
        "--v",
        "-2",
        "--t-hours",
        "1",
        "--plan",
        "index",
        "--limit",
        "100000",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let offline = stdout(&o);
    let offline_periods: Vec<&str> = offline
        .lines()
        .filter(|l| l.starts_with("start in ["))
        .collect();

    // Serve the same index on an ephemeral port.
    let serving = spawn_serve(&["--index", idx.to_str().unwrap(), "--threads", "4"]);
    let addr = serving.addr.clone();

    let (status, body) = http_once(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // The served results must equal the offline run, period for period.
    let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
    let (status, body) = http_once(&addr, "POST", "/query", Some(query));
    assert_eq!(status, 200, "{body}");
    let doc = obs::json::Json::parse(&body).expect("query response is JSON");
    let results = doc.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), offline_periods.len(), "{body}");
    for (got, want) in results.iter().zip(&offline_periods) {
        let f = |key: &str| got.get(key).and_then(|v| v.as_f64()).unwrap();
        let rendered = format!(
            "start in [{:.1}, {:.1}]  end in [{:.1}, {:.1}]",
            f("t_d"),
            f("t_c"),
            f("t_b"),
            f("t_a")
        );
        assert!(
            want.starts_with(&rendered),
            "served {rendered:?} vs offline {want:?}"
        );
    }

    // Second identical request is served from the result cache.
    let (_, body) = http_once(&addr, "POST", "/query", Some(query));
    assert!(body.contains("\"cached\":true"), "{body}");

    // Invalid parameters are a clean 400.
    let (status, _) = http_once(
        &addr,
        "POST",
        "/query",
        Some(r#"{"kind":"drop","v":1.0,"t_hours":1.0}"#),
    );
    assert_eq!(status, 400);

    // Drive it briefly with the loadgen subcommand: zero failures.
    let o = run(&[
        "loadgen",
        "--url",
        &format!("http://{addr}"),
        "--concurrency",
        "4",
        "--duration-secs",
        "1",
        "--kind",
        "drop",
        "--v",
        "-2",
        "--t-hours",
        "1",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("0 non-2xx, 0 errors"), "{text}");
    assert!(text.contains("qps"), "{text}");

    // Clean shutdown over HTTP: process drains and exits 0 with a final
    // telemetry snapshot in the same shape as `segdiff metrics`.
    let rest = serving.shut_down();
    assert!(rest.contains("final telemetry"), "{rest}");
    assert!(rest.contains("server.requests"), "{rest}");
    assert!(rest.contains("cache.hit"), "{rest}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `query` and `serve` open what `--index` holds. Over a transect root
/// that is every `sensor-<k>/` index, fanned out: the listing below the
/// timing header is each sensor's own listing under a `sensor <k>:` line
/// — what `--all-sensors` printed while the flag existed — byte-identical
/// whatever `--threads` is; the flag itself is now a usage error, and
/// `--refine` / `--trace`, which read one sensor, refuse a root that
/// holds several.
#[test]
fn a_transect_root_is_queried_and_served_as_what_it_holds() {
    let dir = tmp("transect");
    let root = dir.join("transect");
    let search = [
        "--kind",
        "drop",
        "--v",
        "-2",
        "--t-hours",
        "1",
        "--limit",
        "100000",
    ];

    // Build a three-sensor transect through the ordinary single-sensor
    // commands: each `sensor-<k>/` directory is a complete index.
    for k in 0..3u32 {
        let csv = dir.join(format!("s{k}.csv"));
        let o = run(&[
            "generate",
            "--csv",
            csv.to_str().unwrap(),
            "--days",
            "5",
            "--sensor",
            &k.to_string(),
            "--seed",
            &(100 + k).to_string(),
        ]);
        assert!(o.status.success(), "{o:?}");
        let o = run(&[
            "ingest",
            "--index",
            root.join(format!("sensor-{k}")).to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
            "--no-smooth",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    }

    let mut total = 0;
    for plan in ["scan", "index"] {
        // One sensor's directory is a bare index: header, then periods.
        let mut expected = String::new();
        total = 0;
        for k in 0..3 {
            let sensor = root.join(format!("sensor-{k}"));
            let o = run(&[
                &["query", "--index", sensor.to_str().unwrap(), "--plan", plan],
                &search[..],
            ]
            .concat());
            assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
            let text = stdout(&o);
            let periods: Vec<&str> = text.lines().skip(1).collect();
            assert!(
                text.starts_with(&format!("{} periods (", periods.len())),
                "{text}"
            );
            assert!(
                periods.iter().all(|l| l.starts_with("start in [")),
                "{text}"
            );
            expected.push_str(&format!("sensor {k}: {} periods\n", periods.len()));
            for line in &periods {
                expected.push_str(&format!("  {line}\n"));
            }
            total += periods.len();
        }
        assert!(total > 0, "the search must match something");
        for threads in ["1", "8"] {
            let o = run(&[
                &[
                    "query",
                    "--index",
                    root.to_str().unwrap(),
                    "--plan",
                    plan,
                    "--threads",
                    threads,
                ],
                &search[..],
            ]
            .concat());
            assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
            let text = stdout(&o);
            // The first line carries wall time and thread count.
            let (header, body) = text.split_once('\n').unwrap();
            assert!(
                header.starts_with(&format!("{total} periods across 3 sensors (")),
                "{header}"
            );
            assert_eq!(body, expected, "plan {plan}, --threads {threads}");
        }
    }

    let query_root = |extra: &[&str]| {
        let o = run(&[
            &["query", "--index", root.to_str().unwrap()],
            &search[..],
            extra,
        ]
        .concat());
        (
            o.status.code(),
            String::from_utf8_lossy(&o.stderr).to_string(),
        )
    };
    let (code, err) = query_root(&["--all-sensors"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown flag --all-sensors"), "{err}");
    for reads_one_sensor in [&["--refine", "raw.csv"][..], &["--trace"]] {
        let (code, err) = query_root(reads_one_sensor);
        assert_eq!(code, Some(1), "{err}");
        assert!(err.contains("holds 3"), "{err}");
    }

    // Served: the same sensors, each behind its result cache.
    let serving = spawn_serve(&["--index", root.to_str().unwrap()]);
    assert!(
        serving.banner.contains("(primary, 3 sensors,"),
        "{}",
        serving.banner
    );
    let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
    for cached in [false, true] {
        let (status, body) = http_once(&serving.addr, "POST", "/query", Some(query));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"cached\":{cached},")), "{body}");
        assert!(body.contains(&format!("\"count\":{total},")), "{body}");
        assert!(body.contains("\"sensors\":3,"), "{body}");
    }
    serving.shut_down();

    // `--sensors` narrows a root to a shard's slice, and nothing else.
    let serving = spawn_serve(&["--index", root.to_str().unwrap(), "--sensors", "2,1"]);
    assert!(
        serving.banner.contains("(primary, 2 sensors,"),
        "{}",
        serving.banner
    );
    let (_, body) = http_once(&serving.addr, "GET", "/healthz", None);
    assert!(body.contains("\"sensor_ids\":[1,2]"), "{body}");
    serving.shut_down();
    let sensor = root.join("sensor-0");
    let o = run(&[
        "serve",
        "--index",
        sensor.to_str().unwrap(),
        "--sensors",
        "0",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("--sensors narrows a transect root"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The self-observation surface through the binary: `serve` runs the
/// sampler, `alerts` and `top` read it back over HTTP, and
/// `stats --series` runs the same sampler offline.
#[test]
fn observability_subcommands_round_trip() {
    let (dir, _csv, idx) = build_ten_day_index("observe");

    // stats --series runs the sampler offline over a probe query.
    let o = run(&["stats", "--index", idx.to_str().unwrap(), "--series"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("sampled series"), "{text}");
    assert!(text.contains("sampler.ticks.rate"), "{text}");
    let o = run(&[
        "stats",
        "--index",
        idx.to_str().unwrap(),
        "--series",
        "--json",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let doc = obs::json::Json::parse(stdout(&o).trim()).expect("stats --series --json parses");
    let series = doc.get("series").unwrap().as_array().unwrap();
    assert!(
        series
            .iter()
            .any(|s| { s.get("name").and_then(|v| v.as_str()) == Some("pool.resident_pages") }),
        "sampled series must include the resident-pages gauge"
    );

    // Serve with a fast sampler, then read the observability routes back
    // through the dedicated subcommands.
    let index = idx.to_str().unwrap();
    let serving = spawn_serve(&["--index", index, "--threads", "2", "--sample-ms", "50"]);
    let addr = serving.addr.clone();
    let url = format!("http://{addr}");

    // Give the rings content and the sampler a few periods.
    let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
    for _ in 0..3 {
        let (status, body) = http_once(&addr, "POST", "/query", Some(query));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"trace_id\":"), "{body}");
    }
    std::thread::sleep(std::time::Duration::from_millis(300));

    // segdiff alerts: lists the standing rules; clean run, no firing of
    // the latency rule.
    let o = run(&["alerts", "--url", &url]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("standing rules"), "{text}");
    assert!(text.contains("query-latency-jump"), "{text}");
    assert!(text.contains("query-rate-drop"), "{text}");
    let o = run(&["alerts", "--url", &url, "--json"]);
    assert!(o.status.success());
    let doc = obs::json::Json::parse(stdout(&o).trim()).expect("alerts --json parses");
    assert!(doc.get("rules").is_some(), "{doc:?}");

    // segdiff top: two frames and exit.
    let o = run(&[
        "top",
        "--url",
        &url,
        "--interval-ms",
        "50",
        "--iterations",
        "2",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("segdiff top"), "{text}");
    assert!(text.contains("frame 2"), "{text}");
    assert!(text.contains("qps"), "{text}");
    assert!(text.contains("alerts fired:"), "{text}");

    serving.shut_down();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let o = run(&["frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
    // A flag only another subcommand takes is a usage error too.
    for (args, flag) in [
        (
            &[
                "query",
                "--index",
                "d",
                "--kind",
                "drop",
                "--v",
                "-3",
                "--t-hours",
                "1",
                "--json",
            ][..],
            "--json",
        ),
        (
            &["generate", "--csv", "f", "--days", "1", "--port", "9"],
            "--port",
        ),
        (&["stats", "--index", "d", "--kind", "drop"], "--kind"),
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2));
        let err = String::from_utf8_lossy(&o.stderr);
        let want = format!("unknown flag {flag} for segdiff {}", args[0]);
        assert!(err.contains(&want), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
    let o = run(&[
        "query",
        "--index",
        "/nonexistent",
        "--kind",
        "drop",
        "--v",
        "-3",
        "--t-hours",
        "1",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("error:"), "{err}");
}
