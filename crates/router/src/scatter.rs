//! Scatter–gather execution of `POST /query` across shards.
//!
//! The router validates the query with the exact parser the shards use
//! ([`QuerySpec::from_json`]), partitions the target sensors over the
//! [`Ring`], POSTs each shard its slice as a
//! `{"sensors": [...], "per_sensor": true}` query over a kept-alive
//! connection ([`Upstreams`]), and answers by *splicing*: a shard's
//! `by_sensor` entries are already in final byte form and the ring makes
//! sensors disjoint across shards, so the router parses only the small
//! envelope in front of them, finds the entries' byte ranges with a
//! strict scanner (`scan_answer`), and copies them out in ascending
//! sensor order — whole entries for `per_sensor`, the insides of their
//! `results` arrays joined by commas otherwise. That is the
//! sort-by-sensor-and-concatenate union [`segdiff::merge_sharded`]
//! defines (the tests hold the splice to it), performed on bytes the
//! shard's writer produced, so the merged array is byte-identical to one
//! process serving all sensors without a float being parsed or printed.
//!
//! Failure semantics: a connection the shard idled out is retried once
//! on a fresh one; a shard whose selected endpoint still errors — or
//! answers `503`: a replica reopening its store, a full accept queue —
//! gets one immediate failover retry via [`HealthBoard::report_failure`]; if
//! no endpoint serves it, the whole query degrades to a structured
//! `503 {"error": ..., "unavailable_sensors": [...]}` naming exactly
//! the sensors this query needed from dead shards — queries whose
//! sensor filter avoids the dead shard keep succeeding.

use crate::health::HealthBoard;
use crate::ring::Ring;
use crate::RouterMetrics;
use obs::json::{write_u64, Json};
use segdiff_server::answer::open_answer;
use segdiff_server::http::{HttpError, Response};
use segdiff_server::loadgen::pooled_request;
use segdiff_server::QuerySpec;
use std::collections::HashMap;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Idle keep-alive connections to shard endpoints, **one** each. A shard
/// worker serves one connection at a time, so an idle connection parks a
/// worker until the shard's read timeout, and connections queued behind
/// parked workers wait: with four workers a shard and eight clients,
/// keeping 1 / 2 / 3 / 4 measured a router p99 of 33 / 55 / 109 / 215 ms
/// (EXPERIMENTS.md, "Serve bytes, not values"). One leaves every other
/// worker to concurrent sub-queries — which open a connection of their
/// own and close it, freeing its worker at once — and to probes, WAL
/// shipping and direct clients.
#[derive(Default)]
pub struct Upstreams {
    idle: Mutex<HashMap<String, TcpStream>>,
}

impl Upstreams {
    /// One `POST /query` round trip to `addr` on its pooled connection.
    /// The lock is held only to take the connection out and to put it
    /// back, never across the I/O. A connection the shard closed while
    /// it idled fails once and [`pooled_request`] retries on a fresh
    /// one; an error from here means the endpoint itself failed.
    fn post_query(&self, addr: &str, body: &str) -> Result<(u16, Vec<u8>), HttpError> {
        let mut conn = self
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(addr);
        let out = pooled_request(&mut conn, addr, "POST", "/query", Some(body));
        if let Some(stream) = conn {
            let displaced = self
                .idle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(addr.to_string(), stream);
            // A concurrent sub-query's connection: closed outside the guard.
            drop(displaced);
        }
        out
    }
}

/// One `{"sensor":S,"count":C,"results":[…]}` entry of a shard's body.
struct Entry {
    sensor: u32,
    count: u64,
    /// The whole entry, braces included.
    whole: Range<usize>,
    /// The inside of its `results` brackets.
    pairs: Range<usize>,
}

/// A shard's successful contribution to one scattered query: its body,
/// and where the per-sensor entries sit in it.
struct ShardAnswer {
    body: Vec<u8>,
    entries: Vec<Entry>,
    epoch: u64,
    rows_considered: u64,
    cached: bool,
}

/// Why a shard contributed nothing.
enum ShardFailure {
    /// No endpoint serves the shard; carries the sensors this query
    /// needed from it.
    Unavailable(Vec<u32>),
    /// The shard answered with a non-2xx status.
    Status(u16, String),
}

/// Executes one `POST /query` body across the cluster.
pub fn scatter_query(
    board: &HealthBoard,
    ring: &Ring,
    upstreams: &Upstreams,
    body: &str,
    metrics: &RouterMetrics,
) -> Response {
    metrics.queries.inc();
    let start = Instant::now();
    let spec = match QuerySpec::from_json(body) {
        Ok(s) => s,
        Err(e) => {
            metrics.bad_requests.inc();
            return Response::error(400, e);
        }
    };

    // Target set: an explicit filter, or everything the cluster serves.
    let targets = if spec.sensors.is_empty() {
        board.known_sensors()
    } else {
        let mut t = spec.sensors.clone();
        t.sort_unstable();
        t.dedup();
        t
    };

    let buckets = ring.partition(&targets);
    let jobs: Vec<(usize, &[u32])> = buckets
        .iter()
        .enumerate()
        .filter(|(_, sensors)| !sensors.is_empty())
        .map(|(shard, sensors)| (shard, sensors.as_slice()))
        .collect();

    // Scatter: the last participating shard's sub-query runs on this
    // thread and every other one on a scoped thread of its own, so a query
    // that one shard answers spawns nothing. Outcomes keep shard order.
    let run = |&(shard, sensors): &(usize, &[u32])| {
        let body = shard_body(&spec, sensors);
        query_shard(board, upstreams, metrics, shard, sensors, &body)
    };
    let outcomes: Vec<Result<ShardAnswer, ShardFailure>> = std::thread::scope(|s| {
        let Some((last, others)) = jobs.split_last() else {
            return Vec::new();
        };
        let handles: Vec<_> = others.iter().map(|job| s.spawn(move || run(job))).collect();
        let own = run(last);
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                Err(_) => Err(ShardFailure::Status(500, "scatter worker panicked".into())),
            })
            .chain([own])
            .collect()
    });

    // Gather: client errors first (the query is bad regardless of
    // outages), then degradation, then shard-side server errors.
    let mut unavailable: Vec<u32> = Vec::new();
    let mut server_error: Option<(u16, String)> = None;
    let mut answers = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Ok(a) => answers.push(a),
            Err(ShardFailure::Status(status, msg)) if (400..500).contains(&status) => {
                metrics.bad_requests.inc();
                return Response::error(status, msg);
            }
            Err(ShardFailure::Status(status, msg)) => {
                server_error.get_or_insert((status, msg));
            }
            Err(ShardFailure::Unavailable(sensors)) => unavailable.extend(sensors),
        }
    }
    if !unavailable.is_empty() {
        metrics.degraded.inc();
        unavailable.sort_unstable();
        unavailable.dedup();
        return Response::json(
            503,
            &Json::obj([
                ("error", Json::Str("shard unavailable".to_string())),
                (
                    "unavailable_sensors",
                    Json::Array(
                        unavailable
                            .into_iter()
                            .map(u64::from)
                            .map(Json::Uint)
                            .collect(),
                    ),
                ),
            ]),
        );
    }
    if let Some((status, msg)) = server_error {
        return Response::error(status.max(500), msg);
    }

    let entries = in_sensor_order(&answers);
    let mut out = Vec::with_capacity(256 + answers.iter().map(|a| a.body.len()).sum::<usize>());
    open_answer(
        &mut out,
        &spec,
        answers.iter().map(|a| a.epoch).sum(),
        !answers.is_empty() && answers.iter().all(|a| a.cached),
        entries.iter().map(|(_, e)| e.count).sum(),
        answers.iter().map(|a| a.rows_considered).sum(),
        start.elapsed().as_secs_f64() * 1e3,
    );
    splice(&mut out, &entries, spec.per_sensor);
    out.extend_from_slice(b",\"sensors\":");
    write_u64(&mut out, targets.len() as u64);
    out.extend_from_slice(b",\"shards\":");
    write_u64(&mut out, ring.num_shards() as u64);
    out.push(b'}');
    metrics.query_nanos.record_duration(start.elapsed());
    Response::json_bytes(200, out)
}

/// Every shard's entries in ascending sensor order — the order a single
/// process answers in. The ring hands each sensor to one shard and a
/// shard answers the sensors it was asked for, so no id comes twice.
fn in_sensor_order(answers: &[ShardAnswer]) -> Vec<(&ShardAnswer, &Entry)> {
    let mut entries: Vec<(&ShardAnswer, &Entry)> = answers
        .iter()
        .flat_map(|a| a.entries.iter().map(move |e| (a, e)))
        .collect();
    entries.sort_by_key(|(_, e)| e.sensor);
    entries
}

/// Appends `,"by_sensor":[…]` (whole entries) or `,"results":[…]` (the
/// entries' pairs, joined) from the shards' own bytes.
fn splice(out: &mut Vec<u8>, entries: &[(&ShardAnswer, &Entry)], per_sensor: bool) {
    let mut pieces = entries.iter().filter_map(|(answer, e)| {
        let range = if per_sensor { &e.whole } else { &e.pairs };
        (!range.is_empty()).then(|| &answer.body[range.clone()])
    });
    out.extend_from_slice(if per_sensor {
        b",\"by_sensor\":["
    } else {
        b",\"results\":["
    });
    if let Some(first) = pieces.next() {
        out.extend_from_slice(first);
    }
    for piece in pieces {
        out.push(b',');
        out.extend_from_slice(piece);
    }
    out.push(b']');
}

/// One shard's round trip: selected endpoint, one failover retry.
fn query_shard(
    board: &HealthBoard,
    upstreams: &Upstreams,
    metrics: &RouterMetrics,
    shard: usize,
    sensors: &[u32],
    body: &str,
) -> Result<ShardAnswer, ShardFailure> {
    let Some((addr, _)) = board.endpoint(shard) else {
        return Err(ShardFailure::Unavailable(sensors.to_vec()));
    };
    // An endpoint that answers `503` has nothing to answer from just now
    // (a replica between two refreshes of its store, or a full accept
    // queue): to this query that is a connection that failed.
    let attempt = |addr: &str| {
        metrics.scatter_requests.inc();
        let answered = upstreams
            .post_query(addr, body)
            .ok()
            .filter(|(status, _)| *status != 503);
        if answered.is_none() {
            metrics.shard_errors.inc();
        }
        answered
    };
    let (status, bytes) = match attempt(&addr) {
        Some(out) => out,
        None => {
            // Failover: re-probe now and retry once on whatever
            // endpoint the board selects next (typically the replica).
            let Some((next, _)) = board.report_failure(shard, &addr) else {
                return Err(ShardFailure::Unavailable(sensors.to_vec()));
            };
            match attempt(&next) {
                Some(out) => out,
                None => {
                    board.report_failure(shard, &next);
                    return Err(ShardFailure::Unavailable(sensors.to_vec()));
                }
            }
        }
    };
    if !(200..300).contains(&status) {
        let msg = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_else(|| format!("shard returned status {status}"));
        return Err(ShardFailure::Status(
            status,
            format!("shard {shard}: {msg}"),
        ));
    }
    scan_answer(bytes)
        .ok_or_else(|| ShardFailure::Status(500, format!("shard {shard}: malformed response")))
}

/// The per-shard request body: the validated spec re-serialized with
/// this shard's sensor slice and grouped output.
fn shard_body(spec: &QuerySpec, sensors: &[u32]) -> String {
    let mut fields = spec.echo();
    fields.extend([
        (
            "sensors".to_string(),
            Json::Array(sensors.iter().map(|&s| Json::Uint(u64::from(s))).collect()),
        ),
        ("per_sensor".to_string(), Json::Bool(true)),
    ]);
    Json::Object(fields).to_string_compact()
}

/// A cursor over a shard's body that advances only over exactly the
/// bytes the shard's `/query` writer emits.
struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Scanner<'_> {
    /// Steps over `literal` if it is next.
    fn eat(&mut self, literal: &[u8]) -> bool {
        let found = self.bytes[self.at..].starts_with(literal);
        if found {
            self.at += literal.len();
        }
        found
    }

    /// Steps over `pattern`, byte for byte except that `@` stands for an
    /// unsigned integer (returned in order, two at most) and `#` for a
    /// float as the shared printer writes one, or `null` — its value is
    /// never needed, only where it ends.
    fn scan(&mut self, pattern: &[u8]) -> Option<[u64; 2]> {
        let mut ints = [0u64; 2];
        let mut filled = 0;
        for &p in pattern {
            let start = self.at;
            match p {
                b'@' => {
                    let slot = ints.get_mut(filled)?;
                    while let Some(d) = self.bytes.get(self.at).filter(|b| b.is_ascii_digit()) {
                        *slot = slot.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                        self.at += 1;
                    }
                    filled += 1;
                }
                b'#' if self.eat(b"null") => {}
                b'#' => {
                    while matches!(
                        self.bytes.get(self.at),
                        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    ) {
                        self.at += 1;
                    }
                }
                _ => self.at += usize::from(self.bytes.get(self.at) == Some(&p)),
            }
            if self.at == start {
                return None;
            }
        }
        Some(ints)
    }

    /// The rest of a list whose `[` is behind the cursor: `item(,item)*]`
    /// or `]`. Returns how many items, and the bytes between the brackets.
    fn list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<(u64, Range<usize>)> {
        let start = self.at;
        let mut n = 0;
        if !self.eat(b"]") {
            loop {
                item(self)?;
                n += 1;
                if !self.eat(b",") {
                    self.scan(b"]")?;
                    break;
                }
            }
        }
        Some((n, start..self.at - 1))
    }
}

/// Finds the entries in a shard's grouped (`per_sensor`) response.
/// Accepts exactly what `segdiff_server`'s `/query` writer emits — the
/// scalar envelope, `,"by_sensor":[` entries of
/// `{"sensor":S,"count":C,"results":[{"t_d":F,"t_c":F,"t_b":F,"t_a":F},…]}`
/// in strictly ascending sensor order with `C` pairs each, then
/// `,"sensors":N` (transect engines), `,"trace_id":N` and the closing
/// brace — and nothing else: a body that is truncated, reordered,
/// padded or followed by anything is `None`.
fn scan_answer(body: Vec<u8>) -> Option<ShardAnswer> {
    const BY_SENSOR: &[u8] = b",\"by_sensor\":[";
    // The envelope holds no array and a string cannot hold an unescaped
    // quote, so the first match is the key itself.
    let split = body.windows(BY_SENSOR.len()).position(|w| w == BY_SENSOR)?;
    let envelope = [&body[..split], b"}"].concat();
    let envelope = Json::parse(std::str::from_utf8(&envelope).ok()?).ok()?;
    let epoch = envelope.get("epoch")?.as_u64()?;
    let rows_considered = envelope.get("rows_considered")?.as_u64()?;
    let Json::Bool(cached) = *envelope.get("cached")? else {
        return None;
    };

    let mut s = Scanner {
        bytes: &body,
        at: split + BY_SENSOR.len(),
    };
    let mut entries: Vec<Entry> = Vec::new();
    s.list(|s| {
        let start = s.at;
        let [sensor, count] = s.scan(b"{\"sensor\":@,\"count\":@,\"results\":[")?;
        let sensor = u32::try_from(sensor).ok()?;
        let (n, pairs) = s.list(|s| {
            s.scan(b"{\"t_d\":#,\"t_c\":#,\"t_b\":#,\"t_a\":#}")
                .map(drop)
        })?;
        s.scan(b"}")?;
        if n != count || entries.last().is_some_and(|prev| prev.sensor >= sensor) {
            return None;
        }
        entries.push(Entry {
            sensor,
            count,
            whole: start..s.at,
            pairs,
        });
        Some(())
    })?;
    if s.eat(b",\"sensors\":") {
        s.scan(b"@")?;
    }
    s.scan(b",\"trace_id\":@}")?;
    (s.at == body.len()).then_some(ShardAnswer {
        body,
        entries,
        epoch,
        rows_considered,
        cached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdiff::{merge_sharded, SegmentPair};
    use segdiff_server::http::read_request;
    use std::io::BufReader;
    use std::net::TcpListener;

    #[test]
    fn shard_body_round_trips_through_query_spec() {
        let spec = QuerySpec::from_json(r#"{"kind":"drop","v":-2.5,"t_hours":3.0}"#).expect("spec");
        let body = shard_body(&spec, &[4, 7]);
        let back = QuerySpec::from_json(&body).expect("shard body must be a valid query");
        assert_eq!((back.region, back.plan), (spec.region, spec.plan));
        assert_eq!(back.t_hours, 3.0);
        assert_eq!(back.sensors, vec![4, 7]);
        assert!(back.per_sensor);
    }

    /// The tree form of a pair list (what the shard's writer is tested
    /// against in `segdiff_server::answer`).
    fn pairs_to_json(results: &[SegmentPair]) -> Json {
        Json::Array(
            results
                .iter()
                .map(|p| {
                    Json::obj([
                        ("t_d", Json::Float(p.t_d)),
                        ("t_c", Json::Float(p.t_c)),
                        ("t_b", Json::Float(p.t_b)),
                        ("t_a", Json::Float(p.t_a)),
                    ])
                })
                .collect(),
        )
    }

    /// A shard's grouped response over `parts`, tree-built.
    fn shard_response(parts: &[(u32, Vec<SegmentPair>)], transect: bool) -> Vec<u8> {
        let count: usize = parts.iter().map(|(_, r)| r.len()).sum();
        let mut fields = vec![
            ("series".to_string(), Json::from(r#"a,"by_sensor":[ b"#)),
            ("kind".to_string(), Json::from("drop")),
            ("v".to_string(), Json::Float(-2.0)),
            ("t_hours".to_string(), Json::Float(1.0)),
            ("plan".to_string(), Json::from("scan")),
            ("epoch".to_string(), Json::Uint(3)),
            ("cached".to_string(), Json::Bool(parts.len() & 1 == 0)),
            ("count".to_string(), Json::from(count)),
            ("rows_considered".to_string(), Json::Uint(1000)),
            ("wall_ms".to_string(), Json::Float(0.25)),
            (
                "by_sensor".to_string(),
                Json::Array(
                    parts
                        .iter()
                        .map(|(sensor, results)| {
                            Json::obj([
                                ("sensor", Json::from(*sensor)),
                                ("count", Json::from(results.len())),
                                ("results", pairs_to_json(results)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if transect {
            fields.push(("sensors".to_string(), Json::from(parts.len())));
        }
        fields.push(("trace_id".to_string(), Json::Uint(77)));
        Json::Object(fields).to_string_compact().into_bytes()
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn stamp(&mut self) -> f64 {
            match self.below(8) {
                0 => self.below(1 << 40) as f64 / 1024.0,
                1 => -(self.below(1000) as f64),
                _ => self.below(2_592_000) as f64,
            }
        }
    }

    #[test]
    fn the_splice_equals_merge_sharded_printed_through_the_tree() {
        let mut rng = Rng(0x5EED_1234);
        for case in 0..200 {
            // Sensors dealt to up to four shards; a shard may get none
            // and a sensor may have no pairs.
            let shards = 1 + rng.below(4) as usize;
            let mut per_shard: Vec<Vec<(u32, Vec<SegmentPair>)>> = vec![Vec::new(); shards];
            for sensor in 0..rng.below(9) as u32 {
                let pairs = (0..rng.below(4) * rng.below(6))
                    .map(|_| SegmentPair {
                        t_d: rng.stamp(),
                        t_c: rng.stamp(),
                        t_b: rng.stamp(),
                        t_a: rng.stamp(),
                    })
                    .collect();
                per_shard[rng.below(shards as u64) as usize].push((sensor * 3, pairs));
            }
            let answers: Vec<ShardAnswer> = per_shard
                .iter()
                .map(|parts| {
                    scan_answer(shard_response(parts, case & 1 == 0)).expect("a writer-shaped body")
                })
                .collect();
            for (answer, parts) in answers.iter().zip(&per_shard) {
                assert_eq!((answer.epoch, answer.rows_considered), (3, 1000));
                assert_eq!(answer.cached, parts.len() & 1 == 0);
                assert_eq!(answer.entries.len(), parts.len());
            }
            let entries = in_sensor_order(&answers);
            let all: Vec<(u32, Vec<SegmentPair>)> = per_shard.into_iter().flatten().collect();
            assert_eq!(
                entries.iter().map(|(_, e)| e.count).sum::<u64>(),
                all.iter().map(|(_, r)| r.len() as u64).sum::<u64>()
            );

            let mut sorted = all.clone();
            sorted.sort_by_key(|(sensor, _)| *sensor);
            let by_sensor = Json::Array(
                sorted
                    .iter()
                    .map(|(sensor, results)| {
                        Json::obj([
                            ("sensor", Json::from(*sensor)),
                            ("count", Json::from(results.len())),
                            ("results", pairs_to_json(results)),
                        ])
                    })
                    .collect(),
            );
            let mut grouped = Vec::new();
            splice(&mut grouped, &entries, true);
            assert_eq!(
                String::from_utf8(grouped).expect("utf-8"),
                format!(",\"by_sensor\":{}", by_sensor.to_string_compact()),
                "case {case}"
            );

            let mut flat = Vec::new();
            splice(&mut flat, &entries, false);
            assert_eq!(
                String::from_utf8(flat).expect("utf-8"),
                format!(
                    ",\"results\":{}",
                    pairs_to_json(&merge_sharded(all)).to_string_compact()
                ),
                "case {case}"
            );
        }
    }

    #[test]
    fn anything_but_the_writers_shape_is_malformed_never_a_panic() {
        let pair = SegmentPair {
            t_d: 0.5,
            t_c: 1.0,
            t_b: -2.0,
            t_a: f64::NAN,
        };
        let parts = vec![(1, vec![pair, pair]), (5, vec![]), (9, vec![pair])];
        let good = shard_response(&parts, true);
        assert!(scan_answer(good.clone()).is_some());
        assert!(scan_answer(shard_response(&[], false)).is_some());

        // Truncated anywhere, or followed by anything.
        for cut in 0..good.len() {
            assert!(scan_answer(good[..cut].to_vec()).is_none(), "cut at {cut}");
        }
        for tail in ["}", " ", "\n", ",", "{}"] {
            let padded = [&good[..], tail.as_bytes()].concat();
            assert!(scan_answer(padded).is_none(), "tail {tail:?}");
        }

        // Valid JSON, wrong shape.
        let text = String::from_utf8(good.clone()).expect("utf-8");
        for (from, to) in [
            // keys of an entry, or of a pair, in another order
            (r#"{"sensor":5,"count":0,"#, r#"{"count":0,"sensor":5,"#),
            (r#"{"t_d":0.5,"t_c":1.0,"#, r#"{"t_c":1.0,"t_d":0.5,"#),
            // sensors out of order, or twice
            (r#"{"sensor":5,"#, r#"{"sensor":0,"#),
            (r#"{"sensor":5,"#, r#"{"sensor":1,"#),
            // a count that is not the number of pairs
            (r#"{"sensor":1,"count":2,"#, r#"{"sensor":1,"count":3,"#),
            // whitespace, a missing field, an extra one, another type
            (r#","by_sensor":["#, r#", "by_sensor":["#),
            (r#""count":0,"results":[]"#, r#""count":0,"results":[ ]"#),
            (r#","t_a":null}"#, r#"}"#),
            (r#","t_a":null}"#, r#","t_a":null,"x":1}"#),
            (r#""t_b":-2.0"#, r#""t_b":"-2.0""#),
            (r#""t_b":-2.0"#, r#""t_b":[]"#),
            (r#""sensor":9"#, r#""sensor":-9"#),
            (r#""sensor":9"#, r#""sensor":99999999999"#),
            (r#""epoch":3"#, r#""epoch":"3""#),
            (r#""cached":false"#, r#""cached":0"#),
            (r#","rows_considered":1000"#, ""),
            (r#","trace_id":77"#, ""),
            (r#","trace_id":77"#, r#","trace_id":77,"trace":{}"#),
            (r#","sensors":3,"#, r#","sensors":3,"sensors":3,"#),
        ] {
            assert!(text.contains(from), "fixture lacks {from}");
            let bent = text.replacen(from, to, 1).into_bytes();
            assert!(scan_answer(bent).is_none(), "{from} -> {to}");
        }
        for other in ["", "{}", "not json", r#"{"by_sensor":[]}"#, "[]"] {
            assert!(scan_answer(other.as_bytes().to_vec()).is_none(), "{other}");
        }

        // Random damage: whatever comes back, it comes back.
        let mut rng = Rng(0xBAD_B0D1E5);
        for _ in 0..20_000 {
            let mut bent = good.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bent.len() as u64) as usize;
                match rng.below(3) {
                    0 => bent[at] = rng.next() as u8,
                    1 => drop(bent.remove(at)),
                    _ => bent.insert(at, b"{}[],:\"0-.e\\"[rng.below(12) as usize]),
                }
            }
            if let Some(answer) = scan_answer(bent) {
                for e in &answer.entries {
                    assert!(e.pairs.end <= e.whole.end && e.whole.end <= answer.body.len());
                }
            }
        }
    }

    /// A shard that serves one request per connection and then closes
    /// it — what a pooled connection looks like after the shard's read
    /// timeout idled it out.
    #[test]
    fn a_connection_the_shard_idled_out_is_retried_once_and_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shard = std::thread::spawn(move || {
            for served in 0..3u64 {
                let (mut stream, _) = listener.accept().expect("accept");
                let request = read_request(&mut BufReader::new(&stream)).expect("request");
                assert_eq!(request.path, "/query");
                Response::text(200, served.to_string())
                    .write_to(&mut stream)
                    .expect("respond");
            }
        });
        let upstreams = Upstreams::default();
        for expected in ["0", "1", "2"] {
            // From the second round on the pooled connection is dead:
            // the request fails on it once and succeeds on a fresh one.
            let (status, body) = upstreams.post_query(&addr, "{}").expect("answered");
            assert_eq!((status, body.as_slice()), (200, expected.as_bytes()));
            assert_eq!(upstreams.idle.lock().expect("lock").len(), 1);
        }
        shard.join().expect("fake shard");

        // Nobody listens any more: the stale connection fails, the
        // reconnect fails, and only then does the caller see an error.
        assert!(upstreams.post_query(&addr, "{}").is_err());
        assert!(upstreams.idle.lock().expect("lock").is_empty());
    }

    /// A scripted endpoint: answers one request a connection, in order,
    /// each with the path it must be for.
    fn scripted(script: Vec<(&'static str, Response)>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let served = std::thread::spawn(move || {
            for (path, response) in script {
                let (mut stream, _) = listener.accept().expect("accept");
                let request = read_request(&mut BufReader::new(&stream)).expect("request");
                assert_eq!(request.path, path);
                response
                    .with_close()
                    .write_to(&mut stream)
                    .expect("respond");
            }
        });
        (addr, served)
    }

    /// A shard endpoint that answers `503` (an overloaded one sheds
    /// load so) is a failed endpoint to the query in hand: reported,
    /// re-probed, and the query answered by the shard's other endpoint.
    #[test]
    fn a_shard_that_answers_503_is_failed_over_like_a_dead_connection() {
        let healthz = || {
            Response::json(
                200,
                &Json::obj([
                    ("status", Json::from("ok")),
                    ("sensor_ids", Json::Array(vec![Json::Uint(4)])),
                ]),
            )
        };
        let pair = SegmentPair {
            t_d: 0.0,
            t_c: 300.0,
            t_b: 600.0,
            t_a: 900.0,
        };
        let answer = shard_response(&[(4, vec![pair])], true);
        // Healthy at start-up, `503` to the query, gone at the re-probe.
        let (primary, primary_thread) = scripted(vec![
            ("/healthz", healthz()),
            ("/query", Response::error(503, "server overloaded")),
            ("/healthz", Response::error(500, "going away")),
        ]);
        let (replica, replica_thread) = scripted(vec![
            ("/healthz", healthz()),
            ("/query", Response::json_bytes(200, answer.clone())),
        ]);
        let board = HealthBoard::new(vec![crate::ShardSpec {
            primary: primary.clone(),
            replica: Some(replica.clone()),
        }]);
        board.probe_all();
        assert_eq!(board.endpoint(0).map(|(addr, _)| addr), Some(primary));

        let metrics = RouterMetrics::new();
        let errors_before = metrics.shard_errors.get();
        let answered = query_shard(&board, &Upstreams::default(), &metrics, 0, &[4], "{}");
        let Ok(answered) = answered else {
            panic!("the replica's answer must be the shard's");
        };
        assert_eq!(answered.body, answer);
        assert_eq!(answered.entries.len(), 1);
        assert_eq!(board.endpoint(0).map(|(addr, _)| addr), Some(replica));
        assert!(metrics.shard_errors.get() > errors_before);
        primary_thread.join().expect("fake primary");
        replica_thread.join().expect("fake replica");
    }
}
