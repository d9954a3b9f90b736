//! Scatter–gather execution of `POST /query` across shards.
//!
//! The router validates the query with the exact parser the shards use
//! ([`QuerySpec::from_json`]), partitions the target sensors over the
//! [`Ring`], POSTs each shard its slice as a
//! `{"sensors": [...], "per_sensor": true}` query, and merges the
//! per-sensor parts with [`segdiff::merge_sharded`] — the same
//! sort-by-sensor-and-concatenate union the single-process transect
//! fan-out performs, so the merged `results` array is byte-identical to
//! one process serving all sensors (floats re-serialize stably because
//! the JSON layer prints shortest round-trip forms).
//!
//! Failure semantics: a shard whose selected endpoint errors gets one
//! immediate failover retry via [`HealthBoard::report_failure`]; if no
//! endpoint serves it, the whole query degrades to a structured
//! `503 {"error": ..., "unavailable_sensors": [...]}` naming exactly
//! the sensors this query needed from dead shards — queries whose
//! sensor filter avoids the dead shard keep succeeding.

use crate::health::HealthBoard;
use crate::ring::Ring;
use crate::RouterMetrics;
use obs::json::Json;
use segdiff::{merge_sharded, SegmentPair};
use segdiff_server::http::Response;
use segdiff_server::loadgen::fetch;
use segdiff_server::service::pairs_to_json;
use segdiff_server::QuerySpec;
use std::time::Instant;

/// A shard's successful contribution to one scattered query.
struct ShardAnswer {
    parts: Vec<(u32, Vec<SegmentPair>)>,
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

    // Scatter: one thread per participating shard.
    let outcomes: Vec<Result<ShardAnswer, ShardFailure>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(shard, sensors)| {
                let body = shard_body(&spec, sensors);
                s.spawn(move || query_shard(board, metrics, shard, sensors, &body))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                Err(_) => Err(ShardFailure::Status(500, "scatter worker panicked".into())),
            })
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

    // Merge. Parts arrive per shard in ascending sensor order;
    // merge_sharded re-establishes the global ascending order, which is
    // exactly the single-process flattening.
    let epoch: u64 = answers.iter().map(|a| a.epoch).sum();
    let rows_considered: u64 = answers.iter().map(|a| a.rows_considered).sum();
    let cached = !answers.is_empty() && answers.iter().all(|a| a.cached);
    let all_parts: Vec<(u32, Vec<SegmentPair>)> =
        answers.into_iter().flat_map(|a| a.parts).collect();

    let mut fields = Vec::new();
    if let Some(series) = &spec.series {
        fields.push(("series".to_string(), Json::Str(series.clone())));
    }
    fields.extend([
        ("kind".to_string(), Json::Str(spec.kind.clone())),
        ("v".to_string(), Json::Float(spec.v)),
        ("t_hours".to_string(), Json::Float(spec.t_hours)),
        ("plan".to_string(), Json::Str(spec.plan.clone())),
        ("epoch".to_string(), Json::Uint(epoch)),
        ("cached".to_string(), Json::Bool(cached)),
    ]);
    let count: usize = all_parts.iter().map(|(_, r)| r.len()).sum();
    fields.extend([
        ("count".to_string(), Json::Uint(count as u64)),
        ("rows_considered".to_string(), Json::Uint(rows_considered)),
        (
            "wall_ms".to_string(),
            Json::Float(start.elapsed().as_secs_f64() * 1e3),
        ),
    ]);
    if spec.per_sensor {
        let mut parts = all_parts;
        parts.sort_by_key(|(id, _)| *id);
        fields.push((
            "by_sensor".to_string(),
            Json::Array(
                parts
                    .iter()
                    .map(|(sensor, results)| {
                        Json::obj([
                            ("sensor", Json::Uint(u64::from(*sensor))),
                            ("count", Json::Uint(results.len() as u64)),
                            ("results", pairs_to_json(results)),
                        ])
                    })
                    .collect(),
            ),
        ));
    } else {
        let merged = merge_sharded(all_parts);
        fields.push(("results".to_string(), pairs_to_json(&merged)));
    }
    fields.extend([
        ("sensors".to_string(), Json::Uint(targets.len() as u64)),
        ("shards".to_string(), Json::Uint(ring.num_shards() as u64)),
    ]);
    metrics.query_nanos.record_duration(start.elapsed());
    Response::json(200, &Json::Object(fields))
}

/// One shard's round trip: selected endpoint, one failover retry.
fn query_shard(
    board: &HealthBoard,
    metrics: &RouterMetrics,
    shard: usize,
    sensors: &[u32],
    body: &str,
) -> Result<ShardAnswer, ShardFailure> {
    let Some((addr, _)) = board.endpoint(shard) else {
        return Err(ShardFailure::Unavailable(sensors.to_vec()));
    };
    metrics.scatter_requests.inc();
    let (status, text) = match fetch(&addr, "POST", "/query", Some(body)) {
        Ok(out) => out,
        Err(_) => {
            metrics.shard_errors.inc();
            // Failover: re-probe now and retry once on whatever
            // endpoint the board selects next (typically the replica).
            let Some((next, _)) = board.report_failure(shard, &addr) else {
                return Err(ShardFailure::Unavailable(sensors.to_vec()));
            };
            metrics.scatter_requests.inc();
            match fetch(&next, "POST", "/query", Some(body)) {
                Ok(out) => out,
                Err(_) => {
                    metrics.shard_errors.inc();
                    board.report_failure(shard, &next);
                    return Err(ShardFailure::Unavailable(sensors.to_vec()));
                }
            }
        }
    };
    if !(200..300).contains(&status) {
        let msg = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_else(|| format!("shard returned status {status}"));
        return Err(ShardFailure::Status(
            status,
            format!("shard {shard}: {msg}"),
        ));
    }
    parse_answer(&text).map_err(|e| ShardFailure::Status(500, format!("shard {shard}: {e}")))
}

/// The per-shard request body: the validated spec re-serialized with
/// this shard's sensor slice and grouped output.
fn shard_body(spec: &QuerySpec, sensors: &[u32]) -> String {
    let mut fields = Vec::new();
    if let Some(series) = &spec.series {
        fields.push(("series".to_string(), Json::Str(series.clone())));
    }
    fields.extend([
        ("kind".to_string(), Json::Str(spec.kind.clone())),
        ("v".to_string(), Json::Float(spec.v)),
        ("t_hours".to_string(), Json::Float(spec.t_hours)),
        ("plan".to_string(), Json::Str(spec.plan.clone())),
        (
            "sensors".to_string(),
            Json::Array(sensors.iter().map(|&s| Json::Uint(u64::from(s))).collect()),
        ),
        ("per_sensor".to_string(), Json::Bool(true)),
    ]);
    Json::Object(fields).to_string_compact()
}

/// Parses a shard's grouped `by_sensor` response.
fn parse_answer(text: &str) -> Result<ShardAnswer, String> {
    let doc = Json::parse(text).map_err(|e| format!("malformed response: {e}"))?;
    let by_sensor = match doc.get("by_sensor") {
        Some(Json::Array(items)) => items,
        _ => return Err("response missing by_sensor".to_string()),
    };
    let mut parts = Vec::with_capacity(by_sensor.len());
    for entry in by_sensor {
        let sensor = entry
            .get("sensor")
            .and_then(Json::as_u64)
            .filter(|&n| n <= u64::from(u32::MAX))
            .ok_or("by_sensor entry missing sensor id")? as u32;
        let results = match entry.get("results") {
            Some(Json::Array(items)) => items
                .iter()
                .map(parse_pair)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(format!("sensor {sensor} entry missing results")),
        };
        parts.push((sensor, results));
    }
    Ok(ShardAnswer {
        parts,
        epoch: doc.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        rows_considered: doc
            .get("rows_considered")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        cached: matches!(doc.get("cached"), Some(Json::Bool(true))),
    })
}

fn parse_pair(item: &Json) -> Result<SegmentPair, String> {
    let field = |name: &str| {
        item.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result pair missing {name}"))
    };
    Ok(SegmentPair {
        t_d: field("t_d")?,
        t_c: field("t_c")?,
        t_b: field("t_b")?,
        t_a: field("t_a")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_body_round_trips_through_query_spec() {
        let spec = QuerySpec::from_json(r#"{"kind":"drop","v":-2.5,"t_hours":3.0}"#).expect("spec");
        let body = shard_body(&spec, &[4, 7]);
        let back = QuerySpec::from_json(&body).expect("shard body must be a valid query");
        assert_eq!(back.kind, "drop");
        assert_eq!(back.v, -2.5);
        assert_eq!(back.t_hours, 3.0);
        assert_eq!(back.sensors, vec![4, 7]);
        assert!(back.per_sensor);
    }

    #[test]
    fn parses_grouped_answers() {
        let text = r#"{"kind":"drop","epoch":9,"cached":true,"rows_considered":42,
            "by_sensor":[
              {"sensor":1,"count":1,"results":[{"t_d":0.5,"t_c":1.0,"t_b":2.0,"t_a":3.0}]},
              {"sensor":5,"count":0,"results":[]}
            ]}"#;
        let a = parse_answer(text).expect("parse");
        assert_eq!(a.epoch, 9);
        assert_eq!(a.rows_considered, 42);
        assert!(a.cached);
        assert_eq!(a.parts.len(), 2);
        assert_eq!(a.parts[0].0, 1);
        assert_eq!(a.parts[0].1[0].t_d, 0.5);
        assert!(a.parts[1].1.is_empty());

        assert!(parse_answer("{}").is_err());
        assert!(parse_answer("not json").is_err());
        assert!(parse_answer(r#"{"by_sensor":[{"sensor":1}]}"#).is_err());
    }

    #[test]
    fn pair_json_round_trips_bytes() {
        // The byte-identity contract: parse a pair from JSON, serialize
        // it again, get the same bytes (shortest round-trip floats).
        let pair = Json::obj([
            ("t_d", Json::Float(0.1)),
            ("t_c", Json::Float(1.5)),
            ("t_b", Json::Float(2.25)),
            ("t_a", Json::Float(1e300)),
        ]);
        let text = pair.to_string_compact();
        let parsed = parse_pair(&Json::parse(&text).expect("json")).expect("pair");
        assert_eq!(
            pairs_to_json(&[parsed]).to_string_compact(),
            format!("[{text}]")
        );
    }
}
