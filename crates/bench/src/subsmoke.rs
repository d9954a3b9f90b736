//! CI gate and scaling experiment for the standing-query subsystem
//! (DESIGN.md §5h).
//!
//! Two modes, consumed by the `subsmoke` binary:
//!
//! * **smoke** — end-to-end push delivery: serve a real index, register
//!   a population of subscriptions over HTTP (a mix of regions that must
//!   match a planted drop and regions that must not), ingest the planted
//!   series through the live registry, then poll every cursor and check
//!   each expected notification arrives **exactly once** and no
//!   unexpected subscription hears anything.
//! * **churn** — the indexing claim: with ~1,000 standing regions per
//!   sensor, matching committed features through the [`RegionIndex`]
//!   must test far fewer regions than the brute-force scan while
//!   returning the identical match set.

use crate::harness::{build_segdiff, default_series, scratch_dir, Scale};
use featurespace::{QueryRegion, RegionIndex, RegionMatchStats};
use obs::json::Json;
use segdiff::{FeatureExtractor, FeatureRow, SegDiffConfig, SegDiffIndex};
use segdiff_server::loadgen::fetch;
use segdiff_server::{Server, ServerConfig};
use sensorgen::{TimeSeries, HOUR};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sensor id the smoke's planted series is ingested as.
pub const PLANTED_SENSOR: u32 = 7;
/// Extent of the planted drop: 4 units over 6 steps of 300 s,
/// starting at observation 80.
pub const PLANTED_START: f64 = 80.0 * 300.0;
/// End of the planted drop's containing interval.
pub const PLANTED_END: f64 = 86.0 * 300.0;

/// A series with one unmistakable 4-unit drop at [`PLANTED_START`].
pub fn planted_series() -> TimeSeries {
    let mut s = TimeSeries::new();
    let mut v = 10.0;
    for i in 0..200 {
        let t = i as f64 * 300.0;
        if (80..86).contains(&i) {
            v -= 4.0 / 6.0;
        }
        s.push(t, v);
    }
    s
}

// ---------------------------------------------------------------------
// smoke mode
// ---------------------------------------------------------------------

/// One subscription-smoke run.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Total subscriptions to register (mixed matchers and decoys).
    pub subs: usize,
    /// How long to keep polling for missing notifications.
    pub deadline: Duration,
}

impl SmokeConfig {
    /// The configuration CI runs.
    pub fn ci() -> SmokeConfig {
        SmokeConfig {
            subs: 40,
            deadline: Duration::from_secs(10),
        }
    }
}

/// What a smoke run observed, before any pass/fail judgement.
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// Subscriptions registered.
    pub subs: usize,
    /// Subscriptions whose region must match the planted drop.
    pub matchers: usize,
    /// Matcher ids that never received a notification.
    pub missing: Vec<u64>,
    /// Decoy ids that received one (must stay empty).
    pub unexpected: Vec<u64>,
    /// `(sub, seq)` pairs seen more than once across all polls.
    pub duplicates: u64,
    /// Matcher ids whose notifications never covered the planted window.
    pub uncovered: Vec<u64>,
    /// Worst observed publish-to-poll latency, milliseconds.
    pub max_latency_ms: i64,
    /// Every notification received, one JSON object per line (artifact).
    pub notification_log: String,
    /// Raw `GET /subscribe` body after registration (artifact).
    pub subs_body: String,
}

fn register(host: &str, body: &str) -> Result<u64, String> {
    let (status, resp) = fetch(host, "POST", "/subscribe", Some(body))?;
    if status != 200 {
        return Err(format!("POST /subscribe returned {status}: {resp}"));
    }
    Json::parse(&resp)
        .map_err(|e| format!("parse /subscribe response: {e}"))?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "subscribe response has no id".to_string())
}

/// Serves a real index, registers `config.subs` standing queries over
/// HTTP, ingests the planted series through the server's live registry,
/// and polls every cursor until the deadline.
pub fn run_subsmoke(config: &SmokeConfig) -> Result<SmokeOutcome, String> {
    let dir = scratch_dir("subsmoke-served");
    let scale = Scale::tiny();
    let series = default_series(scale.subset_days, scale.seed);
    let built = build_segdiff(&series, 0.2, 8.0 * HOUR, scale.pool_pages, &dir, true);
    let index = Arc::new(built.index);

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&index),
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind subsmoke server: {e}"))?;
    let registry = Arc::clone(&server.service().observability().subs);
    let server = server.spawn();
    let host = server.host().to_string();

    // Four interleaved populations: two that must hear about the planted
    // drop (one listening to every sensor, one pinned to the planted
    // sensor) and two decoys whose regions or sensor filters exclude it.
    let mut matchers: Vec<u64> = Vec::new();
    let mut decoys: Vec<u64> = Vec::new();
    for i in 0..config.subs.max(4) {
        let (body, matches) = match i % 4 {
            0 => (
                format!(r#"{{"kind":"drop","v":-3.0,"t_hours":1.0,"label":"m-all-{i}"}}"#),
                true,
            ),
            1 => (
                format!(
                    r#"{{"kind":"drop","v":-2.5,"t_hours":1.0,"label":"m-s7-{i}","sensors":[{PLANTED_SENSOR}]}}"#
                ),
                true,
            ),
            2 => (
                // Far deeper and faster than anything the series contains.
                format!(r#"{{"kind":"drop","v":-50.0,"t_hours":0.01,"label":"d-region-{i}"}}"#),
                false,
            ),
            _ => (
                // Right region, wrong sensor.
                format!(
                    r#"{{"kind":"drop","v":-3.0,"t_hours":1.0,"label":"d-sensor-{i}","sensors":[9]}}"#
                ),
                false,
            ),
        };
        let id = register(&host, &body)?;
        if matches {
            matchers.push(id);
        } else {
            decoys.push(id);
        }
    }
    let (_, subs_body) = fetch(&host, "GET", "/subscribe", None)?;

    // Ingest the planted series through the server's live registry, the
    // way a collector co-located with the server would.
    let side_dir = scratch_dir("subsmoke-ingest");
    std::fs::remove_dir_all(&side_dir).ok();
    let mut side = SegDiffIndex::create(&side_dir, SegDiffConfig::default())
        .map_err(|e| format!("create ingest index: {e}"))?;
    side.attach_subscriptions(Arc::clone(&registry), PLANTED_SENSOR);
    side.ingest_series(&planted_series())
        .map_err(|e| format!("ingest planted series: {e}"))?;
    side.finish().map_err(|e| format!("finish ingest: {e}"))?;

    // Poll every cursor until each matcher has heard something (or the
    // deadline passes), recording seqs so repeats are visible.
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); matchers.len() + decoys.len()];
    let mut log = String::new();
    let mut covered: Vec<bool> = vec![false; matchers.len()];
    let mut duplicates = 0u64;
    let mut max_latency_ms = 0i64;
    let deadline = Instant::now() + config.deadline;
    loop {
        let mut all_matched = true;
        for (slot, &id) in matchers.iter().chain(decoys.iter()).enumerate() {
            let path = format!("/notifications?sub={id}&after=0&max=1000");
            let (status, body) = fetch(&host, "GET", &path, None)?;
            if status != 200 {
                return Err(format!("GET {path} returned {status}: {body}"));
            }
            let doc = Json::parse(&body).map_err(|e| format!("parse notifications: {e}"))?;
            let now_ms = obs::unix_ms() as i64;
            let empty = Vec::new();
            for n in doc
                .get("notifications")
                .and_then(Json::as_array)
                .unwrap_or(&empty)
            {
                let seq = n.get("seq").and_then(Json::as_u64).unwrap_or(0);
                if seen[slot].contains(&seq) {
                    continue; // re-read of an already-counted page
                }
                seen[slot].push(seq);
                log.push_str(&n.to_string_compact());
                log.push('\n');
                if let Some(committed) = n.get("committed_ms").and_then(Json::as_u64) {
                    max_latency_ms = max_latency_ms.max(now_ms - committed as i64);
                }
                let t_d = n.get("t_d").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let t_a = n.get("t_a").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if slot < matchers.len() && t_d <= PLANTED_START && t_a >= PLANTED_END {
                    covered[slot] = true;
                }
            }
            // The cursor contract: the same `after` must replay the same
            // prefix, never grow duplicates within it.
            let mut sorted = seen[slot].clone();
            sorted.sort_unstable();
            sorted.dedup();
            duplicates += (seen[slot].len() - sorted.len()) as u64;
            if slot < matchers.len() && seen[slot].is_empty() {
                all_matched = false;
            }
        }
        if all_matched || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let _ = fetch(&host, "POST", "/shutdown", None);
    server.stop().map_err(|e| format!("server run: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&side_dir).ok();

    let missing = matchers
        .iter()
        .enumerate()
        .filter(|(slot, _)| seen[*slot].is_empty())
        .map(|(_, &id)| id)
        .collect();
    let uncovered = matchers
        .iter()
        .enumerate()
        .filter(|(slot, _)| !seen[*slot].is_empty() && !covered[*slot])
        .map(|(_, &id)| id)
        .collect();
    let unexpected = decoys
        .iter()
        .enumerate()
        .filter(|(i, _)| !seen[matchers.len() + i].is_empty())
        .map(|(_, &id)| id)
        .collect();
    Ok(SmokeOutcome {
        subs: matchers.len() + decoys.len(),
        matchers: matchers.len(),
        missing,
        unexpected,
        duplicates,
        uncovered,
        max_latency_ms,
        notification_log: log,
        subs_body,
    })
}

/// Applies the CI gate to a smoke outcome. Returns the failure reasons
/// (empty = pass).
pub fn judge_smoke(outcome: &SmokeOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if !outcome.missing.is_empty() {
        failures.push(format!(
            "{} matching subscription(s) never notified: {:?}",
            outcome.missing.len(),
            outcome.missing
        ));
    }
    if !outcome.unexpected.is_empty() {
        failures.push(format!(
            "non-matching subscription(s) notified: {:?}",
            outcome.unexpected
        ));
    }
    if outcome.duplicates > 0 {
        failures.push(format!(
            "{} duplicate (sub, seq) deliveries",
            outcome.duplicates
        ));
    }
    if !outcome.uncovered.is_empty() {
        failures.push(format!(
            "notification(s) never covered the planted drop [{PLANTED_START}, {PLANTED_END}]: {:?}",
            outcome.uncovered
        ));
    }
    failures
}

/// The smoke outcome as a JSON artifact (`summary.json`).
pub fn smoke_summary_json(outcome: &SmokeOutcome, failures: &[String]) -> Json {
    Json::obj([
        ("mode", Json::from("smoke")),
        ("pass", Json::Bool(failures.is_empty())),
        ("subs", Json::from(outcome.subs as u64)),
        ("matchers", Json::from(outcome.matchers as u64)),
        ("missing", Json::from(outcome.missing.len() as u64)),
        ("unexpected", Json::from(outcome.unexpected.len() as u64)),
        ("duplicates", Json::from(outcome.duplicates)),
        ("max_latency_ms", Json::from(outcome.max_latency_ms)),
        (
            "gate_failures",
            Json::Array(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------
// churn mode
// ---------------------------------------------------------------------

/// One region-index churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Standing regions to register (the paper-scale default is 1,000
    /// per sensor; this is one sensor's worth).
    pub regions: usize,
    /// Days of the synthetic series to extract features from.
    pub days: u32,
    /// RNG seed for the series.
    pub seed: u64,
}

impl ChurnConfig {
    /// The configuration CI and EXPERIMENTS.md use: 1,000 regions.
    pub fn ci() -> ChurnConfig {
        ChurnConfig {
            regions: 1000,
            days: 3,
            seed: 42,
        }
    }
}

/// What a churn run measured.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Standing regions registered.
    pub regions: usize,
    /// Committed feature rows evaluated against them.
    pub rows: usize,
    /// Total matches found (identical for both strategies by the gate).
    pub matches: u64,
    /// Rows whose indexed and brute-force match sets differed.
    pub mismatches: u64,
    /// Exact region tests the index performed.
    pub regions_tested: u64,
    /// Grid cells the index visited.
    pub cells_visited: u64,
    /// Region tests brute force performs (`rows * regions`).
    pub brute_tested: u64,
    /// Wall time of the indexed pass, seconds.
    pub indexed_seconds: f64,
    /// Wall time of the brute-force pass, seconds.
    pub brute_seconds: f64,
}

impl ChurnOutcome {
    /// Fraction of brute-force region tests the index performed.
    pub fn test_ratio(&self) -> f64 {
        self.regions_tested as f64 / self.brute_tested.max(1) as f64
    }
}

/// A deterministic population of `n` standing regions spread over the
/// query space: half drops, half jumps, thresholds fanned across the
/// (V, T) ranges a monitoring deployment would use.
pub fn region_population(n: usize) -> Vec<QueryRegion> {
    (0..n)
        .map(|i| {
            let frac = i as f64 / n.max(1) as f64;
            let t = 600.0 + frac * (8.0 * HOUR - 600.0);
            let v = 0.5 + 7.5 * ((i * 7919) % n.max(1)) as f64 / n.max(1) as f64;
            if i % 2 == 0 {
                QueryRegion::drop(t, -v)
            } else {
                QueryRegion::jump(t, v)
            }
        })
        .collect()
}

/// Extracts every feature row the ingest path would commit for the
/// synthetic series, via the same segmentation + extraction pipeline.
pub fn committed_rows(days: u32, seed: u64) -> Vec<FeatureRow> {
    let series = default_series(days, seed);
    let pla = segmentation::segment_series(&series, 0.2);
    let mut extractor = FeatureExtractor::new(0.2, 8.0 * HOUR);
    let mut rows = Vec::new();
    for seg in pla.segments() {
        extractor.push_segment(*seg, &mut rows);
    }
    rows
}

/// Runs both matching strategies over the same rows and regions.
pub fn run_churn(config: &ChurnConfig) -> ChurnOutcome {
    let regions = region_population(config.regions);
    let rows = committed_rows(config.days, config.seed);

    let mut index = RegionIndex::new();
    for (i, region) in regions.iter().enumerate() {
        index.insert(i as u64, *region);
    }

    let start = Instant::now();
    let mut brute: Vec<Vec<u64>> = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut ids = index.matches_brute(&row.boundary);
        ids.sort_unstable();
        brute.push(ids);
    }
    let brute_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut stats = RegionMatchStats::default();
    let mut buf = Vec::new();
    let mut matches = 0u64;
    let mut mismatches = 0u64;
    for (row, expected) in rows.iter().zip(&brute) {
        buf.clear();
        index.matches(&row.boundary, &mut buf, &mut stats);
        buf.sort_unstable();
        matches += buf.len() as u64;
        if &buf != expected {
            mismatches += 1;
        }
    }
    let indexed_seconds = start.elapsed().as_secs_f64();

    ChurnOutcome {
        regions: regions.len(),
        rows: rows.len(),
        matches,
        mismatches,
        regions_tested: stats.regions_tested,
        cells_visited: stats.cells_visited,
        brute_tested: rows.len() as u64 * regions.len() as u64,
        indexed_seconds,
        brute_seconds,
    }
}

/// Applies the CI gate to a churn outcome: the index must agree exactly
/// with brute force and test at most half the regions (in practice far
/// fewer — the summary records the real ratio).
pub fn judge_churn(outcome: &ChurnOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if outcome.rows == 0 {
        failures.push("no feature rows extracted; the run measured nothing".to_string());
    }
    if outcome.mismatches > 0 {
        failures.push(format!(
            "indexed matching disagreed with brute force on {} row(s)",
            outcome.mismatches
        ));
    }
    if outcome.regions_tested * 2 > outcome.brute_tested {
        failures.push(format!(
            "index tested {} of {} region evaluations ({:.1}%) — not sublinear",
            outcome.regions_tested,
            outcome.brute_tested,
            outcome.test_ratio() * 100.0
        ));
    }
    failures
}

/// The churn outcome as a JSON artifact (`summary.json`).
pub fn churn_summary_json(outcome: &ChurnOutcome, failures: &[String]) -> Json {
    Json::obj([
        ("mode", Json::from("churn")),
        ("pass", Json::Bool(failures.is_empty())),
        ("regions", Json::from(outcome.regions as u64)),
        ("rows", Json::from(outcome.rows as u64)),
        ("matches", Json::from(outcome.matches)),
        ("mismatches", Json::from(outcome.mismatches)),
        ("regions_tested", Json::from(outcome.regions_tested)),
        ("cells_visited", Json::from(outcome.cells_visited)),
        ("brute_tested", Json::from(outcome.brute_tested)),
        ("test_ratio", Json::Float(outcome.test_ratio())),
        ("indexed_seconds", Json::Float(outcome.indexed_seconds)),
        ("brute_seconds", Json::Float(outcome.brute_seconds)),
        (
            "gate_failures",
            Json::Array(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced churn run: the index must agree with brute force and
    /// do asymptotically less work.
    #[test]
    fn churn_index_is_lossless_and_sublinear() {
        let outcome = run_churn(&ChurnConfig {
            regions: 200,
            days: 2,
            seed: 42,
        });
        let failures = judge_churn(&outcome);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(
            outcome.rows > 100,
            "series too small: {} rows",
            outcome.rows
        );
        assert!(outcome.matches > 0, "population never matched anything");
    }

    /// A reduced smoke run end-to-end over HTTP.
    #[test]
    fn smoke_delivers_exactly_once() {
        let outcome = run_subsmoke(&SmokeConfig {
            subs: 8,
            deadline: Duration::from_secs(10),
        })
        .expect("smoke runs");
        let failures = judge_smoke(&outcome);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(!outcome.notification_log.is_empty());
        assert!(outcome.subs_body.contains("\"subscriptions\""));
    }

    #[test]
    fn judges_reject_bad_outcomes() {
        let good = SmokeOutcome {
            subs: 8,
            matchers: 4,
            missing: Vec::new(),
            unexpected: Vec::new(),
            duplicates: 0,
            uncovered: Vec::new(),
            max_latency_ms: 12,
            notification_log: String::new(),
            subs_body: String::new(),
        };
        assert!(judge_smoke(&good).is_empty());
        let mut bad = good.clone();
        bad.missing.push(3);
        bad.duplicates = 2;
        assert_eq!(judge_smoke(&bad).len(), 2);
        let json = smoke_summary_json(&bad, &judge_smoke(&bad)).to_string();
        assert!(json.contains("\"pass\":false"), "{json}");
    }
}
