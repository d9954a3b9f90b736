//! CI gate and scaling experiment for the standing-query subsystem
//! (DESIGN.md §5h).
//!
//! Two modes, consumed by the `subsmoke` binary:
//!
//! * **smoke** — end-to-end push delivery: serve a real index, register
//!   a population of subscriptions over HTTP (a mix of regions that must
//!   match a planted drop and regions that must not), ingest the planted
//!   series through the live registry, then poll every cursor and check
//!   each expected notification arrives **exactly once**, carrying its
//!   subscription's kind, and no unexpected subscription hears anything.
//! * **churn** — the indexing claim: with ~1,000 standing regions per
//!   sensor, matching committed features through the [`RegionIndex`]
//!   must test far fewer regions than the brute-force scan while
//!   returning the identical match set — over both kinds
//!   ([`RegionIndex::matches`]) and over a row's own kind
//!   ([`RegionIndex::matches_kind`], the call the registry makes).

use crate::gate::Gate;
use crate::harness::{build_segdiff, default_series, scratch_dir, Scale};
use featurespace::{QueryRegion, RegionIndex, RegionMatchStats};
use obs::json::Json;
use segdiff::{FeatureExtractor, FeatureRow, SegDiffConfig, SegDiffIndex};
use segdiff_server::loadgen::fetch;
use segdiff_server::{Server, ServerConfig};
use sensorgen::{TimeSeries, HOUR};
use std::collections::HashMap;
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

/// Duplicate deliveries among one subscription's polled pages (each the
/// `notifications` array of one `GET /notifications` answer): a seq that
/// repeats within one page, or one `(t_d, t_c, t_b, t_a)` pair delivered
/// under two seqs. A seq re-read by a later poll is not a duplicate: every
/// poll replays the cursor from the start.
fn count_duplicates(pages: &[Vec<Json>]) -> u64 {
    let stamp = |n: &Json, key: &str| n.get(key).and_then(Json::as_f64).map(f64::to_bits);
    let seq = |n: &Json| n.get("seq").and_then(Json::as_u64);
    let mut duplicates = 0;
    let mut pairs: Vec<([Option<u64>; 4], Option<u64>)> = Vec::new();
    for page in pages {
        let mut seqs: Vec<Option<u64>> = page.iter().map(seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        duplicates += (page.len() - seqs.len()) as u64;
        for n in page {
            pairs.push((["t_d", "t_c", "t_b", "t_a"].map(|k| stamp(n, k)), seq(n)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let delivered = pairs.len();
    pairs.dedup_by_key(|(pair, _)| *pair);
    duplicates + (delivered - pairs.len()) as u64
}

/// Serves a real index, registers `config.subs` standing queries over
/// HTTP, ingests the planted series through the server's live registry,
/// polls every cursor until the deadline, and checks that each expected
/// notification arrived exactly once, of its subscription's kind, and no
/// decoy heard anything.
/// Artifacts: `notifications.ndjson` (every notification received, one
/// JSON object a line) and `subscriptions.json` (`GET /subscribe` after
/// registration).
pub fn run_subsmoke(config: &SmokeConfig, gate: &mut Gate) -> Result<(), String> {
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
    // Each subscription's kind, as the server stored it.
    let listing = Json::parse(&subs_body).map_err(|e| format!("parse /subscribe: {e}"))?;
    let kind_of: HashMap<u64, String> = listing
        .get("subscriptions")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| Some((s.get("id")?.as_u64()?, s.get("kind")?.as_str()?.to_string())))
        .collect();
    gate.artifact("subscriptions.json", subs_body);

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
    // deadline passes), keeping every page so repeats are visible.
    let subs: Vec<u64> = matchers.iter().chain(&decoys).copied().collect();
    let mut pages: Vec<Vec<Vec<Json>>> = vec![Vec::new(); subs.len()];
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); subs.len()];
    let mut log = String::new();
    let mut covered: Vec<bool> = vec![false; matchers.len()];
    let mut mislabelled = 0u64;
    let mut max_latency_ms = 0i64;
    let deadline = Instant::now() + config.deadline;
    loop {
        for (slot, &id) in subs.iter().enumerate() {
            let path = format!("/notifications?sub={id}&after=0&max=1000");
            let (status, body) = fetch(&host, "GET", &path, None)?;
            if status != 200 {
                return Err(format!("GET {path} returned {status}: {body}"));
            }
            let doc = Json::parse(&body).map_err(|e| format!("parse notifications: {e}"))?;
            let now_ms = obs::unix_ms() as i64;
            let page = doc.get("notifications").and_then(Json::as_array);
            let page = page.unwrap_or_default().to_vec();
            for n in &page {
                let seq = n.get("seq").and_then(Json::as_u64).unwrap_or(0);
                if seen[slot].contains(&seq) {
                    continue; // re-read of an already-logged notification
                }
                seen[slot].push(seq);
                log.push_str(&n.to_string_compact());
                log.push('\n');
                let kind = n.get("kind").and_then(Json::as_str);
                if kind.is_none() || kind != kind_of.get(&id).map(String::as_str) {
                    mislabelled += 1;
                }
                if let Some(committed) = n.get("committed_ms").and_then(Json::as_u64) {
                    max_latency_ms = max_latency_ms.max(now_ms - committed as i64);
                }
                let t_d = n.get("t_d").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let t_a = n.get("t_a").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if slot < matchers.len() && t_d <= PLANTED_START && t_a >= PLANTED_END {
                    covered[slot] = true;
                }
            }
            pages[slot].push(page);
        }
        let all_matched = seen[..matchers.len()].iter().all(|s| !s.is_empty());
        if all_matched || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let _ = fetch(&host, "POST", "/shutdown", None);
    server.stop().map_err(|e| format!("server run: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&side_dir).ok();
    gate.artifact("notifications.ndjson", log);

    let ids = |pick: &dyn Fn(usize) -> bool| -> Vec<u64> {
        (0..subs.len())
            .filter(|&s| pick(s))
            .map(|s| subs[s])
            .collect()
    };
    let is_matcher = |s: usize| s < matchers.len();
    let missing = ids(&|s| is_matcher(s) && seen[s].is_empty());
    let uncovered = ids(&|s| is_matcher(s) && !seen[s].is_empty() && !covered[s]);
    let unexpected = ids(&|s| !is_matcher(s) && !seen[s].is_empty());
    let duplicates: u64 = pages.iter().map(|p| count_duplicates(p)).sum();

    gate.field("mode", "smoke");
    gate.field("subs", subs.len());
    gate.field("matchers", matchers.len());
    gate.field("missing", missing.len());
    gate.field("unexpected", unexpected.len());
    gate.field("duplicates", duplicates);
    gate.field("mislabelled", mislabelled);
    gate.field("max_latency_ms", max_latency_ms);
    gate.check(
        "every matching subscription notified",
        missing.is_empty(),
        format!("{} never notified: {missing:?}", missing.len()),
    );
    gate.check(
        "no decoy notified",
        unexpected.is_empty(),
        format!("non-matching subscription(s) notified: {unexpected:?}"),
    );
    gate.check(
        "every notification delivered exactly once",
        duplicates == 0,
        format!("{duplicates} duplicate deliveries"),
    );
    gate.check(
        "every notification carries its subscription's kind",
        mislabelled == 0,
        format!("{mislabelled} notification(s) of another kind than their subscription's"),
    );
    gate.check(
        "notifications cover the planted drop",
        uncovered.is_empty(),
        format!("never covered [{PLANTED_START}, {PLANTED_END}]: {uncovered:?}"),
    );
    Ok(())
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

/// Runs both matching strategies over the same rows and regions, and
/// checks the index agrees exactly with brute force while testing at
/// most half the regions (in practice far fewer — the summary records
/// the real ratio).
pub fn run_churn(config: &ChurnConfig, gate: &mut Gate) {
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

    // The call the registry makes: a row against the regions of its own
    // kind, which must be brute force's ids of that kind.
    let mut kind_stats = RegionMatchStats::default();
    let mut kind_mismatches = 0u64;
    for (row, expected) in rows.iter().zip(&brute) {
        buf.clear();
        index.matches_kind(row.kind, &row.boundary, &mut buf, &mut kind_stats);
        buf.sort_unstable();
        let of_kind = expected
            .iter()
            .filter(|&&id| regions[id as usize].kind == row.kind);
        if !buf.iter().eq(of_kind) {
            kind_mismatches += 1;
        }
    }

    let brute_tested = rows.len() as u64 * regions.len() as u64;
    let test_ratio = stats.regions_tested as f64 / brute_tested.max(1) as f64;
    gate.field("mode", "churn");
    gate.field("regions", regions.len());
    gate.field("rows", rows.len());
    gate.field("matches", matches);
    gate.field("mismatches", mismatches);
    gate.field("kind_mismatches", kind_mismatches);
    gate.field("kind_regions_tested", kind_stats.regions_tested);
    gate.field("regions_tested", stats.regions_tested);
    gate.field("cells_visited", stats.cells_visited);
    gate.field("brute_tested", brute_tested);
    gate.field("test_ratio", test_ratio);
    gate.field("indexed_seconds", indexed_seconds);
    gate.field("brute_seconds", brute_seconds);
    gate.check(
        "feature rows extracted",
        !rows.is_empty(),
        "no feature rows; the run measured nothing",
    );
    gate.check(
        "indexed matching equals brute force",
        mismatches == 0,
        format!("disagreed on {mismatches} row(s)"),
    );
    gate.check(
        "matching a row's own kind equals brute force of that kind",
        kind_mismatches == 0,
        format!("disagreed on {kind_mismatches} row(s)"),
    );
    gate.check(
        "index tests at most half the brute-force regions",
        stats.regions_tested * 2 <= brute_tested,
        format!(
            "tested {} of {brute_tested} ({:.1}%) — not sublinear",
            stats.regions_tested,
            test_ratio * 100.0
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced churn run: the index must agree with brute force and
    /// do asymptotically less work.
    #[test]
    fn churn_index_is_lossless_and_sublinear() {
        let config = ChurnConfig {
            regions: 200,
            days: 2,
            seed: 42,
        };
        let mut gate = Gate::new("subsmoke");
        run_churn(&config, &mut gate);
        let summary = gate.summary();
        assert!(gate.passed(), "{summary}");
        let rows = summary.get("rows").and_then(Json::as_u64);
        assert!(rows > Some(100), "series too small: {rows:?} rows");
        let matches = summary.get("matches").and_then(Json::as_u64);
        assert!(matches > Some(0), "population never matched anything");
    }

    /// A reduced smoke run end-to-end over HTTP.
    #[test]
    fn smoke_delivers_exactly_once() {
        let config = SmokeConfig {
            subs: 8,
            deadline: Duration::from_secs(10),
        };
        let mut gate = Gate::new("subsmoke");
        run_subsmoke(&config, &mut gate).expect("smoke runs");
        let out = scratch_dir("subsmoke-test-out");
        assert_eq!(gate.finish(Some(&out)), 0, "{}", gate.summary());
        let log = std::fs::read_to_string(out.join("notifications.ndjson")).expect("log");
        assert!(!log.is_empty());
        let subs = std::fs::read_to_string(out.join("subscriptions.json")).expect("subs");
        assert!(subs.contains("\"subscriptions\""));
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn duplicates_are_repeats_within_a_page_or_a_pair_under_two_seqs() {
        let n = |seq: u64, t_d: f64| {
            Json::obj([
                ("seq", Json::from(seq)),
                ("t_d", Json::from(t_d)),
                ("t_c", Json::from(t_d + 300.0)),
                ("t_b", Json::from(t_d + 600.0)),
                ("t_a", Json::from(t_d + 900.0)),
            ])
        };
        // A later poll re-reading the same prefix is not a duplicate.
        let clean = vec![vec![n(1, 0.0)], vec![n(1, 0.0), n(2, 60.0)]];
        assert_eq!(count_duplicates(&clean), 0);
        // Seq 1 twice in one page; the pair at 0 again under seq 2.
        let page = vec![n(1, 0.0), n(1, 0.0), n(2, 0.0)];
        assert_eq!(count_duplicates(&[page]), 2);
    }
}
