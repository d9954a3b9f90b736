//! Beyond-paper experiment: the dogfooded alerting pipeline against an
//! injected fault.
//!
//! The server watches its own sampled metric series with the paper's
//! drop/jump detector (DESIGN.md §5g). This harness proves that loop
//! end-to-end: it serves a real index, drives it with a closed-loop
//! load, and — in fault mode — arms the `SEGDIFF_FAULT_SLEEP_MS` hatch
//! in the query executor so every query suddenly slows down mid-run.
//! The standing rules must then fire: `query-latency-jump` on the
//! windowed `server.query_nanos.p50` series directly, and (because the
//! load is closed-loop, so slower queries mean fewer of them)
//! optionally `query-rate-drop` on `server.queries.rate` as collateral.
//! In clean mode the same run with no fault must fire nothing.
//!
//! Fault injection is process-global (the hatch reads its environment
//! once), so clean and fault runs are separate invocations of the
//! `alertsmoke` binary — which is also how CI consumes this module.

use crate::harness::{build_segdiff, default_series, scratch_dir, Scale};
use obs::json::Json;
use segdiff::alerts::AlertRuleSet;
use segdiff_server::loadgen::{self, fetch};
use segdiff_server::{LoadgenConfig, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// The rule the fault's latency signature must trip.
pub const REQUIRED_RULE: &str = "query-latency-jump";
/// Closed-loop collateral of the latency fault: slower queries mean
/// fewer queries per second, which is itself a (legitimate) drop.
pub const COLLATERAL_RULE: &str = "query-rate-drop";

/// One alert-smoke run.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Whether the latency fault is armed (informational — arming is
    /// the binary's job, via the environment, before any query runs).
    pub fault: bool,
    /// Total load duration.
    pub duration: Duration,
    /// Fault onset, measured from the first query (mirrors
    /// `SEGDIFF_FAULT_DELAY_SECS`); the run is clean until then.
    pub fault_delay: Duration,
    /// Sampler/alert-evaluation period for the server under test.
    pub sample_period: Duration,
    /// Standing rules to evaluate.
    pub rules: AlertRuleSet,
    /// Closed-loop loadgen workers.
    pub concurrency: usize,
    /// Distinct query bodies; sized so the run cannot wrap the rotation
    /// (a wrapped body hits the result cache and skips the executor —
    /// and with it the fault hatch).
    pub unique_bodies: usize,
}

impl SmokeConfig {
    /// The configuration CI runs: 8 s of load, fault (if armed) at 3 s,
    /// 250 ms sampling.
    pub fn ci(fault: bool, rules: AlertRuleSet) -> SmokeConfig {
        SmokeConfig {
            fault,
            duration: Duration::from_secs(8),
            fault_delay: Duration::from_secs(3),
            sample_period: Duration::from_millis(250),
            rules,
            concurrency: 4,
            unique_bodies: 50_000,
        }
    }
}

/// What a run observed, before any pass/fail judgement.
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// Echo of the mode.
    pub fault: bool,
    /// Completed 2xx requests.
    pub ok: u64,
    /// Non-2xx responses plus transport errors.
    pub failures: u64,
    /// Requests per second over the whole run (fault runs mix the fast
    /// and slow phases).
    pub qps: f64,
    /// Rule names that fired, in log order, deduplicated.
    pub fired_rules: Vec<String>,
    /// For the first [`REQUIRED_RULE`] alert: milliseconds from fault
    /// onset to `fired_at_ms`. `None` when it never fired.
    pub detection_ms: Option<i64>,
    /// Raw `GET /alerts` body, snapshotted while the server still held
    /// the run's state (artifact).
    pub alerts_body: String,
    /// Raw `GET /debug/traces?ring=slow&full=1` body (artifact): the
    /// tail-sampled evidence of the slow requests themselves.
    pub slow_traces_body: String,
    /// Raw `GET /debug/traces` body (artifact).
    pub recent_traces_body: String,
}

/// Builds a tiny index, serves it, drives the load, and snapshots the
/// alert log and trace rings **before** the load's own end can register
/// as a throughput drop (the observer is still ticking during the
/// snapshot, but the window between loadgen returning and the fetch is
/// far below one sampling period).
pub fn run_alertsmoke(config: &SmokeConfig) -> Result<SmokeOutcome, String> {
    let dir = scratch_dir(if config.fault {
        "alertsmoke-fault"
    } else {
        "alertsmoke-clean"
    });
    let scale = Scale::tiny();
    let series = default_series(scale.subset_days, scale.seed);
    let built = build_segdiff(&series, 0.2, 8.0 * 3600.0, scale.pool_pages, &dir, true);
    let index = Arc::new(built.index);

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&index),
        ServerConfig {
            threads: 2,
            sample_period: config.sample_period,
            alert_rules: config.rules.clone(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind alertsmoke server: {e}"))?
    .spawn();
    let host = server.host().to_string();

    // Every body is distinct so the result cache cannot short-circuit
    // the executor (V varies by far less than any result cares about).
    let bodies: Vec<String> = (0..config.unique_bodies.max(1))
        .map(|i| {
            format!(
                r#"{{"kind":"drop","v":{:.6},"t_hours":1.0,"plan":"index"}}"#,
                -2.0 - i as f64 * 1e-6
            )
        })
        .collect();

    let start_ms = obs::unix_ms();
    let report = loadgen::run(&LoadgenConfig {
        host: host.clone(),
        concurrency: config.concurrency,
        duration: config.duration,
        bodies,
    })?;

    // Snapshot while the in-load state is still current.
    let (status, alerts_body) = fetch(&host, "GET", "/alerts", None)?;
    if status != 200 {
        return Err(format!("GET /alerts returned {status}"));
    }
    let (_, slow_traces_body) = fetch(&host, "GET", "/debug/traces?ring=slow&n=64&full=1", None)?;
    let (_, recent_traces_body) = fetch(&host, "GET", "/debug/traces?n=64", None)?;

    server.stop().map_err(|e| format!("server run: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();

    let doc = Json::parse(&alerts_body).map_err(|e| format!("parse /alerts: {e}"))?;
    let alerts = doc
        .get("alerts")
        .and_then(|v| v.as_array())
        .ok_or("GET /alerts body has no 'alerts' array")?;
    let mut fired_rules: Vec<String> = Vec::new();
    let mut detection_ms = None;
    let onset_ms = start_ms + config.fault_delay.as_millis() as u64;
    for alert in alerts {
        let rule = alert
            .get("rule")
            .and_then(|v| v.as_str())
            .ok_or("alert entry has no 'rule'")?;
        if !fired_rules.iter().any(|r| r == rule) {
            fired_rules.push(rule.to_string());
        }
        if rule == REQUIRED_RULE && detection_ms.is_none() {
            let fired_at = alert
                .get("fired_at_ms")
                .and_then(|v| v.as_u64())
                .ok_or("alert entry has no 'fired_at_ms'")?;
            detection_ms = Some(fired_at as i64 - onset_ms as i64);
        }
    }

    Ok(SmokeOutcome {
        fault: config.fault,
        ok: report.ok,
        failures: report.non_2xx + report.errors,
        qps: report.qps(),
        fired_rules,
        detection_ms,
        alerts_body,
        slow_traces_body,
        recent_traces_body,
    })
}

/// Applies the CI gate to an outcome. Returns the failure reasons
/// (empty = pass).
///
/// * Clean mode: **nothing** may fire — the standing rules must not
///   false-positive on an ordinary serving workload.
/// * Fault mode: [`REQUIRED_RULE`] must fire within `detect_within` of
///   fault onset, and nothing beyond it and [`COLLATERAL_RULE`] may
///   fire.
pub fn judge(outcome: &SmokeOutcome, detect_within: Duration) -> Vec<String> {
    let mut failures = Vec::new();
    if outcome.ok == 0 {
        failures.push("no request succeeded; the run measured nothing".to_string());
    }
    if !outcome.fault {
        if !outcome.fired_rules.is_empty() {
            failures.push(format!(
                "clean run fired {:?} — false positive",
                outcome.fired_rules
            ));
        }
        return failures;
    }
    match outcome.detection_ms {
        None => failures.push(format!(
            "fault run never fired '{REQUIRED_RULE}' (fired: {:?})",
            outcome.fired_rules
        )),
        Some(ms) if ms > detect_within.as_millis() as i64 => failures.push(format!(
            "'{REQUIRED_RULE}' fired {ms} ms after fault onset (bound: {} ms)",
            detect_within.as_millis()
        )),
        Some(_) => {}
    }
    for rule in &outcome.fired_rules {
        if rule != REQUIRED_RULE && rule != COLLATERAL_RULE {
            failures.push(format!("unexpected rule fired: '{rule}'"));
        }
    }
    failures
}

/// The outcome as a JSON artifact (`summary.json`).
pub fn summary_json(outcome: &SmokeOutcome, failures: &[String]) -> Json {
    Json::obj([
        (
            "mode",
            Json::from(if outcome.fault { "fault" } else { "clean" }),
        ),
        ("pass", Json::Bool(failures.is_empty())),
        ("ok", Json::from(outcome.ok)),
        ("failures", Json::from(outcome.failures)),
        ("qps", Json::Float(outcome.qps)),
        (
            "fired_rules",
            Json::Array(
                outcome
                    .fired_rules
                    .iter()
                    .map(|r| Json::from(r.as_str()))
                    .collect(),
            ),
        ),
        (
            "detection_ms",
            outcome.detection_ms.map_or(Json::Null, Json::from),
        ),
        (
            "gate_failures",
            Json::Array(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short clean run end-to-end: requests succeed and no standing
    /// rule fires. (The fault path needs a process with the environment
    /// hatch armed before the first query; the `alertsmoke` binary and
    /// CI cover it.)
    #[test]
    fn clean_run_fires_nothing() {
        let config = SmokeConfig {
            fault: false,
            duration: Duration::from_millis(1500),
            fault_delay: Duration::from_secs(0),
            sample_period: Duration::from_millis(100),
            rules: AlertRuleSet::defaults(),
            concurrency: 2,
            unique_bodies: 20_000,
        };
        let outcome = run_alertsmoke(&config).expect("smoke runs");
        let failures = judge(&outcome, Duration::from_secs(1));
        assert!(failures.is_empty(), "{failures:?}");
        assert!(outcome.ok > 0);
        assert!(outcome.alerts_body.contains("\"rules\""));
    }

    #[test]
    fn judge_rejects_bad_outcomes() {
        let base = SmokeOutcome {
            fault: true,
            ok: 100,
            failures: 0,
            qps: 10.0,
            fired_rules: vec![REQUIRED_RULE.to_string()],
            detection_ms: Some(400),
            alerts_body: String::new(),
            slow_traces_body: String::new(),
            recent_traces_body: String::new(),
        };
        assert!(judge(&base, Duration::from_secs(2)).is_empty());

        let mut slow = base.clone();
        slow.detection_ms = Some(5_000);
        assert!(!judge(&slow, Duration::from_secs(2)).is_empty());

        let mut missing = base.clone();
        missing.fired_rules.clear();
        missing.detection_ms = None;
        assert!(!judge(&missing, Duration::from_secs(2)).is_empty());

        let mut rogue = base.clone();
        rogue.fired_rules.push("disk-full".to_string());
        assert!(!judge(&rogue, Duration::from_secs(2)).is_empty());

        let mut clean_fired = base;
        clean_fired.fault = false;
        assert_eq!(judge(&clean_fired, Duration::from_secs(2)).len(), 1);

        let json = summary_json(&clean_fired, &["x".to_string()]).to_string();
        assert!(json.contains("\"pass\":false"), "{json}");
    }
}
