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

use crate::gate::Gate;
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

/// Builds a tiny index, serves it, drives the load, and snapshots the
/// alert log and trace rings **before** the load's own end can register
/// as a throughput drop (the observer is still ticking during the
/// snapshot, but the window between loadgen returning and the fetch is
/// far below one sampling period). Then checks the verdict:
///
/// * Clean mode: **nothing** may fire — the standing rules must not
///   false-positive on an ordinary serving workload.
/// * Fault mode: [`REQUIRED_RULE`] must fire within `detect_within` of
///   fault onset, and nothing beyond it and [`COLLATERAL_RULE`] may
///   fire.
///
/// Artifacts: `alerts.json` (the alert log) and `traces-slow.json` /
/// `traces-recent.json` (the tail-sampled evidence).
pub fn run_alertsmoke(
    config: &SmokeConfig,
    detect_within: Duration,
    gate: &mut Gate,
) -> Result<(), String> {
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
    let (slow_status, slow) = fetch(&host, "GET", "/debug/traces?ring=slow&n=64&full=1", None)?;
    let (recent_status, recent) = fetch(&host, "GET", "/debug/traces?n=64", None)?;
    gate.check(
        "trace rings answered 200",
        slow_status == 200 && recent_status == 200,
        format!("slow ring {slow_status}, recent ring {recent_status}"),
    );
    gate.artifact("traces-slow.json", slow);
    gate.artifact("traces-recent.json", recent);

    server.stop().map_err(|e| format!("server run: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();

    gate.field("mode", if config.fault { "fault" } else { "clean" });
    gate.field("load_ok", report.ok);
    gate.field("load_failures", report.non_2xx + report.errors);
    gate.field("qps", report.qps());
    gate.check(
        "requests succeeded",
        report.ok > 0,
        "no request succeeded; the run measured nothing",
    );

    let doc = Json::parse(&alerts_body).map_err(|e| format!("parse /alerts: {e}"))?;
    gate.artifact("alerts.json", alerts_body);
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
    let fired = Json::Array(fired_rules.iter().map(|r| Json::from(r.as_str())).collect());
    gate.field("fired_rules", fired);
    gate.field("detection_ms", detection_ms.map_or(Json::Null, Json::from));

    if !config.fault {
        gate.check(
            "clean run fires nothing",
            fired_rules.is_empty(),
            format!("fired {fired_rules:?} — false positive"),
        );
        return Ok(());
    }
    let bound_ms = detect_within.as_millis() as i64;
    gate.check(
        &format!("'{REQUIRED_RULE}' fires within {bound_ms} ms of fault onset"),
        detection_ms.is_some_and(|ms| ms <= bound_ms),
        match detection_ms {
            None => format!("never fired (fired: {fired_rules:?})"),
            Some(ms) => format!("fired {ms} ms after onset"),
        },
    );
    let unexpected: Vec<&String> = fired_rules
        .iter()
        .filter(|r| *r != REQUIRED_RULE && *r != COLLATERAL_RULE)
        .collect();
    gate.check(
        &format!("nothing fires beyond '{REQUIRED_RULE}' and '{COLLATERAL_RULE}'"),
        unexpected.is_empty(),
        format!("unexpected rules fired: {unexpected:?}"),
    );
    Ok(())
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
        let mut gate = Gate::new("alertsmoke");
        run_alertsmoke(&config, Duration::from_secs(1), &mut gate).expect("smoke runs");
        let out = scratch_dir("alertsmoke-test-out");
        assert_eq!(gate.finish(Some(&out)), 0, "{}", gate.summary());
        let alerts = std::fs::read_to_string(out.join("alerts.json")).expect("alerts artifact");
        assert!(alerts.contains("\"rules\""), "{alerts}");
        std::fs::remove_dir_all(&out).ok();
    }
}
