//! Dogfooded alerting: the paper's drop/jump detector pointed at the
//! system's own metric series.
//!
//! Each standing [`AlertRule`] names an internal series (as produced by
//! the obs sampler, e.g. `server.query_nanos.p50` or
//! `server.queries.rate`), a search kind, and the paper's `(V, T)`
//! thresholds. The [`AlertEngine`] runs one online segmentation +
//! feature-extraction pipeline (Algorithm 1) per rule over the series
//! points, and fires whenever an extracted boundary intersects the
//! rule's [`QueryRegion`] — exactly the detector queries use, so a fired
//! alert carries the offending segment pair `(t_d, t_c, t_b, t_a)`.
//!
//! Detection latency: the sliding-window segmenter only *commits* a
//! segment when the next chord breaks, which could delay pairing a
//! fresh drop by an unbounded amount on a stable-after-the-drop series.
//! Each evaluation therefore also clones the per-rule segmenter and
//! extractor and `finish()`es the clones, evaluating the *provisional*
//! final segment too — a drop becomes visible within roughly one
//! sampling period of the data showing it. Only provisional rows repeat
//! (the extractor emits each committed row once), and all of them have
//! the open tail's start as `t_b`: a rule keeps the pairs it fired against
//! that tail, so a sighting, its repeats and its committed form fire once.
//!
//! Rules load from a minimal TOML subset (`ci/alert-rules.toml`); see
//! [`AlertRuleSet::parse`] for the grammar.

use featurespace::{QueryRegion, SearchKind};
use obs::json::Json;
use obs::series::SeriesStore;
use pagestore::{OsVfs, Vfs};
use segmentation::SlidingWindowSegmenter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::ingest::{FeatureExtractor, FeatureRow};

/// One standing `(V, T)` drop/jump rule over an internal series.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, shown in the alert log (e.g. `query-latency-jump`).
    pub name: String,
    /// Series to watch (a name in the sampler's [`SeriesStore`]).
    pub metric: String,
    /// Drop or jump.
    pub kind: SearchKind,
    /// Change threshold `V` in scaled units: negative for drops,
    /// positive for jumps.
    pub v: f64,
    /// Time threshold `T` in seconds: fire on changes of at least `|V|`
    /// within `T`.
    pub t_seconds: f64,
    /// Segmentation tolerance `ε` in scaled units.
    pub epsilon: f64,
    /// Multiplier applied to raw series values before segmentation
    /// (e.g. `1e-6` renders nanosecond latencies in milliseconds, so
    /// `v` and `epsilon` read naturally).
    pub scale: f64,
    /// What is segmented and searched: the scaled values, or their log.
    pub transform: Transform,
}

/// The map from a rule's scaled series value to the value it searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transform {
    /// The scaled value itself: `V` and `ε` are in scaled units.
    #[default]
    Linear,
    /// `ln(max(value, 1))`, the floor keeping an idle series finite: `V`
    /// is a ratio's log, so `V = ln 0.5` finds every halving within `T`
    /// at any level, and a hit is a fall to at most `e^(V + 2ε)`.
    Ln,
}

impl Transform {
    fn apply(self, value: f64) -> f64 {
        match self {
            Transform::Linear => value,
            Transform::Ln => value.max(1.0).ln(),
        }
    }

    /// The name the rules grammar gives it.
    pub fn name(self) -> &'static str {
        match self {
            Transform::Linear => "linear",
            Transform::Ln => "ln",
        }
    }
}

impl AlertRule {
    /// The rule's query region in `(Δt, Δv)` feature space.
    pub fn region(&self) -> QueryRegion {
        match self.kind {
            SearchKind::Drop => QueryRegion::drop(self.t_seconds, self.v),
            SearchKind::Jump => QueryRegion::jump(self.t_seconds, self.v),
        }
    }

    fn validate(&self) -> Result<(), String> {
        let ctx = |msg: String| format!("rule '{}': {}", self.name, msg);
        if self.metric.is_empty() {
            return Err(ctx("missing 'metric'".to_string()));
        }
        QueryRegion::new(self.kind, self.t_seconds, self.v).map_err(ctx)?;
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(ctx(format!("epsilon must be >= 0, got {}", self.epsilon)));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(ctx(format!("scale must be > 0, got {}", self.scale)));
        }
        Ok(())
    }
}

/// A parsed set of standing rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertRuleSet {
    /// The rules, in file order.
    pub rules: Vec<AlertRule>,
}

impl AlertRuleSet {
    /// Parses the `ci/alert-rules.toml` grammar — a minimal TOML subset:
    ///
    /// ```toml
    /// # comment
    /// [[rule]]
    /// name = "query-latency-jump"     # string values are double-quoted
    /// metric = "server.query_nanos.p50"
    /// kind = "jump"                   # "drop" | "jump"
    /// v = 20.0                        # scaled units; sign must match kind
    /// t_seconds = 60.0
    /// epsilon = 8.0
    /// scale = 1e-6                    # optional, default 1.0
    /// transform = "ln"                # optional: search ln(max(value, 1))
    /// ```
    ///
    /// Anything else (tables, arrays, multi-line strings) is rejected.
    pub fn parse(src: &str) -> Result<AlertRuleSet, String> {
        let mut rules: Vec<AlertRule> = Vec::new();
        let mut current: Option<AlertRule> = None;
        for (lineno, raw) in src.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("alert-rules line {}: {}", lineno + 1, msg);
            if line == "[[rule]]" {
                if let Some(rule) = current.take() {
                    rule.validate()?;
                    rules.push(rule);
                }
                current = Some(AlertRule {
                    name: String::new(),
                    metric: String::new(),
                    kind: SearchKind::Drop,
                    v: f64::NAN,
                    t_seconds: f64::NAN,
                    epsilon: 0.0,
                    scale: 1.0,
                    transform: Transform::Linear,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected 'key = value', got '{line}'")));
            };
            let Some(rule) = current.as_mut() else {
                return Err(err("key before any [[rule]] header".to_string()));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "name" => rule.name = parse_string(value).map_err(err)?,
                "metric" => rule.metric = parse_string(value).map_err(err)?,
                "kind" => {
                    rule.kind =
                        SearchKind::parse(&parse_string(value).map_err(err)?).map_err(err)?
                }
                "v" => rule.v = parse_number(value).map_err(err)?,
                "t_seconds" => rule.t_seconds = parse_number(value).map_err(err)?,
                "epsilon" => rule.epsilon = parse_number(value).map_err(err)?,
                "scale" => rule.scale = parse_number(value).map_err(err)?,
                "transform" => {
                    rule.transform = match parse_string(value).map_err(err)?.as_str() {
                        "linear" => Transform::Linear,
                        "ln" => Transform::Ln,
                        other => return Err(err(format!("unknown transform '{other}'"))),
                    }
                }
                other => return Err(err(format!("unknown key '{other}'"))),
            }
        }
        if let Some(rule) = current.take() {
            rule.validate()?;
            rules.push(rule);
        }
        Ok(AlertRuleSet { rules })
    }

    /// Loads and parses a rules file.
    pub fn load(path: &std::path::Path) -> Result<AlertRuleSet, String> {
        let src = OsVfs.read(path);
        let src = src.map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&String::from_utf8_lossy(&src))
    }

    /// The built-in rules used when no file is given: watch query
    /// latency for jumps and query throughput for drops. Mirrors
    /// `ci/alert-rules.toml`.
    pub fn defaults() -> AlertRuleSet {
        AlertRuleSet {
            rules: vec![
                AlertRule {
                    name: "query-latency-jump".to_string(),
                    metric: "server.query_nanos.p50".to_string(),
                    kind: SearchKind::Jump,
                    v: 20.0,
                    t_seconds: 60.0,
                    epsilon: 8.0,
                    scale: 1e-6,
                    transform: Transform::Linear,
                },
                // A fall to a tenth within 60 s, on the rate's log, so the
                // rule means the same at any query rate. Clean runs fall
                // by up to ln-units 1.01 (to 36 %) within 60 s and the
                // latency fault by ≈ 6; a hit holds a fall of at least
                // 2.3 − 2·0.25 = 1.8 (EXPERIMENTS.md, "Query-rate alert
                // on ln(rate)").
                AlertRule {
                    name: "query-rate-drop".to_string(),
                    metric: "server.queries.rate".to_string(),
                    kind: SearchKind::Drop,
                    v: -2.3,
                    t_seconds: 60.0,
                    epsilon: 0.25,
                    scale: 1.0,
                    transform: Transform::Ln,
                },
            ],
        }
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_string(value: &str) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got '{value}'"))?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!("escapes are not supported: '{value}'"));
    }
    Ok(inner.to_string())
}

fn parse_number(value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .map_err(|_| format!("expected a number, got '{value}'"))
}

/// One fired alert: the rule plus the offending segment pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Series the rule watches.
    pub metric: String,
    /// Drop or jump.
    pub kind: SearchKind,
    /// When the engine observed the event, unix milliseconds.
    pub fired_at_ms: u64,
    /// Start of the earlier segment of the offending pair (unix seconds).
    pub t_d: f64,
    /// End of the earlier segment.
    pub t_c: f64,
    /// Start of the later segment.
    pub t_b: f64,
    /// End of the later segment.
    pub t_a: f64,
    /// The boundary corner change `Δv` with the largest magnitude, in
    /// scaled units — roughly "how big the drop/jump was".
    pub dv: f64,
}

impl Alert {
    /// Serializes the alert as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::from(self.rule.as_str())),
            ("metric", Json::from(self.metric.as_str())),
            ("kind", Json::from(self.kind.name())),
            ("fired_at_ms", Json::from(self.fired_at_ms)),
            ("t_d", Json::from(self.t_d)),
            ("t_c", Json::from(self.t_c)),
            ("t_b", Json::from(self.t_b)),
            ("t_a", Json::from(self.t_a)),
            ("dv", Json::from(self.dv)),
        ])
    }
}

/// Per-rule online pipeline state.
struct RuleState {
    rule: AlertRule,
    region: QueryRegion,
    segmenter: SlidingWindowSegmenter,
    extractor: FeatureExtractor,
    /// Timestamp (ms) of the last series point consumed.
    last_point_ms: u64,
    /// Time of the last observation pushed into the segmenter (seconds);
    /// guards against a non-monotonic wall clock.
    last_t: f64,
    /// The `(t_b, t_d)` pairs fired against the open tail: one `t_b`.
    tail_fired: Vec<(f64, f64)>,
}

impl RuleState {
    fn new(rule: AlertRule) -> RuleState {
        let region = rule.region();
        // The extractor window only needs to cover pairs within T; the
        // segmenter tolerance is the rule's ε (the ε/2 split is applied
        // inside the segmenter, matching ingest).
        let segmenter = SlidingWindowSegmenter::new(rule.epsilon);
        let extractor = FeatureExtractor::new(rule.epsilon, rule.t_seconds);
        RuleState {
            rule,
            region,
            segmenter,
            extractor,
            last_point_ms: 0,
            last_t: f64::NEG_INFINITY,
            tail_fired: Vec::new(),
        }
    }
}

/// The bounded alert log. Every published alert carries a monotone
/// 1-based sequence number, so pollers (`GET /alerts?after=`, `segdiff
/// alerts --follow`) can resume from a cursor instead of re-reading the
/// whole log; a gap in the sequence numbers means the log overflowed.
struct AlertLog {
    entries: VecDeque<(u64, Alert)>,
    next_seq: u64,
}

/// The standing-rule evaluator plus its bounded alert log.
pub struct AlertEngine {
    states: Mutex<Vec<RuleState>>,
    log: Mutex<AlertLog>,
    log_capacity: usize,
    evaluated: Arc<obs::Counter>,
    fired: Arc<obs::Counter>,
}

/// Alerts retained in the log before the oldest are dropped.
pub const DEFAULT_ALERT_LOG_CAPACITY: usize = 256;

impl AlertEngine {
    /// Creates an engine over `rules` with a log bounded to
    /// `log_capacity` entries. Counters register in [`obs::global`].
    pub fn new(rules: AlertRuleSet, log_capacity: usize) -> AlertEngine {
        let registry = obs::global();
        AlertEngine {
            states: Mutex::new(rules.rules.into_iter().map(RuleState::new).collect()),
            log: Mutex::new(AlertLog {
                entries: VecDeque::new(),
                next_seq: 1,
            }),
            log_capacity: log_capacity.max(1),
            evaluated: registry.counter("alert.evaluated"),
            fired: registry.counter("alert.fired"),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> Vec<AlertRule> {
        let states = self.states.lock().unwrap_or_else(|e| e.into_inner());
        states.iter().map(|s| s.rule.clone()).collect()
    }

    /// A snapshot of the alert log, oldest first.
    pub fn alerts(&self) -> Vec<Alert> {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log.entries.iter().map(|(_, a)| a.clone()).collect()
    }

    /// Logged alerts with sequence number > `after`, oldest first, each
    /// tagged with its sequence number. Poll with `after` = the largest
    /// sequence seen so far to receive each alert exactly once (alerts
    /// evicted from the bounded log before being read are lost; the
    /// sequence gap makes that visible).
    pub fn alerts_since(&self, after: u64) -> Vec<(u64, Alert)> {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log.entries
            .iter()
            .filter(|(seq, _)| *seq > after)
            .cloned()
            .collect()
    }

    /// Consumes new points of every watched series from `store` and
    /// evaluates all rules, returning newly fired alerts (also appended
    /// to the log).
    pub fn tick(&self, store: &SeriesStore, now_ms: u64) -> Vec<Alert> {
        let mut fired = Vec::new();
        let mut states = self.states.lock().unwrap_or_else(|e| e.into_inner());
        for state in states.iter_mut() {
            self.evaluated.inc();
            let points = store.since(&state.rule.metric, state.last_point_ms);
            if points.is_empty() {
                continue;
            }
            let mut rows: Vec<FeatureRow> = Vec::new();
            for p in points {
                state.last_point_ms = p.ts_ms;
                let t = p.ts_ms as f64 / 1e3;
                if t <= state.last_t {
                    continue; // non-monotonic clock; drop the point
                }
                state.last_t = t;
                let v = p.value * state.rule.scale;
                if !v.is_finite() {
                    continue;
                }
                let v = state.rule.transform.apply(v);
                if let Some(seg) = state.segmenter.push(t, v) {
                    state.extractor.push_segment(seg, &mut rows);
                }
            }
            // Provisional tail: finish() clones so a drop that already
            // happened is paired now instead of after the next chord
            // break commits its segment.
            let committed = rows.len();
            let mut seg_clone = state.segmenter.clone();
            let mut ex_clone = state.extractor.clone();
            if let Some(seg) = seg_clone.finish() {
                ex_clone.push_segment(seg, &mut rows);
            }
            for (i, row) in rows.into_iter().enumerate() {
                if row.kind != state.rule.kind || !row.boundary.intersects(&state.region) {
                    continue;
                }
                let tail = &mut state.tail_fired;
                if tail.contains(&(row.t_b, row.t_d)) {
                    continue;
                }
                if i >= committed {
                    tail.retain(|&(t_b, _)| t_b == row.t_b);
                    tail.push((row.t_b, row.t_d));
                }
                self.fired.inc();
                fired.push(Alert {
                    rule: state.rule.name.clone(),
                    metric: state.rule.metric.clone(),
                    kind: state.rule.kind,
                    fired_at_ms: now_ms,
                    t_d: row.t_d,
                    t_c: row.t_c,
                    t_b: row.t_b,
                    t_a: row.t_a,
                    dv: row.peak_dv(),
                });
            }
        }
        drop(states);
        if !fired.is_empty() {
            let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
            for alert in &fired {
                if log.entries.len() >= self.log_capacity {
                    log.entries.pop_front();
                }
                let seq = log.next_seq;
                log.next_seq += 1;
                log.entries.push_back((seq, alert.clone()));
                obs::warn!(
                    "alert {}: {} on {} (pair {:.1}..{:.1} -> {:.1}..{:.1}, dv {:.2})",
                    alert.rule,
                    alert.kind.name(),
                    alert.metric,
                    alert.t_d,
                    alert.t_c,
                    alert.t_b,
                    alert.t_a,
                    alert.dv
                );
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &str = r#"
# watch the query latency median for jumps
[[rule]]
name = "lat-jump"                     # trailing comment
metric = "server.query_nanos.p50"
kind = "jump"
v = 20.0
t_seconds = 60.0
epsilon = 8.0
scale = 1e-6

[[rule]]
name = "qps-drop"
metric = "server.queries.rate"
kind = "drop"
v = -100.0
t_seconds = 60.0
epsilon = 50.0
"#;

    #[test]
    fn parses_the_rules_grammar() {
        let set = AlertRuleSet::parse(RULES).expect("parses");
        assert_eq!(set.rules.len(), 2);
        let lat = &set.rules[0];
        assert_eq!(lat.name, "lat-jump");
        assert_eq!(lat.metric, "server.query_nanos.p50");
        assert_eq!(lat.kind, SearchKind::Jump);
        assert_eq!(lat.scale, 1e-6);
        let qps = &set.rules[1];
        assert_eq!(qps.kind, SearchKind::Drop);
        assert_eq!(qps.scale, 1.0, "scale defaults to 1");
    }

    #[test]
    fn rejects_malformed_rules() {
        for (src, why) in [
            ("name = \"x\"\n", "key before header"),
            ("[[rule]]\nname = \"x\"\nbogus = 1\n", "unknown key"),
            ("[[rule]]\nname = \"x\"\nkind = \"sideways\"\n", "bad kind"),
            (
                "[[rule]]\nname=\"x\"\nmetric=\"m\"\nkind=\"drop\"\nv=5\nt_seconds=60\n",
                "drop with positive v",
            ),
            (
                "[[rule]]\nname=\"x\"\nmetric=\"m\"\nkind=\"jump\"\nv=5\nt_seconds=0\n",
                "t_seconds = 0",
            ),
            ("[[rule]]\nname = x\n", "unquoted string"),
        ] {
            assert!(AlertRuleSet::parse(src).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn defaults_validate() {
        for rule in AlertRuleSet::defaults().rules {
            assert!(rule.validate().is_ok(), "{rule:?}");
        }
    }

    /// `ci/alert-rules.toml` claims to mirror [`AlertRuleSet::defaults`];
    /// hold it to that, so tuning one without the other fails CI.
    #[test]
    fn ci_rules_file_mirrors_defaults() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/alert-rules.toml");
        let parsed = AlertRuleSet::load(&path).expect("ci/alert-rules.toml loads");
        assert_eq!(parsed, AlertRuleSet::defaults());
    }

    fn drop_rule(v: f64, t_seconds: f64, epsilon: f64) -> AlertRuleSet {
        AlertRuleSet {
            rules: vec![AlertRule {
                name: "test-drop".to_string(),
                metric: "m".to_string(),
                kind: SearchKind::Drop,
                v,
                t_seconds,
                epsilon,
                scale: 1.0,
                transform: Transform::Linear,
            }],
        }
    }

    /// A steady series that collapses: the alert must fire within a few
    /// samples of the collapse — not wait for the flat after-level to
    /// end — and carry a pair bracketing the drop.
    #[test]
    fn fires_on_a_drop_with_provisional_segments() {
        let store = SeriesStore::new(1024);
        let engine = AlertEngine::new(drop_rule(-50.0, 60.0, 5.0), 16);

        // 60 s of level 100, sampled at 1 Hz.
        for i in 0..60u64 {
            store.push("m", i * 1000, 100.0);
        }
        assert!(engine.tick(&store, 59_000).is_empty(), "no false positive");

        // The collapse: level 10 from t=60 on.
        let mut first_fired_at = None;
        let mut all_fired = Vec::new();
        let mut late_fires = 0usize;
        for i in 60..180u64 {
            store.push("m", i * 1000, 10.0);
            let fired = engine.tick(&store, i * 1000);
            if !fired.is_empty() && first_fired_at.is_none() {
                first_fired_at = Some(i);
            }
            if i >= 120 {
                late_fires += fired.len();
            }
            all_fired.extend(fired);
        }
        let i = first_fired_at.expect("the drop must fire");
        assert!(
            i <= 65,
            "provisional evaluation should catch the drop within ~5 samples, fired at {i}"
        );
        // One underlying event may surface through a handful of segment
        // pairs (cross + self, provisional + committed), but pair-key
        // dedup keeps it from flapping forever.
        assert!(all_fired.len() <= 6, "fired {}", all_fired.len());
        assert_eq!(late_fires, 0, "no re-fires once the pairs are known");
        let alert = &all_fired[0];
        assert_eq!(alert.rule, "test-drop");
        assert!(alert.dv <= -50.0, "dv = {}", alert.dv);
        assert!(
            alert.t_c <= 61.0 && alert.t_b >= 59.0,
            "pair must bracket the drop: {alert:?}"
        );
        assert_eq!(engine.alerts().len(), all_fired.len());
    }

    #[test]
    fn noise_within_epsilon_does_not_fire() {
        let store = SeriesStore::new(1024);
        let engine = AlertEngine::new(drop_rule(-50.0, 60.0, 10.0), 16);
        // +-3 units of jitter around 100: well inside epsilon.
        for i in 0..300u64 {
            let v = 100.0 + if i % 2 == 0 { 3.0 } else { -3.0 };
            store.push("m", i * 1000, v);
            assert!(engine.tick(&store, i * 1000).is_empty(), "i = {i}");
        }
    }

    /// The `alerts_since` cursor pages without duplication: polling with
    /// `after` = last seen sequence returns each alert at most once,
    /// with strictly increasing sequence numbers even across log
    /// overflow (overflow shows up as gaps, never as repeats).
    #[test]
    fn alerts_since_cursor_never_duplicates() {
        let store = SeriesStore::new(4096);
        let engine = AlertEngine::new(drop_rule(-5.0, 120.0, 0.1), 4);
        let mut cursor = 0u64;
        let mut seen = 0u64;
        for i in 0..240u64 {
            let v = if (i / 3) % 2 == 0 { 100.0 } else { 50.0 };
            store.push("m", i * 1000, v);
            engine.tick(&store, i * 1000);
            for (seq, _alert) in engine.alerts_since(cursor) {
                assert!(seq > cursor, "monotone: {seq} after {cursor}");
                cursor = seq;
                seen += 1;
            }
        }
        assert!(seen > 0, "the zigzag fires");
        assert!(cursor >= seen, "gaps only lose alerts, never repeat them");
        assert!(engine.alerts_since(cursor).is_empty(), "drained");
    }

    /// A zigzag under a low threshold fires pair after pair, provisional
    /// sightings and their committed forms among them, past 8,192 pairs:
    /// still no `(t_d, t_b)` fires twice.
    #[test]
    fn a_long_zigzag_never_fires_a_pair_twice() {
        let store = SeriesStore::new(4096);
        let engine = AlertEngine::new(drop_rule(-5.0, 120.0, 0.1), 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1500u64 {
            store.push("m", i * 1000, if (i / 3) % 2 == 0 { 100.0 } else { 50.0 });
            for a in engine.tick(&store, i * 1000) {
                let pair = (a.t_d.to_bits(), a.t_b.to_bits());
                assert!(seen.insert(pair), "fired twice: {a:?}");
            }
        }
        assert!(seen.len() > 8192, "fired only {}", seen.len());
    }

    /// Plateaus at 97, then 100, then a steady fall: against the same open
    /// tail the newer plateau's pair fires at 94, the older one's only at
    /// 92. Each fires once, and neither again when the tail commits.
    #[test]
    fn an_older_pair_fires_when_the_tail_deepens() {
        let store = SeriesStore::new(1024);
        let engine = AlertEngine::new(drop_rule(-5.0, 120.0, 0.1), 64);
        let mut fired = Vec::new();
        for i in 0..70u64 {
            let v = match i {
                0..=20 => 97.0,
                21..=40 => 100.0,
                41..=52 => 140.0 - i as f64,
                _ => 88.0,
            };
            store.push("m", i * 1000, v);
            fired.extend(engine.tick(&store, i * 1000).into_iter().map(|a| (i, a)));
        }
        // The sample each plateau (by its end) fired at against the tail.
        let at = |t_c: f64| -> Vec<u64> {
            let pairs = fired.iter().filter(|(_, a)| (a.t_c, a.t_b) == (t_c, 40.0));
            pairs.map(|&(i, _)| i).collect()
        };
        let (newer, older) = (at(40.0), at(20.0));
        assert!(
            newer.len() == 1 && older.len() == 1 && older > newer,
            "{fired:?}"
        );
        let pairs: std::collections::HashSet<_> = fired
            .iter()
            .map(|(_, a)| [a.t_d, a.t_b].map(f64::to_bits))
            .collect();
        assert_eq!(pairs.len(), fired.len(), "a pair fired twice: {fired:?}");
    }

    /// The shipped rate rule alone.
    fn rate_rule() -> AlertEngine {
        let mut rules = AlertRuleSet::defaults();
        rules.rules.retain(|r| r.name == "query-rate-drop");
        assert_eq!(rules.rules[0].transform, Transform::Ln);
        AlertEngine::new(rules, 64)
    }

    /// Feeds 60 s at `level` q/s, then `shape(s)` times it for the `s`
    /// seconds after, at 4 samples a second with ±5 % jitter; returns the
    /// alerts fired.
    fn feed_rate(level: f64, shape: impl Fn(f64) -> f64) -> Vec<Alert> {
        let (store, engine) = (SeriesStore::new(4096), rate_rule());
        let mut fired = Vec::new();
        for i in 0..4 * 180u64 {
            let s = i as f64 / 4.0 - 60.0;
            let jitter = [1.0, 1.05, 0.97, 0.95, 1.02][i as usize % 5];
            let rate = level * jitter * if s < 0.0 { 1.0 } else { shape(s) };
            store.push("server.queries.rate", i * 250, rate);
            fired.extend(engine.tick(&store, i * 250));
        }
        fired
    }

    /// The rate rule is relative: a collapse to a tenth within 60 s fires
    /// at 5 k and at 20 k q/s, a step or a ramp; a fall to the clean runs'
    /// worst (36 %), a halving held a minute and a 30 % dip fire at
    /// neither; an idle server (rate 0, floored at 1) stays finite.
    #[test]
    fn the_rate_rule_fires_on_a_collapse_at_any_level() {
        for level in [5_000.0, 20_000.0] {
            let step = |f: f64| move |_: f64| f;
            let ramp = |f: f64| move |s: f64| 1.0 - (1.0 - f) * (s / 30.0).min(1.0);
            for (what, fired) in [
                ("step to a tenth", feed_rate(level, step(0.1))),
                ("ramp to a tenth", feed_rate(level, ramp(0.1))),
                ("step to idle", feed_rate(level, step(0.0))),
            ] {
                assert!(!fired.is_empty(), "{level} q/s, {what}: nothing fired");
                assert!(fired.iter().all(|a| a.dv <= -1.8), "{what}: {fired:?}");
            }
            let dip = |f: f64| move |s: f64| if s < 5.0 { f } else { 1.0 };
            for (what, fired) in [
                ("clean runs' worst fall", feed_rate(level, dip(0.36))),
                ("halving", feed_rate(level, step(0.5))),
                ("30 % dip", feed_rate(level, dip(0.7))),
            ] {
                assert!(fired.is_empty(), "{level} q/s, {what}: {fired:?}");
            }
        }
    }

    #[test]
    fn parses_a_transform() {
        let ln = AlertRuleSet::parse(&format!("{RULES}transform = \"ln\"\n")).expect("parses");
        assert_eq!(ln.rules[0].transform, Transform::Linear, "default");
        assert_eq!(ln.rules[1].transform, Transform::Ln);
        let bad = AlertRuleSet::parse(&format!("{RULES}transform = \"log2\"\n"));
        assert!(bad.is_err(), "unknown transform");
    }

    #[test]
    fn log_is_bounded() {
        let store = SeriesStore::new(4096);
        // Tiny thresholds so every zigzag fires.
        let engine = AlertEngine::new(drop_rule(-5.0, 120.0, 0.1), 4);
        for i in 0..600u64 {
            let v = if (i / 3) % 2 == 0 { 100.0 } else { 50.0 };
            store.push("m", i * 1000, v);
            engine.tick(&store, i * 1000);
        }
        assert!(engine.alerts().len() <= 4, "log stays bounded");
        assert!(
            obs::global().counter("alert.fired").get() > 4,
            "more alerts fired than the log retains"
        );
    }
}
