//! One search contract through every entry point.
//!
//! A search is a drop or jump region `(V, T)`: `T` positive and finite in
//! seconds, `V` finite with the kind's sign. `QueryRegion::new` is the
//! one place that says so; the `/query` and `/subscribe` bodies and the
//! alert-rules file reach it through their own parsers. This test feeds
//! one table of searches to all four and holds them to the same verdict
//! on every row, and to the same region on every row they accept. (The
//! CLI's flags reject their own rows in `args::tests::rejects_bad_input`.)

use segdiff::alerts::AlertRuleSet;
use segdiff_repro::prelude::*;
use segdiff_server::{QuerySpec, SubscribeSpec};

/// `(kind, V, T in hours, valid)`.
const SEARCHES: [(&str, f64, f64, bool); 19] = [
    ("drop", -3.0, 1.0, true),
    ("drop", -0.25, 8.0, true),
    ("jump", 2.5, 0.5, true),
    ("jump", 40.0, 0.25, true),
    // V with the wrong sign, zero, or not finite.
    ("drop", 3.0, 1.0, false),
    ("jump", -3.0, 1.0, false),
    ("drop", 0.0, 1.0, false),
    ("jump", 0.0, 1.0, false),
    ("drop", f64::NAN, 1.0, false),
    ("jump", f64::NAN, 1.0, false),
    ("drop", f64::NEG_INFINITY, 1.0, false),
    ("jump", f64::INFINITY, 1.0, false),
    // T zero, negative, not a number, or finite in hours but not in
    // seconds.
    ("drop", -3.0, 0.0, false),
    ("jump", 2.0, -2.0, false),
    ("drop", -3.0, f64::NAN, false),
    ("jump", 2.0, f64::INFINITY, false),
    ("drop", -3.0, 1e305, false),
    // Not a kind.
    ("sideways", -3.0, 1.0, false),
    ("Drop", -3.0, 1.0, false),
];

/// A JSON number: `±1e999` parses to `±inf`. JSON has no NaN, so a NaN
/// is sent as `null`, which no parser takes for a number either.
fn json_number(x: f64) -> String {
    match x {
        x if x.is_nan() => "null".to_string(),
        f64::INFINITY => "1e999".to_string(),
        f64::NEG_INFINITY => "-1e999".to_string(),
        x => format!("{x:?}"),
    }
}

fn region(kind: &str, v: f64, t_hours: f64) -> Result<QueryRegion, String> {
    QueryRegion::new(SearchKind::parse(kind)?, t_hours * HOUR, v)
}

/// The row as a request body, `T` in hours or in seconds.
fn body(kind: &str, v: f64, t_hours: f64, in_seconds: bool) -> String {
    let t = match in_seconds {
        true => format!("\"t_seconds\":{}", json_number(t_hours * HOUR)),
        false => format!("\"t_hours\":{}", json_number(t_hours)),
    };
    format!(r#"{{"kind":"{kind}","v":{},{t}}}"#, json_number(v))
}

/// The row as an alert rule (`T` in seconds; Rust's float syntax, which
/// the rules file reads, spells `NaN`, `inf` and `-inf`).
fn rule(kind: &str, v: f64, t_hours: f64) -> String {
    let t_seconds = t_hours * HOUR;
    format!(
        "[[rule]]\nname = \"r\"\nmetric = \"m\"\nkind = \"{kind}\"\nv = {v:?}\n\
         t_seconds = {t_seconds:?}\nepsilon = 1.0\n"
    )
}

#[test]
fn every_entry_point_accepts_and_rejects_the_same_searches() {
    for (kind, v, t_hours, valid) in SEARCHES {
        let row = format!("{kind} V={v:?} T={t_hours:?} h");
        let want = region(kind, v, t_hours);
        assert_eq!(want.is_ok(), valid, "QueryRegion::new, {row}: {want:?}");
        for in_seconds in [false, true] {
            let body = body(kind, v, t_hours, in_seconds);
            let query = QuerySpec::from_json(&body);
            let subscribe = SubscribeSpec::from_json(&body);
            assert_eq!(query.is_ok(), valid, "/query {body}: {query:?}");
            assert_eq!(subscribe.is_ok(), valid, "/subscribe {body}: {subscribe:?}");
            if let (Ok(want), false) = (&want, in_seconds) {
                assert_eq!(query.map(|q| q.region), Ok(*want), "{body}");
                assert_eq!(subscribe.map(|s| s.region), Ok(*want), "{body}");
            }
        }
        let rules = AlertRuleSet::parse(&rule(kind, v, t_hours));
        assert_eq!(rules.is_ok(), valid, "alert rule, {row}: {rules:?}");
        if let (Ok(want), Ok(rules)) = (want, rules) {
            assert_eq!(rules.rules[0].region(), want, "alert rule, {row}");
        }
    }
}

/// Where a front end refuses a search for the contract's reason, it says
/// so in the contract's words.
#[test]
fn the_parsers_report_the_contracts_reason() {
    for (kind, v, t_hours, valid) in SEARCHES {
        let Err(reason) = region(kind, v, t_hours) else {
            assert!(valid);
            continue;
        };
        if v.is_nan() || t_hours.is_nan() {
            continue; // no JSON spelling: refused as a missing number
        }
        let body = body(kind, v, t_hours, false);
        assert_eq!(QuerySpec::from_json(&body).unwrap_err(), reason, "{body}");
        assert_eq!(
            SubscribeSpec::from_json(&body).unwrap_err(),
            reason,
            "{body}"
        );
        let rules = AlertRuleSet::parse(&rule(kind, v, t_hours)).unwrap_err();
        assert!(rules.ends_with(&reason), "{rules} / {reason}");
    }
}
