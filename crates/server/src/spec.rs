//! The bodies of `POST /query` and `POST /subscribe`, parsed and checked
//! once into typed values. What a valid search is — kind, `V`, `T` — is
//! [`QueryRegion::new`]'s to say, and the plan [`QueryPlan::parse`]'s;
//! this module only reads the JSON. A field of the wrong type is an error
//! like a missing one, so invalid input becomes a `400`, never a
//! worker-thread panic or a silent default.

use featurespace::{QueryRegion, SearchKind};
use obs::json::Json;
use segdiff::QueryPlan;
use sensorgen::HOUR;

/// A validated `/query` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Optional caller-supplied series label, echoed in the response.
    pub series: Option<String>,
    /// The search: kind, `V`, and `T` in seconds.
    pub region: QueryRegion,
    /// `T` in hours as the body gave it (`t_seconds` / 3600 when it gave
    /// seconds), echoed in the response.
    pub t_hours: f64,
    /// The plan (`"scan"` unless the body names one).
    pub plan: QueryPlan,
    /// Restrict execution to these global sensor ids (empty = all).
    pub sensors: Vec<u32>,
    /// Group results per sensor (`by_sensor`) instead of flattening —
    /// the shape a scatter–gather router merges deterministically.
    pub per_sensor: bool,
    /// Whether to attach an `EXPLAIN ANALYZE`-style trace.
    pub trace: bool,
}

/// What `/query` and `/subscribe` bodies share: the parsed document, the
/// search, `T` in hours, and the sensors it covers.
struct Search {
    doc: Json,
    region: QueryRegion,
    t_hours: f64,
    sensors: Vec<u32>,
}

impl Search {
    /// Parses a body and checks the search: `kind`, `v` and `t_hours`
    /// (or `t_seconds`) make a [`QueryRegion`], built in seconds.
    fn parse(body: &str) -> Result<Search, String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing field: kind (\"drop\" or \"jump\")")?;
        let kind = SearchKind::parse(kind)?;
        let v = doc
            .get("v")
            .and_then(Json::as_f64)
            .ok_or("missing field: v (number)")?;
        let t_hours = match doc.get("t_hours").and_then(Json::as_f64) {
            Some(h) => h,
            None => {
                doc.get("t_seconds")
                    .and_then(Json::as_f64)
                    .ok_or("missing field: t_hours (number)")?
                    / HOUR
            }
        };
        let region = QueryRegion::new(kind, t_hours * HOUR, v)?;
        let sensors = match doc.get("sensors") {
            None => Vec::new(),
            Some(Json::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let id = item
                        .as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .ok_or("sensors must be an array of non-negative sensor ids")?;
                    out.push(id as u32);
                }
                out
            }
            Some(_) => return Err("sensors must be an array of sensor ids".to_string()),
        };
        Ok(Search {
            doc,
            region,
            t_hours,
            sensors,
        })
    }

    /// The optional field `key`, which `read` must accept when present.
    fn optional<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let value = self.doc.get(key);
        value
            .map(|v| read(v).ok_or_else(|| format!("{key} must be {what}")))
            .transpose()
    }
}

fn boolean(value: &Json) -> Option<bool> {
    match value {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

impl QuerySpec {
    /// Parses and validates a JSON body (see [`SubscribeSpec::from_json`]
    /// for the fields both share).
    pub fn from_json(body: &str) -> Result<QuerySpec, String> {
        let search = Search::parse(body)?;
        let plan = search.optional("plan", "a string", Json::as_str)?;
        Ok(QuerySpec {
            series: search
                .optional("series", "a string", Json::as_str)?
                .map(str::to_string),
            plan: plan.map_or(Ok(QueryPlan::SeqScan), QueryPlan::parse)?,
            per_sensor: search
                .optional("per_sensor", "a boolean", boolean)?
                .unwrap_or(false),
            trace: search
                .optional("trace", "a boolean", boolean)?
                .unwrap_or(false),
            region: search.region,
            t_hours: search.t_hours,
            sensors: search.sensors,
        })
    }

    /// The search as an answer echoes it and a router forwards it to its
    /// shards: `series` when given, then `kind`, `v`, `t_hours`, `plan`.
    pub fn echo(&self) -> Vec<(String, Json)> {
        let mut fields = Vec::new();
        if let Some(series) = &self.series {
            fields.push(("series".to_string(), Json::from(series.as_str())));
        }
        fields.extend([
            ("kind".to_string(), Json::from(self.region.kind.name())),
            ("v".to_string(), Json::Float(self.region.v)),
            ("t_hours".to_string(), Json::Float(self.t_hours)),
            ("plan".to_string(), Json::from(self.plan.word())),
        ]);
        fields
    }
}

/// A validated `POST /subscribe` request body: the standing query's
/// `(V, T)` region plus an optional label and sensor restriction.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeSpec {
    /// Caller-supplied label echoed in listings (default empty).
    pub label: String,
    /// The standing search.
    pub region: QueryRegion,
    /// Sensors the subscription watches; empty means all.
    pub sensors: Vec<u32>,
}

impl SubscribeSpec {
    /// Parses and validates a JSON body with the same rules as
    /// [`QuerySpec::from_json`] for the fields both share — `kind`, `v`,
    /// `t_hours` (or `t_seconds`) and `sensors`.
    pub fn from_json(body: &str) -> Result<SubscribeSpec, String> {
        let search = Search::parse(body)?;
        let label = search.optional("label", "a string", Json::as_str)?;
        Ok(SubscribeSpec {
            label: label.unwrap_or_default().to_string(),
            region: search.region,
            sensors: search.sensors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query_spec() {
        let s = QuerySpec::from_json(r#"{"kind":"drop","v":-3,"t_hours":1}"#).unwrap();
        assert_eq!(s.region, QueryRegion::drop(HOUR, -3.0));
        assert_eq!(s.t_hours, 1.0);
        assert_eq!(s.plan, QueryPlan::SeqScan);
        assert!(!s.trace);
        assert!(s.series.is_none());
    }

    #[test]
    fn accepts_t_seconds_alternative() {
        let s = QuerySpec::from_json(r#"{"kind":"jump","v":2,"t_seconds":1800}"#).unwrap();
        assert_eq!(s.t_hours, 0.5);
    }

    #[test]
    fn parses_full_query_spec() {
        let s = QuerySpec::from_json(
            r#"{"series":"cad-12","kind":"jump","v":1.5,"t_hours":0.5,"plan":"index","trace":true}"#,
        )
        .unwrap();
        assert_eq!(s.series.as_deref(), Some("cad-12"));
        assert_eq!(s.plan, QueryPlan::Index);
        assert!(s.trace);
        assert_eq!(s.region, QueryRegion::jump(0.5 * HOUR, 1.5));
    }

    #[test]
    fn parses_subscribe_spec() {
        let s = SubscribeSpec::from_json(
            r#"{"label":"canyon","kind":"drop","v":-3,"t_hours":1,"sensors":[0,2]}"#,
        )
        .unwrap();
        assert_eq!(s.label, "canyon");
        assert_eq!(s.sensors, vec![0, 2]);
        assert_eq!(s.region, QueryRegion::drop(HOUR, -3.0));

        let s = SubscribeSpec::from_json(r#"{"kind":"jump","v":2,"t_seconds":1800}"#).unwrap();
        assert!(s.label.is_empty());
        assert!(s.sensors.is_empty(), "no sensors means all sensors");
        assert_eq!(s.region.t, 1800.0);
    }

    /// Bodies both parsers refuse besides the searches the table of
    /// `tests/search_contract.rs` rejects: no JSON, missing fields, and
    /// sensors no id can be.
    const INVALID_BODIES: [&str; 6] = [
        "not json",
        "{}",
        r#"{"kind":"drop","v":-1}"#,
        r#"{"kind":"drop","t_hours":1}"#,
        r#"{"kind":"drop","v":-1,"t_hours":1,"sensors":7}"#,
        r#"{"kind":"drop","v":-1,"t_hours":1,"sensors":[-1]}"#,
    ];

    #[test]
    fn rejects_invalid_subscribe_specs() {
        let label = r#"{"kind":"drop","v":-1,"t_hours":1,"label":7}"#;
        for body in INVALID_BODIES.into_iter().chain([label]) {
            assert!(SubscribeSpec::from_json(body).is_err(), "accepted: {body}");
        }
    }

    /// An optional field of the wrong type is refused, never read as its
    /// default.
    #[test]
    fn rejects_invalid_specs() {
        let wrong = [
            r#"{"kind":"drop","v":-1,"t_hours":1,"plan":"turbo"}"#,
            r#"{"kind":"drop","v":-1,"t_hours":1,"plan":1}"#,
            r#"{"kind":"drop","v":-1,"t_hours":1,"trace":"yes"}"#,
            r#"{"kind":"drop","v":-1,"t_hours":1,"series":12}"#,
            r#"{"kind":"drop","v":-1,"t_hours":1,"per_sensor":1}"#,
        ];
        for body in INVALID_BODIES.into_iter().chain(wrong) {
            assert!(QuerySpec::from_json(body).is_err(), "accepted: {body}");
        }
    }
}
