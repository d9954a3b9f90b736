//! The HTTP route table: which `(method, path)` exist, which query
//! parameters each accepts, and who handles it — one decision, in one
//! place.
//!
//! A front end declares its routes as a `&[RouteDef<C, R>]` over its own
//! context type `C` (the shard server's [`Service`], the router's
//! `Router`), and [`dispatch`] does everything that can be decided from
//! the table alone: it matches the path (capturing an integer `<id>`
//! segment), answers `404` for a path no route serves and `405` for a
//! known path under the wrong method, rejects any query parameter the
//! matched route does not declare, and only then calls the handler. A
//! route therefore cannot exist without validation, and the README
//! tables ([`render_table`]) are generated from the same entries, pinned
//! by `tests/self_check.rs`.

use crate::http::{Request, Response};
use crate::service::{metrics_dump, Handled, Service};

/// One route of a front end with context `C` whose handlers return `R`.
pub struct RouteDef<C, R> {
    /// HTTP method (`GET`, `POST`, `DELETE`).
    pub method: &'static str,
    /// Path; at most one dynamic segment, spelled `<id>` (e.g.
    /// `/subscribe/<id>/stream`), which must be an unsigned integer.
    pub path: &'static str,
    /// Query parameters the route accepts; [`dispatch`] rejects any
    /// other. Empty means the route takes none.
    pub params: &'static [&'static str],
    /// One-line description, surfaced in the generated docs table.
    pub help: &'static str,
    /// Called with the context, the validated request, and the captured
    /// `<id>` (0 for a static path).
    pub handler: fn(&C, &Request, u64) -> R,
}

impl<C, R> RouteDef<C, R> {
    /// A route entry.
    pub const fn new(
        method: &'static str,
        path: &'static str,
        params: &'static [&'static str],
        help: &'static str,
        handler: fn(&C, &Request, u64) -> R,
    ) -> Self {
        RouteDef {
            method,
            path,
            params,
            help,
            handler,
        }
    }

    /// `None` when this route does not serve `path`; otherwise the text
    /// standing in for `<id>` (`None` for a static path).
    fn capture<'p>(&self, path: &'p str) -> Option<Option<&'p str>> {
        let Some((prefix, rest)) = self.path.split_once('<') else {
            return (self.path == path).then_some(None);
        };
        let (_, suffix) = rest.split_once('>')?;
        let segment = path.strip_prefix(prefix)?.strip_suffix(suffix)?;
        (!segment.contains('/')).then_some(Some(segment))
    }
}

/// Routes one request through `routes`: `Ok` is the matched handler's
/// answer, `Err` the table's own `404` / `405` / `400`.
pub fn dispatch<C, R>(routes: &[RouteDef<C, R>], ctx: &C, req: &Request) -> Result<R, Response> {
    let mut known_path = false;
    for def in routes {
        let Some(segment) = def.capture(&req.path) else {
            continue;
        };
        known_path = true;
        if def.method != req.method {
            continue;
        }
        let id = match segment {
            None => 0,
            Some(raw) => raw.parse::<u64>().map_err(|_| {
                Response::error(
                    400,
                    format!("<id> in {} must be an integer, got {raw:?}", def.path),
                )
            })?,
        };
        check_query_params(req, def.params).map_err(|e| Response::error(400, e))?;
        return Ok((def.handler)(ctx, req, id));
    }
    Err(if known_path {
        Response::error(405, format!("method {} not allowed", req.method))
    } else {
        Response::error(404, format!("no route for {}", req.path))
    })
}

/// Uniform query-string validation: every pair must be `key=value` with
/// a key in `allowed`, so a typo'd or unsupported parameter is a
/// structured `400` on every route rather than silently ignored.
fn check_query_params(req: &Request, allowed: &[&str]) -> Result<(), String> {
    for pair in req.query.split('&').filter(|p| !p.is_empty()) {
        let Some((key, _)) = pair.split_once('=') else {
            return Err(format!(
                "malformed query parameter {pair:?} (expected key=value)"
            ));
        };
        if !allowed.contains(&key) {
            return Err(if allowed.is_empty() {
                format!("unknown query parameter {key:?} (route takes none)")
            } else {
                format!(
                    "unknown query parameter {key:?} (allowed: {})",
                    allowed.join(", ")
                )
            });
        }
    }
    Ok(())
}

/// Every route the shard server answers, in dispatch order.
pub const ROUTES: &[RouteDef<Service, Handled>] = &[
    RouteDef::new(
        "POST",
        "/query",
        &[],
        "run one drop/jump query; body carries kind, V, T, plan, trace",
        Service::query,
    ),
    RouteDef::new(
        "GET",
        "/metrics",
        &["format"],
        "full telemetry registry dump (`?format=json` for NDJSON)",
        |_, req, _| metrics_dump(req).into(),
    ),
    RouteDef::new(
        "GET",
        "/healthz",
        &[],
        "liveness plus the current index epoch",
        |s, _, _| s.healthz().into(),
    ),
    RouteDef::new(
        "GET",
        "/segments",
        &["sensor", "after_row"],
        "a sensor's `segments` rows from a row on, for replicas to apply",
        |s, req, _| s.segments(req).into(),
    ),
    RouteDef::new(
        "GET",
        "/series",
        &["name", "window"],
        "sampled time series of any internal metric",
        |s, req, _| s.series_dump(req).into(),
    ),
    RouteDef::new(
        "GET",
        "/alerts",
        &["after"],
        "standing drop/jump rules and the fired-alert log",
        |s, req, _| s.alerts_dump(req).into(),
    ),
    RouteDef::new(
        "GET",
        "/debug/traces",
        &["n", "ring", "full"],
        "always-on request-trace rings (recent and slow)",
        |s, req, _| s.traces_dump(req).into(),
    ),
    RouteDef::new(
        "POST",
        "/subscribe",
        &[],
        "register a standing query",
        |s, req, _| s.subscribe_create(req).into(),
    ),
    RouteDef::new(
        "GET",
        "/subscribe",
        &[],
        "list subscriptions with per-sensor event statistics",
        |s, _, _| s.subscribe_list().into(),
    ),
    RouteDef::new(
        "GET",
        "/notifications",
        &["sub", "after", "max"],
        "durable polling cursor over a subscription's matches",
        |s, req, _| s.notifications(req).into(),
    ),
    RouteDef::new(
        "POST",
        "/shutdown",
        &[],
        "graceful drain: finish in-flight work, flush, final snapshot",
        |s, _, _| s.initiate_shutdown().into(),
    ),
    RouteDef::new(
        "GET",
        "/subscribe/<id>",
        &[],
        "inspect one subscription",
        |s, _, id| s.subscribe_get(id).into(),
    ),
    RouteDef::new(
        "DELETE",
        "/subscribe/<id>",
        &[],
        "remove one subscription",
        |s, _, id| s.subscribe_delete(id).into(),
    ),
    RouteDef::new(
        "GET",
        "/subscribe/<id>/stream",
        &["after", "max"],
        "chunked NDJSON live feed of a subscription's notifications",
        Service::subscribe_stream,
    ),
];

/// The markdown table of the shard server's [`ROUTES`] — the block
/// between the README's `routes-table` markers.
pub fn markdown_table() -> String {
    render_table(ROUTES)
}

/// The markdown table generated from a route table.
pub fn render_table<C, R>(routes: &[RouteDef<C, R>]) -> String {
    let mut out =
        String::from("| method | path | query params | description |\n|---|---|---|---|\n");
    for r in routes {
        let params = if r.params.is_empty() {
            "—".to_string()
        } else {
            r.params
                .iter()
                .map(|p| format!("`{p}`"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            r.method, r.path, params, r.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str) -> Request {
        let raw = format!("{method} {target} HTTP/1.1\r\n\r\n");
        crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    /// A fake front end: the context is a number the handlers add to.
    const THINGS: &[RouteDef<u64, String>] = &[
        RouteDef::new("GET", "/things", &["n"], "list", |_, req, _| {
            format!("list {}", req.query)
        }),
        RouteDef::new("GET", "/things/<id>", &[], "one", |base, _, id| {
            format!("get {}", base + id)
        }),
        RouteDef::new("DELETE", "/things/<id>", &[], "drop", |_, _, id| {
            format!("delete {id}")
        }),
        RouteDef::new(
            "GET",
            "/things/<id>/tail",
            &["after"],
            "feed",
            |_, _, id| format!("tail {id}"),
        ),
    ];

    fn go(method: &str, target: &str) -> Result<String, u16> {
        dispatch(THINGS, &100, &request(method, target)).map_err(|resp| {
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.starts_with(r#"{"error":"#), "unstructured: {body}");
            resp.status
        })
    }

    #[test]
    fn static_and_dynamic_paths_reach_their_handlers() {
        assert_eq!(go("GET", "/things?n=3").unwrap(), "list n=3");
        assert_eq!(go("GET", "/things/7").unwrap(), "get 107");
        assert_eq!(go("DELETE", "/things/7").unwrap(), "delete 7");
        assert_eq!(go("GET", "/things/7/tail?after=2").unwrap(), "tail 7");
    }

    #[test]
    fn unknown_paths_are_404_and_wrong_methods_405() {
        assert_eq!(go("GET", "/nope"), Err(404));
        assert_eq!(go("GET", "/things/7/extra"), Err(404));
        assert_eq!(go("GET", "/things/tail/7"), Err(404));
        assert_eq!(go("POST", "/things"), Err(405));
        assert_eq!(go("POST", "/things/7"), Err(405));
        assert_eq!(go("DELETE", "/things/7/tail"), Err(405));
    }

    #[test]
    fn the_id_segment_must_be_an_unsigned_integer() {
        for target in [
            "/things/xyz",
            "/things/",
            "/things/-1",
            "/things/99999999999999999999",
            "/things/x/tail",
        ] {
            assert_eq!(go("GET", target), Err(400), "{target}");
        }
    }

    #[test]
    fn undeclared_or_malformed_params_never_reach_the_handler() {
        assert_eq!(go("GET", "/things?m=3"), Err(400));
        assert_eq!(go("GET", "/things?n"), Err(400));
        assert_eq!(go("GET", "/things/7?n=3"), Err(400));
        assert_eq!(go("DELETE", "/things/7?x=1"), Err(400));
        assert_eq!(go("GET", "/things/7/tail?max=1"), Err(400));
        // Validation belongs to the matched route, not to the path.
        assert_eq!(go("POST", "/things?m=3"), Err(405));
    }

    #[test]
    fn no_duplicate_method_path_pairs() {
        for (i, a) in ROUTES.iter().enumerate() {
            for b in &ROUTES[i + 1..] {
                assert!(
                    !(a.method == b.method && a.path == b.path),
                    "duplicate route {} {}",
                    a.method,
                    a.path
                );
            }
        }
    }

    #[test]
    fn table_lists_every_route() {
        let t = markdown_table();
        for r in ROUTES {
            assert!(t.contains(r.path), "{} missing from table", r.path);
        }
    }
}
