//! The `200` body of `POST /query`, written straight into the response
//! buffer: the echoed search and the scalars through [`Json`], the pair
//! arrays byte by byte. The router opens its merged answer with the same
//! [`open_answer`] and splices the arrays the shards wrote.

use crate::spec::QuerySpec;
use obs::json::{write_f64, write_u64, Json};
use obs::TraceNode;
use segdiff::transect::CachedAnswer;
use segdiff::{QueryStats, SegmentPair};

/// What one result pair prints to, rounded up: four 7-byte keys, four
/// time stamps of ≈ 9 digits, a brace and a comma.
const PAIR_JSON_BYTES: usize = 72;

/// Appends result pairs as a JSON array in the canonical field order,
/// straight into the response buffer: fixed key bytes and the one float
/// printer ([`obs::json::write_f64`]) that `Json` itself prints with,
/// so the bytes are those of the tree form (`pairs_to_json` in the
/// tests below) without building it. The shard server answers through
/// this and the router splices what it wrote, which is what makes a
/// scattered `results` array byte-identical to a single process's.
pub(crate) fn write_pairs<'a>(out: &mut Vec<u8>, pairs: impl Iterator<Item = &'a SegmentPair>) {
    out.push(b'[');
    for (i, p) in pairs.enumerate() {
        out.extend_from_slice(if i == 0 { b"{\"t_d\":" } else { b",{\"t_d\":" });
        write_f64(out, p.t_d);
        out.extend_from_slice(b",\"t_c\":");
        write_f64(out, p.t_c);
        out.extend_from_slice(b",\"t_b\":");
        write_f64(out, p.t_b);
        out.extend_from_slice(b",\"t_a\":");
        write_f64(out, p.t_a);
        out.push(b'}');
    }
    out.push(b']');
}

/// What a `/query` response says besides the pairs.
pub(crate) struct Envelope<'a> {
    pub(crate) spec: &'a QuerySpec,
    pub(crate) stats: &'a QueryStats,
    pub(crate) cached: bool,
    pub(crate) epoch: u64,
    /// `sensors`: how many the engine serves (`Engine::served`).
    pub(crate) served: Option<u32>,
    pub(crate) trace_id: u64,
    /// The span tree, when the request asked for it.
    pub(crate) trace: Option<&'a TraceNode>,
}

/// Starts a `/query` answer in `out`: the scalar fields every answer
/// begins with — a shard's and, from the shards' sums, the router's —
/// with the object left open for the arrays that follow. These go
/// through [`Json`]: they are few, and it keeps one definition of how a
/// string and a float print.
pub fn open_answer(
    out: &mut Vec<u8>,
    spec: &QuerySpec,
    epoch: u64,
    cached: bool,
    count: u64,
    rows_considered: u64,
    wall_ms: f64,
) {
    let mut fields = spec.echo();
    fields.extend([
        ("epoch".to_string(), Json::Uint(epoch)),
        ("cached".to_string(), Json::Bool(cached)),
        ("count".to_string(), Json::Uint(count)),
        ("rows_considered".to_string(), Json::Uint(rows_considered)),
        ("wall_ms".to_string(), Json::Float(wall_ms)),
    ]);
    Json::Object(fields).write_to(out);
    out.pop(); // reopen the object
}

/// The `200` body of `/query`, all three shapes: `results` flattened in
/// ascending sensor order (with or without a sensor filter —
/// byte-identical to the unfiltered response over the same sensors), or
/// `by_sensor` entries for `per_sensor`. The arrays are written in
/// place, into a buffer reserved once.
pub(crate) fn write_answer(env: &Envelope, parts: &[(u32, CachedAnswer)]) -> Vec<u8> {
    let spec = env.spec;
    let count: usize = parts.iter().map(|(_, r)| r.len()).sum();
    let mut out = Vec::with_capacity(512 + 48 * parts.len() + PAIR_JSON_BYTES * count);
    open_answer(
        &mut out,
        spec,
        env.epoch,
        env.cached,
        count as u64,
        env.stats.rows_considered,
        env.stats.wall_seconds * 1e3,
    );
    if spec.per_sensor {
        out.extend_from_slice(b",\"by_sensor\":[");
        for (i, (sensor, results)) in parts.iter().enumerate() {
            out.extend_from_slice(if i == 0 {
                b"{\"sensor\":"
            } else {
                b",{\"sensor\":"
            });
            write_u64(&mut out, u64::from(*sensor));
            out.extend_from_slice(b",\"count\":");
            write_u64(&mut out, results.len() as u64);
            out.extend_from_slice(b",\"results\":");
            write_pairs(&mut out, results.iter());
            out.push(b'}');
        }
        out.push(b']');
    } else {
        out.extend_from_slice(b",\"results\":");
        write_pairs(&mut out, parts.iter().flat_map(|(_, r)| r.iter()));
    }
    if let Some(served) = env.served {
        out.extend_from_slice(b",\"sensors\":");
        write_u64(&mut out, u64::from(served));
    }
    out.extend_from_slice(b",\"trace_id\":");
    write_u64(&mut out, env.trace_id);
    if let Some(node) = env.trace {
        out.extend_from_slice(b",\"trace\":");
        trace_to_json(node).write_to(&mut out);
    }
    out.push(b'}');
    out
}

pub(crate) fn trace_to_json(node: &TraceNode) -> Json {
    let mut fields = vec![
        ("span".to_string(), Json::Str(node.name.clone())),
        ("wall_nanos".to_string(), Json::Uint(node.wall_nanos)),
    ];
    for (k, v) in &node.attrs {
        fields.push((k.clone(), v.clone()));
    }
    if !node.children.is_empty() {
        fields.push((
            "children".to_string(),
            Json::Array(node.children.iter().map(trace_to_json).collect()),
        ));
    }
    Json::Object(fields)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The tree form of a pair list — what `/query` built and printed
    /// before it wrote bytes, kept as the oracle [`write_pairs`] must
    /// match byte for byte.
    pub(crate) fn pairs_to_json(results: &[SegmentPair]) -> Json {
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

    #[test]
    fn written_pairs_equal_the_tree_form() {
        let two53 = (1u64 << 53) as f64;
        let odd = [
            0.0,
            -0.0,
            two53 - 1.0,
            two53 + 2.0,
            -two53,
            1e20,
            1e-7,
            0.1,
            -1234567.875,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut pairs: Vec<SegmentPair> = odd
            .windows(4)
            .map(|w| SegmentPair {
                t_d: w[0],
                t_c: w[1],
                t_b: w[2],
                t_a: w[3],
            })
            .collect();
        pairs.extend((0..500).map(|i| SegmentPair {
            t_d: f64::from(i) * 300.0,
            t_c: f64::from(i) * 300.0 + 150.5,
            t_b: f64::from(i) * 300.0 + 86400.0,
            t_a: f64::from(i) * 300.0 + 2_592_000.0,
        }));
        for n in [0, 1, 2, pairs.len()] {
            let mut out = Vec::new();
            write_pairs(&mut out, pairs[..n].iter());
            assert_eq!(
                String::from_utf8(out).unwrap(),
                pairs_to_json(&pairs[..n]).to_string_compact()
            );
        }
    }
}
