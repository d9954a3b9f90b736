//! `serve_cached`: the HTTP front end with the executor idle.
//!
//! Sensor 0's index sits behind `Server::bind` (`Engine::Single`, the only
//! engine with the result cache; `ServerConfig` defaults except
//! `threads: 1`) on loopback, client and server confined to one CPU (see
//! [`pin_to_current_cpu`]). One keep-alive client
//! (`loadgen::pooled_request`) sends 1,152 requests per pass, drawn with a
//! seeded skew from 192 distinct bodies (they fit the 256-entry cache and
//! answer with roughly 1 KB to 300 KB). All are warmed first, so every
//! timed request is a cache hit: HTTP parse, accept queue, cache lookup,
//! JSON serialisation and socket write are the whole cost.

use crate::corpus::{bulk_load, BulkLoad, Corpus, Rng, RESIDENT_POOL_PAGES};
use crate::harness::{dir_bytes, median, median_time, passes_for, typical, OpTime};
use crate::report::EndToEnd;
use crate::Ctx;
use featurespace::QueryRegion;
use obs::json::Json;
use router::{Router, RouterConfig, ShardSpec};
use segdiff::{QueryPlan, SegDiffIndex, SegmentPair};
use segdiff_server::http::{read_request, write_request};
use segdiff_server::loadgen::pooled_request;
use segdiff_server::{Server, ServerConfig, Service};
use sensorgen::HOUR;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const REQUESTS_PER_PASS: usize = 1152;
/// Eight ~0.5 ms requests make a slice.
const COST_REQUEST: u32 = 8;
/// Two cache-filling requests (a few ms each: the query runs) make a slice.
const COST_FILL: u32 = 32;
const MIN_PASSES: usize = 9;
const TRACE_PASSES: usize = 3;

/// One distinct request body and what its answer must contain.
struct Spec {
    body: String,
    region: QueryRegion,
    plan: QueryPlan,
    /// The `"results":[…]` bytes of the verified warm response.
    results_json: Vec<u8>,
}

/// 96 regions × 2 plans = 192 bodies. The list's order fixes how hot a
/// body is (see `request_count`); mid-sized answers come first.
fn specs() -> Vec<Spec> {
    let mut out = Vec::with_capacity(192);
    for t_hours in [2.0, 1.0, 4.0, 0.5, 8.0, 6.0] {
        let drops = [-1.0, -1.5, -2.0, -2.5, -3.0, -4.0, -5.0, -6.0, -8.0, -10.0];
        let jumps = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0];
        for (kind, v) in drops
            .iter()
            .map(|v| ("drop", *v))
            .chain(jumps.iter().map(|v| ("jump", *v)))
        {
            for (plan_name, plan) in [("scan", QueryPlan::SeqScan), ("index", QueryPlan::Index)] {
                out.push(Spec {
                    body: format!(
                        r#"{{"kind":"{kind}","v":{v},"t_hours":{t_hours},"plan":"{plan_name}"}}"#
                    ),
                    region: if kind == "drop" {
                        QueryRegion::drop(t_hours * HOUR, v)
                    } else {
                        QueryRegion::jump(t_hours * HOUR, v)
                    },
                    plan,
                    results_json: Vec::new(),
                });
            }
        }
    }
    out
}

/// How often body `j` is requested per pass.
fn request_count(j: usize) -> usize {
    1 + 358 / (j + 11)
}

/// The byte range of `"results":[…]` in a response body: from the key to
/// the `,"trace_id"` that follows the array.
fn results_slice(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"results\":[";
    let start = body.windows(key.len()).position(|w| w == key)?;
    // `trace_id` is the last field; look for it from the end.
    let marker = b",\"trace_id\"";
    let end = body.windows(marker.len()).rposition(|w| w == marker)?;
    (start <= end).then(|| &body[start..end])
}

fn contains(body: &[u8], needle: &[u8]) -> bool {
    body.windows(needle.len()).any(|w| w == needle)
}

/// Full check of one response against the in-process answer: status 200,
/// the stated `cached`, the result count, and the first and last pair.
fn verify_response(
    status: u16,
    body: &[u8],
    expect: &[SegmentPair],
    cached: bool,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text)?;
    if doc.get("cached") != Some(&Json::Bool(cached)) {
        return Err(format!(
            "cached is {:?}, expected {cached}",
            doc.get("cached")
        ));
    }
    if doc.get("count").and_then(Json::as_u64) != Some(expect.len() as u64) {
        return Err(format!(
            "count {:?}, in-process answer has {}",
            doc.get("count"),
            expect.len()
        ));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results array")?;
    if results.len() != expect.len() {
        return Err(format!(
            "{} results, expected {}",
            results.len(),
            expect.len()
        ));
    }
    let same = |got: &Json, want: &SegmentPair| {
        let f = |k: &str| got.get(k).and_then(Json::as_f64);
        f("t_d") == Some(want.t_d)
            && f("t_c") == Some(want.t_c)
            && f("t_b") == Some(want.t_b)
            && f("t_a") == Some(want.t_a)
    };
    match (
        results.first(),
        expect.first(),
        results.last(),
        expect.last(),
    ) {
        (None, None, None, None) => Ok(()),
        (Some(gf), Some(wf), Some(gl), Some(wl)) if same(gf, wf) && same(gl, wl) => Ok(()),
        _ => Err("first or last pair differs from the in-process answer".to_string()),
    }
}

/// A running server (or router) thread; dropping it stops the thread and
/// waits for it to end.
struct Running {
    host: String,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            // A thread that panicked already failed the requests sent to it.
            handle.join().ok();
        }
    }
}

fn start_server(index: Arc<SegDiffIndex>) -> Running {
    let server = Server::bind(
        "127.0.0.1:0",
        index,
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    Running {
        host: server.local_addr().to_string(),
        flag: server.shutdown_flag(),
        handle: Some(std::thread::spawn(move || {
            server.run().expect("server run")
        })),
    }
}

fn start_router(shard: &str) -> Running {
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            shards: vec![ShardSpec {
                primary: shard.to_string(),
                replica: None,
            }],
            threads: 1,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    Running {
        host: router.local_addr().to_string(),
        flag: router.shutdown_flag(),
        handle: Some(std::thread::spawn(move || {
            router.run().expect("router run")
        })),
    }
}

/// One keep-alive client.
struct Client {
    host: String,
    conn: Option<TcpStream>,
}

impl Client {
    fn post(&mut self, body: &str) -> (u16, Vec<u8>) {
        pooled_request(&mut self.conn, &self.host, "POST", "/query", Some(body))
            .expect("request failed")
    }
}

/// One build's serving side as the timed passes use it. Fields drop in
/// this order: the connection closes, the server stops, the store closes.
struct Served {
    client: Client,
    server: Running,
    index: Arc<SegDiffIndex>,
}

/// Sends every body once to the cold cache, each request timed on its own:
/// a miss, so the query runs and its answer is cached. Untimed, right after
/// each, the response is verified against the in-process answer, the body
/// is sent again and must now come from the cache, and that response's
/// results bytes become what every timed response must equal.
fn fill_cache(
    ctx: &mut Ctx,
    index: &SegDiffIndex,
    client: &mut Client,
    specs: &mut [Spec],
) -> Vec<OpTime> {
    let costs = vec![COST_FILL; specs.len()];
    let mut failures = Vec::new();
    let mut results_json = vec![Vec::new(); specs.len()];
    let last = Cell::new((0u16, Vec::new()));
    // Both the timed request and the untimed repeat use the connection.
    let client = RefCell::new(client);
    let times = ctx.clock.pass_checked(
        &costs,
        |i| last.set(client.borrow_mut().post(&specs[i].body)),
        |i| {
            let spec = &specs[i];
            let (expect, _) = index
                .query(&spec.region, spec.plan)
                .expect("in-process query");
            let (status, body) = last.take();
            if let Err(e) = verify_response(status, &body, &expect, false) {
                failures.push(format!("{}: {e}", spec.body));
            }
            let (status, body) = client.borrow_mut().post(&spec.body);
            if let Err(e) = verify_response(status, &body, &expect, true) {
                failures.push(format!("{} (cached): {e}", spec.body));
            }
            results_json[i] = results_slice(&body).map(<[u8]>::to_vec).unwrap_or_default();
        },
    );
    ctx.gate.record(2 * specs.len() as u64, failures);
    for (spec, json) in specs.iter_mut().zip(results_json) {
        spec.results_json = json;
    }
    times
}

/// Confines this thread, and every thread started from it afterwards, to
/// the CPU it is running on. The loop is closed with one caller, so client
/// and server worker are never runnable at once: on one CPU a request is two
/// context switches. Left to the scheduler they sit on two CPUs and each
/// request wakes two idle ones, and what waking a halted virtual CPU costs
/// is the host's business: on the shared sandbox it adds 40–120 µs to the
/// median round trip for half an hour at a time, and nothing when the loop
/// stays on one CPU (README.md, "Repeatability").
fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: both are plain libc calls; `mask` outlives the call and
    // `cpusetsize` is its size in bytes.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return false;
        }
        mask[cpu as usize / 64] = 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    if !pin_to_current_cpu() {
        ctx.findings
            .push("could not pin client and server to one CPU".to_string());
    }
    let corpus = Corpus::generate(&mut ctx.clock);

    // The request sequence: a fixed skewed multiset — body `j` of the
    // list is sent `1 + ⌊358 / (j + 11)⌋` times, 33 down to 2, 1,152 in
    // all — in seed-shuffled order.
    let mut specs = specs();
    let mut sequence: Vec<usize> = (0..specs.len())
        .flat_map(|j| vec![j; request_count(j)])
        .collect();
    assert_eq!(sequence.len(), REQUESTS_PER_PASS);
    Rng::new(ctx.seed).shuffle(&mut sequence);
    let costs = vec![COST_REQUEST; sequence.len()];

    // Set-up, repeated on every bulk build so each step counts with its
    // median: open sensor 0, bind, fill the cache, one warm-up pass.
    let mut opens = Vec::new();
    let mut starts = Vec::new();
    let mut fills = Vec::new();
    let mut warm_passes = Vec::new();
    let mut warm_seconds = 0.0;
    let (mut hits_before, mut misses_before) = (0, 0);
    let BulkLoad {
        last: Served {
            mut client,
            server,
            index,
        },
        root,
        batches,
        build_indexes,
        total: bulk_total,
    } = bulk_load(ctx, &corpus, |ctx, transect, root| {
        transect.flush_all().expect("flush");
        drop(transect);
        let (open, index) = ctx.clock.bracket(|| {
            Arc::new(
                SegDiffIndex::open(&root.join("sensor-0"), RESIDENT_POOL_PAGES)
                    .expect("open sensor 0"),
            )
        });
        opens.push(open);
        let (start, server) = ctx.clock.bracket(|| start_server(Arc::clone(&index)));
        starts.push(start);
        let mut client = Client {
            host: server.host.clone(),
            conn: None,
        };
        fills.push(fill_cache(ctx, &index, &mut client, &mut specs));
        hits_before = obs::global().counter("cache.hit").get();
        misses_before = obs::global().counter("cache.miss").get();
        let warm_start = Instant::now();
        warm_passes.push(request_pass(ctx, &mut client, &specs, &sequence, &costs));
        warm_seconds = warm_start.elapsed().as_secs_f64();
        Served {
            client,
            server,
            index,
        }
    });
    let open = median_time(&opens);
    let setup = corpus.generate
        + corpus.smooth
        + bulk_total
        + open
        + median_time(&starts)
        + typical(&fills).into_iter().sum::<OpTime>()
        + typical(&warm_passes).into_iter().sum::<OpTime>();

    let n_passes = if ctx.trace {
        TRACE_PASSES
    } else {
        passes_for(ctx.seconds, warm_seconds, MIN_PASSES)
    };
    let passes: Vec<Vec<OpTime>> = (0..n_passes)
        .map(|_| request_pass(ctx, &mut client, &specs, &sequence, &costs))
        .collect();
    let queries = typical(&passes);
    ctx.layers.set("harness.passes", n_passes as f64);

    if ctx.trace {
        let hits = obs::global().counter("cache.hit").get() - hits_before;
        let misses = obs::global().counter("cache.miss").get() - misses_before;
        ctx.layers.set(
            "core.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        server_layers(
            ctx,
            &index,
            &mut client,
            &specs,
            &sequence,
            &costs,
            &queries,
        );
        let n = corpus.n_samples as f64;
        let l = &mut ctx.layers;
        l.set(
            "sensorgen.generate_ns_per_sample",
            corpus.generate.norm_ms * 1e6 / n,
        );
        l.set(
            "sensorgen.smooth_ns_per_sample",
            corpus.smooth.norm_ms * 1e6 / n,
        );
        l.set("core.build_indexes_s", build_indexes.norm_ms / 1e3);
        l.set("core.open_s", open.norm_ms / 1e3);
    }

    drop(client);
    drop(server);
    drop(index);
    let store_bytes = dir_bytes(&root);
    EndToEnd {
        setup,
        ingest_batches: batches,
        ingest_tail: OpTime::default(),
        samples: corpus.n_samples,
        queries,
        store_bytes,
        peak_rss_mb: 0.0,
    }
}

/// One pass of the request sequence. Every response must be a 200 cache
/// hit whose results bytes equal the verified warm response's.
fn request_pass(
    ctx: &mut Ctx,
    client: &mut Client,
    specs: &[Spec],
    sequence: &[usize],
    costs: &[u32],
) -> Vec<OpTime> {
    let mut failures: Vec<String> = Vec::new();
    let last = Cell::new((0u16, Vec::new()));
    let times = ctx.clock.pass_checked(
        costs,
        |i| last.set(client.post(&specs[sequence[i]].body)),
        |i| {
            let spec = &specs[sequence[i]];
            let (status, body) = last.take();
            let ok = status == 200
                && contains(&body[..body.len().min(256)], b"\"cached\":true")
                && results_slice(&body) == Some(&spec.results_json[..]);
            if !ok {
                failures.push(format!(
                    "request {i} ({}): status {status}, not the warm cached answer",
                    spec.body
                ));
            }
        },
    );
    ctx.gate.record(sequence.len() as u64, failures);
    times
}

/// The server's parts measured in process on the same requests, traced
/// round trips that tile against them, and the extra hop a router adds.
fn server_layers(
    ctx: &mut Ctx,
    index: &Arc<SegDiffIndex>,
    client: &mut Client,
    specs: &[Spec],
    sequence: &[usize],
    costs: &[u32],
    untraced: &[OpTime],
) {
    let scale = ctx.clock.run_scale();
    let service = Service::new(Arc::clone(index), Arc::new(AtomicBool::new(false)));
    // Canned request bytes, exactly what the client writes.
    let canned: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            let mut bytes = Vec::new();
            write_request(&mut bytes, "POST", "/query", &client.host, Some(&s.body))
                .expect("write to Vec");
            bytes
        })
        .collect();
    // Per distinct body: median of five in-process runs of each part.
    let mut parts: Vec<[f64; 3]> = Vec::with_capacity(specs.len());
    let mut response_bytes = Vec::with_capacity(specs.len());
    let mut sink: Vec<u8> = Vec::new();
    for bytes in &canned {
        let (mut parse, mut handle, mut write) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            let start = Instant::now();
            let request = read_request(&mut BufReader::new(&bytes[..])).expect("canned request");
            parse.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let response = service.handle(&request);
            handle.push(start.elapsed().as_secs_f64());
            sink.clear();
            let start = Instant::now();
            response.write_to(&mut sink).expect("write to Vec");
            write.push(start.elapsed().as_secs_f64());
            black_box(&sink);
        }
        parts.push([median(&parse), median(&handle), median(&write)]);
        response_bytes.push(sink.len() as f64);
    }

    // Traced passes: the round trip is the parent; the in-process parts
    // are its children; its self time is transport (sockets, accept
    // queue, thread hand-off).
    let mut passes = Vec::new();
    for _ in 0..TRACE_PASSES {
        let tracer = &mut ctx.tracer;
        passes.push(ctx.clock.pass_checked(
            costs,
            |i| {
                let s = sequence[i];
                tracer.begin_op("op.request", i);
                tracer.enter("server.transport");
                black_box(client.post(&specs[s].body));
                let round_trip = tracer.exit();
                tracer.reported_children(
                    round_trip,
                    &[
                        ("server.parse", parts[s][0]),
                        ("server.handle", parts[s][1]),
                        ("server.write", parts[s][2]),
                    ],
                );
                tracer.end_op();
            },
            |_| {},
        ));
    }
    ctx.gate.attempted += (TRACE_PASSES * sequence.len()) as u64;
    let traced = typical(&passes);
    let total = |times: &[OpTime]| times.iter().map(|t| t.norm_ms).sum::<f64>();
    let per_request =
        |k: usize| sequence.iter().map(|&s| parts[s][k]).sum::<f64>() / sequence.len() as f64;
    let transport_ms = ctx.tracer.self_time("op.request", "server.transport").0
        / (TRACE_PASSES * sequence.len()) as f64;

    // Result-cache lookup alone.
    let mut get_ns = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for spec in specs {
            let (results, _, hit) = index
                .query_cached(&spec.region, spec.plan)
                .expect("cached query");
            black_box((results, hit));
        }
        get_ns.push(start.elapsed().as_nanos() as f64 / specs.len() as f64);
    }

    // The same requests through a router in front of the server.
    let router = start_router(&client.host);
    let mut via = Client {
        host: router.host.clone(),
        conn: None,
    };
    // One pass is enough for a difference of means; the first requests
    // open the router's upstream connection.
    for &s in sequence.iter().take(32) {
        black_box(via.post(&specs[s].body));
    }
    let mut router_failures = Vec::new();
    let routed = ctx.clock.pass(costs, |i| {
        let (status, body) = via.post(&specs[sequence[i]].body);
        if status != 200 {
            router_failures.push(format!("request {i} through the router: status {status}"));
        }
        black_box(body);
    });
    drop(via);
    drop(router);
    ctx.gate.record(sequence.len() as u64, router_failures);

    let n = sequence.len() as f64;
    let l = &mut ctx.layers;
    l.set(
        "harness.trace_overhead_ratio",
        total(&traced) / total(untraced),
    );
    l.set("server.parse_us", per_request(0) * 1e6 * scale);
    l.set("server.handle_ms", per_request(1) * 1e3 * scale);
    l.set("server.write_us", per_request(2) * 1e6 * scale);
    l.set("server.transport_ms", transport_ms * scale);
    l.set(
        "server.response_bytes_per_query",
        sequence.iter().map(|&s| response_bytes[s]).sum::<f64>() / n,
    );
    l.set("core.cache_get_ns", median(&get_ns) * scale);
    l.set("router.hop_ms", (total(&routed) - total(&traced)) / n);
}
