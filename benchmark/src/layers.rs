//! Per-layer metrics every traced run reports, whatever the workload.

use crate::harness::median;
use crate::Ctx;
use std::hint::black_box;
use std::time::Instant;

/// The telemetry layer's unit costs and the harness's own figures.
pub fn common(ctx: &mut Ctx) {
    let scale = ctx.clock.run_scale();
    const N: u32 = 20_000;
    let counter = obs::global().counter("benchmark.probe");
    let (mut span_ns, mut inc_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..N {
            drop(black_box(obs::span("benchmark.probe")));
        }
        span_ns.push(start.elapsed().as_nanos() as f64 / N as f64);
        let start = Instant::now();
        for _ in 0..N {
            black_box(&counter).inc();
        }
        inc_ns.push(start.elapsed().as_nanos() as f64 / N as f64);
    }
    let ref_p50 = ctx.clock.ref_ms_p50();
    let ref_share = ctx.clock.ref_share();
    let l = &mut ctx.layers;
    l.set("obs.span_ns", median(&span_ns) * scale);
    l.set("obs.counter_inc_ns", median(&inc_ns) * scale);
    l.set("harness.ref_ms_p50", ref_p50);
    l.set("harness.speed_ratio", scale);
    l.set("harness.ref_share", ref_share);
    if ref_share > 0.30 {
        ctx.findings
            .push(format!("harness.ref_share {ref_share:.3} is above 0.30"));
    }
}
