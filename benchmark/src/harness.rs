//! The measurement protocol: closed loop, fixed work, reference-normalised
//! time, per-op medians across passes.
//!
//! A workload is a fixed, seed-determined list of ops. A *pass* runs the
//! list once, timing each op with `Instant`. Consecutive ops form *slices*
//! of a few milliseconds; the reference kernel runs before the first slice
//! and after every slice, and each op's normalised latency is
//! `raw × (REF_NOMINAL_MS / median of the six reference runs around its
//! slice) ^ REF_ELASTICITY` (see [`speed_scale`]).
//! Across passes the figure kept per op is the **median** (so a pass hit
//! by a neighbour's burst is voted out op by op, while a stall that recurs
//! at the same op index in every pass — a WAL checkpoint at a byte
//! threshold — survives); percentiles and throughput are then taken over
//! ops.

use crate::refkernel::{RefKernel, REF_NOMINAL_MS};
use std::time::Instant;

/// A slice closes once the summed cost of its ops reaches this; costs are
/// chosen per op class so a slice is 4–8 ms of engine work.
pub const SLICE_COST: u32 = 64;

/// How much further the engine's time moves than the reference kernel's when
/// the host changes speed, as an exponent: where the kernel takes `r` times
/// its nominal time, engine work takes about `r ^ REF_ELASTICITY` times its
/// quiet-machine time. Measured, not derived (README.md, "Elasticity"): over
/// 41 runs per workload spanning quiet and slow episodes of the sandbox, an
/// exponent of 1 left the query metrics 0.1–0.3 and live ingest 0.35–0.4 of
/// the kernel's swing, so a metric's level moved by 5–15 % between a quiet
/// and a slow episode; the residual crosses zero between 1.15 and 1.3 for
/// the query paths and the server, near 1.45 for the live write path.
/// Part of the frozen definition of normalised time, like the kernel.
pub const REF_ELASTICITY: f64 = 1.25;

/// The factor that turns wall time measured while the reference kernel took
/// `ref_ms` into time on a quiet machine of this class.
pub fn speed_scale(ref_ms: f64) -> f64 {
    (REF_NOMINAL_MS / ref_ms).powf(REF_ELASTICITY)
}

/// Reference kernel plus the record of every reference run.
pub struct Clock {
    kernel: RefKernel,
    ref_ms: Vec<f64>,
    /// Wall time spent inside reference runs during timed passes, ms.
    ref_in_pass_ms: f64,
    /// Wall time of the timed passes themselves (reference included), ms.
    pass_wall_ms: f64,
}

/// One op's (or step's) wall time and its reference-normalised value.
#[derive(Clone, Copy, Default)]
pub struct OpTime {
    pub raw_ms: f64,
    pub norm_ms: f64,
}

impl std::ops::Add for OpTime {
    type Output = OpTime;
    fn add(self, other: OpTime) -> OpTime {
        OpTime {
            raw_ms: self.raw_ms + other.raw_ms,
            norm_ms: self.norm_ms + other.norm_ms,
        }
    }
}

impl std::iter::Sum for OpTime {
    fn sum<I: Iterator<Item = OpTime>>(iter: I) -> OpTime {
        iter.fold(OpTime::default(), |a, b| a + b)
    }
}

impl Clock {
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        // Fault the tables in and settle the cursors.
        for _ in 0..8 {
            kernel.run();
        }
        Clock {
            kernel,
            ref_ms: Vec::new(),
            ref_in_pass_ms: 0.0,
            pass_wall_ms: 0.0,
        }
    }

    fn reference(&mut self) -> f64 {
        let ms = self.kernel.run();
        self.ref_ms.push(ms);
        ms
    }

    /// Times one set-up step of at least ~10 ms between reference runs
    /// (three before, three after, their median); returns the step's time
    /// and its value.
    pub fn bracket<T>(&mut self, step: impl FnOnce() -> T) -> (OpTime, T) {
        let mut refs: Vec<f64> = (0..3).map(|_| self.reference()).collect();
        let start = Instant::now();
        let out = step();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        refs.extend((0..3).map(|_| self.reference()));
        let norm_ms = raw_ms * speed_scale(median(&refs));
        (OpTime { raw_ms, norm_ms }, out)
    }

    /// Runs one pass over `costs.len()` ops. `op(i)` performs op `i` and is
    /// timed on its own; `costs[i]` is its slice cost.
    pub fn pass(&mut self, costs: &[u32], op: impl FnMut(usize)) -> Vec<OpTime> {
        self.pass_checked(costs, op, |_| {})
    }

    /// Like [`Clock::pass`], with `check(i)` run untimed right after op
    /// `i` (correctness checks that must see the state the op left).
    pub fn pass_checked(
        &mut self,
        costs: &[u32],
        mut op: impl FnMut(usize),
        mut check: impl FnMut(usize),
    ) -> Vec<OpTime> {
        let pass_start = Instant::now();
        let mut times = vec![OpTime::default(); costs.len()];
        // refs[j] ran before slice j; refs[j + 1] after it.
        let mut refs = vec![self.reference()];
        let mut slice_ends = Vec::new();
        let mut acc = 0u32;
        for i in 0..costs.len() {
            let start = Instant::now();
            op(i);
            times[i].raw_ms = start.elapsed().as_secs_f64() * 1e3;
            check(i);
            acc += costs[i];
            if acc >= SLICE_COST || i + 1 == costs.len() {
                refs.push(self.reference());
                slice_ends.push(i + 1);
                acc = 0;
            }
        }
        let mut slice_start = 0;
        for (j, &end) in slice_ends.iter().enumerate() {
            let scale = speed_scale(local_reference(&refs, j));
            for t in &mut times[slice_start..end] {
                t.norm_ms = t.raw_ms * scale;
            }
            slice_start = end;
        }
        self.ref_in_pass_ms += refs.iter().sum::<f64>();
        self.pass_wall_ms += pass_start.elapsed().as_secs_f64() * 1e3;
        times
    }

    /// Median reference time over the whole run, ms.
    pub fn ref_ms_p50(&self) -> f64 {
        median(&self.ref_ms)
    }

    /// [`speed_scale`] of the whole run: what the per-layer probes, which
    /// are not bracketed one by one, are scaled by. Divide a normalised
    /// figure by it to get wall time back.
    pub fn run_scale(&self) -> f64 {
        speed_scale(self.ref_ms_p50())
    }

    /// How often the reference kernel ran.
    pub fn ref_runs(&self) -> usize {
        self.ref_ms.len()
    }

    /// Percentile of the reference time over the whole run, ms.
    pub fn ref_ms_percentile(&self, q: f64) -> f64 {
        percentile(&self.ref_ms, q)
    }

    /// Share of the timed passes' wall time spent in the reference kernel.
    pub fn ref_share(&self) -> f64 {
        if self.pass_wall_ms > 0.0 {
            self.ref_in_pass_ms / self.pass_wall_ms
        } else {
            0.0
        }
    }
}

/// The reference time that applies to slice `j`: the median of the three
/// runs before it and the three after it. The host's speed moves over
/// seconds and a slice lasts milliseconds, so the six neighbours see the
/// same machine, and the median drops a run that was itself interrupted.
fn local_reference(refs: &[f64], j: usize) -> f64 {
    let lo = j.saturating_sub(2);
    let hi = (j + 4).min(refs.len());
    median(&refs[lo..hi])
}

/// Per-op medians over passes: `typical[i]` is the median of op `i`'s
/// normalised (and, separately, raw) latency.
pub fn typical(passes: &[Vec<OpTime>]) -> Vec<OpTime> {
    let n = passes.first().map_or(0, Vec::len);
    let mut buf = Vec::with_capacity(passes.len());
    (0..n)
        .map(|i| {
            buf.clear();
            buf.extend(passes.iter().map(|p| p[i].raw_ms));
            let raw_ms = median(&buf);
            buf.clear();
            buf.extend(passes.iter().map(|p| p[i].norm_ms));
            OpTime {
                raw_ms,
                norm_ms: median(&buf),
            }
        })
        .collect()
}

/// Component-wise median of repeated set-up steps.
pub fn median_time(reps: &[OpTime]) -> OpTime {
    OpTime {
        raw_ms: median(&reps.iter().map(|t| t.raw_ms).collect::<Vec<_>>()),
        norm_ms: median(&reps.iter().map(|t| t.norm_ms).collect::<Vec<_>>()),
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The largest odd pass count whose estimated duration fits `seconds`,
/// never below `min_passes`: `--seconds` chooses only how often the fixed
/// op list is repeated, never what is in it.
pub fn passes_for(seconds: f64, one_pass_seconds: f64, min_passes: usize) -> usize {
    let fit = (seconds / one_pass_seconds.max(1e-3)).floor() as usize;
    let n = fit.clamp(min_passes, 99);
    // min_passes is odd, so rounding an even count down stays above it.
    n - (1 - n % 2)
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

/// Peak resident set so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
