//! Query plans and execution (§4.4): a search generates its feature rows
//! from the segments ([`run_segment_query`]); the paper's two plans read
//! them off the feature tables and their B+trees ([`run_feature_query`]).
//!
//! Execution is split into named *phases* whose buffer-pool deltas tile
//! the query: snapshots are taken only at phase boundaries, so the sum of
//! per-phase I/O deltas equals the pool's total delta for the query by
//! construction. Each phase also runs under an [`obs::span`], so query
//! execution feeds the `span.query.*` latency histograms and — when a
//! trace is active — an `EXPLAIN ANALYZE`-style call tree.

use crate::result::SegmentPair;
use crate::tables::{index_specs, pair_from_stamps, stamp_cols};
use featurespace::batch::{boundaries_intersect_cols, edge_hits, point_hits, zone_may_intersect};
use featurespace::{
    pick_corners, pick_self_corners, Boundary, Parallelogram, QueryRegion, SearchKind,
};
use pagestore::{Database, PoolStats, Result, ScanPage, StoreError, Table, ZoneScanStats};
use segmentation::Segment;
use sensorgen::HOUR;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// How the paper executes a search over the stored feature rows
/// ([`crate::SegDiffIndex::query_stored_rows`]).
///
/// A search ([`crate::SegDiffIndex::query`]) answers both plans the same
/// way: the plan's first phase (`scan`, `probe`) generates every row from
/// the segments, so it reads no feature page and no tree, and the index
/// plan's `fetch` phase is empty. The plan names its phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPlan {
    /// Sequential scan of the feature tables, evaluating the full
    /// intersection predicate per row.
    SeqScan,
    /// B+tree range scans: a point query on the single-corner table and
    /// one line query per boundary edge (each edge entry carries both
    /// endpoints, so corner membership folds into the edge scans),
    /// unioned by row id — the paper's indexed execution.
    Index,
}

impl QueryPlan {
    /// Stable display name (`seq_scan` / `index`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryPlan::SeqScan => "seq_scan",
            QueryPlan::Index => "index",
        }
    }

    /// The word a request names the plan by (`scan` / `index`).
    pub fn word(&self) -> &'static str {
        match self {
            QueryPlan::SeqScan => "scan",
            QueryPlan::Index => "index",
        }
    }

    /// The plan a request word names: the inverse of [`QueryPlan::word`].
    pub fn parse(word: &str) -> std::result::Result<QueryPlan, String> {
        [QueryPlan::SeqScan, QueryPlan::Index]
            .into_iter()
            .find(|plan| plan.word() == word)
            .ok_or_else(|| format!("plan must be \"scan\" or \"index\", got {word:?}"))
    }
}

/// Metrics for one execution phase of a query.
///
/// Phases tile the query's execution: buffer-pool snapshots are taken
/// only at phase boundaries, so summing `io` over the phases reproduces
/// [`QueryStats::io`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase name (`plan`, `scan`, `probe`, `fetch`, `refine`).
    pub name: &'static str,
    /// Wall-clock time spent in the phase, in seconds.
    pub wall_seconds: f64,
    /// Rows (or index entries) entering the phase.
    pub rows_in: u64,
    /// Rows leaving the phase.
    pub rows_out: u64,
    /// Buffer-pool activity during the phase.
    pub io: PoolStats,
}

/// What a search generated over a sensor's segments (the first phase
/// after `plan` records the same four counts on its span).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratorStats {
    /// Segments walked: the whole run, or none when the zone summary of
    /// `segments` rules the region out.
    pub segments_read: u64,
    /// `segments` rows this search decoded into the resident run: 0 when
    /// the run was already held, the rows appended since when it grew.
    pub rows_decoded: u64,
    /// Segment pairs within `T`, self pairs included.
    pub pairs_within_t: u64,
    /// Boundaries computed: the pairs whose endpoint values can reach `V`.
    pub boundaries: u64,
}

impl GeneratorStats {
    /// Attaches the counts to the phase span the run was generated in.
    fn record(&self, span: &obs::SpanGuard) {
        span.record("segments_read", self.segments_read);
        span.record("rows_decoded", self.rows_decoded);
        span.record("pairs_within_t", self.pairs_within_t);
        span.record("boundaries", self.boundaries);
    }
}

/// Execution metrics for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall-clock execution time in seconds.
    pub wall_seconds: f64,
    /// Rows examined: the boundaries generated (one a pair whose endpoint
    /// values can reach `V`). Over stored rows
    /// ([`crate::SegDiffIndex::query_stored_rows`]), plus the rows through
    /// the scan's kernel ([`QueryPlan::SeqScan`]) or the tree entries
    /// probed ([`QueryPlan::Index`]).
    pub rows_considered: u64,
    /// Result tuples returned (after deduplication).
    pub results: u64,
    /// Buffer-pool activity during the query.
    pub io: PoolStats,
    /// Per-phase breakdown; the phase `io` deltas sum to `io`.
    pub phases: Vec<PhaseStats>,
    /// What was generated from the segments.
    pub generated: GeneratorStats,
}

impl QueryStats {
    /// Folds in the stats of the same query run beside this one on
    /// another sensor: rows, results, generator counts and I/O sum —
    /// phase by phase, by name, so the phase `io` deltas still tile `io` —
    /// and wall time takes the slower of the two, the sensors having run
    /// in parallel.
    pub fn absorb(&mut self, other: QueryStats) {
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
        self.rows_considered += other.rows_considered;
        self.results += other.results;
        let (g, o) = (&mut self.generated, other.generated);
        g.segments_read += o.segments_read;
        g.rows_decoded += o.rows_decoded;
        g.pairs_within_t += o.pairs_within_t;
        g.boundaries += o.boundaries;
        self.io = self.io.merged(&other.io);
        for phase in other.phases {
            match self.phases.iter_mut().find(|p| p.name == phase.name) {
                Some(m) => {
                    m.wall_seconds = m.wall_seconds.max(phase.wall_seconds);
                    m.rows_in += phase.rows_in;
                    m.rows_out += phase.rows_out;
                    m.io = m.io.merged(&phase.io);
                }
                None => self.phases.push(phase),
            }
        }
    }
}

/// Rejects a search for pairs further apart than the window `w` a store
/// was built with: their features were never extracted, so the store has
/// no answer, and says so with an error naming the window.
pub fn check_window(region: &QueryRegion, window: f64) -> Result<()> {
    if region.t > window {
        return Err(StoreError::InvalidArgument(format!(
            "t_hours {:?} exceeds the index window of {} h",
            region.t / HOUR,
            window / HOUR
        )));
    }
    Ok(())
}

/// Measures one phase: wall time, an [`obs`] span, and the pool delta
/// from construction to [`Phase::finish`]. Phases must be constructed
/// and finished back-to-back so their deltas tile the query.
struct Phase<'a> {
    db: &'a Database,
    span: obs::SpanGuard,
    io_start: PoolStats,
    t_start: Instant,
}

impl<'a> Phase<'a> {
    fn start(db: &'a Database, name: &'static str) -> Self {
        Phase {
            db,
            span: obs::span(name),
            io_start: db.stats(),
            t_start: Instant::now(),
        }
    }

    fn finish(self, rows_in: u64, rows_out: u64) -> PhaseStats {
        let io = self.db.stats().since(&self.io_start);
        let wall_seconds = self.t_start.elapsed().as_secs_f64();
        self.span.record("rows_in", rows_in);
        self.span.record("rows_out", rows_out);
        self.span.record("physical_reads", io.physical_reads);
        self.span.record("physical_writes", io.physical_writes);
        self.span.record("pool_hits", io.hits);
        self.span.record("pool_misses", io.misses);
        // Strip the "query." prefix used for span/histogram names.
        let name = self
            .span
            .name()
            .rsplit_once('.')
            .map_or(self.span.name(), |(_, last)| last);
        PhaseStats {
            name,
            wall_seconds,
            rows_in,
            rows_out,
            io,
        }
    }
}

/// Fault-injection hatch for the alert-smoke harness: when
/// `SEGDIFF_FAULT_SLEEP_MS` is set, every query executed after
/// `SEGDIFF_FAULT_DELAY_SECS` (default 0, measured from the *first*
/// query) sleeps that long before running — a controlled latency jump
/// the dogfooded alerting pipeline must detect. Both variables are read
/// once; unset or unparsable values disable the hatch entirely, so
/// production runs pay one atomic load.
fn fault_injection_sleep() {
    use std::sync::OnceLock;
    use std::time::Duration;
    static CONFIG: OnceLock<Option<(Duration, Duration)>> = OnceLock::new();
    static FIRST_QUERY: OnceLock<Instant> = OnceLock::new();
    fn read_config() -> Option<(Duration, Duration)> {
        let sleep_ms: u64 = std::env::var("SEGDIFF_FAULT_SLEEP_MS").ok()?.parse().ok()?;
        let delay_secs: u64 = std::env::var("SEGDIFF_FAULT_DELAY_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Some((
            Duration::from_millis(sleep_ms),
            Duration::from_secs(delay_secs),
        ))
    }
    let Some((sleep, delay)) = *CONFIG.get_or_init(read_config) else {
        return;
    };
    let first = *FIRST_QUERY.get_or_init(Instant::now);
    if first.elapsed() >= delay {
        std::thread::sleep(sleep);
    }
}

/// A sensor's `segments` heap, the run of it held decoded between
/// searches, and the tolerance and window feature rows are extracted with.
/// Both plans generate a feature row's corners here, from the segments,
/// with the corner pick ingest stores rows through
/// ([`crate::ingest::pair_row`]): a search
/// ([`run_segment_query`]) over the whole heap, a search over stored rows
/// ([`run_feature_query`]) over the sealed run, whose rows are not stored
/// ([`crate::SegDiffIndex::compact_storage`] cut them).
pub(crate) struct SegmentRun<'a> {
    pub segments: &'a Table,
    pub resident: &'a ResidentRun,
    pub epsilon: f64,
    pub window: f64,
}

/// The decoded rows of one sensor's `segments`, keyed by their number.
/// The heap only grows by appending, and a seal rewrites it bit for bit in
/// the same order, so a run of `k` rows is the heap's first `k` whatever
/// was appended or sealed since; a search that needs more decodes only the
/// rows past `k` and swaps the longer run in. A reopen starts empty.
/// Nothing of it is stored.
#[derive(Default)]
pub(crate) struct ResidentRun {
    /// The rows decoded so far, locked only to clone or swap the `Arc`:
    /// the decode runs with the guard released.
    decoded: Mutex<Arc<[HeldSegment]>>,
}

/// A decoded `segments` row and its slope, computed once, as the row was
/// decoded: every pair the row starts or ends reads it from here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldSegment {
    pub(crate) seg: Segment,
    slope: f64,
}

impl HeldSegment {
    /// The row `row` of `segments`, `(t_start, v_start, t_end, v_end)`,
    /// held if it is a segment that can follow one ending at `after`:
    /// finite, of positive duration and in temporal order. This one check
    /// per decoded row is what the generator's pairs rest on, so a corrupt
    /// row is an error here rather than a panic there.
    fn check(row: u64, [t_start, v_start, t_end, v_end]: [f64; 4], after: f64) -> Result<Self> {
        let finite = [t_start, v_start, t_end, v_end]
            .iter()
            .all(|x| x.is_finite());
        if !(finite && t_start < t_end && t_start >= after) {
            return Err(StoreError::Corrupt(format!(
                "segments row {row} ({t_start}, {v_start}) → ({t_end}, {v_end}) is not a \
                 finite segment of positive duration starting at or after {after}"
            )));
        }
        let seg = Segment {
            t_start,
            v_start,
            t_end,
            v_end,
        };
        Ok(HeldSegment {
            seg,
            slope: seg.slope(),
        })
    }
}

impl ResidentRun {
    /// A run holding at least the first `rows` rows of `segments`, and the
    /// rows this call decoded into it. A row that is no segment, or that
    /// starts before the one before it ends, is [`StoreError::Corrupt`].
    pub(crate) fn get(&self, segments: &Table, rows: u64) -> Result<(Arc<[HeldSegment]>, u64)> {
        let lock = || self.decoded.lock().unwrap_or_else(PoisonError::into_inner);
        let held = Arc::clone(&lock());
        let key = held.len() as u64;
        if key >= rows {
            return Ok((held, 0));
        }
        let mut cols = vec![Vec::new(); 4];
        let mut appended: Vec<HeldSegment> = Vec::with_capacity((rows - key) as usize);
        let mut after = held.last().map_or(f64::NEG_INFINITY, |h| h.seg.t_end);
        segments.scan_pages(
            key..rows,
            |_, _| true,
            |page| {
                page.columns(0..4, &mut cols)?;
                let ends = cols[0].iter().zip(&cols[1]).zip(&cols[2]).zip(&cols[3]);
                for (((&t_start, &v_start), &t_end), &v_end) in ends.take(page.rows()) {
                    let row = key + appended.len() as u64;
                    let ends = [t_start, v_start, t_end, v_end];
                    let next = HeldSegment::check(row, ends, after)?;
                    after = next.seg.t_end;
                    appended.push(next);
                }
                Ok(true)
            },
        )?;
        // One allocation of the longer run, written in place.
        let run: Arc<[HeldSegment]> = held.iter().chain(&appended).copied().collect();
        let mut held = lock();
        // Another search may have grown it further meanwhile.
        if held.len() < run.len() {
            *held = Arc::clone(&run);
        }
        Ok((Arc::clone(&run), run.len() as u64 - key))
    }
}

/// Whether a boundary of `region`'s kind over a segment pair whose later
/// segment's values lie in `ab` and earlier segment's in `cd` (each a
/// `(lo, hi)`; the self pair is `ab` with itself) can reach `region.v`.
///
/// Conservative: every corner's `Δv` is a later value minus an earlier one,
/// shifted by `ε` (down for drops, up for jumps), and the bound is the
/// least (greatest) such difference computed with the same operations, in
/// the same order. Rounding is monotone, so no corner lies below the drop
/// bound or above the jump bound, and a boundary whose every corner misses
/// `V` has no point or edge inside the region.
fn may_reach(region: &QueryRegion, ab: (f64, f64), cd: (f64, f64), epsilon: f64) -> bool {
    match region.kind {
        SearchKind::Drop => ab.0 - cd.1 - epsilon <= region.v,
        SearchKind::Jump => ab.1 - cd.0 + epsilon >= region.v,
    }
}

impl SegmentRun<'_> {
    /// Generates the rows of `region`'s kind over the first `rows`
    /// segments and appends the pairs of those that intersect `region` to
    /// `out`, in [`crate::result::sort_dedup`]'s order ([`generate`]). A
    /// heap whose zone summary cannot reach `V` generates nothing and is
    /// not read.
    fn search(
        &self,
        rows: u64,
        region: &QueryRegion,
        out: &mut Vec<SegmentPair>,
    ) -> Result<GeneratorStats> {
        let reachable = |mins: &[f64], maxs: &[f64]| {
            let (lo, hi) = (mins[1].min(mins[3]), maxs[1].max(maxs[3]));
            // A truncated `cd` starts on an interpolated value, which may
            // round a few ulps outside the stored ones.
            let slack = (hi - lo + lo.abs().max(hi.abs()) + self.epsilon) * f64::EPSILON * 16.0;
            may_reach(region, (lo, hi), (lo - slack, hi + slack), self.epsilon)
        };
        if rows == 0 || self.segments.prune_whole_segment(reachable) {
            return Ok(GeneratorStats::default());
        }
        let (run, rows_decoded) = self.resident.get(self.segments, rows)?;
        let run = &run[..rows as usize];
        let generated = generate(run, region, self.epsilon, self.window, out);
        Ok(GeneratorStats {
            rows_decoded,
            ..generated
        })
    }
}

/// Generates the rows of `region`'s kind over the segments `run` (in
/// temporal order) and appends the pairs of those that intersect `region`
/// to `out`. For each earlier segment `cd`: its self pair, then the later
/// segments `ab` forward, stopping at the first whose gap `t_b − t_c`
/// exceeds `T` (every corner's `Δt` is at least the gap, and later ones lie
/// further) or that leaves nothing of `cd` in its window (the window start
/// `t_b − w` at or past `t_c`, as [`crate::ingest::in_window`] has it).
/// Both stops are monotone in `ab`, so these are the pairs ingest extracts
/// within `T`. A pair whose endpoint values cannot reach `V` ([`may_reach`])
/// computes no boundary. The rest pick their corners as ingest does
/// ([`pick_corners`], [`pick_self_corners`]: what
/// [`featurespace::extract_boundary`] stores), from the held slopes — only
/// a `cd` the window truncates has a slope of its own to compute — and are
/// tested in place with [`Boundary::intersects`], the lanes the index
/// plan's probe and the scan's kernel evaluate. A hit pushes its time
/// stamps; no row is built.
///
/// The pairs come out in [`crate::result::sort_dedup`]'s order: every pair
/// of `cd` has `t_d` in `[cd.t_start, cd.t_end)` (a windowed `cd` starts at
/// `t_b − w`, strictly inside it), the self pair has the least `t_b`, and
/// the pairs whose `cd` is whole precede the windowed ones, each ascending
/// in `t_b`.
fn generate(
    run: &[HeldSegment],
    region: &QueryRegion,
    epsilon: f64,
    window: f64,
    out: &mut Vec<SegmentPair>,
) -> GeneratorStats {
    let mut done = GeneratorStats {
        segments_read: run.len() as u64,
        ..GeneratorStats::default()
    };
    let kind = region.kind;
    // Counts the pair, and whether its boundary can reach `V` at all.
    let mut reach = |cd: &Segment, ab: &Segment| {
        done.pairs_within_t += 1;
        let range = |s: &Segment| (s.min_value(), s.max_value());
        let reach = may_reach(region, range(ab), range(cd), epsilon);
        done.boundaries += u64::from(reach);
        reach
    };
    let mut emit = |cd: &Segment, ab: &Segment, pick: Boundary| {
        if pick.intersects(region) {
            out.push(SegmentPair {
                t_d: cd.t_start,
                t_c: cd.t_end,
                t_b: ab.t_start,
                t_a: ab.t_end,
            });
        }
    };
    for (j, cd) in run.iter().enumerate() {
        let whole = &cd.seg;
        if reach(whole, whole) {
            emit(whole, whole, pick_self_corners(whole, epsilon, kind));
        }
        for ab in &run[j + 1..] {
            let within_t = ab.seg.t_start - whole.t_end <= region.t;
            if !within_t {
                break;
            }
            let t0 = ab.seg.t_start - window;
            if t0 >= whole.t_end {
                break;
            }
            let (cd, k_cd) = if t0 <= whole.t_start {
                (*whole, cd.slope)
            } else {
                // Truncated at the window start, as `Segment::truncate_left`
                // has it: a new start, so a slope of its own.
                let cut = Segment {
                    t_start: t0,
                    v_start: whole.value_at(t0),
                    ..*whole
                };
                (cut, cut.slope())
            };
            if reach(&cd, &ab.seg) {
                let para = Parallelogram::between(&cd, &ab.seg);
                emit(
                    &cd,
                    &ab.seg,
                    pick_corners(&para, k_cd, ab.slope, epsilon, kind),
                );
            }
        }
    }
    done
}

/// The page scan [`QueryPlan::SeqScan`] reads the stored feature rows
/// with: the column buffers it decodes into, reused from page to page and
/// table to table, and what it has examined and skipped so far.
///
/// A table whose whole-heap zone summary cannot intersect the region is
/// skipped unread; of any other it reads every page, as the paper's scan
/// does. Of a page only the corner coordinates are decoded, straight into
/// struct-of-arrays column buffers which the batch intersection kernel
/// evaluates in place; the four time stamps are decoded only when the
/// page's mask has a bit set, and only the few matching rows are ever
/// materialized row-wise, for result assembly.
#[derive(Default)]
struct PageScan {
    coords: Vec<Vec<f64>>,
    stamps: Vec<Vec<f64>>,
    mask: Vec<bool>,
    /// Rows through the kernel; skipped tables contribute nothing.
    rows: u64,
    zones: ZoneScanStats,
}

impl PageScan {
    /// Scans the pages of `table`, whose rows have `corners` corners, and
    /// appends the pairs of the rows that intersect `region` to `out`.
    fn scan(
        &mut self,
        table: &Table,
        corners: usize,
        region: &QueryRegion,
        out: &mut Vec<SegmentPair>,
    ) -> Result<()> {
        let filter = |mins: &[f64], maxs: &[f64]| zone_may_intersect(corners, mins, maxs, region);
        let visit = |page: &ScanPage<'_>| {
            self.coords.resize(2 * corners, Vec::new());
            self.stamps.resize(4, Vec::new());
            let n = page.rows();
            self.rows += n as u64;
            page.columns(0..2 * corners, &mut self.coords)?;
            boundaries_intersect_cols(corners, &self.coords, n, region, &mut self.mask);
            if self.mask.contains(&true) {
                page.columns(stamp_cols(corners), &mut self.stamps)?;
                let stamps = &self.stamps;
                for r in (0..n).filter(|&r| self.mask[r]) {
                    out.push(pair_from_stamps(&[
                        stamps[0][r],
                        stamps[1][r],
                        stamps[2][r],
                        stamps[3][r],
                    ]));
                }
            }
            Ok(true)
        };
        let s = table.scan_pages(.., filter, visit)?;
        self.zones.pages_scanned += s.pages_scanned;
        self.zones.pages_pruned += s.pages_pruned;
        Ok(())
    }

    /// Attaches what the scan read and skipped to its phase's span.
    fn record(&self, span: &obs::SpanGuard) {
        span.record("pages_scanned", self.zones.pages_scanned);
        span.record("pages_pruned", self.zones.pages_pruned);
    }
}

/// The first phase of every search: plan selection. Trivial here (the
/// caller chose), but it gives the trace its "plan chosen" node and anchors
/// the I/O accounting.
fn plan_phase(db: &Database, region: &QueryRegion, plan: QueryPlan) -> PhaseStats {
    let p = Phase::start(db, "query.plan");
    p.span.record("plan", plan.name());
    p.span.record("kind", region.kind.name());
    if let Some(id) = obs::current_trace_id() {
        // The server tags the worker thread with the request's trace id;
        // stamping it here proves propagation reached the executor.
        p.span.record("trace_id", id);
    }
    p.finish(0, 0)
}

/// The last phase of every search: refinement — sort by time and drop
/// duplicate pairs.
fn refine_phase(db: &Database, out: &mut Vec<SegmentPair>) -> PhaseStats {
    let p = Phase::start(db, "query.refine");
    let before = out.len() as u64;
    crate::result::sort_dedup(out);
    p.finish(before, out.len() as u64)
}

/// Runs a drop/jump search over every segment of `run`: both plans
/// generate every row, so no feature page and no tree is read. The phases
/// are the stored-row plans' ([`run_feature_query`]), in the same order,
/// the index plan's `fetch` empty. Returns deduplicated, time-ordered
/// segment pairs, and fills in `stats`' rows considered, phases and
/// generator counts.
pub(crate) fn run_segment_query(
    db: &Database,
    run: SegmentRun<'_>,
    region: &QueryRegion,
    plan: QueryPlan,
    stats: &mut QueryStats,
) -> Result<Vec<SegmentPair>> {
    let phases = &mut stats.phases;
    fault_injection_sleep();
    phases.push(plan_phase(db, region, plan));
    let mut out = Vec::new();
    let first = match plan {
        QueryPlan::SeqScan => "query.scan",
        QueryPlan::Index => "query.probe",
    };
    let p = Phase::start(db, first);
    let generated = run.search(run.segments.num_rows(), region, &mut out)?;
    stats.rows_considered += generated.boundaries;
    generated.record(&p.span);
    stats.generated = generated;
    phases.push(p.finish(generated.boundaries, out.len() as u64));
    if plan == QueryPlan::Index {
        phases.push(Phase::start(db, "query.fetch").finish(0, 0));
    }
    phases.push(refine_phase(db, &mut out));
    Ok(out)
}

/// Runs a drop/jump search the paper's way, over stored rows: the sealed
/// run of `run` (whose rows are not stored) generated, then the three
/// per-corner-count feature tables of the matching kind, which hold the
/// rows behind it, scanned ([`QueryPlan::SeqScan`]) or probed through
/// their B+trees ([`QueryPlan::Index`]). Returns deduplicated,
/// time-ordered segment pairs, and fills in `stats`' rows considered,
/// phases and generator counts.
pub(crate) fn run_feature_query(
    db: &Database,
    tables: &[Arc<Table>; 3],
    run: SegmentRun<'_>,
    region: &QueryRegion,
    plan: QueryPlan,
    stats: &mut QueryStats,
) -> Result<Vec<SegmentPair>> {
    let phases = &mut stats.phases;
    fault_injection_sleep();
    phases.push(plan_phase(db, region, plan));
    let sealed = run.segments.sealed_rows();

    let mut out = Vec::new();
    match plan {
        QueryPlan::SeqScan => {
            // Phase: the sealed run generated, then a sequential candidate
            // scan of the stored rows, a page at a time (see [`PageScan`]).
            // `rows_considered` counts only boundaries computed and rows
            // actually examined.
            let p = Phase::start(db, "query.scan");
            let generated = run.search(sealed, region, &mut out)?;
            let mut scan = PageScan::default();
            for (i, table) in tables.iter().enumerate() {
                scan.scan(table, i + 1, region, &mut out)?;
            }
            let rows = generated.boundaries + scan.rows;
            stats.rows_considered += rows;
            generated.record(&p.span);
            stats.generated = generated;
            scan.record(&p.span);
            phases.push(p.finish(rows, out.len() as u64));
        }
        QueryPlan::Index => {
            // Phase: the sealed run generated, then index probes of the
            // stored rows: one B+tree range scan per tree, with the
            // ε-shifted corner/edge predicate applied to each entry as one
            // branch-free expression (`|` of the lane predicates the scan's
            // kernels are made of: which entries hit is not predictable,
            // what they cost should not depend on it). Matching row ids
            // are unioned with sort + dedup (not a hash set), so the
            // candidate order — and everything downstream — is
            // deterministic.
            let p = Phase::start(db, "query.probe");
            let generated = run.search(sealed, region, &mut out)?;
            let mut probed = 0u64;
            let mut all_rids: Vec<(usize, Vec<u64>)> = Vec::with_capacity(3);
            // Appends `rid`, then keeps it only on a hit: whether an entry
            // hits is the one thing here a branch predictor cannot learn.
            let keep_if = |rids: &mut Vec<u64>, rid: u64, hit: bool| {
                let kept = rids.len() + usize::from(hit);
                rids.push(rid);
                rids.truncate(kept);
            };
            for (i, table) in tables.iter().enumerate() {
                let corners = i + 1;
                let mut rids: Vec<u64> = Vec::new();
                // When the table's whole-heap zone summary cannot
                // intersect the region, skip all of its B+tree probes. The
                // summary bounds every stored row, so the skip is lossless.
                if table.prune_whole_segment(|mins, maxs| {
                    zone_may_intersect(corners, mins, maxs, region)
                }) {
                    all_rids.push((corners, rids));
                    continue;
                }
                if corners == 1 {
                    // Degenerate single-corner boundary: a point query on
                    // the lone corner.
                    let pt_lo = [f64::NEG_INFINITY, f64::NEG_INFINITY];
                    let pt_hi = [region.t, f64::INFINITY];
                    let (pt1, _) = index_specs(1)[0];
                    table.index_scan(pt1, &pt_lo, &pt_hi, |rid, cols| {
                        probed += 1;
                        keep_if(&mut rids, rid, point_hits(cols[0], cols[1], region));
                        true
                    })?;
                } else {
                    // Multi-corner boundaries need no separate point
                    // probes: each ln{j} entry stores both endpoints of
                    // edge (j, j+1), so one scan per edge tree evaluates
                    // corner j+1's membership (corner 1 rides along on
                    // ln1) and the edge-crossing test together. Coverage
                    // is complete because corners ascend in Δt
                    // (`featurespace::Boundary`): a corner inside the
                    // region or an edge entering it forces the leading
                    // key dt_j ≤ t of some edge entry, which the range
                    // below scans.
                    let ln_lo = [f64::NEG_INFINITY; 4];
                    let ln_hi = [region.t, f64::INFINITY, f64::INFINITY, f64::INFINITY];
                    for (edge, &(ln, _)) in index_specs(corners).iter().enumerate() {
                        let first = edge == 0;
                        table.index_scan(ln, &ln_lo, &ln_hi, |rid, cols| {
                            probed += 1;
                            let (dt1, dv1, dt2, dv2) = (cols[0], cols[1], cols[2], cols[3]);
                            let hit = (first & point_hits(dt1, dv1, region))
                                | point_hits(dt2, dv2, region)
                                | edge_hits(dt1, dv1, dt2, dv2, region);
                            keep_if(&mut rids, rid, hit);
                            true
                        })?;
                    }
                }
                rids.sort_unstable();
                rids.dedup();
                all_rids.push((corners, rids));
            }
            let rows = generated.boundaries + probed;
            stats.rows_considered += rows;
            let n_rids: u64 = all_rids.iter().map(|(_, r)| r.len() as u64).sum();
            let generated_hits = out.len() as u64;
            generated.record(&p.span);
            stats.generated = generated;
            phases.push(p.finish(rows, n_rids + generated_hits));

            // Phase: fetch the matched heap rows. The ids are sorted
            // (page-major), so the batched fetch reads each heap page
            // once instead of once per row, and a result tuple is the
            // four time stamps, so only those columns are decoded: the
            // corner coordinates did their work in the probe.
            let p = Phase::start(db, "query.fetch");
            for (corners, rids) in &all_rids {
                let table = &tables[*corners - 1];
                table.fetch_many_cols(rids, stamp_cols(*corners), |_, stamps| {
                    out.push(pair_from_stamps(stamps));
                    true
                })?;
            }
            phases.push(p.finish(n_rids, out.len() as u64 - generated_hits));
        }
    }

    phases.push(refine_phase(db, &mut out));
    Ok(out)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ingest::{in_window, pair_row};
    use crate::result::canonical_order;
    use crate::tables::table_name;
    use crate::{SegDiffConfig, SegDiffIndex};
    use proptest::prelude::*;
    use sensorgen::{TimeSeries, HOUR};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "segdiff-qprop-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Zone-map pruning is lossless and all plans agree: for a random
        /// series and a random (V, T) region, the pruned sequential scan
        /// and the index plan over the stored rows return the vector the
        /// generator returns (same pairs, same order), which reads no
        /// feature heap's summary, and it misses no true event of the
        /// series (`oracle`, Theorem 1).
        #[test]
        fn pruned_scan_equals_unpruned_scan_equals_index(
            steps in prop::collection::vec(-1.2f64..1.2, 60..250),
            t_frac in 0.05f64..1.0,
            v_mag in 0.05f64..4.0,
            is_drop in any::<bool>(),
        ) {
            let mut series = TimeSeries::new();
            let mut val = 10.0;
            for (i, s) in steps.iter().enumerate() {
                val += s;
                series.push(i as f64 * 300.0, val);
            }
            let dir = tmpdir();
            let mut idx = SegDiffIndex::create(
                &dir,
                SegDiffConfig::default().with_durable(false),
            ).unwrap();
            idx.ingest_series(&series).unwrap();
            idx.finish().unwrap();
            idx.build_indexes().unwrap();
            let region = if is_drop {
                QueryRegion::drop(t_frac * 8.0 * HOUR, -v_mag)
            } else {
                QueryRegion::jump(t_frac * 8.0 * HOUR, v_mag)
            };
            let stored = |plan| idx.query_stored_rows(&region, plan).unwrap().0;
            let (pruned, indexed) = (stored(QueryPlan::SeqScan), stored(QueryPlan::Index));
            for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
                let (generated, _) = idx.query(&region, plan).unwrap();
                prop_assert_eq!(&pruned, &generated, "{:?} generated otherwise", plan);
            }
            prop_assert_eq!(&pruned, &indexed, "index plan disagrees with scan");
            let events = crate::oracle::true_events(&series, &region);
            let missed = crate::oracle::find_missed_event(&events, &pruned);
            prop_assert!(missed.is_none(), "pruning lost {:?}", missed);
            // Rewrite the heaps into compressed columnar pages: both
            // plans must keep answering bit-identically to the raw
            // format they replaced.
            idx.compact_storage().unwrap();
            let stored = |plan| idx.query_stored_rows(&region, plan).unwrap().0;
            let (col_scan, col_index) = (stored(QueryPlan::SeqScan), stored(QueryPlan::Index));
            prop_assert_eq!(&pruned, &col_scan, "columnar scan diverged");
            prop_assert_eq!(&pruned, &col_index, "columnar index diverged");
            // The series again, a day later, behind the sealed rows: the
            // index plan reads those through their zones and the new ones
            // through the trees, and must miss and repeat nothing.
            let (end, _) = series.iter().last().expect("a sample");
            for (t, v) in series.iter() {
                idx.push(end + 300.0 + t, v).unwrap();
            }
            idx.finish().unwrap();
            let stored = |plan| idx.query_stored_rows(&region, plan).unwrap().0;
            let (grown_scan, grown_index) = (stored(QueryPlan::SeqScan), stored(QueryPlan::Index));
            prop_assert!(grown_scan.len() >= pruned.len());
            prop_assert_eq!(&grown_scan, &grown_index, "plans diverged behind the seal");
            for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
                let (generated, _) = idx.query(&region, plan).unwrap();
                prop_assert_eq!(&grown_scan, &generated, "{:?} behind the seal", plan);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The generator walks exactly the pairs ingest extracts within `T`
        /// and hands `refine` its answer already in `sort_dedup`'s order:
        /// for a random series, either kind and `T` up to the window (a
        /// quarter of the cases at `T = w`, where windowed `cd`s are
        /// truncated), its output is sorted and is the sorted brute-force
        /// answer over every pair of segments, and its counts are the
        /// brute-force counts — every `(cd, ab)` with the gap within `T` and
        /// something of `cd` in the window, plus the self pairs, and of
        /// those the ones whose endpoint values can reach `V`.
        #[test]
        fn the_generator_emits_in_answer_order_and_counts_every_pair(
            steps in prop::collection::vec(-1.2f64..1.2, 40..400),
            t_frac in 0.02f64..1.3,
            v_mag in 0.05f64..4.0,
            is_drop in any::<bool>(),
        ) {
            let mut series = TimeSeries::new();
            let mut val = 10.0;
            for (i, s) in steps.iter().enumerate() {
                val += s;
                series.push(i as f64 * 300.0, val);
            }
            let config = SegDiffConfig::default();
            let (epsilon, window) = (config.epsilon, config.window);
            let run = segmentation::segment_series(&series, epsilon).segments().to_vec();
            let t = t_frac.min(1.0) * window;
            let region = if is_drop {
                QueryRegion::drop(t, -v_mag)
            } else {
                QueryRegion::jump(t, v_mag)
            };
            let mut after = f64::NEG_INFINITY;
            let held: Vec<HeldSegment> = run
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let ends = [s.t_start, s.v_start, s.t_end, s.v_end];
                    let held = HeldSegment::check(i as u64, ends, after).unwrap();
                    after = s.t_end;
                    held
                })
                .collect();
            let mut got = Vec::new();
            let counts = generate(&held, &region, epsilon, window, &mut got);
            prop_assert!(got.is_sorted_by(|a, b| canonical_order(a, b).is_le()));

            let mut want = GeneratorStats {
                segments_read: run.len() as u64,
                ..GeneratorStats::default()
            };
            let mut answer = Vec::new();
            let range = |s: &Segment| (s.min_value(), s.max_value());
            for (i, ab) in run.iter().enumerate() {
                for cd in run[..i].iter().map(Some).chain([None]) {
                    // Every earlier segment, with no early stop.
                    let cd = match cd {
                        None => None,
                        Some(cd) if ab.t_start - cd.t_end <= t => match in_window(cd, ab, window) {
                            None => continue,
                            windowed => windowed,
                        },
                        Some(_) => continue,
                    };
                    want.pairs_within_t += 1;
                    if !may_reach(&region, range(ab), range(cd.as_ref().unwrap_or(ab)), epsilon) {
                        continue;
                    }
                    want.boundaries += 1;
                    let row = pair_row(cd.as_ref(), ab, epsilon, region.kind);
                    if let Some(row) = row.filter(|row| row.boundary.intersects(&region)) {
                        answer.push(pair_from_stamps(&[row.t_d, row.t_c, row.t_b, row.t_a]));
                    }
                }
            }
            prop_assert_eq!(counts, want);
            crate::result::sort_dedup(&mut answer);
            prop_assert_eq!(got, answer);
        }
    }

    /// Every corner the row store holds, exactly: `(kind, Δt, Δv)`.
    fn stored_corners(idx: &SegDiffIndex) -> Vec<(SearchKind, f64, f64)> {
        let mut corners = Vec::new();
        for kind in [SearchKind::Drop, SearchKind::Jump] {
            for c in 1..=3 {
                let table = idx.database().table(table_name(kind, c)).unwrap();
                table
                    .seq_scan(|_, row| {
                        corners.extend((0..c).map(|j| (kind, row[2 * j], row[2 * j + 1])));
                        true
                    })
                    .unwrap();
            }
        }
        corners
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The view store answers as the row store: one random series into
        /// two stores, the second compacted at two random points (compact,
        /// ingest more, compact, ingest the rest), then searched on random
        /// regions and on regions drawn on a stored boundary corner — `V`
        /// on its exact `Δv`, `T` on its `Δt`. Both plans on the view store
        /// return exactly what the never-compacted store returns, bit for
        /// bit.
        #[test]
        fn the_view_store_answers_as_the_row_store(
            steps in prop::collection::vec(-1.2f64..1.2, 80..260),
            at in (0.1f64..0.6, 0.6f64..1.0),
            picks in prop::collection::vec(any::<u64>(), 3..6),
            random in prop::collection::vec((0.02f64..1.0, 0.05f64..4.0, any::<bool>()), 2..4),
        ) {
            let mut series = TimeSeries::new();
            let mut val = 10.0;
            for (i, s) in steps.iter().enumerate() {
                val += s;
                series.push(i as f64 * 300.0, val);
            }
            let config = SegDiffConfig::default().with_durable(false);
            let (rows_dir, view_dir) = (tmpdir(), tmpdir());
            let mut rows = SegDiffIndex::create(&rows_dir, config.clone()).unwrap();
            let mut view = SegDiffIndex::create(&view_dir, config).unwrap();
            rows.build_indexes().unwrap();
            view.build_indexes().unwrap();
            let n = series.len() as f64;
            let (first, second) = ((at.0 * n) as usize, (at.1 * n) as usize);
            for (k, (t, v)) in series.iter().enumerate() {
                if k == first || k == second {
                    view.compact_storage().unwrap();
                }
                rows.push(t, v).unwrap();
                view.push(t, v).unwrap();
            }
            rows.finish().unwrap();
            view.finish().unwrap();
            let window = rows.config().window;
            let mut regions: Vec<QueryRegion> = random
                .iter()
                .map(|&(t, v, drop)| match drop {
                    true => QueryRegion::drop(t * window, -v),
                    false => QueryRegion::jump(t * window, v),
                })
                .collect();
            let corners = stored_corners(&rows);
            prop_assume!(!corners.is_empty());
            for pick in &picks {
                let (kind, t, v) = corners[(pick % corners.len() as u64) as usize];
                let region = QueryRegion::new(kind, t, v).ok();
                regions.extend(region.filter(|r| r.t <= window));
            }
            for region in &regions {
                let (want, _) = rows.query_stored_rows(region, QueryPlan::SeqScan).unwrap();
                for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
                    let (got, _) = view.query(region, plan).unwrap();
                    prop_assert_eq!(&got, &want, "{:?} on {:?}", plan, region);
                }
            }
            view.verify_consistency().unwrap();
            std::fs::remove_dir_all(&rows_dir).ok();
            std::fs::remove_dir_all(&view_dir).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SegDiffConfig, SegDiffIndex};
    use sensorgen::{TimeSeries, HOUR};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-qry-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn zigzag_series() -> TimeSeries {
        let mut s = TimeSeries::new();
        for i in 0..600 {
            let t = i as f64 * 300.0;
            let v = (i % 16) as f64 * 0.5 - ((i / 37) % 5) as f64;
            s.push(t, v);
        }
        s
    }

    /// Repeated executions of both plans return byte-identical result
    /// vectors — ordering included. The index plan unions candidate row
    /// ids with sort + dedup (no hash-set iteration order anywhere), so
    /// this holds by construction; the test pins it.
    #[test]
    fn results_are_deterministic_across_runs_and_plans() {
        let dir = tmpdir("determinism");
        let mut idx =
            SegDiffIndex::create(&dir, SegDiffConfig::default().with_durable(false)).unwrap();
        idx.ingest_series(&zigzag_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        let region = QueryRegion::drop(2.0 * HOUR, -1.5);
        let (first, _) = idx.query(&region, QueryPlan::Index).unwrap();
        assert!(!first.is_empty(), "query must match something");
        for _ in 0..5 {
            let (scan, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
            let (indexed, _) = idx.query(&region, QueryPlan::Index).unwrap();
            assert_eq!(first, scan, "seq scan order drifted");
            assert_eq!(first, indexed, "index order drifted");
        }
        // Results come out time-ordered (sort_dedup's contract).
        for w in first.windows(2) {
            assert!(w[0].t_d <= w[1].t_d, "results not time-ordered: {w:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `rows_decoded` counts the `segments` rows a search decoded into the
    /// resident run: every row on the first search, the rows appended since
    /// the last search on the next, none on a search after it — and none
    /// after a compaction, which rewrites `segments` bit for bit.
    #[test]
    fn a_search_decodes_only_the_rows_appended_since_the_last() {
        let dir = tmpdir("decoded");
        let mut idx =
            SegDiffIndex::create(&dir, SegDiffConfig::default().with_durable(false)).unwrap();
        let region = QueryRegion::drop(2.0 * HOUR, -1.5);
        let decoded = |idx: &SegDiffIndex, plan| {
            let (_, stats) = idx.query(&region, plan).unwrap();
            stats.generated.rows_decoded
        };
        let seen = std::cell::Cell::new(0);
        let searched = |idx: &SegDiffIndex| {
            let rows = idx.stats().n_segments;
            assert_eq!(decoded(idx, QueryPlan::SeqScan), rows - seen.get());
            assert_eq!(decoded(idx, QueryPlan::Index), 0);
            seen.set(rows);
        };
        for (k, (t, v)) in zigzag_series().iter().enumerate() {
            idx.push(t, v).unwrap();
            if k % 97 == 96 {
                searched(&idx);
            }
        }
        idx.finish().unwrap();
        searched(&idx);
        idx.compact_storage().unwrap();
        assert_eq!(idx.stats().sealed_segments, seen.get());
        searched(&idx);
        assert_eq!(decoded(&idx, QueryPlan::SeqScan), 0, "after the compaction");
        let end = 600.0 * 300.0;
        for i in 0..200 {
            idx.push(end + i as f64 * 300.0, (i % 11) as f64 * 0.7)
                .unwrap();
        }
        let appended = idx.stats().n_segments - seen.get();
        assert!(appended > 0);
        assert_eq!(decoded(&idx, QueryPlan::Index), appended);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `segments` row that starts before the row before it ends — what a
    /// corrupt heap leaves — is `Corrupt` on both plans, searched again
    /// too, and not a panic in the generator.
    #[test]
    fn an_out_of_order_segments_row_is_corrupt_on_both_plans() {
        let dir = tmpdir("out-of-order");
        let mut idx =
            SegDiffIndex::create(&dir, SegDiffConfig::default().with_durable(false)).unwrap();
        idx.ingest_series(&zigzag_series()).unwrap();
        idx.finish().unwrap();
        let rows = idx.stats().n_segments;
        let segments = idx.database().table("segments").unwrap();
        segments.insert(&[100.0, 0.0, 200.0, -5.0]).unwrap();
        let region = QueryRegion::drop(2.0 * HOUR, -1.5);
        for plan in [QueryPlan::SeqScan, QueryPlan::Index, QueryPlan::SeqScan] {
            match idx.query(&region, plan) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("segments row {rows} ")), "{msg}");
                }
                other => panic!("{plan:?} answered {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The decode check refuses every row that is no segment or that
    /// starts before `after`, and holds the slope of the rest.
    #[test]
    fn the_decode_check_refuses_what_is_no_segment() {
        let after = 10.0;
        for ends in [
            [5.0, 0.0, 20.0, 1.0],
            [10.0, 0.0, 10.0, 1.0],
            [12.0, 0.0, 11.0, 1.0],
            [10.0, f64::NAN, 20.0, 1.0],
            [10.0, 0.0, f64::INFINITY, 1.0],
            [f64::NEG_INFINITY, 0.0, 20.0, 1.0],
        ] {
            assert!(
                matches!(
                    HeldSegment::check(7, ends, after),
                    Err(StoreError::Corrupt(_))
                ),
                "{ends:?}"
            );
        }
        let held = HeldSegment::check(7, [10.0, 1.0, 20.0, -2.0], after).unwrap();
        assert_eq!(held.slope.to_bits(), held.seg.slope().to_bits());
    }

    #[test]
    fn plans_are_comparable() {
        assert_ne!(QueryPlan::SeqScan, QueryPlan::Index);
    }

    #[test]
    fn stats_default_zeroed() {
        let s = QueryStats::default();
        assert_eq!(s.rows_considered, 0);
        assert_eq!(s.results, 0);
        assert_eq!(s.wall_seconds, 0.0);
        assert!(s.phases.is_empty());
    }

    #[test]
    fn plan_names_are_stable() {
        assert_eq!(QueryPlan::SeqScan.name(), "seq_scan");
        assert_eq!(QueryPlan::Index.name(), "index");
    }
}
