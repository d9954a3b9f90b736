//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`; the layer is the part of the
//! name before the first dot. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. A span's *self
//! time* is its duration minus the part its children cover, so for every
//! op class the layers' self times plus the root's own self time (the
//! unattributed remainder) add up to the op time by construction.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// One row of the tiling table: a span name within an op class. The
/// class's own row (the root span) is what no layer span covers.
pub struct LayerRow {
    pub class: &'static str,
    pub name: &'static str,
    pub calls: u64,
    pub self_ms: f64,
    /// Share of the class's total op time.
    pub share: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for op `op`; `class` names the op class
    /// (`op.query`, `op.ingest_batch`, …).
    pub fn begin_op(&mut self, class: &'static str, op: usize) {
        self.op = op as u32;
        self.open.clear();
        self.enter(class);
    }

    pub fn end_op(&mut self) {
        self.exit();
        debug_assert!(self.open.is_empty());
    }

    /// Total duration (ms) of the root spans of `class`.
    pub fn class_total_ms(&self, class: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == class)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum::<u64>() as f64
            / 1e6
    }

    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its id.
    pub fn exit(&mut self) -> u32 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = end_ns;
        id
    }

    /// Records children of the closed span `parent` from durations a layer
    /// reported itself (`QueryStats.phases`), laid end to end from the
    /// parent's start and clipped to its end, so self times still tile.
    pub fn reported_children(&mut self, parent: u32, parts: &[(&'static str, f64)]) {
        let (mut at, end, op) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.op)
        };
        for &(name, seconds) in parts {
            let child_end = (at + (seconds * 1e9) as u64).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: child_end,
                parent,
                op,
            });
            at = child_end;
        }
    }

    /// Spans one call: `enter`, run `f`, `exit`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let d = s.end_ns.saturating_sub(s.start_ns);
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(d);
            }
        }
        own
    }

    /// Per op class and span name: calls, self time and share of the
    /// class's op time. Rows of one class sum to its op time exactly.
    pub fn tiling(&self) -> Vec<LayerRow> {
        let own = self.self_ns();
        // Root of each span, by walking parents (parents precede children).
        let mut root = vec![0u32; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = if s.parent == NO_PARENT {
                i as u32
            } else {
                root[s.parent as usize]
            };
        }
        let mut class_total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut rows: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let class = self.spans[root[i] as usize].name;
            if s.parent == NO_PARENT {
                *class_total.entry(class).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
            let row = rows.entry((class, s.name)).or_default();
            row.0 += 1;
            row.1 += own[i];
        }
        rows.into_iter()
            .map(|((class, name), (calls, self_ns))| LayerRow {
                class,
                name,
                calls,
                self_ms: self_ns as f64 / 1e6,
                share: self_ns as f64 / class_total[class].max(1) as f64,
            })
            .collect()
    }

    /// Share of `class`'s op time that no span below `under` accounts for:
    /// the self time of the root and of `under` itself.
    pub fn unattributed_ratio(&self, class: &str, under: &str) -> f64 {
        self.tiling()
            .iter()
            .filter(|r| r.class == class && (r.name == class || r.name == under))
            .map(|r| r.share)
            .sum()
    }

    /// Total self time (ms) and calls of span `name` within `class`.
    pub fn self_time(&self, class: &str, name: &str) -> (f64, u64) {
        self.tiling()
            .iter()
            .find(|r| r.class == class && r.name == name)
            .map_or((0.0, 0), |r| (r.self_ms, r.calls))
    }

    pub fn print_tiling(&self, workload: &str) {
        println!("tiling {workload}: op class / span (its own row = unattributed) / calls / self ms / share of op time");
        for r in self.tiling() {
            println!(
                "  {:<18} {:<28} {:>8} {:>12.3} {:>7.4}",
                r.class, r.name, r.calls, r.self_ms, r.share
            );
        }
    }

    /// Writes every span as one JSON array of
    /// `[name, start_ns, end_ns, parent, op]` rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "[\"{}\",{},{},{},{}]{comma}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
