//! Rule L6: the partial order of `ci/lock-order.toml` holds across
//! intra-crate calls.
//!
//! L3 proves each function's *own* acquisitions are ordered; L6 closes
//! the composition gap: a helper that acquires `pool.frames` is fine in
//! isolation and its caller holding `wal` is fine in isolation, but the
//! composed path acquires `pool.frames` *under* `wal` — an inversion no
//! single-function pass can see. The check consumes the bounded-depth
//! summaries of [`crate::callgraph`]: at every call site where the
//! caller holds classified guards, every class the (resolved) callee
//! transitively acquires must rank at or above every held class, and a
//! non-reentrant held class must not be re-acquired at all.
//!
//! The diagnostic carries the whole chain — caller site, the call path
//! (`via a → b`), and the ultimate acquisition site — so the report
//! reads like a deadlock backtrace rather than a single line number.

use crate::callgraph::{Acquisition, CallGraph};
use crate::diag::{Diagnostic, Rule};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Runs L6 over the assembled graph. Diagnostics are unfiltered; the
/// caller applies the suppression index.
pub fn check(graph: &CallGraph) -> Vec<Diagnostic> {
    let summaries = graph.summaries();
    let mut out = Vec::new();
    // (file, line, held class, acquired class) — one report per
    // composed pair even when several guards or rounds repeat it.
    let mut seen: BTreeSet<(String, u32, String, String)> = BTreeSet::new();
    for f in &graph.fns {
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(target) = graph.resolve(f, call) else {
                continue;
            };
            let callee = &graph.fns[target];
            let summary: &BTreeMap<String, Acquisition> = &summaries[target];
            for (held_class, held_line) in &call.held {
                for acq in summary.values() {
                    let bad_order = held_class.rank > acq.class.rank;
                    let double = held_class.name == acq.class.name && !acq.class.reentrant;
                    if !(bad_order || double) {
                        continue;
                    }
                    let key = (
                        f.file.clone(),
                        call.line,
                        held_class.name.clone(),
                        acq.class.name.clone(),
                    );
                    if !seen.insert(key) {
                        continue;
                    }
                    let mut chain = vec![callee.name.clone()];
                    chain.extend(acq.via.iter().cloned());
                    let what = if bad_order {
                        format!(
                            "call to `{}` acquires `{}` (at {}:{}, via {}) while holding `{}` (acquired line {}) — declared order: {} before {}",
                            callee.name,
                            acq.class.name,
                            acq.file,
                            acq.line,
                            chain.join(" -> "),
                            held_class.name,
                            held_line,
                            acq.class.name,
                            held_class.name,
                        )
                    } else {
                        format!(
                            "call to `{}` re-acquires `{}` (at {}:{}, via {}) already held since line {} — composed self-deadlock",
                            callee.name,
                            acq.class.name,
                            acq.file,
                            acq.line,
                            chain.join(" -> "),
                            held_line,
                        )
                    };
                    out.push(Diagnostic {
                        rule: Rule::L6,
                        file: f.file.clone(),
                        line: call.line,
                        col: call.col,
                        message: what,
                        help: "hoist the inner acquisition above the caller's guard, pass the \
                               needed data in, or justify with `// lint: allow(L6) <reason>`"
                            .to_string(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::config::LockOrder;
    use crate::context::{FileCtx, SuppressionIndex};

    const ORDER: &str = r#"
order = ["shard", "wal"]

[[class]]
name = "shard"
paths = ["*.shards[]"]

[[class]]
name = "wal"
paths = ["*.inner"]
"#;

    fn run(src: &str) -> Vec<Diagnostic> {
        let order = LockOrder::parse(ORDER).unwrap();
        let ctx = FileCtx::new("crates/pagestore/src/buffer.rs", src);
        let mut graph = CallGraph::default();
        graph.add_file(&ctx, &order);
        let mut index = SuppressionIndex::default();
        index.add_file(&ctx);
        index.filter(check(&graph))
    }

    // The ISSUE's mandated shape: the helper acquires `shard` while its
    // caller already holds `wal` — neither function is wrong alone.
    const INVERTED: &str = r#"
impl Pool {
    fn commit(&self) {
        let mut wal = self.inner.lock();
        self.flush_dirty(&mut wal);
    }
    fn flush_dirty(&self, wal: &mut WalInner) {
        let mut shard = self.shards[si].lock();
        shard.clear();
    }
}
"#;

    #[test]
    fn helper_composed_inversion_fires_with_chain() {
        let d = run(INVERTED);
        assert_eq!(d.len(), 1);
        let m = &d[0].message;
        assert!(m.contains("call to `flush_dirty` acquires `shard`"), "{m}");
        assert!(m.contains("while holding `wal`"), "{m}");
        assert!(
            m.contains("crates/pagestore/src/buffer.rs:8"),
            "acquisition site in chain: {m}"
        );
        assert!(m.contains("via flush_dirty"), "{m}");
        assert_eq!(d[0].line, 5, "reported at the caller's call site");
    }

    #[test]
    fn two_level_chain_is_spelled_out() {
        let src = r#"
impl Pool {
    fn commit(&self) {
        let mut wal = self.inner.lock();
        self.outer_helper();
    }
    fn outer_helper(&self) {
        self.inner_helper();
    }
    fn inner_helper(&self) {
        let mut shard = self.shards[si].lock();
    }
}
"#;
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("via outer_helper -> inner_helper"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn legal_composition_passes() {
        // Caller holds shard (rank 0), helper acquires wal (rank 1):
        // that is the declared order.
        let src = r#"
impl Pool {
    fn flush(&self) {
        let mut shard = self.shards[si].lock();
        self.log(&mut shard);
    }
    fn log(&self, s: &mut Shard) {
        let mut wal = self.inner.lock();
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn composed_double_lock_fires() {
        let src = r#"
impl Pool {
    fn flush(&self) {
        let mut wal = self.inner.lock();
        self.sync_tail();
    }
    fn sync_tail(&self) {
        let mut wal = self.inner.lock();
    }
}
"#;
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("composed self-deadlock"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn unresolvable_call_is_silent() {
        // Two impls define `helper`: ambiguous, no edge, no finding.
        let src = r#"
impl Pool {
    fn commit(&self) {
        let mut wal = self.inner.lock();
        helper();
    }
}
impl A { fn helper(&self) { let s = self.shards[i].lock(); } }
impl B { fn helper(&self) {} }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn suppression_honored_at_call_site() {
        let src = r#"
impl Pool {
    fn commit(&self) {
        let mut wal = self.inner.lock();
        self.flush_dirty(&mut wal); // lint: allow(L6) startup path, single-threaded
    }
    fn flush_dirty(&self, wal: &mut WalInner) {
        let mut shard = self.shards[si].lock();
    }
}
"#;
        assert!(run(src).is_empty());
    }
}
