//! Rule L7: no blocking call while any lock guard is live.
//!
//! A blocking syscall under a mutex turns every waiter on that mutex
//! into a waiter on the disk (or the network, or a timer) — the exact
//! latency coupling short critical sections exist to avoid. The rule
//! fires on a fixed table of blocking operations (file I/O, fsync,
//! socket ops, sleeps, channel receives, thread joins) whenever the
//! shared guard-lifetime walk ([`crate::flow`]) says *any* guard is
//! live — classified or anonymous; an unranked mutex blocks its
//! waiters just the same.
//!
//! File I/O is named by the one seam every byte of a store goes through
//! (`pagestore::vfs`) and by the pagestore calls that reach it, so the
//! table follows the seam rather than the standard library.
//!
//! Some sites are blocking-under-lock *by design*: the WAL serializes
//! appends and fsyncs under its writer lock, and the buffer pool writes
//! pages under the per-file latch. Those are blessed in the
//! `[[allow_blocking]]` table of `ci/lock-order.toml` — each entry
//! carries a reason and is audited like an inline suppression: an
//! entry that stops matching anything is reported dead by L0.

use crate::config::LockOrder;
use crate::context::FileCtx;
use crate::diag::{Diagnostic, Rule};
use crate::flow::{self, CallForm, Guard, Site};

/// The blocking-operation table. Names are matched on method calls
/// (`recv.op(…)`) and path calls (`Prefix::op(…)`); bare calls are not
/// matched (a local `fn flush()` is not `File::flush`). Condvar waits
/// are deliberately absent: `wait`/`wait_timeout` release the mutex.
pub const BLOCKING_OPS: &[&str] = &[
    // File I/O: the `Vfs` seam's calls (`open`, `create`, `list` and `len`
    // share their names with too much to be told apart lexically) ...
    "read_at",
    "write_at",
    "set_len",
    "sync",
    "rename",
    "remove_file",
    "sync_dir",
    "create_dir_all",
    "write_atomic",
    // ... and the pagestore calls that reach them.
    "read_page",
    "write_page",
    "append_images",
    "mark_unclean",
    // Sockets.
    "accept",
    "connect",
    "recv",
    "send",
    "peek",
    "recv_timeout",
    // Timers and threads. `join` is deliberately absent: every `join`
    // in this workspace is `Path::join`, and a lexical table cannot
    // tell it from `JoinHandle::join`.
    "sleep",
    "park",
];

/// The result of one file's L7 pass: diagnostics plus which allowlist
/// entries matched (indices into `order.allow_blocking`), so the L0
/// audit can flag entries that no longer cover anything.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Unfiltered findings.
    pub diags: Vec<Diagnostic>,
    /// Allowlist entries that matched at least one site in this file.
    pub used_allowlist: Vec<usize>,
}

/// Runs L7 over one file. Diagnostics are unfiltered; the caller
/// applies the suppression index.
pub fn check(ctx: &FileCtx, order: &LockOrder) -> Outcome {
    if ctx.test_file {
        return Outcome::default();
    }
    let mut sink = L7Sink {
        ctx,
        order,
        out: Outcome::default(),
    };
    flow::walk_file(ctx, order, &mut sink);
    sink.out
}

struct L7Sink<'a, 's> {
    ctx: &'a FileCtx<'s>,
    order: &'a LockOrder,
    out: Outcome,
}

impl flow::Sink for L7Sink<'_, '_> {
    fn call(
        &mut self,
        site: Site,
        name: &str,
        form: CallForm,
        _qualifier: Option<&str>,
        held: &[Guard],
    ) {
        if held.is_empty()
            || form == CallForm::Bare
            || !BLOCKING_OPS.contains(&name)
            || self.ctx.in_test(site.line)
        {
            return;
        }
        if let Some(idx) = self.order.blocking_allowed(&self.ctx.path, name) {
            self.out.used_allowlist.push(idx);
            return;
        }
        let held_desc: Vec<&str> = held.iter().map(|g| g.describe()).collect();
        self.out.diags.push(
            self.ctx.diag(
                Rule::L7,
                site.line,
                site.col,
                format!(
                    "blocking call `{}` while holding {} (guard{} live since line {})",
                    name,
                    held_desc
                        .iter()
                        .map(|h| format!("`{h}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    if held.len() == 1 { "" } else { "s" },
                    held[0].line,
                ),
                "move the I/O outside the critical section, add an `[[allow_blocking]]` entry \
             in ci/lock-order.toml with a reason, or justify with `// lint: allow(L7) <reason>`"
                    .to_string(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockOrder;
    use crate::context::SuppressionIndex;

    const ORDER: &str = r#"
order = ["pool.frames"]

[[class]]
name = "pool.frames"
paths = ["*.frames"]

[[allow_blocking]]
file = "crates/pagestore/src/wal.rs"
ops = ["write_at", "sync"]
reason = "WAL durability: fsync must serialize under the writer lock"
"#;

    fn run_at(path: &str, src: &str) -> (Vec<Diagnostic>, Vec<usize>) {
        let order = LockOrder::parse(ORDER).unwrap();
        let ctx = FileCtx::new(path, src);
        let mut index = SuppressionIndex::default();
        index.add_file(&ctx);
        let out = check(&ctx, &order);
        (index.filter(out.diags), out.used_allowlist)
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        run_at("crates/pagestore/src/buffer.rs", src).0
    }

    #[test]
    fn fsync_under_classified_guard_fires() {
        let src = "fn f(&self) {\n let mut s = self.frames.lock();\n file.sync();\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message
                .contains("blocking call `sync` while holding `pool.frames`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn seam_write_under_frame_guard_fires() {
        let src =
            "fn f(&self) {\n let mut s = self.frames.lock();\n file.write_at(&buf, off);\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message
                .contains("blocking call `write_at` while holding `pool.frames`"),
            "{}",
            d[0].message
        );
        // The standard library's name for it is not the seam's.
        let std_src =
            "fn f(&self) {\n let mut s = self.frames.lock();\n file.write_all(&buf);\n}\n";
        assert!(run(std_src).is_empty());
    }

    #[test]
    fn anonymous_guard_counts() {
        // An unclassified mutex still blocks its waiters.
        let src = "fn f(&self) {\n let g = self.states.lock();\n std::thread::sleep(d);\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`self.states`"), "{}", d[0].message);
    }

    #[test]
    fn no_guard_no_finding() {
        let src = "fn f(&self) {\n file.sync();\n std::thread::sleep(d);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn bare_calls_are_not_blocking() {
        // A local `fn flush()` shares a name with io::Write::flush;
        // only method/path forms match the table.
        let src = "fn f(&self) {\n let mut s = self.frames.lock();\n flush();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_is_fine() {
        let src = "fn f(&self) {\n let g = self.states.lock();\n let g = cv.wait(g);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allowlist_matches_and_is_tracked() {
        let src =
            "fn append(&self) {\n let mut inner = self.inner.lock();\n f.write_at(&buf, 0);\n f.sync();\n}\n";
        let (d, used) = run_at("crates/pagestore/src/wal.rs", src);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(used, vec![0, 0]);
    }

    #[test]
    fn allowlist_is_per_file_and_per_op() {
        // Same ops in a different file are not covered.
        let src = "fn f(&self) {\n let mut s = self.frames.lock();\n f.write_at(&buf, 0);\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn suppression_honored() {
        let src = "fn f(&self) {\n let mut s = self.frames.lock();\n file.sync(); // lint: allow(L7) shutdown path, no concurrent readers\n}\n";
        assert!(run(src).is_empty());
    }
}
