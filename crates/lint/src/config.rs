//! Lint configuration: the paths the rules read and the lock-order
//! declaration loaded from `ci/lock-order.toml`.

use crate::toml;

/// Workspace-relative path of the lock-order declaration.
pub const LOCK_ORDER_PATH: &str = "ci/lock-order.toml";

/// Workspace-relative path of the metric registry source.
pub const NAMES_RS_PATH: &str = "crates/obs/src/names.rs";

/// README markers delimiting the generated metrics table.
pub const METRICS_TABLE_BEGIN: &str = "<!-- metrics-table:begin -->";
/// Closing marker.
pub const METRICS_TABLE_END: &str = "<!-- metrics-table:end -->";

/// One lock class: a name, its rank in the global order, and the
/// receiver-path patterns that identify its acquisition sites.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Class name as declared in `order`.
    pub name: String,
    /// Position in the declared order (lower acquires first).
    pub rank: usize,
    /// Receiver-path globs (e.g. `*.frames`, `files[].file`).
    pub paths: Vec<String>,
    /// Path glob limiting which files the mapping applies to
    /// (empty = everywhere).
    pub scope: String,
    /// Whether two *different* instances of this class may nest
    /// (same-path double acquisition is always a violation).
    pub reentrant: bool,
}

/// One `[[allow_blocking]]` entry: a blessed blocking-under-lock site
/// (rule L7). WAL appends and buffer-pool page I/O *must* happen under
/// their guards — that is the design — so they are allowlisted here,
/// with a reason, instead of suppressed inline at every call site.
#[derive(Debug, Clone)]
pub struct AllowBlocking {
    /// File glob the entry covers (e.g. `crates/pagestore/src/wal.rs`).
    pub file: String,
    /// Operation names allowed under a guard in that file.
    pub ops: Vec<String>,
    /// Why this is sound (empty reason is an L0 violation).
    pub reason: String,
    /// Line of the entry in `ci/lock-order.toml` (for L0 reporting).
    pub line: u32,
}

/// The parsed `ci/lock-order.toml`.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// All classes, resolvable by pattern.
    pub classes: Vec<LockClass>,
    /// Blocking-op allowlist for rule L7.
    pub allow_blocking: Vec<AllowBlocking>,
}

impl LockOrder {
    /// Parses the declaration. Every `[[class]]` must appear in
    /// `order`, and vice versa.
    pub fn parse(src: &str) -> Result<LockOrder, String> {
        let doc = toml::parse(src).map_err(|e| e.to_string())?;
        let order: Vec<String> = doc
            .root
            .get("order")
            .and_then(|v| v.as_array())
            .ok_or("missing top-level `order = [...]`")?
            .to_vec();
        let mut classes = Vec::new();
        for entry in doc.arrays.get("class").map(|v| v.as_slice()).unwrap_or(&[]) {
            let name = entry
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or("[[class]] missing `name`")?
                .to_string();
            let rank = order
                .iter()
                .position(|o| *o == name)
                .ok_or_else(|| format!("class `{name}` not listed in `order`"))?;
            let paths = entry
                .get("paths")
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("class `{name}` missing `paths`"))?
                .to_vec();
            let scope = entry
                .get("scope")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string();
            let reentrant = matches!(entry.get("reentrant"), Some(toml::Value::Bool(true)));
            classes.push(LockClass {
                name,
                rank,
                paths,
                scope,
                reentrant,
            });
        }
        for o in &order {
            if !classes.iter().any(|c| c.name == *o) {
                return Err(format!("order lists `{o}` but no [[class]] defines it"));
            }
        }
        // The toml Doc keeps array-of-table order but not line numbers;
        // the nth [[allow_blocking]] table is the nth header line.
        let mut header_lines = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim() == "[[allow_blocking]]")
            .map(|(i, _)| (i + 1) as u32);
        let mut allow_blocking = Vec::new();
        for entry in doc
            .arrays
            .get("allow_blocking")
            .map(|v| v.as_slice())
            .unwrap_or(&[])
        {
            let line = header_lines.next().unwrap_or(0);
            let file = entry
                .get("file")
                .and_then(|v| v.as_str())
                .ok_or("[[allow_blocking]] missing `file`")?
                .to_string();
            let ops = entry
                .get("ops")
                .and_then(|v| v.as_array())
                .ok_or("[[allow_blocking]] missing `ops`")?
                .to_vec();
            let reason = entry
                .get("reason")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string();
            allow_blocking.push(AllowBlocking {
                file,
                ops,
                reason,
                line,
            });
        }
        Ok(LockOrder {
            classes,
            allow_blocking,
        })
    }

    /// The index of the `[[allow_blocking]]` entry covering a blocking
    /// op `op` in `file`, if any (entries with an empty reason do not
    /// count — they are L0 violations, like reason-less suppressions).
    pub fn blocking_allowed(&self, file: &str, op: &str) -> Option<usize> {
        self.allow_blocking.iter().position(|a| {
            !a.reason.is_empty() && glob_match(&a.file, file) && a.ops.iter().any(|o| o == op)
        })
    }

    /// Classifies an acquisition: the first class whose scope covers
    /// `file` and whose patterns match the receiver `path`.
    pub fn classify(&self, file: &str, path: &str) -> Option<&LockClass> {
        self.classes.iter().find(|c| {
            (c.scope.is_empty() || glob_match(&c.scope, file))
                && c.paths.iter().any(|p| glob_match(p, path))
        })
    }
}

/// Wildcard matching: `*` matches any (possibly empty) run of
/// characters. Case-sensitive; no character classes.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some((b'*', rest)) => (0..=t.len()).any(|skip| inner(rest, &t[skip..])),
            Some((&c, rest)) => t
                .split_first()
                .is_some_and(|(&tc, tr)| tc == c && inner(rest, tr)),
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
order = ["pool.files", "pool.frames", "pool.file"]

[[class]]
name = "pool.files"
paths = ["*.files"]
scope = "crates/pagestore/*"

[[class]]
name = "pool.frames"
paths = ["*.frames", "s"]
scope = "crates/pagestore/src/buffer.rs"

[[class]]
name = "pool.file"
paths = ["files[].file", "*.file"]
reentrant = false
"#;

    #[test]
    fn parse_and_classify() {
        let lo = LockOrder::parse(SAMPLE).unwrap();
        assert_eq!(lo.classes.len(), 3);
        let c = lo
            .classify("crates/pagestore/src/buffer.rs", "self.frames")
            .unwrap();
        assert_eq!(c.name, "pool.frames");
        assert_eq!(c.rank, 1);
        // Scope excludes other files.
        assert!(lo.classify("crates/server/src/queue.rs", "s").is_none());
        // Unscoped class applies everywhere.
        assert!(lo
            .classify("crates/core/src/index.rs", "files[].file")
            .is_some());
    }

    #[test]
    fn order_and_classes_must_agree() {
        assert!(LockOrder::parse("order = [\"a\"]").is_err());
        let missing_order = "order = []\n[[class]]\nname = \"x\"\npaths = [\"x\"]\n";
        assert!(LockOrder::parse(missing_order).is_err());
    }

    #[test]
    fn allow_blocking_entries() {
        let src = r#"
order = ["wal"]

[[class]]
name = "wal"
paths = ["*.inner"]

[[allow_blocking]]
file = "crates/pagestore/src/wal.rs"
ops = ["write_all", "sync_data"]
reason = "WAL durability requires fsync under the writer lock"

[[allow_blocking]]
file = "crates/pagestore/src/buffer.rs"
ops = ["write_page"]
reason = ""
"#;
        let lo = LockOrder::parse(src).unwrap();
        assert_eq!(lo.allow_blocking.len(), 2);
        assert_eq!(lo.allow_blocking[0].line, 8);
        assert_eq!(
            lo.blocking_allowed("crates/pagestore/src/wal.rs", "sync_data"),
            Some(0)
        );
        assert_eq!(
            lo.blocking_allowed("crates/pagestore/src/wal.rs", "sleep"),
            None
        );
        // Reason-less entries never allow anything.
        assert_eq!(
            lo.blocking_allowed("crates/pagestore/src/buffer.rs", "write_page"),
            None
        );
    }

    #[test]
    fn globbing() {
        assert!(glob_match("*.files", "self.files"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("files[].file", "files[].file"));
        assert!(!glob_match("*.files", "self.file"));
        assert!(glob_match(
            "crates/pagestore/*",
            "crates/pagestore/src/db.rs"
        ));
    }
}
