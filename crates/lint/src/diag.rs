//! Diagnostics: rule identifiers, one finding, and the two output
//! formats (rustc-style text, JSON for CI artifacts).

use std::fmt;

/// The lint rules. `L0` audits the suppression comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Suppression audit: `// lint: allow(…)` must name known rules and
    /// carry a non-empty reason.
    L0,
    /// Lock acquisitions respect the declared partial order.
    L3,
    /// Metric names match the `obs::names` registry (both directions),
    /// and the README table is in sync.
    L4,
    /// Interprocedural lock order: the classes a callee acquires
    /// (transitively, bounded depth) respect the partial order against
    /// the classes the caller holds at the call site.
    L6,
    /// No blocking call (file I/O, fsync, socket ops, sleep, recv)
    /// while any guard is live, outside the `[[allow_blocking]]`
    /// allowlist in `ci/lock-order.toml`.
    L7,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 5] = [Rule::L0, Rule::L3, Rule::L4, Rule::L6, Rule::L7];

    /// Parses `"L3"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "L0" => Some(Rule::L0),
            "L3" => Some(Rule::L3),
            "L4" => Some(Rule::L4),
            "L6" => Some(Rule::L6),
            "L7" => Some(Rule::L7),
            _ => None,
        }
    }

    /// `"L3"`, …
    pub fn id(self) -> &'static str {
        match self {
            Rule::L0 => "L0",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
        }
    }

    /// One-line rule description (for `--list`).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::L0 => "suppression comments name known rules, carry a reason, and still fire",
            Rule::L3 => "lock acquisitions respect the order declared in ci/lock-order.toml",
            Rule::L4 => "obs metric names match the crates/obs/src/names.rs registry",
            Rule::L6 => "lock order holds across intra-crate calls (call-graph summaries)",
            Rule::L7 => "no blocking call under a live guard outside the allowlist",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding at a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or suppress it.
    pub help: String,
}

impl Diagnostic {
    /// rustc-style rendering:
    /// `error[L3]: message\n  --> file:line:col\n   = help: …`
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "error[{}]: {}\n  --> {}:{}:{}\n",
            self.rule, self.message, self.file, self.line, self.col
        );
        if !self.help.is_empty() {
            out.push_str(&format!("   = help: {}\n", self.help));
        }
        out
    }

    /// One JSON object (manual serialization; the crate is zero-dep).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"help\":{}}}",
            self.rule,
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.message),
            json_str(&self.help),
        )
    }
}

/// One full run, for the stable `--format json` schema (documented in
/// the README "Static analysis" section): schema version, what was
/// analyzed, how long it took, per-rule counts, and the findings.
#[derive(Debug, Clone)]
pub struct Report {
    /// Sorted findings.
    pub diags: Vec<Diagnostic>,
    /// Rules that ran, in report order.
    pub rules: Vec<Rule>,
    /// Number of `.rs` files analyzed.
    pub files_analyzed: usize,
    /// Wall-clock of the whole run in milliseconds.
    pub wall_ms: u64,
}

impl Report {
    /// The versioned JSON artifact shape:
    ///
    /// ```json
    /// {"schema":1,"files_analyzed":N,"wall_ms":M,"count":K,
    ///  "rule_counts":{"L0":0,…},"diagnostics":[{…}]}
    /// ```
    ///
    /// `rule_counts` has one key per *enabled* rule (so a zero means
    /// "ran and found nothing", a missing key means "not run");
    /// `count` is the total and equals the `diagnostics` length.
    pub fn render_json(&self) -> String {
        let counts: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                let n = self.diags.iter().filter(|d| d.rule == *r).count();
                format!("\"{}\":{}", r.id(), n)
            })
            .collect();
        let items: Vec<String> = self.diags.iter().map(|d| d.render_json()).collect();
        format!(
            "{{\"schema\":1,\"files_analyzed\":{},\"wall_ms\":{},\"count\":{},\"rule_counts\":{{{}}},\"diagnostics\":[{}]}}\n",
            self.files_analyzed,
            self.wall_ms,
            self.diags.len(),
            counts.join(","),
            items.join(",")
        )
    }
}

/// Renders the full report in the requested format. Text mode ends with
/// a `error: N violation(s)` summary line; JSON mode is the versioned
/// [`Report::render_json`] object, stable for CI artifact consumers.
pub fn render_report(report: &Report, json: bool) -> String {
    if json {
        report.render_json()
    } else if report.diags.is_empty() {
        String::new()
    } else {
        let mut out = String::new();
        for d in &report.diags {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!("error: {} violation(s)\n", report.diags.len()));
        out
    }
}

/// JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: Rule::L3,
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 13,
            message: "`pool.frames` acquired while holding `pool.file`".into(),
            help: "release the earlier guard first".into(),
        }
    }

    #[test]
    fn text_is_rustc_style() {
        let t = sample().render_text();
        assert!(t.starts_with("error[L3]: "));
        assert!(t.contains("--> crates/x/src/lib.rs:7:13"));
        assert!(t.contains("= help: release"));
    }

    #[test]
    fn json_shape() {
        let report = Report {
            diags: vec![sample()],
            rules: vec![Rule::L0, Rule::L3],
            files_analyzed: 42,
            wall_ms: 17,
        };
        let j = render_report(&report, true);
        assert!(j.contains("\"schema\":1"));
        assert!(j.contains("\"files_analyzed\":42"));
        assert!(j.contains("\"wall_ms\":17"));
        assert!(j.contains("\"count\":1"));
        // Enabled-but-clean rules report an explicit zero.
        assert!(j.contains("\"rule_counts\":{\"L0\":0,\"L3\":1}"));
        assert!(j.contains("\"rule\":\"L3\""));
        assert!(j.contains("\"line\":7"));
        // Valid-enough JSON: balanced braces, no trailing comma.
        assert!(j.trim_end().ends_with("}]}"));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn rule_parse_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("l3"), Some(Rule::L3));
        for gone in ["L1", "L2", "L5", "L9"] {
            assert_eq!(Rule::parse(gone), None, "{gone}");
        }
    }
}
