//! The rule registry and shared scope helpers.
//!
//! Rules come in two enforcement classes:
//!
//! - **deny** rules fail `--deny` on any unsuppressed violation;
//! - **ratchet** rules tolerate the per-file counts committed in
//!   `lint-baseline.json` and fail only when a count *grows*.

use crate::repo::Repo;
use crate::source::SourceFile;

pub mod eager_metrics;
pub mod enum_parity;
pub mod guard_across_io;
pub mod no_unwrap;
pub mod ordering_comment;
pub mod pub_without_caller;
pub mod vfs_bypass;

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier (as used in pragmas and the baseline).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Rules whose pre-existing debt is ratcheted via the baseline.
pub const RATCHET_RULES: &[&str] = &[
    "no-unwrap-in-lib",
    "pub-without-caller",
    "atomic-ordering-comment",
];

/// Every rule name a pragma may reference.
pub const ALL_RULES: &[&str] = &[
    "vfs-bypass",
    "eager-metrics",
    "guard-across-io",
    "no-unwrap-in-lib",
    "pub-without-caller",
    "strategy-enum-parity",
    "atomic-ordering-comment",
];

/// True for paths the scanner treats as library code (rule default scope).
pub(crate) fn is_lib_path(path: &str) -> bool {
    (path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/")
}

/// True for CLI/tooling binaries, exempt from library-hygiene rules.
pub(crate) fn is_cli_path(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs") || path.starts_with("crates/bench/")
}

/// Non-test library files (rules still skip `#[cfg(test)]` regions inside).
pub(crate) fn lib_files(repo: &Repo) -> impl Iterator<Item = &SourceFile> {
    repo.files
        .iter()
        .filter(|f| !f.whole_file_test && is_lib_path(&f.path))
}

/// All positions of `needle` in `haystack`.
pub(crate) fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Validates every pragma: unknown rule names and missing justifications
/// are violations themselves, so suppressions stay auditable.
fn check_pragmas(repo: &Repo) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &repo.files {
        for p in &f.pragmas {
            if !p.justified {
                out.push(Violation {
                    path: f.path.clone(),
                    line: p.line,
                    rule: "pragma",
                    msg: "ferret-lint pragma without a ` -- justification` (or unparseable form)"
                        .to_string(),
                });
            }
            for rule in &p.rules {
                if !ALL_RULES.contains(&rule.as_str()) {
                    out.push(Violation {
                        path: f.path.clone(),
                        line: p.line,
                        rule: "pragma",
                        msg: format!("pragma names unknown rule {rule:?}"),
                    });
                }
            }
        }
    }
    out
}

/// Runs every rule, validates pragmas, applies suppressions, and returns
/// the surviving violations sorted by `(path, line, rule)`.
pub fn run_all(repo: &Repo) -> Vec<Violation> {
    let mut violations = Vec::new();
    violations.extend(vfs_bypass::check(repo));
    violations.extend(eager_metrics::check(repo));
    violations.extend(guard_across_io::check(repo));
    violations.extend(no_unwrap::check(repo));
    violations.extend(pub_without_caller::check(repo));
    violations.extend(enum_parity::check(repo));
    violations.extend(ordering_comment::check(repo));
    violations.retain(|v| {
        repo.file(&v.path)
            .is_none_or(|f| !f.is_suppressed(v.rule, v.line))
    });
    violations.extend(check_pragmas(repo));
    violations.sort();
    violations.dedup();
    violations
}
