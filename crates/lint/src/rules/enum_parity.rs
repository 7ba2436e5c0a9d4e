//! **strategy-enum-parity** — every `Display` string of the user-facing
//! strategy enums must round-trip through `FromStr` and appear in the
//! CLI help text and README.
//!
//! PR 5/6 each caught `Display`/`FromStr` drift by hand (a strategy that
//! printed a name its parser rejected, or a mode undocumented in the
//! CLI). This rule extracts the string literals of each enum's `Display`
//! impl and cross-checks them against the `FromStr` impl in the same
//! file and against the user-facing docs.

use super::{find_all, Violation};
use crate::repo::Repo;
use crate::source::SourceFile;

const RULE: &str = "strategy-enum-parity";

/// `(enum name, defining file)` pairs under contract.
pub const ENUMS: &[(&str, &str)] = &[("FusionMode", "crates/query/src/fusion.rs")];

/// Files whose raw text constitutes "the CLI help" (usage strings and the
/// serve protocol's HELP response live here).
pub const CLI_HELP_FILES: &[&str] = &["src/bin/ferret.rs", "crates/query/src/protocol.rs"];

const DISPLAY_TRAITS: &[&str] = &["std::fmt::Display", "fmt::Display", "Display"];
const FROMSTR_TRAITS: &[&str] = &["std::str::FromStr", "str::FromStr", "FromStr"];

fn impl_block(f: &SourceFile, traits: &[&str], ty: &str) -> Option<(usize, usize)> {
    for t in traits {
        let pattern = format!("impl {t} for {ty}");
        for pos in find_all(&f.scrubbed, &pattern) {
            // Require a word boundary so `FusionModeExt` doesn't match.
            let after = f.scrubbed.as_bytes().get(pos + pattern.len());
            if after.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
                continue;
            }
            let open = f.scrubbed[pos..].find('{').map(|d| pos + d)?;
            let end = crate::source::matching_brace(f.scrubbed.as_bytes(), open);
            return Some((open, end));
        }
    }
    None
}

fn literals_in(f: &SourceFile, range: (usize, usize)) -> Vec<(String, usize)> {
    f.strings
        .iter()
        .filter(|s| s.offset >= range.0 && s.offset < range.1)
        .map(|s| (s.text.clone(), s.offset))
        .collect()
}

/// Runs the rule over the repo.
pub fn check(repo: &Repo) -> Vec<Violation> {
    let mut out = Vec::new();
    let readme = repo.doc("README.md").unwrap_or("");
    let cli_help: String = CLI_HELP_FILES
        .iter()
        .filter_map(|p| repo.file(p).map(|f| f.text.clone()))
        .collect::<Vec<_>>()
        .join("\n");
    for &(name, path) in ENUMS {
        let Some(f) = repo.file(path) else {
            out.push(Violation {
                path: path.to_string(),
                line: 1,
                rule: RULE,
                msg: format!("expected {name} to be defined in this file"),
            });
            continue;
        };
        let Some(display) = impl_block(f, DISPLAY_TRAITS, name) else {
            out.push(Violation {
                path: path.to_string(),
                line: 1,
                rule: RULE,
                msg: format!("no `impl Display for {name}` found"),
            });
            continue;
        };
        let Some(fromstr) = impl_block(f, FROMSTR_TRAITS, name) else {
            out.push(Violation {
                path: path.to_string(),
                line: 1,
                rule: RULE,
                msg: format!("no `impl FromStr for {name}`: Display strings cannot round-trip"),
            });
            continue;
        };
        let fromstr_lits = literals_in(f, fromstr);
        for (lit, offset) in literals_in(f, display) {
            // A parameterized variant like `name({n})` contributes its
            // literal prefix; pure placeholder/format strings are skipped.
            let norm = lit.split('{').next().unwrap_or("");
            if norm.trim().is_empty() {
                continue;
            }
            let line = f.line_of(offset);
            let parses = fromstr_lits
                .iter()
                .any(|(l, _)| l == norm || (norm.starts_with(l.as_str()) && l.len() >= 3));
            if !parses {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: RULE,
                    msg: format!(
                        "{name} Display string \"{norm}\" has no matching literal in its \
                         FromStr impl (round-trip would fail)"
                    ),
                });
            }
            let token: String = norm
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if token.is_empty() {
                continue;
            }
            if !cli_help.contains(&token) {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: RULE,
                    msg: format!(
                        "{name} value \"{token}\" does not appear in the CLI help \
                         ({})",
                        CLI_HELP_FILES.join(", ")
                    ),
                });
            }
            if !readme.contains(&token) {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: RULE,
                    msg: format!("{name} value \"{token}\" does not appear in README.md"),
                });
            }
        }
    }
    out
}
