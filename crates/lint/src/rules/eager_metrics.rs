//! **eager-metrics** — every `ferret_*` series name used at a telemetry
//! call site must be declared in the central series catalog
//! (`crates/core/src/series.rs`, the eager-registration block) and
//! documented in DESIGN.md.
//!
//! PR 4 and PR 7 both shipped lazily-registered series that were
//! invisible on `/metrics` until their code path first ran; this rule
//! makes the exposition surface a reviewed contract by cross-checking
//! string literals across code and docs.

use super::{find_all, lib_files, Violation};
use crate::repo::Repo;

const RULE: &str = "eager-metrics";

/// The catalog file: the single eager-registration block.
pub const CATALOG_PATH: &str = "crates/core/src/series.rs";

const CALLEES: &[&str] = &[
    ".counter(",
    ".gauge(",
    ".histogram(",
    ".inc_counter(",
    ".observe_latency(",
    ".set_duration_gauge(",
];

/// Runs the rule over the repo.
pub fn check(repo: &Repo) -> Vec<Violation> {
    let mut out = Vec::new();
    let catalog: std::collections::BTreeSet<&str> = match repo.file(CATALOG_PATH) {
        Some(f) => f
            .strings
            .iter()
            .map(|s| s.text.as_str())
            .filter(|s| s.starts_with("ferret_"))
            .collect(),
        None => {
            out.push(Violation {
                path: CATALOG_PATH.to_string(),
                line: 1,
                rule: RULE,
                msg: "telemetry series catalog is missing".to_string(),
            });
            return out;
        }
    };
    let design = repo.doc("DESIGN.md").unwrap_or("");
    for f in lib_files(repo) {
        if f.path == CATALOG_PATH {
            continue;
        }
        for callee in CALLEES {
            for pos in find_all(&f.scrubbed, callee) {
                if f.in_test(pos) {
                    continue;
                }
                // The series name is the first string literal of the call's
                // statement (the registry API takes `name` first). A call
                // passing a variable has no literal before the statement
                // ends and is skipped.
                let stmt_end = f.scrubbed[pos..]
                    .find(';')
                    .map(|d| pos + d)
                    .unwrap_or(f.scrubbed.len());
                let Some(lit) = f
                    .strings
                    .iter()
                    .find(|s| s.offset > pos && s.offset < stmt_end)
                else {
                    continue;
                };
                if !lit.text.starts_with("ferret_") {
                    continue;
                }
                let line = f.line_of(lit.offset);
                if !catalog.contains(lit.text.as_str()) {
                    out.push(Violation {
                        path: f.path.clone(),
                        line,
                        rule: RULE,
                        msg: format!(
                            "series \"{}\" is used at a `{callee}…)` call site but is not \
                             declared in the eager catalog {CATALOG_PATH}",
                            lit.text
                        ),
                    });
                }
                if !design.contains(lit.text.as_str()) {
                    out.push(Violation {
                        path: f.path.clone(),
                        line,
                        rule: RULE,
                        msg: format!("series \"{}\" is not documented in DESIGN.md", lit.text),
                    });
                }
            }
        }
    }
    out
}
