//! **pub-without-caller** — a `pub` item in library code that nothing
//! outside its own tests names.
//!
//! Every public item is a row in the docs and a test to maintain, so one
//! that nothing calls is deletion waiting to happen. The rule checks each
//! exactly-`pub` `fn`, `struct`, `enum`, `trait`, `type`, `const` and
//! `static` (inherent methods included) in non-test library code. It is a
//! finding when the item's name, as a whole identifier, appears neither
//! in another file's code (the caller-only files under `tests/`,
//! `examples/` and `benchmark/src` included) nor in its own file's
//! non-test code. `use` declarations, so a prelude re-export alone, do
//! not count, and neither do declarations of the same name nor, in the
//! declaring file, `impl … Name` headers.
//!
//! Ratcheted: items kept on purpose, as a paper distance or a toolkit
//! extension point, carry an allow pragma with the reason.

use super::{lib_files, Violation};
use crate::repo::Repo;
use crate::source::SourceFile;

const RULE: &str = "pub-without-caller";

const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Words that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// Keywords whose following identifier is a declaration, not a use.
const DECL_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifiers of `text` with their byte offsets, in order.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                out.push((start, &text[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// One file's identifiers, split into the occurrences that count as uses.
struct Uses<'a> {
    file: &'a SourceFile,
    /// `(offset, name)` of every identifier outside `use` declarations
    /// that is not itself a declared name.
    uses: Vec<(usize, &'a str)>,
    /// `(start, end)` of each `impl` header, `impl` to `{`.
    impl_headers: Vec<(usize, usize)>,
}

impl<'a> Uses<'a> {
    fn of(file: &'a SourceFile) -> Uses<'a> {
        let text = file.scrubbed.as_str();
        let bytes = text.as_bytes();
        let toks = idents(text);
        let mut uses = Vec::new();
        let mut impl_headers = Vec::new();
        let mut skip_to = 0;
        for (i, &(pos, word)) in toks.iter().enumerate() {
            if pos < skip_to {
                continue;
            }
            match word {
                "use" => {
                    skip_to = text[pos..].find(';').map_or(text.len(), |e| pos + e);
                    continue;
                }
                "impl" => {
                    let end = text[pos..].find('{').map_or(text.len(), |e| pos + e);
                    impl_headers.push((pos, end));
                }
                _ => {}
            }
            // Only a keyword directly before the name, across whitespace
            // alone, makes a declaration: `fn(Name)` is a use.
            let declared = i > 0 && {
                let (prev, kw) = toks[i - 1];
                DECL_KEYWORDS.contains(&kw)
                    && bytes[prev + kw.len()..pos]
                        .iter()
                        .all(u8::is_ascii_whitespace)
            };
            if !declared {
                uses.push((pos, word));
            }
        }
        Uses {
            file,
            uses,
            impl_headers,
        }
    }

    /// True when this file names `name` as a caller would: anywhere for
    /// another file; for the declaring file, in non-test code outside
    /// `impl` headers, so implementing a trait or a type is no use of it.
    fn names(&self, name: &str, own_file: bool) -> bool {
        self.uses.iter().any(|&(pos, word)| {
            word == name
                && (!own_file
                    || !(self.file.in_test(pos)
                        || self.impl_headers.iter().any(|&(s, e)| pos >= s && pos < e)))
        })
    }
}

/// The `pub` items a file declares outside its test code, as
/// `(offset of pub, name)`.
fn pub_items(file: &SourceFile) -> Vec<(usize, &str)> {
    let toks = idents(&file.scrubbed);
    let bytes = file.scrubbed.as_bytes();
    let mut out = Vec::new();
    for (i, &(pos, word)) in toks.iter().enumerate() {
        if word != "pub" || file.in_test(pos) {
            continue;
        }
        // Exactly `pub`: `pub(crate)` and friends are followed by `(`.
        let restricted = bytes[pos + 3..]
            .iter()
            .find(|b| !b.is_ascii_whitespace())
            .is_some_and(|&b| b == b'(');
        if restricted {
            continue;
        }
        let mut j = i + 1;
        while j + 1 < toks.len() && QUALIFIERS.contains(&toks[j].1) {
            if toks[j].1 == "const" && toks[j + 1].1 != "fn" && toks[j + 1].1 != "unsafe" {
                break;
            }
            j += 1;
        }
        if let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) {
            if ITEM_KEYWORDS.contains(&kw.1) {
                out.push((pos, name.1));
            }
        }
    }
    out
}

/// Runs the rule over the repo.
pub fn check(repo: &Repo) -> Vec<Violation> {
    let all: Vec<Uses> = repo
        .files
        .iter()
        .chain(&repo.callers)
        .map(Uses::of)
        .collect();
    let mut out = Vec::new();
    for f in lib_files(repo) {
        if f.path.contains("/bin/") || f.path.ends_with("/main.rs") {
            continue;
        }
        for (pos, name) in pub_items(f) {
            let called = all.iter().any(|u| u.names(name, u.file.path == f.path));
            if !called {
                out.push(Violation {
                    path: f.path.clone(),
                    line: f.line_of(pos),
                    rule: RULE,
                    msg: format!(
                        "`pub` item `{name}` has no caller outside its own tests; \
                         delete it, narrow it, or allow it with a reason"
                    ),
                });
            }
        }
    }
    out
}
