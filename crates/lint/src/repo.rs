//! Loading the scan set: every `.rs` file under `crates/*/src` and the
//! umbrella `src/`, plus the documentation files some rules cross-check
//! and the caller-only files `pub-without-caller` looks for callers in.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Documentation files rules may cross-reference (all optional on disk).
pub const DOC_FILES: &[&str] = &["README.md", "DESIGN.md", "LOCK_ORDER.txt"];

/// Directories whose `.rs` files only call into the library: no rule
/// checks them, but `pub-without-caller` counts their uses (all optional
/// on disk; `crates/*/tests` is added per crate).
const CALLER_DIRS: &[&str] = &["examples", "tests", "benchmark/src"];

/// True for a caller-only path: under one of [`CALLER_DIRS`] or a
/// crate's `tests/`.
fn is_caller_path(path: &str) -> bool {
    CALLER_DIRS
        .iter()
        .any(|d| path.strip_prefix(d).is_some_and(|r| r.starts_with('/')))
        || (path.starts_with("crates/") && path.contains("/tests/"))
}

/// The analyzed snapshot of the repository.
#[derive(Debug, Clone)]
pub struct Repo {
    /// Parsed source files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Parsed caller-only files (tests, examples, the benchmark harness),
    /// sorted by path.
    pub callers: Vec<SourceFile>,
    /// Raw documentation texts keyed by file name.
    pub docs: BTreeMap<String, String>,
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("ferret-lint: read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("ferret-lint: read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl Repo {
    /// Loads and lexes the scan set under the workspace root.
    pub fn load(root: &Path) -> Result<Repo, String> {
        let crates_dir = root.join("crates");
        let mut rs_paths = Vec::new();
        let mut caller_paths = Vec::new();
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("ferret-lint: read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| format!("ferret-lint: read {}: {e}", crates_dir.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut rs_paths)?;
            }
            let tests = entry.path().join("tests");
            if tests.is_dir() {
                collect_rs(&tests, &mut caller_paths)?;
            }
        }
        let top_src = root.join("src");
        if top_src.is_dir() {
            collect_rs(&top_src, &mut rs_paths)?;
        }
        for dir in CALLER_DIRS {
            let dir = root.join(dir);
            if dir.is_dir() {
                collect_rs(&dir, &mut caller_paths)?;
            }
        }
        let parse_all = |mut paths: Vec<PathBuf>| -> Result<Vec<SourceFile>, String> {
            paths.sort();
            paths
                .into_iter()
                .map(|path| {
                    let text = fs::read_to_string(&path)
                        .map_err(|e| format!("ferret-lint: read {}: {e}", path.display()))?;
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    Ok(SourceFile::parse(&rel, &text))
                })
                .collect()
        };
        let files = parse_all(rs_paths)?;
        let callers = parse_all(caller_paths)?;
        let mut docs = BTreeMap::new();
        for name in DOC_FILES {
            if let Ok(text) = fs::read_to_string(root.join(name)) {
                docs.insert(name.to_string(), text);
            }
        }
        Ok(Repo {
            files,
            callers,
            docs,
        })
    }

    /// Builds a repo from in-memory sources — the fixture-test entry point.
    /// Caller-only paths (`tests/`, `examples/`, `benchmark/src/`, a
    /// crate's `tests/`) go to [`Repo::callers`].
    pub fn from_memory(files: &[(&str, &str)], docs: &[(&str, &str)]) -> Repo {
        let (callers, files): (Vec<_>, Vec<_>) = files
            .iter()
            .map(|(path, text)| SourceFile::parse(path, text))
            .partition(|f| is_caller_path(&f.path));
        Repo {
            files,
            callers,
            docs: docs
                .iter()
                .map(|(name, text)| (name.to_string(), text.to_string()))
                .collect(),
        }
    }

    /// The parsed file at a repo-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Raw text of a documentation file.
    pub fn doc(&self, name: &str) -> Option<&str> {
        self.docs.get(name).map(String::as_str)
    }
}
