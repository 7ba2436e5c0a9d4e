//! Golden fire / no-fire fixtures for every ferret-lint rule.
//!
//! Each rule gets at least one in-memory repo that must trigger it and a
//! minimally different repo that must not, so rule regressions (either
//! direction) fail loudly.

use ferret_lint::baseline::Baseline;
use ferret_lint::repo::Repo;
use ferret_lint::rules::{self, Violation};

fn fires(repo: &Repo, rule: &str) -> Vec<Violation> {
    rules::run_all(repo)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

// ------------------------------------------------------------ vfs-bypass --

#[test]
fn vfs_bypass_fires_on_raw_fs() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn save(p: &std::path::Path) {\n    std::fs::write(p, b\"x\").unwrap();\n}\n",
        )],
        &[],
    );
    let v = fires(&repo, "vfs-bypass");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
}

#[test]
fn vfs_bypass_quiet_in_vfs_tests_and_comments() {
    let repo = Repo::from_memory(
        &[
            // The seam itself is exempt.
            (
                "crates/store/src/vfs.rs",
                "pub fn passthrough() { std::fs::read(\"x\").ok(); }\n",
            ),
            // Test regions are exempt.
            (
                "crates/foo/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::fs::write(\"x\", b\"y\").unwrap(); }\n}\n",
            ),
            // Mentions in comments and strings never count.
            (
                "crates/bar/src/lib.rs",
                "// std::fs::write is banned here\npub const DOC: &str = \"std::fs::write\";\n",
            ),
            // VfsFile::open is not fs::File::open.
            (
                "crates/baz/src/lib.rs",
                "pub fn f(v: &dyn Vfs) { let _ = VfsFile::open(v); }\n",
            ),
        ],
        &[],
    );
    assert!(fires(&repo, "vfs-bypass").is_empty());
}

#[test]
fn vfs_bypass_suppressed_by_justified_pragma_only() {
    let justified = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn stat(p: &std::path::Path) {\n    \
             // ferret-lint: allow(vfs-bypass) -- read-only stat, nothing durable\n    \
             let _ = std::fs::metadata(p);\n}\n",
        )],
        &[],
    );
    assert!(fires(&justified, "vfs-bypass").is_empty());
    assert!(fires(&justified, "pragma").is_empty());

    let unjustified = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn stat(p: &std::path::Path) {\n    \
             // ferret-lint: allow(vfs-bypass)\n    \
             let _ = std::fs::metadata(p);\n}\n",
        )],
        &[],
    );
    // Without a justification the suppression is void and the pragma
    // itself is flagged.
    assert_eq!(fires(&unjustified, "vfs-bypass").len(), 1);
    assert_eq!(fires(&unjustified, "pragma").len(), 1);
}

#[test]
fn unknown_rule_pragma_is_flagged() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "// ferret-lint: allow(no-such-rule) -- because reasons\npub fn f() {}\n",
        )],
        &[],
    );
    let v = fires(&repo, "pragma");
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("no-such-rule"));
}

// --------------------------------------------------------- eager-metrics --

const CATALOG: &str = "pub const SERIES: &[&str] = &[\"ferret_good_total\"];\n";

#[test]
fn eager_metrics_fires_on_uncataloged_series() {
    let repo = Repo::from_memory(
        &[
            ("crates/core/src/series.rs", CATALOG),
            (
                "crates/foo/src/lib.rs",
                "pub fn f(r: &Registry) {\n    r.counter(\"ferret_rogue_total\", \"help\", &[]).inc();\n}\n",
            ),
        ],
        &[("DESIGN.md", "documents ferret_good_total only")],
    );
    let v = fires(&repo, "eager-metrics");
    // Missing from the catalog AND missing from DESIGN.md.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.line == 2));
}

#[test]
fn eager_metrics_quiet_for_cataloged_documented_series() {
    let repo = Repo::from_memory(
        &[
            ("crates/core/src/series.rs", CATALOG),
            (
                "crates/foo/src/lib.rs",
                "pub fn f(r: &Registry) {\n    r.counter(\"ferret_good_total\", \"help\", &[]).inc();\n}\n",
            ),
            // Non-ferret names and variable names are out of scope.
            (
                "crates/bar/src/lib.rs",
                "pub fn g(r: &Registry, name: &str) {\n    r.counter(name, \"\", &[]).inc();\n    r.gauge(\"other_metric\", \"\", &[]);\n}\n",
            ),
        ],
        &[("DESIGN.md", "| `ferret_good_total` | counter | good |")],
    );
    assert!(fires(&repo, "eager-metrics").is_empty());
}

// -------------------------------------------------------- guard-across-io --

#[test]
fn guard_across_io_fires_on_write_under_lock() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "impl S {\n    pub fn f<W: Write>(&self, w: &mut W) {\n        \
             let st = self.state.lock();\n        \
             w.write_all(b\"x\").ok();\n        \
             let _ = st;\n    }\n}\n",
        )],
        &[],
    );
    let v = fires(&repo, "guard-across-io");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 4);
    assert!(v[0].msg.contains("`st`"));
}

#[test]
fn guard_across_io_quiet_after_drop_or_temporary() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "impl S {\n    pub fn f<W: Write>(&self, w: &mut W) {\n        \
             let st = self.state.lock();\n        \
             let n = *st;\n        \
             drop(st);\n        \
             w.write_all(&[n]).ok();\n    }\n    \
             pub fn g<W: Write>(&self, w: &mut W) {\n        \
             *self.state.lock() += 1;\n        \
             w.write_all(b\"x\").ok();\n    }\n}\n",
        )],
        &[],
    );
    assert!(fires(&repo, "guard-across-io").is_empty());
}

#[test]
fn guard_across_io_checks_lock_order_declarations() {
    let src = "impl S {\n    pub fn f(&self) {\n        \
               let a = self.state.lock();\n        \
               let b = self.inner.lock();\n        \
               let _ = (a, b);\n    }\n}\n";
    let undeclared = Repo::from_memory(&[("crates/foo/src/lib.rs", src)], &[]);
    let v = fires(&undeclared, "guard-across-io");
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("state -> inner"));

    let declared = Repo::from_memory(
        &[("crates/foo/src/lib.rs", src)],
        &[("LOCK_ORDER.txt", "# pairs\nstate -> inner\n")],
    );
    assert!(fires(&declared, "guard-across-io").is_empty());
}

// ------------------------------------------------------- no-unwrap-in-lib --

#[test]
fn no_unwrap_fires_in_lib_quiet_in_cli_and_tests() {
    let repo = Repo::from_memory(
        &[
            (
                "crates/foo/src/lib.rs",
                "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
            (
                "crates/foo/src/bin/tool.rs",
                "fn main() { std::env::args().next().unwrap(); panic!(\"boom\"); }\n",
            ),
            (
                "crates/bar/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n",
            ),
        ],
        &[],
    );
    let v = fires(&repo, "no-unwrap-in-lib");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].path, "crates/foo/src/lib.rs");
}

// ------------------------------------------------ atomic-ordering-comment --

#[test]
fn ordering_comment_fires_without_justification() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n",
        )],
        &[],
    );
    let v = fires(&repo, "atomic-ordering-comment");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
}

#[test]
fn ordering_comment_quiet_with_same_or_previous_line_comment() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn f(x: &AtomicU64) -> u64 {\n    \
             // ordering: monitoring read, no happens-before needed\n    \
             x.load(Ordering::Relaxed)\n}\n\
             pub fn g(x: &AtomicU64) {\n    \
             x.store(1, Ordering::Release); // ordering: publishes init\n}\n",
        )],
        &[],
    );
    assert!(fires(&repo, "atomic-ordering-comment").is_empty());
}

// ---------------------------------------------------- strategy-enum-parity --

/// A consistent strategy-enum universe: each contracted enum has Display
/// and FromStr over one literal, and every literal appears in the CLI
/// help files and the README.
fn parity_files(fusion_display: &str) -> Vec<(&'static str, String)> {
    fn enum_src(name: &str, display_lit: &str, parse_lit: &str) -> String {
        format!(
            "pub enum {name} {{ V }}\n\
             impl std::fmt::Display for {name} {{\n    \
             fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {{\n        \
             f.write_str(\"{display_lit}\")\n    }}\n}}\n\
             impl std::str::FromStr for {name} {{\n    \
             type Err = ();\n    \
             fn from_str(s: &str) -> Result<Self, ()> {{\n        \
             if s == \"{parse_lit}\" {{ Ok({name}::V) }} else {{ Err(()) }}\n    }}\n}}\n"
        )
    }
    vec![
        (
            "crates/core/src/parallel.rs",
            enum_src("Parallelism", "serial", "serial"),
        ),
        (
            "crates/query/src/fusion.rs",
            enum_src("FusionMode", fusion_display, "rrf"),
        ),
        (
            "src/bin/ferret.rs",
            "const USAGE: &str = \"strategies: serial rrf\";\nfn main() {}\n".to_string(),
        ),
        (
            "crates/query/src/protocol.rs",
            "pub const HELP: &str = \"serial rrf\";\n".to_string(),
        ),
    ]
}

fn parity_repo(fusion_display: &str) -> Repo {
    let files = parity_files(fusion_display);
    let refs: Vec<(&str, &str)> = files.iter().map(|(p, t)| (*p, t.as_str())).collect();
    Repo::from_memory(&refs, &[("README.md", "modes: serial rrf")])
}

#[test]
fn enum_parity_quiet_when_consistent() {
    assert!(fires(&parity_repo("rrf"), "strategy-enum-parity").is_empty());
}

#[test]
fn enum_parity_fires_on_display_fromstr_drift() {
    // Display says "blend" but FromStr only accepts "rrf", and "blend"
    // appears in neither the CLI help nor the README: three findings.
    let v = fires(&parity_repo("blend"), "strategy-enum-parity");
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.msg.contains("blend")));
    assert!(v.iter().any(|v| v.msg.contains("round-trip")));
    assert!(v.iter().any(|v| v.msg.contains("README")));
}

#[test]
fn enum_parity_fires_when_enum_file_missing() {
    let repo = Repo::from_memory(&[("crates/foo/src/lib.rs", "pub fn f() {}\n")], &[]);
    let v = fires(&repo, "strategy-enum-parity");
    // One finding per contracted enum whose defining file is absent.
    assert_eq!(v.len(), 2, "{v:?}");
}

// ------------------------------------------------------- report partition --

#[test]
fn run_partitions_deny_and_ratchet_and_ratchets() {
    let repo = Repo::from_memory(
        &[(
            "crates/foo/src/lib.rs",
            "pub fn f(p: &std::path::Path, x: Option<u32>) -> u32 {\n    \
             let _ = std::fs::metadata(p);\n    x.unwrap()\n}\n",
        )],
        &[],
    );
    let empty = Baseline::new();
    let report = ferret_lint::run(&repo, &empty);
    assert!(report.deny.iter().any(|v| v.rule == "vfs-bypass"));
    assert!(report.ratchet.iter().any(|v| v.rule == "no-unwrap-in-lib"));
    assert!(report.deny.iter().all(|v| v.rule != "no-unwrap-in-lib"));
    // An empty baseline means the unwrap is a regression…
    assert_eq!(report.regressions.len(), 1);
    assert!(report.failed());
    // …but a baseline recording it tolerates it (deny still fails).
    let report2 = ferret_lint::run(&repo, &report.measured);
    assert!(report2.regressions.is_empty());
    assert!(report2.failed(), "deny violations still fail");
}
