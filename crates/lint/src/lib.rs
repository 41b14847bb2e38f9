//! # ni_lint — workspace determinism linter
//!
//! Every correctness claim this repository makes is a determinism claim:
//! bit-identical fingerprints at any thread count, poll↔event tick
//! equivalence, seed-reproducible fault schedules. This crate enforces the
//! hazard discipline those claims rest on **statically**: a std-only,
//! comment- and string-aware line scanner walks the workspace and flags
//! the nondeterminism classes that have bitten (or could bite) simulation
//! state — hash-order iteration, wall clocks, ambient RNGs, debug-only
//! side effects — plus the hygiene rules that keep the rest auditable.
//!
//! It runs two ways, both gating CI:
//!
//! - as a binary: `cargo run -p ni_lint -- --deny` (add `--format json`
//!   for machine-readable output);
//! - as a test: `crates/lint/tests/workspace.rs` walks the workspace, so
//!   plain `cargo test` fails on any finding.
//!
//! Known-safe sites are justified inline:
//!
//! ```text
//! // lint: allow(hash-order) — keyed access only, never iterated
//! // lint: file-allow(wall-clock) — reporting boundary, cannot reach sim state
//! ```
//!
//! A written reason is mandatory; an allow without one is itself a
//! finding. See `docs/ARCHITECTURE.md` ("Determinism rules") for the rule
//! table and crate-role scoping.

#![warn(missing_docs)]

mod rules;
mod scan;

pub use rules::{lint_source, Finding, Role, Rule, ALLOWABLE};
pub use scan::{scan, ScannedLine};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of a workspace lint pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, ordered by file path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Simulation-state crates: their contents can reach a run fingerprint.
/// `metrics` qualifies because per-tenant aggregation output lands in
/// bench JSON and gate assertions — hash-order iteration there would make
/// reports seed-unstable.
const SIM_STATE_CRATES: [&str; 9] = [
    "engine",
    "noc",
    "coherence",
    "mem",
    "metrics",
    "qp",
    "rmc",
    "fabric",
    "soc",
];

/// Directory names never scanned, wherever they appear: build output,
/// the linter's own deliberately-bad fixture corpus, and the vendored
/// offline shims standing in for external crates (external code is not
/// ours to lint).
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "compat"];

/// Role of a workspace-relative path, or `None` when the file is excluded
/// from scanning.
pub fn role_of(rel: &Path) -> Option<Role> {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    if comps.iter().any(|c| SKIP_DIRS.contains(c)) {
        return None;
    }
    match comps.as_slice() {
        ["examples", ..] | ["tests", ..] => Some(Role::Harness),
        ["crates", krate, rest @ ..] => {
            // A crate's own tests/ and benches/ are harness code even
            // inside simulation-state crates.
            if rest.iter().any(|c| *c == "tests" || *c == "benches") {
                return Some(Role::Harness);
            }
            if SIM_STATE_CRATES.contains(krate) {
                Some(Role::SimState)
            } else if *krate == "core" {
                Some(Role::Experiments)
            } else {
                Some(Role::Harness)
            }
        }
        _ => Some(Role::Harness),
    }
}

/// True when `rel` is the `lib.rs` of a simulation-state crate (the only
/// files the `missing-docs-header` rule inspects).
pub fn is_sim_lib(rel: &Path) -> bool {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    matches!(
        comps.as_slice(),
        ["crates", krate, "src", "lib.rs"] if SIM_STATE_CRATES.contains(krate)
    )
}

/// Walk up from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Recursively collect `.rs` files under `dir`, skipping [`SKIP_DIRS`].
/// Paths are sorted so reports (and CI diffs) are deterministic — the
/// linter holds itself to its own rule: `read_dir` order is
/// OS-dependent.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`.
///
/// Scans `crates/`, `examples/`, and `tests/`; role scoping and
/// exclusions are decided by [`role_of`].
///
/// # Errors
/// Returns any I/O error encountered while walking or reading files.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut report = LintReport::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let Some(role) = role_of(rel) else { continue };
        let src = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        report.findings.extend(lint_source(
            &rel.display().to_string(),
            &src,
            role,
            is_sim_lib(rel),
        ));
    }
    Ok(report)
}

/// Render findings as `file:line: [rule] message` lines.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        ));
    }
    out.push_str(&format!(
        "ni_lint: {} finding(s) across {} file(s) scanned\n",
        report.findings.len(),
        report.files_scanned
    ));
    out
}

/// Render findings as a machine-readable JSON document (schema
/// `ni-lint/1`).
pub fn render_json(report: &LintReport) -> String {
    fn esc(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                '\t' => "\\t".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }
    let mut out = String::from("{\n  \"schema\": \"ni-lint/1\",\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&f.file),
            f.line,
            f.rule.name(),
            esc(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"count\": {},\n  \"files_scanned\": {}\n}}\n",
        report.findings.len(),
        report.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_the_documented_table() {
        assert_eq!(
            role_of(Path::new("crates/rmc/src/backend.rs")),
            Some(Role::SimState)
        );
        assert_eq!(
            role_of(Path::new("crates/metrics/src/lib.rs")),
            Some(Role::SimState)
        );
        assert_eq!(
            role_of(Path::new("crates/core/src/experiments.rs")),
            Some(Role::Experiments)
        );
        assert_eq!(
            role_of(Path::new("crates/core/benches/simperf.rs")),
            Some(Role::Harness)
        );
        assert_eq!(
            role_of(Path::new("crates/rmc/tests/pipelines.rs")),
            Some(Role::Harness)
        );
        assert_eq!(
            role_of(Path::new("tests/rack_scale.rs")),
            Some(Role::Harness)
        );
        assert_eq!(
            role_of(Path::new("examples/failure_study.rs")),
            Some(Role::Harness)
        );
        assert_eq!(role_of(Path::new("crates/compat/rand/src/lib.rs")), None);
        assert_eq!(
            role_of(Path::new("crates/lint/fixtures/bad_hash_order.rs")),
            None
        );
        assert_eq!(
            role_of(Path::new("crates/lint/src/lib.rs")),
            Some(Role::Harness)
        );
    }

    #[test]
    fn sim_lib_detection() {
        assert!(is_sim_lib(Path::new("crates/soc/src/lib.rs")));
        assert!(is_sim_lib(Path::new("crates/metrics/src/lib.rs")));
        assert!(!is_sim_lib(Path::new("crates/soc/src/chip.rs")));
        assert!(!is_sim_lib(Path::new("crates/core/src/lib.rs")));
        assert!(!is_sim_lib(Path::new("crates/lint/src/lib.rs")));
    }

    #[test]
    fn json_escapes_and_counts() {
        let report = LintReport {
            findings: vec![Finding {
                file: "a\"b.rs".into(),
                line: 3,
                rule: Rule::HashOrder,
                message: "x\ny".into(),
            }],
            files_scanned: 1,
        };
        let j = render_json(&report);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"count\": 1"));
    }
}
