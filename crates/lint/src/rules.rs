//! Rule definitions, crate-role scoping, and the per-file check pass.
//!
//! Every rule guards the same invariant from a different angle: **two runs
//! of the same seed must be bit-identical**. Hash-order iteration, wall
//! clocks, ambient RNGs, and debug-only side effects are the ways that
//! invariant has been (or could be) silently broken; `unsafe` and missing
//! `missing_docs` headers are the hygiene rules that keep the rest
//! auditable.

use crate::scan::{scan, ScannedLine};

/// What part of the workspace a file belongs to, deciding which rules
/// apply. See `docs/ARCHITECTURE.md` ("Determinism rules") for the table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Simulation-state crates (`engine`, `noc`, `coherence`, `mem`, `qp`,
    /// `rmc`, `fabric`, `soc`): everything here can reach a fingerprint,
    /// so the full rule set applies.
    SimState,
    /// The experiments layer (`core`): drives simulations and must stay
    /// seed-reproducible, but may *hold* results in any container — only
    /// wall-clock and ambient-RNG hazards apply on top of the common
    /// hygiene rules.
    Experiments,
    /// Harness code (`lint`, top-level `examples/` and `tests/`, and any
    /// crate's `tests/`/`benches/` dirs): timing and hash maps are its job;
    /// only the common hygiene rules apply.
    Harness,
}

/// A lint rule. The `allow-*` variants are meta-findings produced by the
/// escape hatch itself and can never be suppressed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// `HashMap`/`HashSet` in simulation state: iteration order varies per
    /// process (each map draws a fresh `RandomState` seed), so any path
    /// from iteration to sim state diverges between same-seed runs.
    HashOrder,
    /// `std::time::{Instant, SystemTime}` outside harness timing code:
    /// wall-clock readings differ on every run by definition.
    WallClock,
    /// `thread_rng`/`rand::random`/`RandomState`: OS-entropy-seeded
    /// randomness that no simulation seed controls.
    AmbientNondeterminism,
    /// A mutating call inside `debug_assert!`: the mutation happens in the
    /// debug CI leg and not in release, so the two legs simulate
    /// different machines.
    DebugAssertSideEffect,
    /// An `unsafe` keyword with no `// SAFETY:` comment on or directly
    /// above its line.
    UnguardedUnsafe,
    /// A simulation-state crate's `lib.rs` without
    /// `#![warn(missing_docs)]`.
    MissingDocsHeader,
    /// An allow annotation with no written justification.
    AllowMissingReason,
    /// An allow annotation naming a rule that does not exist.
    AllowUnknownRule,
}

/// Rules an allow annotation may name.
pub const ALLOWABLE: [Rule; 6] = [
    Rule::HashOrder,
    Rule::WallClock,
    Rule::AmbientNondeterminism,
    Rule::DebugAssertSideEffect,
    Rule::UnguardedUnsafe,
    Rule::MissingDocsHeader,
];

impl Rule {
    /// The rule's kebab-case name (used in reports and `allow(...)`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::AmbientNondeterminism => "ambient-nondeterminism",
            Rule::DebugAssertSideEffect => "debug-assert-side-effect",
            Rule::UnguardedUnsafe => "unguarded-unsafe",
            Rule::MissingDocsHeader => "missing-docs-header",
            Rule::AllowMissingReason => "allow-missing-reason",
            Rule::AllowUnknownRule => "allow-unknown-rule",
        }
    }

    /// Parse an allowable rule name.
    pub fn from_name(s: &str) -> Option<Rule> {
        ALLOWABLE.into_iter().find(|r| r.name() == s)
    }

    /// Whether the rule applies to files of `role`.
    pub fn applies(self, role: Role) -> bool {
        match self {
            Rule::HashOrder | Rule::MissingDocsHeader => role == Role::SimState,
            Rule::WallClock => matches!(role, Role::SimState | Role::Experiments),
            Rule::AmbientNondeterminism
            | Rule::DebugAssertSideEffect
            | Rule::UnguardedUnsafe
            | Rule::AllowMissingReason
            | Rule::AllowUnknownRule => true,
        }
    }
}

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (workspace-relative when produced by the
    /// workspace walk).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// A parsed line- or file-scope allow annotation.
#[derive(Debug)]
struct Allow {
    /// 0-based line the annotation sits on.
    line: usize,
    rule: Option<Rule>,
    rule_name: String,
    file_scope: bool,
    reason: String,
}

/// Minimum justification length: long enough that `— ok` cannot pass for
/// a reason.
const MIN_REASON: usize = 8;

/// Identifier-boundary substring search: `word` must not be preceded or
/// followed by an identifier character.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre = start
            .checked_sub(1)
            .map(|p| bytes[p] as char)
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let post = bytes
            .get(end)
            .map(|&b| b as char)
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !pre && !post {
            return true;
        }
        from = end;
    }
    false
}

/// Calls and operators that mutate state, searched for inside
/// `debug_assert!` bodies. A heuristic list, not an analysis — anything it
/// wrongly flags can carry a justified `lint: allow`.
const MUTATORS: [&str; 20] = [
    ".push(",
    ".push_back(",
    ".push_front(",
    ".push_after(",
    ".push_at(",
    ".pop(",
    ".pop_front(",
    ".pop_back(",
    ".pop_ready(",
    ".insert(",
    ".remove(",
    ".take(",
    ".drain(",
    ".clear(",
    ".incr(",
    ".decr(",
    "+=",
    "-=",
    "*=",
    "/=",
];

/// Parse the allow annotations out of a file's comment channels.
fn parse_allows(lines: &[ScannedLine]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let mut rest = l.comment.as_str();
        while let Some(pos) = rest.find("lint:") {
            rest = rest[pos + "lint:".len()..].trim_start();
            let file_scope = if let Some(r) = rest.strip_prefix("file-allow(") {
                rest = r;
                true
            } else if let Some(r) = rest.strip_prefix("allow(") {
                rest = r;
                false
            } else {
                continue;
            };
            let Some(close) = rest.find(')') else { break };
            let rule_name = rest[..close].trim().to_string();
            rest = &rest[close + 1..];
            // The reason is everything after the closing paren, minus
            // leading separator punctuation (`—`, `–`, `-`, `:`).
            let upto = rest.find("lint:").unwrap_or(rest.len());
            let reason = rest[..upto]
                .trim_start_matches(|c: char| c.is_whitespace() || "—–-:".contains(c))
                .trim()
                .to_string();
            out.push(Allow {
                line: idx,
                rule: Rule::from_name(&rule_name),
                rule_name,
                file_scope,
                reason,
            });
        }
    }
    out
}

/// The line a non-file-scope allow suppresses: its own line when it has
/// code, otherwise the next line that does (a standalone `// lint:
/// allow(...)` comment annotates the statement below it, skipping any
/// further comment-only lines).
fn allow_target(lines: &[ScannedLine], at: usize) -> usize {
    if !lines[at].code.trim().is_empty() {
        return at;
    }
    let mut j = at + 1;
    while j < lines.len() && lines[j].code.trim().is_empty() {
        j += 1;
    }
    j.min(lines.len().saturating_sub(1))
}

/// Lint one file's source text.
///
/// `file` is the name used in findings; `role` decides which rules apply;
/// `is_sim_lib` marks the `lib.rs` of a simulation-state crate (the only
/// place `missing-docs-header` is checked).
pub fn lint_source(file: &str, src: &str, role: Role, is_sim_lib: bool) -> Vec<Finding> {
    let lines = scan(src);
    let allows = parse_allows(&lines);

    let mut findings = Vec::new();
    let mut file_allowed: Vec<Rule> = Vec::new();
    // (line, rule) pairs suppressed by a line-scope allow.
    let mut line_allowed: Vec<(usize, Rule)> = Vec::new();

    for a in &allows {
        let Some(rule) = a.rule else {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line + 1,
                rule: Rule::AllowUnknownRule,
                message: format!(
                    "`lint: allow({})` names no known rule (allowable: {})",
                    a.rule_name,
                    ALLOWABLE.map(Rule::name).join(", ")
                ),
            });
            continue;
        };
        if a.reason.len() < MIN_REASON {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line + 1,
                rule: Rule::AllowMissingReason,
                message: format!(
                    "`lint: allow({})` carries no justification — write why the rule \
                     provably cannot bite here",
                    rule.name()
                ),
            });
            continue;
        }
        if a.file_scope {
            file_allowed.push(rule);
        } else {
            line_allowed.push((allow_target(&lines, a.line), rule));
        }
    }

    let mut push = |line: usize, rule: Rule, message: String| {
        if !rule.applies(role)
            || file_allowed.contains(&rule)
            || line_allowed.contains(&(line, rule))
        {
            return;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (idx, l) in lines.iter().enumerate() {
        let code = l.code.as_str();
        for word in ["HashMap", "HashSet"] {
            if has_word(code, word) {
                push(
                    idx,
                    Rule::HashOrder,
                    format!(
                        "`{word}` in simulation state: iteration order differs per process; \
                         use `BTree{}` or justify with `lint: allow(hash-order)`",
                        &word[4..]
                    ),
                );
            }
        }
        for word in ["Instant", "SystemTime"] {
            if has_word(code, word) {
                push(
                    idx,
                    Rule::WallClock,
                    format!(
                        "`{word}` outside harness timing: wall clocks cannot reach sim results"
                    ),
                );
            }
        }
        for pat in ["thread_rng", "RandomState"] {
            if has_word(code, pat) {
                push(
                    idx,
                    Rule::AmbientNondeterminism,
                    format!(
                        "`{pat}` is OS-entropy-seeded; derive all randomness from the run seed"
                    ),
                );
            }
        }
        if code.contains("rand::random") {
            push(
                idx,
                Rule::AmbientNondeterminism,
                "`rand::random` is thread-RNG-backed; derive all randomness from the run seed"
                    .to_string(),
            );
        }
        if has_word(code, "unsafe") {
            let guarded =
                (idx.saturating_sub(3)..=idx).any(|j| lines[j].comment.contains("SAFETY:"));
            if !guarded {
                push(
                    idx,
                    Rule::UnguardedUnsafe,
                    "`unsafe` without a `// SAFETY:` comment on or directly above this line"
                        .to_string(),
                );
            }
        }
    }

    // debug_assert! bodies may span lines; balance parens over the code
    // channel from each macro invocation.
    for (idx, l) in lines.iter().enumerate() {
        let code = l.code.as_str();
        let mut from = 0;
        while let Some(pos) = code[from..].find("debug_assert") {
            let start = from + pos;
            // Identifier boundary on the left (e.g. not `my_debug_assert`).
            let pre_ident = start
                .checked_sub(1)
                .map(|p| code.as_bytes()[p] as char)
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            from = start + "debug_assert".len();
            if pre_ident {
                continue;
            }
            if let Some(mutator) = debug_assert_mutator(&lines, idx, start) {
                push(
                    idx,
                    Rule::DebugAssertSideEffect,
                    format!(
                        "`{mutator}` inside `debug_assert!`: the mutation runs in debug \
                         builds only, so debug and release CI legs simulate different machines"
                    ),
                );
            }
        }
    }

    if is_sim_lib
        && !src.contains("#![warn(missing_docs)]")
        && !src.contains("#![deny(missing_docs)]")
    {
        push(
            0,
            Rule::MissingDocsHeader,
            "simulation-state crates must carry `#![warn(missing_docs)]` so every public \
             knob that can change a fingerprint is documented"
                .to_string(),
        );
    }

    findings
}

/// Collect the parenthesized body of a `debug_assert*!` starting on line
/// `line` at column `col` and return the first mutator pattern found in
/// it, if any.
fn debug_assert_mutator(lines: &[ScannedLine], line: usize, col: usize) -> Option<&'static str> {
    let mut body = String::new();
    let mut depth = 0usize;
    let mut opened = false;
    'outer: for (i, l) in lines.iter().enumerate().skip(line) {
        let code = if i == line {
            &l.code[col..]
        } else {
            &l.code[..]
        };
        for c in code.chars() {
            match c {
                '(' => {
                    depth += 1;
                    opened = true;
                }
                ')' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break 'outer;
                    }
                }
                _ => {}
            }
            if opened {
                body.push(c);
            }
        }
        body.push('\n');
        // Unterminated macro body (mid-file scan artifacts): bail after a
        // generous window rather than swallowing the rest of the file.
        if i > line + 40 {
            break;
        }
    }
    MUTATORS.into_iter().find(|m| body.contains(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_order_fires_in_sim_state_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("x.rs", src, Role::SimState, false)),
            [Rule::HashOrder]
        );
        assert!(lint_source("x.rs", src, Role::Harness, false).is_empty());
        assert!(lint_source("x.rs", src, Role::Experiments, false).is_empty());
    }

    #[test]
    fn words_in_comments_and_strings_do_not_fire() {
        let src = "// the old HashMap order\nlet s = \"Instant\";\n";
        assert!(lint_source("x.rs", src, Role::SimState, false).is_empty());
    }

    #[test]
    fn line_allow_with_reason_suppresses() {
        let src = "// lint: allow(hash-order) — keyed access only, never iterated\n\
                   let m: HashMap<u32, u32> = HashMap::new();\n";
        assert!(lint_source("x.rs", src, Role::SimState, false).is_empty());
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "let m: HashMap<u32, u32> = HashMap::new(); // lint: allow(hash-order)\n";
        let f = lint_source("x.rs", src, Role::SimState, false);
        assert_eq!(rules_of(&f), [Rule::AllowMissingReason, Rule::HashOrder]);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// lint: allow(no-such-rule) — because reasons\nlet x = 1;\n";
        let f = lint_source("x.rs", src, Role::SimState, false);
        assert_eq!(rules_of(&f), [Rule::AllowUnknownRule]);
    }

    #[test]
    fn file_allow_covers_every_occurrence() {
        let src = "// lint: file-allow(hash-order) — lookup-only store, never iterated\n\
                   use std::collections::HashMap;\nlet m = HashMap::<u8, u8>::new();\n";
        assert!(lint_source("x.rs", src, Role::SimState, false).is_empty());
    }

    #[test]
    fn debug_assert_mutation_flagged_across_lines() {
        let src = "debug_assert!(\n    q.pop_front()\n        .is_some()\n);\n";
        let f = lint_source("x.rs", src, Role::Harness, false);
        assert_eq!(rules_of(&f), [Rule::DebugAssertSideEffect]);
    }

    #[test]
    fn debug_assert_pure_comparison_clean() {
        let src = "debug_assert!(self.len >= rhs.len, \"msg .push( inside string\");\n";
        assert!(lint_source("x.rs", src, Role::SimState, false).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "let p = unsafe { *ptr };\n";
        let good = "// SAFETY: ptr outlives the call by construction\nlet p = unsafe { *ptr };\n";
        assert_eq!(
            rules_of(&lint_source("x.rs", bad, Role::Harness, false)),
            [Rule::UnguardedUnsafe]
        );
        assert!(lint_source("x.rs", good, Role::Harness, false).is_empty());
    }

    #[test]
    fn missing_docs_header_on_sim_lib_only() {
        let src = "//! A crate.\npub fn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("lib.rs", src, Role::SimState, true)),
            [Rule::MissingDocsHeader]
        );
        assert!(lint_source("lib.rs", src, Role::SimState, false).is_empty());
        let with = "//! A crate.\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(lint_source("lib.rs", with, Role::SimState, true).is_empty());
    }
}
