//! The determinism rule catalog.
//!
//! Every headline number this repository reports rests on one invariant:
//! a simulation replays **bit-identically** from its seed. The rules here
//! mechanically reject the construct families that have historically
//! broken that contract (see `docs/static-analysis.md` for the rationale
//! and the suppression/baseline workflow):
//!
//! * **D1** — `HashMap`/`HashSet` in determinism-scoped crates
//!   (`pf-sim`, `pf-kvcache`, `pf-autoscale`, `pf-core`), where iteration
//!   order can leak into events, reports, or routing. Use
//!   `BTreeMap`/`BTreeSet` or sort explicitly; key-addressed-only maps
//!   may carry a justified `allow`.
//! * **D2** — wall-clock and ambient RNG (`Instant::now`, `SystemTime`,
//!   `thread_rng`, `rand::random`) outside the shims and the bench timing
//!   module.
//! * **D3** — RNG construction that does not flow from an explicit seed
//!   (`from_seed`/`seed_from_u64`) in non-shim crates.
//! * **D4** — side-effecting expressions inside `debug_assert!` family
//!   macros (assignments or known-mutating method calls), which make
//!   debug and release builds diverge.
//! * **X1** — (cross-file) every `RouterPolicy`, `TransferMode`,
//!   `QueueOrder`, `RepurposeDirection` and `PrefillOrder` variant must
//!   appear in the scenario registry that defines the golden fingerprint
//!   scenarios (`crates/bench/src/scenario.rs`), so new config surface
//!   cannot ship un-goldened.
//! * **S1** — an inline suppression without a justification.
//!
//! Rules operate on lexed tokens (comments and strings are separate
//! tokens), so a `HashMap` in a doc comment never false-positives.

use crate::source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1` … `D4`, `X1`, `S1`, `B1`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line (the baseline match key).
    pub snippet: String,
}

/// Static description of one rule, for `--help` and the docs.
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no HashMap/HashSet in determinism-scoped crates (iteration order can escape)",
    },
    RuleInfo {
        id: "D2",
        summary: "no Instant::now/SystemTime/thread_rng/rand::random outside shims + bench timing",
    },
    RuleInfo {
        id: "D3",
        summary: "RNG construction must flow from an explicit seed (from_seed/seed_from_u64)",
    },
    RuleInfo {
        id: "D4",
        summary: "no side-effecting expressions inside debug_assert!/debug_assert_eq!",
    },
    RuleInfo {
        id: "X1",
        summary:
            "every RouterPolicy/TransferMode/QueueOrder/RepurposeDirection/PrefillOrder variant \
                  appears in a golden scenario",
    },
    RuleInfo {
        id: "S1",
        summary: "inline pf-lint allow() suppressions must carry a justification",
    },
    RuleInfo {
        id: "B1",
        summary: "baseline entries must carry a justification",
    },
];

/// Crates whose `src/` trees are determinism-scoped for D1.
const D1_CRATES: &[&str] = &["sim", "kvcache", "autoscale", "core"];

/// Path prefixes exempt from D2 (the only code allowed to read ambient
/// time/randomness).
const D2_ALLOWED_PREFIXES: &[&str] = &["crates/shims/"];

/// Exact paths exempt from D2 (the bench wall-clock timing module).
const D2_ALLOWED_FILES: &[&str] = &["crates/bench/src/timing.rs"];

/// RNG type names whose associated-function calls D3 inspects.
const D3_RNG_TYPES: &[&str] = &["StdRng", "SmallRng", "ThreadRng"];

/// The only RNG constructors D3 accepts: both take an explicit seed.
const D3_SEEDED_CTORS: &[&str] = &["from_seed", "seed_from_u64"];

/// Method names D4 treats as mutating when called inside a debug assert.
const D4_MUTATORS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "remove_entry",
    "clear",
    "drain",
    "retain",
    "truncate",
    "extend",
    "extend_from_slice",
    "append",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
    "swap_remove",
    "set",
    "next",
];

/// Assignment operators D4 flags inside a debug assert.
const D4_ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// Enums X1 requires golden coverage for.
const X1_ENUMS: &[&str] = &[
    "RouterPolicy",
    "TransferMode",
    "QueueOrder",
    "RepurposeDirection",
    "PrefillOrder",
];

/// The scenario registry that names the golden configs X1 checks against.
pub const X1_GOLDEN_FILE: &str = "crates/bench/src/scenario.rs";

fn in_d1_scope(path: &str) -> bool {
    D1_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn in_d2_allowed(path: &str) -> bool {
    D2_ALLOWED_PREFIXES.iter().any(|p| path.starts_with(p)) || D2_ALLOWED_FILES.contains(&path)
}

fn push(out: &mut Vec<Finding>, rule: &'static str, file: &SourceFile, line: u32, message: String) {
    out.push(Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    });
}

/// D1: hash-ordered collections in determinism-scoped crates.
fn rule_d1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_d1_scope(&file.rel_path) {
        return;
    }
    for i in 0..file.sig.len() {
        let t = *file.sig_token(i).expect("in range");
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let text = file.slice(&t);
        if (text == "HashMap" || text == "HashSet") && !file.in_test_mask(t.start) {
            push(
                out,
                "D1",
                file,
                t.line,
                format!(
                    "`{text}` in a determinism-scoped crate: iteration order can leak into \
                     events, reports, or routing — use BTreeMap/BTreeSet, sort before \
                     iterating, or justify with `// pf-lint: allow(D1): <why order never \
                     escapes>`"
                ),
            );
        }
    }
}

/// D2: ambient wall-clock / process-seeded randomness.
fn rule_d2(file: &SourceFile, out: &mut Vec<Finding>) {
    if in_d2_allowed(&file.rel_path) {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(text) = file.sig_text(i) else {
            continue;
        };
        let t = *file.sig_token(i).expect("in range");
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let hazard = match text {
            "SystemTime" => Some("`SystemTime` reads the host clock".to_string()),
            "thread_rng" => Some("`thread_rng` is process-seeded".to_string()),
            "Instant"
                if file.sig_text(i + 1) == Some("::") && file.sig_text(i + 2) == Some("now") =>
            {
                Some("`Instant::now` reads the host clock".to_string())
            }
            "rand"
                if file.sig_text(i + 1) == Some("::") && file.sig_text(i + 2) == Some("random") =>
            {
                Some("`rand::random` is process-seeded".to_string())
            }
            _ => None,
        };
        if let Some(what) = hazard {
            push(
                out,
                "D2",
                file,
                t.line,
                format!(
                    "{what} — replay from a seed cannot reproduce it; only the shims and \
                     `crates/bench/src/timing.rs` may touch ambient time/randomness"
                ),
            );
        }
    }
}

/// D3: RNG construction not flowing from an explicit seed.
fn rule_d3(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel_path.starts_with("crates/shims/") {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(text) = file.sig_text(i) else {
            continue;
        };
        if !D3_RNG_TYPES.contains(&text) {
            continue;
        }
        if file.sig_text(i + 1) != Some("::") {
            continue;
        }
        let Some(method) = file.sig_text(i + 2) else {
            continue;
        };
        let t = *file.sig_token(i).expect("in range");
        if file.sig_token(i + 2).expect("checked").kind == crate::lexer::TokenKind::Ident
            && !D3_SEEDED_CTORS.contains(&method)
        {
            let method = method.to_string();
            push(
                out,
                "D3",
                file,
                t.line,
                format!(
                    "`{text}::{method}` — RNG construction must flow from an explicit seed \
                     (`from_seed`/`seed_from_u64`), so whole experiments replay from one u64"
                ),
            );
        }
    }
}

/// D4: side effects inside `debug_assert!` family macros, which vanish in
/// release builds and make debug/release replays diverge.
fn rule_d4(file: &SourceFile, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < file.sig.len() {
        let name = file.sig_text(i);
        let is_da = matches!(
            name,
            Some("debug_assert") | Some("debug_assert_eq") | Some("debug_assert_ne")
        );
        if !is_da || file.sig_text(i + 1) != Some("!") {
            i += 1;
            continue;
        }
        let open = i + 2;
        if !matches!(file.sig_text(open), Some("(") | Some("[") | Some("{")) {
            i += 1;
            continue;
        }
        let macro_tok = *file.sig_token(i).expect("in range");
        if file.in_test_mask(macro_tok.start) {
            i += 1;
            continue;
        }
        // Walk the macro body (delimiters of all three kinds nest).
        let mut depth = 0usize;
        let mut j = open;
        while let Some(text) = file.sig_text(j) {
            match text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ if depth >= 1 => {
                    let t = *file.sig_token(j).expect("in range");
                    if t.kind == crate::lexer::TokenKind::Punct && D4_ASSIGN_OPS.contains(&text) {
                        let op = text.to_string();
                        push(
                            out,
                            "D4",
                            file,
                            t.line,
                            format!(
                                "assignment (`{op}`) inside `{}` — the expression vanishes in \
                                 release builds, so debug and release replays diverge",
                                name.expect("matched above")
                            ),
                        );
                    }
                    if t.kind == crate::lexer::TokenKind::Ident
                        && D4_MUTATORS.contains(&text)
                        && file.sig_text(j.wrapping_sub(1)) == Some(".")
                        && file.sig_text(j + 1) == Some("(")
                    {
                        let method = text.to_string();
                        push(
                            out,
                            "D4",
                            file,
                            t.line,
                            format!(
                                "mutating call `.{method}(...)` inside `{}` — the expression \
                                 vanishes in release builds, so debug and release replays \
                                 diverge",
                                name.expect("matched above")
                            ),
                        );
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// S1: suppressions without a justification.
fn rule_s1(file: &SourceFile, out: &mut Vec<Finding>) {
    for s in file.suppressions() {
        if !s.justified {
            let rules = s.rules.join(", ");
            push(
                out,
                "S1",
                file,
                s.comment_line,
                format!(
                    "suppression `allow({rules})` has no justification — write \
                     `// pf-lint: allow({rules}): <why this is safe>`"
                ),
            );
        }
    }
}

/// Extracts the variant names of `enum <name>` from a file, if defined.
fn enum_variants(file: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let n = file.sig.len();
    for i in 0..n {
        if file.sig_text(i) != Some("enum") || file.sig_text(i + 1) != Some(name) {
            continue;
        }
        if file.sig_text(i + 2) != Some("{") {
            continue;
        }
        let mut variants = Vec::new();
        let mut depth = 0usize;
        let mut expecting = true;
        let mut j = i + 2;
        while let Some(text) = file.sig_text(j) {
            match text {
                "{" | "(" | "[" => {
                    if text == "{" {
                        depth += 1;
                        if depth == 1 {
                            j += 1;
                            continue;
                        }
                    } else {
                        depth += 1;
                    }
                }
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(variants);
                    }
                }
                "," if depth == 1 => expecting = true,
                // Skip `#[…]` attribute groups between variants.
                "#" if depth == 1 && file.sig_text(j + 1) == Some("[") => {
                    let mut adepth = 0usize;
                    j += 1;
                    while let Some(a) = file.sig_text(j) {
                        match a {
                            "[" => adepth += 1,
                            "]" => {
                                adepth -= 1;
                                if adepth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                _ if depth == 1 && expecting => {
                    let t = *file.sig_token(j).expect("in range");
                    if t.kind == crate::lexer::TokenKind::Ident {
                        variants.push((text.to_string(), t.line));
                        expecting = false;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        return Some(variants);
    }
    None
}

/// X1: every tracked enum variant must appear (as an identifier) in the
/// golden fingerprint suite, so new config surface cannot ship without a
/// pinned replay scenario.
fn rule_x1(files: &[SourceFile], out: &mut Vec<Finding>) {
    let golden = files.iter().find(|f| f.rel_path == X1_GOLDEN_FILE);
    let golden_idents: std::collections::HashSet<&str> = match golden {
        Some(g) => g
            .sig
            .iter()
            .map(|&idx| &g.tokens[idx])
            .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
            .map(|t| g.slice(t))
            .collect(),
        None => Default::default(),
    };
    for file in files {
        for name in X1_ENUMS {
            let Some(variants) = enum_variants(file, name) else {
                continue;
            };
            if golden.is_none() {
                push(
                    out,
                    "X1",
                    file,
                    file.sig_token(0).map_or(1, |t| t.line),
                    format!(
                        "`{name}` is defined but the golden suite `{X1_GOLDEN_FILE}` was not \
                         found in the lint set — cannot verify variant coverage"
                    ),
                );
                continue;
            }
            for (variant, line) in variants {
                if !golden_idents.contains(variant.as_str()) {
                    push(
                        out,
                        "X1",
                        file,
                        line,
                        format!(
                            "`{name}::{variant}` appears in no golden fingerprint scenario \
                             ({X1_GOLDEN_FILE}) — pin a replay scenario before shipping new \
                             config surface"
                        ),
                    );
                }
            }
        }
    }
}

/// The outcome of a lint pass, after suppression filtering.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that survived suppression (still subject to the baseline).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified or unjustified inline allow.
    pub suppressed: usize,
    /// Suppression comments that silenced nothing (path, line, rules).
    pub unused_suppressions: Vec<(String, u32, String)>,
}

/// Runs the whole catalog over a file set and applies inline suppressions.
pub fn run_rules(files: &[SourceFile]) -> LintOutcome {
    let mut raw = Vec::new();
    for file in files {
        rule_d1(file, &mut raw);
        rule_d2(file, &mut raw);
        rule_d3(file, &mut raw);
        rule_d4(file, &mut raw);
        rule_s1(file, &mut raw);
    }
    rule_x1(files, &mut raw);

    // One finding per (rule, file, line): several hazards on one line are
    // one reviewable unit (and one baseline entry).
    raw.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    raw.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);

    let mut outcome = LintOutcome::default();
    let mut used: std::collections::HashSet<(String, u32, String)> = Default::default();
    for finding in raw {
        let file = files.iter().find(|f| f.rel_path == finding.path);
        let suppressed =
            finding.rule != "S1" && file.is_some_and(|f| f.suppressed(finding.rule, finding.line));
        if suppressed {
            outcome.suppressed += 1;
            if let Some(f) = file {
                for s in f.suppressions() {
                    if s.applies_line == finding.line && s.rules.iter().any(|r| r == finding.rule) {
                        used.insert((f.rel_path.clone(), s.comment_line, finding.rule.to_string()));
                    }
                }
            }
        } else {
            outcome.findings.push(finding);
        }
    }
    for file in files {
        for s in file.suppressions() {
            let any_used = s
                .rules
                .iter()
                .any(|r| used.contains(&(file.rel_path.clone(), s.comment_line, r.clone())));
            if !any_used {
                outcome.unused_suppressions.push((
                    file.rel_path.clone(),
                    s.comment_line,
                    s.rules.join(", "),
                ));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    fn rules_of(outcome: &LintOutcome) -> Vec<&'static str> {
        outcome.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_fires_only_in_scoped_crates_and_outside_tests() {
        let scoped = file(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { fn f(m: std::collections::HashSet<u32>) {} }\n",
        );
        let outcome = run_rules(&[scoped]);
        assert_eq!(
            rules_of(&outcome),
            vec!["D1"],
            "only the non-test use line fires"
        );
        let unscoped = file(
            "crates/workload/src/x.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(run_rules(&[unscoped]).findings.is_empty());
    }

    #[test]
    fn d1_ignores_comments_and_strings() {
        let f = file(
            "crates/kvcache/src/x.rs",
            "//! Unlike a HashMap, this is ordered.\nconst NAME: &str = \"HashMap\";\n",
        );
        assert!(run_rules(&[f]).findings.is_empty());
    }

    #[test]
    fn d2_catches_clock_and_ambient_rng() {
        let f = file(
            "crates/sim/src/x.rs",
            "fn f() { let t = Instant::now(); let r: u8 = rand::random(); let g = thread_rng(); }\n",
        );
        let outcome = run_rules(&[f]);
        assert_eq!(outcome.findings.len(), 1, "one D4-style dedupe per line");
        assert_eq!(outcome.findings[0].rule, "D2");
        // Instant *without* ::now (e.g. a type mention) does not fire.
        let ok = file("crates/sim/src/y.rs", "fn f(t: std::time::Instant) {}\n");
        assert!(run_rules(&[ok]).findings.is_empty());
        // Shims and the bench timing module are exempt.
        let shim = file(
            "crates/shims/rand/src/lib.rs",
            "fn f() { Instant::now(); }\n",
        );
        assert!(run_rules(&[shim]).findings.is_empty());
        let timing = file("crates/bench/src/timing.rs", "fn f() { Instant::now(); }\n");
        assert!(run_rules(&[timing]).findings.is_empty());
    }

    #[test]
    fn d3_requires_seeded_constructors() {
        let bad = file(
            "crates/workload/src/x.rs",
            "fn f() { let r = StdRng::from_entropy(); }\n",
        );
        assert_eq!(rules_of(&run_rules(&[bad])), vec!["D3"]);
        let good = file(
            "crates/workload/src/y.rs",
            "fn f() { let a = StdRng::seed_from_u64(7); let b = StdRng::from_seed([0; 32]); }\n",
        );
        assert!(run_rules(&[good]).findings.is_empty());
    }

    #[test]
    fn d4_catches_assignment_and_mutating_calls() {
        let bad = file(
            "crates/sim/src/x.rs",
            "fn f(mut v: Vec<u32>, mut x: u32) {\n    debug_assert!(v.pop().is_some());\n    debug_assert!({ x += 1; x > 0 });\n}\n",
        );
        let outcome = run_rules(&[bad]);
        assert_eq!(rules_of(&outcome), vec!["D4", "D4"]);
        let good = file(
            "crates/sim/src/y.rs",
            "fn f(v: &[u64], kv: u64) { debug_assert_eq!(kv, v.iter().copied().sum::<u64>()); }\n",
        );
        assert!(run_rules(&[good]).findings.is_empty());
    }

    #[test]
    fn d4_comparisons_are_not_assignments() {
        let f = file(
            "crates/sim/src/x.rs",
            "fn f(a: u32, b: u32) { debug_assert!(a <= b && a != b || a >= b); }\n",
        );
        assert!(run_rules(&[f]).findings.is_empty());
    }

    #[test]
    fn x1_flags_ungoldened_variants() {
        let enum_file = file(
            "crates/sim/src/cluster.rs",
            "/// Policy.\npub enum RouterPolicy {\n    /// Doc.\n    RoundRobin,\n    KvOverlap { overlap_weight: f64, temperature: f64 },\n}\n",
        );
        let golden = file(
            super::X1_GOLDEN_FILE,
            "fn f() { let p = RouterPolicy::KvOverlap { overlap_weight: 1.0, temperature: 0.2 }; }\n",
        );
        let outcome = run_rules(&[enum_file, golden]);
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].rule, "X1");
        assert!(outcome.findings[0]
            .message
            .contains("RouterPolicy::RoundRobin"));
    }

    #[test]
    fn x1_parses_struct_variants_and_attributes() {
        let enum_file = file(
            "crates/sim/src/config.rs",
            "pub enum QueueOrder {\n    #[default]\n    Fifo,\n    LeastSlackFirst { aging_cap: SimDuration },\n}\n",
        );
        let golden = file(
            super::X1_GOLDEN_FILE,
            "fn f() { let a = QueueOrder::Fifo; let b = QueueOrder::LeastSlackFirst { aging_cap: X }; }\n",
        );
        assert!(run_rules(&[enum_file, golden]).findings.is_empty());
    }

    #[test]
    fn suppressions_silence_and_track_usage() {
        let f = file(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap; // pf-lint: allow(D1): key-addressed lookups only\n\
             // pf-lint: allow(D2): never fires here\n\
             fn f() {}\n",
        );
        let outcome = run_rules(&[f]);
        assert!(outcome.findings.is_empty());
        assert_eq!(outcome.suppressed, 1);
        assert_eq!(outcome.unused_suppressions.len(), 1);
        assert_eq!(outcome.unused_suppressions[0].1, 2);
    }

    #[test]
    fn unjustified_suppression_is_s1_but_still_suppresses() {
        let f = file(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap; // pf-lint: allow(D1)\n",
        );
        let outcome = run_rules(&[f]);
        assert_eq!(rules_of(&outcome), vec!["S1"]);
        assert_eq!(outcome.suppressed, 1);
    }
}
