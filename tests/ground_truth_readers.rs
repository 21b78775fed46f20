//! A request's true output length is simulator ground truth: a serving
//! system learns it only when the request ends. Only convention keeps a
//! decision from reading it, so this test counts, per file, the non-test
//! code lines in `crates/*/src` and `src` that name it
//! (`true_output_len`, `true_total_len`, `oracle_remaining`) and compares
//! the counts with an allowlist that gives each reader its purpose. A new
//! reader fails the test until it is listed with a purpose; removing a
//! leak removes its entry.

mod scan;

use std::collections::BTreeMap;

use scan::{code_only, without_test_items, workspace_sources};

/// The ground-truth names.
const NAMES: [&str; 3] = ["true_output_len", "true_total_len", "oracle_remaining"];

/// `(file, lines, purpose)`: the non-test lines of `file` that may name
/// ground truth, one entry per purpose.
const ALLOWED: &[(&str, usize, &str)] = &[
    (
        "crates/workload/src/request.rs",
        9,
        "building workloads: the field, its constructors and checks",
    ),
    (
        "crates/workload/src/trace_io.rs",
        1,
        "building workloads: exporting a request set as a trace",
    ),
    (
        "crates/bench/src/lib.rs",
        1,
        "building workloads: history warm-up lengths from a sampled set",
    ),
    (
        "crates/bench/src/bin/simulate.rs",
        1,
        "building workloads: history warm-up lengths from a sampled set",
    ),
    (
        "crates/bench/src/bin/fig6.rs",
        2,
        "the Oracle length source: Figure 6's walk-through fills its views",
    ),
    (
        "crates/core/src/past_future.rs",
        2,
        "the Oracle length source",
    ),
    (
        "crates/core/src/scheduler.rs",
        2,
        "leak: every scheduler's views carry the oracle field (item 6)",
    ),
    (
        "crates/sim/src/engine.rs",
        6,
        "leak: the engine fills the scheduler views' oracle field (item 6), \
         through which the disagg decode pool admits",
    ),
    (
        "crates/sim/src/engine.rs",
        5,
        "deciding that a request has ended (continuous and static batching; \
         on a disagg prefill instance, whether it ends there or is handed out)",
    ),
    (
        "crates/sim/src/engine.rs",
        2,
        "the labelled oracle metrics: true M* behind Figure 1 and the router probe",
    ),
    (
        "crates/sim/src/engine.rs",
        1,
        "leak: upfront validation on the true total length (item 6), \
         the disagg pools' too",
    ),
];

/// 1-based numbers of the lines of non-test `code` that name ground truth.
fn readers(src: &str) -> Vec<usize> {
    let code = without_test_items(&code_only(src));
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.lines()
        .enumerate()
        .filter(|(_, line)| {
            NAMES.iter().any(|name| {
                line.match_indices(name).any(|(at, _)| {
                    !line[..at].ends_with(ident) && !line[at + name.len()..].starts_with(ident)
                })
            })
        })
        .map(|(k, _)| k + 1)
        .collect()
}

#[test]
fn ground_truth_readers_match_the_allowlist() {
    let fixture = "let a = spec.true_output_len; // true_output_len\n\
                   let b = \"oracle_remaining\"; let c = x.my_true_output_len;\n\
                   let d = spec.true_total_len();\n\
                   #[cfg(test)]\nmod tests { fn f() { s.true_output_len; } }\n\
                   v.oracle_remaining\n";
    assert_eq!(readers(fixture), [1, 3, 6], "the scanner itself");

    let mut allowed: BTreeMap<&str, usize> = BTreeMap::new();
    for &(file, lines, _) in ALLOWED {
        *allowed.entry(file).or_default() += lines;
    }
    let mut found: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (path, src) in workspace_sources() {
        let lines = readers(&src);
        if !lines.is_empty() {
            found.insert(path, lines);
        }
    }
    let counts: BTreeMap<&str, usize> = found
        .iter()
        .map(|(path, lines)| (path.as_str(), lines.len()))
        .collect();
    assert_eq!(
        counts, allowed,
        "ground-truth readers differ from the allowlist; lines found: {found:?}"
    );
}
