//! A `debug_assert*!` argument vanishes in release builds, so a side effect
//! inside one makes debug and release replays diverge. Clippy's denied
//! `debug_assert_with_mut_call` catches `&mut` calls; this test rejects the
//! two forms it misses in `crates/*/src` and `src`: an assignment anywhere in
//! the arguments (inside a block or a closure), and `.set(…)` through a
//! shared reference (`Cell::set`).

#[expect(dead_code, reason = "this test scans test code too")]
mod scan;

use scan::{code_only, workspace_sources};

/// Lines of the `debug_assert*!` invocations in `src` whose arguments
/// assign (`=`, `+=`, `<<=`, …) or call `.set(`.
fn side_effects(src: &str) -> Vec<usize> {
    let code = code_only(src);
    let findings = code
        .match_indices("debug_assert")
        .filter_map(|(pos, name)| {
            let rest = code[pos + name.len()..].trim_start_matches(['_', 'e', 'q', 'n']);
            let args = rest.trim_start().strip_prefix('!')?.trim_start();
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            if code[..pos].ends_with(ident) || !args.starts_with(['(', '[', '{']) {
                return None;
            }
            let mut depth = 0;
            let end = args.find(|c| {
                depth += i32::from("([{".contains(c)) - i32::from(")]}".contains(c));
                depth == 0
            })?;
            let body: String = args[..end].split_whitespace().collect();
            let plain = body.replace("<<=", "=").replace(">>=", "=");
            let ops = ["==", "!=", "<=", ">=", "=>"].iter();
            let assigns = ops.fold(plain, |b, op| b.replace(op, "")).contains('=');
            (assigns || body.contains(".set(")).then(|| 1 + code[..pos].matches('\n').count())
        });
    findings.collect()
}

#[test]
fn debug_asserts_have_no_side_effects() {
    let fixture = "debug_assert!({ x += 1; x > 0 });\n\
                   debug_assert!(v.iter().all(|_| { n += 1; true }));\n\
                   debug_assert_eq!({ c.set(1); 1 }, 1);\n\
                   debug_assert!(a <= b && a != b || a >= b, \"x = {}\", '=');\n\
                   // debug_assert!({ y = 1; true });\nself.debug_assert_fresh(); z = 1;";
    assert_eq!(side_effects(fixture), [1, 2, 3], "the scanner itself");
    let mut findings = Vec::new();
    for (path, src) in workspace_sources() {
        findings.extend(side_effects(&src).iter().map(|l| format!("{path}:{l}")));
    }
    findings.sort();
    assert_eq!(findings, Vec::<String>::new());
}
