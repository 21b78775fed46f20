//! A `debug_assert*!` argument vanishes in release builds, so a side effect
//! inside one makes debug and release replays diverge. Clippy's denied
//! `debug_assert_with_mut_call` catches `&mut` calls; this test rejects the
//! two forms it misses in `crates/*/src` and `src`: an assignment anywhere in
//! the arguments (inside a block or a closure), and `.set(…)` through a
//! shared reference (`Cell::set`).

use std::path::Path;

/// `src` with comments and string/char literals blanked, newlines kept.
/// Block comments are taken unnested: a nested one ends early, which can
/// only add findings, never hide one.
fn code_only(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let at = |k: usize| s.get(k).copied().unwrap_or('\0');
    // Just past the first `close` at or after `k`, skipping `\` escapes if `esc`.
    let until = |mut k: usize, close: &str, esc: bool| {
        let close: Vec<char> = close.chars().collect();
        while k < s.len() && !s[k..].starts_with(&close) {
            k += if esc && s[k] == '\\' { 2 } else { 1 };
        }
        k + close.len()
    };
    let (mut out, mut i) = (String::new(), 0);
    while i < s.len() {
        let h = (1..).take_while(|&k| at(i + k) == '#').count();
        let raw_close = format!("\"{}", "#".repeat(h));
        let end = match (at(i), at(i + 1)) {
            ('/', '/') => until(i, "\n", false) - 1,
            ('/', '*') => until(i + 2, "*/", false),
            ('"', _) => until(i + 1, "\"", true),
            ('r', _) if at(i + 1 + h) == '"' => until(i + 2 + h, &raw_close, false),
            ('\'', '\\') => until(i + 3, "'", false),
            ('\'', _) if at(i + 2) == '\'' => i + 3,
            _ => i + 1,
        }
        .min(s.len());
        let keep = |&c: &char| if c == '\n' || end == i + 1 { c } else { ' ' };
        out.extend(s[i..end].iter().map(keep));
        i = end;
    }
    out
}

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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).unwrap().flatten();
    let mut dirs: Vec<_> = crates.map(|m| m.path().join("src")).collect();
    dirs.push(root.join("src"));
    let mut findings = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                let shown = path.strip_prefix(root).unwrap().display().to_string();
                findings.extend(side_effects(&src).iter().map(|l| format!("{shown}:{l}")));
            }
        }
    }
    findings.sort();
    assert_eq!(findings, Vec::<String>::new());
}
