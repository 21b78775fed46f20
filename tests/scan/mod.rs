//! Source scanning shared by the root tests that check the workspace's
//! own code: the non-test Rust files under `crates/*/src` and `src`, with
//! comments and literals blanked.

use std::path::Path;

/// `src` with comments and string/char literals blanked, newlines kept.
/// Block comments are taken unnested: a nested one ends early, which can
/// only add findings, never hide one.
pub fn code_only(src: &str) -> String {
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

/// `code` (already [`code_only`]) with every `#[cfg(test)]` item blanked,
/// newlines kept: the attribute through the item's closing brace, or its
/// `;` when that comes first.
pub fn without_test_items(code: &str) -> String {
    let mut out = code.to_string();
    let mut from = 0;
    while let Some(found) = out[from..].find("#[cfg(test)]") {
        let start = from + found;
        let mut depth = 0;
        let mut end = out.len();
        for (k, c) in out[start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => {
                    end = start + k + 1;
                    break;
                }
                '}' => depth -= 1,
                ';' if depth == 0 => {
                    end = start + k + 1;
                    break;
                }
                _ => {}
            }
        }
        let blank: String = out[start..end]
            .chars()
            .map(|c| if c == '\n' { c } else { ' ' })
            .collect();
        out.replace_range(start..end, &blank);
        from = end;
    }
    out
}

/// Every `.rs` file under `crates/*/src` and `src`, as `(path relative to
/// the workspace root, contents)`, sorted by path.
pub fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).unwrap().flatten();
    let mut dirs: Vec<_> = crates.map(|m| m.path().join("src")).collect();
    dirs.push(root.join("src"));
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                let shown = path.strip_prefix(root).unwrap().display().to_string();
                files.push((shown, src));
            }
        }
    }
    files.sort();
    files
}
