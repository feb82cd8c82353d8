//! Every property test is registered exactly once.
//!
//! Like upstream proptest, the `proptest!` macro adds no `#[test]`, so a
//! `fn` in a `proptest!` block without one compiles and never runs. This
//! scans every Rust file in the repository and requires exactly one
//! `#[test]` on each `fn` directly inside such a block.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The code of `src` with comments, string and char literals blanked to
/// spaces, keeping every byte offset (and so every line number).
fn code_only(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let blank_to = |out: &mut Vec<u8>, from: usize, to: usize| {
            for c in &mut out[from..to.min(b.len())] {
                if *c != b'\n' {
                    *c = b' ';
                }
            }
        };
        if b[i..].starts_with(b"//") {
            let end = b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |n| i + n);
            blank_to(&mut out, i, end);
            i = end;
        } else if b[i..].starts_with(b"/*") {
            let end = src[i + 2..].find("*/").map_or(b.len(), |n| i + 2 + n + 2);
            blank_to(&mut out, i, end);
            i = end;
        } else if let Some(hashes) = raw_string_hashes(b, i) {
            // `r"…"`, `r#"…"#`, `r##"…"##`, …: closed by `"` and as many `#`.
            let open = 2 + hashes;
            let close = format!("\"{}", "#".repeat(hashes));
            let end = src[i + open..]
                .find(&close)
                .map_or(b.len(), |n| i + open + n + close.len());
            blank_to(&mut out, i, end);
            i = end;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            blank_to(&mut out, i, j + 1);
            i = j + 1;
        } else if b[i] == b'\'' && b.get(i + 2) == Some(&b'\'') {
            blank_to(&mut out, i, i + 3);
            i += 3;
        } else if b[i..].starts_with(b"'\\") {
            let end = b[i + 3..]
                .iter()
                .position(|&c| c == b'\'')
                .map_or(b.len(), |n| i + 4 + n);
            blank_to(&mut out, i, end);
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// The number of `#` of a raw string literal that opens at `i`, if one
/// does. Without hashes the `r` must start a token (`r"…"`, `br"…"`).
fn raw_string_hashes(b: &[u8], i: usize) -> Option<usize> {
    if b[i] != b'r' {
        return None;
    }
    let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
    if b.get(i + 1 + hashes) != Some(&b'"') {
        return None;
    }
    let before = b[i.saturating_sub(1)];
    let starts_token = i == 0 || !is_word_byte(before) || before == b'b';
    (hashes > 0 || starts_token).then_some(hashes)
}

fn is_word_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `(line, name, #[test] count)` for each `fn` directly inside a
/// `proptest! { … }` block of `src`.
fn property_fns(src: &str) -> Vec<(usize, String, usize)> {
    let code = code_only(src);
    let text = String::from_utf8_lossy(&code).into_owned();
    let line_of = |at: usize| text[..at].matches('\n').count() + 1;
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(n) = text[from..].find("proptest!") {
        let at = from + n;
        from = at + "proptest!".len();
        let Some(open) = text[from..].find(|c: char| !c.is_whitespace()) else {
            break;
        };
        if code[from + open] != b'{' {
            continue;
        }
        // Walk the block; `item` is where the current depth-1 item began.
        let mut depth = 0usize;
        let mut item = from + open + 1;
        let mut i = from + open;
        while i < code.len() {
            match code[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    if depth == 1 {
                        item = i + 1;
                    }
                }
                b'f' if depth == 1
                    && code[i..].starts_with(b"fn")
                    && !is_word_byte(code[i - 1])
                    && !code.get(i + 2).copied().is_some_and(is_word_byte) =>
                {
                    let name: String = text[i + 2..]
                        .trim_start()
                        .chars()
                        .take_while(|&c| c.is_alphanumeric() || c == '_')
                        .collect();
                    let tests = text[item..i].matches("#[test]").count();
                    found.push((line_of(i), name, tests));
                }
                _ => {}
            }
            i += 1;
        }
        from = i;
    }
    found
}

#[test]
fn every_property_fn_carries_one_test_attribute() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    files.sort();
    let mut seen = 0;
    let mut wrong = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read a Rust source file");
        for (line, name, tests) in property_fns(&src) {
            seen += 1;
            if tests != 1 {
                let rel = path.strip_prefix(root).unwrap_or(path).display();
                wrong.push(format!("{rel}:{line} fn {name}: {tests} #[test]"));
            }
        }
    }
    assert!(
        seen >= 40,
        "found only {seen} property fns; is the scan broken?"
    );
    assert!(
        wrong.is_empty(),
        "property fns not registered exactly once:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn scan_sees_through_comments_and_nested_fns() {
    let src = r#"
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Not a test: #[test]
    fn missing(x in 0u32..4) {
        fn helper() {}
        let _ = "}";
    }

    #[test]
    fn present(v in collection::vec(0i32..10, 0..4)) {
        let _ = ('}', '\'', r"}");
    }
}
"#;
    let fns = property_fns(src);
    assert_eq!(
        fns,
        vec![
            (5, "missing".to_string(), 0),
            (11, "present".to_string(), 1)
        ]
    );
}

#[test]
fn scan_counts_doubled_attributes_across_blocks() {
    let src = r##"
/* proptest! { fn in_a_comment(x in 0u8..1) {} } */
prop_compose! { fn strategy()(x in 0u8..4) -> u8 { x } }
proptest! {
    #[test]
    #[test]
    fn twice(x in strategy()) {
        let _ = r#"proptest! { fn in_a_string() {} }"#;
    }
}
proptest! {
    #[test]
    fn once(x in 0u8..4) {}
}
"##;
    let fns = property_fns(src);
    assert_eq!(
        fns,
        vec![(7, "twice".to_string(), 2), (13, "once".to_string(), 1)]
    );
}
