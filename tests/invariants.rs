//! The two workspace invariants clippy has no lint for (DESIGN.md §10),
//! checked with std only; each check also runs on an in-file bad input.
//! **no-string-error:** no `pub fn` in a library `src/` file, outside
//! `#[cfg(test)]`, returns `Result<_, String>` (`pub(crate)` and binaries
//! are exempt). **layering:** every `[dependencies]`,
//! `[dev-dependencies]` and `[build-dependencies]` edge points strictly
//! down `sram`/`trace` → `energy`/`uarch` → `core` → `baselines` →
//! `bench` → `serve` → facade.

use std::fs;
use std::path::{Path, PathBuf};

/// The facade's directory and every member's, facade first.
fn package_dirs() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    [root].into_iter().chain(members).collect()
}

/// Library sources under `dir`: `.rs` files outside `bin/`, but `main.rs`.
fn library_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("bin") {
            library_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("main.rs") {
            out.push(path);
        }
    }
}

/// 1-based lines of the `pub fn` signatures in `src`, outside
/// `#[cfg(test)]` items, whose return type holds `Result<_, String>`.
fn string_error_fns(src: &str) -> Vec<usize> {
    let lines: Vec<&str> = src.lines().collect();
    let mut hits = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_start();
        if line.starts_with("#[cfg(test)]") {
            // Skip the item: to its `;`, or through its balanced braces.
            let mut depth = 0;
            while let Some(l) = lines.get(i + 1) {
                i += 1;
                depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                if depth == 0 && (l.contains('}') || l.trim_end().ends_with(';')) {
                    break;
                }
            }
        } else if line.strip_prefix("pub ").is_some_and(|r| {
            r.split_whitespace()
                .find(|w| !matches!(*w, "const" | "async" | "unsafe"))
                == Some("fn")
        }) {
            let rest = lines[i..].join("\n");
            let sig = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
            if returns_string_error(sig) {
                hits.push(i + 1);
            }
        }
        i += 1;
    }
    hits
}

/// Whether the return type of `sig` holds a `Result` whose error is
/// `String` (or a path ending in `::String`).
fn returns_string_error(sig: &str) -> bool {
    let ret = sig.split_once("->").map_or("", |(_, ret)| ret);
    let ret = ret.split_whitespace().collect::<String>().replace("->", "");
    let word = |at: usize| !ret[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
    ret.match_indices("Result<")
        .filter(|(at, _)| word(*at))
        .any(|(at, m)| {
            let args = &ret[at + m.len()..];
            let (mut depth, mut err) = (0, None);
            for (k, ch) in args.char_indices() {
                match ch {
                    '<' | '(' | '[' => depth += 1,
                    ',' if depth == 0 => err = Some(k + 1),
                    '>' | ')' | ']' if depth == 0 => {
                        let err = err.map_or("", |e| &args[e..k]);
                        return err == "String" || err.ends_with("::String");
                    }
                    '>' | ')' | ']' => depth -= 1,
                    _ => {}
                }
            }
            false
        })
}

#[test]
fn no_public_fn_returns_a_string_error() {
    let mut files = Vec::new();
    for dir in package_dirs() {
        library_sources(&dir.join("src"), &mut files);
    }
    // Guard against a vacuous pass: the walk must see the real tree.
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let mut violations = Vec::new();
    for f in &files {
        for line in string_error_fns(&fs::read_to_string(f).unwrap()) {
            violations.push(format!("{}:{line}", f.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "Result<_, String> in a pub fn: {violations:?}"
    );
}

#[test]
fn string_error_check_fires_on_a_bad_input() {
    let multiline = "\n/// Doc.\npub const fn g(x: u8)\n    -> Option<std::result::Result<u8, std::string::String>>;";
    assert_eq!(string_error_fns(multiline), [3]);
    assert_eq!(string_error_fns("pub fn f() -> Result<(), String> {}"), [1]);
    for ok in [
        "pub(crate) fn f() -> Result<(), String> { Ok(()) }",
        "#[cfg(test)]\nmod tests {\n    pub fn f() -> Result<(), String> {\n        Ok(())\n    }\n}",
        "// pub fn f() -> Result<(), String>",
        "pub fn f() -> Result<String, Error> {}",
        "pub fn f() -> io::Result<String> {}",
        "pub fn f() -> MyResult<u8, String> {}",
        "pub fn f(g: Box<dyn Fn() -> u8>) -> Result<Box<dyn Fn(u8, u8) -> u8>, E> {}",
    ] {
        assert!(string_error_fns(ok).is_empty(), "fired on {ok:?}");
    }
}

/// Stack rank of a workspace package; an edge must go strictly down.
fn rank(package: &str) -> Option<u32> {
    match package {
        "lowvcc-sram" | "lowvcc-trace" => Some(0),
        "lowvcc-energy" | "lowvcc-uarch" => Some(1),
        "lowvcc-core" => Some(2),
        "lowvcc-baselines" => Some(3),
        "lowvcc-bench" => Some(4),
        "lowvcc-serve" => Some(5),
        "lowvcc" => Some(6),
        _ => None,
    }
}

/// A manifest's package name and the edges that break the layering.
/// Edges are read from `[dependencies]`-style tables, inline
/// (`name = …`, `name.workspace = true`) or as `[dependencies.name]`;
/// the root's `[workspace.dependencies]` is a catalogue, not an edge.
fn layering_violations(manifest: &str) -> (Option<String>, Vec<String>) {
    const EDGE_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
    let (mut package, mut deps, mut table) = (None, Vec::new(), "");
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = header;
            let (t, name) = header.split_once('.').unwrap_or_default();
            if EDGE_TABLES.contains(&t) {
                deps.push(name.to_string());
            }
        } else if let Some((key, value)) = line.split_once('=') {
            if table == "package" && key.trim() == "name" {
                package = Some(value.trim().trim_matches('"').to_string());
            } else if EDGE_TABLES.contains(&table) {
                deps.push(key.split('.').next().unwrap_or_default().trim().to_string());
            }
        }
    }
    let name = package.as_deref().unwrap_or("?");
    let violations = deps
        .into_iter()
        .filter(|dep| dep.starts_with("lowvcc"))
        .filter(|dep| !matches!((rank(name), rank(dep)), (Some(f), Some(t)) if t < f))
        .map(|dep| format!("{name} -> {dep} does not point down"))
        .collect();
    (package, violations)
}

#[test]
fn crate_edges_point_down_the_stack() {
    let (mut packages, mut violations) = (Vec::new(), Vec::new());
    for dir in package_dirs() {
        let (package, v) =
            layering_violations(&fs::read_to_string(dir.join("Cargo.toml")).unwrap());
        packages.extend(package);
        violations.extend(v);
    }
    // Every member is ranked, so none can sit outside the stack.
    assert_eq!(packages.len(), 9, "{packages:?}");
    assert!(packages.iter().all(|p| rank(p).is_some()), "{packages:?}");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn layering_check_fires_on_an_upward_edge() {
    for bad in [
        "[package]\nname = \"lowvcc-sram\"\n[dependencies]\nlowvcc-core = { path = \"../core\" }",
        "[package]\nname = \"lowvcc-energy\"\n[dev-dependencies.lowvcc-uarch]\npath = \"../uarch\"",
        "[package]\nname = \"lowvcc-core\"\n[build-dependencies]\nlowvcc-extra.workspace = true",
    ] {
        assert_eq!(layering_violations(bad).1.len(), 1, "missed {bad:?}");
    }
    let catalogue = "[workspace.dependencies]\nlowvcc-serve = { path = \"x\" }\n[package]\nname = \"lowvcc-trace\"";
    assert!(layering_violations(catalogue).1.is_empty());
}
