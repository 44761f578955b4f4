//! Workspace file discovery and the top-level lint driver.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::index::Workspace;
use crate::rules::{check_file, default_rules, Diagnostic};
use crate::source::SourceFile;

/// Directories never descended into. `fixtures` holds the lint crate's
/// own test corpus of deliberate violations.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Collect every `.rs` file under `root`, sorted by relative path so
/// output order is stable across filesystems.
fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk_dir(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk_dir(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every Rust source under `root` with the default rules. Two
/// phases: parse every file, build the workspace symbol index, then run
/// the rules with that cross-file context. Returns the surviving
/// (unsuppressed) diagnostics, sorted by path then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        files.push(SourceFile::from_source(&rel, &text));
    }
    let ws = Workspace::build(&files);
    let rules = default_rules();
    let mut diags = Vec::new();
    for file in &files {
        diags.extend(check_file(file, &ws, &rules));
    }
    diags.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_target_and_hidden_dirs() {
        let tmp = std::env::temp_dir().join(format!("moe-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join("src")).unwrap();
        fs::create_dir_all(tmp.join("target/debug")).unwrap();
        fs::create_dir_all(tmp.join(".hidden")).unwrap();
        fs::write(tmp.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        fs::write(tmp.join("target/debug/gen.rs"), "x.unwrap();\n").unwrap();
        fs::write(tmp.join(".hidden/h.rs"), "x.unwrap();\n").unwrap();
        let files = collect_rust_files(&tmp).unwrap();
        assert_eq!(files, vec![tmp.join("src/lib.rs")]);
        let diags = lint_workspace(&tmp).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        fs::remove_dir_all(&tmp).unwrap();
    }
}
