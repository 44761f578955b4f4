//! Workspace symbol index: per-crate `fn` signatures plus name-resolved
//! intra-workspace call edges, the derived *seed-source* set the
//! `seed-flow` rule consumes, and the per-file mentioned-identifier sets
//! the `dead-pub` rule consumes.
//!
//! Resolution is deliberately name-based (this is a linter, not a
//! compiler): a call edge exists when an identifier applied to an
//! argument list matches a function defined anywhere in the workspace.
//! That is precise enough for the analyses built on it — the workspace
//! bans shadowing-heavy styles through its other rules — and keeps the
//! index dependency-free and fast.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::Param;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::tree::Tree;

/// One indexed function signature.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Owning crate (directory under `crates/`, or `root`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Function name.
    pub name: String,
    /// 1-based definition line.
    pub line: usize,
    /// Parameters as `(pattern, type)` text.
    pub params: Vec<Param>,
    /// Rendered return type (empty for `()`).
    pub ret: String,
    /// Whether the definition sits in test scope.
    pub in_test: bool,
    /// Names of workspace functions this body (syntactically) calls.
    pub calls: BTreeSet<String>,
}

impl FnSig {
    /// Does this signature carry a seed-shaped parameter (`*seed*` name
    /// or a `Seed` type)?
    fn has_seed_param(&self) -> bool {
        self.params
            .iter()
            .any(|p| p.name.to_lowercase().contains("seed") || p.ty.contains("Seed"))
    }
}

/// The cross-file context rules run against.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every function in the workspace, in file order.
    pub fns: Vec<FnSig>,
    /// Names of functions whose return value is (transitively) derived
    /// from a seed: they take a seed parameter or call another seed
    /// source, and return a seed-shaped value (`u64` / `Seed`). The
    /// `seed-flow` rule accepts calls to these as seed provenance.
    pub seed_sources: BTreeSet<String>,
    /// Per file (workspace-relative path), every identifier its live code
    /// mentions: outside `use` declarations, and outside test scope unless
    /// the whole file is a caller (tests, benches, examples, root `src/`).
    pub mentions: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Build the index over a set of parsed files.
    pub fn build(files: &[SourceFile]) -> Self {
        // Pass 1: collect raw signatures and every applied identifier.
        let mut fns = Vec::new();
        let mut defined: BTreeSet<String> = BTreeSet::new();
        let mut raw_calls: Vec<BTreeSet<String>> = Vec::new();
        let mut mentions = BTreeMap::new();
        for file in files {
            mentions.insert(file.rel.clone(), mentioned_idents(file));
            for f in &file.fns {
                defined.insert(f.name.clone());
                let mut calls = BTreeSet::new();
                collect_applied(&f.body, &mut calls);
                raw_calls.push(calls);
                fns.push(FnSig {
                    crate_name: file.crate_name.clone(),
                    path: file.rel.clone(),
                    name: f.name.clone(),
                    line: f.line,
                    params: f.params.clone(),
                    ret: f.ret.clone(),
                    in_test: f.in_test,
                    calls: BTreeSet::new(),
                });
            }
        }
        // Pass 2: resolve call edges against workspace definitions.
        for (sig, calls) in fns.iter_mut().zip(raw_calls) {
            sig.calls = calls.intersection(&defined).cloned().collect();
        }
        // Fixpoint: seed sources. `derive_seed` is the axiom; a function
        // joins the set when it returns a seed-shaped value and either
        // takes a seed parameter or calls a member of the set.
        let mut seed_sources: BTreeSet<String> = BTreeSet::new();
        seed_sources.insert("derive_seed".to_string());
        let by_name: BTreeMap<&str, Vec<&FnSig>> = {
            let mut m: BTreeMap<&str, Vec<&FnSig>> = BTreeMap::new();
            for f in &fns {
                m.entry(f.name.as_str()).or_default().push(f);
            }
            m
        };
        loop {
            let mut grew = false;
            for (name, sigs) in &by_name {
                if seed_sources.contains(*name) {
                    continue;
                }
                let qualifies = sigs.iter().any(|f| {
                    returns_seed_shape(&f.ret)
                        && (f.has_seed_param() || f.calls.iter().any(|c| seed_sources.contains(c)))
                });
                if qualifies {
                    seed_sources.insert((*name).to_string());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        Self {
            fns,
            seed_sources,
            mentions,
        }
    }

    /// Build a single-file context (used by per-file checks and tests).
    pub fn single(file: &SourceFile) -> Self {
        Self::build(std::slice::from_ref(file))
    }

    /// Is `name` a known seed source?
    pub fn is_seed_source(&self, name: &str) -> bool {
        self.seed_sources.contains(name)
    }

    /// Does any file other than `path` mention identifier `name`?
    pub fn mentioned_outside(&self, name: &str, path: &str) -> bool {
        self.mentions
            .iter()
            .any(|(p, ids)| p != path && ids.contains(name))
    }
}

/// Do all of this file's lines count as callers, test scope included?
/// True for integration tests, benches, examples and the root package.
fn counts_wholly(rel: &str) -> bool {
    rel.starts_with("src/")
        || rel
            .split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// Every identifier `file` mentions outside `use` declarations (so a
/// `pub use` re-export is not a caller) and, unless the whole file counts
/// as a caller, outside test scope.
fn mentioned_idents(file: &SourceFile) -> BTreeSet<String> {
    let whole = counts_wholly(&file.rel);
    let mut out = BTreeSet::new();
    let mut in_use = false;
    for t in &file.tokens {
        if t.is_ident("use") {
            in_use = true;
        } else if in_use {
            in_use = !t.is_punct(";");
        } else if t.kind == TokKind::Ident && (whole || !file.line_in_test(t.line)) {
            out.insert(t.text.clone());
        }
    }
    out
}

fn returns_seed_shape(ret: &str) -> bool {
    ret == "u64" || ret.contains("Seed")
}

/// Collect every identifier immediately applied to a `(…)` group —
/// function and method call names — anywhere under `trees`. Macro
/// invocations (`name!(…)`) are excluded by the interposed `!`.
fn collect_applied(trees: &[Tree], out: &mut BTreeSet<String>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            collect_applied(&g.children, out);
            if g.delim == '(' {
                if let Some(prev) = i.checked_sub(1).and_then(|j| trees[j].leaf()) {
                    if prev.kind == TokKind::Ident {
                        out.insert(prev.text.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::from_source(rel, src))
            .collect();
        Workspace::build(&parsed)
    }

    #[test]
    fn indexes_signatures_and_calls() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn helper(x: u64) -> u64 { x }\nfn top(seed: u64) { helper(seed); other(); }\n",
        )]);
        let top = w.fns.iter().find(|f| f.name == "top").unwrap();
        assert_eq!(top.crate_name, "a");
        assert!(top.has_seed_param());
        // `helper` resolves (defined in workspace); `other` does not.
        assert_eq!(top.calls, BTreeSet::from(["helper".to_string()]));
    }

    #[test]
    fn seed_sources_fixpoint_through_call_chain() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn child(seed: u64, i: u64) -> u64 { derive_seed(seed, i) }\n\
             fn grandchild(s: u64) -> u64 { child(s, 1) }\n\
             fn not_a_source(seed: u64) -> f64 { 0.5 }\n\
             fn unrelated(x: u64) -> u64 { x + 1 }\n",
        )]);
        assert!(w.is_seed_source("derive_seed"));
        assert!(w.is_seed_source("child"));
        assert!(w.is_seed_source("grandchild"));
        // Wrong return shape, and no seed provenance, respectively.
        assert!(!w.is_seed_source("not_a_source"));
        assert!(!w.is_seed_source("unrelated"));
    }

    #[test]
    fn mentions_skip_use_declarations_and_test_scope() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub use b::reexported;\nuse b::{imported, other};\n\
                 fn live() { imported(); Type::pointer; }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { in_test(); }\n}\n",
            ),
            ("tests/it.rs", "use a::x;\nfn t() { whole_file(); }\n"),
        ]);
        let lib = &w.mentions["crates/a/src/lib.rs"];
        for name in ["live", "imported", "Type", "pointer"] {
            assert!(lib.contains(name), "{name}: {lib:?}");
        }
        for name in ["reexported", "other", "in_test"] {
            assert!(!lib.contains(name), "{name}: {lib:?}");
        }
        assert!(w.mentions["tests/it.rs"].contains("whole_file"));
        assert!(w.mentioned_outside("whole_file", "crates/a/src/lib.rs"));
        assert!(!w.mentioned_outside("pointer", "crates/a/src/lib.rs"));
    }

    #[test]
    fn macro_calls_are_not_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn helper() {}\nfn top() { helper!(x); }\n",
        )]);
        let top = w.fns.iter().find(|f| f.name == "top").unwrap();
        assert!(top.calls.is_empty(), "{:?}", top.calls);
    }
}
