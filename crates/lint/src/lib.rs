//! # moe-lint
//!
//! A from-scratch static analyzer over this workspace's Rust sources,
//! enforcing the determinism and safety invariants the simulator depends
//! on. No external parser: a zero-dependency lexer ([`lexer`]) produces a
//! token stream (plus a position-preserving masked view of the text), a
//! builder folds it into balanced-delimiter token trees ([`tree`]), an
//! item parser recovers `fn` / `impl` / `mod` boundaries and
//! `#[cfg(test)]` scoping ([`items`]), and a small workspace symbol index
//! ([`index`]) resolves intra-workspace call edges. Rules run as
//! structural checks over those views ([`rules`], [`flow`]).
//!
//! ## Rules
//!
//! | rule | scope | bans |
//! |------|-------|------|
//! | `no-unseeded-rng` | everywhere, incl. tests | `thread_rng`, `from_entropy`, `rand::random`, `from_os_rng`, `OsRng` |
//! | `no-wall-clock` | gpusim / engine / runtime / ctrl / plan / par | `Instant::now`, `SystemTime::now` |
//! | `no-panic-in-lib` | non-test library code (bench harness exempt) | `.unwrap()`, `.expect(`, `panic!(` |
//! | `no-float-eq` | non-test code | `==` / `!=` against a float literal |
//! | `no-lossy-float-cast` | gpusim / plan non-test code | `as <int>` on a float-valued expression (float locals tracked per fn) |
//! | `no-hashmap-iter-in-sim` | gpusim / runtime / cluster / ctrl / plan / par non-test code | `.iter()` / `.values()` / `.keys()` / `.drain()` / `.retain()` / `for .. in` over a `HashMap` |
//! | `forbid-unsafe-header` | crate roots | missing `#![forbid(unsafe_code)]` |
//! | `no-env-read-in-sim` | sim crates (par / bench exempt) | `env::var` / `env::var_os` |
//! | `seed-flow` | sim crates, non-test code | RNG constructions not derived (by dataflow) from a seed |
//! | `no-unordered-float-reduce` | non-test code | float accumulation over `HashMap`/`HashSet` iteration or captured in `moe-par` closures |
//! | `dead-pub` | `crates/*/src` non-test code | `pub fn` no other file mentions outside tests and `use` declarations |
//! | `unused-allow` | everywhere | justified `lint:allow` markers that suppress nothing |
//!
//! `moe-lint --explain <rule>` prints the long-form rationale for any rule.
//!
//! ## Suppressions
//!
//! A violation is silenced with an inline comment on the same line or the
//! line directly above:
//!
//! ```text
//! // lint:allow(no-panic-in-lib) -- mutex poisoning is unrecoverable here
//! ```
//!
//! The ` -- justification` part is mandatory; a bare `lint:allow` marker
//! is itself reported (rule `unjustified-allow`), and a justified marker
//! that no longer suppresses anything is reported as `unused-allow`.

#![forbid(unsafe_code)]

pub mod flow;
pub mod index;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod tree;
pub mod walk;

pub use index::Workspace;
pub use rules::{default_rules, explain_rule, rule_names, Diagnostic, Rule};
pub use source::SourceFile;
pub use walk::lint_workspace;

use moe_json::Json;

/// Render diagnostics in `file:line: rule: message` form, one per line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            d.path, d.line, d.rule, d.message
        ));
    }
    out
}

/// Render diagnostics as a JSON array of objects.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let arr: Vec<Json> = diags
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("path".to_string(), Json::Str(d.path.clone())),
                ("line".to_string(), Json::Int(d.line as i128)),
                ("rule".to_string(), Json::Str(d.rule.to_string())),
                ("message".to_string(), Json::Str(d.message.clone())),
            ])
        })
        .collect();
    moe_json::to_string_pretty(&Json::Arr(arr))
}
