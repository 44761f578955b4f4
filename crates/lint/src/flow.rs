//! Dataflow-backed rules: `seed-flow` and `no-unordered-float-reduce`.
//!
//! Both analyses walk function bodies as token trees. `seed-flow` runs a
//! small intra-function taint propagation ("which locals are derived from
//! a seed?") seeded by parameters and [`crate::index::Workspace`]
//! seed-source calls; `no-unordered-float-reduce` combines unordered
//! container bindings with float-typed locals to catch accumulation whose
//! order the runtime does not pin.

use std::collections::BTreeSet;

use crate::index::Workspace;
use crate::items::FnItem;
use crate::lexer::{is_float_literal, TokKind, Token};
use crate::rules::{Diagnostic, Rule};
use crate::source::SourceFile;
use crate::tree::{flatten, is_ident, is_punct, Group, Tree};

// ---------------------------------------------------------------------------
// Shared walkers
// ---------------------------------------------------------------------------

/// Invoke `f(name, expr)` for every simple `let [mut] name [: ty] = expr;`
/// binding under `trees`, at any nesting depth (blocks, closures, match
/// arms). Destructuring patterns are skipped — the analyses only track
/// plain identifiers.
fn for_each_let(trees: &[Tree], f: &mut impl FnMut(&str, &[Tree])) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Tree::Group(g) = &trees[i] {
            for_each_let(&g.children, f);
            i += 1;
            continue;
        }
        if is_ident(&trees[i], "let") {
            let mut j = i + 1;
            if j < trees.len() && is_ident(&trees[j], "mut") {
                j += 1;
            }
            let name = trees
                .get(j)
                .and_then(Tree::leaf)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            // A group right after the name means a pattern (`let Some(x)`).
            let is_pattern = trees.get(j + 1).is_some_and(|t| t.group().is_some());
            if let (Some(name), false) = (name, is_pattern) {
                // Skip to the `=` (over any `: ty` ascription).
                let mut k = j + 1;
                while k < trees.len() && !is_punct(&trees[k], "=") && !is_punct(&trees[k], ";") {
                    k += 1;
                }
                if k < trees.len() && is_punct(&trees[k], "=") {
                    let start = k + 1;
                    let mut end = start;
                    while end < trees.len() && !is_punct(&trees[end], ";") {
                        end += 1;
                    }
                    f(&name, &trees[start..end]);
                    // Fall through with `i += 1`: groups inside the
                    // initializer are recursed by the Group arm above.
                }
            }
        }
        i += 1;
    }
}

/// Invoke `f(callee_token, args)` for every `name(…)` application whose
/// callee identifier satisfies `want`, at any depth.
fn for_each_call<'a>(
    trees: &'a [Tree],
    want: &dyn Fn(&str) -> bool,
    f: &mut impl FnMut(&'a Token, &'a Group),
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            for_each_call(&g.children, want, f);
            if g.delim == '(' {
                if let Some(prev) = i.checked_sub(1).and_then(|j| trees[j].leaf()) {
                    if prev.kind == TokKind::Ident && want(&prev.text) {
                        f(prev, g);
                    }
                }
            }
        }
    }
}

/// Per-function float-typed identifiers: parameters with a scalar
/// `f32`/`f64` type plus locals whose initializer visibly involves floats,
/// propagated to a fixpoint.
pub fn float_idents(f: &FnItem) -> BTreeSet<String> {
    let mut floats: BTreeSet<String> = f
        .params
        .iter()
        .filter(|p| {
            matches!(
                p.ty.trim_start_matches(['&', ' '])
                    .trim_start_matches("mut ")
                    .trim(),
                "f32" | "f64"
            )
        })
        .filter_map(|p| p.name.split_whitespace().last().map(str::to_string))
        .collect();
    loop {
        let mut grew = false;
        for_each_let(&f.body, &mut |name, expr| {
            if floats.contains(name) {
                return;
            }
            let mut flat = Vec::new();
            flatten(expr, &mut flat);
            // An expression that *ends* in an integer cast produces an
            // integer no matter what fed it (`x.ceil() as u64`).
            let ends_integral = matches!(
                (flat.len().checked_sub(2).map(|j| flat[j]), flat.last()),
                (Some(a), Some(t)) if a.is_ident("as")
                    && t.kind == TokKind::Ident
                    && !(t.text == "f64" || t.text == "f32")
            );
            let float_valued = !ends_integral
                && flat.iter().any(|t| {
                    (t.kind == TokKind::Num && is_float_literal(&t.text))
                        || t.is_ident("f64")
                        || t.is_ident("f32")
                        || (t.kind == TokKind::Ident && floats.contains(&t.text))
                });
            if float_valued {
                floats.insert(name.to_string());
                grew = true;
            }
        });
        if !grew {
            break;
        }
    }
    floats
}

// ---------------------------------------------------------------------------
// seed-flow
// ---------------------------------------------------------------------------

/// Crates whose randomness must be replayable: everything that feeds
/// simulated results. The bench harness and the linter itself are exempt.
const SEED_CRATES: &[&str] = &[
    "tensor", "gpusim", "engine", "runtime", "cluster", "ctrl", "plan", "eval", "trace", "par",
    "mem",
];

/// RNG constructor names whose argument must carry seed provenance.
const RNG_CTORS: &[&str] = &["rng_from_seed", "from_seed"];

/// Every RNG construction in a simulation crate must be reachable, via
/// intra-function dataflow, from a seed parameter or a `derive_seed`
/// call (or a workspace function the index proves returns a derived
/// seed). A hard-coded or unrelated argument means the stream cannot be
/// replayed from the experiment seed.
pub struct SeedFlow;

impl Rule for SeedFlow {
    fn name(&self) -> &'static str {
        "seed-flow"
    }

    fn explain(&self) -> &'static str {
        "Byte-identical replays require every random stream to be a pure \
         function of the experiment seed. This rule runs an intra-function \
         taint analysis: an RNG constructor argument (`rng_from_seed`, \
         `from_seed`) must mention a seed parameter, a local assigned from \
         one, a `derive_seed` call, or a workspace function the symbol \
         index proves returns a derived seed. Literal or unrelated \
         arguments create hidden fixed streams that silently decouple \
         results from the seed being swept. Tests are exempt (pinned \
         literal seeds are the point there)."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        SEED_CRATES.contains(&file.crate_name.as_str()) && !file.is_test_file
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            // Taint: seed-shaped params, then let-propagation to fixpoint.
            let mut taint: BTreeSet<String> = f
                .params
                .iter()
                .filter(|p| p.name.to_lowercase().contains("seed") || p.ty.contains("Seed"))
                .filter_map(|p| p.name.split_whitespace().last().map(str::to_string))
                .collect();
            loop {
                let mut grew = false;
                for_each_let(&f.body, &mut |name, expr| {
                    if !taint.contains(name) && expr_is_seeded(expr, &taint, ws) {
                        taint.insert(name.to_string());
                        grew = true;
                    }
                });
                if !grew {
                    break;
                }
            }
            for_each_call(
                &f.body,
                &|name| RNG_CTORS.contains(&name),
                &mut |callee, args| {
                    if file.line_in_test(callee.line) {
                        return;
                    }
                    if !expr_is_seeded(&args.children, &taint, ws) {
                        out.push(Diagnostic {
                            path: file.rel.clone(),
                            line: callee.line,
                            rule: self.name(),
                            message: format!(
                                "`{}` argument is not derived from a seed; thread a seed \
                                 parameter through or derive one with `derive_seed`",
                                callee.text
                            ),
                        });
                    }
                },
            );
        }
    }
}

/// Does this expression carry seed provenance under the given taint set?
fn expr_is_seeded(expr: &[Tree], taint: &BTreeSet<String>, ws: &Workspace) -> bool {
    let mut flat = Vec::new();
    flatten(expr, &mut flat);
    flat.iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.to_lowercase().contains("seed")
                || taint.contains(&t.text)
                || ws.is_seed_source(&t.text))
    })
}

// ---------------------------------------------------------------------------
// no-unordered-float-reduce
// ---------------------------------------------------------------------------

/// Containers whose iteration order is not defined.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iterator-producing methods on those containers.
const UNORDERED_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Order-sensitive float reducers.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// `moe-par` entry points whose closures run on the pool.
const PAR_APIS: &[&str] = &["map_collect", "for_each_chunk_mut"];

/// Float addition is not associative, so accumulating `f32`/`f64` in an
/// order the program does not pin produces run-to-run drift. Flags float
/// reduction chains and `+=` accumulation inside iteration over
/// `HashMap`/`HashSet`, and captured-state float accumulation inside
/// `moe-par` closures (which bypasses the executor's ordered reduction).
pub struct NoUnorderedFloatReduce;

impl Rule for NoUnorderedFloatReduce {
    fn name(&self) -> &'static str {
        "no-unordered-float-reduce"
    }

    fn explain(&self) -> &'static str {
        "Float addition is not associative: summing the same values in a \
         different order changes the low bits, so reports stop being \
         byte-identical. Iteration over HashMap/HashSet has no defined \
         order, and accumulating into state captured by a moe-par closure \
         observes the steal schedule. Iterate ordered containers (BTreeMap \
         or sorted keys) and reduce parallel work through map_collect's \
         ordered merge — return per-task values instead of mutating shared \
         accumulators."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.crate_name != "lint" && !file.is_test_file
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let _ = ws;
        let unordered = crate::rules::bindings_of(&file.tokens, UNORDERED_TYPES);
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let floats = float_idents(f);
            // Case 1: reduction chains hanging off unordered iteration.
            self.check_chains(file, f, &unordered, &floats, out);
            // Case 2: `for … in <unordered>` loops accumulating floats.
            self.check_for_loops(file, &f.body, &unordered, &floats, out);
            // Case 3: captured accumulation inside moe-par closures.
            self.check_par_closures(file, &f.body, &floats, out);
        }
    }
}

impl NoUnorderedFloatReduce {
    fn check_chains(
        &self,
        file: &SourceFile,
        f: &FnItem,
        unordered: &[String],
        floats: &BTreeSet<String>,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut flat = Vec::new();
        flatten(&f.body, &mut flat);
        for i in 0..flat.len() {
            let t = flat[i];
            if t.kind != TokKind::Ident || !unordered.contains(&t.text) {
                continue;
            }
            let starts_iter = matches!(
                (flat.get(i + 1), flat.get(i + 2)),
                (Some(dot), Some(m)) if dot.is_punct(".")
                    && m.kind == TokKind::Ident
                    && UNORDERED_ITERS.contains(&m.text.as_str())
            );
            if !starts_iter {
                continue;
            }
            // Scan the whole statement: float evidence may come before or
            // after the reducer (`.sum::<f64>()` turbofish).
            let stmt_end = (i + 2..flat.len())
                .find(|&j| flat[j].is_punct(";"))
                .unwrap_or(flat.len());
            let stmt = &flat[i + 2..stmt_end];
            let saw_float = stmt.iter().any(|tok| {
                (tok.kind == TokKind::Num && is_float_literal(&tok.text))
                    || tok.is_ident("f64")
                    || tok.is_ident("f32")
                    || (tok.kind == TokKind::Ident && floats.contains(&tok.text))
            });
            let reducer = stmt.iter().enumerate().find(|(j, tok)| {
                tok.kind == TokKind::Ident
                    && REDUCERS.contains(&tok.text.as_str())
                    && (*j > 0 && stmt[j - 1].is_punct(".") || *j == 0)
            });
            if let Some((_, tok)) = reducer {
                if saw_float && !file.line_in_test(tok.line) {
                    out.push(self.diag(
                        file,
                        tok.line,
                        format!(
                            "float `{}` over unordered `{}` iteration; accumulation order \
                             is nondeterministic — iterate a `BTreeMap`/sorted keys or \
                             collect and sort first",
                            tok.text, t.text
                        ),
                    ));
                }
            }
        }
    }

    fn check_for_loops(
        &self,
        file: &SourceFile,
        seq: &[Tree],
        unordered: &[String],
        floats: &BTreeSet<String>,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut i = 0usize;
        while i < seq.len() {
            if let Tree::Group(g) = &seq[i] {
                self.check_for_loops(file, &g.children, unordered, floats, out);
                i += 1;
                continue;
            }
            if !is_ident(&seq[i], "for") {
                i += 1;
                continue;
            }
            // `for <pat> in <expr> { body }` at this nesting level.
            let Some(in_pos) = (i + 1..seq.len())
                .take_while(|&j| seq[j].group().is_none_or(|g| g.delim != '{'))
                .find(|&j| is_ident(&seq[j], "in"))
            else {
                i += 1;
                continue;
            };
            let Some(body_pos) =
                (in_pos + 1..seq.len()).find(|&j| seq[j].group().is_some_and(|g| g.delim == '{'))
            else {
                i += 1;
                continue;
            };
            let iter_expr = &seq[in_pos + 1..body_pos];
            let mut iter_flat = Vec::new();
            flatten(iter_expr, &mut iter_flat);
            let over_unordered = iter_flat
                .iter()
                .any(|t| t.kind == TokKind::Ident && unordered.contains(&t.text));
            if over_unordered {
                if let Some(body) = seq[body_pos].group() {
                    self.flag_accumulation(file, &body.children, floats, &BTreeSet::new(), out);
                }
            }
            i = body_pos + 1;
        }
    }

    fn check_par_closures(
        &self,
        file: &SourceFile,
        seq: &[Tree],
        floats: &BTreeSet<String>,
        out: &mut Vec<Diagnostic>,
    ) {
        for_each_call(
            seq,
            &|name| PAR_APIS.contains(&name),
            &mut |_callee, args| {
                let kids = &args.children;
                let Some(open) = kids.iter().position(|t| is_punct(t, "|")) else {
                    return;
                };
                let Some(close_rel) = kids[open + 1..].iter().position(|t| is_punct(t, "|")) else {
                    return;
                };
                let close = open + 1 + close_rel;
                let mut bound: BTreeSet<String> = kids[open + 1..close]
                    .iter()
                    .filter_map(|t| t.leaf())
                    .filter(|t| t.kind == TokKind::Ident && t.text != "mut")
                    .map(|t| t.text.clone())
                    .collect();
                let body = &kids[close + 1..];
                for_each_let(body, &mut |name, _| {
                    bound.insert(name.to_string());
                });
                self.flag_accumulation(file, body, floats, &bound, out);
            },
        );
    }

    /// Flag `target += …` under `seq` where the target's root identifier
    /// is not locally `bound` and the accumulation is visibly float-typed.
    fn flag_accumulation(
        &self,
        file: &SourceFile,
        seq: &[Tree],
        floats: &BTreeSet<String>,
        bound: &BTreeSet<String>,
        out: &mut Vec<Diagnostic>,
    ) {
        for (i, t) in seq.iter().enumerate() {
            if let Tree::Group(g) = t {
                self.flag_accumulation(file, &g.children, floats, bound, out);
                continue;
            }
            let Some(op) = t.leaf().filter(|t| t.is_punct("+=")) else {
                continue;
            };
            let Some(root) = target_root(&seq[..i]) else {
                continue;
            };
            if bound.contains(&root) {
                continue;
            }
            let rhs_end = (i + 1..seq.len())
                .find(|&j| is_punct(&seq[j], ";"))
                .unwrap_or(seq.len());
            let mut rhs = Vec::new();
            flatten(&seq[i + 1..rhs_end], &mut rhs);
            let float_typed = floats.contains(&root)
                || rhs.iter().any(|t| {
                    (t.kind == TokKind::Num && is_float_literal(&t.text))
                        || t.is_ident("f64")
                        || t.is_ident("f32")
                        || (t.kind == TokKind::Ident && floats.contains(&t.text))
                });
            if float_typed && !file.line_in_test(op.line) {
                out.push(self.diag(
                    file,
                    op.line,
                    format!(
                        "float accumulation into `{root}` here is order-sensitive; \
                         the iteration/steal order is not pinned — reduce in a \
                         deterministic order instead"
                    ),
                ));
            }
        }
    }

    fn diag(&self, file: &SourceFile, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            path: file.rel.clone(),
            line,
            rule: self.name(),
            message,
        }
    }
}

/// Root identifier of the assignment target ending at the end of `seq`
/// (`total` in `total +=`, `self` in `self.total +=`, `acc` in
/// `acc[i] +=`).
fn target_root(seq: &[Tree]) -> Option<String> {
    let mut j = seq.len();
    let mut root: Option<String> = None;
    while j > 0 {
        match &seq[j - 1] {
            Tree::Group(_) => j -= 1,
            Tree::Leaf(t) if t.kind == TokKind::Ident => {
                root = Some(t.text.clone());
                // Keep walking through field/method paths.
                if j >= 2 && seq[j - 2].leaf().is_some_and(|p| p.is_punct(".")) {
                    j -= 2;
                } else {
                    break;
                }
            }
            Tree::Leaf(t) if t.is_punct(".") => j -= 1,
            _ => break,
        }
    }
    root
}
